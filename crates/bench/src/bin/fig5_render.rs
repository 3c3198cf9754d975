//! Figure 5: the CUBE call-tree view with stub nodes — rendered as ASCII.
//!
//! Runs fib (cut-off) instrumented and prints the aggregated profile: the
//! implicit tasks' main tree (with the barrier's stub split into task
//! execution vs. management/idle) and the task construct's own tree
//! beside it.

use bench::{banner, instrumented_run, Config};
use bots::{AppId, RunOpts, Variant};
use cube::{render_profile, RenderOpts};

fn main() {
    let cfg = Config::from_env();
    banner("Fig. 5 — profile call-tree view with stub nodes", &cfg);
    let threads = cfg.threads.iter().copied().max().unwrap_or(4);
    let opts = RunOpts::new(threads)
        .scale(cfg.scale)
        .variant(Variant::Cutoff);
    let (_, prof) = instrumented_run(AppId::Fib, &opts);
    let text = render_profile(
        &prof,
        &RenderOpts {
            stats: true,
            ..Default::default()
        },
    );
    println!("{text}");
    println!("reading guide (paper Fig. 5): under the implicit barrier, the stub node's");
    println!("inclusive time is task execution inside the barrier; the barrier's exclusive");
    println!("time is what remains — task management and/or idle time.");
}
