//! Table II: maximum number of concurrently executing task instances per
//! thread (the memory bound of the profiling system, Section V-B).
//!
//! Paper reference: never more than 20; in 8 of 14 cases below 5; for
//! recursive codes it reflects the recursion (suspension) depth, and the
//! cut-off versions are much smaller.

use bench::{banner, instrumented_time, print_table, Config};
use bots::{Variant, ALL_APPS};

fn main() {
    let cfg = Config::from_env();
    banner(
        "Table II — max concurrently executing tasks per thread",
        &cfg,
    );
    let threads = cfg.threads.iter().copied().max().unwrap_or(4);
    let mut rows = Vec::new();
    for app in ALL_APPS {
        let (_, prof) = instrumented_time(app, threads, cfg.scale, Variant::NoCutoff, 1);
        rows.push(vec![
            app.name().to_string(),
            prof.max_live_trees.to_string(),
        ]);
        if app.has_cutoff() {
            let (_, prof) = instrumented_time(app, threads, cfg.scale, Variant::Cutoff, 1);
            rows.push(vec![
                format!("{} (cut-off)", app.name()),
                prof.max_live_trees.to_string(),
            ]);
        }
    }
    print_table(&["code", "max tasks"], &rows);
    println!();
    println!("paper: alignment 1, fft 19, fib(co) 4, floorplan 20/5, health 4/3,");
    println!("       nqueens 14/3, sort 18, sparselu 2, strassen 8/3  (all ≤ 20)");
}
