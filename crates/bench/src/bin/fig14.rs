//! Figure 14: profiling overhead of the *unoptimized* (no cut-off)
//! versions — the stress test with huge numbers of tiny tasks.
//!
//! Paper reference: very large single-thread overheads (fib 527 %) that
//! fall towards (or below) zero as threads are added, because runtime-
//! internal task-management contention shadows the measurement cost.
//! strassen is the exception: always low overhead (its tasks are big).

use bench::{
    banner, fmt_pct, fmt_secs, instrumented_time, overhead_pct, print_table, uninstrumented_time,
    Config,
};
use bots::{Variant, ALL_APPS};

fn main() {
    let cfg = Config::from_env();
    banner(
        "Fig. 14 — profiling overhead, versions without cut-off",
        &cfg,
    );
    let mut rows = Vec::new();
    for app in ALL_APPS {
        let mut row = vec![app.name().to_string()];
        for &t in &cfg.threads {
            let base = uninstrumented_time(app, t, cfg.scale, Variant::NoCutoff, cfg.reps);
            let (instr, _) = instrumented_time(app, t, cfg.scale, Variant::NoCutoff, cfg.reps);
            row.push(format!(
                "{} ({}s/{}s)",
                fmt_pct(overhead_pct(instr, base)),
                fmt_secs(instr),
                fmt_secs(base)
            ));
        }
        rows.push(row);
    }
    let mut headers = vec!["code"];
    let labels: Vec<String> = cfg.threads.iter().map(|t| format!("{t} thr")).collect();
    headers.extend(labels.iter().map(String::as_str));
    print_table(&headers, &rows);
    println!();
    println!("cells: overhead% (instrumented s / uninstrumented s), min of reps");
}
