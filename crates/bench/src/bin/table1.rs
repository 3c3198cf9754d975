//! Table I: mean task execution time and task count for the no-cut-off
//! versions.
//!
//! Paper reference (medium inputs): fib 1.49 µs / 3.69 G tasks, floorplan
//! 8.57 µs / 73.7 M, health 2.35 µs / 17.5 M, nqueens 1.24 µs / 378 M,
//! strassen 149 µs / 0.96 M. The *ordering* (strassen tasks two orders of
//! magnitude larger, its task count smallest) is the reproduction target;
//! absolute counts are scaled with the inputs.

use bench::{banner, instrumented_time, print_table, Config};
use bots::{AppId, Variant};
use cube::{format_ns, task_stats};

fn main() {
    let cfg = Config::from_env();
    banner(
        "Table I — mean task execution time / number of tasks (no cut-off)",
        &cfg,
    );
    let apps = [
        AppId::Fib,
        AppId::Floorplan,
        AppId::Health,
        AppId::Nqueens,
        AppId::Strassen,
    ];
    let threads = cfg.threads.first().copied().unwrap_or(1);
    let mut rows = Vec::new();
    for app in apps {
        let (_, prof) = instrumented_time(app, threads, cfg.scale, Variant::NoCutoff, 1);
        // Sum over every task construct of the code (sort/sparselu have
        // several; these five have one each).
        let stats = task_stats(&prof);
        let total_instances: u64 = stats.iter().map(|s| s.instances).sum();
        let total_ns: u64 = stats.iter().map(|s| s.sum_ns).sum();
        let mean = total_ns.checked_div(total_instances).unwrap_or(0);
        rows.push(vec![
            app.name().to_string(),
            format_ns(mean),
            total_instances.to_string(),
        ]);
    }
    print_table(&["code", "mean time", "number of tasks"], &rows);
    println!();
    println!("paper (medium): fib 1.49µs/3.69e9  floorplan 8.57µs/7.37e7  health 2.35µs/1.75e7");
    println!("               nqueens 1.24µs/3.78e8  strassen 149µs/9.6e5");
}
