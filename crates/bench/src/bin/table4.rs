//! Table IV: `nqueens` task statistics per recursion level, via parameter
//! instrumentation (Section VI).
//!
//! Paper reference (n = 14): mean task time decreases monotonically with
//! depth (25.5 µs at level 0 down to 0.33 µs at level 13); the bulk of
//! total time sits in the deep levels (9–13); task counts grow towards a
//! peak near the deepest levels. The conclusion — cutting task creation
//! at level 3 — follows from this table.

use bench::{banner, instrumented_run, print_table, Config};
use bots::{nqueens, AppId, RunOpts, Variant};
use cube::{format_ns, param_table};

fn main() {
    let cfg = Config::from_env();
    banner(
        "Table IV — nqueens inclusive task time per recursion level",
        &cfg,
    );
    let threads = cfg.threads.iter().copied().max().unwrap_or(4);
    let opts = RunOpts::new(threads)
        .scale(cfg.scale)
        .variant(Variant::NoCutoff)
        .with_depth_param();
    let (_, prof) = instrumented_run(AppId::Nqueens, &opts);
    let task_region = pomp::registry()
        .lookup("nqueens", pomp::RegionKind::Task)
        .expect("nqueens task region");
    let tree = prof
        .task_trees
        .iter()
        .find(|t| t.kind == taskprof::NodeKind::Region(task_region))
        .expect("nqueens task tree");
    let table = param_table(tree, nqueens::depth_param());
    let rows: Vec<Vec<String>> = table
        .iter()
        .map(|(level, stats)| {
            vec![
                level.to_string(),
                format_ns(stats.mean_ns() as u64),
                format!("{:.5}s", stats.sum_ns as f64 / 1e9),
                stats.samples.to_string(),
            ]
        })
        .collect();
    print_table(
        &["depth level", "mean time", "sum", "number of tasks"],
        &rows,
    );
    println!();
    println!("shape check vs paper: mean time falls monotonically with depth; most of the");
    println!("total time sits in the deepest few levels; counts peak near the bottom");
}
