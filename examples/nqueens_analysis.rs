//! The paper's Section VI analysis workflow as a library user would run
//! it: profile `nqueens`, diagnose the granularity problem, verify the
//! fix.
//!
//! ```text
//! cargo run --release --example nqueens_analysis
//! ```

use bots::{nqueens, run_app, AppId, RunOpts, Scale, Variant};
use cube::{format_ns, param_table, region_excl_by_name, task_stats, AggProfile};
use pomp::{registry, NullMonitor, RegionKind};
use taskprof::NodeKind;
use taskprof_session::MeasurementSession;

fn main() {
    let threads = 4;
    let scale = Scale::Small;

    // --- 1. Something is wrong: the task version doesn't get faster. ---
    println!("1) uninstrumented kernel times (no cut-off):");
    for t in [1, threads] {
        let out = run_app(AppId::Nqueens, &NullMonitor, &RunOpts::new(t).scale(scale));
        println!("   {t} threads: {:?}", out.kernel);
    }

    // --- 2. Profile it. ---
    let session = MeasurementSession::builder("nqueens-analysis")
        .threads(threads)
        .build()
        .expect("default session configuration is valid");
    let out = run_app(
        AppId::Nqueens,
        session.monitor(),
        &RunOpts::new(threads).scale(scale).with_depth_param(),
    );
    assert!(out.verified);
    let prof = AggProfile::from_profile(&session.finish().profile);

    let stats = &task_stats(&prof)[0];
    println!("\n2) the profile says:");
    println!("   task instances        : {}", stats.instances);
    println!(
        "   mean inclusive time   : {}",
        format_ns(stats.mean_ns as u64)
    );
    let create = region_excl_by_name(&prof, "nqueens!create") as f64;
    let task_excl = region_excl_by_name(&prof, "nqueens") as f64;
    println!(
        "   mean exclusive work   : {}",
        format_ns((task_excl / stats.instances as f64) as u64)
    );
    println!(
        "   mean creation cost    : {}  <-- creating a task costs more than it does!",
        format_ns((create / stats.instances as f64) as u64)
    );

    // --- 3. Where are the too-small tasks? The depth parameter knows. ---
    let task_region = registry().lookup("nqueens", RegionKind::Task).unwrap();
    let tree = prof
        .task_trees
        .iter()
        .find(|t| t.kind == NodeKind::Region(task_region))
        .unwrap();
    println!("\n3) per-recursion-level statistics (paper Table IV):");
    println!("   level   mean       sum          tasks");
    for (level, s) in param_table(tree, nqueens::depth_param()) {
        println!(
            "   {:>5}   {:>8}   {:>10}   {:>8}",
            level,
            format_ns(s.mean_ns() as u64),
            format_ns(s.sum_ns),
            s.samples
        );
    }
    println!("   -> shallow levels: few, large tasks. deep levels: millions of tiny ones.");

    // --- 4. The fix: stop creating tasks below level 3. ---
    println!("\n4) with the cut-off at level {}:", nqueens::CUTOFF_ROW);
    for t in [1, threads] {
        let out = run_app(
            AppId::Nqueens,
            &NullMonitor,
            &RunOpts::new(t).scale(scale).variant(Variant::Cutoff),
        );
        println!("   {t} threads: {:?}", out.kernel);
    }
    println!("   (paper: 187 s -> 11.5 s at 4 threads)");
}
