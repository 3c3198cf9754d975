//! Property-based tests of the tasking runtime: arbitrary task-tree
//! shapes must execute every task exactly once, respect taskwait
//! semantics, and produce profiler-consistent event streams.
//!
//! The shape generator and driver live in `test_util::shape` so the
//! deterministic schedule explorer (`simsched`) can reuse them as a
//! workload source.

use pomp::NullMonitor;
use taskprof::ProfMonitor;
use test_util::prop::{check, Gen};
use test_util::shape::{expected_tasks, run_shape, shape};

#[test]
fn every_task_executes_exactly_once() {
    let gen = |g: &mut Gen| (shape(g), g.u64(1..5) as usize);
    check(
        "every_task_executes_exactly_once",
        48,
        gen,
        |(shape, threads)| {
            let got = run_shape(&NullMonitor, &shape, threads);
            assert_eq!(got, expected_tasks(&shape));
        },
    );
}

#[test]
fn profiled_run_counts_match() {
    let gen = |g: &mut Gen| (shape(g), g.u64(1..4) as usize);
    check("profiled_run_counts_match", 48, gen, |(shape, threads)| {
        let monitor = ProfMonitor::new();
        let got = run_shape(&monitor, &shape, threads);
        let profile = monitor.take_profile().expect("no region in flight");
        assert_eq!(profile.num_threads(), threads);
        let completed: u64 = profile
            .threads
            .iter()
            .flat_map(|t| &t.task_trees)
            .map(|t| t.stats.samples)
            .sum();
        assert_eq!(completed, got, "profiler saw a different task count");
        // No thread profile may end with live instances (finish() would
        // have panicked) and wall times must cover task times.
        for t in &profile.threads {
            let wall = t.main.stats.sum_ns;
            let tasks: u64 = t.task_trees.iter().map(|tt| tt.stats.sum_ns).sum();
            assert!(tasks <= wall, "task time {tasks} > wall {wall}");
        }
    });
}
