//! Score-P-style runtime filtering end-to-end: a filtered profiler on a
//! real workload drops the selected regions but keeps the task statistics
//! intact.

use bots::{run_app, AppId, RunOpts, Scale};
use pomp::{registry, FilteredMonitor, RegionId, RegionKind};
use taskprof::{NodeKind, ProfMonitor};

#[test]
fn filtering_taskwaits_removes_them_but_keeps_task_stats() {
    // Unfiltered reference.
    let full = ProfMonitor::new();
    let out = run_app(AppId::Fib, &full, &RunOpts::new(2).scale(Scale::Test));
    assert!(out.verified);
    let full_profile = full.take_profile().expect("no region in flight");

    // Filter out every taskwait region (fib's most frequent event after
    // creation — the paper's Section V-A culprit for fib's overhead).
    let reg = registry();
    let filtered = FilteredMonitor::new(ProfMonitor::new(), move |r: RegionId| {
        registry().kind(r) != RegionKind::Taskwait
    });
    let out = run_app(AppId::Fib, &filtered, &RunOpts::new(2).scale(Scale::Test));
    assert!(out.verified);
    let filtered_profile = filtered
        .inner()
        .take_profile()
        .expect("no region in flight");

    let tw = reg.lookup("fib!taskwait", RegionKind::Taskwait).unwrap();
    let count_tw = |p: &taskprof::Profile| -> u64 {
        let mut v = 0;
        for t in &p.threads {
            for tree in t.task_trees.iter().chain(std::iter::once(&t.main)) {
                tree.walk(&mut |_, n| {
                    if n.kind == NodeKind::Region(tw) {
                        v += n.stats.visits;
                    }
                });
            }
        }
        v
    };
    assert!(
        count_tw(&full_profile) > 0,
        "reference must contain taskwaits"
    );
    assert_eq!(count_tw(&filtered_profile), 0, "filter must remove them");

    // Task statistics survive filtering identically (same instance count).
    let instances = |p: &taskprof::Profile| -> u64 {
        p.threads
            .iter()
            .flat_map(|t| &t.task_trees)
            .map(|t| t.stats.samples)
            .sum()
    };
    assert_eq!(instances(&full_profile), instances(&filtered_profile));
}

#[test]
fn filtering_user_regions_by_name() {
    // Filter one specific construct of the mixed sparselu phases.
    let drop_name = "sparselu_fwd!create";
    let filtered = FilteredMonitor::new(ProfMonitor::new(), move |r: RegionId| {
        registry().name(r) != drop_name
    });
    let out = run_app(
        AppId::SparseLu,
        &filtered,
        &RunOpts::new(2).scale(Scale::Test),
    );
    assert!(out.verified);
    let p = filtered
        .inner()
        .take_profile()
        .expect("no region in flight");
    let reg = registry();
    let dropped = reg.lookup(drop_name, RegionKind::TaskCreate).unwrap();
    for t in &p.threads {
        for tree in t.task_trees.iter().chain(std::iter::once(&t.main)) {
            tree.walk(&mut |_, n| {
                assert_ne!(n.kind, NodeKind::Region(dropped), "filtered region leaked");
            });
        }
    }
    // But the fwd tasks themselves were still profiled.
    let fwd = reg.lookup("sparselu_fwd", RegionKind::Task).unwrap();
    let have_fwd = p
        .threads
        .iter()
        .any(|t| t.task_tree(fwd).is_some_and(|tree| tree.stats.samples > 0));
    assert!(have_fwd);
}
