//! Profile persistence and automated diagnosis against real workloads.

use bots::{run_app, AppId, RunOpts, Scale, Variant};
use cube::{
    diagnose, diff_profiles, read_profile, write_profile, AggProfile, DiagnoseConfig, IssueKind,
};
use simsched::{run_workload, SimConfig, Step, TreeWorkload};
use taskprof::ProfMonitor;

fn profile_of(app: AppId, opts: &RunOpts) -> taskprof::Profile {
    let monitor = ProfMonitor::new();
    let out = run_app(app, &monitor, opts);
    assert!(out.verified);
    monitor.take_profile().expect("no region in flight")
}

#[test]
fn real_profile_round_trips_through_text() {
    let p = profile_of(AppId::SparseLu, &RunOpts::new(2).scale(Scale::Test));
    let text = write_profile(&p);
    let q = read_profile(&text).expect("parse");
    assert_eq!(p.threads.len(), q.threads.len());
    for (a, b) in p.threads.iter().zip(&q.threads) {
        assert_eq!(a.main, b.main);
        assert_eq!(a.task_trees, b.task_trees);
        assert_eq!(a.max_live_trees, b.max_live_trees);
    }
    // Aggregations agree too.
    let pa = AggProfile::from_profile(&p);
    let qa = AggProfile::from_profile(&q);
    assert_eq!(pa.main, qa.main);
}

#[test]
fn self_diff_is_all_zero_deltas() {
    let p = profile_of(AppId::Fft, &RunOpts::new(2).scale(Scale::Test));
    let a = AggProfile::from_profile(&p);
    let rows = diff_profiles(&a, &a);
    assert!(!rows.is_empty());
    for r in rows {
        assert_eq!(r.delta_ns(), 0, "{}", r.path);
        assert_eq!(r.a_visits, r.b_visits);
    }
}

/// fib's task graph at microsecond granularity for the simulator: every
/// call spawns its two sub-calls as tasks and taskwaits; from `cutoff`
/// task levels down a call computes its whole subtree serially instead.
fn sim_fib(depth: usize, cutoff: Option<usize>) -> TreeWorkload {
    const CALL_NS: u64 = 1_500;
    const LEAF_NS: u64 = 2_000;
    fn serial_ns(depth: usize) -> u64 {
        if depth == 0 {
            LEAF_NS
        } else {
            CALL_NS + 2 * serial_ns(depth - 1)
        }
    }
    fn call(depth: usize, levels_left: Option<usize>) -> Vec<Step> {
        if depth == 0 || levels_left == Some(0) {
            return vec![Step::Work(serial_ns(depth))];
        }
        let below = levels_left.map(|l| l - 1);
        vec![
            Step::Work(CALL_NS * 2 / 3),
            Step::Task(call(depth - 1, below)),
            Step::Task(call(depth - 1, below)),
            Step::Taskwait,
            Step::Work(CALL_NS / 3),
        ]
    }
    let name = match cutoff {
        Some(levels) => format!("diagnose-fib-{depth}-cutoff-{levels}"),
        None => format!("diagnose-fib-{depth}"),
    };
    TreeWorkload::new(
        &name,
        vec![],
        vec![Step::Task(call(depth, cutoff)), Step::Taskwait],
    )
}

#[test]
fn diagnose_flags_fib_but_not_its_cutoff_as_badly() {
    // Task sizes come from the simulator's virtual clock, not from the
    // host: measured on the wall clock under load, this assertion once
    // saw tasks "too large" where it expects "too small".
    let too_small = |workload: &TreeWorkload| {
        let run = run_workload(workload, &SimConfig::seeded(2, 7));
        diagnose(&run.profile, &DiagnoseConfig::default())
            .into_iter()
            .find(|f| f.kind == IssueKind::TasksTooSmall)
            .map(|f| f.severity)
    };
    let full = too_small(&sim_fib(8, None));
    assert!(full.is_some(), "fib without cut-off must be flagged");
    let cut = too_small(&sim_fib(8, Some(3)));
    assert!(
        cut.is_none_or(|severity| severity < full.unwrap_or(0.0)),
        "the cut-off makes tasks coarser: {cut:?} vs {full:?}"
    );
    // On the real kernel the cut-off slashes the instance count, which
    // no clock has a say in.
    let instances = |app_opts: &RunOpts| {
        let p = profile_of(AppId::Fib, app_opts);
        let agg = AggProfile::from_profile(&p);
        cube::task_stats(&agg)[0].instances
    };
    let full = instances(&RunOpts::new(2).scale(Scale::Test));
    let cut = instances(&RunOpts::new(2).scale(Scale::Test).variant(Variant::Cutoff));
    assert!(
        cut * 3 < full,
        "cut-off must slash the instance count: {cut} vs {full}"
    );
}

#[test]
fn diagnose_detects_single_creator_codes() {
    // alignment and sparselu create all tasks from one thread.
    for app in [AppId::Alignment, AppId::SparseLu] {
        let p = profile_of(app, &RunOpts::new(4).scale(Scale::Test));
        let findings = diagnose(&p, &DiagnoseConfig::default());
        assert!(
            findings
                .iter()
                .any(|f| f.kind == IssueKind::CreationBottleneck),
            "{}: expected creation-bottleneck finding: {findings:#?}",
            app.name()
        );
    }
}

#[test]
fn saved_profiles_diff_across_thread_counts() {
    // The Section VI comparison methodology through the persistence layer.
    let p1 = profile_of(AppId::Nqueens, &RunOpts::new(1).scale(Scale::Test));
    let p4 = profile_of(AppId::Nqueens, &RunOpts::new(4).scale(Scale::Test));
    let t1 = write_profile(&p1);
    let t4 = write_profile(&p4);
    let a = AggProfile::from_profile(&read_profile(&t1).unwrap());
    let b = AggProfile::from_profile(&read_profile(&t4).unwrap());
    let rows = diff_profiles(&a, &b);
    // The 4-thread run has (a) more barrier visits and (b) the same task
    // instance count.
    let tasks = rows
        .iter()
        .find(|r| r.path == "<tasks>/nqueens")
        .expect("task tree row");
    assert_eq!(tasks.a_visits, tasks.b_visits, "same work, any schedule");
}
