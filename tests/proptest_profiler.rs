//! Property-based tests of the profiling algorithm.
//!
//! The plan generator and event emitter live in `test_util::body` (they
//! are shared with the golden-profile tests); this suite replays the
//! generated executions through the profiler under virtual time and
//! checks the invariants the paper's algorithm promises.

use pomp::{RegionId, TaskIdAllocator};
use std::ops::Range;
use taskprof::{AssignPolicy, Event, NodeKind, Replayer, ThreadSnapshot};
use test_util::body::{body, emit, subtree_ok, Body, BARRIER, PAR, TASK_A};
use test_util::prop::{check, Gen};

struct Run {
    snap: ThreadSnapshot,
    total_time: u64,
    instances: u64,
    max_live: usize,
}

fn run_plan(plan: &[Body], policy: AssignPolicy) -> Run {
    let ids = TaskIdAllocator::new();
    let mut r = Replayer::new(PAR, policy);
    let mut max_live = 0usize;
    r.apply(Event::Enter(BARRIER));
    emit(&mut r, &ids, plan, &mut max_live);
    r.apply(Event::Advance(1));
    r.apply(Event::Exit(BARRIER));
    let total_time = r.now();
    let instances = ids.allocated();
    let snap = r.finish(0);
    Run {
        snap,
        total_time,
        instances,
        max_live,
    }
}

/// 1.–6.: the invariants of one execution under the executing policy.
fn invariants_hold(plan: &[Body]) {
    let run = run_plan(plan, AssignPolicy::Executing);
    let snap = &run.snap;

    // 1. The root's inclusive time equals total virtual time.
    assert_eq!(snap.main.stats.sum_ns, run.total_time);

    // 2. Structural sanity everywhere.
    subtree_ok(&snap.main, true).unwrap();
    for t in &snap.task_trees {
        subtree_ok(t, true).unwrap();
    }

    // 3. Every created instance completed and is accounted exactly
    //    once across the aggregate task trees.
    let completed: u64 = snap.task_trees.iter().map(|t| t.stats.samples).sum();
    assert_eq!(completed, run.instances);

    // 4. Total task-tree time == total stub time (every executed
    //    fragment is mirrored in the implicit tree).
    let task_time: u64 = snap.task_trees.iter().map(|t| t.stats.sum_ns).sum();
    let mut stub_time = 0u64;
    snap.main.walk(&mut |_, n| {
        if matches!(n.kind, NodeKind::Stub(_)) {
            stub_time += n.stats.sum_ns;
        }
    });
    assert_eq!(task_time, stub_time);

    // 5. Task time never exceeds wall time (suspension subtracted).
    assert!(task_time <= run.total_time);

    // 6. The live-tree high-water mark matches what we observed while
    //    driving, and memory is bounded by it: after completion the
    //    arena kept no leaked instance nodes beyond the aggregates.
    assert_eq!(snap.max_live_trees, run.max_live);
}

/// Memory must be bounded by the *concurrent* shape, not the total
/// instance count (paper Section V-B): after the aggregate trees have
/// been fully built (pass 2), repeating the identical workload allocates
/// no further arena slots.
fn arena_is_reused(plan: &[Body]) {
    let ids = TaskIdAllocator::new();
    let mut r = Replayer::new(PAR, AssignPolicy::Executing);
    let mut ml = 0usize;
    r.apply(Event::Enter(BARRIER));
    emit(&mut r, &ids, plan, &mut ml);
    emit(&mut r, &ids, plan, &mut ml);
    let cap_after_second = r.profile().arena_capacity();
    for _ in 0..3 {
        emit(&mut r, &ids, plan, &mut ml);
    }
    let cap_after_fifth = r.profile().arena_capacity();
    r.apply(Event::Exit(BARRIER));
    let _ = r.finish(0);
    assert_eq!(cap_after_second, cap_after_fifth);
}

fn policies_agree(plan: &[Body]) {
    let a = run_plan(plan, AssignPolicy::Executing);
    let b = run_plan(plan, AssignPolicy::Creating);
    assert_eq!(a.snap.main.stats.sum_ns, b.snap.main.stats.sum_ns);
    // Creating policy hangs instances in the main tree: no aggregate
    // task trees.
    assert!(b.snap.task_trees.is_empty());
}

/// Aggregating [A, B, C] at once equals aggregating [A, [B, C]].
fn merge_is_associative(plan: &[Body]) {
    let runs: Vec<ThreadSnapshot> = (0..3)
        .map(|i| {
            let mut r = run_plan(plan, AssignPolicy::Executing);
            r.snap.tid = i;
            r.snap
        })
        .collect();
    let all = cube::merge_nodes(&[&runs[0].main, &runs[1].main, &runs[2].main]);
    let bc = cube::merge_nodes(&[&runs[1].main, &runs[2].main]);
    let nested = cube::merge_nodes(&[&runs[0].main, &bc]);
    assert_eq!(all, nested);
}

/// Plans of `len` bodies nested up to `depth` deep.
fn plans(depth: u32, len: Range<usize>) -> impl Fn(&mut Gen) -> Vec<Body> {
    move |g| g.vec(len.clone(), |g| body(g, depth))
}

#[test]
fn executing_policy_invariants() {
    check("executing_policy_invariants", 256, plans(4, 1..6), |p| {
        invariants_hold(&p)
    });
}

#[test]
fn node_reuse_bounds_arena() {
    check("node_reuse_bounds_arena", 256, plans(3, 1..5), |p| {
        arena_is_reused(&p)
    });
}

#[test]
fn policies_agree_on_wall_time() {
    check("policies_agree_on_wall_time", 256, plans(3, 1..5), |p| {
        policies_agree(&p)
    });
}

#[test]
fn merge_is_associative_for_thread_aggregation() {
    let merge = |p: Vec<Body>| merge_is_associative(&p);
    check(
        "merge_is_associative_for_thread_aggregation",
        256,
        plans(3, 1..4),
        merge,
    );
}

/// The one failure ever persisted for these properties, kept as the
/// plan it shrank to: a child task of the first construct, then an
/// empty parameter scope.
#[test]
fn the_persisted_child_then_param_plan_holds_every_property() {
    let plan = [Body::Child(TASK_A, vec![]), Body::Param(0, vec![])];
    assert_eq!(TASK_A, RegionId(9002));
    invariants_hold(&plan);
    arena_is_reused(&plan);
    policies_agree(&plan);
    merge_is_associative(&plan);
}
