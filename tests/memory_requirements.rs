//! Section V-B: memory requirements of the intermediate task-instance
//! trees. "The task instance tree is created when the task instance
//! starts execution … the memory is released when the task instance
//! completes. … released task-instance tree nodes are reused" — so
//! per-thread memory is bounded by the number of *concurrent* instances
//! and the per-instance tree size, not by the (much larger) total task
//! count.

use bots::{run_app, AppId, RunOpts, Scale};
use pomp::{registry, RegionKind, TaskIdAllocator};
use taskprof::{AssignPolicy, ProfMonitor, ThreadProfile};

fn run(app: AppId, scale: Scale, threads: usize) -> taskprof::Profile {
    let m = ProfMonitor::new();
    let out = run_app(app, &m, &RunOpts::new(threads).scale(scale));
    assert!(out.verified);
    m.take_profile().expect("no region in flight")
}

#[test]
fn arena_grows_with_depth_not_task_count() {
    // fib Test (n=15) vs Small (n=20): 11× the tasks, +5 recursion depth.
    let small = run(AppId::Fib, Scale::Test, 1);
    let big = run(AppId::Fib, Scale::Small, 1);
    let tasks = |p: &taskprof::Profile| -> u64 {
        p.threads
            .iter()
            .flat_map(|t| &t.task_trees)
            .map(|t| t.stats.samples)
            .sum()
    };
    let arena = |p: &taskprof::Profile| -> usize {
        p.threads.iter().map(|t| t.arena_capacity).max().unwrap()
    };
    assert!(
        tasks(&big) > 10 * tasks(&small),
        "inputs should differ a lot"
    );
    // Task count explodes; arena stays the same order of magnitude.
    assert!(
        arena(&big) < 4 * arena(&small),
        "arena {} vs {} — memory must not follow the task count",
        arena(&big),
        arena(&small)
    );
    // And in absolute terms a fib profile is tiny: the aggregate trees
    // plus (max-live × instance-tree-size) nodes.
    assert!(
        arena(&big) < 2_000,
        "fib arena should be a few hundred nodes, got {}",
        arena(&big)
    );
}

#[test]
fn node_reuse_is_what_bounds_the_arena() {
    // The ablation of "released task-instance tree nodes are reused":
    // the same 1 000 create/begin/enter/exit/end cycles under explicit
    // timestamps, with the free list on and off. One instance is live at
    // a time, so with reuse the arena stays at a handful of nodes;
    // without it every instance leaves its tree behind.
    let reg = registry();
    let par = reg.register("mr-abl!parallel", RegionKind::Parallel, "t", 0);
    let task = reg.register("mr-abl-task", RegionKind::Task, "t", 0);
    let create = reg.register("mr-abl-task!create", RegionKind::TaskCreate, "t", 0);
    let barrier = reg.register("mr-abl!barrier", RegionKind::ImplicitBarrier, "t", 0);
    let inner = reg.register("mr-abl-inner", RegionKind::User, "t", 0);
    let arena_after_1000_instances = |reuse: bool| -> usize {
        let ids = TaskIdAllocator::new();
        let mut p = ThreadProfile::new(par, 0, AssignPolicy::Executing);
        p.set_node_reuse(reuse);
        for t in (0..10_000).step_by(10) {
            let id = ids.alloc();
            p.task_create_begin(create, task, id, t);
            p.task_create_end(create, id, t + 1);
            p.enter(barrier, t + 1);
            p.task_begin(task, id, t + 2);
            p.enter(inner, t + 3);
            p.exit(inner, t + 4);
            p.task_end(task, id, t + 5);
            p.exit(barrier, t + 6);
        }
        p.arena_capacity()
    };
    let with = arena_after_1000_instances(true);
    let without = arena_after_1000_instances(false);
    assert!(
        without > 10 * with,
        "reuse must bound memory: {with} nodes with the free list, {without} without"
    );
}

#[test]
fn arena_bound_tracks_live_trees_across_codes() {
    // For every code: arena capacity ≤ main-tree size + aggregate trees
    // + max_live × largest-instance-shape — a loose structural bound
    // that catches leaks of instance nodes.
    for app in bots::ALL_APPS {
        let p = run(app, Scale::Test, 2);
        for t in &p.threads {
            let persistent: usize =
                t.main.size() + t.task_trees.iter().map(|tt| tt.size()).sum::<usize>();
            let per_instance: usize = t
                .task_trees
                .iter()
                .map(|tt| tt.size())
                .max()
                .unwrap_or(1)
                .max(1);
            let bound = persistent + (t.max_live_trees + 2) * per_instance * 2;
            assert!(
                t.arena_capacity <= bound,
                "{}: thread {} arena {} exceeds structural bound {} \
                 (persistent {persistent}, max_live {}, per_instance {per_instance})",
                app.name(),
                t.tid,
                t.arena_capacity,
                bound,
                t.max_live_trees,
            );
        }
    }
}

#[test]
fn snapshot_trees_are_self_consistent() {
    // Global sanity over every code: visits ≥ samples, min ≤ max, stub
    // times mirror task trees exactly on every thread (single-threaded
    // run so no cross-thread stealing blurs the picture).
    for app in bots::ALL_APPS {
        let p = run(app, Scale::Test, 1);
        let t = &p.threads[0];
        let mut stub_total = 0u64;
        t.main.walk(&mut |_, n| {
            assert!(n.stats.samples <= n.stats.visits);
            if n.stats.samples > 0 {
                assert!(n.stats.min_ns <= n.stats.max_ns);
            }
            if let taskprof::NodeKind::Stub(_) = n.kind {
                stub_total += n.stats.sum_ns;
            }
        });
        let task_total: u64 = t.task_trees.iter().map(|tt| tt.stats.sum_ns).sum();
        assert_eq!(
            stub_total,
            task_total,
            "{}: stub time must equal task-tree time on a single thread",
            app.name()
        );
    }
}

#[test]
fn depth_limit_caps_profile_size_on_deep_recursion() {
    // Paper Section IV-B3: without countermeasures "the size of the
    // profile may explode or the tree depth limits might kick in".
    // Drive deep-recursing fib through a depth-limited profiler and
    // compare profile sizes.
    use bots::{run_app, AppId, RunOpts, Scale};
    use taskprof::ProfMonitor;

    let unlimited = ProfMonitor::new();
    let out = run_app(AppId::Fib, &unlimited, &RunOpts::new(1).scale(Scale::Test));
    assert!(out.verified);
    let p_unlimited = unlimited.take_profile().expect("no region in flight");

    let limited = ProfMonitor::builder()
        .max_depth(2)
        .build()
        .expect("valid depth limit");
    let out = run_app(AppId::Fib, &limited, &RunOpts::new(1).scale(Scale::Test));
    assert!(out.verified, "depth limit must not affect program results");
    let p_limited = limited.take_profile().expect("no region in flight");

    let size = |p: &taskprof::Profile| -> usize {
        p.threads
            .iter()
            .map(|t| t.main.size() + t.task_trees.iter().map(|tt| tt.size()).sum::<usize>())
            .sum()
    };
    // fib's per-task trees are shallow (create/taskwait under the root),
    // but the implicit tree under the single contains the full recursion
    // via inline child execution at taskwaits; the limited profile must
    // not be larger, and must contain truncated markers if anything was
    // deeper than the limit.
    assert!(size(&p_limited) <= size(&p_unlimited));
    let mut truncated_seen = false;
    for t in &p_limited.threads {
        for tree in t.task_trees.iter().chain(std::iter::once(&t.main)) {
            tree.walk(&mut |_, n| {
                if n.kind == taskprof::NodeKind::Truncated {
                    truncated_seen = true;
                }
            });
        }
    }
    assert!(truncated_seen, "limit 2 must truncate something in fib");
    // Totals are preserved: wall time identical structure-independent.
    let wall = |p: &taskprof::Profile| p.threads[0].main.stats.sum_ns;
    assert!(wall(&p_limited) > 0 && wall(&p_unlimited) > 0);
}
