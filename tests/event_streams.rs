//! Exact-number replays of the paper's event-stream figures
//! (Figs. 1, 2, 4) — the DESIGN.md per-experiment index entries for those
//! figures. Every stream is also checked against the Fig. 12 reference
//! (`test_util::fig12`).

use pomp::{RegionId, TaskIdAllocator, TaskRef};
use taskprof::{Event, NodeKind};
use test_util::fig12::replay_checked;

const PAR: RegionId = RegionId(9100);
const FOO: RegionId = RegionId(9101);
const BAR: RegionId = RegionId(9102);
const TASK: RegionId = RegionId(9103);
const TW: RegionId = RegionId(9104);
const BARRIER: RegionId = RegionId(9105);

#[test]
fn fig1_sequential_nesting() {
    // main { foo(); bar(); } with foo 20ns, bar 10ns, gaps 5ns each.
    let snap = replay_checked(
        PAR,
        [
            Event::Advance(5),
            Event::Enter(FOO),
            Event::Advance(20),
            Event::Exit(FOO),
            Event::Advance(5),
            Event::Enter(BAR),
            Event::Advance(10),
            Event::Exit(BAR),
            Event::Advance(5),
        ],
    );
    assert_eq!(snap.main.stats.sum_ns, 45);
    assert_eq!(snap.main.exclusive_ns(), 15);
    assert_eq!(
        snap.main.child(NodeKind::Region(FOO)).unwrap().stats.sum_ns,
        20
    );
    assert_eq!(
        snap.main.child(NodeKind::Region(BAR)).unwrap().stats.sum_ns,
        10
    );
    assert!(snap.task_trees.is_empty());
    assert_eq!(snap.max_live_trees, 0);
}

#[test]
fn fig2_exits_of_interleaved_foo_calls_are_not_confused() {
    // Two instances both inside foo() when suspended: without instance
    // tracking the two exits of foo are ambiguous; with it, each instance
    // keeps its own call path.
    let ids = TaskIdAllocator::new();
    let (t1, t2) = (ids.alloc(), ids.alloc());
    let snap = replay_checked(
        PAR,
        [
            Event::Enter(BARRIER),
            Event::TaskBegin {
                region: TASK,
                id: t1,
            },
            Event::Advance(4),
            Event::Enter(FOO),
            Event::Advance(6),
            Event::Enter(TW),
            Event::Advance(1),
            // t1 suspends inside foo; t2 starts and also enters foo.
            Event::TaskBegin {
                region: TASK,
                id: t2,
            },
            Event::Advance(3),
            Event::Enter(FOO),
            Event::Advance(8),
            Event::Enter(TW),
            Event::Advance(1),
            // t2 suspends inside foo too; t1 resumes and finishes its foo.
            Event::Switch(TaskRef::Explicit(t1)),
            Event::Advance(2),
            Event::Exit(TW),
            Event::Advance(1),
            Event::Exit(FOO), // t1's foo closes
            Event::Advance(1),
            Event::TaskEnd {
                region: TASK,
                id: t1,
            },
            // t2 resumes and closes its own foo.
            Event::Switch(TaskRef::Explicit(t2)),
            Event::Advance(5),
            Event::Exit(TW),
            Event::Exit(FOO), // t2's foo closes
            Event::TaskEnd {
                region: TASK,
                id: t2,
            },
            Event::Exit(BARRIER),
        ],
    );
    let task = &snap.task_trees[0];
    assert_eq!(task.stats.samples, 2);
    // t1 ran 4+6+1 (to suspension) + 2+1+1 (after resume) = 15.
    // t2 ran 3+8+1 (to suspension) + 5 (after resume) = 17.
    assert_eq!(task.stats.min_ns, 15);
    assert_eq!(task.stats.max_ns, 17);
    let foo = task.child(NodeKind::Region(FOO)).unwrap();
    // t1's foo: entered at 4, suspended 11..23, exited 26 → 7 + 3 = 10.
    // t2's foo: entered at 14, suspended 23..27, exited 32 → 9 + 5 = 14.
    assert_eq!(foo.stats.sum_ns, 24);
    assert_eq!(foo.stats.min_ns, 10);
    assert_eq!(foo.stats.max_ns, 14);
    assert_eq!(foo.stats.visits, 2);
}

#[test]
fn fig4_resumed_task_keeps_single_statistics_location() {
    // A task suspended at a taskwait and resumed later must contribute
    // *one* instance to the statistics (not one per fragment), with
    // indivisible metrics (visits) attributed once.
    let ids = TaskIdAllocator::new();
    let (t1, t2) = (ids.alloc(), ids.alloc());
    let snap = replay_checked(
        PAR,
        [
            Event::Enter(BARRIER),
            Event::TaskBegin {
                region: TASK,
                id: t1,
            },
            Event::Advance(10),
            Event::Enter(TW),
            Event::Advance(2),
            Event::TaskBegin {
                region: TASK,
                id: t2,
            },
            Event::Advance(7),
            Event::TaskEnd {
                region: TASK,
                id: t2,
            },
            Event::Switch(TaskRef::Explicit(t1)),
            Event::Advance(1),
            Event::Exit(TW),
            Event::Advance(4),
            Event::TaskEnd {
                region: TASK,
                id: t1,
            },
            Event::Exit(BARRIER),
        ],
    );
    let task = &snap.task_trees[0];
    // Two instances total, even though t1 executed as two fragments.
    assert_eq!(task.stats.visits, 2);
    assert_eq!(task.stats.samples, 2);
    // t1 = 10 + 2 + 1 + 4 = 17 (7 ns suspension excluded); t2 = 7.
    assert_eq!(task.stats.max_ns, 17);
    assert_eq!(task.stats.min_ns, 7);
    // The fragments are visible where they belong: in the stub visits.
    let barrier = snap.main.child(NodeKind::Region(BARRIER)).unwrap();
    let stub = barrier.child(NodeKind::Stub(TASK)).unwrap();
    assert_eq!(stub.stats.visits, 3, "t1 fragment, t2, t1 fragment");
    assert_eq!(stub.stats.sum_ns, 24);
}

#[test]
fn call_tree_structure_is_schedule_independent() {
    // Section IV-B3: recording tasks independently (no parent/child links
    // between explicit tasks) keeps the tree identical regardless of the
    // runtime's scheduling choices. Execute the same two instances in two
    // different orders and compare the aggregate trees.
    let run = |order_swapped: bool| {
        let ids = TaskIdAllocator::new();
        let (a, b) = (ids.alloc(), ids.alloc());
        let (first, second) = if order_swapped { (b, a) } else { (a, b) };
        replay_checked(
            PAR,
            [
                Event::Enter(BARRIER),
                Event::TaskBegin {
                    region: TASK,
                    id: first,
                },
                Event::Advance(10),
                Event::Enter(FOO),
                Event::Advance(5),
                Event::Exit(FOO),
                Event::TaskEnd {
                    region: TASK,
                    id: first,
                },
                Event::TaskBegin {
                    region: TASK,
                    id: second,
                },
                Event::Advance(10),
                Event::Enter(FOO),
                Event::Advance(5),
                Event::Exit(FOO),
                Event::TaskEnd {
                    region: TASK,
                    id: second,
                },
                Event::Exit(BARRIER),
            ],
        )
    };
    let x = run(false);
    let y = run(true);
    assert_eq!(x.task_trees, y.task_trees);
    assert_eq!(x.main, y.main);
}
