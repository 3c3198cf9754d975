//! Step-by-step walkthrough of the paper's Figs. 6–11: the state of the
//! profiling system while two instances of task construct A execute
//! inside the implicit barrier, the second starting at the first's
//! taskwait.
//!
//! Each assertion block corresponds to one figure.

use pomp::{RegionId, TaskIdAllocator, TaskRef};
use taskprof::{AssignPolicy, Event, NodeKind, Replayer};

const PAR: RegionId = RegionId(9200);
const TASK_A: RegionId = RegionId(9201);
const CREATE_A: RegionId = RegionId(9202);
const BARRIER: RegionId = RegionId(9203);
const TW: RegionId = RegionId(9204);

#[test]
fn figs_6_to_11_state_walkthrough() {
    let ids = TaskIdAllocator::new();
    let (i1, i2) = (ids.alloc(), ids.alloc());
    let mut r = Replayer::new(PAR, AssignPolicy::Executing);

    // Fig. 6: before tasks are created — the instance table is empty and
    // the current task is the implicit task.
    assert_eq!(r.profile().current_task(), TaskRef::Implicit);
    assert_eq!(r.profile().live_instance_trees(), 0);

    // Fig. 7: the application creates instances of task region A, then
    // enters the barrier. Creation shows up as a node; no instance data
    // exists yet (trees are created at *execution start*, Section V-B).
    r.run([
        Event::Advance(2),
        Event::CreateBegin {
            create: CREATE_A,
            task_region: TASK_A,
            id: i1,
        },
        Event::Advance(1),
        Event::CreateEnd {
            create: CREATE_A,
            id: i1,
        },
        Event::CreateBegin {
            create: CREATE_A,
            task_region: TASK_A,
            id: i2,
        },
        Event::Advance(1),
        Event::CreateEnd {
            create: CREATE_A,
            id: i2,
        },
        Event::Enter(BARRIER),
    ]);
    assert_eq!(r.profile().live_instance_trees(), 0);
    assert_eq!(r.profile().current_task(), TaskRef::Implicit);

    // Fig. 8: inside the barrier, execution of instance 1 starts: the
    // instance table gains an entry, the current task pointer moves to
    // it, and a stub node appears under the barrier.
    r.run([
        Event::Advance(1),
        Event::TaskBegin {
            region: TASK_A,
            id: i1,
        },
    ]);
    assert_eq!(r.profile().live_instance_trees(), 1);
    assert_eq!(r.profile().current_task(), TaskRef::Explicit(i1));

    // Fig. 9: instance 1 enters a taskwait and is suspended; instance 2
    // starts. Both instances are now active simultaneously — the memory
    // high-water mark the paper's Table II measures.
    r.run([
        Event::Advance(5),
        Event::Enter(TW),
        Event::Advance(1),
        Event::TaskBegin {
            region: TASK_A,
            id: i2,
        },
    ]);
    assert_eq!(r.profile().live_instance_trees(), 2);
    assert_eq!(r.profile().current_task(), TaskRef::Explicit(i2));

    // Fig. 10: instance 2 completes without entering any other region; it
    // is merged into the thread's profile before instance 1 continues.
    r.run([
        Event::Advance(7),
        Event::TaskEnd {
            region: TASK_A,
            id: i2,
        },
    ]);
    assert_eq!(r.profile().live_instance_trees(), 1);
    assert_eq!(r.profile().current_task(), TaskRef::Implicit);
    r.run([Event::Switch(TaskRef::Explicit(i1))]);
    assert_eq!(r.profile().current_task(), TaskRef::Explicit(i1));

    // Fig. 11: instance 1 completes; its tree merges with instance 2's
    // into the single aggregate tree for construct A.
    r.run([
        Event::Advance(1),
        Event::Exit(TW),
        Event::Advance(2),
        Event::TaskEnd {
            region: TASK_A,
            id: i1,
        },
        Event::Advance(3),
        Event::Exit(BARRIER),
    ]);
    assert_eq!(r.profile().live_instance_trees(), 0);
    assert_eq!(r.profile().max_live_trees(), 2);

    let snap = r.finish(0);
    // One aggregate tree for construct A with both instances' statistics.
    assert_eq!(snap.task_trees.len(), 1);
    let a = &snap.task_trees[0];
    assert_eq!(a.kind, NodeKind::Region(TASK_A));
    assert_eq!(a.stats.samples, 2);
    // i2 = 7; i1 = 5 + 1 + 1 + 2 = 9 (suspension excluded).
    assert_eq!(a.stats.min_ns, 7);
    assert_eq!(a.stats.max_ns, 9);
    assert_eq!(a.stats.sum_ns, 16);
    // Taskwait inside the task tree: 1 (before suspension) + 1 (after
    // resume) = 2.
    let tw = a.child(NodeKind::Region(TW)).unwrap();
    assert_eq!(tw.stats.sum_ns, 2);
    // Main tree: create node visited twice; barrier holds the stub with
    // 3 fragments and 16 ns of task execution.
    let create = snap.main.child(NodeKind::Region(CREATE_A)).unwrap();
    assert_eq!(create.stats.visits, 2);
    assert_eq!(create.stats.sum_ns, 2);
    let barrier = snap.main.child(NodeKind::Region(BARRIER)).unwrap();
    let stub = barrier.child(NodeKind::Stub(TASK_A)).unwrap();
    assert_eq!(stub.stats.visits, 3);
    assert_eq!(stub.stats.sum_ns, 16);
    // Barrier exclusive = inclusive − stub = idle/management.
    assert_eq!(barrier.exclusive_ns(), barrier.stats.sum_ns as i64 - 16);
}
