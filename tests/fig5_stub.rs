//! Fig. 5: the stub-node view — 113 s of task execution inside the
//! barrier vs. 103 s of remaining (management/idle) time, and the task
//! tree's own creation split (51.5 s exclusive, 25.8 s creating).

use pomp::{RegionId, TaskIdAllocator};
use taskprof::{Event, NodeKind};
use test_util::fig12::replay_checked;

const PAR: RegionId = RegionId(9400);
const TASK0: RegionId = RegionId(9401);
const CREATE: RegionId = RegionId(9402);
const BARRIER: RegionId = RegionId(9403);

const S: u64 = 1_000_000_000;

#[test]
fn fig5_stub_splits_barrier_and_task_tree_shows_creation() {
    let ids = TaskIdAllocator::new();
    let mut events = vec![Event::Enter(BARRIER)];
    // Instances totalling 113 s inside the barrier; while running they
    // spend 25.8 s creating child tasks (which we model as created but
    // executed within the same totals).
    // 4 instances: exclusive work 51.5s + taskwaited child time folded
    // into the instances for a total of 113 s.
    let spec: [(u64, u64); 4] = [
        // (total instance time, of which creating) in tenths of seconds
        (300, 70),
        (300, 70),
        (300, 70),
        (230, 48),
    ];
    for (total, creating) in spec {
        let id = ids.alloc();
        let nested = ids.alloc();
        let rest = total - creating;
        events.extend([
            Event::TaskBegin { region: TASK0, id },
            Event::Advance(rest / 2 * S / 10),
            Event::CreateBegin {
                create: CREATE,
                task_region: TASK0,
                id: nested,
            },
            Event::Advance(creating * S / 10),
            Event::CreateEnd {
                create: CREATE,
                id: nested,
            },
            Event::Advance((rest - rest / 2) * S / 10),
            Event::TaskEnd { region: TASK0, id },
        ]);
    }
    events.push(Event::Advance(103 * S)); // not executing a task
    events.push(Event::Exit(BARRIER));
    let snap = replay_checked(PAR, events);

    let barrier = snap.main.child(NodeKind::Region(BARRIER)).unwrap();
    let stub = barrier.child(NodeKind::Stub(TASK0)).unwrap();
    // "113s of task execution happened inside the barrier."
    assert_eq!(stub.stats.sum_ns, 113 * S);
    // "103s time is still spent inside the barrier not executing a task."
    assert_eq!(barrier.exclusive_ns(), (103 * S) as i64);

    // "The task region had 51.5s exclusive execution time and 25.8s were
    // spent creating new tasks."
    let task = &snap.task_trees[0];
    assert_eq!(task.stats.sum_ns, 113 * S);
    let create = task.child(NodeKind::Region(CREATE)).unwrap();
    assert_eq!(create.stats.sum_ns, 258 * S / 10);
    assert_eq!(task.exclusive_ns(), (113 * S - 258 * S / 10) as i64);
}
