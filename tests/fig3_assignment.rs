//! Fig. 3 / Section IV-B2: the node-assignment decision. The creating-
//! node policy produces negative exclusive times and over-attributes the
//! barrier; the executing-node policy keeps all metrics meaningful.

use pomp::{RegionId, TaskIdAllocator};
use taskprof::{replay, AssignPolicy, Event, NodeKind, ThreadSnapshot};

const PAR: RegionId = RegionId(9300);
const TASK: RegionId = RegionId(9301);
const CREATE: RegionId = RegionId(9302);
const BARRIER: RegionId = RegionId(9303);

fn scenario(policy: AssignPolicy) -> ThreadSnapshot {
    let ids = TaskIdAllocator::new();
    let t1 = ids.alloc();
    replay(
        PAR,
        policy,
        [
            Event::Advance(2), // parallel region start
            Event::CreateBegin {
                create: CREATE,
                task_region: TASK,
                id: t1,
            },
            Event::Advance(2), // creation takes 2
            Event::CreateEnd {
                create: CREATE,
                id: t1,
            },
            Event::Enter(BARRIER),
            Event::TaskBegin {
                region: TASK,
                id: t1,
            },
            Event::Advance(5), // the actual work
            Event::TaskEnd {
                region: TASK,
                id: t1,
            },
            Event::Advance(2), // residual wait
            Event::Exit(BARRIER),
        ],
    )
}

#[test]
fn creating_node_policy_breaks_exclusive_times() {
    let snap = scenario(AssignPolicy::Creating);
    let create = snap.main.child(NodeKind::Region(CREATE)).unwrap();
    // The task tree hangs under the creation node...
    let task = create.child(NodeKind::Region(TASK)).unwrap();
    assert_eq!(task.stats.sum_ns, 5);
    // ...making the creation node's exclusive time negative (paper: "a
    // task creation time of -5, which does not make sense").
    assert!(create.exclusive_ns() < 0, "got {}", create.exclusive_ns());
    // And the barrier's exclusive time includes the task's work (paper:
    // "the time attributed to the barrier is too large").
    let barrier = snap.main.child(NodeKind::Region(BARRIER)).unwrap();
    assert_eq!(barrier.exclusive_ns(), 7);
    assert!(snap.task_trees.is_empty());
}

#[test]
fn executing_node_policy_keeps_metrics_meaningful() {
    let snap = scenario(AssignPolicy::Executing);
    let create = snap.main.child(NodeKind::Region(CREATE)).unwrap();
    assert_eq!(create.exclusive_ns(), 2);
    assert!(create.children.is_empty());
    let barrier = snap.main.child(NodeKind::Region(BARRIER)).unwrap();
    // Barrier exclusive = 7 − 5 = 2: the task's execution is useful work,
    // not barrier time.
    assert_eq!(barrier.exclusive_ns(), 2);
    let stub = barrier.child(NodeKind::Stub(TASK)).unwrap();
    assert_eq!(stub.stats.sum_ns, 5);
    assert_eq!(snap.task_trees[0].stats.sum_ns, 5);
    // Nothing anywhere is negative.
    let mut all_nonneg = true;
    snap.main
        .walk(&mut |_, n| all_nonneg &= n.exclusive_ns() >= 0);
    assert!(all_nonneg);
}
