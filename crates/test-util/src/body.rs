//! Profiler-level execution plans for event-stream property tests.
//!
//! A [`Body`] plan describes one well-formed single-thread execution —
//! nested regions, task creation and immediate execution at scheduling
//! points, parameter scopes — which [`emit`] turns into the exact event
//! stream a runtime would produce, fed through a [`Sink`] under virtual
//! time: the profiler's [`taskprof::Replayer`], the Fig. 12 reference
//! ([`crate::fig12::Oracle`]), or both at once.

use pomp::{RegionId, TaskIdAllocator, TaskRef};
use proptest::prelude::*;
use taskprof::{Event, Replayer, SnapNode};

/// What [`emit`] drives.
pub trait Sink {
    /// Apply one event.
    fn apply(&mut self, ev: Event);
    /// The task executing now.
    fn current_task(&self) -> TaskRef;
    /// Instances begun and not yet finished.
    fn live_instance_trees(&self) -> usize;
}

impl Sink for Replayer {
    fn apply(&mut self, ev: Event) {
        Replayer::apply(self, ev);
    }

    fn current_task(&self) -> TaskRef {
        self.profile().current_task()
    }

    fn live_instance_trees(&self) -> usize {
        self.profile().live_instance_trees()
    }
}

/// One stream into two sinks, which must agree on the state `emit` reads.
impl<A: Sink, B: Sink> Sink for (A, B) {
    fn apply(&mut self, ev: Event) {
        self.0.apply(ev);
        self.1.apply(ev);
    }

    fn current_task(&self) -> TaskRef {
        let current = self.0.current_task();
        assert_eq!(current, self.1.current_task(), "the sinks disagree on the current task");
        current
    }

    fn live_instance_trees(&self) -> usize {
        let live = self.0.live_instance_trees();
        assert_eq!(live, self.1.live_instance_trees(), "the sinks disagree on the live trees");
        live
    }
}

/// The fixed parallel region used by plan replays.
pub const PAR: RegionId = RegionId(9000);
/// The barrier under which plans execute.
pub const BARRIER: RegionId = RegionId(9001);
/// First task construct.
pub const TASK_A: RegionId = RegionId(9002);
/// Second task construct.
pub const TASK_B: RegionId = RegionId(9003);
/// Creation-site region of [`TASK_A`] / [`TASK_B`] plans.
pub const CREATE_A: RegionId = RegionId(9004);
/// A taskwait region.
pub const TW: RegionId = RegionId(9005);
/// A user region.
pub const FOO: RegionId = RegionId(9006);
/// Another user region.
pub const BAR: RegionId = RegionId(9007);

/// A recursive plan for one task body.
#[derive(Clone, Debug)]
pub enum Body {
    /// Spend time.
    Work(u8),
    /// Enter a region, run the inner bodies, exit.
    Region(RegionId, Vec<Body>),
    /// Create + immediately execute a child task with the given body
    /// (models a scheduling point switching to a fresh task while this
    /// one is suspended).
    Child(RegionId, Vec<Body>),
    /// Parameter scope.
    Param(i64, Vec<Body>),
}

/// Strategy over recursive bodies up to the given recursion depth.
pub fn body_strategy(depth: u32) -> impl Strategy<Value = Body> {
    let leaf = prop_oneof![any::<u8>().prop_map(Body::Work)];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            (
                prop_oneof![Just(FOO), Just(BAR), Just(TW)],
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(r, b)| Body::Region(r, b)),
            (
                prop_oneof![Just(TASK_A), Just(TASK_B)],
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(r, b)| Body::Child(r, b)),
            (0i64..5, prop::collection::vec(inner, 0..2))
                .prop_map(|(v, b)| Body::Param(v, b)),
        ]
    })
}

/// Emit the event stream for a body executing as the current instance,
/// tracking the live-tree high-water mark in `max_live`.
pub fn emit(r: &mut impl Sink, ids: &TaskIdAllocator, body: &[Body], max_live: &mut usize) {
    let depth_param = pomp::registry().register_param("pt-depth");
    for b in body {
        match b {
            Body::Work(units) => {
                r.apply(Event::Advance(*units as u64 + 1));
            }
            Body::Region(region, inner) => {
                r.apply(Event::Enter(*region));
                emit(r, ids, inner, max_live);
                r.apply(Event::Advance(1));
                r.apply(Event::Exit(*region));
            }
            Body::Child(region, inner) => {
                let id = ids.alloc();
                r.apply(Event::CreateBegin {
                    create: CREATE_A,
                    task_region: *region,
                    id,
                });
                r.apply(Event::Advance(1));
                r.apply(Event::CreateEnd { create: CREATE_A, id });
                // Execute it right away at this (creation) scheduling
                // point; the current task suspends meanwhile.
                let resumed = r.current_task();
                r.apply(Event::TaskBegin { region: *region, id });
                *max_live = (*max_live).max(r.live_instance_trees());
                emit(r, ids, inner, max_live);
                r.apply(Event::Advance(1));
                r.apply(Event::TaskEnd { region: *region, id });
                if let TaskRef::Explicit(_) = resumed {
                    r.apply(Event::Switch(resumed));
                }
            }
            Body::Param(v, inner) => {
                r.apply(Event::ParamBegin {
                    param: depth_param,
                    value: *v,
                });
                emit(r, ids, inner, max_live);
                r.apply(Event::Advance(1));
                r.apply(Event::ParamEnd { param: depth_param });
            }
        }
    }
}

/// Structural sanity of a snapshot subtree: non-negative exclusive time
/// (under the executing policy), min ≤ max, samples ≤ visits.
pub fn subtree_ok(n: &SnapNode, executing_policy: bool) -> Result<(), String> {
    // Inclusive >= sum of children (no negative exclusive) under the
    // executing policy.
    if executing_policy && n.exclusive_ns() < 0 {
        return Err(format!("negative exclusive at {:?}", n.kind));
    }
    // min <= max; samples <= visits; sampled stats consistent.
    if n.stats.samples > 0 {
        if n.stats.min_ns > n.stats.max_ns {
            return Err(format!("min > max at {:?}", n.kind));
        }
        if n.stats.max_ns > n.stats.sum_ns {
            return Err(format!("max > sum at {:?}", n.kind));
        }
    }
    if n.stats.samples > n.stats.visits {
        return Err(format!("samples > visits at {:?}", n.kind));
    }
    for c in &n.children {
        subtree_ok(c, executing_policy)?;
    }
    Ok(())
}
