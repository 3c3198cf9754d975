//! Profiler-level execution plans for event-stream property tests.
//!
//! A [`Body`] plan describes one well-formed single-thread execution —
//! nested regions, task creation and immediate execution at scheduling
//! points, parameter scopes — which [`emit`] turns into the exact event
//! stream a runtime would produce, fed through a [`Sink`] under virtual
//! time: the profiler's [`taskprof::Replayer`], the Fig. 12 reference
//! ([`crate::fig12::Oracle`]), or both at once.

use crate::prop::Gen;
use pomp::{RegionId, TaskIdAllocator, TaskRef};
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
        assert_eq!(
            current,
            self.1.current_task(),
            "the sinks disagree on the current task"
        );
        current
    }

    fn live_instance_trees(&self) -> usize {
        let live = self.0.live_instance_trees();
        assert_eq!(
            live,
            self.1.live_instance_trees(),
            "the sinks disagree on the live trees"
        );
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

/// A body up to `depth` levels of nesting: a leaf one time in three at
/// every level (always at depth 0), else a region, a child task or a
/// parameter scope around up to two or three inner bodies.
pub fn body(g: &mut Gen, depth: u32) -> Body {
    if depth == 0 || g.below(3) == 0 {
        return Body::Work(g.u64(..=255) as u8);
    }
    let inner = |g: &mut Gen, n| g.vec(0..n, |g| body(g, depth - 1));
    match g.below(3) {
        0 => Body::Region(g.pick(&[FOO, BAR, TW]), inner(g, 3)),
        1 => Body::Child(g.pick(&[TASK_A, TASK_B]), inner(g, 3)),
        _ => Body::Param(g.u64(0..5) as i64, inner(g, 2)),
    }
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
                r.apply(Event::CreateEnd {
                    create: CREATE_A,
                    id,
                });
                // Execute it right away at this (creation) scheduling
                // point; the current task suspends meanwhile.
                let resumed = r.current_task();
                r.apply(Event::TaskBegin {
                    region: *region,
                    id,
                });
                *max_live = (*max_live).max(r.live_instance_trees());
                emit(r, ids, inner, max_live);
                r.apply(Event::Advance(1));
                r.apply(Event::TaskEnd {
                    region: *region,
                    id,
                });
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
