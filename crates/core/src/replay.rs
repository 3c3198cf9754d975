//! Deterministic event-stream replay.
//!
//! The paper explains its algorithm through event streams (Figs. 1, 2, 4,
//! 6–11). This module provides a small language for writing such streams
//! down and feeding them through the profiler under virtual time, so tests
//! and examples can reproduce those figures with exact numbers, without a
//! runtime or real threads.

use crate::profiler::{AssignPolicy, ThreadProfile};
use crate::snapshot::ThreadSnapshot;
use pomp::{ParamId, RegionId, TaskId, TaskRef};

/// One step of a replayed event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Advance virtual time by `dt` nanoseconds.
    Advance(u64),
    /// Region enter on the current task.
    Enter(RegionId),
    /// Region exit on the current task.
    Exit(RegionId),
    /// Begin creating a deferred task instance.
    CreateBegin {
        /// The creation-site region.
        create: RegionId,
        /// The created task's construct region.
        task_region: RegionId,
        /// The new instance id.
        id: TaskId,
    },
    /// Finish creating `id`.
    CreateEnd {
        /// The creation-site region.
        create: RegionId,
        /// The created instance id.
        id: TaskId,
    },
    /// Begin executing a task instance (implies a switch to it).
    TaskBegin {
        /// The task construct region.
        region: RegionId,
        /// The instance id.
        id: TaskId,
    },
    /// Complete a task instance (implies a switch to the implicit task).
    TaskEnd {
        /// The task construct region.
        region: RegionId,
        /// The instance id.
        id: TaskId,
    },
    /// Abort a task instance (its body panicked): open frames are
    /// force-closed, the instance is tagged aborted and still merged
    /// (implies a switch to the implicit task).
    TaskAbort {
        /// The task construct region.
        region: RegionId,
        /// The instance id.
        id: TaskId,
    },
    /// Resume `target` at a scheduling point.
    Switch(TaskRef),
    /// Open a parameter scope on the current task.
    ParamBegin {
        /// Parameter name handle.
        param: ParamId,
        /// Parameter value.
        value: i64,
    },
    /// Close the innermost scope of `param`.
    ParamEnd {
        /// Parameter name handle.
        param: ParamId,
    },
}

/// Replays an event stream through a [`ThreadProfile`] under virtual time.
#[derive(Debug)]
pub struct Replayer {
    profile: ThreadProfile,
    t: u64,
}

impl Replayer {
    /// Start a replay of a parallel region at virtual time 0.
    pub fn new(parallel_region: RegionId, policy: AssignPolicy) -> Self {
        Self {
            profile: ThreadProfile::new(parallel_region, 0, policy),
            t: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.t
    }

    /// Access the underlying profile (e.g. for live-tree assertions).
    pub fn profile(&self) -> &ThreadProfile {
        &self.profile
    }

    /// Configure overload shedding (cap on live instance trees) for the
    /// replayed thread.
    pub fn set_max_live_trees(&mut self, limit: Option<usize>) -> &mut Self {
        self.profile.set_max_live_trees(limit);
        self
    }

    /// Configure tree-depth truncation for the replayed thread (mirrors
    /// `ProfMonitor`'s `max_depth`, so offline replays can reproduce a
    /// depth-limited live profile exactly).
    pub fn set_max_depth(&mut self, depth: Option<usize>) -> &mut Self {
        self.profile.set_max_depth(depth);
        self
    }

    /// Apply one event.
    pub fn apply(&mut self, ev: Event) {
        match ev {
            Event::Advance(dt) => self.t += dt,
            Event::Enter(r) => self.profile.enter(r, self.t),
            Event::Exit(r) => self.profile.exit(r, self.t),
            Event::CreateBegin {
                create,
                task_region,
                id,
            } => self
                .profile
                .task_create_begin(create, task_region, id, self.t),
            Event::CreateEnd { create, id } => self.profile.task_create_end(create, id, self.t),
            Event::TaskBegin { region, id } => self.profile.task_begin(region, id, self.t),
            Event::TaskEnd { region, id } => self.profile.task_end(region, id, self.t),
            Event::TaskAbort { region, id } => self.profile.task_abort(region, id, self.t),
            Event::Switch(target) => self.profile.task_switch(target, self.t),
            Event::ParamBegin { param, value } => {
                self.profile.parameter_begin(param, value, self.t)
            }
            Event::ParamEnd { param } => self.profile.parameter_end(param, self.t),
        }
    }

    /// Apply a sequence of events.
    pub fn run(&mut self, events: impl IntoIterator<Item = Event>) -> &mut Self {
        for ev in events {
            self.apply(ev);
        }
        self
    }

    /// Finish the region at the current virtual time and snapshot.
    pub fn finish(mut self, tid: usize) -> ThreadSnapshot {
        self.profile.finish(self.t);
        self.profile.snapshot(tid)
    }
}

/// Replay a whole stream in one call.
pub fn replay(
    parallel_region: RegionId,
    policy: AssignPolicy,
    events: impl IntoIterator<Item = Event>,
) -> ThreadSnapshot {
    let mut r = Replayer::new(parallel_region, policy);
    r.run(events);
    r.finish(0)
}

/// Multi-thread replay with one shared virtual clock — including task
/// *migration* between threads, the untied-task scenario of the paper's
/// Section IV-D1 that no 2012 runtime could deliver events for.
#[derive(Debug)]
pub struct TeamReplayer {
    threads: Vec<ThreadProfile>,
    t: u64,
}

impl TeamReplayer {
    /// A replayed team of `nthreads` threads at virtual time 0.
    pub fn new(nthreads: usize, parallel_region: RegionId, policy: AssignPolicy) -> Self {
        Self {
            threads: (0..nthreads)
                .map(|_| ThreadProfile::new(parallel_region, 0, policy))
                .collect(),
            t: 0,
        }
    }

    /// Current virtual time (shared by all threads).
    pub fn now(&self) -> u64 {
        self.t
    }

    /// Advance the shared clock.
    pub fn advance(&mut self, dt: u64) -> &mut Self {
        self.t += dt;
        self
    }

    /// Configure overload shedding (cap on live instance trees) on every
    /// replayed thread.
    pub fn set_max_live_trees(&mut self, limit: Option<usize>) -> &mut Self {
        for p in &mut self.threads {
            p.set_max_live_trees(limit);
        }
        self
    }

    /// Configure tree-depth truncation on every replayed thread.
    pub fn set_max_depth(&mut self, depth: Option<usize>) -> &mut Self {
        for p in &mut self.threads {
            p.set_max_depth(depth);
        }
        self
    }

    /// Apply an event on thread `tid`. `Event::Advance` moves the shared
    /// clock.
    pub fn apply(&mut self, tid: usize, ev: Event) -> &mut Self {
        let t = self.t;
        let p = &mut self.threads[tid];
        match ev {
            Event::Advance(dt) => self.t += dt,
            Event::Enter(r) => p.enter(r, t),
            Event::Exit(r) => p.exit(r, t),
            Event::CreateBegin {
                create,
                task_region,
                id,
            } => p.task_create_begin(create, task_region, id, t),
            Event::CreateEnd { create, id } => p.task_create_end(create, id, t),
            Event::TaskBegin { region, id } => p.task_begin(region, id, t),
            Event::TaskEnd { region, id } => p.task_end(region, id, t),
            Event::TaskAbort { region, id } => p.task_abort(region, id, t),
            Event::Switch(target) => p.task_switch(target, t),
            Event::ParamBegin { param, value } => p.parameter_begin(param, value, t),
            Event::ParamEnd { param } => p.parameter_end(param, t),
        }
        self
    }

    /// Migrate the suspended instance `id` from thread `from` to thread
    /// `to` (resume it there with `Event::Switch`).
    pub fn migrate(&mut self, id: pomp::TaskId, from: usize, to: usize) -> &mut Self {
        let detached = self.threads[from].detach_instance(id);
        self.threads[to].attach_instance(id, detached);
        self
    }

    /// Access a thread's in-progress profile.
    pub fn thread(&self, tid: usize) -> &ThreadProfile {
        &self.threads[tid]
    }

    /// Finish all threads at the current time and collect the profile.
    pub fn finish(mut self) -> crate::snapshot::Profile {
        let t = self.t;
        crate::snapshot::Profile {
            threads: self
                .threads
                .iter_mut()
                .enumerate()
                .map(|(tid, p)| {
                    p.finish(t);
                    p.snapshot(tid)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;
    use pomp::TaskIdAllocator;

    #[test]
    fn replay_matches_direct_profile_calls() {
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let (par, task, barrier) = (RegionId(0), RegionId(1), RegionId(2));
        let snap = replay(
            par,
            AssignPolicy::Executing,
            [
                Event::Advance(10),
                Event::Enter(barrier),
                Event::TaskBegin { region: task, id },
                Event::Advance(25),
                Event::TaskEnd { region: task, id },
                Event::Advance(5),
                Event::Exit(barrier),
                Event::Advance(2),
            ],
        );
        assert_eq!(snap.main.stats.sum_ns, 42);
        let b = snap.main.child(NodeKind::Region(barrier)).unwrap();
        assert_eq!(b.stats.sum_ns, 30);
        assert_eq!(snap.task_trees[0].stats.sum_ns, 25);
    }

    #[test]
    fn fig4_suspend_resume_under_other_node() {
        // Paper Fig. 4: task1 suspends at a taskwait, task2 runs and
        // suspends too, then task1 resumes — inside the *same* taskwait
        // region of the implicit task the call paths stay untangled.
        let ids = TaskIdAllocator::new();
        let (t1, t2) = (ids.alloc(), ids.alloc());
        let (par, task, tw, barrier) = (RegionId(0), RegionId(1), RegionId(2), RegionId(3));
        let snap = replay(
            par,
            AssignPolicy::Executing,
            [
                Event::Enter(barrier),
                Event::TaskBegin {
                    region: task,
                    id: t1,
                },
                Event::Advance(10),
                Event::Enter(tw), // t1 waits for children
                Event::Advance(1),
                Event::TaskBegin {
                    region: task,
                    id: t2,
                }, // t1 suspended
                Event::Advance(20),
                Event::TaskEnd {
                    region: task,
                    id: t2,
                },
                Event::Switch(TaskRef::Explicit(t1)), // t1 resumes
                Event::Advance(2),
                Event::Exit(tw),
                Event::Advance(3),
                Event::TaskEnd {
                    region: task,
                    id: t1,
                },
                Event::Exit(barrier),
            ],
        );
        let tree = &snap.task_trees[0];
        // Two completed instances: t2 ran 20, t1 ran 10+1+2+3 = 16.
        assert_eq!(tree.stats.visits, 2);
        assert_eq!(tree.stats.sum_ns, 36);
        assert_eq!(tree.stats.min_ns, 16);
        assert_eq!(tree.stats.max_ns, 20);
        // t1's taskwait accumulated only unsuspended time: 1 + 2 = 3.
        let tw_node = tree.child(NodeKind::Region(tw)).unwrap();
        assert_eq!(tw_node.stats.sum_ns, 3);
        // Three fragments under the barrier stub (t1, t2, t1 again).
        let b = snap.main.child(NodeKind::Region(barrier)).unwrap();
        let stub = b.child(NodeKind::Stub(task)).unwrap();
        assert_eq!(stub.stats.visits, 3);
        assert_eq!(stub.stats.sum_ns, 36);
    }

    #[test]
    fn team_replay_with_migration() {
        // An "untied" task starts on thread 0, suspends, migrates, and
        // completes on thread 1 — the statistics follow the task.
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let (par, task, barrier) = (RegionId(20), RegionId(21), RegionId(22));
        let mut team = TeamReplayer::new(2, par, AssignPolicy::Executing);
        team.apply(0, Event::Enter(barrier))
            .apply(1, Event::Enter(barrier))
            .apply(0, Event::TaskBegin { region: task, id })
            .advance(10)
            .apply(0, Event::Switch(TaskRef::Implicit))
            .migrate(id, 0, 1)
            .advance(5)
            .apply(1, Event::Switch(TaskRef::Explicit(id)))
            .advance(7)
            .apply(1, Event::TaskEnd { region: task, id })
            .apply(0, Event::Exit(barrier))
            .apply(1, Event::Exit(barrier));
        let profile = team.finish();
        // The completed instance (10 + 7 ns) is accounted on thread 1.
        assert!(profile.threads[0].task_trees.is_empty());
        let tree = profile.threads[1].task_tree(task).unwrap();
        assert_eq!(tree.stats.sum_ns, 17);
        assert_eq!(tree.stats.samples, 1);
        // Each thread's stub saw its own fragment.
        let stub0 = profile.threads[0]
            .main
            .child(NodeKind::Region(barrier))
            .unwrap()
            .child(NodeKind::Stub(task))
            .unwrap()
            .stats
            .sum_ns;
        let stub1 = profile.threads[1]
            .main
            .child(NodeKind::Region(barrier))
            .unwrap()
            .child(NodeKind::Stub(task))
            .unwrap()
            .stats
            .sum_ns;
        assert_eq!((stub0, stub1), (10, 7));
    }

    #[test]
    fn live_trees_visible_mid_replay() {
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let (par, task, barrier) = (RegionId(0), RegionId(1), RegionId(2));
        let mut r = Replayer::new(par, AssignPolicy::Executing);
        r.run([
            Event::Enter(barrier),
            Event::TaskBegin {
                region: task,
                id: t1,
            },
        ]);
        assert_eq!(r.profile().live_instance_trees(), 1);
        r.run([
            Event::TaskEnd {
                region: task,
                id: t1,
            },
            Event::Exit(barrier),
        ]);
        assert_eq!(r.profile().live_instance_trees(), 0);
        let snap = r.finish(7);
        assert_eq!(snap.tid, 7);
        assert_eq!(snap.max_live_trees, 1);
    }
}
