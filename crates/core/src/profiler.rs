//! The task profiling algorithm (paper Section IV-C, Fig. 12).
//!
//! One [`ThreadProfile`] per thread per parallel region. It maintains:
//!
//! * the implicit task's call tree (the *main tree*, rooted at the parallel
//!   region),
//! * a table of *active* explicit task instances, each with a private,
//!   detached instance tree and a frame stack whose timers stop across
//!   suspension (paper Section IV-B3),
//! * the *current task* pointer, resolved to its table slot once per task
//!   switch so that every event in between indexes instead of searching,
//! * *stub nodes* under the implicit task's scheduling points recording the
//!   time the thread spent executing task fragments there (Section IV-B4),
//! * per-construct aggregate task trees, sitting beside the main tree, into
//!   which completed instance trees are merged (with node reuse), and
//! * the maximum number of concurrently live instance trees, the memory
//!   metric of the paper's Table II.
//!
//! All event methods take an explicit timestamp so the algorithm is fully
//! deterministic under a virtual clock (this is how the tests replay the
//! paper's event-stream figures with exact numbers). The
//! [`crate::monitor::ProfMonitor`] adapter supplies real clock readings.

use crate::body::{Frame, TaskBody};
use crate::snapshot::{SnapNode, ThreadSnapshot};
use crate::tree::{Arena, NodeId, NodeKind};
use pomp::{ParamId, RegionId, TaskId, TaskRef};
use std::collections::HashMap;

/// Where a task's execution is attributed in the call tree.
///
/// The paper's Section IV-B2 (Fig. 3) argues only `Executing` produces
/// meaningful metrics; `Creating` is provided as the ablation that
/// reproduces the negative-exclusive-time pathology.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AssignPolicy {
    /// Attribute task execution to the scheduling point where it executes:
    /// detached instance trees + stub nodes + merge on completion.
    #[default]
    Executing,
    /// Attribute task execution to the node where the task was *created*:
    /// the instance tree hangs under the creation site, no stub nodes.
    /// Exclusive times of creation sites can go negative (Fig. 3 left).
    Creating,
}

/// An active explicit task instance (started but not completed).
#[derive(Debug)]
pub(crate) struct Instance {
    id: TaskId,
    pub(crate) region: RegionId,
    pub(crate) body: TaskBody,
}

/// Whose frame stack the current task's events go to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Slot {
    /// The implicit task.
    Implicit,
    /// The live instance at this index of `ThreadProfile::instances`.
    Live(usize),
    /// A shed (counting-only) instance: it has no frames, its events are
    /// dropped.
    Shed,
}

/// Per-thread call-path profile under construction.
#[derive(Debug)]
pub struct ThreadProfile {
    arena: Arena,
    parallel_region: RegionId,
    root: NodeId,
    implicit: TaskBody,
    /// Live instances in begin order. Tied tasks suspend and resume LIFO,
    /// so the instance a switch names is almost always the last one and
    /// [`ThreadProfile::index_of`] scans from the back.
    instances: Vec<Instance>,
    current: TaskRef,
    /// `current` resolved to its frame stack. Set where `current` is set
    /// (`switch_to`) and kept valid by `remove_at`, so the per-event hooks
    /// never look an id up.
    slot: Slot,
    /// Frame stacks of completed instances, handed to the next ones: in
    /// steady state an instance allocates nothing.
    spare_stacks: Vec<Vec<Frame>>,
    policy: AssignPolicy,
    /// Aggregate task-tree roots in order of first completion.
    task_roots: Vec<NodeId>,
    /// Creation-site node per created, not-yet-started instance. Only the
    /// `Creating` policy reads it, so only that policy fills it; an entry
    /// goes at the instance's `task_begin`, or at `finish` for instances
    /// another thread ran.
    creation_nodes: HashMap<TaskId, NodeId>,
    live_trees: usize,
    max_live_trees: usize,
    /// Call-path depth limit per task body (paper Section IV-B3: "tree
    /// depth limits might kick in"). Frames beyond it collapse into a
    /// single [`NodeKind::Truncated`] child.
    max_depth: Option<usize>,
    /// Overload-shedding cap on concurrently live instance trees: beyond
    /// it, new instances degrade to counting-only (no private tree).
    max_live_limit: Option<usize>,
    /// Currently live *shed* (counting-only) instances and their construct
    /// regions. Disjoint from `instances`; empty unless the cap was hit.
    shed_live: HashMap<TaskId, RegionId>,
    /// Total instances shed so far (monotonic; shown in the profile).
    shed_total: u64,
    /// Self-healing diagnostics: anomalies the profiler repaired instead
    /// of panicking over (e.g. instances force-closed at region end).
    diagnostics: Vec<String>,
    finished: bool,
}

impl ThreadProfile {
    /// Start profiling a thread's share of `parallel_region` at time `t`.
    pub fn new(parallel_region: RegionId, t: u64, policy: AssignPolicy) -> Self {
        Self::new_in(Arena::new(), parallel_region, t, policy)
    }

    /// Like [`ThreadProfile::new`] but building the trees inside a caller
    /// supplied (typically recycled) `arena`, so a thread beginning a new
    /// parallel region reuses the node capacity of an earlier one instead
    /// of allocating. The arena is reset first.
    pub fn new_in(mut arena: Arena, parallel_region: RegionId, t: u64, policy: AssignPolicy) -> Self {
        arena.reset();
        let root = arena.alloc(NodeKind::Region(parallel_region), None);
        arena.node_mut(root).stats.add_visit();
        let mut implicit = TaskBody::new(root);
        implicit.push(root, t);
        Self {
            arena,
            parallel_region,
            root,
            implicit,
            instances: Vec::new(),
            current: TaskRef::Implicit,
            slot: Slot::Implicit,
            spare_stacks: Vec::new(),
            policy,
            task_roots: Vec::new(),
            creation_nodes: HashMap::new(),
            live_trees: 0,
            max_live_trees: 0,
            max_depth: None,
            max_live_limit: None,
            shed_live: HashMap::new(),
            shed_total: 0,
            diagnostics: Vec::new(),
            finished: false,
        }
    }

    /// Limit call-path depth per task body: regions entered beyond
    /// `depth` open frames collapse into one `<truncated>` node. This is
    /// the profile-explosion guard the paper's Section IV-B3 refers to
    /// (Score-P's call-path depth limit).
    pub fn set_max_depth(&mut self, depth: Option<usize>) {
        self.max_depth = depth;
    }

    /// Overload shedding (robustness guard): cap the number of
    /// concurrently live instance trees. Once `live_instance_trees()`
    /// reaches the cap, *newly begun* instances degrade to counting-only —
    /// they get no private tree, their inner events are dropped, and only
    /// their instance count (plus abort count) reaches the aggregate task
    /// tree. The number of shed instances is reported in the snapshot.
    pub fn set_max_live_trees(&mut self, limit: Option<usize>) {
        self.max_live_limit = limit;
    }

    /// Total task instances degraded to counting-only by the live-tree cap.
    pub fn shed_instances(&self) -> u64 {
        self.shed_total
    }

    /// Anomalies the profiler repaired instead of panicking over (empty
    /// for a clean run). See [`ThreadProfile::finish`].
    pub fn diagnostics(&self) -> &[String] {
        &self.diagnostics
    }

    /// The attribution policy in effect.
    pub fn policy(&self) -> AssignPolicy {
        self.policy
    }

    /// Toggle free-list node reuse (ablation of the Section V-B memory
    /// strategy; on by default).
    pub fn set_node_reuse(&mut self, reuse: bool) {
        self.arena.set_reuse(reuse);
    }

    /// The task currently executing on this thread.
    pub fn current_task(&self) -> TaskRef {
        self.current
    }

    /// Number of instance trees currently alive.
    pub fn live_instance_trees(&self) -> usize {
        self.live_trees
    }

    /// High-water mark of concurrently live instance trees (paper
    /// Table II).
    pub fn max_live_trees(&self) -> usize {
        self.max_live_trees
    }

    /// Nodes currently allocated in this thread's arena (live) — the memory
    /// measure of Section V-B.
    pub fn live_nodes(&self) -> usize {
        self.arena.live_nodes()
    }

    /// High-water mark of arena slots ever allocated.
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity_nodes()
    }

    /// The frame stack `slot` stands for; `None` for a shed instance,
    /// which has none. Takes the two fields rather than `self` so callers
    /// can keep using the arena next to the returned borrow.
    #[inline]
    fn body_at<'a>(
        slot: Slot,
        implicit: &'a mut TaskBody,
        instances: &'a mut [Instance],
    ) -> Option<&'a mut TaskBody> {
        match slot {
            Slot::Implicit => Some(implicit),
            Slot::Live(i) => Some(&mut instances[i].body),
            Slot::Shed => None,
        }
    }

    #[inline]
    fn enter_kind(&mut self, kind: NodeKind, t: u64) {
        let max_depth = self.max_depth;
        let Some(body) = Self::body_at(self.slot, &mut self.implicit, &mut self.instances) else {
            return;
        };
        let arena = &mut self.arena;
        let cur = body.current_node();
        let node = if max_depth.is_some_and(|d| body.depth() >= d) {
            // Collapse: alias all deeper frames onto one truncated node.
            if arena.node(cur).kind == NodeKind::Truncated {
                cur
            } else {
                arena.child_of(cur, NodeKind::Truncated)
            }
        } else {
            arena.child_of(cur, kind)
        };
        arena.node_mut(node).stats.add_visit();
        body.push(node, t);
    }

    /// Close the current task's innermost frame. Returns the kind of the
    /// node it timed, for the callers' nesting checks — `None` when there
    /// is nothing to check: the current task is shed, or the frame was a
    /// collapsed `<truncated>` one.
    #[inline]
    fn close_frame(&mut self, t: u64) -> Option<NodeKind> {
        let body = Self::body_at(self.slot, &mut self.implicit, &mut self.instances)?;
        let (id, dur) = body.pop(t);
        let node = self.arena.node_mut(id);
        if node.kind == NodeKind::Truncated {
            // Aliased truncated frames: only the outermost records a
            // sample, otherwise the collapsed node would double-count
            // its own inclusive time.
            if body.current_node() != id {
                node.stats.record(dur);
            }
            return None;
        }
        node.stats.record(dur);
        Some(node.kind)
    }

    /// Region enter event on the current task.
    pub fn enter(&mut self, region: RegionId, t: u64) {
        self.enter_kind(NodeKind::Region(region), t);
    }

    /// Region exit event on the current task.
    pub fn exit(&mut self, region: RegionId, t: u64) {
        let closed = self.close_frame(t);
        debug_assert!(
            closed.is_none_or(|k| k == NodeKind::Region(region)),
            "exit event does not match innermost open region"
        );
    }

    /// Enter a parameter scope (paper Section VI): children recorded under
    /// a `(param, value)` node until the matching [`ThreadProfile::parameter_end`].
    pub fn parameter_begin(&mut self, param: ParamId, value: i64, t: u64) {
        self.enter_kind(NodeKind::Param(param, value), t);
    }

    /// Leave the innermost parameter scope.
    pub fn parameter_end(&mut self, param: ParamId, t: u64) {
        let closed = self.close_frame(t);
        debug_assert!(
            closed.is_none_or(|k| matches!(k, NodeKind::Param(p, _) if p == param)),
            "parameter_end does not match innermost open scope"
        );
    }

    /// Task creation begins: enter the creation region and, under the
    /// `Creating` policy, remember the creation site of `new_task`.
    pub fn task_create_begin(
        &mut self,
        create_region: RegionId,
        _task_region: RegionId,
        new_task: TaskId,
        t: u64,
    ) {
        self.enter(create_region, t);
        if self.policy == AssignPolicy::Creating {
            // A shed creator has no tree, hence no site to remember.
            if let Some(body) = Self::body_at(self.slot, &mut self.implicit, &mut self.instances) {
                self.creation_nodes.insert(new_task, body.current_node());
            }
        }
    }

    /// Task creation finished.
    pub fn task_create_end(&mut self, create_region: RegionId, _new_task: TaskId, t: u64) {
        self.exit(create_region, t);
    }

    /// Table index of the live (non-shed) instance `id`.
    #[inline]
    fn index_of(&self, id: TaskId) -> Option<usize> {
        self.instances.iter().rposition(|inst| inst.id == id)
    }

    /// `TaskSwitch` (paper Fig. 12): the thread's current task changes to
    /// `resumed`. Suspends the current explicit task's timers, maintains
    /// the stub node in the implicit task's tree, and resumes the target.
    pub fn task_switch(&mut self, resumed: TaskRef, t: u64) {
        if self.current == resumed {
            return;
        }
        let slot = match resumed {
            TaskRef::Implicit => Slot::Implicit,
            TaskRef::Explicit(id)
                if !self.shed_live.is_empty() && self.shed_live.contains_key(&id) =>
            {
                Slot::Shed
            }
            TaskRef::Explicit(id) => {
                Slot::Live(self.index_of(id).expect("switch to unknown task instance"))
            }
        };
        self.switch_to(resumed, slot, t);
    }

    /// [`ThreadProfile::task_switch`] with the target already resolved to
    /// its `slot`.
    fn switch_to(&mut self, resumed: TaskRef, slot: Slot, t: u64) {
        // "if current task is an explicit task { Exit(implicit, root region
        // of current task); stop time measurement on all open regions }"
        // Shed (counting-only) instances have no body and no stub frame.
        if let Slot::Live(i) = self.slot {
            self.instances[i].body.pause(t);
            if self.policy == AssignPolicy::Executing {
                let (node, dur) = self.implicit.pop(t);
                debug_assert!(
                    matches!(self.arena.node(node).kind, NodeKind::Stub(_)),
                    "implicit task's top frame must be the suspended task's stub"
                );
                self.arena.node_mut(node).stats.record(dur);
            }
        }
        self.current = resumed;
        self.slot = slot;
        // "if task instance is an explicit task { resume time measurement;
        // Enter(implicit, root region of task instance) }"
        if let Slot::Live(i) = slot {
            let inst = &mut self.instances[i];
            if inst.body.is_paused() {
                inst.body.resume(t);
            }
            if self.policy == AssignPolicy::Executing {
                let stub = self
                    .arena
                    .child_of(self.implicit.current_node(), NodeKind::Stub(inst.region));
                self.arena.node_mut(stub).stats.add_visit();
                self.implicit.push(stub, t);
            }
        }
    }

    /// `TaskBegin` (paper Fig. 12): the thread starts executing instance
    /// `id` of construct `task_region`. Creates the instance-specific data,
    /// switches to the instance, and enters its root region.
    pub fn task_begin(&mut self, task_region: RegionId, id: TaskId, t: u64) {
        debug_assert!(self.index_of(id).is_none(), "task instance began twice");
        let creation_site = match self.policy {
            AssignPolicy::Executing => None,
            AssignPolicy::Creating => self.creation_nodes.remove(&id),
        };
        if self.max_live_limit.is_some_and(|cap| self.live_trees >= cap) {
            // Overload shedding: the cap on concurrently live instance
            // trees is reached. Degrade this instance to counting-only —
            // it is still tracked as the current task (the event stream
            // keeps referring to it), but gets no private tree, and only
            // its existence reaches the aggregate tree.
            self.shed_total += 1;
            self.shed_live.insert(id, task_region);
            let agg = self.aggregate_root(task_region);
            self.arena.node_mut(agg).stats.add_visit();
            self.switch_to(TaskRef::Explicit(id), Slot::Shed, t);
            return;
        }
        let root = match self.policy {
            AssignPolicy::Executing => {
                // Detached private tree; merged on completion.
                self.arena.alloc(NodeKind::Region(task_region), None)
            }
            AssignPolicy::Creating => {
                // Hang the instance under the node where it was created
                // (falling back to the implicit task's position for
                // instances whose creation was not observed).
                let parent = creation_site.unwrap_or_else(|| self.implicit.current_node());
                self.arena.child_of(parent, NodeKind::Region(task_region))
            }
        };
        let stack = self.spare_stacks.pop().unwrap_or_default();
        self.instances.push(Instance {
            id,
            region: task_region,
            body: TaskBody::with_stack(root, stack),
        });
        self.inc_live_trees();
        let i = self.instances.len() - 1;
        self.switch_to(TaskRef::Explicit(id), Slot::Live(i), t);
        self.arena.node_mut(root).stats.add_visit();
        self.instances[i].body.push(root, t);
    }

    /// `TaskEnd` (paper Fig. 12): instance `id` completed. Exits its root
    /// region, switches back to the implicit task, and merges the instance
    /// tree into the thread's aggregate tree for this construct (releasing
    /// the instance nodes for reuse).
    pub fn task_end(&mut self, task_region: RegionId, id: TaskId, t: u64) {
        assert_eq!(
            self.current,
            TaskRef::Explicit(id),
            "task_end for a task that is not current"
        );
        let Slot::Live(i) = self.slot else {
            self.end_shed(id, t, false);
            return;
        };
        // Exit(task instance, task region)
        let inst = &mut self.instances[i];
        debug_assert_eq!(inst.region, task_region);
        let (node, dur) = inst.body.pop(t);
        debug_assert_eq!(node, inst.body.root, "task ended with open inner regions");
        debug_assert_eq!(inst.body.depth(), 0, "task ended with open inner regions");
        self.arena.node_mut(node).stats.record(dur);
        // TaskSwitch(implicit task)
        self.switch_to(TaskRef::Implicit, Slot::Implicit, t);
        self.retire(i);
    }

    /// `TaskAbort`: instance `id` died mid-execution (its body panicked,
    /// or it is being force-closed at region end). The panic unwound
    /// without emitting exit events, so every open frame of the instance
    /// is force-closed — charging each the time observed so far — the
    /// instance root is tagged aborted, and the partial tree is still
    /// merged into the aggregate task tree. The thread resumes the
    /// implicit task, exactly as after a normal `task_end`.
    pub fn task_abort(&mut self, task_region: RegionId, id: TaskId, t: u64) {
        // Robustness: the abort may arrive for a *suspended* instance
        // (forced closure at region end). Resume it first so the stub
        // accounting in the implicit tree stays balanced.
        self.task_switch(TaskRef::Explicit(id), t);
        let Slot::Live(i) = self.slot else {
            self.end_shed(id, t, true);
            return;
        };
        let inst = &mut self.instances[i];
        debug_assert_eq!(inst.region, task_region);
        let root = inst.body.root;
        while inst.body.depth() > 0 {
            let (node, dur) = inst.body.pop(t);
            // Aliased <truncated> frames: record the outermost only (the
            // same double-count guard close_frame applies).
            let aliased = inst.body.current_node() == node;
            if aliased && self.arena.node(node).kind == NodeKind::Truncated {
                continue;
            }
            self.arena.node_mut(node).stats.record(dur);
        }
        self.arena.node_mut(root).stats.record_abort();
        self.switch_to(TaskRef::Implicit, Slot::Implicit, t);
        self.retire(i);
    }

    /// Take the no-longer-current instance at index `i` out of the table:
    /// merge its tree into the aggregate for its construct and keep its
    /// frame stack for the next instance.
    fn retire(&mut self, i: usize) {
        let inst = self.remove_at(i);
        if self.policy == AssignPolicy::Executing {
            let agg = self.aggregate_root(inst.region);
            self.arena.merge_into(inst.body.root, agg);
        }
        self.spare_stacks.push(inst.body.into_stack());
        self.dec_live_trees();
    }

    /// Remove the instance at index `i`, which must not be current. The
    /// last instance takes its place, so if that one is current its slot
    /// moves with it.
    fn remove_at(&mut self, i: usize) -> Instance {
        debug_assert_ne!(self.slot, Slot::Live(i), "removing the current instance");
        let inst = self.instances.swap_remove(i);
        if self.slot == Slot::Live(self.instances.len()) {
            self.slot = Slot::Live(i);
        }
        inst
    }

    /// Complete a shed (counting-only) instance: no tree to merge, just
    /// bookkeeping — and an abort tag on the aggregate root if it died.
    fn end_shed(&mut self, id: TaskId, t: u64, aborted: bool) {
        debug_assert_eq!(
            self.current,
            TaskRef::Explicit(id),
            "shed instance ended while not current"
        );
        let region = self
            .shed_live
            .remove(&id)
            .expect("shed instance without a region");
        if aborted {
            let agg = self.aggregate_root(region);
            self.arena.node_mut(agg).stats.record_abort();
        }
        self.switch_to(TaskRef::Implicit, Slot::Implicit, t);
    }

    fn aggregate_root(&mut self, region: RegionId) -> NodeId {
        let kind = NodeKind::Region(region);
        if let Some(&r) = self
            .task_roots
            .iter()
            .find(|&&r| self.arena.node(r).kind == kind)
        {
            return r;
        }
        let r = self.arena.alloc(kind, None);
        self.task_roots.push(r);
        r
    }

    /// Close the profile at time `t` (end of the parallel region). Any
    /// regions still open on the implicit task (normally just the
    /// parallel-region root) are exited.
    ///
    /// Self-healing: a faulty runtime (or a panic that escaped task
    /// containment) may end the region with task instances still open.
    /// Instead of panicking inside the measurement system, each leftover
    /// instance is force-closed as aborted — its open frames are charged
    /// the time observed so far, its partial tree is merged and tagged —
    /// and a [`ThreadProfile::diagnostics`] entry records the repair.
    pub fn finish(&mut self, t: u64) {
        if let TaskRef::Explicit(id) = self.current {
            self.diagnostics.push(format!(
                "region ended while task instance {} was still executing; force-closed as aborted",
                id.get()
            ));
            let region = match self.slot {
                Slot::Live(i) => self.instances[i].region,
                _ => self.shed_live[&id],
            };
            self.task_abort(region, id, t);
        }
        let mut leftover: Vec<(TaskId, RegionId)> = self
            .instances
            .iter()
            .map(|inst| (inst.id, inst.region))
            .chain(self.shed_live.iter().map(|(&id, &region)| (id, region)))
            .collect();
        leftover.sort_unstable();
        for (id, region) in leftover {
            self.diagnostics.push(format!(
                "region ended with suspended task instance {}; force-closed as aborted",
                id.get()
            ));
            self.task_abort(region, id, t);
        }
        // Creation sites of instances some other thread ran (or nobody).
        self.creation_nodes.clear();
        while self.implicit.depth() > 0 {
            let (node, dur) = self.implicit.pop(t);
            self.arena.node_mut(node).stats.record(dur);
        }
        self.finished = true;
    }

    /// True once [`ThreadProfile::finish`] ran.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Consume the profile and recover its arena (reset, capacity kept)
    /// for recycling into the next parallel region's shard.
    pub fn into_arena(mut self) -> Arena {
        self.arena.reset();
        self.arena
    }

    // Crate-internal access for the migration module (see `migrate.rs`).
    pub(crate) fn has_instance(&self, id: TaskId) -> bool {
        self.index_of(id).is_some()
    }

    /// Take the suspended (not current) instance `id` out of the table.
    pub(crate) fn remove_instance(&mut self, id: TaskId) -> Option<Instance> {
        let i = self.index_of(id)?;
        Some(self.remove_at(i))
    }

    pub(crate) fn insert_instance(&mut self, id: TaskId, region: RegionId, body: TaskBody) {
        self.instances.push(Instance { id, region, body });
    }

    pub(crate) fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    pub(crate) fn arena_ref(&self) -> &Arena {
        &self.arena
    }

    pub(crate) fn snap_public(&self, node: NodeId) -> SnapNode {
        self.snap(node)
    }

    pub(crate) fn dec_live_trees(&mut self) {
        self.live_trees -= 1;
    }

    pub(crate) fn inc_live_trees(&mut self) {
        self.live_trees += 1;
        self.max_live_trees = self.max_live_trees.max(self.live_trees);
    }

    fn snap(&self, node: NodeId) -> SnapNode {
        let n = self.arena.node(node);
        SnapNode {
            kind: n.kind,
            stats: n.stats,
            children: n.children.iter().map(|&c| self.snap(c)).collect(),
        }
    }

    /// Extract a plain snapshot (main tree + aggregated task trees) for
    /// analysis. Usually called after [`ThreadProfile::finish`]; calling it
    /// earlier snapshots the in-progress state (open frames simply have not
    /// recorded samples yet).
    pub fn snapshot(&self, tid: usize) -> ThreadSnapshot {
        ThreadSnapshot {
            tid,
            parallel_region: self.parallel_region,
            main: self.snap(self.root),
            task_trees: self.task_roots.iter().map(|&r| self.snap(r)).collect(),
            max_live_trees: self.max_live_trees,
            arena_capacity: self.arena.capacity_nodes(),
            shed_instances: self.shed_total,
            diagnostics: self.diagnostics.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::TaskIdAllocator;

    fn rid(i: u32) -> RegionId {
        RegionId(i)
    }

    const PAR: u32 = 0;
    const TASK_A: u32 = 1;
    const CREATE_A: u32 = 2;
    const BARRIER: u32 = 3;
    const TASKWAIT: u32 = 4;
    const FOO: u32 = 5;

    /// Helper: find a child snapshot by kind.
    fn child(n: &SnapNode, kind: NodeKind) -> &SnapNode {
        n.children
            .iter()
            .find(|c| c.kind == kind)
            .unwrap_or_else(|| panic!("no child {kind:?} under {:?}", n.kind))
    }

    #[test]
    fn plain_nesting_without_tasks_matches_fig1() {
        // Paper Fig. 1: main{ foo(), bar() } — here PAR{ FOO twice }.
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(FOO), 10);
        p.exit(rid(FOO), 30);
        p.enter(rid(FOO), 40);
        p.exit(rid(FOO), 45);
        p.finish(100);
        let s = p.snapshot(0);
        assert_eq!(s.main.stats.sum_ns, 100);
        assert_eq!(s.main.stats.visits, 1);
        let foo = child(&s.main, NodeKind::Region(rid(FOO)));
        assert_eq!(foo.stats.visits, 2);
        assert_eq!(foo.stats.sum_ns, 25);
        assert_eq!(foo.stats.min_ns, 5);
        assert_eq!(foo.stats.max_ns, 20);
        assert!(s.task_trees.is_empty());
    }

    #[test]
    fn single_task_in_barrier_creates_stub_and_task_tree() {
        // The walkthrough of paper Figs. 6-8 and 10-11 with one instance.
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.task_create_begin(rid(CREATE_A), rid(TASK_A), t1, 10);
        p.task_create_end(rid(CREATE_A), t1, 12);
        p.enter(rid(BARRIER), 20);
        p.task_begin(rid(TASK_A), t1, 25);
        p.task_end(rid(TASK_A), t1, 75);
        p.exit(rid(BARRIER), 80);
        p.finish(100);
        let s = p.snapshot(0);

        // Main tree: PAR -> {create A, barrier -> stub A}.
        let create = child(&s.main, NodeKind::Region(rid(CREATE_A)));
        assert_eq!(create.stats.sum_ns, 2);
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        assert_eq!(barrier.stats.sum_ns, 60);
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        assert_eq!(stub.stats.visits, 1, "one fragment executed");
        assert_eq!(stub.stats.sum_ns, 50, "time executing the task in the barrier");
        // Barrier exclusive = 60 - 50 = 10 (management/idle), the Fig. 5 split.

        // Task tree beside the main tree.
        assert_eq!(s.task_trees.len(), 1);
        let task = &s.task_trees[0];
        assert_eq!(task.kind, NodeKind::Region(rid(TASK_A)));
        assert_eq!(task.stats.visits, 1);
        assert_eq!(task.stats.sum_ns, 50);
    }

    #[test]
    fn interleaved_fragments_fig2_are_attributed_per_instance() {
        // Paper Fig. 2: two instances of the same construct, both enter
        // foo(), both suspend inside it; the exit events can only be
        // attributed correctly with instance tracking.
        let ids = TaskIdAllocator::new();
        let (t1, t2) = (ids.alloc(), ids.alloc());
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 10);
        p.enter(rid(FOO), 12);
        p.enter(rid(TASKWAIT), 14); // t1 suspends here
        p.task_begin(rid(TASK_A), t2, 20); // implies switch away from t1
        p.enter(rid(FOO), 22);
        p.exit(rid(FOO), 30); // this exit belongs to t2's foo
        p.task_end(rid(TASK_A), t2, 32);
        p.task_switch(TaskRef::Explicit(t1), 35); // t1 resumes
        p.exit(rid(TASKWAIT), 36);
        p.exit(rid(FOO), 40); // and this exit to t1's foo
        p.task_end(rid(TASK_A), t1, 42);
        p.exit(rid(BARRIER), 50);
        p.finish(60);
        let s = p.snapshot(0);

        let task = &s.task_trees[0];
        assert_eq!(task.stats.visits, 2);
        // t1 ran 10..14 suspended 14(+6 create t2 window)..35 resumed 35..42
        // minus its own suspension: t1 inclusive = (20-10) + (42-35) = 17.
        // t2 inclusive = 32-20 = 12. Sum = 29.
        assert_eq!(task.stats.sum_ns, 29);
        assert_eq!(task.stats.min_ns, 12);
        assert_eq!(task.stats.max_ns, 17);
        let foo = child(task, NodeKind::Region(rid(FOO)));
        // t1's foo: entered 12, suspended 20..35, exited 40 => 13.
        // t2's foo: 22..30 => 8. Sum 21, both instances' fragments correct.
        assert_eq!(foo.stats.visits, 2);
        assert_eq!(foo.stats.sum_ns, 21);
        assert_eq!(foo.stats.min_ns, 8);
        assert_eq!(foo.stats.max_ns, 13);
        // taskwait under foo, time excludes t1's suspension: 14..20 + 35..36 = 7.
        let tw = child(foo, NodeKind::Region(rid(TASKWAIT)));
        assert_eq!(tw.stats.sum_ns, 7);

        // Implicit tree: barrier with two stub fragments for t1 (10..20,
        // 35..42) and one for t2 (20..32): stub visits 3, time 29.
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        assert_eq!(stub.stats.visits, 3);
        assert_eq!(stub.stats.sum_ns, 29);
    }

    #[test]
    fn three_instances_resumed_out_of_begin_order_keep_their_own_frames() {
        // Fig. 2 stretched to three instances that resume in the order
        // t1, t3, t2 — neither LIFO nor FIFO — so every switch has to find
        // its instance somewhere else in the table, and the instances
        // that end leave holes the remaining ones move into.
        let ids = TaskIdAllocator::new();
        let (t1, t2, t3) = (ids.alloc(), ids.alloc(), ids.alloc());
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 10);
        p.enter(rid(FOO), 11);
        p.enter(rid(TASKWAIT), 12); // t1 suspends at 20
        p.task_begin(rid(TASK_A), t2, 20);
        p.enter(rid(TASKWAIT), 23); // t2 suspends at 30
        p.task_begin(rid(TASK_A), t3, 30);
        p.enter(rid(FOO), 34);
        p.enter(rid(TASKWAIT), 36); // t3 suspends at 40
        p.task_switch(TaskRef::Explicit(t1), 40); // oldest first
        p.exit(rid(TASKWAIT), 41);
        p.exit(rid(FOO), 43);
        p.task_end(rid(TASK_A), t1, 45);
        assert_eq!(p.live_instance_trees(), 2);
        p.task_switch(TaskRef::Explicit(t3), 50); // then the youngest
        p.exit(rid(TASKWAIT), 52);
        p.exit(rid(FOO), 55);
        p.task_end(rid(TASK_A), t3, 58);
        p.task_switch(TaskRef::Explicit(t2), 60); // the middle one last
        p.exit(rid(TASKWAIT), 61);
        p.task_end(rid(TASK_A), t2, 67);
        p.exit(rid(BARRIER), 70);
        p.finish(80);
        assert!(p.diagnostics().is_empty());
        assert_eq!(p.max_live_trees(), 3);
        let s = p.snapshot(0);

        let task = &s.task_trees[0];
        // t1: 10..20 + 40..45 = 15; t2: 20..30 + 60..67 = 17;
        // t3: 30..40 + 50..58 = 18.
        assert_eq!(task.stats.visits, 3);
        assert_eq!(task.stats.sum_ns, 50);
        assert_eq!(task.stats.min_ns, 15);
        assert_eq!(task.stats.max_ns, 18);
        // foo was open in t1 (11..20 + 40..43 = 12) and t3 (34..40 +
        // 50..55 = 11); t2 never entered it.
        let foo = child(task, NodeKind::Region(rid(FOO)));
        assert_eq!(foo.stats.visits, 2);
        assert_eq!(foo.stats.sum_ns, 23);
        assert_eq!(foo.stats.min_ns, 11);
        assert_eq!(foo.stats.max_ns, 12);
        // Taskwaits under foo: t1 12..20 + 40..41 = 9, t3 36..40 + 50..52 = 6.
        let tw_in_foo = child(foo, NodeKind::Region(rid(TASKWAIT)));
        assert_eq!(tw_in_foo.stats.sum_ns, 15);
        // t2's taskwait sits directly under the task root: 23..30 + 60..61.
        let tw = child(task, NodeKind::Region(rid(TASKWAIT)));
        assert_eq!(tw.stats.visits, 1);
        assert_eq!(tw.stats.sum_ns, 8);

        // Six fragments under the barrier, mirroring the task time.
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        assert_eq!(stub.stats.visits, 6);
        assert_eq!(stub.stats.sum_ns, 50);
        s.main.walk(&mut |_, n| assert!(n.exclusive_ns() >= 0));
    }

    #[test]
    fn creation_sites_of_stolen_tasks_do_not_outlive_the_region() {
        // A task created here and executed on another thread never sees a
        // `task_begin` on this profile, which used to leave its creation
        // site behind for the life of the region.
        let ids = TaskIdAllocator::new();
        for policy in [AssignPolicy::Creating, AssignPolicy::Executing] {
            let (stolen, kept) = (ids.alloc(), ids.alloc());
            let mut creator = ThreadProfile::new(rid(PAR), 0, policy);
            let mut thief = ThreadProfile::new(rid(PAR), 0, policy);
            for id in [stolen, kept] {
                creator.task_create_begin(rid(CREATE_A), rid(TASK_A), id, 1);
                creator.task_create_end(rid(CREATE_A), id, 2);
            }
            let remembered = match policy {
                AssignPolicy::Creating => 2,
                // Nothing reads the sites, so none are kept.
                AssignPolicy::Executing => 0,
            };
            assert_eq!(creator.creation_nodes.len(), remembered);
            creator.enter(rid(BARRIER), 3);
            thief.enter(rid(BARRIER), 3);
            creator.task_begin(rid(TASK_A), kept, 4);
            assert_eq!(
                creator.creation_nodes.len(),
                remembered / 2,
                "a begun instance needs its site no longer"
            );
            creator.task_end(rid(TASK_A), kept, 6);
            thief.task_begin(rid(TASK_A), stolen, 4);
            thief.task_end(rid(TASK_A), stolen, 9);
            creator.exit(rid(BARRIER), 10);
            thief.exit(rid(BARRIER), 10);
            creator.finish(11);
            thief.finish(11);
            assert!(creator.creation_nodes.is_empty(), "{policy:?}");
            assert!(thief.creation_nodes.is_empty(), "{policy:?}");
            // The thief never saw the creation: under `Creating` the task
            // hangs under its own position instead.
            if policy == AssignPolicy::Creating {
                let s = thief.snapshot(1);
                let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
                let task = child(barrier, NodeKind::Region(rid(TASK_A)));
                assert_eq!(task.stats.sum_ns, 5);
            }
        }
    }

    #[test]
    fn finish_aborts_suspended_instances_in_id_order_whatever_the_table_order() {
        // t1 and t3 are suspended, t2 ended in between (so t3 moved into
        // its slot), and t4 is still executing when the region ends.
        let ids = TaskIdAllocator::new();
        let (t1, t2, t3, t4) = (ids.alloc(), ids.alloc(), ids.alloc(), ids.alloc());
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.enter(rid(TASKWAIT), 2);
        p.task_begin(rid(TASK_A), t2, 3);
        p.enter(rid(TASKWAIT), 4);
        p.task_begin(rid(TASK_A), t3, 5);
        p.enter(rid(FOO), 6);
        p.task_switch(TaskRef::Explicit(t2), 7);
        p.exit(rid(TASKWAIT), 8);
        p.task_end(rid(TASK_A), t2, 9);
        p.task_begin(rid(TASK_A), t4, 10);
        p.finish(20);
        assert_eq!(p.live_instance_trees(), 0);
        let d = p.diagnostics();
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d[0].contains(&format!("instance {} was still executing", t4.get())));
        assert!(d[1].contains(&format!("suspended task instance {}", t1.get())));
        assert!(d[2].contains(&format!("suspended task instance {}", t3.get())));
        let s = p.snapshot(0);
        let task = &s.task_trees[0];
        assert_eq!(task.stats.visits, 4);
        assert_eq!(task.stats.aborted, 3);
        // t1 1..3, t2 3..5 + 7..9, t3 5..7, t4 10..20; force-closing
        // resumes each suspended instance for zero time.
        assert_eq!(task.stats.sum_ns, 2 + 4 + 2 + 10);
        assert_eq!(child(task, NodeKind::Region(rid(FOO))).stats.sum_ns, 1);
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        assert_eq!(stub.stats.sum_ns, 18);
        s.main.walk(&mut |_, n| assert!(n.exclusive_ns() >= 0));
    }

    #[test]
    fn max_live_trees_tracks_suspension_depth() {
        let ids = TaskIdAllocator::new();
        let (t1, t2, t3) = (ids.alloc(), ids.alloc(), ids.alloc());
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.enter(rid(TASKWAIT), 2);
        p.task_begin(rid(TASK_A), t2, 3);
        p.enter(rid(TASKWAIT), 4);
        p.task_begin(rid(TASK_A), t3, 5);
        assert_eq!(p.live_instance_trees(), 3);
        p.task_end(rid(TASK_A), t3, 6);
        p.task_switch(TaskRef::Explicit(t2), 7);
        p.exit(rid(TASKWAIT), 8);
        p.task_end(rid(TASK_A), t2, 9);
        p.task_switch(TaskRef::Explicit(t1), 10);
        p.exit(rid(TASKWAIT), 11);
        p.task_end(rid(TASK_A), t1, 12);
        p.exit(rid(BARRIER), 13);
        p.finish(14);
        assert_eq!(p.max_live_trees(), 3);
        assert_eq!(p.live_instance_trees(), 0);
    }

    #[test]
    fn instance_nodes_are_reused_across_instances() {
        let ids = TaskIdAllocator::new();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        let mut t = 1u64;
        let mut watermark_after_first = 0;
        for k in 0..100 {
            let id = ids.alloc();
            p.task_begin(rid(TASK_A), id, t);
            p.enter(rid(FOO), t + 1);
            p.exit(rid(FOO), t + 2);
            p.task_end(rid(TASK_A), id, t + 3);
            t += 10;
            if k == 0 {
                watermark_after_first = p.arena_capacity();
            }
        }
        // Sequential instances must not grow the arena: every instance tree
        // is released and its nodes reused (paper Section V-B).
        assert_eq!(p.arena_capacity(), watermark_after_first);
        p.exit(rid(BARRIER), t);
        p.finish(t + 1);
        let s = p.snapshot(0);
        assert_eq!(s.task_trees[0].stats.visits, 100);
    }

    #[test]
    fn creating_policy_reproduces_fig3_negative_exclusive_time() {
        // Fig. 3: creation takes 2, the task runs 5 inside the barrier.
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Creating);
        p.task_create_begin(rid(CREATE_A), rid(TASK_A), t1, 2); // parallel start took 2
        p.task_create_end(rid(CREATE_A), t1, 4);
        p.enter(rid(BARRIER), 4);
        p.task_begin(rid(TASK_A), t1, 4);
        p.task_end(rid(TASK_A), t1, 9); // task ran 5
        p.exit(rid(BARRIER), 11); // 2 more waiting
        p.finish(11);
        let s = p.snapshot(0);
        // Task tree hangs under the creation node; no stub under barrier.
        assert!(s.task_trees.is_empty());
        let create = child(&s.main, NodeKind::Region(rid(CREATE_A)));
        let task = child(create, NodeKind::Region(rid(TASK_A)));
        assert_eq!(task.stats.sum_ns, 5);
        // Creation node: inclusive 2, child task 5 => exclusive -3 < 0.
        let create_exclusive = create.stats.sum_ns as i64 - task.stats.sum_ns as i64;
        assert!(create_exclusive < 0, "Fig. 3 pathology: {create_exclusive}");
        // Barrier keeps the task's 5 ns in its *exclusive* time (no stub):
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        assert_eq!(barrier.stats.sum_ns, 7);
        assert!(barrier.children.is_empty());
    }

    #[test]
    fn executing_policy_fig3_right_side_is_sane() {
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.task_create_begin(rid(CREATE_A), rid(TASK_A), t1, 2);
        p.task_create_end(rid(CREATE_A), t1, 4);
        p.enter(rid(BARRIER), 4);
        p.task_begin(rid(TASK_A), t1, 4);
        p.task_end(rid(TASK_A), t1, 9);
        p.exit(rid(BARRIER), 11);
        p.finish(11);
        let s = p.snapshot(0);
        let create = child(&s.main, NodeKind::Region(rid(CREATE_A)));
        assert_eq!(create.stats.sum_ns, 2);
        assert!(create.children.is_empty());
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        // Barrier exclusive = 7 - 5 = 2: only true waiting remains.
        assert_eq!(barrier.stats.sum_ns as i64 - stub.stats.sum_ns as i64, 2);
        assert_eq!(s.task_trees[0].stats.sum_ns, 5);
    }

    #[test]
    fn parameter_nodes_split_task_statistics() {
        // Table IV mechanism: tasks report their recursion depth.
        let ids = TaskIdAllocator::new();
        let depth = ParamId(0);
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        let mut t = 0u64;
        for (d, dur) in [(0i64, 40u64), (1, 15), (1, 25), (2, 5)] {
            let id = ids.alloc();
            p.task_begin(rid(TASK_A), id, t);
            p.parameter_begin(depth, d, t);
            p.parameter_end(depth, t + dur);
            p.task_end(rid(TASK_A), id, t + dur);
            t += dur + 5;
        }
        p.exit(rid(BARRIER), t);
        p.finish(t);
        let s = p.snapshot(0);
        let task = &s.task_trees[0];
        assert_eq!(task.stats.visits, 4);
        let d1 = child(task, NodeKind::Param(depth, 1));
        assert_eq!(d1.stats.visits, 2);
        assert_eq!(d1.stats.sum_ns, 40);
        assert_eq!(d1.stats.min_ns, 15);
        assert_eq!(d1.stats.max_ns, 25);
        let d2 = child(task, NodeKind::Param(depth, 2));
        assert_eq!(d2.stats.sum_ns, 5);
    }

    #[test]
    fn finish_with_active_instance_heals_and_diagnoses() {
        // The seed behaviour here was a panic; the measurement system must
        // never take down the application, so leftover instances are now
        // force-closed as aborted with a diagnostic.
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.task_switch(TaskRef::Implicit, 2);
        p.exit(rid(BARRIER), 3);
        p.finish(4);
        assert!(p.is_finished());
        assert_eq!(p.diagnostics().len(), 1);
        assert!(p.diagnostics()[0].contains("force-closed"), "{:?}", p.diagnostics());
        assert_eq!(p.live_instance_trees(), 0, "instance tree was released");
        let s = p.snapshot(0);
        assert_eq!(s.diagnostics, p.diagnostics());
        // The partial instance still reached the aggregate tree, tagged.
        let task = &s.task_trees[0];
        assert_eq!(task.stats.aborted, 1);
        assert_eq!(task.stats.sum_ns, 1, "ran 1..2 before suspension");
    }

    #[test]
    fn finish_while_task_current_heals_and_diagnoses() {
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.enter(rid(FOO), 2); // open inner region, never exited
        p.finish(10);
        assert_eq!(p.diagnostics().len(), 1);
        assert!(p.diagnostics()[0].contains("still executing"));
        let s = p.snapshot(0);
        let task = &s.task_trees[0];
        assert_eq!(task.stats.aborted, 1);
        assert_eq!(task.stats.sum_ns, 9, "charged up to the force-close");
        let foo = child(task, NodeKind::Region(rid(FOO)));
        assert_eq!(foo.stats.sum_ns, 8);
        // Implicit tree stayed balanced: stub closed, barrier closed.
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        assert_eq!(stub.stats.sum_ns, 9);
        s.main.walk(&mut |_, n| assert!(n.exclusive_ns() >= 0));
    }

    #[test]
    fn task_abort_closes_open_frames_and_merges_tagged() {
        // A panicking task unwinds without exit events: the abort must
        // force-close foo, tag the instance, and still merge it so the
        // measured time is not lost.
        let ids = TaskIdAllocator::new();
        let (t1, t2) = (ids.alloc(), ids.alloc());
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 10);
        p.enter(rid(FOO), 12);
        p.task_abort(rid(TASK_A), t1, 20); // panic inside foo
        p.task_begin(rid(TASK_A), t2, 25); // siblings keep running
        p.task_end(rid(TASK_A), t2, 40);
        p.exit(rid(BARRIER), 50);
        p.finish(60);
        assert!(p.diagnostics().is_empty(), "abort is not an anomaly");
        let s = p.snapshot(0);
        let task = &s.task_trees[0];
        assert_eq!(task.stats.visits, 2);
        assert_eq!(task.stats.aborted, 1, "one of two instances failed");
        assert_eq!(task.stats.sum_ns, 25, "aborted 10 ns + completed 15 ns");
        let foo = child(task, NodeKind::Region(rid(FOO)));
        assert_eq!(foo.stats.sum_ns, 8, "force-closed at the abort");
        // Stub accounting balanced: two fragments, 10 + 15 ns.
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        assert_eq!(stub.stats.visits, 2);
        assert_eq!(stub.stats.sum_ns, 25);
        s.main.walk(&mut |_, n| assert!(n.exclusive_ns() >= 0));
    }

    #[test]
    fn live_tree_cap_sheds_to_counting_only() {
        // Cap of 2: the third *concurrent* instance degrades to
        // counting-only; once trees free up, new instances profile fully.
        let ids = TaskIdAllocator::new();
        let (t1, t2, t3) = (ids.alloc(), ids.alloc(), ids.alloc());
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.set_max_live_trees(Some(2));
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.enter(rid(TASKWAIT), 2);
        p.task_begin(rid(TASK_A), t2, 3);
        p.enter(rid(TASKWAIT), 4);
        p.task_begin(rid(TASK_A), t3, 5); // cap reached: shed
        assert_eq!(p.live_instance_trees(), 2);
        assert_eq!(p.shed_instances(), 1);
        p.enter(rid(FOO), 6); // dropped (counting-only)
        p.exit(rid(FOO), 7); // dropped
        p.task_end(rid(TASK_A), t3, 8);
        p.task_switch(TaskRef::Explicit(t2), 8);
        p.exit(rid(TASKWAIT), 9);
        p.task_end(rid(TASK_A), t2, 10);
        p.task_switch(TaskRef::Explicit(t1), 10);
        p.exit(rid(TASKWAIT), 11);
        p.task_end(rid(TASK_A), t1, 12);
        // Capacity freed: the next instance gets a real tree again.
        let t4 = ids.alloc();
        p.task_begin(rid(TASK_A), t4, 13);
        p.enter(rid(FOO), 14);
        p.exit(rid(FOO), 16);
        p.task_end(rid(TASK_A), t4, 17);
        p.exit(rid(BARRIER), 20);
        p.finish(21);
        let s = p.snapshot(0);
        assert_eq!(s.shed_instances, 1);
        assert_eq!(s.max_live_trees, 2, "the cap held");
        let task = &s.task_trees[0];
        // 4 instances counted (visits), 3 sampled (shed one has no time).
        assert_eq!(task.stats.visits, 4);
        assert_eq!(task.stats.samples, 3);
        let foo = child(task, NodeKind::Region(rid(FOO)));
        assert_eq!(foo.stats.visits, 1, "shed instance's foo was dropped");
        assert_eq!(foo.stats.sum_ns, 2);
        s.main.walk(&mut |_, n| assert!(n.exclusive_ns() >= 0));
    }

    #[test]
    fn shed_instance_abort_is_counted() {
        let ids = TaskIdAllocator::new();
        let (t1, t2) = (ids.alloc(), ids.alloc());
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.set_max_live_trees(Some(1));
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.enter(rid(TASKWAIT), 2);
        p.task_begin(rid(TASK_A), t2, 3); // shed
        p.task_abort(rid(TASK_A), t2, 5); // and it panics
        p.task_switch(TaskRef::Explicit(t1), 5);
        p.exit(rid(TASKWAIT), 6);
        p.task_end(rid(TASK_A), t1, 7);
        p.exit(rid(BARRIER), 8);
        p.finish(9);
        let s = p.snapshot(0);
        assert_eq!(s.shed_instances, 1);
        let task = &s.task_trees[0];
        assert_eq!(task.stats.visits, 2);
        assert_eq!(task.stats.aborted, 1);
    }

    #[test]
    fn depth_limit_collapses_deep_recursion() {
        // A 100-deep recursion into the same region with limit 3:
        // frames 0,1,2 are real; 3.. collapse into one <truncated> node.
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.set_max_depth(Some(3));
        let mut t = 0u64;
        for _ in 0..100 {
            t += 1;
            p.enter(rid(FOO), t);
        }
        for _ in 0..100 {
            t += 1;
            p.exit(rid(FOO), t);
        }
        p.finish(t + 1);
        let s = p.snapshot(0);
        // Structure: PAR -> foo -> foo -> truncated (depth 1,2 regions +
        // one collapsed node; the parallel root occupies depth 0).
        let f1 = child(&s.main, NodeKind::Region(rid(FOO)));
        let f2 = child(f1, NodeKind::Region(rid(FOO)));
        let tr = child(f2, NodeKind::Truncated);
        assert!(tr.children.is_empty(), "nothing may nest below <truncated>");
        // 98 collapsed enters, one recorded sample (outermost truncated
        // frame): entered at t=3, last collapsed exit at t=198 → 195 ns.
        assert_eq!(tr.stats.visits, 98);
        assert_eq!(tr.stats.samples, 1);
        assert_eq!(tr.stats.sum_ns, 195);
        // The tree stayed tiny: 5 nodes instead of 101.
        assert_eq!(s.main.size(), 4);
        // No negative exclusive anywhere.
        s.main.walk(&mut |_, n| assert!(n.exclusive_ns() >= 0));
    }

    #[test]
    fn depth_limit_applies_per_task_body() {
        // Each task instance gets its own depth budget.
        let ids = TaskIdAllocator::new();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.set_max_depth(Some(2));
        p.enter(rid(BARRIER), 0);
        let id = ids.alloc();
        p.task_begin(rid(TASK_A), id, 1);
        // Task body: depth 0 is the root frame; two more enters allowed,
        // third collapses.
        p.enter(rid(FOO), 2);
        p.enter(rid(FOO), 3); // collapses (depth 2 within the task)
        p.exit(rid(FOO), 4);
        p.exit(rid(FOO), 5);
        p.task_end(rid(TASK_A), id, 6);
        p.exit(rid(BARRIER), 7);
        p.finish(8);
        let s = p.snapshot(0);
        let task = &s.task_trees[0];
        let foo = child(task, NodeKind::Region(rid(FOO)));
        assert!(foo.child(NodeKind::Truncated).is_some());
        assert!(foo.child(NodeKind::Region(rid(FOO))).is_none());
    }

    #[test]
    fn redundant_switch_to_current_task_is_a_no_op() {
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.task_switch(TaskRef::Explicit(t1), 2);
        p.task_switch(TaskRef::Explicit(t1), 3);
        p.task_end(rid(TASK_A), t1, 10);
        p.exit(rid(BARRIER), 11);
        p.finish(12);
        let s = p.snapshot(0);
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        assert_eq!(stub.stats.visits, 1);
        assert_eq!(stub.stats.sum_ns, 9);
    }
}
