//! Construction and solving of the fragment DAG.
//!
//! # The model
//!
//! The unit of the DAG is the *fragment interval*: a maximal stretch of
//! virtual time during which one thread executes one task inside one
//! innermost region frame. Every profiler hook event becomes a weight-0
//! anchor vertex; the time that elapsed since the previous event on that
//! thread becomes a weighted interval vertex between the two anchors,
//! attributed to the innermost open `Region` frame of the task that was
//! current (parameter scopes are transparent). Work and per-region work
//! are sums over interval weights.
//!
//! Two edge sets order the vertices:
//!
//! * **logical edges** — per-task program order, task-creation edges
//!   (`task_create_end` → the child's `task_begin`), taskwait joins
//!   (each outstanding child's end → the waiter's `taskwait` exit),
//!   inline joins for undeferred children (child end → the creator's
//!   next vertex), and barrier synchronization (every thread's last
//!   pre-exit vertex → every thread's barrier exit, which under the
//!   serialized simulation captures both arrival and task-drain order).
//!   The longest weighted path over these is the **span**.
//! * **schedule edges** — additionally chain consecutive vertices of the
//!   same thread, pinning every fragment to the thread that actually ran
//!   it. The longest path over logical + schedule edges is the
//!   **makespan**: the modeled runtime of the observed schedule, and the
//!   quantity the what-if engine predicts exactly under replay.
//!
//! # Undeferred creation carving
//!
//! The simulation scheduler charges its per-creation cost for an
//! *undeferred* task into the creator's currently open frame (there is no
//! `task_create` frame on that path). When [`DagOptions::undeferred_spawn_cost`]
//! is supplied, the builder carves that cost out of the interval
//! preceding the child's `task_begin` and attributes it to the
//! construct's creation region instead — so scaling a *work* region never
//! scales creation overhead, matching what a replay with scaled work
//! actually does.

use pomp::{registry, RegionId, RegionKind, TaskId, TaskRef};
use std::collections::HashMap;
use taskprof::Event;

/// Sentinel region for carved creation overhead whose construct has no
/// known creation region (no deferred instance was ever observed).
pub const SPAWN_REGION: RegionId = RegionId(u32::MAX);

/// Options for [`TaskDag::from_streams`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DagOptions {
    /// Virtual cost charged per *undeferred* task creation into the
    /// creator's open frame (the simulation scheduler's spawn cost). When
    /// known, the builder carves it into a creation-attributed vertex of
    /// its own (see the module docs); when `None` (e.g. real-clock
    /// streams) no carving happens and what-if answers for regions
    /// containing undeferred creations are estimates.
    pub undeferred_spawn_cost: Option<u64>,
}

/// A stream could not be interpreted as a well-formed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// An `exit`/`parameter_end` did not match the innermost open frame.
    UnbalancedFrame {
        /// Thread whose stream was malformed.
        thread: usize,
        /// What was being closed.
        detail: String,
    },
    /// A task was referenced (joined / create-resolved) but its
    /// counterpart event never appeared in any stream.
    MissingTask {
        /// The unresolved instance id.
        id: TaskId,
        /// Which resolution failed.
        what: &'static str,
    },
    /// The assembled graph has a cycle — the streams cannot describe one
    /// causally consistent execution.
    Cycle,
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::UnbalancedFrame { thread, detail } => {
                write!(f, "thread {thread}: unbalanced frame ({detail})")
            }
            DagError::MissingTask { id, what } => {
                write!(f, "task {}: missing {what}", id.get())
            }
            DagError::Cycle => write!(f, "event streams describe a cyclic dependency graph"),
        }
    }
}

impl std::error::Error for DagError {}

/// Which task a vertex belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum TaskKey {
    /// The implicit task of thread `tid`.
    Implicit(usize),
    /// An explicit task instance.
    Explicit(TaskId),
}

#[derive(Clone, Copy, Debug)]
enum Frame {
    Region(RegionId),
    Param,
}

#[derive(Clone, Copy, Debug)]
struct Node {
    weight: u64,
    attr: RegionId,
    thread: usize,
}

/// The assembled fragment DAG of one parallel region's run.
#[derive(Debug)]
pub struct TaskDag {
    nodes: Vec<Node>,
    /// Logical predecessors (program order, create, join, barrier).
    preds: Vec<Vec<u32>>,
    /// Additional schedule predecessors (thread order).
    sched_preds: Vec<Vec<u32>>,
    /// Topological order of the full (logical + schedule) graph — also a
    /// valid order for the logical subgraph.
    topo: Vec<u32>,
    threads: usize,
    tasks: u64,
    steals: u64,
    fragments: u64,
    /// Tasks created per creator, for starvation detection.
    creates_by: HashMap<usize, u64>,
}

/// One thread's exit from a barrier occurrence: the vertex preceding
/// the exit (if the thread did anything before it) and the exit vertex.
type BarrierExit = (Option<u32>, u32);

struct Builder {
    nodes: Vec<Node>,
    preds: Vec<Vec<u32>>,
    sched_preds: Vec<Vec<u32>>,
    frames: HashMap<TaskKey, Vec<Frame>>,
    /// Last vertex of each task's program-order chain.
    task_last: HashMap<TaskKey, u32>,
    /// Join edges waiting to attach to a task's *next* vertex (inline
    /// joins of undeferred children).
    pending_join: HashMap<TaskKey, Vec<u32>>,
    /// Children created by each task and not yet joined at a taskwait.
    children_unjoined: HashMap<TaskKey, Vec<TaskId>>,
    /// `task_create_end` vertex per deferred task.
    create_vertex: HashMap<TaskId, u32>,
    creator_thread: HashMap<TaskId, usize>,
    end_vertex: HashMap<TaskId, u32>,
    /// Undeferred child → creator (for the inline join).
    inline_parent: HashMap<TaskId, TaskKey>,
    /// Task construct region → its creation region (learned from
    /// `task_create_begin` events in the pre-pass).
    create_region_of: HashMap<RegionId, RegionId>,
    /// Tasks announced by a `task_create_begin` (deferred path).
    deferred: std::collections::HashSet<TaskId>,
    /// Unresolved cross-thread edges: (child id, target vertex).
    create_edges: Vec<(TaskId, u32)>,
    join_edges: Vec<(TaskId, u32)>,
    /// Barrier exits grouped by (barrier region, occurrence).
    barrier_exits: HashMap<(RegionId, usize), Vec<BarrierExit>>,
    barrier_count: HashMap<(usize, RegionId), usize>,
    tasks: u64,
    resumes: u64,
    creates_by: HashMap<usize, u64>,
}

impl Builder {
    fn node(&mut self, weight: u64, attr: RegionId, thread: usize) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            weight,
            attr,
            thread,
        });
        self.preds.push(Vec::new());
        self.sched_preds.push(Vec::new());
        id
    }

    fn logical_edge(&mut self, from: u32, to: u32) {
        self.preds[to as usize].push(from);
    }

    fn sched_edge(&mut self, from: u32, to: u32) {
        self.sched_preds[to as usize].push(from);
    }

    /// Attach `v` to `task`'s program-order chain (and drain any inline
    /// joins waiting for the task's next vertex).
    fn link_task(&mut self, task: TaskKey, v: u32) {
        if let Some(&last) = self.task_last.get(&task) {
            self.logical_edge(last, v);
        }
        if let Some(waiting) = self.pending_join.remove(&task) {
            for w in waiting {
                self.logical_edge(w, v);
            }
        }
        self.task_last.insert(task, v);
    }

    fn attribution(&self, task: TaskKey) -> RegionId {
        let stack = self.frames.get(&task).expect("task has a frame stack");
        stack
            .iter()
            .rev()
            .find_map(|f| match f {
                Frame::Region(r) => Some(*r),
                Frame::Param => None,
            })
            .expect("frame stack always has a base region")
    }
}

/// Per-thread walking state.
struct ThreadWalk {
    tid: usize,
    pending: u64,
    prev: Option<u32>,
}

impl ThreadWalk {
    /// Emit the accumulated interval (if any) before an event, optionally
    /// carving `carve` ns off its tail into a creation-attributed vertex.
    /// Returns the carved vertex for use as a creation-edge source.
    fn emit_interval(&mut self, b: &mut Builder, current: TaskKey, carve: Option<(u64, RegionId)>) -> Option<u32> {
        let (carve_ns, carve_attr) = match carve {
            Some((ns, attr)) => (ns.min(self.pending), attr),
            None => (0, SPAWN_REGION),
        };
        let work = self.pending - carve_ns;
        let mut carved = None;
        if work > 0 {
            let attr = b.attribution(current);
            let v = b.node(work, attr, self.tid);
            if let Some(p) = self.prev {
                b.sched_edge(p, v);
            }
            b.link_task(current, v);
            self.prev = Some(v);
        }
        if carve_ns > 0 {
            let v = b.node(carve_ns, carve_attr, self.tid);
            if let Some(p) = self.prev {
                b.sched_edge(p, v);
            }
            b.link_task(current, v);
            self.prev = Some(v);
            carved = Some(v);
        }
        self.pending = 0;
        carved
    }

    /// Weight-0 anchor vertex for an event belonging to `task`.
    fn event_vertex(&mut self, b: &mut Builder, task: TaskKey) -> u32 {
        let v = b.node(0, SPAWN_REGION, self.tid);
        if let Some(p) = self.prev {
            b.sched_edge(p, v);
        }
        b.link_task(task, v);
        self.prev = Some(v);
        v
    }
}

impl TaskDag {
    /// Build the DAG from the per-thread event streams of one parallel
    /// region (a `RegionEdges::streams` of `ProfMonitor::take_edge_log`).
    /// `parallel_region` is the region id of the parallel construct the
    /// streams cover (the implicit tasks' base attribution).
    pub fn from_streams(
        streams: &[(usize, Vec<Event>)],
        parallel_region: RegionId,
        opts: &DagOptions,
    ) -> Result<TaskDag, DagError> {
        let mut b = Builder {
            nodes: Vec::new(),
            preds: Vec::new(),
            sched_preds: Vec::new(),
            frames: HashMap::new(),
            task_last: HashMap::new(),
            pending_join: HashMap::new(),
            children_unjoined: HashMap::new(),
            create_vertex: HashMap::new(),
            creator_thread: HashMap::new(),
            end_vertex: HashMap::new(),
            inline_parent: HashMap::new(),
            create_region_of: HashMap::new(),
            deferred: std::collections::HashSet::new(),
            create_edges: Vec::new(),
            join_edges: Vec::new(),
            barrier_exits: HashMap::new(),
            barrier_count: HashMap::new(),
            tasks: 0,
            resumes: 0,
            creates_by: HashMap::new(),
        };

        // Pre-pass: learn which tasks are deferred (announced by a create
        // event) and each construct's creation region, across ALL streams —
        // a stolen task's creation lives in a different stream than its
        // execution.
        for (_, events) in streams {
            for ev in events {
                if let Event::CreateBegin {
                    create,
                    task_region,
                    id,
                } = ev
                {
                    b.deferred.insert(*id);
                    b.create_region_of.insert(*task_region, *create);
                }
            }
        }

        let mut first_thread: HashMap<TaskId, usize> = HashMap::new();
        for (tid, events) in streams {
            let tid = *tid;
            let mut w = ThreadWalk {
                tid,
                pending: 0,
                prev: None,
            };
            let mut current = TaskKey::Implicit(tid);
            b.frames
                .insert(current, vec![Frame::Region(parallel_region)]);
            for ev in events {
                match *ev {
                    Event::Advance(dt) => {
                        w.pending += dt;
                        continue;
                    }
                    Event::Enter(r) => {
                        w.emit_interval(&mut b, current, None);
                        w.event_vertex(&mut b, current);
                        b.frames.get_mut(&current).unwrap().push(Frame::Region(r));
                    }
                    Event::Exit(r) => {
                        w.emit_interval(&mut b, current, None);
                        let pre = w.prev;
                        let v = w.event_vertex(&mut b, current);
                        match b.frames.get_mut(&current).unwrap().pop() {
                            Some(Frame::Region(top)) if top == r => {}
                            other => {
                                return Err(DagError::UnbalancedFrame {
                                    thread: tid,
                                    detail: format!("exit({r:?}) over {other:?}"),
                                })
                            }
                        }
                        match registry().kind(r) {
                            RegionKind::Taskwait => {
                                for c in b.children_unjoined.remove(&current).unwrap_or_default()
                                {
                                    b.join_edges.push((c, v));
                                }
                            }
                            RegionKind::ImplicitBarrier | RegionKind::ExplicitBarrier => {
                                let k = b.barrier_count.entry((tid, r)).or_insert(0);
                                let occurrence = *k;
                                *k += 1;
                                b.barrier_exits
                                    .entry((r, occurrence))
                                    .or_default()
                                    .push((pre, v));
                            }
                            _ => {}
                        }
                    }
                    Event::CreateBegin {
                        create,
                        task_region: _,
                        id,
                    } => {
                        w.emit_interval(&mut b, current, None);
                        w.event_vertex(&mut b, current);
                        b.frames
                            .get_mut(&current)
                            .unwrap()
                            .push(Frame::Region(create));
                        b.children_unjoined.entry(current).or_default().push(id);
                        b.creator_thread.insert(id, tid);
                        *b.creates_by.entry(tid).or_insert(0) += 1;
                    }
                    Event::CreateEnd { create, id } => {
                        w.emit_interval(&mut b, current, None);
                        let v = w.event_vertex(&mut b, current);
                        match b.frames.get_mut(&current).unwrap().pop() {
                            Some(Frame::Region(top)) if top == create => {}
                            other => {
                                return Err(DagError::UnbalancedFrame {
                                    thread: tid,
                                    detail: format!("create_end({create:?}) over {other:?}"),
                                })
                            }
                        }
                        b.create_vertex.insert(id, v);
                    }
                    Event::TaskBegin { region, id } => {
                        let undeferred = !b.deferred.contains(&id);
                        let carved = if undeferred {
                            let carve = opts.undeferred_spawn_cost.map(|c| {
                                let attr = b
                                    .create_region_of
                                    .get(&region)
                                    .copied()
                                    .unwrap_or(SPAWN_REGION);
                                (c, attr)
                            });
                            let parent = current;
                            let carved = w.emit_interval(&mut b, parent, carve);
                            b.inline_parent.insert(id, parent);
                            b.children_unjoined.entry(parent).or_default().push(id);
                            b.creator_thread.insert(id, tid);
                            *b.creates_by.entry(tid).or_insert(0) += 1;
                            carved.or(b.task_last.get(&parent).copied())
                        } else {
                            w.emit_interval(&mut b, current, None);
                            None
                        };
                        let key = TaskKey::Explicit(id);
                        b.frames.insert(key, vec![Frame::Region(region)]);
                        let v = w.event_vertex(&mut b, key);
                        if undeferred {
                            if let Some(src) = carved {
                                b.logical_edge(src, v);
                            }
                        } else {
                            b.create_edges.push((id, v));
                        }
                        first_thread.insert(id, tid);
                        b.tasks += 1;
                        current = key;
                    }
                    Event::TaskEnd { region: _, id } | Event::TaskAbort { region: _, id } => {
                        let key = TaskKey::Explicit(id);
                        w.emit_interval(&mut b, key, None);
                        let v = w.event_vertex(&mut b, key);
                        b.end_vertex.insert(id, v);
                        if let Some(parent) = b.inline_parent.remove(&id) {
                            b.pending_join.entry(parent).or_default().push(v);
                        }
                        b.frames.remove(&key);
                        current = TaskKey::Implicit(tid);
                    }
                    Event::Switch(target) => {
                        w.emit_interval(&mut b, current, None);
                        let key = match target {
                            TaskRef::Implicit => TaskKey::Implicit(tid),
                            TaskRef::Explicit(id) => {
                                b.resumes += 1;
                                TaskKey::Explicit(id)
                            }
                        };
                        w.event_vertex(&mut b, key);
                        current = key;
                    }
                    Event::ParamBegin { .. } => {
                        w.emit_interval(&mut b, current, None);
                        w.event_vertex(&mut b, current);
                        b.frames.get_mut(&current).unwrap().push(Frame::Param);
                    }
                    Event::ParamEnd { param } => {
                        w.emit_interval(&mut b, current, None);
                        w.event_vertex(&mut b, current);
                        match b.frames.get_mut(&current).unwrap().pop() {
                            Some(Frame::Param) => {}
                            other => {
                                return Err(DagError::UnbalancedFrame {
                                    thread: tid,
                                    detail: format!("param_end({param:?}) over {other:?}"),
                                })
                            }
                        }
                    }
                }
            }
            // Trailing time between the last hook and thread end.
            w.emit_interval(&mut b, current, None);
        }

        // Resolve cross-thread creation edges.
        for (id, target) in std::mem::take(&mut b.create_edges) {
            let src = *b
                .create_vertex
                .get(&id)
                .ok_or(DagError::MissingTask { id, what: "creation" })?;
            b.logical_edge(src, target);
        }
        // Resolve taskwait joins.
        for (id, target) in std::mem::take(&mut b.join_edges) {
            let src = *b
                .end_vertex
                .get(&id)
                .ok_or(DagError::MissingTask { id, what: "completion" })?;
            b.logical_edge(src, target);
        }
        // Barrier synchronization: under the serialized simulation the
        // barrier releases only after every thread arrived and every
        // outstanding task completed, and everything a thread did before
        // exiting happened before the release — so every thread's last
        // pre-exit vertex precedes every thread's exit.
        for ((_, _), exits) in std::mem::take(&mut b.barrier_exits) {
            let pres: Vec<u32> = exits.iter().filter_map(|(pre, _)| *pre).collect();
            for &(_, exit) in &exits {
                for &pre in &pres {
                    b.logical_edge(pre, exit);
                }
            }
        }

        // Steal counting: a deferred task whose first fragment ran on a
        // different thread than its creator.
        let steals = first_thread
            .iter()
            .filter(|(id, tid)| b.creator_thread.get(id).is_some_and(|c| c != *tid) && b.deferred.contains(id))
            .count() as u64;

        let fragments = b.tasks + b.resumes;
        let threads = streams.len();
        let mut dag = TaskDag {
            nodes: b.nodes,
            preds: b.preds,
            sched_preds: b.sched_preds,
            topo: Vec::new(),
            threads,
            tasks: b.tasks,
            steals,
            fragments,
            creates_by: b.creates_by,
        };
        dag.topo = dag.toposort()?;
        Ok(dag)
    }

    /// Kahn's algorithm over the full (logical + schedule) graph.
    fn toposort(&self) -> Result<Vec<u32>, DagError> {
        let n = self.nodes.len();
        let mut indegree = vec![0u32; n];
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, preds) in self.preds.iter().chain(self.sched_preds.iter()).enumerate() {
            let v = v % n; // chained iterator re-runs indices 0..n twice
            for &p in preds {
                succs[p as usize].push(v as u32);
                indegree[v] += 1;
            }
        }
        let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indegree[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &s in &succs[v as usize] {
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() != n {
            return Err(DagError::Cycle);
        }
        Ok(order)
    }

    /// Longest weighted path (finish times) under the given per-vertex
    /// weights. `with_sched` adds the thread-order edges (makespan);
    /// without them the result is the logical span.
    fn solve(&self, weights: &[u64], with_sched: bool) -> (Vec<u64>, u64) {
        let mut finish = vec![0u64; self.nodes.len()];
        let mut max = 0;
        for &v in &self.topo {
            let vi = v as usize;
            let mut start = 0;
            for &p in &self.preds[vi] {
                start = start.max(finish[p as usize]);
            }
            if with_sched {
                for &p in &self.sched_preds[vi] {
                    start = start.max(finish[p as usize]);
                }
            }
            finish[vi] = start + weights[vi];
            max = max.max(finish[vi]);
        }
        (finish, max)
    }

    fn weights(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.weight).collect()
    }

    fn scaled_weights(&self, region: RegionId, speedup: u64) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| {
                if n.attr == region && n.weight > 0 {
                    n.weight / speedup
                } else {
                    n.weight
                }
            })
            .collect()
    }

    /// Total work: the sum of all interval weights.
    pub fn work_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.weight).sum()
    }

    /// Logical critical path: the longest chain through program order,
    /// creation, join, and barrier edges — the runtime on infinitely many
    /// processors.
    pub fn span_ns(&self) -> u64 {
        self.solve(&self.weights(), false).1
    }

    /// Schedule-aware makespan: the longest chain when every fragment is
    /// additionally pinned after its thread's previous fragment — the
    /// modeled runtime of the observed schedule.
    pub fn makespan_ns(&self) -> u64 {
        self.solve(&self.weights(), true).1
    }

    /// Work / span: the parallelism ceiling. 1.0 for an empty DAG.
    pub fn parallelism(&self) -> f64 {
        let span = self.span_ns();
        if span == 0 {
            1.0
        } else {
            self.work_ns() as f64 / span as f64
        }
    }

    /// Number of team threads observed.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of explicit task instances.
    pub fn tasks(&self) -> u64 {
        self.tasks
    }

    /// Deferred tasks whose first fragment ran on a thread other than
    /// their creator's.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// Task fragments: instances plus resumptions.
    pub fn fragments(&self) -> u64 {
        self.fragments
    }

    /// Work performed by each thread, indexed by position in the stream
    /// list (utilization = thread work / makespan).
    pub fn work_by_thread(&self) -> Vec<u64> {
        let mut acc = vec![0u64; self.threads];
        for n in &self.nodes {
            if n.weight > 0 && n.thread < acc.len() {
                acc[n.thread] += n.weight;
            }
        }
        acc
    }

    /// Per-region work, largest first.
    pub fn work_by_region(&self) -> Vec<(RegionId, u64)> {
        let mut acc: HashMap<RegionId, u64> = HashMap::new();
        for n in &self.nodes {
            if n.weight > 0 {
                *acc.entry(n.attr).or_insert(0) += n.weight;
            }
        }
        let mut rows: Vec<(RegionId, u64)> = acc.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Per-region time along one logical critical path (ties broken by
    /// topological order, deterministically).
    pub fn span_by_region(&self) -> Vec<(RegionId, u64)> {
        let weights = self.weights();
        let (finish, max) = self.solve(&weights, false);
        let mut acc: HashMap<RegionId, u64> = HashMap::new();
        if max > 0 {
            // Start from the smallest-index sink achieving the span.
            let mut v = (0..self.nodes.len()).find(|&v| finish[v] == max);
            while let Some(vi) = v {
                let n = &self.nodes[vi];
                if n.weight > 0 {
                    *acc.entry(n.attr).or_insert(0) += n.weight;
                }
                let need = finish[vi] - weights[vi];
                v = if need == 0 && self.preds[vi].is_empty() {
                    None
                } else {
                    self.preds[vi]
                        .iter()
                        .map(|&p| p as usize)
                        .find(|&p| finish[p] == need)
                };
                // A vertex whose start is 0 but has predecessors (all with
                // finish 0): still walk into one for determinism.
            }
        }
        let mut rows: Vec<(RegionId, u64)> = acc.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Tasks created per creator thread (for starvation detection).
    pub(crate) fn creates_by_thread(&self) -> &HashMap<usize, u64> {
        &self.creates_by
    }

    /// Answer "if `region` were `speedup`× faster, what would the
    /// runtime be?" by re-solving the DAG with every `region`-attributed
    /// fragment's weight divided by `speedup`.
    ///
    /// `predicted_makespan_ns` is the schedule-aware answer — the number
    /// a deterministic replay with the region actually sped up reproduces
    /// exactly (when every affected fragment weight is divisible by
    /// `speedup`); `predicted_span_ns` is the logical lower bound no
    /// schedule could beat.
    pub fn what_if(&self, region: RegionId, speedup: u64) -> crate::WhatIfPrediction {
        assert!(speedup >= 1, "speedup factor must be >= 1");
        let scaled = self.scaled_weights(region, speedup);
        let (_, makespan) = self.solve(&scaled, true);
        let (_, span) = self.solve(&scaled, false);
        crate::WhatIfPrediction {
            region,
            speedup,
            baseline_makespan_ns: self.makespan_ns(),
            predicted_makespan_ns: makespan,
            predicted_span_ns: span,
        }
    }

    /// Sum of weights currently attributed to `region`.
    pub fn region_work_ns(&self, region: RegionId) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.attr == region)
            .map(|n| n.weight)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionKind, TaskIdAllocator};

    fn region(name: &str, kind: RegionKind) -> RegionId {
        registry().register(name, kind, file!(), line!())
    }

    /// Single thread, one deferred task executed at a taskwait:
    ///   implicit: 10ns work, create (40ns), taskwait { task: 25ns }, 5ns.
    fn one_thread_stream() -> (Vec<(usize, Vec<Event>)>, RegionId, RegionId, RegionId) {
        let par = region("dag-par", RegionKind::Parallel);
        let task = region("dag-task", RegionKind::Task);
        let create = region("dag-create", RegionKind::TaskCreate);
        let tw = region("dag-tw", RegionKind::Taskwait);
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let events = vec![
            Event::Advance(10),
            Event::CreateBegin {
                create,
                task_region: task,
                id,
            },
            Event::Advance(40),
            Event::CreateEnd { create, id },
            Event::Enter(tw),
            Event::TaskBegin { region: task, id },
            Event::Advance(25),
            Event::TaskEnd { region: task, id },
            Event::Exit(tw),
            Event::Advance(5),
        ];
        (vec![(0, events)], par, task, create)
    }

    #[test]
    fn single_thread_work_equals_span_equals_makespan() {
        let (streams, par, task, create) = one_thread_stream();
        let dag = TaskDag::from_streams(&streams, par, &DagOptions::default()).unwrap();
        assert_eq!(dag.work_ns(), 80);
        assert_eq!(dag.span_ns(), 80, "serial chain: span = work");
        assert_eq!(dag.makespan_ns(), 80);
        assert!((dag.parallelism() - 1.0).abs() < 1e-9);
        assert_eq!(dag.tasks(), 1);
        assert_eq!(dag.steals(), 0);
        assert_eq!(dag.region_work_ns(task), 25);
        assert_eq!(dag.region_work_ns(create), 40);
        assert_eq!(dag.region_work_ns(par), 15);
    }

    #[test]
    fn what_if_scales_only_the_target_region() {
        let (streams, par, task, create) = one_thread_stream();
        let dag = TaskDag::from_streams(&streams, par, &DagOptions::default()).unwrap();
        let p = dag.what_if(task, 5);
        assert_eq!(p.baseline_makespan_ns, 80);
        assert_eq!(p.predicted_makespan_ns, 80 - 25 + 5);
        let p = dag.what_if(create, 2);
        assert_eq!(p.predicted_makespan_ns, 80 - 20);
        let p = dag.what_if(task, 1);
        assert_eq!(p.predicted_makespan_ns, 80, "1x speedup is the identity");
    }

    #[test]
    fn stolen_task_overlaps_in_span_but_not_makespan() {
        // Thread 0 creates a task (40ns) then works 100ns; thread 1 steals
        // it and runs it for 60ns inside its barrier wait.
        let par = region("dag2-par", RegionKind::Parallel);
        let task = region("dag2-task", RegionKind::Task);
        let create = region("dag2-create", RegionKind::TaskCreate);
        let bar = region("dag2-bar", RegionKind::ImplicitBarrier);
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let s0 = vec![
            Event::CreateBegin {
                create,
                task_region: task,
                id,
            },
            Event::Advance(40),
            Event::CreateEnd { create, id },
            Event::Advance(100),
            Event::Enter(bar),
            Event::Exit(bar),
        ];
        let s1 = vec![
            Event::Enter(bar),
            Event::TaskBegin { region: task, id },
            Event::Advance(60),
            Event::TaskEnd { region: task, id },
            Event::Exit(bar),
        ];
        let dag =
            TaskDag::from_streams(&[(0, s0), (1, s1)], par, &DagOptions::default()).unwrap();
        assert_eq!(dag.work_ns(), 200);
        // Span: create(40) → task(60) → barrier vs create(40) → work(100)
        // → barrier: 140.
        assert_eq!(dag.span_ns(), 140);
        assert_eq!(dag.makespan_ns(), 140);
        assert_eq!(dag.steals(), 1);
        assert!(dag.parallelism() > 1.0);
        // Speeding up the task 60/6=10: span becomes the 140 chain still
        // (work chain dominates).
        let p = dag.what_if(task, 6);
        assert_eq!(p.predicted_makespan_ns, 140);
    }

    #[test]
    fn undeferred_carving_attributes_spawn_cost_to_create() {
        // Implicit task works 30, then runs an undeferred child (spawn
        // cost 40 charged into the open frame before task_begin).
        let par = region("dag3-par", RegionKind::Parallel);
        let task = region("dag3-task", RegionKind::Task);
        let create = region("dag3-create", RegionKind::TaskCreate);
        let ids = TaskIdAllocator::new();
        // Learn the construct's create region from a deferred sibling.
        let deferred_id = ids.alloc();
        let inline_id = ids.alloc();
        let bar = region("dag3-bar", RegionKind::ImplicitBarrier);
        let s0 = vec![
            Event::CreateBegin {
                create,
                task_region: task,
                id: deferred_id,
            },
            Event::Advance(40),
            Event::CreateEnd {
                create,
                id: deferred_id,
            },
            Event::Advance(70), // 30 work + 40 undeferred spawn cost
            Event::TaskBegin {
                region: task,
                id: inline_id,
            },
            Event::Advance(25),
            Event::TaskEnd {
                region: task,
                id: inline_id,
            },
            Event::Enter(bar),
            Event::TaskBegin {
                region: task,
                id: deferred_id,
            },
            Event::Advance(25),
            Event::TaskEnd {
                region: task,
                id: deferred_id,
            },
            Event::Exit(bar),
        ];
        let streams = vec![(0, s0)];
        let carved = TaskDag::from_streams(
            &streams,
            par,
            &DagOptions {
                undeferred_spawn_cost: Some(40),
            },
        )
        .unwrap();
        // 40 (deferred create) + 40 (carved undeferred) to the create
        // region; 30 work to the parallel region; 50 to the task region.
        assert_eq!(carved.region_work_ns(create), 80);
        assert_eq!(carved.region_work_ns(par), 30);
        assert_eq!(carved.region_work_ns(task), 50);
        // Without carving, the spawn cost pollutes the parallel region.
        let uncarved = TaskDag::from_streams(&streams, par, &DagOptions::default()).unwrap();
        assert_eq!(uncarved.region_work_ns(create), 40);
        assert_eq!(uncarved.region_work_ns(par), 70);
    }

    #[test]
    fn taskwait_join_orders_children_before_continuation() {
        // Two deferred children run on thread 1 while thread 0 waits; the
        // waiter's post-taskwait work must start after both children.
        let par = region("dag4-par", RegionKind::Parallel);
        let task = region("dag4-task", RegionKind::Task);
        let create = region("dag4-create", RegionKind::TaskCreate);
        let tw = region("dag4-tw", RegionKind::Taskwait);
        let bar = region("dag4-bar", RegionKind::ImplicitBarrier);
        let ids = TaskIdAllocator::new();
        let (a, c) = (ids.alloc(), ids.alloc());
        let s0 = vec![
            Event::CreateBegin {
                create,
                task_region: task,
                id: a,
            },
            Event::Advance(10),
            Event::CreateEnd { create, id: a },
            Event::CreateBegin {
                create,
                task_region: task,
                id: c,
            },
            Event::Advance(10),
            Event::CreateEnd { create, id: c },
            Event::Enter(tw),
            Event::Exit(tw),
            Event::Advance(7),
            Event::Enter(bar),
            Event::Exit(bar),
        ];
        let s1 = vec![
            Event::Enter(bar),
            Event::TaskBegin { region: task, id: a },
            Event::Advance(100),
            Event::TaskEnd { region: task, id: a },
            Event::TaskBegin { region: task, id: c },
            Event::Advance(50),
            Event::TaskEnd { region: task, id: c },
            Event::Exit(bar),
        ];
        let dag =
            TaskDag::from_streams(&[(0, s0), (1, s1)], par, &DagOptions::default()).unwrap();
        // Logical span: create a (10) → a (100) → taskwait exit → 7 = 117
        // (a does not depend on c's creation; c's chain 10+10+50+7 is
        // shorter).
        assert_eq!(dag.span_ns(), 117);
        // Makespan serializes a and c on thread 1: a starts at 10, ends
        // 110; c ends 160; the post-taskwait 7ns waits for both children:
        // 160 + 7 = 167.
        assert_eq!(dag.makespan_ns(), 167);
        assert_eq!(dag.work_ns(), 177);
    }

    #[test]
    fn missing_creation_is_a_typed_error() {
        let par = region("dag5-par", RegionKind::Parallel);
        let task = region("dag5-task", RegionKind::Task);
        let create = region("dag5-create", RegionKind::TaskCreate);
        let ids = TaskIdAllocator::new();
        let (a, ghost) = (ids.alloc(), ids.alloc());
        // `a` is announced but the taskwait joins `ghost`, which never ends.
        let tw = region("dag5-tw", RegionKind::Taskwait);
        let s0 = vec![
            Event::CreateBegin {
                create,
                task_region: task,
                id: a,
            },
            Event::CreateEnd { create, id: a },
            Event::CreateBegin {
                create,
                task_region: task,
                id: ghost,
            },
            Event::CreateEnd { create, id: ghost },
            Event::Enter(tw),
            Event::TaskBegin { region: task, id: a },
            Event::TaskEnd { region: task, id: a },
            Event::Exit(tw),
        ];
        let err = TaskDag::from_streams(&[(0, s0)], par, &DagOptions::default()).unwrap_err();
        assert!(matches!(err, DagError::MissingTask { what: "completion", .. }));
        assert!(err.to_string().contains("missing completion"), "{err}");
    }

    #[test]
    fn unbalanced_exit_is_a_typed_error() {
        let par = region("dag6-par", RegionKind::Parallel);
        let r = region("dag6-r", RegionKind::Function);
        let s0 = vec![Event::Exit(r)];
        let err = TaskDag::from_streams(&[(0, s0)], par, &DagOptions::default()).unwrap_err();
        assert!(matches!(err, DagError::UnbalancedFrame { thread: 0, .. }), "{err:?}");
    }
}
