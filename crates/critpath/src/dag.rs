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
//! # Storage
//!
//! Everything is addressed by index; nothing is allocated or hashed per
//! vertex, and nothing is allocated per task. The walk keeps one table of
//! [`Task`]s (implicit tasks included) with the current task an index
//! into it; the one `TaskId` map is consulted only where an event *names*
//! a task. A task's unjoined children and the undeferred children whose
//! ends wait for its next vertex are lists threaded through the table
//! ([`Chain`]). A vertex is 16 bytes and carries its program-order
//! predecessor, the one logical edge almost every vertex has; the others
//! go to one `(to, from)` list as they are found and are bucketed,
//! stably, into compressed rows ([`Csr`]), so each vertex keeps its
//! predecessors in discovery order (the order the critical-path walk
//! breaks ties in). Streams are walked one after another, so schedule
//! edges are not stored: the schedule predecessor of `v` is `v - 1`
//! unless `v` opens a stream. Regions are interned, which makes every
//! per-region fold an array sum.
//!
//! # Order
//!
//! Vertices are appended, so a program-order or schedule predecessor
//! always has the smaller index, and each stream is in order as it
//! stands. Only a vertex with a predecessor outside the stretch of its
//! own stream before it can be held back; the walk lists those *blocked*
//! vertices as it makes them (debug builds check that none is missed).
//! The topological order the solver follows is a list of index runs: the
//! streams are merged from a queue, each advancing to its first blocked
//! vertex with a predecessor not yet placed, then waiting off the queue
//! until the stream that holds that predecessor has placed it. One
//! stream, or streams whose cross-stream edges all point forward, give
//! the single run `[0, n)`; streams left waiting when the queue empties
//! are a cycle. Finish times do not depend on which topological order is
//! followed.
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
//!
//! # Readers
//!
//! The walk that builds the DAG is the one pass over a region's streams,
//! decoding their packed words as it reads them. A [`Reader`] rides along
//! and sees every event once, after the walk has accepted it, together
//! with what the walk resolved for it — the task's table index and the
//! region's memoised kind. [`TaskDag::from_streams`] reads nothing more
//! (`()`); the trace analysis (`crate::analysis`) is the second reader.

use pomp::{registry, RegionId, RegionKind, TaskId, TaskRef};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;
use taskprof::{EdgeStream, Event};

/// Sentinel region for carved creation overhead whose construct has no
/// known creation region (no deferred instance was ever observed).
pub const SPAWN_REGION: RegionId = RegionId(u32::MAX);

/// "No vertex / task / region" in the `u32` index fields.
const NONE: u32 = u32::MAX;

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
    /// An `exit`/`parameter_end` did not match the innermost open frame,
    /// or time passed on a task with no region frame open.
    UnbalancedFrame {
        /// Thread whose stream was malformed.
        thread: usize,
        /// What was being closed.
        detail: String,
    },
    /// A task was referenced but its counterpart event never appeared in
    /// any stream: joined without a `"completion"`, begun deferred
    /// without a `"creation"`, or worked on (time, enter, exit) outside
    /// its `"begin"` … end.
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

/// Task and region ids are small integers the recorder handed out
/// itself, not keys an outsider chose: one multiply spreads them, and the
/// rotate brings the well-mixed high bits down to where the table takes
/// its bucket index from.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes
            .iter()
            .for_each(|&byte| self.write_u64(u64::from(byte)));
    }
    fn write_u32(&mut self, id: u32) {
        self.write_u64(u64::from(id));
    }
    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(pomp::GOLDEN_GAMMA);
    }
    fn write_usize(&mut self, id: usize) {
        self.write_u64(id as u64);
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Id → index into the table that holds everything known about the id.
type IdMap<K> = HashMap<K, u32, BuildHasherDefault<IdHasher>>;

#[derive(Clone, Copy, Debug)]
enum Frame {
    /// An open region and its index in the region table.
    Region(RegionId, u32),
    Param,
}

type FrameStack = Vec<Frame>;

/// Set in `Node::attr` of the first vertex of each stream: the one vertex
/// of its thread without a schedule predecessor.
const OPENS_STREAM: u32 = 1 << 31;

/// 16 bytes: the solver streams over these.
#[derive(Clone, Copy, Debug)]
struct Node {
    weight: u64,
    /// Index into [`TaskDag::regions`] (meaningless on weight-0 anchors),
    /// and the `OPENS_STREAM` bit.
    attr: u32,
    /// The previous vertex of the same task, or `NONE`: the first of the
    /// vertex's logical predecessors.
    prog: u32,
}

impl Node {
    fn region(&self) -> u32 {
        self.attr & !OPENS_STREAM
    }

    /// Streams are walked one after another and every vertex chains to
    /// the previous one of its thread, so the schedule predecessor of
    /// vertex `v` is `v - 1` unless `v` opens a stream.
    fn chained(&self) -> bool {
        self.attr & OPENS_STREAM == 0
    }
}

/// Adjacency in compressed rows: the neighbours of `v` are
/// `items[start[v]..start[v + 1]]`.
#[derive(Debug)]
struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Bucket `(row, item)` pairs by row, keeping each row's items in the
    /// order the pairs come (a counting sort). `start[row + 1]` is the
    /// row's fill cursor, from its first slot to its last, which is where
    /// the next row begins.
    fn bucket(rows: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut start = vec![0u32; rows + 1];
        for &(row, _) in pairs {
            start[row as usize + 1] += 1;
        }
        let mut first = 0;
        for slot in &mut start[1..] {
            (*slot, first) = (first, first + *slot);
        }
        let mut items = vec![0u32; pairs.len()];
        for &(row, item) in pairs {
            let cursor = &mut start[row as usize + 1];
            items[*cursor as usize] = item;
            *cursor += 1;
        }
        Csr { start, items }
    }

    fn row(&self, v: usize) -> &[u32] {
        &self.items[self.start[v] as usize..self.start[v + 1] as usize]
    }

    fn rows(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.start.len() - 1).map(|row| self.row(row))
    }
}

/// The assembled fragment DAG of one parallel region's run.
#[derive(Debug)]
pub struct TaskDag {
    nodes: Vec<Node>,
    /// Logical predecessors after `Node::prog` (inline join, create, join,
    /// barrier), each row in discovery order.
    joins: Csr,
    /// Topological order of the full (logical + schedule) graph — also a
    /// valid order for the logical subgraph — as `[start, end)` index
    /// runs (see the module docs).
    runs: Vec<(u32, u32)>,
    /// The regions work is attributed to; `Node::attr` indexes this.
    regions: Vec<RegionId>,
    /// Longest path over logical + schedule edges, solved once, when
    /// first asked for.
    makespan_ns: OnceLock<u64>,
    tasks: u64,
    steals: u64,
    fragments: u64,
    /// Tasks created and work done by each thread, by stream position.
    creates_by: Vec<u64>,
    work_by_thread: Vec<u64>,
}

/// Everything the builder knows about one task — a thread's implicit
/// task or an explicit instance. Indices are `NONE` until learned.
struct Task {
    /// `None` for an implicit task.
    id: Option<TaskId>,
    /// Open frames, innermost last: `Some` from `task_begin` to
    /// `task_end` (always, for an implicit task).
    frames: Option<FrameStack>,
    /// Last vertex of the task's program-order chain.
    last: u32,
    /// By [`Chain`]: the list of children the task owns.
    lists: [List; 2],
    /// By [`Chain`]: the next task on the list this task is on, `NONE`
    /// at its tail, `UNLISTED` on none.
    next: [u32; 2],
    /// `task_create_end` vertex (deferred tasks) and end vertex: the
    /// first of each, so an edge resolved after the walk leaves the vertex
    /// the walk saw.
    create_vertex: u32,
    end_vertex: u32,
    /// Threads (stream positions) that created and first ran the task.
    creator: u32,
    first: u32,
    /// Creator of an undeferred task, until the inline join is queued.
    inline_parent: u32,
    /// Announced by a `task_create_begin`.
    deferred: bool,
}

impl Task {
    fn new(id: Option<TaskId>, frames: Option<FrameStack>) -> Task {
        Task {
            id,
            frames,
            last: NONE,
            lists: [List::EMPTY; 2],
            next: [UNLISTED; 2],
            create_vertex: NONE,
            end_vertex: NONE,
            creator: NONE,
            first: NONE,
            inline_parent: NONE,
            deferred: false,
        }
    }

    fn missing(&self, what: &'static str) -> DagError {
        let id = self
            .id
            .expect("only explicit tasks lack a begin, a creation or an end");
        DagError::MissingTask { id, what }
    }
}

/// The lists threaded through the task table, each owned by a parent.
#[derive(Clone, Copy)]
enum Chain {
    /// Children created and not yet joined at a taskwait.
    Unjoined,
    /// Undeferred children whose ends join the parent's *next* vertex.
    Pending,
}

/// A list's first and last task, `NONE` when empty.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NONE,
        tail: NONE,
    };
}

/// `Task::next` of a task on no list of that chain.
const UNLISTED: u32 = NONE - 1;

/// An interned region.
struct Region {
    id: RegionId,
    /// Memo of `registry().kind(id)`, filled the first time it is asked
    /// for (at the region's first exit, or first enter if a reader asks).
    kind: Option<RegionKind>,
    /// For a task construct: its creation region, learned from
    /// `task_create_begin` events in the pre-pass.
    create: u32,
}

impl Region {
    fn kind(&mut self) -> RegionKind {
        *self.kind.get_or_insert_with(|| registry().kind(self.id))
    }
}

/// A second consumer of the builder's walk (see the module docs).
pub(crate) trait Reader {
    /// The walk enters a stream whose clock starts at `origin`.
    fn stream(&mut self, _origin: u64) {}

    /// `ev`, once the walk has accepted it. `task` is the table index of
    /// the task the event names — the current task for an event that
    /// names none — and `kind` the kind of the region an `Enter` or `Exit`
    /// names (not to be called for any other event).
    fn read(&mut self, _ev: &Event, _task: usize, _kind: impl FnOnce() -> RegionKind) {}
}

/// The DAG alone.
impl Reader for () {}

#[derive(Default)]
pub(crate) struct Builder {
    nodes: Vec<Node>,
    /// Logical edges beyond program order as `(to, from)`, in discovery
    /// order.
    edges: Vec<(u32, u32)>,
    /// The stream being walked: its thread id, its first vertex, and the
    /// time that has passed since its last vertex.
    tid: usize,
    stream_start: u32,
    pending: u64,
    /// First vertex of each stream.
    starts: Vec<u32>,
    /// Vertices that may wait for one outside the stretch of their own
    /// stream before them, ascending (see the module docs).
    blocked: Vec<u32>,
    tasks: Vec<Task>,
    /// The one lookup keyed by `TaskId`, consulted only where an event
    /// names a task.
    task_index: IdMap<TaskId>,
    regions: Vec<Region>,
    region_index: IdMap<RegionId>,
    /// Frame stacks of ended tasks, for the next `task_begin`.
    spare_frames: Vec<FrameStack>,
    /// Unresolved cross-thread edges: (child task, target vertex).
    create_edges: Vec<(u32, u32)>,
    join_edges: Vec<(u32, u32)>,
    /// Barrier exits as `(occurrence, exit vertex)`; an occurrence is a
    /// (barrier region, per-thread count) pair, numbered as first met.
    barrier_exits: Vec<(u32, u32)>,
    barrier_occurrences: IdMap<(RegionId, u32)>,
    barrier_count: IdMap<(usize, RegionId)>,
    begun: u64,
    resumes: u64,
    /// Tasks created and work done by each thread, by stream position.
    creates_by: Vec<u64>,
    work_by_thread: Vec<u64>,
}

impl Builder {
    /// Append a vertex to `task`'s program-order chain, along with any
    /// inline joins that waited for the task's next vertex.
    fn vertex(&mut self, task: usize, weight: u64, attr: u32) -> u32 {
        let v = self.nodes.len() as u32;
        let prog = std::mem::replace(&mut self.tasks[task].last, v);
        let attr = if v == self.stream_start {
            attr | OPENS_STREAM
        } else {
            attr
        };
        self.nodes.push(Node { weight, attr, prog });
        if prog < self.stream_start {
            self.block(v);
        }
        while let Some(child) = self.pop(Chain::Pending, task) {
            self.edge(v, self.tasks[child].end_vertex);
        }
        v
    }

    /// A logical edge into the newest vertex `to` from an older one.
    fn edge(&mut self, to: u32, from: u32) {
        self.edges.push((to, from));
        if from < self.stream_start {
            self.block(to);
        }
    }

    /// Mark the newest vertex `v` as blocked.
    fn block(&mut self, v: u32) {
        if self.blocked.last() != Some(&v) {
            self.blocked.push(v);
        }
    }

    /// Append `child` to `owner`'s list of `chain`. A task already on a
    /// list of that chain stays where it is, so an event doubled in a
    /// damaged stream cannot close a list into a loop.
    fn append(&mut self, chain: Chain, owner: usize, child: usize) {
        let c = chain as usize;
        if self.tasks[child].next[c] != UNLISTED {
            return;
        }
        self.tasks[child].next[c] = NONE;
        let list = &mut self.tasks[owner].lists[c];
        match std::mem::replace(&mut list.tail, child as u32) {
            NONE => list.head = child as u32,
            tail => self.tasks[tail as usize].next[c] = child as u32,
        }
    }

    /// Take the first task off `owner`'s list of `chain`.
    fn pop(&mut self, chain: Chain, owner: usize) -> Option<usize> {
        let c = chain as usize;
        let head = self.tasks[owner].lists[c].head;
        if head == NONE {
            return None;
        }
        let next = std::mem::replace(&mut self.tasks[head as usize].next[c], UNLISTED);
        let list = &mut self.tasks[owner].lists[c];
        list.head = next;
        if next == NONE {
            list.tail = NONE;
        }
        Some(head as usize)
    }

    /// Weight-0 anchor vertex for an event belonging to `task`.
    fn anchor(&mut self, task: usize) -> u32 {
        self.vertex(task, 0, 0)
    }

    /// The table index of explicit task `id`, entered on first mention.
    fn task(&mut self, id: TaskId) -> usize {
        let next = self.tasks.len() as u32;
        let index = *self.task_index.entry(id).or_insert(next);
        if index == next {
            self.tasks.push(Task::new(Some(id), None));
        }
        index as usize
    }

    fn region(&mut self, id: RegionId) -> u32 {
        let next = self.regions.len() as u32;
        let index = *self.region_index.entry(id).or_insert(next);
        if index == next {
            let (kind, create) = (None, NONE);
            self.regions.push(Region { id, kind, create });
        }
        index
    }

    /// The one place a frame stack is read: a task outside its begin …
    /// end has none.
    fn frames(&mut self, task: usize) -> Result<&mut FrameStack, DagError> {
        let task = &mut self.tasks[task];
        match task.frames {
            Some(ref mut frames) => Ok(frames),
            None => Err(task.missing("begin")),
        }
    }

    /// Open a frame of `region` on `task`; returns the region's index.
    fn open(&mut self, task: usize, region: RegionId) -> Result<u32, DagError> {
        let index = self.region(region);
        self.frames(task)?.push(Frame::Region(region, index));
        Ok(index)
    }

    /// Close `task`'s innermost frame, which must be region `closes` (a
    /// parameter scope for `None`); returns the region's index.
    fn close(
        &mut self,
        task: usize,
        closes: Option<RegionId>,
        ev: &Event,
    ) -> Result<u32, DagError> {
        match self.frames(task)?.pop() {
            Some(Frame::Region(open, index)) if Some(open) == closes => Ok(index),
            Some(Frame::Param) if closes.is_none() => Ok(NONE),
            open => Err(self.unbalanced(format!("{ev:?} over {open:?}"))),
        }
    }

    fn unbalanced(&self, detail: String) -> DagError {
        DagError::UnbalancedFrame {
            thread: self.tid,
            detail,
        }
    }

    /// The innermost open region of `task`: parameter scopes are
    /// transparent.
    fn attribution(&mut self, task: usize) -> Result<u32, DagError> {
        let innermost = self.frames(task)?.iter().rev().find_map(|f| match f {
            Frame::Region(_, index) => Some(*index),
            Frame::Param => None,
        });
        innermost.ok_or_else(|| self.unbalanced("time passed with no region open".to_string()))
    }

    /// Emit the pending interval (if any) before an event, as `task`'s,
    /// optionally carving `carve` ns off its tail into a vertex attributed
    /// to the given region. Returns the carved vertex for use as a
    /// creation-edge source.
    fn interval(
        &mut self,
        task: usize,
        carve: Option<(u64, u32)>,
    ) -> Result<Option<u32>, DagError> {
        let (carve_ns, carve_attr) = match carve {
            Some((ns, attr)) => (ns.min(self.pending), attr),
            None => (0, NONE),
        };
        let work = std::mem::take(&mut self.pending) - carve_ns;
        if work > 0 {
            let attr = self.attribution(task)?;
            self.vertex(task, work, attr);
        }
        Ok((carve_ns > 0).then(|| self.vertex(task, carve_ns, carve_attr)))
    }
}

/// Every event of `streams`, decoded inside each stream's own loop.
fn each_event(streams: &[(usize, EdgeStream)], mut f: impl FnMut(Event)) {
    streams
        .iter()
        .for_each(|(_, stream)| stream.events().for_each(&mut f));
}

/// Work / span: 1.0 for an empty DAG.
pub(crate) fn parallelism(work_ns: u64, span_ns: u64) -> f64 {
    match span_ns {
        0 => 1.0,
        span => work_ns as f64 / span as f64,
    }
}

impl Builder {
    /// The walk: the vertices and edges of one parallel region's
    /// per-thread streams, with `reader` fed every event the walk accepts.
    /// `parallel_region` is the implicit tasks' base attribution.
    pub(crate) fn walk(
        streams: &[(usize, EdgeStream)],
        parallel_region: RegionId,
        opts: &DagOptions,
        reader: &mut impl Reader,
    ) -> Result<Builder, DagError> {
        let mut b = Builder::default();
        let parallel = Frame::Region(parallel_region, b.region(parallel_region));

        // One decode before the walk, across ALL streams — a stolen task's
        // creation lives in a different stream than its execution. It
        // counts the vertices to come (at most one per event — an anchor
        // per hook, an interval per advance — and one more per begin when
        // creations are carved), so each array is allocated once, at its
        // size; and it learns which tasks are deferred (announced by a
        // create event) and each construct's creation region. The deferred
        // ids wait in a list until the task table and its map are sized.
        // (`for_each` keeps the decoder's loop inside each stream.)
        let (mut events, mut begins, mut deferred) = (0, 0, Vec::new());
        each_event(streams, |ev| {
            events += 1;
            match ev {
                Event::TaskBegin { .. } => begins += 1,
                Event::CreateBegin {
                    create,
                    task_region,
                    id,
                } => {
                    deferred.push(id);
                    let (create, task_region) = (b.region(create), b.region(task_region));
                    b.regions[task_region as usize].create = create;
                }
                _ => {}
            }
        });
        b.tasks.reserve_exact(begins + streams.len());
        b.task_index.reserve(begins);
        for id in deferred {
            let task = b.task(id);
            b.tasks[task].deferred = true;
        }
        let carved = if opts.undeferred_spawn_cost.is_some() {
            begins
        } else {
            0
        };
        b.nodes.reserve_exact(events + carved);

        b.starts.reserve_exact(streams.len());
        b.creates_by.reserve_exact(streams.len());
        b.work_by_thread.reserve_exact(streams.len());
        for (position, (tid, stream)) in streams.iter().enumerate() {
            reader.stream(stream.origin());
            let thread = position as u32;
            (b.tid, b.stream_start) = (*tid, b.nodes.len() as u32);
            b.starts.push(b.stream_start);
            let implicit = b.tasks.len();
            b.tasks.push(Task::new(None, Some(vec![parallel])));
            let (mut current, mut creates) = (implicit, 0);
            // The child the open create frame announced, for its end.
            let mut creating: Option<(TaskId, usize)> = None;
            for ev in stream.events() {
                // The task the event names and the region it opens or
                // closes, for the reader.
                let (task, region) = match ev {
                    Event::Advance(dt) => {
                        b.pending += dt;
                        (current, NONE)
                    }
                    Event::Enter(r) => {
                        b.interval(current, None)?;
                        b.anchor(current);
                        (current, b.open(current, r)?)
                    }
                    Event::Exit(r) => {
                        b.interval(current, None)?;
                        let v = b.anchor(current);
                        let region = b.close(current, Some(r), &ev)?;
                        match b.regions[region as usize].kind() {
                            RegionKind::Taskwait => {
                                // Resolved after the walk; `v` is blocked unless
                                // every child ended earlier on this stream.
                                let mut wait = false;
                                while let Some(child) = b.pop(Chain::Unjoined, current) {
                                    b.join_edges.push((child as u32, v));
                                    wait |=
                                        !(b.stream_start..v).contains(&b.tasks[child].end_vertex);
                                }
                                if wait {
                                    b.block(v);
                                }
                            }
                            RegionKind::ImplicitBarrier | RegionKind::ExplicitBarrier => {
                                let k = b.barrier_count.entry((b.tid, r)).or_insert(0);
                                let occurrence = *k;
                                *k += 1;
                                let next = b.barrier_occurrences.len() as u32;
                                let at =
                                    *b.barrier_occurrences.entry((r, occurrence)).or_insert(next);
                                b.barrier_exits.push((at, v));
                                // Every other thread's pre-exit vertex joins it.
                                if streams.len() > 1 {
                                    b.block(v);
                                }
                            }
                            _ => {}
                        }
                        (current, region)
                    }
                    Event::CreateBegin {
                        create,
                        task_region: _,
                        id,
                    } => {
                        b.interval(current, None)?;
                        b.anchor(current);
                        b.open(current, create)?;
                        let child = b.task(id);
                        b.tasks[child].creator = thread;
                        b.append(Chain::Unjoined, current, child);
                        creating = Some((id, child));
                        creates += 1;
                        (child, NONE)
                    }
                    Event::CreateEnd { create, id } => {
                        b.interval(current, None)?;
                        let v = b.anchor(current);
                        b.close(current, Some(create), &ev)?;
                        let child = match creating.take() {
                            Some((announced, child)) if announced == id => child,
                            _ => b.task(id),
                        };
                        let child_vertex = &mut b.tasks[child].create_vertex;
                        if *child_vertex == NONE {
                            *child_vertex = v;
                        }
                        (child, NONE)
                    }
                    Event::TaskBegin { region, id } => {
                        let task = b.task(id);
                        let construct = b.region(region);
                        let undeferred = !b.tasks[task].deferred;
                        let carve = opts.undeferred_spawn_cost.filter(|_| undeferred);
                        let carve = carve.map(|cost| match b.regions[construct as usize].create {
                            NONE => (cost, b.region(SPAWN_REGION)),
                            create => (cost, create),
                        });
                        let carved = b.interval(current, carve)?;
                        // An undeferred child starts where its creator stands.
                        let creator_last = Some(b.tasks[current].last).filter(|&v| v != NONE);
                        let frames = b.tasks[task].frames.take().or_else(|| b.spare_frames.pop());
                        let mut frames = frames.unwrap_or_default();
                        frames.clear();
                        frames.push(Frame::Region(region, construct));
                        b.tasks[task].frames = Some(frames);
                        let v = b.anchor(task);
                        if undeferred {
                            if let Some(src) = carved.or(creator_last) {
                                b.edge(v, src);
                            }
                            b.append(Chain::Unjoined, current, task);
                            b.tasks[task].inline_parent = current as u32;
                            b.tasks[task].creator = thread;
                            creates += 1;
                        } else {
                            // Resolved after the walk; `v` is blocked unless
                            // the creation came earlier on this stream.
                            b.create_edges.push((task as u32, v));
                            if !(b.stream_start..v).contains(&b.tasks[task].create_vertex) {
                                b.block(v);
                            }
                        }
                        b.tasks[task].first = thread;
                        b.begun += 1;
                        current = task;
                        (task, NONE)
                    }
                    Event::TaskEnd { region: _, id } | Event::TaskAbort { region: _, id } => {
                        let task = match b.tasks[current].id {
                            Some(running) if running == id => current,
                            _ => b.task(id),
                        };
                        b.interval(task, None)?;
                        let v = b.anchor(task);
                        let end = &mut b.tasks[task].end_vertex;
                        if *end == NONE {
                            *end = v;
                        }
                        let parent = std::mem::replace(&mut b.tasks[task].inline_parent, NONE);
                        if parent != NONE {
                            b.append(Chain::Pending, parent as usize, task);
                        }
                        b.spare_frames.extend(b.tasks[task].frames.take());
                        current = implicit;
                        (task, NONE)
                    }
                    Event::Switch(target) => {
                        b.interval(current, None)?;
                        current = match target {
                            TaskRef::Implicit => implicit,
                            TaskRef::Explicit(id) => {
                                b.resumes += 1;
                                b.task(id)
                            }
                        };
                        b.anchor(current);
                        (current, NONE)
                    }
                    Event::ParamBegin { .. } => {
                        b.interval(current, None)?;
                        b.anchor(current);
                        b.frames(current)?.push(Frame::Param);
                        (current, NONE)
                    }
                    Event::ParamEnd { .. } => {
                        b.interval(current, None)?;
                        b.anchor(current);
                        b.close(current, None, &ev)?;
                        (current, NONE)
                    }
                };
                let regions = &mut b.regions;
                reader.read(&ev, task, || regions[region as usize].kind());
            }
            // Trailing time between the last hook and thread end.
            b.interval(current, None)?;
            b.creates_by.push(creates);
            let work = b.nodes[b.stream_start as usize..]
                .iter()
                .map(|n| n.weight)
                .sum();
            b.work_by_thread.push(work);
        }
        Ok(b)
    }
}

impl TaskDag {
    /// Build the DAG from the per-thread edge streams of one parallel
    /// region (a `RegionEdges::streams` of `ProfMonitor::take_edge_log`),
    /// read in place. `parallel_region` is the region id of the parallel
    /// construct the streams cover (the implicit tasks' base attribution).
    pub fn from_streams(
        streams: &[(usize, EdgeStream)],
        parallel_region: RegionId,
        opts: &DagOptions,
    ) -> Result<TaskDag, DagError> {
        let mut b = Builder::walk(streams, parallel_region, opts, &mut ())?;
        let barriers = Csr::bucket(b.barrier_occurrences.len(), &b.barrier_exits);
        let barrier_edges = barriers.rows().map(|exits| exits.len() * exits.len());
        b.edges.reserve_exact(
            b.create_edges.len() + b.join_edges.len() + barrier_edges.sum::<usize>(),
        );
        // Resolve cross-thread creation edges.
        for &(task, target) in &b.create_edges {
            match b.tasks[task as usize].create_vertex {
                NONE => return Err(b.tasks[task as usize].missing("creation")),
                src => b.edges.push((target, src)),
            }
        }
        // Resolve taskwait joins.
        for &(task, target) in &b.join_edges {
            match b.tasks[task as usize].end_vertex {
                NONE => return Err(b.tasks[task as usize].missing("completion")),
                src => b.edges.push((target, src)),
            }
        }
        // Barrier synchronization: under the serialized simulation the
        // barrier releases only after every thread arrived and every
        // outstanding task completed, and everything a thread did before
        // exiting happened before the release — so every thread's last
        // pre-exit vertex (its schedule predecessor, if the thread did
        // anything before it) precedes every thread's exit.
        for exits in barriers.rows() {
            for &exit in exits {
                let pres = exits.iter().filter(|&&v| b.nodes[v as usize].chained());
                b.edges.extend(pres.map(|pre| (exit, pre - 1)));
            }
        }
        drop(barriers);

        // Steal counting: a deferred task whose first fragment ran on a
        // different thread than its creator.
        let stolen =
            |t: &&Task| t.deferred && t.creator != NONE && t.first != NONE && t.creator != t.first;
        let steals = b.tasks.iter().filter(stolen).count() as u64;

        // Only what the DAG is made of outlives the walk: the task table
        // and the maps go before the arrays below are allocated, the edge
        // list as soon as it is bucketed.
        let (nodes, edges) = (std::mem::take(&mut b.nodes), std::mem::take(&mut b.edges));
        let (starts, blocked) = (
            std::mem::take(&mut b.starts),
            std::mem::take(&mut b.blocked),
        );
        let mut dag = TaskDag {
            joins: Csr {
                start: Vec::new(),
                items: Vec::new(),
            },
            nodes,
            runs: Vec::new(),
            regions: b.regions.iter().map(|r| r.id).collect(),
            makespan_ns: OnceLock::new(),
            tasks: b.begun,
            steals,
            fragments: b.begun + b.resumes,
            creates_by: std::mem::take(&mut b.creates_by),
            work_by_thread: std::mem::take(&mut b.work_by_thread),
        };
        drop(b);
        dag.joins = Csr::bucket(dag.nodes.len(), &edges);
        drop(edges);
        dag.runs = dag.order(&starts, &blocked)?;
        Ok(dag)
    }

    /// Logical predecessors of `v` in discovery order: program order
    /// first.
    fn preds(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        let prog = Some(self.nodes[v].prog).filter(|&p| p != NONE);
        prog.into_iter()
            .chain(self.joins.row(v).iter().copied())
            .map(|p| p as usize)
    }

    /// A topological order of the full (logical + schedule) graph as
    /// index runs over the streams starting at `starts`. Streams are taken
    /// from a queue, first to last. Each advances to its first `blocked`
    /// vertex with a predecessor not yet placed, and the stretch it passed
    /// becomes a run, joined to the run before if they touch. A stream
    /// held back by another stream's vertex leaves the queue until that
    /// vertex is placed. One held back by a later vertex of its own never
    /// returns, and a stream left out is a cycle. A predecessor is checked
    /// once while it is unplaced and once after, against one bit per
    /// vertex, so the order costs O(V / 64 + B + E log T) for V vertices,
    /// B blocked ones, E edges into those and T streams, however the
    /// streams interleave.
    fn order(&self, starts: &[u32], blocked: &[u32]) -> Result<Vec<(u32, u32)>, DagError> {
        let n = self.nodes.len() as u32;
        let ends: Vec<u32> = starts
            .iter()
            .skip(1)
            .copied()
            .chain([n])
            .take(starts.len())
            .collect();
        debug_assert!(
            self.only_blocked_wait(starts, &ends, blocked),
            "a vertex waits for one outside its own stream's past but is not blocked"
        );
        let stream = |v: usize| starts.partition_point(|&start| start as usize <= v) - 1;
        // Per stream: the first vertex not placed, the first blocked one not
        // passed, and how many of that one's predecessors are placed.
        let mut placed = starts.to_vec();
        let mut next: Vec<usize> = starts
            .iter()
            .map(|&s| blocked.partition_point(|&v| v < s))
            .collect();
        let mut passed = vec![0; starts.len()];
        // The placed vertices, a bit each, for predecessors in other streams.
        let mut done = vec![0u64; (n as usize).div_ceil(64)];
        // Per stream: the streams waiting for it, as (vertex awaited,
        // stream), soonest first.
        let mut waiting: Vec<BinaryHeap<Reverse<(u32, usize)>>> =
            vec![BinaryHeap::new(); starts.len()];
        let mut queue: VecDeque<usize> = (0..starts.len()).collect();
        let mut runs: Vec<(u32, u32)> = Vec::new();
        while let Some(k) = queue.pop_front() {
            let (from, end) = (placed[k], ends[k]);
            let mut to;
            let held = loop {
                to = blocked
                    .get(next[k])
                    .copied()
                    .filter(|&v| v < end)
                    .unwrap_or(end);
                if to == end {
                    break None;
                }
                let unplaced = |&(_, p): &(usize, usize)| {
                    !(from as usize..to as usize).contains(&p) && done[p / 64] >> (p % 64) & 1 == 0
                };
                match self
                    .preds(to as usize)
                    .skip(passed[k])
                    .enumerate()
                    .find(unplaced)
                {
                    Some((ready, p)) => break Some((passed[k] + ready, p)),
                    None => (next[k], passed[k]) = (next[k] + 1, 0),
                }
            };
            if to > from {
                match runs.last_mut() {
                    Some((_, last)) if *last == from => *last = to,
                    _ => runs.push((from, to)),
                }
                placed[k] = to;
                let mut v = from as usize;
                while v < to as usize {
                    let len = (64 - v % 64).min(to as usize - v);
                    done[v / 64] |= u64::MAX >> (64 - len) << (v % 64);
                    v += len;
                }
                while let Some(&Reverse((v, w))) = waiting[k].peek() {
                    if v >= to {
                        break;
                    }
                    waiting[k].pop();
                    queue.push_back(w);
                }
            }
            if let Some((ready, p)) = held {
                passed[k] = ready;
                match stream(p) {
                    j if j == k => {}
                    j => waiting[j].push(Reverse((p as u32, k))),
                }
            }
        }
        if placed != ends {
            return Err(DagError::Cycle);
        }
        Ok(runs)
    }

    /// Whether every vertex `order` passes unchecked — one not in
    /// `blocked` — has all its predecessors earlier in its own stream.
    fn only_blocked_wait(&self, starts: &[u32], ends: &[u32], blocked: &[u32]) -> bool {
        let mut blocked = blocked.iter().copied().peekable();
        starts.iter().zip(ends).all(|(&start, &end)| {
            (start..end).all(|v| {
                let own_past = start as usize..v as usize;
                blocked.next_if_eq(&v).is_some()
                    || self.preds(v as usize).all(|p| own_past.contains(&p))
            })
        })
    }

    /// Longest weighted path (finish times) with every vertex weighing
    /// `weight(node)`. `with_sched` adds the thread-order edges
    /// (makespan); without them the result is the logical span.
    fn solve(&self, weight: impl Fn(&Node) -> u64, with_sched: bool) -> (Vec<u64>, u64) {
        let mut finish = vec![0u64; self.nodes.len()];
        let mut max = 0;
        for &(first, end) in &self.runs {
            let (first, end) = (first as usize, end as usize);
            let rows = self.joins.start[first..=end].windows(2);
            for ((v, n), row) in (first..end).zip(&self.nodes[first..end]).zip(rows) {
                let mut start = if n.prog != NONE {
                    finish[n.prog as usize]
                } else {
                    0
                };
                for &p in &self.joins.items[row[0] as usize..row[1] as usize] {
                    start = start.max(finish[p as usize]);
                }
                if with_sched && n.chained() {
                    start = start.max(finish[v - 1]);
                }
                finish[v] = start + weight(n);
                max = max.max(finish[v]);
            }
        }
        (finish, max)
    }

    /// Per-region sums (by region index) as rows, largest first.
    fn rows(&self, sums: &[u64]) -> Vec<(RegionId, u64)> {
        let rows = self.regions.iter().copied().zip(sums.iter().copied());
        let mut rows: Vec<(RegionId, u64)> = rows.filter(|&(_, ns)| ns > 0).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    fn region_index(&self, region: RegionId) -> u32 {
        let found = self.regions.iter().position(|&r| r == region);
        found.map_or(NONE, |index| index as u32)
    }

    /// Work attributed to each region, by region index.
    fn work_by_index(&self) -> Vec<u64> {
        let mut sums = vec![0u64; self.regions.len()];
        for n in &self.nodes {
            sums[n.region() as usize] += n.weight;
        }
        sums
    }

    /// The span, and each region's time (by region index) along one
    /// logical critical path: from the smallest-index sink achieving the
    /// span, back through each vertex's first predecessor that finishes
    /// exactly when it starts.
    fn critical_path(&self) -> (u64, Vec<u64>) {
        let (finish, span) = self.solve(|n| n.weight, false);
        let mut sums = vec![0u64; self.regions.len()];
        let mut v = finish.iter().position(|&f| f == span).filter(|_| span > 0);
        while let Some(vi) = v {
            let n = &self.nodes[vi];
            sums[n.region() as usize] += n.weight;
            let need = finish[vi] - n.weight;
            v = self.preds(vi).find(|&p| finish[p] == need);
        }
        (span, sums)
    }

    /// The span, and `(region, work, time on the critical path)` for every
    /// region that did work, largest work first: one pass over the
    /// vertices and one solve.
    pub(crate) fn region_shares(&self) -> (u64, Vec<(RegionId, u64, u64)>) {
        let (span_ns, span) = self.critical_path();
        let shares = self.regions.iter().zip(self.work_by_index()).zip(span);
        let worked = shares.filter(|&((_, work), _)| work > 0);
        let mut shares: Vec<_> = worked
            .map(|((&region, work), span)| (region, work, span))
            .collect();
        shares.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        (span_ns, shares)
    }

    /// Total work: the sum of all interval weights.
    pub fn work_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.weight).sum()
    }

    /// Logical critical path: the longest chain through program order,
    /// creation, join, and barrier edges — the runtime on infinitely many
    /// processors.
    pub fn span_ns(&self) -> u64 {
        self.solve(|n| n.weight, false).1
    }

    /// Schedule-aware makespan: the longest chain when every fragment is
    /// additionally pinned after its thread's previous fragment — the
    /// modeled runtime of the observed schedule.
    pub fn makespan_ns(&self) -> u64 {
        *self
            .makespan_ns
            .get_or_init(|| self.solve(|n| n.weight, true).1)
    }

    /// Work / span: the parallelism ceiling. 1.0 for an empty DAG.
    pub fn parallelism(&self) -> f64 {
        parallelism(self.work_ns(), self.span_ns())
    }

    /// Number of team threads observed.
    pub fn threads(&self) -> usize {
        self.creates_by.len()
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
        self.work_by_thread.clone()
    }

    /// Per-region work, largest first.
    pub fn work_by_region(&self) -> Vec<(RegionId, u64)> {
        self.rows(&self.work_by_index())
    }

    /// Per-region time along one logical critical path (ties broken by
    /// vertex index and predecessor discovery order, deterministically).
    pub fn span_by_region(&self) -> Vec<(RegionId, u64)> {
        self.rows(&self.critical_path().1)
    }

    /// Tasks created per thread, by stream position (for starvation
    /// detection).
    pub(crate) fn creates_by_thread(&self) -> &[u64] {
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
        let index = self.region_index(region);
        let scaled = |n: &Node| {
            if n.region() == index {
                n.weight / speedup
            } else {
                n.weight
            }
        };
        crate::WhatIfPrediction {
            region,
            speedup,
            baseline_makespan_ns: self.makespan_ns(),
            predicted_makespan_ns: self.solve(scaled, true).1,
            predicted_span_ns: self.solve(scaled, false).1,
        }
    }

    /// Sum of weights currently attributed to `region`.
    pub fn region_work_ns(&self, region: RegionId) -> u64 {
        let index = self.region_index(region);
        self.nodes
            .iter()
            .filter(|n| n.region() == index)
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

    /// Hand-written streams, each from clock 0.
    fn encoded<const N: usize>(streams: [(usize, Vec<Event>); N]) -> Vec<(usize, EdgeStream)> {
        streams
            .map(|(tid, events)| (tid, EdgeStream::from_events(0, events)))
            .into()
    }

    /// Single thread, one deferred task executed at a taskwait:
    ///   implicit: 10ns work, create (40ns), taskwait { task: 25ns }, 5ns.
    fn one_thread_stream() -> (Vec<(usize, EdgeStream)>, RegionId, RegionId, RegionId) {
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
        (encoded([(0, events)]), par, task, create)
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
    fn no_stream_is_an_empty_dag() {
        let par = region("dag12-par", RegionKind::Parallel);
        let dag = TaskDag::from_streams(&[], par, &DagOptions::default()).unwrap();
        assert!(dag.runs.is_empty());
        assert_eq!(
            (
                dag.work_ns(),
                dag.span_ns(),
                dag.makespan_ns(),
                dag.threads()
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn one_stream_is_one_run() {
        let (streams, par, _, _) = one_thread_stream();
        let dag = TaskDag::from_streams(&streams, par, &DagOptions::default()).unwrap();
        assert_eq!(dag.runs, [(0, dag.nodes.len() as u32)]);
    }

    #[test]
    fn a_creation_later_in_index_order_splits_the_runs() {
        // Thread 1, walked second, creates a task (40ns) after 10ns of
        // work, then works 100ns; thread 0 runs the task for 200ns inside
        // its barrier wait. The task's begin (vertex 1) waits for its
        // creation (vertex 8), so the order must leave stream 0 after its
        // first vertex and come back once stream 1 has created the task.
        let par = region("dag10-par", RegionKind::Parallel);
        let task = region("dag10-task", RegionKind::Task);
        let create = region("dag10-create", RegionKind::TaskCreate);
        let bar = region("dag10-bar", RegionKind::ImplicitBarrier);
        let id = TaskIdAllocator::new().alloc();
        let s0 = vec![
            Event::Enter(bar),
            Event::TaskBegin { region: task, id },
            Event::Advance(200),
            Event::TaskEnd { region: task, id },
            Event::Exit(bar),
        ];
        let s1 = vec![
            Event::Advance(10),
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
        let dag = TaskDag::from_streams(&encoded([(0, s0), (1, s1)]), par, &DagOptions::default())
            .unwrap();
        // Stream 0 holds vertices 0..5, stream 1 5..12; the barrier exits
        // (4 and 11) wait for both threads.
        assert_eq!(dag.runs, [(0, 1), (5, 11), (1, 5), (11, 12)]);
        assert_eq!(dag.work_ns(), 10 + 40 + 100 + 200);
        // 10 → create 40 → task 200 → barrier; the 100 after the creation
        // runs beside the task.
        assert_eq!(dag.span_ns(), 250);
        // Thread 0 idles until the creation ends at 50.
        assert_eq!(dag.makespan_ns(), 250);
        assert_eq!(dag.steals(), 1);
    }

    #[test]
    fn a_chain_of_stolen_tasks_wakes_each_stream_in_turn() {
        // Thread 2 creates a (5ns) after 10ns of work; thread 1 runs a for
        // 20ns, then a creates b (5ns); thread 0 runs b for 20ns. Each
        // thread waits in its barrier, so each stream waits for the one
        // after it, walked later.
        let par = region("dag13-par", RegionKind::Parallel);
        let task = region("dag13-task", RegionKind::Task);
        let create = region("dag13-create", RegionKind::TaskCreate);
        let bar = region("dag13-bar", RegionKind::ImplicitBarrier);
        let ids = TaskIdAllocator::new();
        let (a, b) = (ids.alloc(), ids.alloc());
        let creates = |id| {
            [
                Event::CreateBegin {
                    create,
                    task_region: task,
                    id,
                },
                Event::Advance(5),
                Event::CreateEnd { create, id },
            ]
        };
        let s0 = vec![
            Event::Enter(bar),
            Event::TaskBegin {
                region: task,
                id: b,
            },
            Event::Advance(20),
            Event::TaskEnd {
                region: task,
                id: b,
            },
            Event::Exit(bar),
        ];
        let mut s1 = vec![
            Event::Enter(bar),
            Event::TaskBegin {
                region: task,
                id: a,
            },
            Event::Advance(20),
        ];
        s1.extend(creates(b));
        s1.extend([
            Event::TaskEnd {
                region: task,
                id: a,
            },
            Event::Exit(bar),
        ]);
        let mut s2 = vec![Event::Advance(10)];
        s2.extend(creates(a));
        s2.extend([Event::Enter(bar), Event::Exit(bar)]);
        let dag = TaskDag::from_streams(
            &encoded([(0, s0), (1, s1), (2, s2)]),
            par,
            &DagOptions::default(),
        )
        .unwrap();
        // Streams hold vertices 0..5, 5..13 and 13..19. Each stops at the
        // begin it cannot yet run (1, 6) or at its barrier exit (18, 12)
        // and resumes once the stream it waits for has placed the vertex.
        assert_eq!(
            dag.runs,
            [
                (0, 1),
                (5, 6),
                (13, 18),
                (6, 12),
                (1, 5),
                (12, 13),
                (18, 19)
            ]
        );
        assert_eq!(dag.work_ns(), 10 + 5 + 20 + 5 + 20);
        // 10 → create a → a → create b → b: nothing runs beside the chain.
        assert_eq!(dag.span_ns(), 60);
        assert_eq!(dag.makespan_ns(), 60);
        assert_eq!(dag.steals(), 2);
    }

    #[test]
    fn a_cyclic_wait_across_two_streams_is_a_cycle() {
        // Each thread first runs the task the other creates only later.
        let par = region("dag11-par", RegionKind::Parallel);
        let task = region("dag11-task", RegionKind::Task);
        let create = region("dag11-create", RegionKind::TaskCreate);
        let ids = TaskIdAllocator::new();
        let (a, c) = (ids.alloc(), ids.alloc());
        let runs_then_creates = |runs, creates| {
            vec![
                Event::TaskBegin {
                    region: task,
                    id: runs,
                },
                Event::Advance(5),
                Event::TaskEnd {
                    region: task,
                    id: runs,
                },
                Event::CreateBegin {
                    create,
                    task_region: task,
                    id: creates,
                },
                Event::CreateEnd {
                    create,
                    id: creates,
                },
            ]
        };
        let streams = encoded([(0, runs_then_creates(c, a)), (1, runs_then_creates(a, c))]);
        let err = TaskDag::from_streams(&streams, par, &DagOptions::default()).unwrap_err();
        assert_eq!(err, DagError::Cycle);
        // Either stream alone is the same wait within one thread.
        let alone = encoded([(0, runs_then_creates(a, a))]);
        let err = TaskDag::from_streams(&alone, par, &DagOptions::default()).unwrap_err();
        assert_eq!(err, DagError::Cycle);
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
        let dag = TaskDag::from_streams(&encoded([(0, s0), (1, s1)]), par, &DagOptions::default())
            .unwrap();
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
        let streams = encoded([(0, s0)]);
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
            Event::TaskBegin {
                region: task,
                id: a,
            },
            Event::Advance(100),
            Event::TaskEnd {
                region: task,
                id: a,
            },
            Event::TaskBegin {
                region: task,
                id: c,
            },
            Event::Advance(50),
            Event::TaskEnd {
                region: task,
                id: c,
            },
            Event::Exit(bar),
        ];
        let dag = TaskDag::from_streams(&encoded([(0, s0), (1, s1)]), par, &DagOptions::default())
            .unwrap();
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
            Event::TaskBegin {
                region: task,
                id: a,
            },
            Event::TaskEnd {
                region: task,
                id: a,
            },
            Event::Exit(tw),
        ];
        let err =
            TaskDag::from_streams(&encoded([(0, s0)]), par, &DagOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            DagError::MissingTask {
                what: "completion",
                ..
            }
        ));
        assert!(err.to_string().contains("missing completion"), "{err}");
    }

    #[test]
    fn work_on_a_task_outside_its_begin_and_end_is_a_typed_error() {
        let par = region("dag7-par", RegionKind::Parallel);
        let task = region("dag7-task", RegionKind::Task);
        let f = region("dag7-f", RegionKind::Function);
        let ids = TaskIdAllocator::new();
        let (ghost, done) = (ids.alloc(), ids.alloc());
        let never_began = vec![
            Event::Switch(TaskRef::Explicit(ghost)),
            Event::Advance(5),
            Event::Enter(f),
        ];
        let ended_unbegun = vec![
            Event::Advance(5),
            Event::TaskEnd {
                region: task,
                id: ghost,
            },
        ];
        let entered_unbegun = vec![Event::Switch(TaskRef::Explicit(ghost)), Event::Enter(f)];
        for events in [never_began, ended_unbegun, entered_unbegun] {
            let err = TaskDag::from_streams(&encoded([(0, events)]), par, &DagOptions::default());
            assert_eq!(
                err.unwrap_err(),
                DagError::MissingTask {
                    id: ghost,
                    what: "begin"
                }
            );
        }
        let already_ended = vec![
            Event::TaskBegin {
                region: task,
                id: done,
            },
            Event::TaskEnd {
                region: task,
                id: done,
            },
            Event::Switch(TaskRef::Explicit(done)),
            Event::Advance(5),
            Event::Exit(f),
        ];
        let err =
            TaskDag::from_streams(&encoded([(0, already_ended)]), par, &DagOptions::default());
        assert_eq!(
            err.unwrap_err().to_string(),
            format!("task {}: missing begin", done.get())
        );
    }

    #[test]
    fn time_after_closing_the_base_region_is_a_typed_error() {
        // The implicit task's base frame is the parallel region itself:
        // a stream may (wrongly) close it, but not then spend time.
        let par = region("dag8-par", RegionKind::Parallel);
        let s0 = vec![Event::Exit(par), Event::Advance(5), Event::Exit(par)];
        let err =
            TaskDag::from_streams(&encoded([(4, s0)]), par, &DagOptions::default()).unwrap_err();
        assert!(
            matches!(err, DagError::UnbalancedFrame { thread: 4, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn thread_and_task_ids_need_not_be_dense() {
        // Threads 3 and 7 of some larger team, a hand-numbered task:
        // per-thread rows go by position in the stream list.
        let par = region("dag9-par", RegionKind::Parallel);
        let task = region("dag9-task", RegionKind::Task);
        let create = region("dag9-create", RegionKind::TaskCreate);
        let bar = region("dag9-bar", RegionKind::ImplicitBarrier);
        let id = TaskId::from_raw(0xDEAD_BEEF_0000).unwrap();
        let s3 = vec![
            Event::CreateBegin {
                create,
                task_region: task,
                id,
            },
            Event::Advance(10),
            Event::CreateEnd { create, id },
            Event::Enter(bar),
            Event::Exit(bar),
        ];
        let s7 = vec![
            Event::Enter(bar),
            Event::TaskBegin { region: task, id },
            Event::Advance(30),
            Event::TaskEnd { region: task, id },
            Event::Exit(bar),
        ];
        let dag = TaskDag::from_streams(&encoded([(3, s3), (7, s7)]), par, &DagOptions::default())
            .unwrap();
        assert_eq!(dag.work_ns(), 40);
        assert_eq!(dag.work_by_thread(), [10, 30]);
        assert_eq!(dag.steals(), 1);
        assert_eq!(dag.span_ns(), 40);
        let report = dag.report();
        assert_eq!(report.thread_work_ns.iter().sum::<u64>(), report.work_ns);
    }

    #[test]
    fn unbalanced_exit_is_a_typed_error() {
        let par = region("dag6-par", RegionKind::Parallel);
        let r = region("dag6-r", RegionKind::Function);
        let s0 = vec![Event::Exit(r)];
        let err =
            TaskDag::from_streams(&encoded([(0, s0)]), par, &DagOptions::default()).unwrap_err();
        assert!(
            matches!(err, DagError::UnbalancedFrame { thread: 0, .. }),
            "{err:?}"
        );
    }
}
