//! The paper's Fig. 12 written down the dumbest way: the reference
//! `taskprof`'s profiler is checked against, node for node.
//!
//! `taskprof::ThreadProfile` resolves the current task to a table slot,
//! recycles frame stacks and arena nodes, and merges instance trees in
//! place. None of that is here. Every live instance owns its tree as
//! nested `Vec`s in a map keyed by its id; an open region is the path of
//! node kinds from its task's root; a frame's time is its task's own
//! running clock at the exit minus at the enter, and that clock stands
//! still while the task is suspended. Only the paper's executing-node
//! attribution is modelled, without depth limits or shedding.
//!
//! Test-only and never benchmarked.

use crate::body::Sink;
use pomp::{RegionId, TaskId, TaskRef};
use std::collections::HashMap;
use taskprof::{Event, NodeKind, SnapNode, Stats, ThreadSnapshot};

/// One call-tree node, owning its children. `stats` is only data here:
/// the oracle updates its fields itself, never through `Stats`' methods.
#[derive(Clone, Debug)]
struct Node {
    kind: NodeKind,
    stats: Stats,
    children: Vec<Node>,
}

impl Node {
    fn new(kind: NodeKind) -> Self {
        Node {
            kind,
            stats: Stats::new(),
            children: Vec::new(),
        }
    }

    /// The node at `path` below this one, created where missing.
    fn at(&mut self, path: &[NodeKind]) -> &mut Node {
        let Some((first, rest)) = path.split_first() else {
            return self;
        };
        let i = match self.children.iter().position(|c| c.kind == *first) {
            Some(i) => i,
            None => {
                self.children.push(Node::new(*first));
                self.children.len() - 1
            }
        };
        self.children[i].at(rest)
    }

    fn record(&mut self, ns: u64) {
        let s = &mut self.stats;
        s.samples += 1;
        s.sum_ns += ns;
        s.min_ns = s.min_ns.min(ns);
        s.max_ns = s.max_ns.max(ns);
    }

    /// Fold a finished instance tree into this aggregate.
    fn merge(&mut self, other: Node) {
        let (s, o) = (&mut self.stats, other.stats);
        s.visits += o.visits;
        s.samples += o.samples;
        s.sum_ns += o.sum_ns;
        s.min_ns = s.min_ns.min(o.min_ns);
        s.max_ns = s.max_ns.max(o.max_ns);
        s.aborted += o.aborted;
        for child in other.children {
            self.at(&[child.kind]).merge(child);
        }
    }

    fn snap(&self) -> SnapNode {
        SnapNode {
            kind: self.kind,
            stats: self.stats,
            children: self.children.iter().map(Node::snap).collect(),
        }
    }
}

/// An open region: its path from the task's root and its task-clock start.
type Frame = (Vec<NodeKind>, u64);

/// Open a `kind` child of the innermost frame of `open` at task time `now`.
fn push(root: &mut Node, open: &mut Vec<Frame>, now: u64, kind: NodeKind) {
    let mut path = open.last().map(|f| f.0.clone()).unwrap_or_default();
    path.push(kind);
    root.at(&path).stats.visits += 1;
    open.push((path, now));
}

/// Close the innermost frame of `open` at task time `now`.
fn pop(root: &mut Node, open: &mut Vec<Frame>, now: u64) {
    let (path, start) = open.pop().expect("exit without an open region");
    root.at(&path).record(now - start);
}

/// A begun, unfinished explicit task instance.
struct Task {
    region: RegionId,
    tree: Node,
    open: Vec<Frame>,
    /// Running time up to `since`.
    ran: u64,
    /// When the instance last became current.
    since: u64,
}

/// The Fig. 12 state of one thread.
pub struct Oracle {
    t: u64,
    main: Node,
    /// The implicit task's open regions, timed by wall time: it is never
    /// suspended, its stub frames cover the explicit fragments instead.
    main_open: Vec<Frame>,
    tasks: HashMap<TaskId, Task>,
    current: TaskRef,
    task_trees: Vec<Node>,
    max_live_trees: usize,
}

/// What the oracle says a thread's profile is.
#[derive(Debug, PartialEq)]
pub struct OracleProfile {
    /// The implicit task's tree.
    pub main: SnapNode,
    /// The aggregate task trees, in order of first completion.
    pub task_trees: Vec<SnapNode>,
    /// The most instances live at once (paper Table II).
    pub max_live_trees: usize,
}

impl Oracle {
    /// A thread entering `parallel_region` at time 0.
    pub fn new(parallel_region: RegionId) -> Self {
        let mut main = Node::new(NodeKind::Region(parallel_region));
        main.stats.visits = 1;
        Oracle {
            t: 0,
            main,
            main_open: vec![(Vec::new(), 0)],
            tasks: HashMap::new(),
            current: TaskRef::Implicit,
            task_trees: Vec::new(),
            max_live_trees: 0,
        }
    }

    /// The current task's tree, open frames and clock.
    fn body(&mut self) -> (&mut Node, &mut Vec<Frame>, u64) {
        match self.current {
            TaskRef::Implicit => (&mut self.main, &mut self.main_open, self.t),
            TaskRef::Explicit(id) => {
                let task = self.tasks.get_mut(&id).expect("current task is live");
                let now = task.ran + (self.t - task.since);
                (&mut task.tree, &mut task.open, now)
            }
        }
    }

    /// Enter a `kind` child of the current task's innermost region.
    fn open(&mut self, kind: NodeKind) {
        let (root, open, now) = self.body();
        push(root, open, now, kind);
    }

    /// Exit the current task's innermost region.
    fn close(&mut self) {
        let (root, open, now) = self.body();
        pop(root, open, now);
    }

    /// `TaskSwitch`: suspend the current task, resume `target`. The
    /// implicit task keeps a stub frame open under its innermost region
    /// for as long as an explicit task runs.
    fn switch(&mut self, target: TaskRef) {
        if target == self.current {
            return;
        }
        if let TaskRef::Explicit(id) = self.current {
            let task = self.tasks.get_mut(&id).expect("current task is live");
            task.ran += self.t - task.since;
            pop(&mut self.main, &mut self.main_open, self.t);
        }
        self.current = target;
        if let TaskRef::Explicit(id) = target {
            let task = self.tasks.get_mut(&id).expect("switch to an unknown task");
            task.since = self.t;
            let stub = NodeKind::Stub(task.region);
            push(&mut self.main, &mut self.main_open, self.t, stub);
        }
    }

    /// Merge the no-longer-current instance `id` into its construct's
    /// aggregate tree.
    fn retire(&mut self, id: TaskId) {
        let task = self.tasks.remove(&id).expect("retiring a live task");
        let kind = NodeKind::Region(task.region);
        let i = match self.task_trees.iter().position(|t| t.kind == kind) {
            Some(i) => i,
            None => {
                self.task_trees.push(Node::new(kind));
                self.task_trees.len() - 1
            }
        };
        self.task_trees[i].merge(task.tree);
    }

    /// Close every open region of `id` as it stands, tag it aborted, and
    /// merge it.
    fn abort(&mut self, id: TaskId) {
        self.switch(TaskRef::Explicit(id));
        while !self.tasks[&id].open.is_empty() {
            self.close();
        }
        self.tasks.get_mut(&id).expect("live").tree.stats.aborted += 1;
        self.switch(TaskRef::Implicit);
        self.retire(id);
    }

    /// Finish the thread's region: instances still live are aborted (the
    /// current one first, then the rest by id), then the implicit task's
    /// regions close.
    pub fn finish(mut self) -> OracleProfile {
        if let TaskRef::Explicit(id) = self.current {
            self.abort(id);
        }
        let mut left: Vec<TaskId> = self.tasks.keys().copied().collect();
        left.sort_unstable();
        for id in left {
            self.abort(id);
        }
        while !self.main_open.is_empty() {
            self.close();
        }
        OracleProfile {
            main: self.main.snap(),
            task_trees: self.task_trees.iter().map(Node::snap).collect(),
            max_live_trees: self.max_live_trees,
        }
    }
}

impl Sink for Oracle {
    fn apply(&mut self, ev: Event) {
        match ev {
            Event::Advance(dt) => self.t += dt,
            Event::Enter(region) => self.open(NodeKind::Region(region)),
            Event::CreateBegin { create, .. } => self.open(NodeKind::Region(create)),
            Event::ParamBegin { param, value } => self.open(NodeKind::Param(param, value)),
            Event::Exit(_) | Event::CreateEnd { .. } | Event::ParamEnd { .. } => self.close(),
            Event::TaskBegin { region, id } => {
                let mut tree = Node::new(NodeKind::Region(region));
                tree.stats.visits = 1;
                let task = Task {
                    region,
                    tree,
                    open: vec![(Vec::new(), 0)],
                    ran: 0,
                    since: self.t,
                };
                assert!(self.tasks.insert(id, task).is_none(), "task began twice");
                self.max_live_trees = self.max_live_trees.max(self.tasks.len());
                self.switch(TaskRef::Explicit(id));
            }
            Event::TaskEnd { id, .. } => {
                assert_eq!(
                    self.current,
                    TaskRef::Explicit(id),
                    "ending a task that is not current"
                );
                self.close();
                assert!(
                    self.tasks[&id].open.is_empty(),
                    "task ended inside a region"
                );
                self.switch(TaskRef::Implicit);
                self.retire(id);
            }
            Event::TaskAbort { id, .. } => self.abort(id),
            Event::Switch(target) => self.switch(target),
        }
    }

    fn current_task(&self) -> TaskRef {
        self.current
    }

    fn live_instance_trees(&self) -> usize {
        self.tasks.len()
    }
}

/// What `snap` says the oracle should say.
pub fn profile_of(snap: &ThreadSnapshot) -> OracleProfile {
    OracleProfile {
        main: snap.main.clone(),
        task_trees: snap.task_trees.clone(),
        max_live_trees: snap.max_live_trees,
    }
}

/// [`taskprof::replay`] under the executing policy, checked against the
/// oracle fed the same stream.
pub fn replay_checked(
    parallel_region: RegionId,
    events: impl IntoIterator<Item = Event>,
) -> ThreadSnapshot {
    let events: Vec<Event> = events.into_iter().collect();
    let snap = taskprof::replay(
        parallel_region,
        taskprof::AssignPolicy::Executing,
        events.iter().copied(),
    );
    let mut oracle = Oracle::new(parallel_region);
    for &ev in &events {
        oracle.apply(ev);
    }
    assert_eq!(
        profile_of(&snap),
        oracle.finish(),
        "the profiler departs from Fig. 12"
    );
    snap
}
