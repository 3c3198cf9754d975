//! Arena-allocated call trees with node reuse.
//!
//! Each thread owns one [`Arena`] holding *all* of its trees: the implicit
//! task's main tree, the private tree of every active task instance, and the
//! aggregated per-construct task trees. Nodes released when an instance tree
//! is merged go onto a free list and are reused for the next instance —
//! the memory-bounding behaviour evaluated in the paper's Section V-B
//! ("released task-instance tree nodes are reused").

use crate::metrics::Stats;
use pomp::{ParamId, RegionId};

/// Handle of a node within one thread's [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(u32);

impl NodeId {
    /// Arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a call-tree node represents.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// An entered source region (function, task root, taskwait, ...).
    Region(RegionId),
    /// A *stub node* (paper Section IV-B4): child of a scheduling-point
    /// node in the implicit task's tree, accounting the time the thread
    /// spent executing fragments of tasks of this construct there.
    Stub(RegionId),
    /// A parameter sub-tree, e.g. `depth = 3` (paper Section VI).
    Param(ParamId, i64),
    /// Collapsed sub-tree below the configured depth limit (the "tree
    /// depth limits" the paper's Section IV-B3 refers to): everything
    /// deeper is accounted here in aggregate.
    Truncated,
}

/// One call-tree node.
#[derive(Debug)]
pub struct Node {
    /// Node identity used for child lookup during profiling and merging.
    pub kind: NodeKind,
    /// Parent node; `None` for roots (the main root, detached instance
    /// roots, and aggregated task-tree roots).
    pub parent: Option<NodeId>,
    /// Children in creation order. Fan-out in task profiles is small, so
    /// lookup is a linear scan.
    pub children: Vec<NodeId>,
    /// Metric statistics.
    pub stats: Stats,
}

/// Arena of call-tree nodes with a free list.
#[derive(Debug)]
pub struct Arena {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    reuse: bool,
}

impl Default for Arena {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            reuse: true,
        }
    }
}

impl Arena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty arena with room for `nodes` nodes before reallocating —
    /// the preallocated per-thread measurement memory of the sharded
    /// fast path (no allocation on the first `nodes` enter events).
    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            free: Vec::new(),
            reuse: true,
        }
    }

    /// Clear all nodes while keeping the allocated slot capacity, so the
    /// arena can be recycled for the next parallel region without paying
    /// its allocations again.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.reuse = true;
    }

    /// Toggle free-list node reuse (on by default). Disabling it is the
    /// ablation of the paper's Section V-B memory strategy: released
    /// nodes are leaked instead of recycled, so memory grows with the
    /// *total* number of instances rather than the *concurrent* number.
    pub fn set_reuse(&mut self, reuse: bool) {
        self.reuse = reuse;
    }

    /// Total nodes ever allocated (high-water mark of arena slots).
    pub fn capacity_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes currently in use (allocated minus free-listed).
    pub fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Allocate a node, reusing a released slot when available.
    pub fn alloc(&mut self, kind: NodeKind, parent: Option<NodeId>) -> NodeId {
        if !self.reuse {
            self.free.clear();
        }
        if let Some(id) = self.free.pop() {
            let n = &mut self.nodes[id.index()];
            n.kind = kind;
            n.parent = parent;
            n.children.clear();
            n.stats.clear();
            id
        } else {
            let id = NodeId(u32::try_from(self.nodes.len()).expect("arena overflow"));
            self.nodes.push(Node {
                kind,
                parent,
                children: Vec::new(),
                stats: Stats::new(),
            });
            id
        }
    }

    /// Shared access to a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Find the child of `parent` with identity `kind`, creating it if
    /// absent. This is the per-enter-event lookup of the Score-P profiling
    /// algorithm (paper Section IV-A).
    pub fn child_of(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        if let Some(&c) = self.nodes[parent.index()]
            .children
            .iter()
            .find(|&&c| self.nodes[c.index()].kind == kind)
        {
            return c;
        }
        let c = self.alloc(kind, Some(parent));
        self.nodes[parent.index()].children.push(c);
        c
    }

    /// Find an existing child without creating.
    pub fn find_child(&self, parent: NodeId, kind: NodeKind) -> Option<NodeId> {
        self.nodes[parent.index()]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c.index()].kind == kind)
    }

    /// Merge the subtree rooted at `src` into the children of `dst`
    /// (matching by node identity, creating missing nodes), then release
    /// every `src` node to the free list. `src` must be a *detached* root
    /// (its slot is released too).
    ///
    /// This implements the paper's TaskEnd step "merge task tree into
    /// global profile of thread" with node reuse.
    pub fn merge_into(&mut self, src: NodeId, dst: NodeId) {
        debug_assert_ne!(src, dst);
        let src_stats = self.nodes[src.index()].stats;
        self.nodes[dst.index()].stats.merge(&src_stats);
        // Walk the child list by index and leave it in place: `src` is
        // released only after the loop, so nothing rewrites the list
        // meanwhile, and the released slot keeps the list's capacity for
        // the instance that reuses it (`alloc` clears it).
        for i in 0..self.nodes[src.index()].children.len() {
            let child = self.nodes[src.index()].children[i];
            let kind = self.nodes[child.index()].kind;
            let dst_child = self.child_of(dst, kind);
            self.merge_into(child, dst_child);
        }
        self.free.push(src);
    }

    /// Release a whole subtree (used when a profile is torn down without
    /// merging, e.g. on abandoned replay state).
    pub fn release_subtree(&mut self, root: NodeId) {
        for i in 0..self.nodes[root.index()].children.len() {
            let child = self.nodes[root.index()].children[i];
            self.release_subtree(child);
        }
        self.free.push(root);
    }

    /// Sum of the inclusive-time sums of `node`'s children — the subtrahend
    /// of the exclusive-time computation.
    pub fn children_sum_ns(&self, node: NodeId) -> u64 {
        self.nodes[node.index()]
            .children
            .iter()
            .map(|&c| self.nodes[c.index()].stats.sum_ns)
            .sum()
    }

    /// Exclusive time of `node`: its inclusive sum minus its children's
    /// inclusive sums. Signed, because the paper's Fig. 3 shows how the
    /// *wrong* attribution policy produces negative values.
    pub fn exclusive_ns(&self, node: NodeId) -> i64 {
        self.nodes[node.index()].stats.sum_ns as i64 - self.children_sum_ns(node) as i64
    }

    /// Number of nodes in the subtree rooted at `root` (including it).
    pub fn subtree_size(&self, root: NodeId) -> usize {
        1 + self.nodes[root.index()]
            .children
            .iter()
            .map(|&c| self.subtree_size(c))
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: u32) -> RegionId {
        RegionId(i)
    }

    #[test]
    fn child_of_finds_or_creates() {
        let mut a = Arena::new();
        let root = a.alloc(NodeKind::Region(rid(0)), None);
        let c1 = a.child_of(root, NodeKind::Region(rid(1)));
        let c2 = a.child_of(root, NodeKind::Region(rid(1)));
        assert_eq!(c1, c2);
        let c3 = a.child_of(root, NodeKind::Region(rid(2)));
        assert_ne!(c1, c3);
        assert_eq!(a.node(root).children.len(), 2);
        assert_eq!(a.node(c1).parent, Some(root));
    }

    #[test]
    fn stub_and_region_of_same_region_are_distinct_children() {
        let mut a = Arena::new();
        let root = a.alloc(NodeKind::Region(rid(0)), None);
        let r = a.child_of(root, NodeKind::Region(rid(1)));
        let s = a.child_of(root, NodeKind::Stub(rid(1)));
        assert_ne!(r, s);
    }

    #[test]
    fn param_nodes_keyed_by_value() {
        let mut a = Arena::new();
        let root = a.alloc(NodeKind::Region(rid(0)), None);
        let p3 = a.child_of(root, NodeKind::Param(ParamId(0), 3));
        let p4 = a.child_of(root, NodeKind::Param(ParamId(0), 4));
        let p3b = a.child_of(root, NodeKind::Param(ParamId(0), 3));
        assert_ne!(p3, p4);
        assert_eq!(p3, p3b);
    }

    #[test]
    fn merge_into_adds_stats_and_releases_nodes() {
        let mut a = Arena::new();
        // dst tree: root -> x
        let dst = a.alloc(NodeKind::Region(rid(9)), None);
        let dx = a.child_of(dst, NodeKind::Region(rid(1)));
        a.node_mut(dst).stats.record(10);
        a.node_mut(dx).stats.record(4);
        // src tree: root -> {x, y}
        let src = a.alloc(NodeKind::Region(rid(9)), None);
        let sx = a.child_of(src, NodeKind::Region(rid(1)));
        let sy = a.child_of(src, NodeKind::Region(rid(2)));
        a.node_mut(src).stats.record(20);
        a.node_mut(sx).stats.record(6);
        a.node_mut(sy).stats.record(1);
        let live_before = a.live_nodes();
        a.merge_into(src, dst);
        // dst absorbed stats; y was created under dst.
        assert_eq!(a.node(dst).stats.sum_ns, 30);
        assert_eq!(a.node(dst).stats.samples, 2);
        assert_eq!(a.node(dx).stats.sum_ns, 10);
        let dy = a.find_child(dst, NodeKind::Region(rid(2))).unwrap();
        assert_eq!(a.node(dy).stats.sum_ns, 1);
        // src root and sx were released; sy was *reused* as dy or released.
        // Net live-node change: -3 (src subtree) +1 (new dy).
        assert_eq!(a.live_nodes(), live_before - 2);
    }

    #[test]
    fn merged_slots_keep_their_child_list_capacity() {
        // The zero-allocation steady state rests on this: a released
        // instance node comes back from `alloc` with an empty child list
        // that still owns its buffer.
        let mut a = Arena::new();
        let dst = a.alloc(NodeKind::Region(rid(9)), None);
        a.child_of(dst, NodeKind::Region(rid(1)));
        let src = a.alloc(NodeKind::Region(rid(9)), None);
        a.child_of(src, NodeKind::Region(rid(1)));
        a.merge_into(src, dst);
        let again = a.alloc(NodeKind::Region(rid(9)), None);
        assert_eq!(again, src, "released last, so reused first");
        assert!(a.node(again).children.is_empty());
        assert!(a.node(again).children.capacity() >= 1);
    }

    #[test]
    fn released_nodes_are_reused() {
        let mut a = Arena::new();
        let r1 = a.alloc(NodeKind::Region(rid(0)), None);
        let c1 = a.child_of(r1, NodeKind::Region(rid(1)));
        a.release_subtree(r1);
        assert_eq!(a.live_nodes(), 0);
        let r2 = a.alloc(NodeKind::Region(rid(5)), None);
        let c2 = a.child_of(r2, NodeKind::Region(rid(6)));
        // Slots are recycled: no new capacity was needed.
        assert_eq!(a.capacity_nodes(), 2);
        assert_eq!(a.live_nodes(), 2);
        // Reused nodes are fully reset.
        assert_eq!(a.node(r2).stats, Stats::new());
        assert_eq!(a.node(r2).children, vec![c2]);
        assert!([r1, c1].contains(&r2) && [r1, c1].contains(&c2));
    }

    #[test]
    fn exclusive_time_subtracts_children() {
        let mut a = Arena::new();
        let root = a.alloc(NodeKind::Region(rid(0)), None);
        let c = a.child_of(root, NodeKind::Region(rid(1)));
        a.node_mut(root).stats.record(10);
        a.node_mut(c).stats.record(7);
        assert_eq!(a.exclusive_ns(root), 3);
        // The paper's Fig. 3 pathology: child bigger than parent.
        a.node_mut(c).stats.record(8);
        assert_eq!(a.exclusive_ns(root), -5);
    }

    #[test]
    fn subtree_size_counts_nodes() {
        let mut a = Arena::new();
        let root = a.alloc(NodeKind::Region(rid(0)), None);
        let c = a.child_of(root, NodeKind::Region(rid(1)));
        a.child_of(c, NodeKind::Region(rid(2)));
        a.child_of(root, NodeKind::Region(rid(3)));
        assert_eq!(a.subtree_size(root), 4);
    }
}
