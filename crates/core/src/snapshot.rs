//! Plain, analysis-friendly snapshots of finished profiles.
//!
//! A [`SnapNode`] tree owns its data and has no arena indirection, so the
//! `cube` crate (and user code) can aggregate, render, export, and diff
//! profiles without touching profiler internals.

use crate::metrics::Stats;
use crate::tree::NodeKind;
use pomp::RegionId;

/// One node of a snapshotted call tree.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapNode {
    /// Node identity (region, stub, or parameter value).
    pub kind: NodeKind,
    /// Metric statistics.
    pub stats: Stats,
    /// Child nodes.
    pub children: Vec<SnapNode>,
}

impl SnapNode {
    /// Exclusive time: inclusive sum minus children's inclusive sums.
    /// Signed — the `Creating` attribution policy can make it negative
    /// (paper Fig. 3).
    pub fn exclusive_ns(&self) -> i64 {
        self.stats.sum_ns as i64
            - self
                .children
                .iter()
                .map(|c| c.stats.sum_ns as i64)
                .sum::<i64>()
    }

    /// First child with the given identity.
    pub fn child(&self, kind: NodeKind) -> Option<&SnapNode> {
        self.children.iter().find(|c| c.kind == kind)
    }

    /// Depth-first pre-order walk, calling `f(depth, node)`.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(usize, &'a SnapNode)) {
        fn go<'a>(n: &'a SnapNode, d: usize, f: &mut impl FnMut(usize, &'a SnapNode)) {
            f(d, n);
            for c in &n.children {
                go(c, d + 1, f);
            }
        }
        go(self, 0, f)
    }

    /// Number of nodes in this subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SnapNode::size).sum::<usize>()
    }
}

/// The finished profile of one thread in one parallel region.
#[derive(Clone, Debug)]
pub struct ThreadSnapshot {
    /// Team-local thread id (0-based).
    pub tid: usize,
    /// The parallel region this profile covers.
    pub parallel_region: RegionId,
    /// The implicit task's call tree (root = the parallel region).
    pub main: SnapNode,
    /// Aggregated task trees, one per task construct this thread executed
    /// instances of, "beside" the main tree (paper Section IV-B4).
    pub task_trees: Vec<SnapNode>,
    /// Maximum number of concurrently live task-instance trees
    /// (paper Table II).
    pub max_live_trees: usize,
    /// High-water mark of call-tree nodes allocated by this thread
    /// (paper Section V-B memory accounting).
    pub arena_capacity: usize,
    /// Task instances degraded to counting-only because the live-tree cap
    /// was reached (overload shedding; 0 when no cap was configured).
    pub shed_instances: u64,
    /// Self-healing diagnostics recorded while closing the profile (e.g.
    /// instances force-closed at region end). Empty for a clean run.
    pub diagnostics: Vec<String>,
}

impl ThreadSnapshot {
    /// The aggregated task tree for a given task construct, if any
    /// instance of it completed on this thread.
    pub fn task_tree(&self, region: RegionId) -> Option<&SnapNode> {
        self.task_trees
            .iter()
            .find(|t| t.kind == NodeKind::Region(region))
    }
}

/// A whole parallel region's profile: one snapshot per team thread.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Per-thread snapshots, ordered by `tid`.
    pub threads: Vec<ThreadSnapshot>,
}

impl Profile {
    /// The parallel region id (taken from the first thread).
    pub fn parallel_region(&self) -> Option<RegionId> {
        self.threads.first().map(|t| t.parallel_region)
    }

    /// Number of team threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Maximum over threads of the concurrent-instance-tree high-water
    /// mark — the per-code value of the paper's Table II.
    pub fn max_live_trees(&self) -> usize {
        self.threads
            .iter()
            .map(|t| t.max_live_trees)
            .max()
            .unwrap_or(0)
    }

    /// Total task instances shed (degraded to counting-only) across all
    /// threads.
    pub fn shed_instances(&self) -> u64 {
        self.threads.iter().map(|t| t.shed_instances).sum()
    }

    /// Total aborted task instances across all threads, summed over every
    /// node of every tree (the abort tag only ever sits on task roots, so
    /// this never double-counts).
    pub fn aborted_instances(&self) -> u64 {
        fn tree_aborts(n: &SnapNode) -> u64 {
            n.stats.aborted + n.children.iter().map(tree_aborts).sum::<u64>()
        }
        self.threads
            .iter()
            .map(|t| tree_aborts(&t.main) + t.task_trees.iter().map(tree_aborts).sum::<u64>())
            .sum()
    }

    /// All self-healing diagnostics, as `(tid, message)` pairs.
    pub fn diagnostics(&self) -> Vec<(usize, &str)> {
        self.threads
            .iter()
            .flat_map(|t| t.diagnostics.iter().map(move |d| (t.tid, d.as_str())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::ParamId;

    fn leaf(kind: NodeKind, sum: u64) -> SnapNode {
        let mut stats = Stats::new();
        stats.add_visit();
        stats.record(sum);
        SnapNode {
            kind,
            stats,
            children: vec![],
        }
    }

    #[test]
    fn exclusive_subtracts_children() {
        let mut root = leaf(NodeKind::Region(RegionId(0)), 100);
        root.children.push(leaf(NodeKind::Region(RegionId(1)), 30));
        root.children.push(leaf(NodeKind::Stub(RegionId(2)), 50));
        assert_eq!(root.exclusive_ns(), 20);
    }

    #[test]
    fn walk_visits_in_preorder_with_depth() {
        let mut root = leaf(NodeKind::Region(RegionId(0)), 10);
        let mut c = leaf(NodeKind::Region(RegionId(1)), 5);
        c.children.push(leaf(NodeKind::Param(ParamId(0), 3), 2));
        root.children.push(c);
        let mut seen = vec![];
        root.walk(&mut |d, n| seen.push((d, n.kind)));
        assert_eq!(
            seen,
            vec![
                (0, NodeKind::Region(RegionId(0))),
                (1, NodeKind::Region(RegionId(1))),
                (2, NodeKind::Param(ParamId(0), 3)),
            ]
        );
        assert_eq!(root.size(), 3);
    }

    #[test]
    fn profile_max_live_trees_takes_thread_max() {
        let snap = |tid, max| ThreadSnapshot {
            tid,
            parallel_region: RegionId(0),
            main: leaf(NodeKind::Region(RegionId(0)), 1),
            task_trees: vec![],
            max_live_trees: max,
            arena_capacity: 0,
            shed_instances: 0,
            diagnostics: vec![],
        };
        let p = Profile {
            threads: vec![snap(0, 3), snap(1, 19), snap(2, 4)],
        };
        assert_eq!(p.max_live_trees(), 19);
        assert_eq!(p.num_threads(), 3);
        assert_eq!(p.parallel_region(), Some(RegionId(0)));
    }
}
