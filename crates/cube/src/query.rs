//! Metric queries used by the experiment harness.
//!
//! The paper's tables are all expressible as queries over the aggregated
//! profile:
//!
//! * Table I — instance counts and mean inclusive times of task constructs
//!   ([`task_stats`]),
//! * Table III — exclusive times of regions by name or kind
//!   ([`region_excl_by_name`], [`region_excl_by_kind`]),
//! * Table IV — per-parameter-value statistics ([`param_table`]).

use crate::agg::AggProfile;
use pomp::{registry, ParamId, RegionId, RegionKind};
use taskprof::{NodeKind, SnapNode, Stats};

/// Statistics of one task construct, aggregated over all threads and
/// instances (the per-construct row of the paper's Table I).
#[derive(Clone, Copy, Debug)]
pub struct TaskConstructStats {
    /// The construct's region.
    pub region: RegionId,
    /// Completed instances.
    pub instances: u64,
    /// Total inclusive execution time (suspension excluded), ns.
    pub sum_ns: u64,
    /// Mean inclusive instance time, ns.
    pub mean_ns: f64,
    /// Fastest instance, ns.
    pub min_ns: u64,
    /// Slowest instance, ns.
    pub max_ns: u64,
}

/// Per-construct instance statistics from an aggregated profile.
pub fn task_stats(p: &AggProfile) -> Vec<TaskConstructStats> {
    p.task_trees
        .iter()
        .filter_map(|t| match t.kind {
            NodeKind::Region(region) => Some(TaskConstructStats {
                region,
                instances: t.stats.samples,
                sum_ns: t.stats.sum_ns,
                mean_ns: t.stats.mean_ns(),
                min_ns: t.stats.min().unwrap_or(0),
                max_ns: t.stats.max_ns,
            }),
            _ => None,
        })
        .collect()
}

/// Sum of exclusive times of every node in `tree` whose region satisfies
/// `pred`. Exclusive times are additive across nesting, so this never
/// double-counts.
fn sum_excl_by(tree: &SnapNode, pred: &impl Fn(RegionId) -> bool) -> i64 {
    let mut total = 0i64;
    tree.walk(&mut |_, n| {
        if let NodeKind::Region(r) = n.kind {
            if pred(r) {
                total += n.exclusive_ns();
            }
        }
    });
    total
}

/// Total exclusive time (ns, over main tree and task trees) of all regions
/// with the given registered name. Used for Table III rows like
/// `"nqueens!create"`.
pub fn region_excl_by_name(p: &AggProfile, name: &str) -> i64 {
    let reg = registry();
    let pred = |r: RegionId| reg.name(r) == name;
    p.task_trees
        .iter()
        .chain(std::iter::once(&p.main))
        .map(|t| sum_excl_by(t, &pred))
        .sum()
}

/// Total exclusive time (ns) of all regions of one kind (e.g. every
/// taskwait, every implicit barrier).
pub fn region_excl_by_kind(p: &AggProfile, kind: RegionKind) -> i64 {
    let reg = registry();
    let pred = |r: RegionId| reg.kind(r) == kind;
    p.task_trees
        .iter()
        .chain(std::iter::once(&p.main))
        .map(|t| sum_excl_by(t, &pred))
        .sum()
}

/// Total *stub* time under nodes of one kind in the main tree: the share
/// of a scheduling point's time spent doing useful task work (the
/// paper's Fig. 5 split).
pub fn stub_time_under_kind(p: &AggProfile, kind: RegionKind) -> u64 {
    let reg = registry();
    let mut total = 0u64;
    p.main.walk(&mut |_, n| {
        if let NodeKind::Region(r) = n.kind {
            if reg.kind(r) == kind {
                total += n
                    .children
                    .iter()
                    .filter(|c| matches!(c.kind, NodeKind::Stub(_)))
                    .map(|c| c.stats.sum_ns)
                    .sum::<u64>();
            }
        }
    });
    total
}

/// Per-value statistics of a parameter in a task tree, sorted by value
/// (the paper's Table IV: per-recursion-level mean/sum/count).
pub fn param_table(tree: &SnapNode, param: ParamId) -> Vec<(i64, Stats)> {
    let mut rows: Vec<(i64, Stats)> = Vec::new();
    tree.walk(&mut |_, n| {
        if let NodeKind::Param(p, v) = n.kind {
            if p == param {
                match rows.iter_mut().find(|(val, _)| *val == v) {
                    Some((_, s)) => s.merge(&n.stats),
                    None => rows.push((v, n.stats)),
                }
            }
        }
    });
    rows.sort_by_key(|(v, _)| *v);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskprof::{replay, AssignPolicy, Event};

    fn reg(name: &str, kind: RegionKind) -> RegionId {
        registry().register(name, kind, "test", 0)
    }

    fn agg_single_thread(snap: taskprof::ThreadSnapshot) -> AggProfile {
        AggProfile::from_profile(&taskprof::Profile {
            threads: vec![snap],
        })
    }

    #[test]
    fn task_stats_and_exclusive_queries() {
        let ids = pomp::TaskIdAllocator::new();
        let par = reg("q-par", RegionKind::Parallel);
        let task = reg("q-task", RegionKind::Task);
        let barrier = reg("q-bar", RegionKind::ImplicitBarrier);
        let (t1, t2) = (ids.alloc(), ids.alloc());
        let snap = replay(
            par,
            AssignPolicy::Executing,
            [
                Event::Advance(5),
                Event::Enter(barrier),
                Event::TaskBegin {
                    region: task,
                    id: t1,
                },
                Event::Advance(10),
                Event::TaskEnd {
                    region: task,
                    id: t1,
                },
                Event::TaskBegin {
                    region: task,
                    id: t2,
                },
                Event::Advance(30),
                Event::TaskEnd {
                    region: task,
                    id: t2,
                },
                Event::Advance(5),
                Event::Exit(barrier),
            ],
        );
        let p = agg_single_thread(snap);
        let stats = task_stats(&p);
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.instances, 2);
        assert_eq!(s.sum_ns, 40);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        assert!((s.mean_ns - 20.0).abs() < 1e-9);
        // Barrier inclusive 45, stub 40 → exclusive 5.
        assert_eq!(region_excl_by_kind(&p, RegionKind::ImplicitBarrier), 5);
        assert_eq!(stub_time_under_kind(&p, RegionKind::ImplicitBarrier), 40);
        // Task root has no children → exclusive == inclusive.
        assert_eq!(region_excl_by_name(&p, "q-task"), 40);
    }

    #[test]
    fn param_table_groups_by_value() {
        let ids = pomp::TaskIdAllocator::new();
        let par = reg("q2-par", RegionKind::Parallel);
        let task = reg("q2-task", RegionKind::Task);
        let barrier = reg("q2-bar", RegionKind::ImplicitBarrier);
        let depth = registry().register_param("q2-depth");
        let mut events = vec![Event::Enter(barrier)];
        for (d, dur) in [(0i64, 40u64), (1, 10), (1, 20)] {
            let id = ids.alloc();
            events.extend([
                Event::TaskBegin { region: task, id },
                Event::ParamBegin {
                    param: depth,
                    value: d,
                },
                Event::Advance(dur),
                Event::ParamEnd { param: depth },
                Event::TaskEnd { region: task, id },
            ]);
        }
        events.push(Event::Exit(barrier));
        let snap = replay(par, AssignPolicy::Executing, events);
        let p = agg_single_thread(snap);
        let table = param_table(&p.task_trees[0], depth);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].0, 0);
        assert_eq!(table[0].1.sum_ns, 40);
        assert_eq!(table[1].0, 1);
        assert_eq!(table[1].1.samples, 2);
        assert_eq!(table[1].1.sum_ns, 30);
        assert!((table[1].1.mean_ns() - 15.0).abs() < 1e-9);
    }
}
