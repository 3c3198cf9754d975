//! Per-thread load view.
//!
//! The paper's Section I motivation: call-path profiles "can help detect
//! idle times of threads and measure the amount of work each thread
//! performs". This module extracts exactly that from a per-thread
//! profile: how much of each thread's wall time went to task execution,
//! worksharing, scheduling-point idling, and everything else.

use pomp::{registry, RegionKind};
use std::fmt::Write as _;
use taskprof::{NodeKind, Profile, SnapNode};

/// One thread's load decomposition (all values in ns).
#[derive(Clone, Copy, Debug)]
pub struct ThreadLoad {
    /// Team-local thread id.
    pub tid: usize,
    /// Total wall time of the thread's parallel region.
    pub wall_ns: u64,
    /// Time executing explicit task fragments (sum of stub nodes).
    pub task_exec_ns: u64,
    /// Time inside worksharing loops.
    pub workshare_ns: u64,
    /// Non-executing time at scheduling points (barrier/taskwait
    /// exclusive remainders): management and/or idling.
    pub idle_ns: u64,
}

impl ThreadLoad {
    /// Useful work: tasks + worksharing.
    pub fn work_ns(&self) -> u64 {
        self.task_exec_ns + self.workshare_ns
    }
}

fn sum_by(node: &SnapNode, f: &impl Fn(&SnapNode) -> u64) -> u64 {
    let mut total = 0;
    node.walk(&mut |_, n| total += f(n));
    total
}

/// Decompose every thread's time.
pub fn thread_loads(p: &Profile) -> Vec<ThreadLoad> {
    let reg = registry();
    p.threads
        .iter()
        .map(|t| {
            let task_exec_ns = sum_by(&t.main, &|n| match n.kind {
                NodeKind::Stub(_) => n.stats.sum_ns,
                _ => 0,
            });
            let workshare_ns = sum_by(&t.main, &|n| match n.kind {
                NodeKind::Region(r) if reg.kind(r) == RegionKind::Workshare => n.stats.sum_ns,
                _ => 0,
            });
            let idle_ns = sum_by(&t.main, &|n| match n.kind {
                NodeKind::Region(r)
                    if matches!(
                        reg.kind(r),
                        RegionKind::ImplicitBarrier
                            | RegionKind::ExplicitBarrier
                            | RegionKind::Taskwait
                    ) =>
                {
                    n.exclusive_ns().max(0) as u64
                }
                _ => 0,
            });
            ThreadLoad {
                tid: t.tid,
                wall_ns: t.main.stats.sum_ns,
                task_exec_ns,
                workshare_ns,
                idle_ns,
            }
        })
        .collect()
}

/// Load-imbalance factor: max thread work over mean thread work
/// (1.0 = perfectly balanced; 0.0 when nobody did any work).
pub fn imbalance_factor(loads: &[ThreadLoad]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let works: Vec<f64> = loads.iter().map(|l| l.work_ns() as f64).collect();
    let mean = works.iter().sum::<f64>() / works.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    works.iter().fold(0.0f64, |a, &b| a.max(b)) / mean
}

/// Render the per-thread table.
pub fn render_loads(loads: &[ThreadLoad]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "tid", "wall", "task exec", "workshare", "sched idle", "work%"
    );
    for l in loads {
        let _ = writeln!(
            out,
            "{:>4} {:>12} {:>12} {:>12} {:>12} {:>6.1}%",
            l.tid,
            crate::format_ns(l.wall_ns),
            crate::format_ns(l.task_exec_ns),
            crate::format_ns(l.workshare_ns),
            crate::format_ns(l.idle_ns),
            100.0 * l.work_ns() as f64 / l.wall_ns.max(1) as f64,
        );
    }
    let _ = writeln!(
        out,
        "imbalance factor (max/mean work): {:.2}",
        imbalance_factor(loads)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionId, TaskIdAllocator, TaskRef};
    use taskprof::{AssignPolicy, Event, TeamReplayer};

    fn regs() -> (RegionId, RegionId, RegionId) {
        let reg = registry();
        (
            reg.register("im-par", RegionKind::Parallel, "t", 0),
            reg.register("im-task", RegionKind::Task, "t", 0),
            reg.register("im-bar", RegionKind::ImplicitBarrier, "t", 0),
        )
    }

    #[test]
    fn detects_perfect_balance_and_skew() {
        let (par, task, bar) = regs();
        let ids = TaskIdAllocator::new();
        // Thread 0 runs 90 ns of tasks, thread 1 runs 10 ns then idles.
        let mut team = TeamReplayer::new(2, par, AssignPolicy::Executing);
        team.apply(0, Event::Enter(bar)).apply(1, Event::Enter(bar));
        let a = ids.alloc();
        team.apply(
            0,
            Event::TaskBegin {
                region: task,
                id: a,
            },
        )
        .advance(90)
        .apply(
            0,
            Event::TaskEnd {
                region: task,
                id: a,
            },
        );
        let b = ids.alloc();
        team.apply(
            1,
            Event::TaskBegin {
                region: task,
                id: b,
            },
        );
        // Only 10ns of work for thread 1; it began at t=90 though — use
        // switch bookkeeping: end at 100.
        team.advance(10)
            .apply(
                1,
                Event::TaskEnd {
                    region: task,
                    id: b,
                },
            )
            .apply(0, Event::Exit(bar))
            .apply(1, Event::Exit(bar));
        let p = team.finish();
        let loads = thread_loads(&p);
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].task_exec_ns, 90);
        assert_eq!(loads[1].task_exec_ns, 10);
        // Thread 1 idled in the barrier: wall 100, task 10.
        assert_eq!(loads[1].idle_ns, 90);
        let f = imbalance_factor(&loads);
        assert!((f - 1.8).abs() < 1e-9, "factor {f}");
        let table = render_loads(&loads);
        assert!(table.contains("imbalance factor"));
        assert!(table.contains("90ns"));
    }

    #[test]
    fn empty_profile_is_safe() {
        assert_eq!(imbalance_factor(&[]), 0.0);
        let loads = thread_loads(&Profile::default());
        assert!(loads.is_empty());
    }

    #[test]
    fn pure_idle_profile_has_zero_factor() {
        let (par, _, bar) = regs();
        let mut team = TeamReplayer::new(2, par, AssignPolicy::Executing);
        team.apply(0, Event::Enter(bar))
            .apply(1, Event::Enter(bar))
            .advance(50)
            .apply(0, Event::Exit(bar))
            .apply(1, Event::Exit(bar));
        // Avoid unused-import warning paths.
        let _ = TaskRef::Implicit;
        let p = team.finish();
        let loads = thread_loads(&p);
        assert_eq!(imbalance_factor(&loads), 0.0);
        assert_eq!(loads[0].idle_ns, 50);
    }
}
