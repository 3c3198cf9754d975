//! Automated detection of the paper's task performance issues.
//!
//! Section II criticizes manual timeline search ("tedious and time
//! consuming. … a method to locate issues automatically on a full
//! application scale is necessary") and Section III lists the issues the
//! measurements must expose:
//!
//! 1. very small tasks → high management overhead,
//! 2. very large tasks → reduced load-balancing effect,
//! 3. task creation concentrated on few threads → creation bottleneck at
//!    scale,
//!
//! plus the derived symptom the case study hunts: scheduling-point time
//! dominating useful work. This module turns the profile metrics into
//! ranked findings.

use crate::agg::AggProfile;
use crate::query::{region_excl_by_kind, stub_time_under_kind, task_stats};
use pomp::{registry, RegionKind};
use taskprof::{NodeKind, Profile};

/// Tunable thresholds.
#[derive(Clone, Copy, Debug)]
pub struct DiagnoseConfig {
    /// Mean instance time below this flags "tasks too small", ns.
    /// The paper's Table I argument: ~1–10 µs tasks drown in management;
    /// ~150 µs tasks are fine. Default 20 µs.
    pub small_task_ns: u64,
    /// A single instance longer than this fraction of the per-thread wall
    /// time flags "tasks too large" (can no longer balance). Default 0.25.
    pub large_task_wall_fraction: f64,
    /// Creation-time share of (creation + task execution) above this flags
    /// creation overhead. Default 0.25 (the case study measured ~3/4).
    pub creation_share: f64,
    /// Non-task time at scheduling points above this fraction of total
    /// wall flags management/idle dominance. Default 0.3.
    pub idle_fraction: f64,
    /// Gini-style imbalance of per-thread creation counts above this (with
    /// more than one thread) flags a single-creator bottleneck.
    /// Default 0.9 (1.0 = one thread creates everything).
    pub creation_skew: f64,
}

impl Default for DiagnoseConfig {
    fn default() -> Self {
        Self {
            small_task_ns: 20_000,
            large_task_wall_fraction: 0.25,
            creation_share: 0.25,
            idle_fraction: 0.3,
            creation_skew: 0.9,
        }
    }
}

/// What was detected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IssueKind {
    /// Section III issue 1: tasks too small, management dominates.
    TasksTooSmall,
    /// Section III issue 2: tasks too large for balancing.
    TasksTooLarge,
    /// Section III issue 3: creation concentrated on few threads.
    CreationBottleneck,
    /// Creation cost rivals task work (the nqueens case-study symptom).
    CreationOverhead,
    /// Scheduling points hold large non-task time (management or idle).
    SchedulingPointsDominate,
}

/// One ranked finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Category.
    pub kind: IssueKind,
    /// 0..1-ish severity used for ranking (how far past the threshold).
    pub severity: f64,
    /// Human-readable explanation with the evidence numbers.
    pub message: String,
}

/// Diagnose a per-thread profile. Findings are sorted by severity.
pub fn diagnose(profile: &Profile, cfg: &DiagnoseConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    if profile.threads.is_empty() {
        return findings;
    }
    let agg = AggProfile::from_profile(profile);
    let reg = registry();
    let wall_per_thread = agg.main.stats.sum_ns as f64 / agg.nthreads as f64;

    // Issues 1 & 2: per-construct instance sizes.
    for s in task_stats(&agg) {
        let name = reg.name(s.region);
        if s.instances == 0 {
            continue;
        }
        if (s.mean_ns as u64) < cfg.small_task_ns {
            let severity = (cfg.small_task_ns as f64 / s.mean_ns.max(1.0))
                .log10()
                .min(4.0)
                / 4.0;
            findings.push(Finding {
                kind: IssueKind::TasksTooSmall,
                severity,
                message: format!(
                    "task '{name}': mean instance time {:.2} µs over {} instances is below \
                     the {:.0} µs granularity threshold — management overhead will dominate \
                     (paper Section III issue 1; consider a cut-off)",
                    s.mean_ns / 1e3,
                    s.instances,
                    cfg.small_task_ns as f64 / 1e3,
                ),
            });
        }
        let max_frac = s.max_ns as f64 / wall_per_thread.max(1.0);
        if max_frac > cfg.large_task_wall_fraction && agg.nthreads > 1 {
            findings.push(Finding {
                kind: IssueKind::TasksTooLarge,
                severity: (max_frac / cfg.large_task_wall_fraction).min(4.0) / 4.0,
                message: format!(
                    "task '{name}': largest instance ({:.2} ms) is {:.0}% of a thread's \
                     wall time — too coarse to balance (paper Section III issue 2)",
                    s.max_ns as f64 / 1e6,
                    100.0 * max_frac,
                ),
            });
        }
    }

    // Creation overhead: exclusive creation time vs. task execution.
    let creation = region_excl_by_kind(&agg, RegionKind::TaskCreate).max(0) as f64;
    let task_time: f64 = agg.task_trees.iter().map(|t| t.stats.sum_ns as f64).sum();
    if task_time > 0.0 {
        let share = creation / (creation + task_time);
        if share > cfg.creation_share {
            findings.push(Finding {
                kind: IssueKind::CreationOverhead,
                severity: share,
                message: format!(
                    "task creation costs {:.0}% of (creation + task execution) — creating \
                     tasks costs nearly as much as running them (Section VI case study; \
                     create fewer, larger tasks)",
                    100.0 * share,
                ),
            });
        }
    }

    // Scheduling-point dominance: non-stub time in barriers + taskwaits.
    let sched_excl = (region_excl_by_kind(&agg, RegionKind::ImplicitBarrier)
        + region_excl_by_kind(&agg, RegionKind::ExplicitBarrier)
        + region_excl_by_kind(&agg, RegionKind::Taskwait))
    .max(0) as f64;
    let stub = (stub_time_under_kind(&agg, RegionKind::ImplicitBarrier)
        + stub_time_under_kind(&agg, RegionKind::ExplicitBarrier)) as f64;
    let _ = stub; // exclusive times already exclude stub children
    let total_wall = agg.main.stats.sum_ns as f64;
    if total_wall > 0.0 {
        let frac = sched_excl / total_wall;
        if frac > cfg.idle_fraction {
            findings.push(Finding {
                kind: IssueKind::SchedulingPointsDominate,
                severity: frac,
                message: format!(
                    "{:.0}% of total thread time sits in scheduling points without \
                     executing tasks — task management and/or starvation (compare runs \
                     across thread counts to distinguish, paper Section VII)",
                    100.0 * frac,
                ),
            });
        }
    }

    // Creation bottleneck: skew of per-thread creation visits.
    if profile.num_threads() > 1 {
        let per_thread: Vec<u64> = profile
            .threads
            .iter()
            .map(|t| {
                let mut v = 0;
                t.main.walk(&mut |_, n| {
                    if let NodeKind::Region(r) = n.kind {
                        if reg.kind(r) == RegionKind::TaskCreate {
                            v += n.stats.visits;
                        }
                    }
                });
                // Creation can also happen inside tasks.
                for tree in &t.task_trees {
                    tree.walk(&mut |_, n| {
                        if let NodeKind::Region(r) = n.kind {
                            if reg.kind(r) == RegionKind::TaskCreate {
                                v += n.stats.visits;
                            }
                        }
                    });
                }
                v
            })
            .collect();
        let total: u64 = per_thread.iter().sum();
        let max = per_thread.iter().copied().max().unwrap_or(0);
        if total > 0 {
            // Skew: how far the busiest creator is above a fair share.
            let fair = total as f64 / per_thread.len() as f64;
            let skew = (max as f64 - fair) / (total as f64 - fair).max(1.0);
            if skew > cfg.creation_skew && total as f64 > fair + 1.0 {
                findings.push(Finding {
                    kind: IssueKind::CreationBottleneck,
                    severity: skew,
                    message: format!(
                        "one thread performed {max} of {total} task creations — a serial \
                         creation bottleneck at scale (paper Section III issue 3; create \
                         tasks from multiple threads or recursively)",
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| b.severity.total_cmp(&a.severity));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionId, TaskIdAllocator};
    use taskprof::{AssignPolicy, Event, TeamReplayer};

    fn regs() -> (RegionId, RegionId, RegionId, RegionId) {
        let reg = registry();
        (
            reg.register("dg-par", RegionKind::Parallel, "t", 0),
            reg.register("dg-task", RegionKind::Task, "t", 0),
            reg.register("dg-create", RegionKind::TaskCreate, "t", 0),
            reg.register("dg-bar", RegionKind::ImplicitBarrier, "t", 0),
        )
    }

    fn has(findings: &[Finding], kind: IssueKind) -> bool {
        findings.iter().any(|f| f.kind == kind)
    }

    #[test]
    fn detects_small_tasks_and_creation_overhead() {
        let (par, task, create, barrier) = regs();
        let ids = TaskIdAllocator::new();
        let mut team = TeamReplayer::new(2, par, AssignPolicy::Executing);
        for tid in 0..2 {
            team.apply(tid, Event::Enter(barrier));
        }
        // Thread 0 creates 100 tasks (1 µs each creation) that run 200 ns
        // each on thread 1.
        for _ in 0..100 {
            let id = ids.alloc();
            team.apply(
                0,
                Event::CreateBegin {
                    create,
                    task_region: task,
                    id,
                },
            )
            .advance(1_000)
            .apply(0, Event::CreateEnd { create, id })
            .apply(1, Event::TaskBegin { region: task, id })
            .advance(200)
            .apply(1, Event::TaskEnd { region: task, id });
        }
        for tid in 0..2 {
            team.apply(tid, Event::Exit(barrier));
        }
        let profile = team.finish();
        let findings = diagnose(&profile, &DiagnoseConfig::default());
        assert!(has(&findings, IssueKind::TasksTooSmall), "{findings:#?}");
        assert!(has(&findings, IssueKind::CreationOverhead), "{findings:#?}");
        assert!(
            has(&findings, IssueKind::CreationBottleneck),
            "{findings:#?}"
        );
        assert!(
            has(&findings, IssueKind::SchedulingPointsDominate),
            "thread 1 idles while thread 0 creates: {findings:#?}"
        );
        // Ranked by severity.
        for w in findings.windows(2) {
            assert!(w[0].severity >= w[1].severity);
        }
    }

    #[test]
    fn detects_large_tasks() {
        let (par, task, _create, barrier) = regs();
        let ids = TaskIdAllocator::new();
        let mut team = TeamReplayer::new(2, par, AssignPolicy::Executing);
        for tid in 0..2 {
            team.apply(tid, Event::Enter(barrier));
        }
        // One giant task (80 ms) and one small; thread 1 idles.
        let a = ids.alloc();
        team.apply(
            0,
            Event::TaskBegin {
                region: task,
                id: a,
            },
        )
        .advance(80_000_000)
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
        )
        .advance(1_000_000)
        .apply(
            1,
            Event::TaskEnd {
                region: task,
                id: b,
            },
        );
        for tid in 0..2 {
            team.apply(tid, Event::Exit(barrier));
        }
        let profile = team.finish();
        let findings = diagnose(&profile, &DiagnoseConfig::default());
        assert!(has(&findings, IssueKind::TasksTooLarge), "{findings:#?}");
        assert!(!has(&findings, IssueKind::TasksTooSmall));
    }

    #[test]
    fn healthy_profile_yields_no_findings() {
        let (par, task, _create, barrier) = regs();
        let ids = TaskIdAllocator::new();
        let mut team = TeamReplayer::new(2, par, AssignPolicy::Executing);
        for tid in 0..2 {
            team.apply(tid, Event::Enter(barrier));
        }
        // Both threads run a balanced set of 100 µs tasks back-to-back.
        for _ in 0..8 {
            for tid in 0..2 {
                let id = ids.alloc();
                team.apply(tid, Event::TaskBegin { region: task, id });
            }
            team.advance(100_000);
            // End both tasks (each thread has exactly one running).
            let n = ids.allocated();
            team.apply(
                0,
                Event::TaskEnd {
                    region: task,
                    id: pomp::TaskId::from_raw(n - 1).unwrap(),
                },
            );
            team.apply(
                1,
                Event::TaskEnd {
                    region: task,
                    id: pomp::TaskId::from_raw(n).unwrap(),
                },
            );
        }
        for tid in 0..2 {
            team.apply(tid, Event::Exit(barrier));
        }
        let profile = team.finish();
        let findings = diagnose(&profile, &DiagnoseConfig::default());
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn empty_profile_is_silent() {
        let findings = diagnose(&Profile::default(), &DiagnoseConfig::default());
        assert!(findings.is_empty());
    }
}
