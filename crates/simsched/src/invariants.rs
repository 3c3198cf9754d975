//! Profile-invariant checking.
//!
//! Three families of checks run after every simulated schedule:
//!
//! 1. **Single-profile consistency** ([`check_profile`]) — properties any
//!    correct profile of any schedule must have: non-negative exclusive
//!    time at every node under the `Executing` attribution policy (the
//!    paper's Fig. 3 shows only `Creating` may go negative), statistics
//!    sanity, the per-thread stub/task-tree accounting identity of Fig. 5
//!    (time in stub nodes of a construct equals time in its aggregated
//!    task tree), and the Table II bound on concurrently live instance
//!    trees.
//! 2. **Differential agreement** ([`check_differential`]) — the profile
//!    measured incrementally during the run must match the profile
//!    obtained by replaying the recorded event stream offline through
//!    [`taskprof::Replayer`].
//! 3. **Schedule invariance** ([`fingerprint`]) — quantities that must
//!    not depend on scheduling at all under virtual time: instance
//!    counts, per-construct totals and min/max instance durations, and
//!    region visit counts (task-creation regions excluded: a policy may
//!    run a task undeferred, which skips its creation region).

use crate::run::SimRun;
use crate::workloads::TreeWorkload;
use pomp::{registry, RegionId, RegionKind};
use std::collections::BTreeMap;
use taskprof::{NodeKind, Profile, SnapNode, ThreadSnapshot};

/// One violated invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Where the violation was found (thread, node path, ...).
    pub context: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.context, self.message)
    }
}

fn violation(out: &mut Vec<Violation>, context: impl Into<String>, message: String) {
    out.push(Violation {
        context: context.into(),
        message,
    });
}

fn node_label(kind: NodeKind) -> String {
    match kind {
        NodeKind::Region(r) => registry().name(r),
        NodeKind::Stub(r) => format!("stub:{}", registry().name(r)),
        NodeKind::Param(p, v) => format!("{}={v}", registry().param_name(p)),
        NodeKind::Truncated => "<truncated>".to_string(),
    }
}

/// Walk a tree checking per-node statistics sanity and the Fig. 3
/// non-negativity of exclusive time (always true under `Executing`
/// attribution — the profiler never charges a child more than its
/// parent's span).
fn check_tree(tree: &SnapNode, ctx: &str, out: &mut Vec<Violation>) {
    tree.walk(&mut |_, node| {
        let label = node_label(node.kind);
        let s = &node.stats;
        if node.exclusive_ns() < 0 {
            violation(
                out,
                format!("{ctx}/{label}"),
                format!(
                    "negative exclusive time {} ns (inclusive {}, children {})",
                    node.exclusive_ns(),
                    s.sum_ns,
                    s.sum_ns as i64 - node.exclusive_ns()
                ),
            );
        }
        if s.samples > s.visits {
            violation(
                out,
                format!("{ctx}/{label}"),
                format!("more samples ({}) than visits ({})", s.samples, s.visits),
            );
        }
        if s.samples == 0 {
            if s.min_ns != u64::MAX || s.max_ns != 0 || s.sum_ns != 0 {
                violation(
                    out,
                    format!("{ctx}/{label}"),
                    format!(
                        "unsampled node has nonempty durations (min {}, max {}, sum {})",
                        s.min_ns, s.max_ns, s.sum_ns
                    ),
                );
            }
        } else {
            if s.min_ns > s.max_ns {
                violation(
                    out,
                    format!("{ctx}/{label}"),
                    format!("min {} > max {}", s.min_ns, s.max_ns),
                );
            }
            if s.sum_ns < s.max_ns {
                violation(
                    out,
                    format!("{ctx}/{label}"),
                    format!("sum {} < max {}", s.sum_ns, s.max_ns),
                );
            }
        }
    });
}

/// Sum stub statistics per construct over one thread's forest.
fn stub_totals(thread: &ThreadSnapshot) -> BTreeMap<RegionId, (u64, u64)> {
    let mut totals: BTreeMap<RegionId, (u64, u64)> = BTreeMap::new();
    let mut collect = |tree: &SnapNode| {
        tree.walk(&mut |_, node| {
            if let NodeKind::Stub(r) = node.kind {
                let e = totals.entry(r).or_insert((0, 0));
                e.0 += node.stats.sum_ns;
                e.1 += node.stats.visits;
            }
        });
    };
    collect(&thread.main);
    for tree in &thread.task_trees {
        collect(tree);
    }
    totals
}

/// Check one profile against the schedule-independent consistency rules.
/// `workload` supplies the structural expectations (instance count,
/// live-tree bound).
pub fn check_profile(
    profile: &Profile,
    workload: &TreeWorkload,
    nthreads: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if profile.num_threads() != nthreads {
        violation(
            &mut out,
            "profile",
            format!(
                "{} thread snapshots, expected {nthreads}",
                profile.num_threads()
            ),
        );
        return out;
    }

    let bound = workload.live_tree_bound();
    for thread in &profile.threads {
        let ctx = format!("tid{}", thread.tid);
        check_tree(&thread.main, &ctx, &mut out);
        for tree in &thread.task_trees {
            check_tree(tree, &ctx, &mut out);
        }

        // Fig. 5 identity: per construct, the time the thread spent inside
        // task fragments (stub nodes at scheduling points) equals the time
        // accounted in its aggregated task tree.
        let stubs = stub_totals(thread);
        for tree in &thread.task_trees {
            let NodeKind::Region(r) = tree.kind else {
                violation(&mut out, &ctx, format!("task tree root is {:?}", tree.kind));
                continue;
            };
            let (stub_sum, stub_visits) = stubs.get(&r).copied().unwrap_or((0, 0));
            if stub_sum != tree.stats.sum_ns {
                violation(
                    &mut out,
                    format!("{ctx}/{}", registry().name(r)),
                    format!(
                        "stub time {} ns != task tree time {} ns (Fig. 5 identity)",
                        stub_sum, tree.stats.sum_ns
                    ),
                );
            }
            if stub_visits < tree.stats.samples {
                violation(
                    &mut out,
                    format!("{ctx}/{}", registry().name(r)),
                    format!(
                        "{} stub fragments < {} completed instances",
                        stub_visits, tree.stats.samples
                    ),
                );
            }
        }
        for (&r, &(stub_sum, _)) in &stubs {
            if thread.task_tree(r).is_none() && stub_sum > 0 {
                violation(
                    &mut out,
                    format!("{ctx}/{}", registry().name(r)),
                    format!("{stub_sum} ns in stubs but no task tree for the construct"),
                );
            }
        }

        // Table II bound: tied tasks can only stack as deep as the graph
        // nests.
        if thread.max_live_trees > bound {
            violation(
                &mut out,
                &ctx,
                format!(
                    "max_live_trees {} exceeds the workload nesting bound {}",
                    thread.max_live_trees, bound
                ),
            );
        }
        if thread.shed_instances != 0 {
            violation(
                &mut out,
                &ctx,
                format!(
                    "{} instances shed without a configured cap",
                    thread.shed_instances
                ),
            );
        }
        if !thread.diagnostics.is_empty() {
            violation(
                &mut out,
                &ctx,
                format!("self-healing diagnostics present: {:?}", thread.diagnostics),
            );
        }
    }

    // Every instance completes exactly once, on exactly one thread.
    let task = workload.task_region();
    let completed: u64 = profile
        .threads
        .iter()
        .filter_map(|t| t.task_tree(task))
        .map(|tree| tree.stats.samples)
        .sum();
    let expected = workload.expected_instances(nthreads);
    if completed != expected {
        violation(
            &mut out,
            "profile",
            format!("{completed} completed instances, workload creates {expected}"),
        );
    }
    if profile.aborted_instances() != 0 {
        violation(
            &mut out,
            "profile",
            format!("{} aborted instances", profile.aborted_instances()),
        );
    }
    out
}

/// Compare the incrementally measured profile against the offline replay
/// of the recorded event stream. Arena capacity is exempt (an allocation
/// strategy, not a measurement); everything else must agree exactly.
pub fn check_differential(run: &SimRun) -> Vec<Violation> {
    let mut out = Vec::new();
    if run.replayed.len() != run.profile.threads.len() {
        violation(
            &mut out,
            "differential",
            format!(
                "{} replayed streams vs {} profiled threads",
                run.replayed.len(),
                run.profile.threads.len()
            ),
        );
        return out;
    }
    for (measured, replayed) in run.profile.threads.iter().zip(&run.replayed) {
        let ctx = format!("differential/tid{}", measured.tid);
        if measured.tid != replayed.tid {
            violation(
                &mut out,
                &ctx,
                format!("tid mismatch: replayed {}", replayed.tid),
            );
            continue;
        }
        if measured.main != replayed.main {
            violation(
                &mut out,
                &ctx,
                "main tree: live profiler and event replay disagree".to_string(),
            );
        }
        if measured.task_trees != replayed.task_trees {
            violation(
                &mut out,
                &ctx,
                "task trees: live profiler and event replay disagree".to_string(),
            );
        }
        if measured.max_live_trees != replayed.max_live_trees {
            violation(
                &mut out,
                &ctx,
                format!(
                    "max_live_trees: measured {} vs replayed {}",
                    measured.max_live_trees, replayed.max_live_trees
                ),
            );
        }
    }
    out
}

/// The schedule-invariant digest of a profile: equal across *all*
/// schedules of the same workload under virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Completed task instances, team-wide.
    pub instances: u64,
    /// Per task construct: (region, samples, sum, min, max) aggregated
    /// over threads.
    pub task_stats: Vec<(RegionId, u64, u64, u64, u64)>,
    /// Team-wide visit counts per region, excluding task-creation regions
    /// (whose visits depend on the defer-vs-undeferred choice) — stub,
    /// parameter, and truncated nodes are not regions and not counted.
    pub region_visits: Vec<(RegionId, u64)>,
}

/// Compute the schedule-invariant fingerprint of a profile.
pub fn fingerprint(profile: &Profile) -> Fingerprint {
    let mut tasks: BTreeMap<RegionId, (u64, u64, u64, u64)> = BTreeMap::new();
    let mut visits: BTreeMap<RegionId, u64> = BTreeMap::new();
    for thread in &profile.threads {
        for tree in &thread.task_trees {
            if let NodeKind::Region(r) = tree.kind {
                let e = tasks.entry(r).or_insert((0, 0, u64::MAX, 0));
                e.0 += tree.stats.samples;
                e.1 += tree.stats.sum_ns;
                e.2 = e.2.min(tree.stats.min_ns);
                e.3 = e.3.max(tree.stats.max_ns);
            }
        }
        let mut count = |tree: &SnapNode, skip_root: bool| {
            tree.walk(&mut |depth, node| {
                if skip_root && depth == 0 {
                    return;
                }
                if let NodeKind::Region(r) = node.kind {
                    if registry().kind(r) != RegionKind::TaskCreate {
                        *visits.entry(r).or_insert(0) += node.stats.visits;
                    }
                }
            });
        };
        count(&thread.main, false);
        for tree in &thread.task_trees {
            // Task-tree roots are counted through `samples` in task_stats;
            // their `visits` equal samples anyway, but keeping them out of
            // the region map avoids double bookkeeping.
            count(tree, true);
        }
    }
    Fingerprint {
        instances: tasks.values().map(|t| t.0).sum(),
        task_stats: tasks
            .into_iter()
            .map(|(r, (samples, sum, min, max))| (r, samples, sum, min, max))
            .collect(),
        region_visits: visits.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_workload, SimConfig};
    use crate::workloads;

    #[test]
    fn clean_run_has_no_violations() {
        let w = workloads::fib_like(3);
        let run = run_workload(&w, &SimConfig::seeded(2, 11));
        let v = check_profile(&run.profile, &w, 2);
        assert!(v.is_empty(), "{v:?}");
        let d = check_differential(&run);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn fingerprints_agree_across_seeds() {
        let w = workloads::mixed();
        let base = fingerprint(&run_workload(&w, &SimConfig::seeded(3, 0)).profile);
        for seed in 1..6 {
            let fp = fingerprint(&run_workload(&w, &SimConfig::seeded(3, seed)).profile);
            assert_eq!(base, fp, "seed {seed} diverged");
        }
        assert_eq!(base.instances, w.expected_instances(3));
    }

    #[test]
    fn tampered_profile_is_caught() {
        let w = workloads::flat(3);
        let mut run = run_workload(&w, &SimConfig::seeded(2, 5));
        // Corrupt one node: inflate a task tree's total without touching
        // its stubs — the Fig. 5 identity must flag it.
        let t = run
            .profile
            .threads
            .iter_mut()
            .find(|t| !t.task_trees.is_empty())
            .expect("someone ran a task");
        t.task_trees[0].stats.sum_ns += 1;
        let v = check_profile(&run.profile, &w, 2);
        assert!(
            v.iter().any(|v| v.message.contains("Fig. 5")),
            "tampering went unnoticed: {v:?}"
        );
    }
}
