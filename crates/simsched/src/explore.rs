//! Schedule exploration: many schedules, one set of invariants.
//!
//! [`explore_seeds`] samples the schedule space with a seeded PRNG per
//! run; [`explore_dfs`] enumerates it exhaustively for small graphs by
//! branching on every recorded decision (bounded by a schedule budget).
//! Both check every run with the full invariant suite of
//! [`crate::invariants`] and additionally require the schedule-invariant
//! [`Fingerprint`] to be identical across all explored schedules.

use crate::invariants::{check_differential, check_profile, fingerprint, Fingerprint, Violation};
use crate::run::{run_workload, SimConfig, SimRun};
use crate::workloads::TreeWorkload;
use std::collections::HashSet;

/// Outcome of an exploration.
#[derive(Debug)]
pub struct ExploreReport {
    /// Number of schedules executed.
    pub runs: usize,
    /// Number of *distinct* schedules seen (distinct decision traces).
    pub distinct_schedules: usize,
    /// All violations, tagged with the schedule that produced them.
    pub violations: Vec<Violation>,
    /// The common fingerprint (of the first run) — `None` if nothing ran.
    pub fingerprint: Option<Fingerprint>,
}

impl ExploreReport {
    /// True when every run passed every check.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

fn check_run(
    run: &SimRun,
    workload: &TreeWorkload,
    nthreads: usize,
    reference: &mut Option<Fingerprint>,
    tag: &str,
    violations: &mut Vec<Violation>,
) {
    let mut found = check_profile(&run.profile, workload, nthreads);
    found.extend(check_differential(run));
    let fp = fingerprint(&run.profile);
    match reference {
        None => *reference = Some(fp),
        Some(expected) => {
            if *expected != fp {
                found.push(Violation {
                    context: "fingerprint".to_string(),
                    message: format!("schedule-variant profile: expected {expected:?}, got {fp:?}"),
                });
            }
        }
    }
    for mut v in found {
        v.context = format!("{tag}/{}", v.context);
        violations.push(v);
    }
}

/// Run `workload` once per seed in `seeds` and check all invariants,
/// including fingerprint equality across every seed.
pub fn explore_seeds(
    workload: &TreeWorkload,
    nthreads: usize,
    seeds: impl IntoIterator<Item = u64>,
) -> ExploreReport {
    let mut violations = Vec::new();
    let mut reference = None;
    let mut traces = HashSet::new();
    let mut runs = 0;
    for seed in seeds {
        let run = run_workload(workload, &SimConfig::seeded(nthreads, seed));
        runs += 1;
        traces.insert(run.trace.clone());
        check_run(
            &run,
            workload,
            nthreads,
            &mut reference,
            &format!("seed{seed}"),
            &mut violations,
        );
    }
    ExploreReport {
        runs,
        distinct_schedules: traces.len(),
        violations,
        fingerprint: reference,
    }
}

/// Exhaustively enumerate schedules by depth-first search over the
/// decision trace: run a script, then branch on every decision the run
/// made beyond the script with every untaken alternative. Stops after
/// `max_schedules` runs (the space is exponential); returns the report
/// plus whether the space was exhausted.
pub fn explore_dfs(
    workload: &TreeWorkload,
    nthreads: usize,
    max_schedules: usize,
) -> (ExploreReport, bool) {
    let mut violations = Vec::new();
    let mut reference = None;
    let mut seen_traces = HashSet::new();
    let mut runs = 0;
    // Frontier of choice scripts still to try; starts with the empty
    // script (pure round-robin baseline).
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    let mut exhausted = true;
    while let Some(script) = frontier.pop() {
        if runs >= max_schedules {
            exhausted = false;
            break;
        }
        let script_len = script.len();
        let run = run_workload(workload, &SimConfig::scripted(nthreads, script));
        runs += 1;
        if !seen_traces.insert(run.trace.clone()) {
            // An alternative prefix converged onto an already-checked
            // schedule; nothing new to branch on.
            continue;
        }
        check_run(
            &run,
            workload,
            nthreads,
            &mut reference,
            &format!("dfs{}", runs - 1),
            &mut violations,
        );
        // Branch: for every decision made beyond the fixed script, queue
        // the prefix with each untaken alternative.
        let taken: Vec<usize> = run.trace.iter().map(|c| c.taken).collect();
        for i in script_len..run.trace.len() {
            for alt in 0..run.trace[i].options {
                if alt != run.trace[i].taken {
                    let mut branch = taken[..i].to_vec();
                    branch.push(alt);
                    frontier.push(branch);
                }
            }
        }
    }
    (
        ExploreReport {
            runs,
            distinct_schedules: seen_traces.len(),
            violations,
            fingerprint: reference,
        },
        exhausted,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn seeds_explore_cleanly_and_diversely() {
        let w = workloads::flat(4);
        let report = explore_seeds(&w, 2, 0..16);
        assert_eq!(report.runs, 16);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(
            report.distinct_schedules > 1,
            "16 seeds produced a single schedule"
        );
    }

    #[test]
    fn dfs_exhausts_a_tiny_graph() {
        let w = workloads::flat(1);
        let (report, exhausted) = explore_dfs(&w, 2, 500);
        assert!(exhausted, "tiny graph should exhaust within 500 schedules");
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.distinct_schedules >= 2);
    }

    #[test]
    fn dfs_respects_the_budget() {
        let w = workloads::fib_like(2);
        let (report, _) = explore_dfs(&w, 2, 10);
        assert!(report.runs <= 10);
        assert!(report.is_clean(), "{:?}", report.violations);
    }
}
