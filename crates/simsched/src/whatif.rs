//! Replay-checked what-if validation.
//!
//! `critpath`'s what-if engine predicts the makespan of a run with one
//! region K× faster by re-solving the recorded DAG with scaled weights.
//! Under this crate's simulation the prediction is *checkable*: the
//! scheduler's decisions are purely structural — who runs next, defer vs.
//! undeferred, steal victims all come from the seed's choice stream, and
//! clock values never feed back into scheduling — so running the *same
//! graph with the region's work actually divided by K* under the same
//! seed reproduces the identical schedule (identical choice trace), and
//! its measured makespan must equal the prediction exactly. Any
//! discrepancy is a bug in the DAG model, not noise.
//!
//! [`validate_whatif`] performs that experiment end to end; the
//! `tests/critpath_whatif.rs` suite asserts exactness across workloads
//! and speedup factors.

use crate::run::{run_workload, SimConfig, SimRun};
use crate::workloads::TreeWorkload;
use critpath::{DagError, DagOptions, TaskDag};
use pomp::RegionId;

/// The [`DagOptions`] matching a simulated run: the scheduler's spawn
/// cost is charged into the creator's open frame on the undeferred path,
/// so the DAG builder must carve it back out for region attribution to
/// match a replay.
pub fn dag_options(config: &SimConfig) -> DagOptions {
    DagOptions {
        undeferred_spawn_cost: Some(config.spawn_cost),
    }
}

/// Build the critical-path DAG of a completed simulated run.
pub fn analyze(run: &SimRun, workload: &TreeWorkload) -> Result<TaskDag, DagError> {
    TaskDag::from_streams(
        &run.streams,
        workload.parallel_region(),
        &dag_options(&run.config),
    )
}

/// Outcome of one prediction-vs-replay experiment.
#[derive(Clone, Copy, Debug)]
pub struct WhatIfValidation {
    /// The region hypothetically (and then actually) sped up.
    pub region: RegionId,
    /// The speedup factor K.
    pub speedup: u64,
    /// Makespan of the baseline run.
    pub baseline_makespan_ns: u64,
    /// What the DAG model predicts for the sped-up run.
    pub predicted_makespan_ns: u64,
    /// What the sped-up run actually measured under the same seed.
    pub replayed_makespan_ns: u64,
    /// Predicted logical span of the sped-up run (lower bound on any
    /// schedule).
    pub predicted_span_ns: u64,
    /// Whether baseline and sped-up runs took the identical choice trace
    /// (the premise of the exactness argument).
    pub traces_match: bool,
}

impl WhatIfValidation {
    /// Did the replay reproduce the prediction exactly?
    pub fn exact(&self) -> bool {
        self.predicted_makespan_ns == self.replayed_makespan_ns && self.traces_match
    }
}

/// Run `workload` under `config`, predict the effect of making `region`
/// `speedup`× faster, then *actually* run the sped-up graph under the
/// same seed and measure. Returns `None` when the sped-up graph is not
/// representable in integer virtual time (some affected work amount not
/// divisible by `speedup` — see [`TreeWorkload::speedup_region`]).
///
/// # Panics
///
/// Panics if either run's event streams do not assemble into a DAG —
/// that would be an edge-log or runtime bug, not a caller error.
pub fn validate_whatif(
    workload: &TreeWorkload,
    config: &SimConfig,
    region: RegionId,
    speedup: u64,
) -> Option<WhatIfValidation> {
    let sped_workload = workload.speedup_region(region, speedup)?;
    let baseline = run_workload(workload, config);
    let dag = analyze(&baseline, workload).expect("baseline streams form a DAG");
    let prediction = dag.what_if(region, speedup);
    let rerun = run_workload(&sped_workload, config);
    let rerun_dag = analyze(&rerun, &sped_workload).expect("sped-up streams form a DAG");
    Some(WhatIfValidation {
        region,
        speedup,
        baseline_makespan_ns: prediction.baseline_makespan_ns,
        predicted_makespan_ns: prediction.predicted_makespan_ns,
        replayed_makespan_ns: rerun_dag.makespan_ns(),
        predicted_span_ns: prediction.predicted_span_ns,
        traces_match: baseline.trace == rerun.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn divisible_tree() -> TreeWorkload {
        crate::workloads::divisible(3)
    }

    #[test]
    fn prediction_matches_replay_exactly() {
        let w = divisible_tree();
        let cfg = SimConfig::seeded(2, 11);
        for k in [2, 3, 5] {
            let v = validate_whatif(&w, &cfg, w.task_region(), k).expect("divisible by 60");
            assert!(v.traces_match, "K={k}: schedule changed under scaling");
            assert_eq!(
                v.predicted_makespan_ns, v.replayed_makespan_ns,
                "K={k}: prediction diverged from replay"
            );
            assert!(v.predicted_makespan_ns <= v.baseline_makespan_ns);
            assert!(v.predicted_span_ns <= v.predicted_makespan_ns);
            assert!(v.exact());
        }
    }

    #[test]
    fn indivisible_speedup_is_refused() {
        let w = divisible_tree();
        let cfg = SimConfig::seeded(2, 11);
        assert!(validate_whatif(&w, &cfg, w.task_region(), 7).is_none());
    }
}
