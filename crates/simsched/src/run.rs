//! One simulated run: workload × schedule → profile + replay + trace.

use crate::scheduler::{Choice, SimScheduler, DEFAULT_SPAWN_COST_NS};
use crate::workloads::TreeWorkload;
use std::sync::Arc;
use taskprof::{AssignPolicy, ProfMonitor, Replayer, ThreadSnapshot};
use taskrt::Team;

/// Where scheduling decisions come from.
#[derive(Clone, Debug)]
pub enum Choices {
    /// Every choice from a splitmix64 PRNG over this seed.
    Seed(u64),
    /// Replay this choice script, then fair round-robin (bounded DFS).
    Script(Vec<usize>),
}

/// Configuration of one simulated run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Simulated team size.
    pub nthreads: usize,
    /// Virtual cost charged per task creation.
    pub spawn_cost: u64,
    /// Decision source.
    pub choices: Choices,
}

impl SimConfig {
    /// Seeded run on `nthreads` simulated threads with the default spawn
    /// cost.
    pub fn seeded(nthreads: usize, seed: u64) -> Self {
        Self {
            nthreads,
            spawn_cost: DEFAULT_SPAWN_COST_NS,
            choices: Choices::Seed(seed),
        }
    }

    /// Scripted run (bounded DFS) on `nthreads` simulated threads.
    pub fn scripted(nthreads: usize, script: Vec<usize>) -> Self {
        Self {
            nthreads,
            spawn_cost: DEFAULT_SPAWN_COST_NS,
            choices: Choices::Script(script),
        }
    }
}

/// Everything one simulated run produced.
#[derive(Debug)]
pub struct SimRun {
    /// The configuration that produced this run.
    pub config: SimConfig,
    /// The profiler's output, measured incrementally during the run.
    pub profile: taskprof::Profile,
    /// Per-thread snapshots obtained by *replaying* the recorded event
    /// stream offline — must agree with `profile` (differential check).
    pub replayed: Vec<ThreadSnapshot>,
    /// The per-thread streams the profiler's own edge log recorded
    /// (sorted by tid) — the input to `critpath::TaskDag::from_streams`.
    pub streams: Vec<(usize, taskprof::EdgeStream)>,
    /// The schedule: every recorded decision, in order.
    pub trace: Vec<Choice>,
}

/// Execute `workload` once under full simulation: deterministic scheduler,
/// virtual clocks, and the real profiler recording its edge log — the
/// transcript the differential check replays is the one users get.
/// Panics if a task body panics (workloads are expected not to).
pub fn run_workload(workload: &TreeWorkload, config: &SimConfig) -> SimRun {
    let sched = match &config.choices {
        Choices::Seed(seed) => SimScheduler::new(*seed),
        Choices::Script(script) => SimScheduler::scripted(script.clone()),
    }
    .with_spawn_cost(config.spawn_cost);
    let clock = sched.clock().clone();
    let sched = Arc::new(sched);
    let team = Team::new(config.nthreads).with_policy(sched.clone());

    let prof = ProfMonitor::builder()
        .clock(clock.clone())
        .record_task_edges()
        .build()
        .expect("profiler config is valid");
    workload.run(&team, &prof, &clock).unwrap();

    let profile = prof.take_profile().expect("region finished");
    let streams = prof.take_edge_streams().expect("region finished");
    let replayed = streams
        .iter()
        .map(|(tid, stream)| {
            let mut r = Replayer::new(workload.parallel_region(), AssignPolicy::Executing);
            r.run(stream.events());
            r.finish(*tid)
        })
        .collect();
    SimRun {
        config: config.clone(),
        profile,
        replayed,
        streams,
        trace: sched.take_trace(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn same_seed_same_profile() {
        let w = workloads::flat(4);
        let cfg = SimConfig::seeded(2, 7);
        let a = run_workload(&w, &cfg);
        let b = run_workload(&w, &cfg);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.profile.num_threads(), 2);
        for (ta, tb) in a.profile.threads.iter().zip(&b.profile.threads) {
            assert_eq!(ta.main, tb.main);
            assert_eq!(ta.task_trees, tb.task_trees);
            assert_eq!(ta.max_live_trees, tb.max_live_trees);
        }
    }

    #[test]
    fn different_seeds_usually_differ() {
        let w = workloads::flat(6);
        let a = run_workload(&w, &SimConfig::seeded(2, 1));
        let b = run_workload(&w, &SimConfig::seeded(2, 2));
        // Traces are overwhelmingly likely to differ on a 6-task graph;
        // the *invariants* agreeing anyway is what explore() checks.
        assert_ne!(a.trace, b.trace);
    }
}
