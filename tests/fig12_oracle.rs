//! The profiler against the paper's Fig. 12 written the dumbest way
//! (`test_util::fig12`): node for node — kind, visits, samples,
//! sum/min/max, aborted, child order — and `max_live_trees`, over
//! generated execution plans, hand-written streams with aborts and
//! unfinished instances, and every thread of seeded simulated runs. The
//! figure streams of `tests/event_streams.rs`, `tests/fig5_stub.rs` and
//! `tests/golden_profiles.rs` replay through the same check.

use pomp::{TaskIdAllocator, TaskRef};
use simsched::workloads::{divisible, fib_like, flat, mixed};
use simsched::{run_workload, SimConfig};
use taskprof::{AssignPolicy, Event, Replayer};
use test_util::body::{body, emit, Sink, BARRIER, FOO, PAR, TASK_A, TASK_B, TW};
use test_util::fig12::{profile_of, replay_checked, Oracle};
use test_util::prop::{check, Gen};

#[test]
fn generated_plans_profile_as_fig12_says() {
    let gen = |g: &mut Gen| g.vec(1..6, |g| body(g, 4));
    check("generated_plans_profile_as_fig12_says", 512, gen, |plan| {
        let ids = TaskIdAllocator::new();
        let mut both = (
            Replayer::new(PAR, AssignPolicy::Executing),
            Oracle::new(PAR),
        );
        let mut max_live = 0;
        both.apply(Event::Enter(BARRIER));
        emit(&mut both, &ids, &plan, &mut max_live);
        both.apply(Event::Advance(1));
        both.apply(Event::Exit(BARRIER));
        let (replayer, oracle) = both;
        let oracle = oracle.finish();
        assert_eq!(oracle.max_live_trees, max_live);
        assert_eq!(profile_of(&replayer.finish(0)), oracle);
    });
}

#[test]
fn aborts_and_instances_left_open_profile_as_fig12_says() {
    let ids = TaskIdAllocator::new();
    let [t1, t2, t3, t4, t5] = [(); 5].map(|_| ids.alloc());
    let snap = replay_checked(
        PAR,
        [
            Event::Enter(BARRIER),
            Event::TaskBegin {
                region: TASK_A,
                id: t1,
            },
            Event::Advance(3),
            Event::Enter(FOO),
            Event::Enter(TW),
            Event::Advance(2),
            // t1 suspends inside two regions; t2 runs and dies inside one.
            Event::TaskBegin {
                region: TASK_B,
                id: t2,
            },
            Event::Advance(4),
            Event::Enter(FOO),
            Event::Advance(5),
            Event::TaskAbort {
                region: TASK_B,
                id: t2,
            },
            // t3 begins from the implicit task and aborts t1, which is
            // suspended, before it ends itself.
            Event::Advance(1),
            Event::TaskBegin {
                region: TASK_A,
                id: t3,
            },
            Event::Advance(2),
            Event::TaskAbort {
                region: TASK_A,
                id: t1,
            },
            Event::Advance(1),
            Event::Switch(TaskRef::Explicit(t3)),
            Event::Advance(6),
            Event::TaskEnd {
                region: TASK_A,
                id: t3,
            },
            // t4 is left suspended in a region and t5 running in one: the
            // region end force-closes both.
            Event::TaskBegin {
                region: TASK_B,
                id: t4,
            },
            Event::Enter(FOO),
            Event::Advance(7),
            Event::TaskBegin {
                region: TASK_A,
                id: t5,
            },
            Event::Enter(TW),
            Event::Advance(8),
        ],
    );
    assert_eq!(snap.diagnostics.len(), 2, "{:?}", snap.diagnostics);
    let aborted: u64 = snap.task_trees.iter().map(|t| t.stats.aborted).sum();
    assert_eq!(aborted, 4);
}

#[test]
fn every_thread_of_seeded_simulated_runs_profiles_as_fig12_says() {
    for (threads, workload) in [
        (2, fib_like(3)),
        (3, flat(6)),
        (2, mixed()),
        (2, divisible(3)),
    ] {
        for seed in 0..32 {
            let run = run_workload(&workload, &SimConfig::seeded(threads, seed));
            for (tid, stream) in &run.streams {
                let checked = replay_checked(workload.parallel_region(), stream.events());
                let live = &run.profile.threads[*tid];
                assert_eq!(
                    profile_of(&checked),
                    profile_of(live),
                    "{} seed {seed} tid {tid}",
                    workload.name()
                );
            }
        }
    }
}
