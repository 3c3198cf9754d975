//! Stress: every construct the runtime offers, mixed in one profiled
//! parallel region, across repetitions — shaking out interactions between
//! tasks, taskwaits, singles, worksharing loops, and barriers under the
//! profiler's strict nesting assertions.

use pomp::CountingMonitor;
use std::sync::atomic::{AtomicU64, Ordering};
use taskprof::{NodeKind, ProfMonitor};
use taskrt::{
    barrier_region, taskwait_region, ForConstruct, ParallelConstruct, SingleConstruct,
    TaskConstruct, Team,
};

struct Fixture {
    par: ParallelConstruct,
    single: SingleConstruct,
    task: TaskConstruct,
    nested: TaskConstruct,
    floop: ForConstruct,
    tw: pomp::RegionId,
    bar: pomp::RegionId,
}

fn fixture() -> Fixture {
    Fixture {
        par: ParallelConstruct::new("mix!parallel"),
        single: SingleConstruct::new("mix!single"),
        task: TaskConstruct::new("mix_task"),
        nested: TaskConstruct::new("mix_nested"),
        floop: ForConstruct::new("mix!for"),
        tw: taskwait_region("mix!taskwait"),
        bar: barrier_region("mix!barrier"),
    }
}

fn run_mixed<M: pomp::Monitor>(monitor: &M, threads: usize, rounds: usize) -> u64 {
    let f = fixture();
    let acc = AtomicU64::new(0);
    let (fx, acc_ref) = (&f, &acc);
    Team::new(threads).parallel(monitor, &f.par, |ctx| {
        for round in 0..rounds {
            // Phase 1: worksharing.
            ctx.for_dynamic(&fx.floop, 0..64, 4, |i| {
                acc_ref.fetch_add(i as u64, Ordering::Relaxed);
            });
            // Phase 2: single creator spawns nested task trees.
            ctx.single(&fx.single, |ctx| {
                for _ in 0..8 {
                    ctx.task(&fx.task, move |ctx| {
                        for _ in 0..4 {
                            ctx.task(&fx.nested, move |_| {
                                acc_ref.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                        ctx.taskwait(fx.tw);
                        acc_ref.fetch_add(100, Ordering::Relaxed);
                    });
                }
            });
            // Phase 3: everyone spawns, explicit barrier joins.
            ctx.task(&fx.task, move |_| {
                acc_ref.fetch_add(1000, Ordering::Relaxed);
            });
            ctx.barrier(fx.bar);
            // Phase 4: static worksharing.
            ctx.for_static(&fx.floop, 0..threads * 3, 1, |_| {
                acc_ref.fetch_add(7, Ordering::Relaxed);
            });
            let _ = round;
        }
    });
    acc.load(Ordering::Relaxed)
}

fn expected(threads: usize, rounds: usize) -> u64 {
    let per_round = (0..64u64).sum::<u64>()            // for_dynamic
        + 8 * (4 + 100)                                 // nested tasks + parents
        + threads as u64 * 1000                         // per-thread tasks
        + threads as u64 * 3 * 7; // for_static
    per_round * rounds as u64
}

#[test]
fn mixed_constructs_compute_correctly_uninstrumented() {
    for threads in [1, 2, 4] {
        let got = run_mixed(&pomp::NullMonitor, threads, 3);
        assert_eq!(got, expected(threads, 3), "threads = {threads}");
    }
}

#[test]
fn mixed_constructs_profile_cleanly() {
    for threads in [1, 3] {
        let monitor = ProfMonitor::new();
        let got = run_mixed(&monitor, threads, 2);
        assert_eq!(got, expected(threads, 2));
        let profile = monitor.take_profile().expect("no region in flight");
        assert_eq!(profile.num_threads(), threads);
        // Both task constructs appear as aggregate trees somewhere.
        let reg = pomp::registry();
        let task = reg.lookup("mix_task", pomp::RegionKind::Task).unwrap();
        let nested = reg.lookup("mix_nested", pomp::RegionKind::Task).unwrap();
        let count = |r| -> u64 {
            profile
                .threads
                .iter()
                .filter_map(|t| t.task_tree(r))
                .map(|t| t.stats.samples)
                .sum()
        };
        assert_eq!(count(task), (8 + threads as u64) * 2);
        assert_eq!(count(nested), 32 * 2);
        // The workshare region shows up in the main trees.
        let ws = reg.lookup("mix!for", pomp::RegionKind::Workshare).unwrap();
        let ws_visits: u64 = profile
            .threads
            .iter()
            .map(|t| {
                let mut v = 0;
                t.main.walk(&mut |_, n| {
                    if n.kind == NodeKind::Region(ws) {
                        v += n.stats.visits;
                    }
                });
                v
            })
            .sum();
        // Each thread enters the for region twice per round.
        assert_eq!(ws_visits, threads as u64 * 2 * 2);
    }
}

#[test]
fn counting_monitor_agrees_with_ground_truth() {
    let m = CountingMonitor::new();
    let threads = 2;
    let rounds = 2;
    run_mixed(&m, threads, rounds);
    let (_e, creations, begins, ends, _s, _p, th) = m.counts().snapshot();
    assert_eq!(th, threads as u64);
    assert_eq!(begins, ends);
    // Deferred tasks per round: 8 parents + 32 nested + `threads` phase-3.
    assert_eq!(creations, ((8 + 32 + threads) * rounds) as u64);
    assert_eq!(begins, creations);
}

#[test]
fn repeated_profiled_regions_are_independent() {
    let monitor = ProfMonitor::new();
    for _ in 0..3 {
        run_mixed(&monitor, 2, 1);
        let p = monitor.take_profile().expect("no region in flight");
        assert_eq!(p.num_threads(), 2);
        for t in &p.threads {
            assert!(t.main.stats.sum_ns > 0);
        }
    }
}
