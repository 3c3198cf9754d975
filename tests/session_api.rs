//! End-to-end coverage of the `MeasurementSession` front door: builder
//! validation, the static monitor-stack combinators, and shard hand-off
//! at region end.

use bots::{run_app, AppId, RunOpts, Scale, Variant};
use cube::AggProfile;
use pomp::RegionKind;
use taskprof::{ConfigError, ProfMonitor};
use taskprof_session::MeasurementSession;
use taskrt::{taskwait_region, SingleConstruct, TaskConstruct};

#[test]
fn session_profiles_a_custom_parallel_region() {
    let single = SingleConstruct::new("sapi!single");
    let task = TaskConstruct::new("sapi_task");
    let tw = taskwait_region("sapi!taskwait");

    let session = MeasurementSession::builder("sapi")
        .threads(4)
        .build()
        .expect("default configuration is valid");
    let outcome = session.run(|ctx| {
        ctx.single(&single, |ctx| {
            for _ in 0..16 {
                ctx.task(&task, |_| {
                    std::hint::black_box((0..1000u64).sum::<u64>());
                });
            }
            ctx.taskwait(tw);
        });
    });
    assert!(outcome.is_ok());

    let report = session.finish();
    assert!(report.is_clean());
    assert_eq!(report.profile.num_threads(), 4);
    let agg = AggProfile::from_profile(&report.profile);
    let stats = cube::task_stats(&agg);
    assert_eq!(stats[0].instances, 16);
}

#[test]
fn session_runs_accumulate_across_regions() {
    let single = SingleConstruct::new("sapi-multi!single");
    let task = TaskConstruct::new("sapi_multi_task");

    let session = MeasurementSession::builder("sapi-multi")
        .threads(2)
        .build()
        .expect("default configuration is valid");
    for _ in 0..3 {
        session.run(|ctx| {
            ctx.single(&single, |ctx| {
                ctx.task(&task, |_| std::hint::black_box(()));
            });
        });
    }
    let profile = session.finish().profile;
    // 3 regions x 2 threads, merged sorted by tid (0,0,0,1,1,1).
    assert_eq!(profile.threads.len(), 6);
    let tids: Vec<usize> = profile.threads.iter().map(|t| t.tid).collect();
    let mut sorted = tids.clone();
    sorted.sort_unstable();
    assert_eq!(tids, sorted, "shards must merge in thread order");
    let agg = AggProfile::from_profile(&profile);
    assert_eq!(cube::task_stats(&agg)[0].instances, 3);
}

#[test]
fn combinators_stack_statically_and_report() {
    let session = MeasurementSession::builder("sapi-stack")
        .threads(2)
        .build()
        .expect("default configuration is valid")
        .counted()
        .validated();
    let opts = RunOpts::new(2).scale(Scale::Test).variant(Variant::Cutoff);
    let out = run_app(AppId::Fib, session.monitor(), &opts);
    assert!(out.verified);

    let report = session.finish();
    assert!(report.is_clean(), "runtime must emit a well-formed stream");
    assert_eq!(report.profile.num_threads(), 2);
    let (enters, _, begins, ends, _, _, threads) = report.counts().snapshot();
    assert!(enters > 0, "counting layer must have observed events");
    assert!(begins > 0 && begins == ends);
    assert_eq!(threads, 2);
}

#[test]
fn filtered_session_drops_regions_before_the_profiler() {
    let session = MeasurementSession::builder("sapi-filter")
        .threads(2)
        .build()
        .expect("default configuration is valid")
        .filtered(|r: pomp::RegionId| pomp::registry().kind(r) != RegionKind::Taskwait);
    let opts = RunOpts::new(2).scale(Scale::Test).variant(Variant::NoCutoff);
    let out = run_app(AppId::Fib, session.monitor(), &opts);
    assert!(out.verified, "filtering must not affect program results");

    let agg = AggProfile::from_profile(&session.finish().profile);
    assert!(
        cube::region_excl_by_kind(&agg, RegionKind::Taskwait) == 0,
        "taskwait regions must be filtered out of the profile"
    );
}

#[test]
fn builder_rejects_invalid_limits_up_front() {
    let err = MeasurementSession::builder("sapi-bad")
        .max_depth(0)
        .build()
        .unwrap_err();
    match err {
        ConfigError::InvalidValue { setting, value, .. } => {
            assert_eq!(setting, "max_depth");
            assert_eq!(value, 0);
        }
        other => panic!("expected InvalidValue, got {other:?}"),
    }
    assert!(std::error::Error::source(&err).is_none());
    assert!(err.to_string().contains("max_depth"));
}

#[test]
fn take_profile_mid_region_is_rejected_with_live_counts() {
    let monitor = ProfMonitor::new();
    let single = SingleConstruct::new("sapi-live!single");
    let session = MeasurementSession::from_parts(
        taskrt::Team::new(2),
        taskrt::ParallelConstruct::new("sapi-live"),
        monitor,
    );
    session.run(|ctx| {
        ctx.single(&single, |_| {
            let err = session
                .profiler()
                .take_profile()
                .expect_err("mid-region take_profile must fail");
            assert!(err.live_threads > 0 || err.live_regions > 0);
        });
    });
    // After the region, the same call succeeds.
    assert_eq!(
        session
            .profiler()
            .take_profile()
            .expect("no region in flight")
            .num_threads(),
        2
    );
}

#[test]
fn builder_configured_monitor_measures() {
    use pomp::VirtualClock;
    use taskprof::AssignPolicy;

    let clock = VirtualClock::new();
    let monitor = ProfMonitor::builder()
        .clock(clock.clone())
        .policy(AssignPolicy::Executing)
        .max_depth(16)
        .max_live_trees(1024)
        .build()
        .expect("valid configuration");

    let single = SingleConstruct::new("sapi-dep!single");
    let task = TaskConstruct::new("sapi_dep_task");
    let par = taskrt::ParallelConstruct::new("sapi-dep");
    taskrt::Team::new(2).parallel(&monitor, &par, |ctx| {
        ctx.single(&single, |ctx| {
            ctx.task(&task, |_| {
                clock.advance(50);
            });
        });
    });
    let profile = monitor.take_profile().expect("no region in flight");
    assert_eq!(profile.num_threads(), 2);
}

/// A seeded two-thread causal session, run but not finished: `regions`
/// times over, every thread spawns three instances and waits for them.
fn causal_session(regions: usize) -> MeasurementSession<ProfMonitor<simsched::SimClock>> {
    let task = TaskConstruct::new("sapi-causal-task");
    let tw = taskwait_region("sapi-causal!taskwait");
    let session = MeasurementSession::builder("sapi-causal")
        .threads(2)
        .deterministic(5)
        .record_task_edges()
        .build()
        .unwrap();
    for _ in 0..regions {
        let region = session.run(|ctx| {
            (0..3).for_each(|_| ctx.task(&task, |_| {}));
            ctx.taskwait(tw);
        });
        region.unwrap();
    }
    session
}

#[test]
fn causal_session_composes_the_regions_it_ran() {
    // Task ids restart in every parallel region, so two regions of one
    // session both describe instances 1..=6: as one DAG that is a cycle,
    // and `finish()` used to panic. The one-region report is unchanged.
    let once = causal_session(1).finish();
    let once = once.critpath();
    assert_eq!((once.work_ns, once.span_ns, once.makespan_ns), (240, 120, 120));
    assert_eq!((once.tasks, once.fragments, once.steals), (6, 6, 1));
    assert_eq!(once.thread_work_ns, vec![120, 120]);

    let twice = causal_session(2).finish();
    let cp = twice.critpath();
    assert_eq!(cp.tasks, 12);
    assert!(cp.span_ns <= cp.makespan_ns && cp.makespan_ns <= cp.work_ns, "{cp:?}");
    // The seeded scheduler's choice stream runs on into the second region,
    // so only schedule-invariant quantities double; the exact reference is
    // each region's own DAG (the same seeded session, its log drained
    // instead of finished), composed serially.
    assert_eq!(cp.work_ns, 2 * once.work_ns);
    let opts = critpath::DagOptions {
        undeferred_spawn_cost: Some(simsched::DEFAULT_SPAWN_COST_NS),
    };
    let alone = |r: &taskprof::RegionEdges| {
        let dag = critpath::TaskDag::from_streams(&r.streams, r.region, &opts).unwrap();
        assert_eq!(dag.tasks(), 6);
        dag.report()
    };
    let log = causal_session(2).profiler().take_edge_log().unwrap();
    let [first, second] = &log[..] else {
        panic!("one log entry per region: {log:?}");
    };
    assert_eq!(*cp, alone(first).then(alone(second)));
}

#[test]
fn causal_session_attributes_each_region_to_its_own_construct() {
    let other = taskrt::ParallelConstruct::new("sapi-causal-other");
    let session = MeasurementSession::builder("sapi-causal-own")
        .threads(2)
        .deterministic(9)
        .record_task_edges()
        .build()
        .unwrap();
    let clock = session.profiler().clock().clone();
    session.run(|_| clock.work(7)).unwrap();
    session.run_in(&other, |_| clock.work(11)).unwrap();
    let own = session.construct().region;
    let regions = session.finish().critpath.expect("edges were recorded").regions;
    let work_of = |region| regions.iter().find(|r| r.region == region).map(|r| r.work_ns);
    assert_eq!(work_of(own), Some(2 * 7));
    assert_eq!(work_of(other.region), Some(2 * 11));
}
