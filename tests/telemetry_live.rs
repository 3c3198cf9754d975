//! Live telemetry under real concurrency: the lock-free gauges must agree
//! with the post-mortem profile, stay readable mid-measurement from
//! foreign threads, and round-trip through both exporters.

use bots::{run_app, AppId, RunOpts, Scale};
use pomp::{EventClass, Monitor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use taskprof_session::MeasurementSession;
use taskprof_telemetry::{parse_jsonl_line, parse_prometheus, TelemetryConfig};
use taskrt::{taskwait_region, SingleConstruct, TaskConstruct, TaskCtx};

/// Spawn a `breadth`-ary task tree of the given depth, taskwaiting at
/// every level so outer tasks suspend while inner ones run (driving the
/// live-instance-tree count up).
fn spawn_tree<'e, M: Monitor>(
    ctx: &TaskCtx<'_, 'e, M>,
    task: &'e TaskConstruct,
    tw: pomp::RegionId,
    depth: usize,
    breadth: usize,
) {
    if depth == 0 {
        return;
    }
    for _ in 0..breadth {
        ctx.task(task, move |ctx| {
            std::hint::black_box((0..200u64).sum::<u64>());
            spawn_tree(ctx, task, tw, depth - 1, breadth);
            ctx.taskwait(tw);
        });
    }
    ctx.taskwait(tw);
}

#[test]
fn final_gauges_agree_with_session_report() {
    let single = SingleConstruct::new("tl-agree!single");
    let task = TaskConstruct::new("tl_agree_task");
    let tw = taskwait_region("tl-agree!taskwait");
    let session = MeasurementSession::builder("tl-agree")
        .threads(4)
        .telemetry()
        .build()
        .expect("telemetry configuration is valid");
    session
        .run(|ctx| {
            ctx.single(&single, |ctx| spawn_tree(ctx, &task, tw, 4, 3));
        })
        .unwrap();
    let report = session.finish();
    assert!(report.is_clean());
    let t = report.telemetry.as_ref().expect("telemetry enabled");

    // 3 + 9 + 27 + 81 tasks, every one created, begun, and completed.
    let expected = 3 + 9 + 27 + 81;
    assert_eq!(t.tasks_created, expected);
    assert_eq!(t.tasks_completed, expected);
    assert_eq!(t.tasks_aborted, 0);
    assert_eq!(t.tasks_in_flight(), 0);
    assert_eq!(t.events[EventClass::TaskBegin.index()], expected);
    assert_eq!(t.events[EventClass::TaskEnd.index()], expected);

    // The live-tree gauge drained and its high-water mark is exactly the
    // profile's per-thread max (paper Table II): telemetry publishes the
    // profiler's own count, so they cannot drift.
    assert_eq!(t.live_trees, 0);
    assert_eq!(t.live_trees_hwm, report.profile.max_live_trees() as u64);
    assert_eq!(t.tasks_shed, report.profile.shed_instances());
    assert_eq!(t.tasks_shed, 0, "no cap configured, nothing shed");

    // Session quiesced: every boundary gauge drained.
    assert_eq!(t.threads_active, 0);
    assert_eq!(
        t.handoff_depth, 0,
        "take_profile drained the hand-off stack"
    );
    assert_eq!(t.arenas_recycled + t.arenas_allocated, 4);

    // Fragments: at least one per executed task (suspensions add more),
    // and the stub-time gauge observed real execution.
    assert!(
        t.fragments >= expected,
        "fragments {} < tasks {expected}",
        t.fragments
    );
    assert!(t.stub_time_ns > 0);
}

#[test]
fn shed_count_matches_profile_under_live_tree_cap() {
    let single = SingleConstruct::new("tl-shed!single");
    let task = TaskConstruct::new("tl_shed_task");
    let tw = taskwait_region("tl-shed!taskwait");
    let session = MeasurementSession::builder("tl-shed")
        .threads(2)
        .max_live_trees(1)
        .telemetry()
        .build()
        .expect("telemetry configuration is valid");
    session
        .run(|ctx| {
            // Nested taskwaits suspend outer instances, so the second
            // live tree on a thread trips the cap of 1.
            ctx.single(&single, |ctx| spawn_tree(ctx, &task, tw, 5, 2));
        })
        .unwrap();
    let report = session.finish();
    let t = report.telemetry.as_ref().expect("telemetry enabled");
    assert!(
        report.profile.shed_instances() > 0,
        "workload must actually trip the live-tree cap"
    );
    assert_eq!(t.tasks_shed, report.profile.shed_instances());
    assert_eq!(t.live_trees_hwm, report.profile.max_live_trees() as u64);
    // Shed instances still execute and complete.
    assert_eq!(t.tasks_created, t.tasks_completed);
}

#[test]
fn polling_mid_run_is_safe_and_monotone() {
    let session = MeasurementSession::builder("tl-poll")
        .threads(4)
        .telemetry_config(TelemetryConfig { sample_every: 16 })
        .build()
        .expect("telemetry configuration is valid");
    let telemetry = session.telemetry().expect("telemetry enabled");
    let done = AtomicBool::new(false);

    let series = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let telemetry = telemetry.clone();
                let done = &done;
                s.spawn(move || {
                    let mut series = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        series.push(telemetry.snapshot());
                        std::thread::yield_now();
                    }
                    series
                })
            })
            .collect();
        let out = run_app(
            AppId::Nqueens,
            session.monitor(),
            &RunOpts::new(4).scale(Scale::Test),
        );
        assert!(out.verified);
        done.store(true, Ordering::Release);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("poller thread"))
            .collect::<Vec<_>>()
    });

    assert!(!series.is_empty(), "pollers observed the run");
    for snap in &series {
        // Mid-run reads are internally sane: no underflows, bounded team.
        assert!(snap.threads_active <= 4);
        assert!(snap.tasks_completed <= snap.tasks_created);
    }
    let report = session.finish();
    let final_t = report.telemetry.expect("telemetry enabled");
    for snap in &series {
        // Counters are monotone: nothing a poller saw can exceed the end
        // state.
        assert!(snap.tasks_created <= final_t.tasks_created);
        assert!(snap.total_events() <= final_t.total_events());
        assert!(snap.live_trees_hwm <= final_t.live_trees_hwm);
    }
    assert_eq!(
        final_t.live_trees_hwm,
        report.profile.max_live_trees() as u64
    );
}

#[test]
fn background_sampler_tracks_a_session() {
    let single = SingleConstruct::new("tl-sampler!single");
    let task = TaskConstruct::new("tl_sampler_task");
    let session = MeasurementSession::builder("tl-sampler")
        .threads(2)
        .telemetry()
        .build()
        .expect("telemetry configuration is valid");
    let telemetry = session.telemetry().expect("telemetry enabled");
    let sampler = telemetry.start_sampler(Duration::from_millis(1));
    session
        .run(|ctx| {
            ctx.single(&single, |ctx| {
                for _ in 0..64 {
                    ctx.task(&task, |_| {
                        std::hint::black_box((0..20_000u64).sum::<u64>());
                    });
                }
            });
        })
        .unwrap();
    let series = sampler.stop();
    assert!(!series.is_empty());
    for w in series.windows(2) {
        assert!(w[1].elapsed_ns >= w[0].elapsed_ns, "timestamps monotone");
        assert!(
            w[1].snapshot.tasks_created >= w[0].snapshot.tasks_created,
            "counters monotone"
        );
    }
    assert_eq!(series.last().unwrap().snapshot.tasks_created, 64);
}

#[test]
fn session_exports_round_trip_mid_run_and_after() {
    let single = SingleConstruct::new("tl-export!single");
    let task = TaskConstruct::new("tl_export_task");
    let session = MeasurementSession::builder("tl-export")
        .threads(2)
        .telemetry()
        .build()
        .expect("telemetry configuration is valid");
    let telemetry = session.telemetry().expect("telemetry enabled");
    session
        .run(|ctx| {
            ctx.single(&single, |ctx| {
                for _ in 0..8 {
                    ctx.task(&task, |_| std::hint::black_box(()));
                }
                // Export *during* the region, from a measurement thread.
                let prom = telemetry.prometheus();
                assert!(!parse_prometheus(&prom)
                    .expect("mid-run export parses")
                    .is_empty());
            });
        })
        .unwrap();
    let snapshot = telemetry.snapshot();
    let prom = telemetry.prometheus();
    let samples = parse_prometheus(&prom).expect("Prometheus export parses");
    let created = samples
        .iter()
        .find(|p| p.name == "taskprof_tasks_created_total")
        .expect("counter present");
    assert_eq!(created.value as u64, snapshot.tasks_created);
    let by_class = samples
        .iter()
        .filter(|p| p.name == "taskprof_events_total")
        .map(|p| p.value as u64)
        .sum::<u64>();
    assert_eq!(by_class, snapshot.total_events());

    let line = telemetry.jsonl_line();
    let (_, parsed) = parse_jsonl_line(&line).expect("JSONL parses");
    assert_eq!(parsed, telemetry.snapshot());
    session.finish();
}

/// The run the `live_telemetry` example shows, with its checks: nqueens
/// on four threads, its gauges polled from a foreign thread throughout,
/// then both exports and the profile's live-tree bound.
#[test]
fn nqueens_polled_while_running_exports_and_matches_its_profile() {
    let threads = 4;
    let session = MeasurementSession::builder("tl-nqueens")
        .threads(threads)
        .telemetry()
        .build()
        .expect("telemetry configuration is valid");
    let telemetry = session.telemetry().expect("telemetry enabled");
    let done = AtomicBool::new(false);
    let (out, polls) = std::thread::scope(|s| {
        let watcher_telemetry = telemetry.clone();
        let done = &done;
        let watcher = s.spawn(move || {
            let mut polls = 0u32;
            while !done.load(Ordering::Acquire) {
                std::hint::black_box(watcher_telemetry.snapshot().tasks_in_flight());
                polls += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            polls
        });
        let out = run_app(
            AppId::Nqueens,
            session.monitor(),
            &RunOpts::new(threads).scale(Scale::Small),
        );
        done.store(true, Ordering::Release);
        (out, watcher.join().expect("watcher thread"))
    });
    assert!(out.verified, "nqueens must verify");
    assert!(polls > 0);

    let snapshot = telemetry.snapshot();
    let samples = parse_prometheus(&telemetry.prometheus()).expect("Prometheus export parses");
    let created = samples
        .iter()
        .find(|p| p.name == "taskprof_tasks_created_total")
        .expect("task counter exported");
    assert!(created.value > 0.0, "nqueens creates tasks");
    let (_, parsed) = parse_jsonl_line(&telemetry.jsonl_line()).expect("JSONL parses");
    assert_eq!(parsed.tasks_created, snapshot.tasks_created);

    let report = session.finish();
    let t = report.telemetry.expect("telemetry enabled");
    assert_eq!(t.live_trees_hwm, report.profile.max_live_trees() as u64);
    assert_eq!(t.live_trees, 0, "all trees retired at finish");
}
