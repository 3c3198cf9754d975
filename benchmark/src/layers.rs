//! Per-layer measurements of the traced run: hook loops, codecs, the
//! in-process replay of recorded batches, and store operations called
//! straight through the public API. Every timing is recorded as a span
//! (layer = crate), so the metrics are read back from the span table.

use crate::counting::allocs_during;
use crate::inputs::{GROUPS, RECORD_THREADS};
use crate::measure::{Kernel, TEAM};
use crate::repo::{export_page, Daemon, Inputs, OpenSpec, BATCH};
use crate::trace::Tracer;
use crate::Gate;
use bots::run_app;
use pomp::{
    ClockReader, ClockSource, Monitor, NullMonitor, RegionId, RegionKind, TaskIdAllocator,
    ThreadHooks,
};
use profserve::{wire, Client, ClientTimeouts, Record, Request, Response, WireProtocol};
use profstore::{Repo, RetentionPolicy, RunWindow};
use std::hint::black_box;
use std::path::Path;
use taskprof::ProfMonitor;
use taskprof_session::MeasurementSession;

/// Events per spanned hook batch (six per task cycle).
const HOOK_BATCH_CYCLES: u64 = 3_334;
const EVENTS_PER_CYCLE: u64 = 6;
const HOOK_BATCHES: usize = 60;

struct HookRegions {
    par: RegionId,
    create: RegionId,
    task: RegionId,
    work: RegionId,
}

fn hook_regions() -> HookRegions {
    HookRegions {
        par: pomp::region!("bench!parallel", RegionKind::Parallel),
        create: pomp::region!("bench!create", RegionKind::TaskCreate),
        task: pomp::region!("bench_task", RegionKind::Task),
        work: pomp::region!("bench_work", RegionKind::Function),
    }
}

/// `cycles` full task life cycles driven straight through the hooks:
/// create begin/end, begin, enter/exit, end.
fn task_cycles<T: ThreadHooks>(thread: &T, ids: &TaskIdAllocator, r: &HookRegions, cycles: u64) {
    for _ in 0..cycles {
        let id = ids.alloc();
        thread.task_create_begin(r.create, r.task, id);
        thread.task_create_end(r.create, id);
        thread.task_begin(r.task, id);
        thread.enter(r.work);
        thread.exit(r.work);
        thread.task_end(r.task, id);
    }
}

/// Two monitors' hot loops on one thread, batches interleaved so drift
/// hits both; spans `core/<a_name>` and `core/<b_name>`, one per batch
/// of 20 k events. Returns allocations per thousand events of side `a`
/// in steady state.
fn hook_pair<A: Monitor, B: Monitor>(
    tracer: &Tracer,
    a: &A,
    a_name: &'static str,
    b: &B,
    b_name: &'static str,
) -> f64 {
    let r = hook_regions();
    let ids = TaskIdAllocator::new();
    let events = HOOK_BATCH_CYCLES * EVENTS_PER_CYCLE;
    a.parallel_fork(r.par, 1);
    let at = a.thread_begin(0, 1, r.par);
    b.parallel_fork(r.par, 1);
    let bt = b.thread_begin(0, 1, r.par);
    task_cycles(&at, &ids, &r, HOOK_BATCH_CYCLES);
    task_cycles(&bt, &ids, &r, HOOK_BATCH_CYCLES);
    let mut a_allocs = 0;
    for _ in 0..HOOK_BATCHES {
        let (_, n) = allocs_during(|| {
            tracer.span("core", a_name, events, 0, || {
                task_cycles(&at, &ids, &r, HOOK_BATCH_CYCLES)
            })
        });
        a_allocs += n;
        tracer.span("core", b_name, events, 0, || {
            task_cycles(&bt, &ids, &r, HOOK_BATCH_CYCLES)
        });
    }
    a.thread_end(0, at);
    a.parallel_join(r.par);
    b.thread_end(0, bt);
    b.parallel_join(r.par);
    a_allocs as f64 / (HOOK_BATCHES as u64 * events) as f64 * 1e3
}

/// `thread_begin` + 32 task cycles + `thread_end`, spanned per region.
fn region_cycles(tracer: &Tracer, monitor: &ProfMonitor) {
    let r = hook_regions();
    let ids = TaskIdAllocator::new();
    for _ in 0..400 {
        tracer.span("core", "region_cycle", 1, 0, || {
            monitor.parallel_fork(r.par, 1);
            let thread = monitor.thread_begin(0, 1, r.par);
            for _ in 0..32 {
                let id = ids.alloc();
                thread.task_create_begin(r.create, r.task, id);
                thread.task_create_end(r.create, id);
                thread.task_begin(r.task, id);
                thread.task_end(r.task, id);
            }
            monitor.thread_end(0, thread);
            monitor.parallel_join(r.par);
        });
    }
}

/// What the hook loops measured beyond their spans.
pub struct HookLayers {
    pub allocs_per_kevent: f64,
}

/// The measurement path's layers below the kernels.
pub fn hooks(tracer: &Tracer) -> HookLayers {
    // pomp: the calibrated per-thread clock read on its own.
    let reader = pomp::MonotonicClock::new().thread_reader();
    for _ in 0..HOOK_BATCHES {
        tracer.span("pomp", "clock_read", 20_000, 0, || {
            for _ in 0..20_000 {
                black_box(reader.now());
            }
        });
    }

    let valid = "default profiler limits are valid";
    let take = "no region in flight";

    // core: the hot loop under the real clock and under a virtual one
    // (an atomic load), which leaves the non-clock machinery.
    let real = ProfMonitor::new();
    let virt = ProfMonitor::builder()
        .clock(pomp::VirtualClock::new())
        .build()
        .expect(valid);
    let allocs_per_kevent = hook_pair(tracer, &real, "event_hot", &virt, "event_virtual");
    real.take_profile().expect(take);
    virt.take_profile().expect(take);

    // telemetry: the same loop with live telemetry off and on.
    let off = ProfMonitor::new();
    let on = ProfMonitor::builder().telemetry().build().expect(valid);
    hook_pair(
        tracer,
        &off,
        "event_telemetry_off",
        &on,
        "event_telemetry_on",
    );
    off.take_profile().expect(take);
    on.take_profile().expect(take);

    // core: the same loop with the task-edge log off and on, then the
    // drain of that log.
    let plain = ProfMonitor::new();
    let edged = ProfMonitor::builder()
        .record_task_edges()
        .build()
        .expect(valid);
    hook_pair(tracer, &plain, "event_edges_off", &edged, "event_edges_on");
    plain.take_profile().expect(take);
    edged.take_profile().expect(take);
    let events = HOOK_BATCHES as u64 * HOOK_BATCH_CYCLES * EVENTS_PER_CYCLE;
    let streams = tracer.span("core", "edge_drain", events, 0, || {
        edged.take_edge_streams().expect(take)
    });
    black_box(streams);

    let monitor = ProfMonitor::new();
    region_cycles(tracer, &monitor);
    monitor.take_profile().expect(take);

    HookLayers { allocs_per_kevent }
}

/// critpath on one causal kernel's streams: DAG build, report, what-if.
/// Returns the DAG's task count.
pub fn critpath_layers(tracer: &Tracer, kernel: &Kernel, gate: &mut Gate) -> u64 {
    let monitor = ProfMonitor::builder()
        .record_task_edges()
        .build()
        .expect("default profiler limits are valid");
    let out = run_app(kernel.app, &monitor, &kernel.opts(TEAM));
    let profile = monitor.take_profile().expect("no region in flight");
    let streams = monitor.take_edge_streams().expect("no region in flight");
    let region = profile
        .parallel_region()
        .expect("a finished run has a parallel region");
    let task_region = pomp::registry()
        .lookup(kernel.app.task_region_name(), RegionKind::Task)
        .expect("the kernel registered its task construct");
    let opts = critpath::DagOptions::default();
    let mut tasks = 0;
    for _ in 0..5 {
        let dag = tracer.span("critpath", "dag_build", 1, 0, || {
            critpath::TaskDag::from_streams(&streams, region, &opts)
                .expect("recorded streams assemble into a DAG")
        });
        tasks = dag.tasks();
        let report = tracer.span("critpath", "report", 1, 0, || dag.report());
        let what_if = tracer.span("critpath", "whatif", 1, 0, || dag.what_if(task_region, 2));
        gate.check(
            out.verified
                && report.span_ns <= report.makespan_ns
                && report.makespan_ns <= report.work_ns
                && what_if.predicted_makespan_ns <= what_if.baseline_makespan_ns,
            || {
                format!(
                    "{}: critpath layer run inconsistent: {report:?}",
                    kernel.label
                )
            },
        );
    }
    tasks
}

/// Fib on a team of two, informational only: the number this benchmark
/// refuses to gate on.
pub fn team2_dilation(tracer: &Tracer, kernel: &Kernel, gate: &mut Gate) {
    let opts = kernel.opts(2);
    for _ in 0..7 {
        let out = run_app(kernel.app, &NullMonitor, &opts);
        gate.check(out.verified, || "team-of-2 base run unverified".to_string());
        tracer.record_ns("taskrt", "team2_base", 1, out.kernel.as_nanos() as u64);
        let session = MeasurementSession::builder("benchmark-team2")
            .threads(2)
            .build()
            .expect("default session configuration is valid");
        let out = run_app(kernel.app, session.monitor(), &opts);
        gate.check(out.verified, || {
            "team-of-2 instrumented run unverified".to_string()
        });
        tracer.record_ns("taskrt", "team2_instr", 1, out.kernel.as_nanos() as u64);
        drop(session.finish());
    }
}

// ---------------------------------------------------------------------
// Repository path
// ---------------------------------------------------------------------

/// Replay recorded binary batches through the in-process chain the
/// daemon runs — encode, frame, unframe, decode, payload decode, store
/// ingest, response encode/decode — on one thread, so the layers' time
/// can be summed against the end-to-end time per profile. Returns the
/// allocations per profile made inside `ingest`.
pub fn replay_bin(
    tracer: &Tracer,
    batches: &[Vec<Record>],
    store: &mut Repo,
    gate: &mut Gate,
) -> f64 {
    let n = BATCH as u64;
    let mut ingest_allocs = 0;
    let mut timestamp = 0;
    for records in batches {
        tracer.span("benchmark", "replay_bin", n, 0, || {
            let request = Request::IngestBatch(records.clone());
            let payload = tracer.span("profserve", "wire_encode", n, 0, || {
                wire::encode_request(&request)
            });
            let framed = tracer.span("profserve", "frame", n, payload.len() as u64, || {
                wire::frame(&payload)
            });
            let (unframed, _) = tracer
                .span("profserve", "try_frame", n, framed.len() as u64, || {
                    wire::try_frame(&framed, usize::MAX)
                })
                .expect("a frame just built parses")
                .expect("a whole frame is complete");
            let decoded = tracer.span("profserve", "wire_decode", n, 0, || {
                wire::decode_request(&unframed)
            });
            let Ok(Request::IngestBatch(items)) = decoded else {
                gate.check(false, || "replayed batch did not decode".to_string());
                return;
            };
            let profiles: Vec<_> = tracer.span("profstore", "payload_decode", n, 0, || {
                items
                    .iter()
                    .map(|r| r.profile.decode().expect("a sent payload decodes"))
                    .collect()
            });
            let (receipts, allocs) = allocs_during(|| {
                tracer.span("profstore", "ingest", n, 0, || {
                    items
                        .iter()
                        .zip(&profiles)
                        .map(|(item, profile)| {
                            timestamp += 1;
                            store
                                .ingest(&item.benchmark, item.threads, timestamp, profile)
                                .expect("replay ingest")
                        })
                        .collect::<Vec<_>>()
                })
            });
            ingest_allocs += allocs;
            let response = Response::Ingest(profserve::IngestReceipt {
                first_run_id: receipts[0].run_id,
                count: n,
                bytes: receipts.iter().map(|r| r.bytes).sum(),
                segment: receipts[receipts.len() - 1].segment,
            });
            let back = tracer.span("profserve", "response_codec", n, 0, || {
                wire::decode_response(&wire::encode_response(&response))
            });
            gate.check(back.as_ref() == Ok(&response), || {
                format!("replayed response did not round-trip: {back:?}")
            });
        });
    }
    ingest_allocs as f64 / (batches.len() as u64 * n).max(1) as f64
}

/// The JSON side of the same chain, per record of the pool.
pub fn json_chain(tracer: &Tracer, inputs: &Inputs, gate: &mut Gate) {
    for (k, profile) in inputs.pool.iter().enumerate() {
        let text = tracer.span("cube", "write_profile", 1, 0, || {
            cube::write_profile(profile)
        });
        let request = Request::Ingest(Record::from_text(
            inputs.groups[k % GROUPS].clone(),
            RECORD_THREADS,
            Some(k as u64 + 1),
            text,
        ));
        let line = tracer.span("profserve", "json_encode", 1, 0, || request.to_json_line());
        let decoded = tracer.span("profserve", "json_decode", 1, line.len() as u64, || {
            Request::from_json_line(&line)
        });
        gate.check(decoded.as_ref() == Ok(&request), || {
            format!("json request {k} did not round-trip")
        });
        let Request::Ingest(record) = &request else {
            unreachable!("built as an ingest above");
        };
        let parsed = tracer.span("cube", "read_profile", 1, 0, || record.profile.decode());
        gate.check(parsed.is_ok(), || {
            format!("pool profile {k} text did not parse")
        });
    }
}

/// Byte-level codecs over the pool: CRC, record encode/decode, frame.
pub fn codecs(tracer: &Tracer, inputs: &Inputs) {
    let meta = profstore::RunMeta {
        run_id: 1,
        benchmark: inputs.groups[0].clone(),
        threads: RECORD_THREADS,
        timestamp_ns: 1,
    };
    for _ in 0..4 {
        for profile in &inputs.pool {
            let bytes = tracer.span("profstore", "encode_record", 1, 0, || {
                profstore::encode_record(&meta, profile)
            });
            let len = bytes.len() as u64;
            black_box(tracer.span("profstore", "decode_record", 1, len, || {
                profstore::decode_record(&bytes)
            }))
            .expect("an encoded record decodes");
            black_box(tracer.span("profstore", "crc32", 1, len, || {
                profstore::crc::crc32(&bytes)
            }));
            let agg = tracer.span("cube", "agg", 1, 0, || {
                cube::AggProfile::from_profile(profile)
            });
            black_box(tracer.span("cube", "render", 1, 0, || {
                cube::render_profile(&agg, &cube::RenderOpts::default())
            }));
        }
    }
}

/// Store operations called in-process on the final store: load, the
/// windowed fold, compaction, the cached fold, trend and frame export;
/// then apply and a retention sweep on a scratch store. Returns
/// allocations per `load`.
pub fn store_ops(
    tracer: &Tracer,
    spec: &OpenSpec,
    dir: &Path,
    scratch: &Path,
    inputs: &Inputs,
    window_last: u64,
    gate: &mut Gate,
) -> f64 {
    let mut store = spec.open(dir);
    let runs = store.stats().runs;
    let loads = 256u64;
    let mut load_allocs = 0;
    for k in 0..loads {
        let run_id = 1 + k * (runs - 1) / loads;
        let (loaded, n) =
            allocs_during(|| tracer.span("profstore", "load", 1, 0, || store.load(run_id)));
        load_allocs += n;
        gate.check(loaded.is_ok(), || {
            format!("in-process load of run {run_id} failed")
        });
    }
    let window = RunWindow {
        last: Some(window_last),
        since_ns: None,
    };
    for k in 0..64 {
        let agg = tracer.span("profstore", "window_fold", window_last, 0, || {
            store.aggregate_window(&inputs.groups[k % GROUPS], RECORD_THREADS, &window)
        });
        gate.check(matches!(agg, Ok(a) if a.runs == window_last), || {
            "in-process windowed fold failed".to_string()
        });
    }
    let folded = tracer.span("profstore", "compact", runs, 0, || store.compact());
    gate.check(folded.is_ok(), || {
        "in-process compaction failed".to_string()
    });
    for k in 0..256 {
        let agg = tracer.span("profstore", "cached_fold", 1, 0, || {
            store.aggregate_window(
                &inputs.groups[k % GROUPS],
                RECORD_THREADS,
                &RunWindow::default(),
            )
        });
        gate.check(agg.is_ok(), || "in-process cached fold failed".to_string());
    }
    let trend_window = RunWindow {
        last: Some(window_last * 8),
        since_ns: None,
    };
    for k in 0..8 {
        let trend = tracer.span("profstore", "trend", window_last * 8, 0, || {
            store.trend(
                &inputs.groups[k % GROUPS],
                RECORD_THREADS,
                &trend_window,
                16,
            )
        });
        gate.check(matches!(trend, Ok(b) if b.len() == 16), || {
            "in-process trend failed".to_string()
        });
    }

    // Export a prefix of the log and apply it to an empty store of the
    // same shape, then sweep that store down to 8 runs per group.
    let mut follower = OpenSpec::new(spec.shards, false).open(scratch);
    let mut after = 0;
    let mut shipped = 0u64;
    while shipped < 16 * BATCH as u64 {
        let page = tracer
            .span("profstore", "export_frames", BATCH as u64, 0, || {
                store.export_frames(after, BATCH)
            })
            .expect("in-process export");
        tracer.span(
            "profstore",
            "apply_frames",
            page.frames.len() as u64,
            0,
            || {
                for frame in &page.frames {
                    follower.apply_frame(frame).expect("in-process apply");
                }
            },
        );
        shipped += page.frames.len() as u64;
        after = page.watermark;
        if page.done {
            break;
        }
    }
    let policy = RetentionPolicy {
        keep_last: Some(8),
        min_timestamp_ns: None,
    };
    let swept = tracer.span("profstore", "gc", shipped, 0, || follower.gc(&policy));
    gate.check(
        matches!(swept, Ok(r) if r.dropped_runs == shipped - 8 * GROUPS as u64),
        || format!("retention sweep of {shipped} runs: {swept:?}"),
    );
    drop(follower);
    let _ = std::fs::remove_dir_all(scratch);
    load_allocs as f64 / loads as f64
}

/// The replication pump's two halves through the client, page by page:
/// `EXPORT` from the leader, `APPLY` into a throwaway follower daemon.
pub fn replica_pages(
    tracer: &Tracer,
    leader: &Daemon,
    shards: u32,
    scratch: &Path,
    gate: &mut Gate,
) {
    let follower = Daemon::spawn(OpenSpec::new(shards, false).open(scratch));
    let mut from = leader.probe();
    let mut to = follower.connect(WireProtocol::Binary);
    let mut after = 0;
    for _ in 0..16 {
        let page = tracer.span("profserve", "client.export_frames", BATCH as u64, 0, || {
            export_page(leader, &mut from, after, BATCH as u64)
        });
        let Some(page) = page else {
            gate.check(false, || "client export_frames failed".to_string());
            break;
        };
        let n = page.frames.len() as u64;
        let ack = tracer.span("profserve", "client.apply_frames", n, 0, || {
            to.apply_frames(&page.frames)
        });
        gate.check(matches!(&ack, Ok(a) if a.applied == n), || {
            format!("client apply_frames of {n} frames: {ack:?}")
        });
        after = page.watermark;
        if page.done {
            break;
        }
    }
    drop((from, to));
    follower.stop();
    let _ = std::fs::remove_dir_all(scratch);
}

/// Connection set-up, and one session whose `finish()` exports to a
/// daemon — against a throwaway daemon over an empty store.
pub fn connect_and_export(tracer: &Tracer, scratch: &Path, gate: &mut Gate) {
    let daemon = Daemon::spawn(OpenSpec::new(0, false).open(scratch));
    for _ in 0..50 {
        let client = tracer.span("profserve", "connect_hello", 1, 0, || {
            Client::connect_proto(
                &daemon.addr,
                WireProtocol::Binary,
                ClientTimeouts::unbounded(),
            )
        });
        gate.check(client.is_ok(), || "connect + HELLO failed".to_string());
    }
    let opts = bots::RunOpts::new(TEAM).scale(bots::Scale::Test);
    for _ in 0..20 {
        let session = MeasurementSession::builder("benchmark-export")
            .threads(TEAM)
            .export_to(daemon.addr.as_str())
            .build()
            .expect("default session configuration is valid");
        let out = run_app(bots::AppId::Fib, session.monitor(), &opts);
        let report = tracer.span("session", "export", 1, 0, || session.finish());
        gate.check(
            out.verified && matches!(&report.export, Some(Ok(r)) if r.run_id.is_some()),
            || format!("session export failed: {:?}", report.export),
        );
    }
    daemon.stop();
    let _ = std::fs::remove_dir_all(scratch);
}
