//! The repo's benchmark. One process pinned to one CPU (a team of one;
//! or a reactor plus one closed-loop client), the program driven only
//! through its public functions.
//!
//! ```text
//! benchmark/run.sh --workload W|all [--seed N] [--seconds S | --quick]
//!                  [--trace 0|1] [--out F]
//! benchmark/run.sh compare A.jsonl B.jsonl
//! benchmark/run.sh spec | describe
//! ```
//!
//! See `benchmark/README.md` for what every metric and workload means.

mod compare;
mod counting;
mod host;
mod inputs;
mod layers;
mod measure;
mod metrics;
mod repo;
mod stats;
mod trace;

use crate::host::{Fingerprint, NoiseGauge};
use crate::measure::{MeasureRun, MeasureShape};
use crate::metrics::{Metric, Values, WorkloadSpec, END_TO_END, PER_LAYER};
use crate::repo::{OpenSpec, RepoShape};
use crate::stats::{decile1, median, minimum, percentile};
use crate::trace::Tracer;
use profserve::Json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[global_allocator]
static ALLOC: counting::CountingAlloc = counting::CountingAlloc;

/// Seconds a full-size run measures for (set-up excluded). Work is
/// fixed, never timed: `--seconds S` asks for S rounds of constant work,
/// sized so that a round takes about a second on the host the sizes
/// were chosen on.
const RUN_SECONDS: u64 = 30;
/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Workload {
    spec: WorkloadSpec,
    measure: MeasureShape,
    repo: RepoShape,
}

/// Each workload runs both paths of the system, one section each, so
/// every end-to-end metric is measured on every workload. The sections
/// are paired so that the two workloads sit on opposite sides of every
/// layer: per-event and per-record costs on one, per-run and per-byte
/// costs on the other.
const WORKLOADS: [Workload; 2] = [
    Workload {
        spec: WorkloadSpec {
            name: "fine_small",
            why: "sections fine_tasks + repo_small: microsecond tasks without cut-off and ~1 KB records in one store, so per-event hooks and per-record round trips, fsyncs and file opens dominate",
        },
        measure: measure::FINE_TASKS,
        repo: repo::REPO_SMALL,
    },
    Workload {
        spec: WorkloadSpec {
            name: "coarse_large",
            why: "sections coarse_tasks + repo_large: millisecond tasks and ~25 KB records on 4 shards, so hooks almost vanish and per-run set-up, CRC, codec, text parse and shard fan-in dominate",
        },
        measure: measure::COARSE_TASKS,
        repo: repo::REPO_LARGE,
    },
];

/// The correctness gate: every operation whose outcome is checked
/// counts as attempted; a wrong outcome counts as failed.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("FAILED: {}", what());
            }
        }
    }
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh --workload fine_small|coarse_large|all [--seed N] [--seconds S | --quick] [--trace 0|1] [--out F]\n       run.sh compare A.jsonl B.jsonl\n       run.sh spec | describe"
    );
    std::process::exit(2);
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        workload: "all".to_string(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => opts.workload = value(),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--quick" => opts.seconds = RUN_SECONDS as f64 / 10.0,
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        usage();
    }
    opts
}

/// One line of detail under the metrics: per-kernel rows, sample counts,
/// the percentile a tail metric stands for.
struct Detail {
    name: String,
    value: f64,
    unit: &'static str,
}

struct RunResult {
    values: Values,
    detail: Vec<Detail>,
    gate: Gate,
    runq_wait_pct: f64,
    steal_pct: f64,
    attribution: String,
}

/// Progress on standard error, with the time since the run started.
fn progress(start: Instant, what: &str) {
    eprintln!("[{:>7.2}s] {what}", start.elapsed().as_secs_f64());
}

fn ns_to_us(ns: f64) -> f64 {
    ns / 1e3
}

/// p99, or the highest percentile the sample supports, with a detail
/// row saying which and over how many samples.
fn tail_us(name: &'static str, samples: &[f64], detail: &mut Vec<Detail>) -> f64 {
    let beyond = samples.len().saturating_sub(11);
    let pct = (100.0 * beyond as f64 / samples.len() as f64).min(99.0);
    detail.push(Detail {
        name: format!("{name}.percentile"),
        value: pct,
        unit: "%",
    });
    detail.push(Detail {
        name: format!("{name}.n"),
        value: samples.len() as f64,
        unit: "count",
    });
    ns_to_us(percentile(samples, 99.0))
}

fn run_workload(
    w: &Workload,
    opts: &Opts,
    fp: &Fingerprint,
    floating: Option<host::CpuSet>,
) -> RunResult {
    let rounds = (opts.seconds.round() as usize).max(3);
    let shape = &w.repo;
    let root = PathBuf::from("benchmark/out").join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create the run's scratch directory");

    let start = Instant::now();
    let tracer = Tracer::new(opts.trace);
    let mut gate = Gate::default();
    let mut noise = NoiseGauge::start();
    let mut values = Values::default();
    let mut detail = Vec::new();

    // ---- set-up, SETUPS times over; the last one is measured on ----
    let mut setup_ns = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for n in 0..SETUPS {
        progress(start, "set-up");
        let t0 = Instant::now();
        let m = measure::setup(&w.measure, &mut gate);
        let r = repo::setup(
            shape,
            opts.seed,
            &root.join(format!("stores-{n}")),
            opts.trace,
            &mut gate,
        );
        setup_ns.push(t0.elapsed().as_nanos() as f64);
        noise.poll();
        if n + 1 < SETUPS {
            r.stop();
        } else {
            kept = Some((m, r));
        }
    }
    let (msetup, mut rr) = kept.expect("SETUPS >= 1");
    let mut mr = MeasureRun::new(&w.measure, msetup);

    // ---- the rounds: both paths, every phase, interleaved ----
    //
    // Disturbances on a shared guest last from milliseconds to tens of
    // seconds. Spreading every phase's samples over the whole run keeps
    // a burst from landing on one metric alone, and lets the first
    // decile find the undisturbed speed as long as a tenth of the run
    // was quiet.
    for round in 0..rounds {
        progress(start, &format!("round {}/{rounds}", round + 1));
        // A traced run spans every other round's binary ingest (the
        // ratio to the unspanned rounds is the tracing overhead) and
        // runs the kernels every other round, to leave time for the
        // per-layer measurements.
        let even = round % 2 == 0;
        if !opts.trace || even {
            mr.round(&tracer, &mut gate);
        }
        rr.round(&tracer, !opts.trace || even, &mut gate, &mut || {
            noise.poll()
        });
        noise.poll();
    }

    for ((k, samples), counts) in w.measure.kernels.iter().zip(&mr.kernels).zip(&mr.counts) {
        let label = k.label;
        let mut row = |what: &str, value: f64, unit: &'static str| {
            detail.push(Detail {
                name: format!("bots.{label}.{what}"),
                value,
                unit,
            })
        };
        row("dilation", samples.dilation(), "x");
        row("event_ns", samples.event_ns(counts.events), "ns");
        row("events", counts.events as f64, "count");
        if k.causal {
            row("causal_dilation", samples.causal_dilation(), "x");
            row("causal_report_ms", decile1(&samples.report_ns) / 1e6, "ms");
        }
    }
    detail.push(Detail {
        name: "setup.prefill_ingest_us_per_profile".to_string(),
        value: ns_to_us(rr.prefill_ingest_ns) / shape.prefill as f64,
        unit: "us",
    });
    detail.push(Detail {
        name: "setup.prefill_compact_ms".to_string(),
        value: rr.prefill_compact_ns / 1e6,
        unit: "ms",
    });

    // Everything sent must be stored; the daemons' own histograms give
    // the server-side share of the client-side latency.
    let (write_stats, read_stats) = rr.check_stored(&mut gate);
    let server_p50_us = |stats: &Option<profserve::ServerStatsReport>, verb: &str| -> f64 {
        stats
            .as_ref()
            .and_then(|s| {
                s.latency
                    .iter()
                    .find(|l| l.verb == verb && l.proto == "bin")
            })
            .map_or(0.0, |l| ns_to_us(l.p50_ns as f64))
    };
    if opts.trace {
        progress(start, "per-layer: replication pages");
        layers::replica_pages(
            &tracer,
            &rr.reads,
            shape.shards,
            &root.join("page-follower"),
            &mut gate,
        );
    }
    noise.poll();
    let stored_runs = rr.reopened_runs;
    let disk_bytes = rr.disk_bytes;
    let replicated_frames = rr.stored.total;
    let page_frames = rr.page_frames();
    let (prefill_compact_ns, prefill_folded) = (rr.prefill_compact_ns, rr.prefill_folded);
    let samples = std::mem::take(&mut rr.samples);
    let (inputs, read_spec, read_dir) = rr.stop();

    let mut attribution = String::new();
    if opts.trace {
        values.set(
            "ingest_durable_profiles_per_s",
            samples.durable.profiles_per_s(),
        );
        values.set("top_cached_us", ns_to_us(decile1(&samples.top_ns)));
        // ---- per-layer measurements, no daemon of the run alive ----
        progress(start, "per-layer measurements");
        layers::connect_and_export(&tracer, &root.join("export"), &mut gate);
        counting::count_allocs(true);
        let hooks = layers::hooks(&tracer);
        let causal_kernel = w
            .measure
            .kernels
            .iter()
            .find(|k| k.causal)
            .expect("every section has a causal kernel");
        let dag_tasks = layers::critpath_layers(&tracer, causal_kernel, &mut gate);
        // The one measurement that needs two CPUs.
        if let Some(all) = floating.filter(|_| fp.pinned_cpu.is_some()) {
            host::run_on(&all);
        }
        layers::team2_dilation(&tracer, &w.measure.kernels[0], &mut gate);
        if fp.pinned_cpu.is_some() {
            host::pin_to_one_cpu();
        }
        let mut replay_store = OpenSpec::new(shape.shards, false).open(&root.join("replay"));
        let allocs_per_ingest =
            layers::replay_bin(&tracer, &samples.recorded, &mut replay_store, &mut gate);
        drop(replay_store);
        layers::json_chain(&tracer, &inputs, &mut gate);
        layers::codecs(&tracer, &inputs);
        let allocs_per_load = layers::store_ops(
            &tracer,
            &read_spec,
            &read_dir,
            &root.join("apply"),
            &inputs,
            shape.regress_last,
            &mut gate,
        );
        counting::count_allocs(false);
        noise.poll();

        let med = |layer: &str, name: &str| median(&tracer.per_op_ns(layer, name));
        let dec = |layer: &str, name: &str| decile1(&tracer.per_op_ns(layer, name));
        let min = |layer: &str, name: &str| minimum(&tracer.per_op_ns(layer, name));

        // measurement path
        let event_ns = mr.event_ns();
        let hot = min("core", "event_hot");
        let virt = min("core", "event_virtual");
        values.set("event_ns", event_ns);
        values.set("pomp.clock_read_ns", min("pomp", "clock_read"));
        values.set("core.event_ns_hot", hot);
        values.set("core.event_ns_virtual", virt);
        values.set("core.kernel_gap_ns", event_ns - hot);
        values.set("core.allocs_per_kevent", hooks.allocs_per_kevent);
        values.set(
            "telemetry.event_ns",
            min("core", "event_telemetry_on") - min("core", "event_telemetry_off"),
        );
        values.set("taskrt.task_ns", mr.task_ns());
        values.set(
            "core.region_cycle_us",
            ns_to_us(med("core", "region_cycle")),
        );
        values.set("core.finish_us", mr.finish_us());
        values.set(
            "taskrt.team2_dilation",
            med("taskrt", "team2_instr") / med("taskrt", "team2_base"),
        );
        values.set(
            "core.edge_event_ns",
            min("core", "event_edges_on") - min("core", "event_edges_off"),
        );
        let drains = tracer.totals()[&("core", "edge_drain")].total_ns;
        values.set("core.edge_drain_ms", drains / 1e6);
        values.set(
            "critpath.dag_build_ns_per_task",
            med("critpath", "dag_build") / dag_tasks as f64,
        );
        values.set("critpath.report_ms", med("critpath", "report") / 1e6);
        values.set("critpath.whatif_ms", med("critpath", "whatif") / 1e6);
        values.set("core.profile_nodes", mr.profile_nodes() as f64);
        values.set("core.max_live_trees", mr.max_live_trees() as f64);

        // binary ingest, decomposed per profile: first deciles on both
        // sides, so the replayed layers can be summed against it
        let e2e_us = samples.bin.us_per_profile();
        let wire_encode =
            ns_to_us(dec("profserve", "wire_encode") + dec("profserve", "response_codec"));
        let wire_decode = ns_to_us(dec("profserve", "wire_decode"));
        let frame = ns_to_us(dec("profserve", "frame") + dec("profserve", "try_frame"));
        let payload_decode = ns_to_us(dec("profstore", "payload_decode"));
        let ingest = ns_to_us(dec("profstore", "ingest"));
        let in_process = wire_encode + wire_decode + frame + payload_decode + ingest;
        values.set("profserve.transport_us_per_profile", e2e_us - in_process);
        values.set("profserve.wire_encode_us", wire_encode);
        values.set("profserve.wire_decode_us", wire_decode);
        values.set("profserve.frame_us", frame);
        values.set("profstore.decode_record_us", payload_decode);
        values.set("profstore.ingest_us", ingest);
        values.set(
            "profstore.encode_record_us",
            ns_to_us(med("profstore", "encode_record")),
        );
        let crc = &tracer.totals()[&("profstore", "crc32")];
        values.set(
            "profstore.crc32_ns_per_kb",
            crc.total_ns / (crc.bytes as f64 / 1024.0),
        );
        values.set(
            "profstore.io.writes_per_profile",
            samples.bin_io.writes as f64 / samples.bin.profiles as f64,
        );
        values.set("profstore.allocs_per_ingest", allocs_per_ingest);
        values.set(
            "profserve.batch_p50_us",
            ns_to_us(median(&samples.bin.batch_ns)),
        );
        values.set(
            "profserve.batch_tail_us",
            tail_us(
                "profserve.batch_tail_us",
                &samples.bin.batch_ns,
                &mut detail,
            ),
        );
        values.set(
            "profserve.server_ingest_batch_p50_us",
            server_p50_us(&write_stats, "ingest_batch"),
        );
        values.set(
            "profserve.wire_bytes_per_profile",
            samples.bin.wire_bytes as f64 / samples.bin.profiles as f64,
        );
        values.set("session.export_us", ns_to_us(med("session", "export")));

        // JSON ingest
        values.set(
            "profserve.json_encode_us",
            ns_to_us(med("profserve", "json_encode")),
        );
        values.set(
            "profserve.json_decode_us",
            ns_to_us(med("profserve", "json_decode")),
        );
        values.set(
            "cube.write_profile_us",
            ns_to_us(med("cube", "write_profile")),
        );
        values.set(
            "cube.read_profile_us",
            ns_to_us(med("cube", "read_profile")),
        );
        values.set(
            "profserve.json_req_p50_us",
            ns_to_us(median(&samples.json.request_ns)),
        );
        values.set(
            "profserve.json_bytes_per_profile",
            samples.json.wire_bytes as f64 / samples.json.profiles as f64,
        );

        // durable ingest
        values.set(
            "profstore.ingest_sync_us",
            samples.durable.us_per_profile() - e2e_us,
        );
        values.set(
            "profstore.io.fsyncs_per_profile",
            samples.durable_io.fsyncs as f64 / samples.durable.profiles as f64,
        );
        values.set(
            "profstore.io.busy_pct",
            100.0 * samples.durable_io.busy_ns as f64 / samples.durable_wall_ns,
        );

        // regress
        values.set("profstore.load_us", ns_to_us(med("profstore", "load")));
        values.set(
            "profstore.window_fold_us_per_run",
            ns_to_us(med("profstore", "window_fold")),
        );
        let queries = samples.regress_ns.len() as f64;
        values.set(
            "profstore.io.opens_per_regress",
            samples.regress_io.opens as f64 / queries,
        );
        values.set(
            "profstore.io.read_bytes_per_regress",
            samples.regress_io.read_bytes as f64 / queries,
        );
        values.set("profstore.allocs_per_load", allocs_per_load);
        values.set(
            "profserve.server_regress_p50_us",
            server_p50_us(&read_stats, "query_regress"),
        );
        values.set(
            "profserve.regress_tail_us",
            tail_us(
                "profserve.regress_tail_us",
                &samples.regress_ns,
                &mut detail,
            ),
        );

        // top
        values.set(
            "profstore.cached_fold_us",
            ns_to_us(med("profstore", "cached_fold")),
        );
        values.set(
            "profstore.compact_us_per_run",
            ns_to_us(prefill_compact_ns) / prefill_folded.max(1) as f64,
        );
        values.set(
            "profstore.trend_ms",
            median(&tracer.durations_ns("profstore", "trend")) / 1e6,
        );
        values.set(
            "profstore.gc_ms",
            tracer.totals()[&("profstore", "gc")].total_ns / 1e6,
        );
        values.set(
            "profserve.top_cached_tail_us",
            tail_us("profserve.top_cached_tail_us", &samples.top_ns, &mut detail),
        );
        values.set("cube.agg_us", ns_to_us(med("cube", "agg")));
        values.set("cube.render_us", ns_to_us(med("cube", "render")));

        // replication
        values.set(
            "profstore.export_us_per_frame",
            ns_to_us(med("profstore", "export_frames")),
        );
        values.set(
            "profstore.apply_us_per_frame",
            ns_to_us(med("profstore", "apply_frames")),
        );
        values.set(
            "profserve.replica_export_us_per_frame",
            ns_to_us(med("profserve", "client.export_frames")),
        );
        values.set(
            "profserve.replica_apply_us_per_frame",
            ns_to_us(med("profserve", "client.apply_frames")),
        );
        values.set(
            "profserve.connect_hello_us",
            ns_to_us(med("profserve", "connect_hello")),
        );

        // reopen
        values.set(
            "profstore.open_us_per_run",
            ns_to_us(decile1(&samples.reopen_ns)) / stored_runs as f64,
        );

        // harness
        values.set(
            "trace_overhead_pct",
            100.0
                * (decile1(&samples.bin.batch_ns) / decile1(&samples.bin_untraced.batch_ns) - 1.0),
        );
        values.set("host.runq_wait_pct", noise.runq_wait_pct());
        values.set("host.steal_pct", noise.steal_pct());

        attribution = attribution_table(&values, &tracer, e2e_us, w);
        let trace_path =
            PathBuf::from("benchmark/out").join(format!("{}.trace.jsonl", w.spec.name));
        tracer
            .write_jsonl(&trace_path)
            .expect("write the span file");
    } else {
        values.set("setup_s", median(&setup_ns) / 1e9);
        values.set("dilation", mr.dilation());
        values.set("causal_dilation", mr.causal_dilation());
        values.set("causal_report_ms", mr.causal_report_ms());
        values.set("peak_rss_mb", host::peak_rss_mb());
        values.set("ingest_bin_profiles_per_s", samples.bin.profiles_per_s());
        values.set("ingest_json_profiles_per_s", samples.json.profiles_per_s());
        values.set("regress_us", ns_to_us(decile1(&samples.regress_ns)));
        values.set(
            "replicate_profiles_per_s",
            replicated_frames as f64 / (decile1(&samples.replicate_ns) / 1e9),
        );
        values.set("reopen_ms", decile1(&samples.reopen_ns) / 1e6);
        values.set(
            "disk_bytes_per_profile",
            disk_bytes as f64 / stored_runs as f64,
        );
        // Shown, not gated: the traced run reports these as metrics.
        for (name, value, unit) in [
            ("event_ns", mr.event_ns(), "ns"),
            (
                "ingest_durable_profiles_per_s",
                samples.durable.profiles_per_s(),
                "1/s",
            ),
            ("top_cached_us", ns_to_us(decile1(&samples.top_ns)), "us"),
        ] {
            detail.push(Detail {
                name: name.to_string(),
                value,
                unit,
            });
        }
    }
    detail.push(Detail {
        name: "rounds".to_string(),
        value: rounds as f64,
        unit: "count",
    });
    detail.push(Detail {
        name: "stored_runs".to_string(),
        value: stored_runs as f64,
        unit: "count",
    });
    detail.push(Detail {
        name: "replicate.page_frames".to_string(),
        value: page_frames as f64,
        unit: "count",
    });

    progress(start, "done");
    let _ = std::fs::remove_dir_all(&root);
    RunResult {
        values,
        detail,
        gate,
        runq_wait_pct: noise.runq_wait_pct(),
        steal_pct: noise.steal_pct(),
        attribution,
    }
}

/// The attribution tables of the traced run: each decomposed end-to-end
/// number as the sum of its layers, the remainder named, then the span
/// totals with self time.
fn attribution_table(values: &Values, tracer: &Tracer, bin_us: f64, w: &Workload) -> String {
    let v = |name: &str| values.get(name).expect("layer metric set above");
    let mut out = String::new();
    out.push_str(&format!(
        "\n-- attribution: binary ingest on {} (traced run), us per profile --\n",
        w.repo.section
    ));
    let rows = [
        (
            "profserve.wire_encode_us",
            "request encode + response codec",
        ),
        ("profserve.frame_us", "frame + try_frame"),
        ("profserve.wire_decode_us", "request decode"),
        ("profstore.decode_record_us", "payload decode"),
        ("profstore.ingest_us", "store ingest"),
        (
            "profserve.transport_us_per_profile",
            "remainder: syscalls, reactor, copies, wake-ups",
        ),
    ];
    for (name, what) in rows {
        out.push_str(&format!("  {:<38} {:>10.3}  {what}\n", name, v(name)));
    }
    out.push_str(&format!(
        "  {:<38} {:>10.3}  end-to-end (sum of the above)\n",
        "ingest_bin us/profile", bin_us
    ));
    out.push_str(&format!(
        "\n-- attribution: instrumentation cost per event on {} (traced run), ns --\n",
        w.measure.section
    ));
    let clock = v("core.event_ns_hot") - v("core.event_ns_virtual");
    out.push_str(&format!(
        "  {:<38} {:>10.3}  hot loop real clock - virtual clock\n",
        "clock read share", clock
    ));
    out.push_str(&format!(
        "  {:<38} {:>10.3}  hot loop under the virtual clock\n",
        "core.event_ns_virtual",
        v("core.event_ns_virtual")
    ));
    out.push_str(&format!(
        "  {:<38} {:>10.3}  remainder: appears only inside kernels\n",
        "core.kernel_gap_ns",
        v("core.kernel_gap_ns")
    ));
    out.push_str(&format!(
        "  {:<38} {:>10.3}  in-kernel cost per event (sum of the above)\n",
        "event_ns",
        v("event_ns")
    ));
    out.push_str("\n-- spans: layer/name, spans, total ms, self ms, operations --\n");
    for ((layer, name), t) in tracer.totals() {
        out.push_str(&format!(
            "  {:<44} {:>7} {:>12.3} {:>12.3} {:>12}\n",
            format!("{layer}/{name}"),
            t.spans,
            t.total_ns / 1e6,
            t.self_ns / 1e6,
            t.count
        ));
    }
    out
}

fn metrics_json(rows: &[(&Metric, f64)]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|(m, v)| {
                (
                    m.name.to_string(),
                    Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

fn report(w: &Workload, opts: &Opts, fp: &Fingerprint, result: &RunResult) -> String {
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let rows = result.values.in_table(table);
    let disturbed = result.runq_wait_pct > host::DISTURBED_RUNQ_WAIT_PCT
        || result.steal_pct > host::DISTURBED_STEAL_PCT;

    println!(
        "== {} seed={} seconds={} trace={} ==",
        w.spec.name, opts.seed, opts.seconds, opts.trace as u8
    );
    println!(
        "host: nproc={} kernel={} rev={} clock={} transport={} pinned_cpu={}",
        fp.nproc,
        fp.kernel,
        fp.git_rev,
        fp.clock_path,
        fp.transport,
        fp.pinned_cpu.map_or("none".to_string(), |c| c.to_string())
    );
    println!(
        "noise: runq_wait={:.2}% steal={:.2}%{}",
        result.runq_wait_pct,
        result.steal_pct,
        if disturbed {
            "  ** DISTURBED RUN **"
        } else {
            ""
        }
    );
    for (m, v) in &rows {
        println!("  {:<40} {:>16.4} {}", m.name, v, m.unit);
    }
    for d in &result.detail {
        println!("    {:<42} {:>14.4} {}", d.name, d.value, d.unit);
    }
    print!("{}", result.attribution);
    println!(
        "checked {} operations, {} failed",
        result.gate.attempted, result.gate.failed
    );

    let correct = result.gate.failed == 0;
    if let Some(path) = &opts.out {
        let line = Json::obj(vec![
            ("workload", Json::str(w.spec.name)),
            ("seed", Json::num(opts.seed)),
            ("seconds", Json::Num(opts.seconds)),
            ("trace", Json::Bool(opts.trace)),
            ("nproc", Json::num(fp.nproc as u64)),
            ("kernel", Json::str(fp.kernel.as_str())),
            ("git_rev", Json::str(fp.git_rev.as_str())),
            ("clock_path", Json::str(fp.clock_path)),
            ("transport", Json::str(fp.transport)),
            (
                "pinned_cpu",
                fp.pinned_cpu.map_or(Json::Null, |c| Json::num(c as u64)),
            ),
            ("runq_wait_pct", Json::Num(result.runq_wait_pct)),
            ("steal_pct", Json::Num(result.steal_pct)),
            ("disturbed", Json::Bool(disturbed)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(result.gate.attempted)),
            ("failed", Json::num(result.gate.failed)),
            ("metrics", metrics_json(&rows)),
            (
                "detail",
                Json::Obj(
                    result
                        .detail
                        .iter()
                        .map(|d| (d.name.clone(), Json::Num(d.value)))
                        .collect(),
                ),
            ),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
        writeln!(file, "{line}").expect("append the run to --out");
    }

    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(result.gate.attempted)),
        ("failed", Json::num(result.gate.failed)),
        ("metrics", metrics_json(&rows)),
    ])
    .to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else { usage() };
            std::process::exit(compare::run(Path::new(a), Path::new(b)));
        }
        Some("spec") => {
            let specs: Vec<WorkloadSpec> = WORKLOADS
                .iter()
                .map(|w| WorkloadSpec {
                    name: w.spec.name,
                    why: w.spec.why,
                })
                .collect();
            println!("{}", metrics::spec(&specs, RUN_SECONDS));
            return;
        }
        Some("describe") => {
            print!("{}", metrics::describe());
            return;
        }
        _ => {}
    }
    let opts = parse_opts(&args);
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| opts.workload == "all" || opts.workload == w.spec.name)
        .collect();
    if selected.is_empty() {
        usage();
    }
    // Before any thread is spawned, so daemons and teams inherit it.
    let floating = host::allowed_cpus();
    let mut fp = Fingerprint::collect();
    fp.pinned_cpu = host::pin_to_one_cpu();
    for w in selected {
        let result = run_workload(w, &opts, &fp, floating);
        // The result line is the last one on standard output.
        println!("{}", report(w, &opts, &fp, &result));
    }
}
