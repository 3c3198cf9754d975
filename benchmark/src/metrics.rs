//! The metric tables: the one place names, units, directions and bounds
//! are written down. `BENCHMARK.json` is `benchmark spec` printed.

use profserve::Json;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for a per-layer metric.
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: Some(bound),
        what,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool, what: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: None,
        what,
    }
}

/// What a user of the system sees. Measured with tracing off.
///
/// Every timing is the first decile of its samples (see
/// `stats::decile1`), which are spread over all rounds of the run; a
/// dilation is the median of per-repetition ratios.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25, "median of five full set-ups: input generation, kernel counting and warm-up, read-store prefill, sealing and compaction, three daemons, query references, one warm-up request of every kind"),
    e2e("dilation", "x", false, 0.05, "geometric mean over the kernels of the median instrumented / uninstrumented kernel time, the two run back to back, default session, team of 1"),
    e2e("causal_dilation", "x", false, 0.10, "as dilation, session built with record_task_edges(), over the causal kernels"),
    e2e("causal_report_ms", "ms", false, 0.25, "finish() + critpath() + render_critpath, summed over the causal kernels"),
    e2e("peak_rss_mb", "MB", false, 0.10, "VmHWM of the benchmark process at the end of the run"),
    e2e("ingest_bin_profiles_per_s", "1/s", true, 0.25, "TPF1 INGEST_BATCH of 64 into the write store, one closed-loop client: 64 / batch time"),
    e2e("ingest_json_profiles_per_s", "1/s", true, 0.25, "JSON-lines single ingests into the write store, response awaited: batch size / batch time"),
    e2e("regress_us", "us", false, 0.25, "client-side latency of windowed QUERY regress on the read store, groups round-robin"),
    e2e("replicate_profiles_per_s", "1/s", true, 0.25, "frames applied / wall time of a full replicate of the read store into an empty follower daemon"),
    e2e("reopen_ms", "ms", false, 0.25, "open of the store a follower left (the read store's runs), OS cache warm"),
    e2e("disk_bytes_per_profile", "B", false, 0.05, "StoreStats.bytes / runs of that store; exact for a seed"),
];

/// Single layers (layer = crate). Measured in the traced run; no bound.
pub const PER_LAYER: &[Metric] = &[
    // Through the daemon, wall clock, first deciles. Demoted from the
    // end-to-end table: they could not hold a 25 % bound between sets of
    // ten runs (README, "Demoted metrics").
    layer("ingest_durable_profiles_per_s", "1/s", true, "as ingest_bin_profiles_per_s against the daemon whose store has sync_writes on"),
    layer("top_cached_us", "us", false, "client-side latency of unbounded QUERY top on the compacted read store"),
    // -> dilation on fine_small, not on coarse_large
    // Demoted from the end-to-end table: on coarse tasks it is a small
    // difference of large times and changes sign from run to run.
    layer("event_ns", "ns", false, "sum(instrumented - base) / sum(events) over the kernels, first deciles; exact event counts"),
    layer("pomp.clock_read_ns", "ns", false, "one per-thread calibrated clock read, minimum batch of 20k"),
    layer("core.event_ns_hot", "ns", false, "one hook event in the 6-hook task-cycle loop, real clock, minimum batch"),
    layer("core.event_ns_virtual", "ns", false, "same loop under VirtualClock: the non-clock machinery"),
    layer("core.kernel_gap_ns", "ns", false, "event_ns - core.event_ns_hot: per-event cost that appears only inside kernels"),
    layer("core.allocs_per_kevent", "count", false, "allocations per 1000 events in the steady-state hot loop"),
    layer("telemetry.event_ns", "ns", false, "hot loop with live telemetry on - off"),
    layer("taskrt.task_ns", "ns", false, "uninstrumented kernel time / tasks: the denominator of dilation"),
    // -> dilation on coarse_large, not on fine_small
    layer("core.region_cycle_us", "us", false, "thread_begin + 32 task cycles + thread_end, median"),
    layer("core.finish_us", "us", false, "finish() of the default session, median over kernel runs"),
    layer("taskrt.team2_dilation", "x", false, "first kernel's dilation on a team of 2; informational, unstable on 2 vCPUs"),
    // -> causal_dilation, causal_report_ms
    layer("core.edge_event_ns", "ns", false, "hot loop with the task-edge log on - off"),
    layer("core.edge_drain_ms", "ms", false, "take_edge_streams of the hot loop's 1.2 M-event log"),
    layer("critpath.dag_build_ns_per_task", "ns", false, "TaskDag::from_streams of the first causal kernel / tasks, median"),
    layer("critpath.report_ms", "ms", false, "TaskDag::report on that DAG, median"),
    layer("critpath.whatif_ms", "ms", false, "one what_if re-solve on that DAG, median"),
    // -> peak_rss_mb
    layer("core.profile_nodes", "count", false, "call-tree nodes in the kernels' profiles, summed; exact at 1 thread"),
    layer("core.max_live_trees", "count", false, "largest concurrent instance-tree count over the kernels (paper Table II)"),
    // -> ingest_bin_profiles_per_s
    layer("profserve.transport_us_per_profile", "us", false, "ingest_bin us/profile (traced rounds) - sum of the five replayed in-process layers below: syscalls, reactor, copies, wake-ups"),
    layer("profserve.wire_encode_us", "us", false, "wire::encode_request + response codec per profile, first decile over the replayed batches"),
    layer("profserve.wire_decode_us", "us", false, "wire::decode_request per profile, replayed"),
    layer("profserve.frame_us", "us", false, "wire::frame + wire::try_frame per profile, replayed"),
    layer("profstore.decode_record_us", "us", false, "ProfilePayload::decode (decode_record) per profile, replayed"),
    layer("profstore.ingest_us", "us", false, "store ingest per profile in-process, replayed: encode_record, CRC, append, index"),
    layer("profstore.encode_record_us", "us", false, "profstore::encode_record of one pool profile, median"),
    layer("profstore.crc32_ns_per_kb", "ns", false, "crc32 over encoded records, per KiB"),
    layer("profstore.io.writes_per_profile", "count", false, "StoreFile::write_all calls per profile on the leader during binary ingest; exact"),
    layer("profstore.allocs_per_ingest", "count", false, "allocations inside store ingest per profile, replayed batches; exact"),
    layer("profserve.batch_p50_us", "us", false, "client-side INGEST_BATCH latency, median"),
    layer("profserve.batch_tail_us", "us", false, "same, p99 or the highest percentile with ten samples beyond it"),
    layer("profserve.server_ingest_batch_p50_us", "us", false, "the daemon's own STATS histogram for ingest_batch (log2 buckets); client - server = queueing + transport"),
    layer("profserve.wire_bytes_per_profile", "B", false, "TPF1 payload bytes per profile"),
    layer("session.export_us", "us", false, "finish() of a session with export_to(daemon), median"),
    // -> ingest_json_profiles_per_s
    layer("profserve.json_encode_us", "us", false, "Request::to_json_line of one ingest, median over the pool"),
    layer("profserve.json_decode_us", "us", false, "Request::from_json_line of that line, median"),
    layer("cube.write_profile_us", "us", false, "cube::write_profile of one pool profile, median"),
    layer("cube.read_profile_us", "us", false, "cube::read_profile of that text, median"),
    layer("profserve.json_req_p50_us", "us", false, "client-side latency of one JSON ingest, median"),
    layer("profserve.json_bytes_per_profile", "B", false, "profile text bytes per JSON ingest"),
    // -> ingest_durable_profiles_per_s
    layer("profstore.ingest_sync_us", "us", false, "durable end-to-end us/profile - non-durable end-to-end us/profile"),
    layer("profstore.io.fsyncs_per_profile", "count", false, "sync_data + sync_all calls per profile on the durable store; exact"),
    layer("profstore.io.busy_pct", "%", false, "share of the durable phase's wall time inside StoreIo/StoreFile calls"),
    // -> regress_us
    layer("profstore.load_us", "us", false, "ProfileStore::load of one run in-process, median"),
    layer("profstore.window_fold_us_per_run", "us", false, "aggregate_window(last=N) / N in-process, median"),
    layer("profstore.io.opens_per_regress", "count", false, "files opened per QUERY regress on the leader; exact"),
    layer("profstore.io.read_bytes_per_regress", "B", false, "bytes read per QUERY regress on the leader; exact"),
    layer("profstore.allocs_per_load", "count", false, "allocations per in-process load; exact"),
    layer("profserve.server_regress_p50_us", "us", false, "the daemon's own STATS histogram for query_regress (log2 buckets)"),
    layer("profserve.regress_tail_us", "us", false, "client-side regress latency, p99 or the highest supported percentile"),
    // -> top_cached_us
    layer("profstore.cached_fold_us", "us", false, "unbounded aggregate in-process after compaction, median"),
    layer("profstore.compact_us_per_run", "us", false, "explicit compact() / runs folded: the write-lock stall a background compaction imposes"),
    layer("profstore.trend_ms", "ms", false, "trend(last = 8 windows, 16 buckets) in-process, median"),
    layer("profstore.gc_ms", "ms", false, "keep_last sweep of a 1024-run scratch store"),
    layer("profserve.top_cached_tail_us", "us", false, "client-side top latency, p99 or the highest supported percentile"),
    layer("cube.agg_us", "us", false, "AggProfile::from_profile of one pool profile, median"),
    layer("cube.render_us", "us", false, "render_profile of that aggregate, median"),
    // -> replicate_profiles_per_s
    layer("profstore.export_us_per_frame", "us", false, "export_frames in-process per frame, median"),
    layer("profstore.apply_us_per_frame", "us", false, "apply_frame in-process per frame, median"),
    layer("profserve.replica_export_us_per_frame", "us", false, "Client::export_frames against the leader per frame, median"),
    layer("profserve.replica_apply_us_per_frame", "us", false, "Client::apply_frames against a follower per frame, median"),
    layer("profserve.connect_hello_us", "us", false, "TCP connect + TPF1 HELLO, median"),
    // -> reopen_ms
    layer("profstore.open_us_per_run", "us", false, "median reopen / runs"),
    // harness
    layer("trace_overhead_pct", "%", false, "binary ingest batch time in the rounds that span it vs the rounds that do not"),
    layer("host.runq_wait_pct", "%", false, "share of runnable time this process's threads waited for a CPU (schedstat)"),
    layer("host.steal_pct", "%", false, "share of CPU time stolen from the guest during the run (/proc/stat)"),
];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

fn metric_json(m: &Metric) -> Json {
    let mut members = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        (
            "better",
            Json::str(if m.higher { "higher" } else { "lower" }),
        ),
    ];
    if let Some(bound) = m.bound {
        members.push(("bound", Json::Num(bound)));
    }
    Json::obj(members)
}

/// `BENCHMARK.json`, from the tables above.
pub fn spec(workloads: &[WorkloadSpec], run_seconds: u64) -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let doc = Json::obj(vec![
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::num(run_seconds)),
        (
            "workloads",
            Json::Arr(
                workloads
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ]);
    pretty(&doc, 0)
}

/// The two tables as markdown, for `benchmark/README.md`.
pub fn describe() -> String {
    let mut out = String::new();
    for (title, table) in [("End-to-end", END_TO_END), ("Per-layer", PER_LAYER)] {
        out.push_str(&format!(
            "### {title} metrics\n\n| name | unit | better | bound | definition |\n|---|---|---|---|---|\n"
        ));
        for m in table {
            out.push_str(&format!(
                "| `{}` | {} | {} | {} | {} |\n",
                m.name,
                m.unit,
                if m.higher { "higher" } else { "lower" },
                m.bound
                    .map_or("-".to_string(), |b| format!("{:.0} %", 100.0 * b)),
                m.what
            ));
        }
        out.push('\n');
    }
    out
}

/// Two-space pretty printer, one metric object per line.
fn pretty(v: &Json, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    match v {
        Json::Obj(members) if depth == 0 => {
            let body: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", Json::str(k.as_str()), pretty(v, depth + 1)))
                .collect();
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
        Json::Arr(items) if items.iter().any(|i| matches!(i, Json::Obj(_))) => {
            let body: Vec<String> = items.iter().map(|i| format!("{pad}{i}")).collect();
            format!("[\n{}\n{close}]", body.join(",\n"))
        }
        other => other.to_string(),
    }
}

/// Values of one run, checked against a table when read out.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Exactly the metrics of `table`, in table order. A missing or an
    /// unlisted metric is a bug in the benchmark, not a result.
    pub fn in_table<'a>(&self, table: &'a [Metric]) -> Vec<(&'a Metric, f64)> {
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|m| m.name == *name),
                "metric {name} is not in the table it was reported for"
            );
        }
        table
            .iter()
            .map(|m| {
                let v = self
                    .get(m.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
                (m, v)
            })
            .collect()
    }
}
