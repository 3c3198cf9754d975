//! The frozen telemetry exports, `tests/golden/compat/telemetry_v1.txt`:
//! every Prometheus and JSON-lines rendering the tool emits, each parser's
//! verdict on them and on the lenient and refused lines, the two ASCII
//! dashboards, and a live daemon's `STATS prometheus` scrape. Written once
//! by the exporters of the parent commit and never regenerated: a change
//! that makes this test fail changed a rendered byte; fix the code, never
//! the file.
//!
//! Every scalar and every per-class cell of the snapshots below carries a
//! value no other field has, so a metric wired to the wrong field changes
//! the bytes.

use pomp::EventClass;
use profserve::{
    render_fleet, Client, ClientTimeouts, LatencyStat, Record, ServeConfig, Server,
    ServerStatsReport, WireProtocol,
};
use profstore::{ProfileStore, Repo, ShardedStore, StoreStats};
use std::fmt::Write as _;
use std::path::PathBuf;
use taskprof_telemetry::{
    latency_to_jsonl_line, latency_to_prometheus, parse_jsonl_line, parse_latency_jsonl_line,
    parse_prometheus, service_to_prometheus, to_jsonl_line, to_prometheus, HistogramSnapshot,
    LatencyHistogram, ServiceSnapshot, TelemetrySnapshot,
};

/// A snapshot whose every field holds a value no other field holds, and
/// whose sampled costs make the overhead estimate fractional.
fn distinct_snapshot() -> TelemetrySnapshot {
    let mut s = TelemetrySnapshot {
        tasks_created: 101,
        tasks_completed: 102,
        tasks_aborted: 103,
        tasks_shed: 104,
        fragments: 105,
        stub_time_ns: 106_000,
        live_trees: 107,
        live_trees_hwm: 108,
        threads_active: 109,
        handoff_depth: 110,
        spare_arenas: 111,
        arenas_recycled: 112,
        arenas_allocated: 113,
        ..TelemetrySnapshot::default()
    };
    for c in EventClass::ALL {
        let i = c.index() as u64;
        s.events[c.index()] = 1_000 + 17 * i;
        s.perturb_samples[c.index()] = 3 + i;
        s.perturb_ns[c.index()] = 500 + 31 * i;
    }
    s
}

fn histogram(samples: &[u64]) -> HistogramSnapshot {
    let h = LatencyHistogram::new();
    for &ns in samples {
        h.record(ns);
    }
    h.snapshot()
}

fn labels(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Labelled histogram series, as `latency_to_prometheus` takes them.
type Series = Vec<(Vec<(String, String)>, HistogramSnapshot)>;

/// Zero, one and three labelled series; the third set has an unlabelled
/// series and one sample in the saturating top bucket.
fn latency_sets() -> Vec<Series> {
    let ingest = histogram(&[100, 200, 3_000]);
    vec![
        Vec::new(),
        vec![(labels(&[("verb", "ingest"), ("proto", "json")]), ingest)],
        vec![
            (labels(&[("verb", "ingest"), ("proto", "bin")]), ingest),
            (
                labels(&[("verb", "stats"), ("proto", "json")]),
                histogram(&[0, 1, 5, 1 << 40]),
            ),
            (Vec::new(), histogram(&[7])),
        ],
    ]
}

/// The flat JSONL key of a labelled series: its label values, dotted.
fn series_key(labels: &[(String, String)]) -> String {
    labels
        .iter()
        .map(|(_, v)| v.as_str())
        .collect::<Vec<_>>()
        .join(".")
}

fn section(out: &mut String, title: &str, body: &str) {
    let _ = writeln!(out, "== {title}");
    out.push_str(body);
    if !body.ends_with('\n') {
        out.push('\n');
    }
}

/// Every parser's verdict on `text`.
fn parsed(out: &mut String, title: &str, text: &str) {
    section(
        out,
        &format!("{title} parse_prometheus"),
        &format!("{:?}", parse_prometheus(text)),
    );
    section(
        out,
        &format!("{title} parse_jsonl_line"),
        &format!("{:?}", parse_jsonl_line(text)),
    );
    section(
        out,
        &format!("{title} parse_latency_jsonl_line"),
        &format!("{:?}", parse_latency_jsonl_line(text)),
    );
}

/// Lines the parsers accept leniently or refuse.
const ODD_LINES: [&str; 16] = [
    r#"{"t_ns":5,"tasks_created":2,"future_key":9}"#,
    "not json",
    r#"{"t_ns":-1}"#,
    "nope",
    "metric_without_value",
    "name{unclosed 1",
    "na me 1",
    "ok_metric nope",
    "# TYPE x counter\n\n",
    "{}",
    r#"{ "t_ns" : 7 , "tasks_shed" : 3 , }"#,
    r#"{"events.enter":5,"events.bogus":1,"perturb_ns.exit":3,"t_ns":2,"t_ns":4}"#,
    r#"{"t_ns":1,"ingest.json.b31":4,"ingest.json.b99":1,"x.count":2,"x.sum_ns":9,"nodot":3}"#,
    r#"{"a":1:2}"#,
    r#"{a:1}"#,
    r#"{"k"}"#,
];

fn fleet_report() -> ServerStatsReport {
    let service = ServiceSnapshot {
        connections: 11,
        shed_connections: 12,
        timeout_connections: 13,
        ingests: 14,
        ingest_bytes: 15_000,
        queries: 16,
        errors: 17,
        panics: 18,
        json_requests: 19,
        bin_requests: 20,
        ingest_batches: 21,
        subscriptions: 22,
        sub_events: 23,
        sub_lagged: 24,
    };
    let row = |verb: &str, proto: &str, count, p50_ns, p99_ns, max_ns| LatencyStat {
        verb: verb.to_string(),
        proto: proto.to_string(),
        count,
        sum_ns: count * p50_ns,
        max_ns,
        p50_ns,
        p99_ns,
    };
    ServerStatsReport {
        service,
        read_only: true,
        store: StoreStats {
            segments: 3,
            runs: 42,
            bytes: 98_765,
            recovered_tail_bytes: 0,
            compacted_through: 2,
        },
        open_timestamp_ns: 1_700_000_000_000_000_000,
        uptime_secs: 3_601,
        latency: vec![
            row("ingest", "bin", 9, 1_500, 9_000, 12_000),
            row("query_top", "json", 3, 40_000, 2_500_000, 3_000_000),
        ],
    }
}

const PROFILE: &str = "taskprof-profile v1\nthreads 1\nthread 0 max_live 1 arena 8\nmain\n  region parallel \"telemetry-v1 par\" visits 1 sum 90 min 90 max 90 samples 1\n    stub \"telemetry-v1 task\" visits 3 sum 33 min 10 max 12 samples 3\nend\n";

/// Drive a fixed request sequence into a daemon over `store` and return
/// its `STATS prometheus` scrape with every sample value replaced by `_`.
/// The finite histogram buckets a series prints depend on how long its
/// requests took, so only each series' `+Inf` bucket is kept.
fn live_scrape(store: Repo) -> String {
    let config = ServeConfig {
        compact_interval: None,
        ..ServeConfig::default()
    };
    let (handle, join) = Server::spawn("127.0.0.1:0", store, config).expect("spawn");
    let addr = handle.addr().to_string();
    let connect =
        |proto| Client::connect_proto(&addr, proto, ClientTimeouts::unbounded()).expect("connect");
    let mut bin = connect(WireProtocol::Binary);
    let mut json = connect(WireProtocol::Json);
    let profile = cube::read_profile(PROFILE).expect("profile");
    bin.ingest_record(&Record::from_profile("fib", 2, Some(1), &profile))
        .expect("tpf1 ingest");
    json.ingest_record(&Record::from_text("fib", 2, Some(2), PROFILE))
        .expect("json ingest");
    bin.ingest_batch(&[
        Record::from_profile("sort", 4, Some(3), &profile),
        Record::from_profile("fib", 2, Some(4), &profile),
    ])
    .expect("tpf1 batch");
    bin.query_top("fib", 2, 5).expect("top");
    json.query_stats("fib", 2).expect("stats query");
    json.query_top("missing", 1, 5)
        .expect_err("an empty group is not found");
    json.server_stats().expect("stats");
    let scrape = bin.server_stats_prometheus().expect("scrape");
    drop((bin, json));
    handle.stop();
    join.join().expect("daemon thread").expect("daemon run");

    let mut out = String::new();
    for line in scrape.lines() {
        if line.starts_with('#') {
            let _ = writeln!(out, "{line}");
            continue;
        }
        if line.contains("le=\"") && !line.contains("le=\"+Inf\"") {
            continue;
        }
        let (sample, _) = line.rsplit_once(' ').expect("a sample line has a value");
        let _ = writeln!(out, "{sample} _");
    }
    out
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("telemetry-v1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus() -> String {
    let mut out = String::new();
    for (label, s) in [
        ("default", TelemetrySnapshot::default()),
        ("distinct", distinct_snapshot()),
    ] {
        let prom = to_prometheus(&s);
        section(&mut out, &format!("to_prometheus {label}"), &prom);
        parsed(&mut out, &format!("to_prometheus {label}"), &prom);
        let line = to_jsonl_line(987_654_321, &s);
        section(&mut out, &format!("to_jsonl_line {label}"), &line);
        parsed(&mut out, &format!("to_jsonl_line {label}"), &line);
        section(
            &mut out,
            &format!("render_telemetry {label} without elapsed"),
            &cube::render_telemetry(&s, None),
        );
        section(
            &mut out,
            &format!("render_telemetry {label} with elapsed"),
            &cube::render_telemetry(&s, Some(2_345_678)),
        );
    }

    let service = service_to_prometheus(&fleet_report().service);
    section(&mut out, "service_to_prometheus 11..=24", &service);
    let numbered = ServiceSnapshot {
        connections: 1,
        shed_connections: 2,
        timeout_connections: 3,
        ingests: 4,
        ingest_bytes: 5,
        queries: 6,
        errors: 7,
        panics: 8,
        json_requests: 9,
        bin_requests: 10,
        ingest_batches: 11,
        subscriptions: 12,
        sub_events: 13,
        sub_lagged: 14,
    };
    let service = service_to_prometheus(&numbered);
    section(&mut out, "service_to_prometheus 1..=14", &service);
    parsed(&mut out, "service_to_prometheus 1..=14", &service);

    for series in latency_sets() {
        let n = series.len();
        let prom = latency_to_prometheus(
            "profserve_request_latency_ns",
            "Request handling latency by verb and protocol.",
            &series,
        );
        section(
            &mut out,
            &format!("latency_to_prometheus {n} series"),
            &prom,
        );
        parsed(
            &mut out,
            &format!("latency_to_prometheus {n} series"),
            &prom,
        );
        let keyed: Vec<(String, HistogramSnapshot)> = series
            .iter()
            .map(|(labels, snap)| (series_key(labels), *snap))
            .collect();
        let line = latency_to_jsonl_line(123, &keyed);
        section(
            &mut out,
            &format!("latency_to_jsonl_line {n} series"),
            &line,
        );
        parsed(
            &mut out,
            &format!("latency_to_jsonl_line {n} series"),
            &line,
        );
    }

    for (i, line) in ODD_LINES.iter().enumerate() {
        parsed(&mut out, &format!("odd line {i} {line:?}"), line);
    }

    section(&mut out, "render_fleet", &render_fleet(&fleet_report()));
    let quiet = ServerStatsReport {
        latency: Vec::new(),
        read_only: false,
        ..fleet_report()
    };
    section(&mut out, "render_fleet quiet", &render_fleet(&quiet));

    let dir = temp_dir("single");
    let single = ProfileStore::open(&dir).expect("open store");
    section(
        &mut out,
        "STATS prometheus single store",
        &live_scrape(single.into()),
    );
    let _ = std::fs::remove_dir_all(&dir);
    let dir = temp_dir("sharded");
    let sharded = ShardedStore::open(&dir, 2).expect("open sharded store");
    section(
        &mut out,
        "STATS prometheus two shards",
        &live_scrape(sharded.into()),
    );
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn every_export_reproduces_the_frozen_bytes() {
    let got = corpus();
    let want = include_str!("golden/compat/telemetry_v1.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of telemetry_v1.txt", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
    assert_eq!(got, want);
}
