//! Telemetry exporters: the Prometheus text exposition format and
//! JSON-lines time series. Both are written by hand (the build is
//! offline; no serde), and both parse back, so scrape endpoints and log
//! shippers can be tested end to end.
//!
//! A metric family is declared once, as a table with one `Metric` row
//! per metric: the session snapshot's below, the daemon's service
//! counters in [`crate::service`]. [`prom_header`] writes every
//! `# HELP`/`# TYPE` pair the tool emits, and one JSONL writer and one
//! JSONL reader serve every line. Adding a metric to a family is adding
//! its row.

use crate::histogram::{bucket_upper_bound, HistogramSnapshot, HISTOGRAM_BUCKETS};
use crate::snapshot::TelemetrySnapshot;
use pomp::EventClass;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// An export could not be parsed back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportParseError {
    /// 1-based line of the problem.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for ExportParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "telemetry parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ExportParseError {}

fn err(line: usize, message: impl Into<String>) -> ExportParseError {
    ExportParseError {
        line,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------

/// Where a [`Metric`] finds its value in the family's snapshot. The
/// accessors borrow mutably so that the JSONL reader sets a field through
/// the same row the writers read it through.
pub(crate) enum Field<S> {
    /// One number: `name value` in Prometheus, `"key":value` in JSONL.
    Count(fn(&mut S) -> &mut u64),
    /// One number per [`EventClass`]: `name{class="<label>"} value` in
    /// Prometheus, `"key.<label>":value` in JSONL.
    PerClass(fn(&mut S) -> &mut [u64; EventClass::COUNT]),
    /// A figure derived from the others, written to Prometheus only.
    Derived(fn(&S) -> f64),
}

/// One exported metric: its JSONL key, Prometheus name, type and help,
/// and the field holding its value.
pub(crate) struct Metric<S> {
    pub(crate) key: &'static str,
    pub(crate) name: &'static str,
    pub(crate) kind: &'static str,
    pub(crate) help: &'static str,
    pub(crate) field: Field<S>,
}

use Field::{Count, Derived, PerClass};

/// The session snapshot's metrics, in the order Prometheus lists them.
#[rustfmt::skip]
static SNAPSHOT: &[Metric<TelemetrySnapshot>] = &[
    Metric { key: "events", name: "taskprof_events_total", kind: "counter",
        help: "Measurement hook invocations by event class.", field: PerClass(|s| &mut s.events) },
    Metric { key: "tasks_created", name: "taskprof_tasks_created_total", kind: "counter",
        help: "Deferred task instances created.", field: Count(|s| &mut s.tasks_created) },
    Metric { key: "tasks_completed", name: "taskprof_tasks_completed_total", kind: "counter",
        help: "Task instances completed normally.", field: Count(|s| &mut s.tasks_completed) },
    Metric { key: "tasks_aborted", name: "taskprof_tasks_aborted_total", kind: "counter",
        help: "Task instances aborted (panicked or force-closed).", field: Count(|s| &mut s.tasks_aborted) },
    Metric { key: "tasks_shed", name: "taskprof_tasks_shed_total", kind: "counter",
        help: "Task instances degraded to counting-only by the live-tree cap.", field: Count(|s| &mut s.tasks_shed) },
    Metric { key: "fragments", name: "taskprof_fragments_total", kind: "counter",
        help: "Task fragments executed (explicit-task resumptions).", field: Count(|s| &mut s.fragments) },
    Metric { key: "stub_time_ns", name: "taskprof_stub_time_ns_total", kind: "counter",
        help: "Time spent executing task fragments, ns (live stub-node time).", field: Count(|s| &mut s.stub_time_ns) },
    Metric { key: "live_trees", name: "taskprof_live_instance_trees", kind: "gauge",
        help: "Concurrently live task-instance trees, summed over threads.", field: Count(|s| &mut s.live_trees) },
    Metric { key: "live_trees_hwm", name: "taskprof_live_instance_trees_hwm", kind: "gauge",
        help: "High-water mark of per-thread live instance trees (paper Table II).", field: Count(|s| &mut s.live_trees_hwm) },
    Metric { key: "threads_active", name: "taskprof_threads_active", kind: "gauge",
        help: "Measurement threads currently between begin and end.", field: Count(|s| &mut s.threads_active) },
    Metric { key: "handoff_depth", name: "taskprof_handoff_stack_depth", kind: "gauge",
        help: "Finished thread snapshots published but not yet collected.", field: Count(|s| &mut s.handoff_depth) },
    Metric { key: "spare_arenas", name: "taskprof_spare_arenas", kind: "gauge",
        help: "Recycled arenas parked in the spare pool.", field: Count(|s| &mut s.spare_arenas) },
    Metric { key: "arenas_recycled", name: "taskprof_arenas_recycled_total", kind: "counter",
        help: "Region starts that stole a recycled arena.", field: Count(|s| &mut s.arenas_recycled) },
    Metric { key: "arenas_allocated", name: "taskprof_arenas_allocated_total", kind: "counter",
        help: "Region starts that allocated a fresh arena.", field: Count(|s| &mut s.arenas_allocated) },
    Metric { key: "perturb_samples", name: "taskprof_perturbation_samples_total", kind: "counter",
        help: "Self-timed events by class (1-in-N perturbation sampling).", field: PerClass(|s| &mut s.perturb_samples) },
    Metric { key: "perturb_ns", name: "taskprof_perturbation_ns_total", kind: "counter",
        help: "Summed self-timed event cost by class, ns.", field: PerClass(|s| &mut s.perturb_ns) },
    Metric { key: "estimated_overhead_ns", name: "taskprof_estimated_overhead_ns", kind: "gauge",
        help: "Estimated total measurement perturbation, ns.", field: Derived(|s| s.estimated_overhead_ns()) },
];

// ---------------------------------------------------------------------
// Prometheus text exposition format
// ---------------------------------------------------------------------

/// One sample parsed back from the Prometheus text format.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name, e.g. `taskprof_tasks_created_total`.
    pub name: String,
    /// Label pairs in source order (empty for unlabelled metrics).
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Open metric `name` of type `kind` (`counter`, `gauge`, `histogram`):
/// its `# HELP` and `# TYPE` lines. Every such line the tool writes is
/// written here.
pub fn prom_header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Write one sample: `name value`, or `name{labels} value` when `labels`
/// (rendered `key="value",…`, possibly empty) is given.
pub fn prom_sample(out: &mut String, name: &str, labels: Option<&str>, value: impl Display) {
    let _ = match labels {
        None => writeln!(out, "{name} {value}"),
        Some(labels) => writeln!(out, "{name}{{{labels}}} {value}"),
    };
}

/// Render a declared family over `s`, one metric per row, in row order.
pub(crate) fn prom_family<S: Clone>(rows: &[Metric<S>], s: &S) -> String {
    let mut s = s.clone();
    let mut out = String::new();
    for row in rows {
        prom_header(&mut out, row.name, row.kind, row.help);
        match row.field {
            Count(get) => prom_sample(&mut out, row.name, None, get(&mut s)),
            PerClass(get) => {
                for class in EventClass::ALL {
                    let labels = format!("class=\"{}\"", class.label());
                    prom_sample(
                        &mut out,
                        row.name,
                        Some(&labels),
                        get(&mut s)[class.index()],
                    );
                }
            }
            Derived(get) => prom_sample(&mut out, row.name, None, get(&s)),
        }
    }
    out
}

/// Render a snapshot in the Prometheus text exposition format (0.0.4),
/// ready to serve from a `/metrics` endpoint.
pub fn to_prometheus(s: &TelemetrySnapshot) -> String {
    prom_family(SNAPSHOT, s)
}

/// Render labelled histogram series in the Prometheus text exposition
/// format: cumulative `<name>_bucket{...,le="..."}` samples (one per
/// non-empty prefix, plus `+Inf`), then `<name>_sum` / `<name>_count`
/// per series. Output parses back through [`parse_prometheus`].
pub fn latency_to_prometheus(
    name: &str,
    help: &str,
    series: &[(Vec<(String, String)>, HistogramSnapshot)],
) -> String {
    let mut out = String::new();
    prom_header(&mut out, name, "histogram", help);
    let (bucket, sum, count) = (
        format!("{name}_bucket"),
        format!("{name}_sum"),
        format!("{name}_count"),
    );
    for (labels, snap) in series {
        let base: String = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\","))
            .collect();
        let highest = snap
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        let mut cumulative = 0u64;
        for (i, &n) in snap.buckets.iter().enumerate().take(highest) {
            cumulative += n;
            let le = format!("{base}le=\"{}\"", bucket_upper_bound(i));
            prom_sample(&mut out, &bucket, Some(&le), cumulative);
        }
        prom_sample(
            &mut out,
            &bucket,
            Some(&format!("{base}le=\"+Inf\"")),
            snap.count,
        );
        let base = base.trim_end_matches(',');
        prom_sample(&mut out, &sum, Some(base), snap.sum_ns);
        prom_sample(&mut out, &count, Some(base), snap.count);
    }
    out
}

/// Parse Prometheus text exposition format back into samples. Handles
/// `# HELP`/`# TYPE` comments, unlabelled samples, and the single-level
/// `{key="value",...}` label syntax this crate emits.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, ExportParseError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| err(lineno, "expected '<metric> <value>'"))?;
        let value: f64 = value_part
            .parse()
            .map_err(|_| err(lineno, format!("bad sample value '{value_part}'")))?;
        let (name, labels) = match name_part.split_once('{') {
            None => (name_part.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err(lineno, "unterminated label set"))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| err(lineno, format!("bad label pair '{pair}'")))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| err(lineno, format!("unquoted label value '{v}'")))?;
                    labels.push((k.to_string(), v.to_string()));
                }
                (name.to_string(), labels)
            }
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(err(lineno, format!("invalid metric name '{name}'")));
        }
        out.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// JSON lines
// ---------------------------------------------------------------------

/// The JSONL writer: `{"t_ns":<t_ns>` then `,"<key>":<value>` per member,
/// every value a plain `u64`. Keys must not contain `"`.
fn jsonl_line(t_ns: u64, members: impl IntoIterator<Item = (String, u64)>) -> String {
    let mut out = format!("{{\"t_ns\":{t_ns}");
    for (key, value) in members {
        let _ = write!(out, ",\"{key}\":{value}");
    }
    out.push('}');
    out
}

/// A flat JSONL line as read: `t_ns` and every other member in line order.
type FlatLine<'a> = (u64, Vec<(&'a str, u64)>);

/// The JSONL reader: a flat object of `u64` members, with `t_ns` 0 when
/// absent and the last one when repeated. Whitespace around keys and
/// values and empty members are tolerated; anything else that is not
/// `"key":<u64>` is an error.
fn read_jsonl(line: &str) -> Result<FlatLine<'_>, ExportParseError> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .ok_or_else(|| err(1, "not a JSON object"))?;
    let mut t_ns = 0u64;
    let mut members = Vec::new();
    for pair in body.split(',').filter(|p| !p.trim().is_empty()) {
        let (k, v) = pair
            .split_once(':')
            .ok_or_else(|| err(1, format!("bad member '{pair}'")))?;
        let key = k
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| err(1, format!("unquoted key '{k}'")))?;
        let value: u64 = v
            .trim()
            .parse()
            .map_err(|_| err(1, format!("bad value for '{key}': '{}'", v.trim())))?;
        if key == "t_ns" {
            t_ns = value;
        } else {
            members.push((key, value));
        }
    }
    Ok((t_ns, members))
}

/// Render one time-series point as a single JSON line: a flat object of
/// numbers keyed by snake_case metric names, the plain counts first and
/// then the per-class values as `events.<class>` /
/// `perturb_samples.<class>` / `perturb_ns.<class>`.
pub fn to_jsonl_line(t_ns: u64, s: &TelemetrySnapshot) -> String {
    let mut s = s.clone();
    let (mut counts, mut cells) = (Vec::new(), Vec::new());
    for row in SNAPSHOT {
        match row.field {
            Count(get) => counts.push((row.key.to_string(), *get(&mut s))),
            PerClass(get) => cells.extend(EventClass::ALL.map(|class| {
                let key = format!("{}.{}", row.key, class.label());
                (key, get(&mut s)[class.index()])
            })),
            Derived(_) => {}
        }
    }
    jsonl_line(t_ns, counts.into_iter().chain(cells))
}

/// Parse one JSON line written by [`to_jsonl_line`] back into
/// `(t_ns, snapshot)`. Unknown keys are ignored (forward compatibility);
/// missing keys default to 0.
pub fn parse_jsonl_line(line: &str) -> Result<(u64, TelemetrySnapshot), ExportParseError> {
    let (t_ns, members) = read_jsonl(line)?;
    let mut snap = TelemetrySnapshot::default();
    for (key, value) in members {
        for row in SNAPSHOT {
            match row.field {
                Count(get) if key == row.key => *get(&mut snap) = value,
                PerClass(get) => {
                    let class = key
                        .strip_prefix(row.key)
                        .and_then(|k| k.strip_prefix('.'))
                        .and_then(EventClass::from_label);
                    if let Some(class) = class {
                        get(&mut snap)[class.index()] = value;
                    }
                }
                _ => {}
            }
        }
    }
    Ok((t_ns, snap))
}

/// Render keyed histogram snapshots as one flat JSON line in the same
/// style as [`to_jsonl_line`]: every value a plain `u64`, keys
/// `"<key>.count"` / `"<key>.sum_ns"` / `"<key>.max_ns"` / `"<key>.b<i>"`
/// (empty buckets omitted). Keys must not contain `"`.
pub fn latency_to_jsonl_line(t_ns: u64, series: &[(String, HistogramSnapshot)]) -> String {
    jsonl_line(
        t_ns,
        series.iter().flat_map(|(key, snap)| {
            let totals = [
                ("count", snap.count),
                ("sum_ns", snap.sum_ns),
                ("max_ns", snap.max_ns),
            ]
            .map(|(field, value)| (format!("{key}.{field}"), value));
            let buckets = snap.buckets.iter().enumerate().filter(|&(_, &n)| n > 0);
            totals
                .into_iter()
                .chain(buckets.map(move |(i, &n)| (format!("{key}.b{i}"), n)))
        }),
    )
}

/// Parse a line written by [`latency_to_jsonl_line`] back into
/// `(t_ns, series)`. Series come back sorted by key; unknown suffixes
/// are ignored.
pub fn parse_latency_jsonl_line(
    line: &str,
) -> Result<(u64, Vec<(String, HistogramSnapshot)>), ExportParseError> {
    let (t_ns, members) = read_jsonl(line)?;
    let mut series: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
    for (key, value) in members {
        let Some((prefix, field)) = key.rsplit_once('.') else {
            continue;
        };
        let snap = series.entry(prefix.to_string()).or_default();
        match field {
            "count" => snap.count = value,
            "sum_ns" => snap.sum_ns = value,
            "max_ns" => snap.max_ns = value,
            _ => {
                if let Some(i) = field
                    .strip_prefix('b')
                    .and_then(|i| i.parse::<usize>().ok())
                {
                    if i < HISTOGRAM_BUCKETS {
                        snap.buckets[i] = value;
                    }
                }
            }
        }
    }
    Ok((t_ns, series.into_iter().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot {
            tasks_created: 42,
            tasks_completed: 40,
            tasks_aborted: 1,
            tasks_shed: 3,
            fragments: 57,
            stub_time_ns: 123_456,
            live_trees: 1,
            live_trees_hwm: 9,
            threads_active: 4,
            handoff_depth: 2,
            spare_arenas: 3,
            arenas_recycled: 7,
            arenas_allocated: 4,
            ..TelemetrySnapshot::default()
        };
        for c in EventClass::ALL {
            s.events[c.index()] = 100 + c.index() as u64;
            s.perturb_samples[c.index()] = c.index() as u64;
            s.perturb_ns[c.index()] = 10 * c.index() as u64;
        }
        s
    }

    #[test]
    fn prometheus_round_trips() {
        let s = sample_snapshot();
        let text = to_prometheus(&s);
        let samples = parse_prometheus(&text).expect("own output parses");
        let find = |name: &str| -> f64 {
            samples
                .iter()
                .find(|p| p.name == name && p.labels.is_empty())
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
        };
        assert_eq!(find("taskprof_tasks_created_total"), 42.0);
        assert_eq!(find("taskprof_live_instance_trees_hwm"), 9.0);
        assert_eq!(find("taskprof_spare_arenas"), 3.0);
        let enter = samples
            .iter()
            .find(|p| p.name == "taskprof_events_total" && p.label("class") == Some("enter"))
            .expect("labelled class sample");
        assert_eq!(enter.value, 100.0);
        assert_eq!(
            samples
                .iter()
                .filter(|p| p.name == "taskprof_events_total")
                .count(),
            EventClass::COUNT
        );
        // The derived overhead gauge is present and finite.
        assert!(find("taskprof_estimated_overhead_ns").is_finite());
    }

    #[test]
    fn prometheus_parser_rejects_garbage() {
        assert!(parse_prometheus("metric_without_value").is_err());
        assert!(parse_prometheus("name{unclosed 1").is_err());
        assert!(parse_prometheus("na me 1").is_err());
        assert!(parse_prometheus("ok_metric nope").is_err());
        // Comments and blank lines are fine.
        assert_eq!(parse_prometheus("# TYPE x counter\n\n").unwrap(), vec![]);
    }

    #[test]
    fn jsonl_round_trips() {
        let s = sample_snapshot();
        let line = to_jsonl_line(777, &s);
        assert!(line.starts_with('{') && line.ends_with('}'));
        let (t, back) = parse_jsonl_line(&line).expect("own output parses");
        assert_eq!(t, 777);
        assert_eq!(back, s);
        // Stable: re-serializing the parsed value reproduces the line.
        assert_eq!(to_jsonl_line(777, &back), line);
    }

    #[test]
    fn jsonl_parser_tolerates_unknown_and_missing_keys() {
        let (t, s) = parse_jsonl_line(r#"{"t_ns":5,"tasks_created":2,"future_key":9}"#).unwrap();
        assert_eq!(t, 5);
        assert_eq!(s.tasks_created, 2);
        assert_eq!(s.tasks_completed, 0);
        assert!(parse_jsonl_line("not json").is_err());
        assert!(parse_jsonl_line(r#"{"t_ns":-1}"#).is_err());
    }
}
