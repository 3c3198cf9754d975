//! One declaration per message, two encodings.
//!
//! Every `Request` / `Response` shape lists its fields once against the
//! [`Fields`] visitor: an enum in a [`tagged!`] table that gives each
//! variant its TPF1 tag byte, its JSON spelling and its fields, a struct
//! in a [`fields!`] declaration. The visitor has four implementations — a
//! TPF1 writer and reader, a JSON writer and reader — so the payload codec
//! of [`crate::wire`] and the JSON lines of [`crate::protocol`] are
//! derived from the same text and cannot drift. The declarations below
//! are the spec of both wires; `tests/golden/compat/wire_v1.txt` freezes
//! what they produce and accept.
//!
//! | field kind | TPF1 | JSON |
//! |---|---|---|
//! | `uint` | LEB128 varint | integer, exact across `u64` |
//! | `f64` | `to_bits()`, 8 bytes little-endian | number rounded to 4 decimals |
//! | `bool` | byte 0 or 1 | `true` / `false` |
//! | `str` | varint length + UTF-8 | string |
//! | `opt_*` | byte 0 or 1, then the value | member omitted when absent |
//! | `trailing_str` | as `opt_*`, or nothing at the end of the payload | as `opt_*` |
//! | `payload` | byte 0 + string, or byte 1 + varint length + record bytes | profile text |
//! | `frames` | varint count, then varint length + bytes each | array of hex strings |
//! | `kind` | [`ErrorKind::byte`] | [`ErrorKind::tag`] |
//! | `list` | varint count + items | array of objects |
//! | `nested` | the fields, inline | a sub-object |
//! | `inline` | the fields, inline | the members, inline |
//!
//! A JSON reader treats a missing or wrong-typed optional member as
//! absent, and a field added after v1 (`*_or`) as its default; every
//! other member is required. A TPF1 reader refuses an option or bool byte
//! other than 0/1, a count larger than the bytes left, and trailing bytes.

use crate::json::{self, Json, ObjWriter};
use crate::protocol::{
    hex_decode, hex_encode, ErrorKind, IngestReceipt, LatencyStat, MetricReport, Notification,
    ProfilePayload, Record, RegionRow, RegressFinding, RegressReport, Request, Response,
    ServerStatsReport, StatsReport, TopReport, TrendReport,
};
use crate::wire::WireError;
use profstore::codec::{put_uv, Reader};
use profstore::{CodecError, RunWindow, StoreStats, TrendBucket};
use taskprof_telemetry::ServiceSnapshot;

type Res<T = ()> = Result<T, String>;

// ---------------------------------------------------------------------
// The visitor
// ---------------------------------------------------------------------

/// Which way a visit runs: [`Put`] hands a writer `&T` of every field,
/// [`Take`] hands a reader `&mut T` to fill.
trait Mode: Sized {
    type Ref<'a, T: 'a>;
    fn visit<T: Msg, F: Fields<Self>>(v: Self::Ref<'_, T>, f: &mut F) -> Res;
}

enum Put {}
enum Take {}

impl Mode for Put {
    type Ref<'a, T: 'a> = &'a T;
    fn visit<T: Msg, F: Fields<Self>>(v: &T, f: &mut F) -> Res {
        v.put(f)
    }
}

impl Mode for Take {
    type Ref<'a, T: 'a> = &'a mut T;
    fn visit<T: Msg, F: Fields<Self>>(v: &mut T, f: &mut F) -> Res {
        v.take(f)
    }
}

/// The integer widths a `uint` field has; a decoded value that does not
/// fit is refused as out of range.
trait Uint: Copy + TryFrom<u64> + TryInto<u64> {}
impl<T: Copy + TryFrom<u64> + TryInto<u64>> Uint for T {}

fn wide<T: Uint>(v: T) -> u64 {
    v.try_into().unwrap_or(u64::MAX)
}

fn narrow<T: Uint>(name: &str, v: u64) -> Res<T> {
    T::try_from(v).map_err(|_| format!("{name} out of range"))
}

/// The value a reader starts a field from.
trait Blank {
    fn blank() -> Self;
}

impl<T: Default> Blank for T {
    fn blank() -> Self {
        T::default()
    }
}

impl Blank for ErrorKind {
    fn blank() -> Self {
        ErrorKind::Internal
    }
}

/// One field of a message, by kind (see the module table). `name` is the
/// JSON member; TPF1 is positional, so declaration order is wire order.
trait Fields<M: Mode>: Sized {
    fn uint<T: Uint>(&mut self, name: &'static str, v: M::Ref<'_, T>) -> Res;
    fn f64(&mut self, name: &'static str, v: M::Ref<'_, f64>) -> Res;
    fn bool(&mut self, name: &'static str, v: M::Ref<'_, bool>) -> Res;
    fn str(&mut self, name: &'static str, v: M::Ref<'_, String>) -> Res;
    fn opt_u64(&mut self, name: &'static str, v: M::Ref<'_, Option<u64>>) -> Res;
    fn opt_f64(&mut self, name: &'static str, v: M::Ref<'_, Option<f64>>) -> Res;
    /// An optional string a TPF1 payload may leave out by ending first —
    /// the `HELLO` secret, which encoders before it never wrote.
    fn trailing_str(&mut self, name: &'static str, v: M::Ref<'_, Option<String>>) -> Res;
    fn payload(&mut self, name: &'static str, v: M::Ref<'_, ProfilePayload>) -> Res;
    fn frames(&mut self, name: &'static str, v: M::Ref<'_, Vec<Vec<u8>>>) -> Res;
    fn kind(&mut self, name: &'static str, v: M::Ref<'_, ErrorKind>) -> Res;
    fn list<T: Msg + Blank>(&mut self, name: &'static str, v: M::Ref<'_, Vec<T>>) -> Res;
    fn nested(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> Res) -> Res;

    /// Another message's fields, flat in this one on both wires.
    fn inline<T: Msg>(&mut self, v: M::Ref<'_, T>) -> Res {
        M::visit(v, self)
    }

    /// An enum: a writer visits it (its variant writes its own [`tag`]);
    /// a reader reads the tag first and starts that variant blank.
    ///
    /// [`tag`]: Fields::tag
    fn tagged<T: Tagged>(&mut self, v: M::Ref<'_, T>) -> Res {
        M::visit(v, self)
    }

    /// The variant being written: its TPF1 byte or its JSON spelling.
    fn tag(&mut self, _byte: u8, _json: Spell) -> Res {
        Ok(())
    }

    /// True for the JSON visitors. Only `ServerStatsReport`, whose two
    /// layouts order its fields differently, asks.
    fn json(&self) -> bool {
        false
    }

    // Fields added after v1: a JSON reader takes a missing or
    // wrong-typed member as the default; everywhere else they are plain.
    fn uint_or<T: Uint>(&mut self, name: &'static str, v: M::Ref<'_, T>, _default: T) -> Res {
        self.uint(name, v)
    }
    fn bool_or(&mut self, name: &'static str, v: M::Ref<'_, bool>, _default: bool) -> Res {
        self.bool(name, v)
    }
    fn list_or_empty<T: Msg + Blank>(&mut self, name: &'static str, v: M::Ref<'_, Vec<T>>) -> Res {
        self.list(name, v)
    }
}

/// A message with declared fields.
trait Msg {
    fn put<F: Fields<Put>>(&self, f: &mut F) -> Res;
    fn take<F: Fields<Take>>(&mut self, f: &mut F) -> Res;
}

/// Declares a struct's fields once. The body is expanded twice: into
/// [`Msg::put`], where the struct is `&Self` and so every binding is a
/// `&T` for a writer, and into [`Msg::take`], where it is `&mut Self` and
/// every binding a `&mut T` for a reader to fill — the same text is the
/// encoder and the decoder. The pattern names every field, so a field
/// added to a message but not declared does not compile.
macro_rules! fields {
    ($ty:ident { $($field:ident),* $(,)? }, $f:ident => $body:expr) => {
        fields!(@impl $ty, $ty { $($field),* }, $f => $body);
    };
    (@impl $ty:ident, $pat:pat, $f:ident => $body:expr) => {
        impl Msg for $ty {
            fn put<F: Fields<Put>>(&self, $f: &mut F) -> Res {
                let $pat = self;
                $body
            }
            fn take<F: Fields<Take>>(&mut self, $f: &mut F) -> Res {
                let $pat = self;
                $body
            }
        }
    };
}

/// Declares an enum once: per variant its TPF1 tag byte, its JSON
/// spelling and its fields. Expands into the enum's [`Tagged`] table and
/// its [`Msg`] visit (as [`fields!`]), each arm announcing its variant
/// through [`Fields::tag`] before its fields.
macro_rules! tagged {
    ($ty:ident, $what:literal, $f:ident => $(
        $byte:literal $json:expr, $var:ident $({ $($field:ident),* })? $(($inner:ident))?
            => $body:expr,
    )*) => {
        impl Tagged for $ty {
            const WHAT: &'static str = $what;
            const VARIANTS: &'static [Variant<Self>] = &[$(Variant {
                byte: $byte,
                json: $json,
                blank: || $ty::$var
                    $({ $($field: Blank::blank()),* })?
                    $(({ let $inner = Blank::blank(); $inner }))?,
            }),*];
        }

        impl Blank for $ty {
            fn blank() -> Self {
                (Self::VARIANTS[0].blank)()
            }
        }

        fields!(@impl $ty, this, $f => match this {$(
            $ty::$var $({ $($field),* })? $(($inner))? => {
                $f.tag($byte, $json)?;
                $body
            }
        )*});
    };
}

// ---------------------------------------------------------------------
// Enum tables
// ---------------------------------------------------------------------

/// An enum whose variants are told apart by a tag.
trait Tagged: Msg + Blank + Sized + 'static {
    /// What an unknown TPF1 tag is reported as.
    const WHAT: &'static str;
    const VARIANTS: &'static [Variant<Self>];
}

/// One variant: its TPF1 tag byte, its JSON spelling, and the value a
/// reader fills in.
struct Variant<T> {
    byte: u8,
    json: Spell,
    blank: fn() -> T,
}

/// A JSON member with a fixed string value: `("cmd", "QUERY")`.
type Member = (&'static str, &'static str);

#[derive(Clone, Copy)]
enum Spell {
    /// Requests and events: `"key":"value"` and, where one key names
    /// several variants, a second such member (`"cmd":"QUERY",
    /// "query":"top"`); written first and matched on read. Among variants
    /// sharing the first member, a line without a (string) second member
    /// reads as the one that has none.
    Named(Member, Option<Member>),
    /// A reply (`"ok":true`), recognised on read by having this member;
    /// rows are tried in table order.
    Has(&'static str),
    /// … holding a string.
    HasStr(&'static str),
    /// … holding an array.
    HasArr(&'static str),
    /// … of any value, written as `true`: a reply with no field to show.
    Flag(&'static str),
    /// The error reply, `"ok":false`.
    Failed,
}

const fn cmd(name: &'static str) -> Spell {
    Spell::Named(("cmd", name), None)
}

const fn query(name: &'static str) -> Spell {
    Spell::Named(("cmd", "QUERY"), Some(("query", name)))
}

const fn event(name: &'static str) -> Spell {
    Spell::Named(("event", name), None)
}

/// The row a JSON object spells.
fn spelled<T: Tagged>(obj: &Json) -> Res<&'static Variant<T>> {
    let text = |key: &str| obj.get(key).and_then(Json::as_str);
    let Spell::Named((key, _), _) = T::VARIANTS[0].json else {
        // A reply: the first row whose member the object has.
        let ok = obj.get("ok").and_then(Json::as_bool);
        let ok = ok.ok_or("missing or non-bool 'ok'")?;
        let is = |row: &&Variant<T>| match row.json {
            Spell::Failed => !ok,
            _ if !ok => false,
            Spell::Has(m) | Spell::Flag(m) => obj.get(m).is_some(),
            Spell::HasStr(m) => text(m).is_some(),
            Spell::HasArr(m) => obj.get(m).and_then(Json::as_arr).is_some(),
            Spell::Named(..) => false,
        };
        let row = T::VARIANTS.iter().find(is);
        return row.ok_or_else(|| "unrecognized response shape".to_string());
    };
    // A request or event: the rows its first member names, told apart by
    // their second.
    let name = text(key).ok_or_else(|| format!("missing or non-string '{key}'"))?;
    let second = |row: &Variant<T>| match row.json {
        Spell::Named((_, n), second) if n == name => Some(second),
        _ => None,
    };
    let mut rows = T::VARIANTS.iter().filter(|row| second(row).is_some());
    let Some(first) = rows.clone().next() else {
        return Err(format!("unknown {key} '{name}'"));
    };
    let Some((sub, _)) = rows.clone().find_map(|row| second(row).flatten()) else {
        return Ok(first);
    };
    let value = text(sub);
    let row = rows.find(|row| second(row).flatten().map(|(_, v)| v) == value);
    row.ok_or_else(|| match value {
        Some(v) => format!("unknown {sub} '{v}'"),
        None => format!("missing or non-string '{sub}'"),
    })
}

// ---------------------------------------------------------------------
// The declarations — the spec of both wires
// ---------------------------------------------------------------------

tagged!(Request, "request", f =>
    0x01 cmd("HELLO"), Hello { version, features, auth } => {
        f.uint("version", version)?;
        f.uint_or("features", features, 0)?;
        f.trailing_str("auth", auth)
    },
    0x02 cmd("INGEST"), Ingest(record) => f.inline(record),
    0x03 cmd("INGEST_BATCH"), IngestBatch(items) => f.list("items", items),
    0x04 query("top"), QueryTop { benchmark, threads, n, window } => {
        f.str("benchmark", benchmark)?;
        f.uint("threads", threads)?;
        f.uint("n", n)?;
        f.inline(window)
    },
    0x05 query("stats"), QueryStats { benchmark, threads, window } => {
        f.str("benchmark", benchmark)?;
        f.uint("threads", threads)?;
        f.inline(window)
    },
    0x06 query("regress"),
    QueryRegress { benchmark, threads, profile, threshold, min_runs, min_delta_ns, window } => {
        f.str("benchmark", benchmark)?;
        f.uint("threads", threads)?;
        f.opt_f64("threshold", threshold)?;
        f.opt_u64("min_runs", min_runs)?;
        f.opt_u64("min_delta_ns", min_delta_ns)?;
        f.inline(window)?;
        f.payload("profile", profile)
    },
    0x07 cmd("STATS"), Stats => Ok(()),
    0x08 query("trend"), QueryTrend { benchmark, threads, buckets, window } => {
        f.str("benchmark", benchmark)?;
        f.uint("threads", threads)?;
        f.uint("buckets", buckets)?;
        f.inline(window)
    },
    0x09 Spell::Named(("cmd", "STATS"), Some(("format", "prometheus"))), StatsPrometheus => Ok(()),
    0x0A cmd("SUBSCRIBE"), Subscribe { interval_ms } => f.opt_u64("interval_ms", interval_ms),
    0x0B cmd("EXPORT"), Export { after, max } => {
        f.uint("after", after)?;
        f.uint("max", max)
    },
    0x0C cmd("APPLY"), Apply { frames } => f.frames("frames", frames),
);

fields!(Record { benchmark, threads, timestamp_ns, profile }, f => {
    f.str("benchmark", benchmark)?;
    f.uint("threads", threads)?;
    f.opt_u64("timestamp_ns", timestamp_ns)?;
    f.payload("profile", profile)
});

fields!(RunWindow { last, since_ns }, f => {
    f.opt_u64("last", last)?;
    f.opt_u64("since_ns", since_ns)
});

// Rows in the order a JSON reply is recognised: events first, since a
// telemetry event embeds the whole server-stats shape and an ingest event
// a `run_id`.
tagged!(Response, "response", f =>
    0xEE Spell::Failed, Error { kind, message } => f.nested("error", |f| {
        f.kind("kind", kind)?;
        f.str("message", message)
    }),
    0x8A Spell::HasStr("event"), Event(event) => f.tagged(event),
    0x89 Spell::Flag("subscribed"), Subscribed { interval_ms } => f.uint("interval_ms", interval_ms),
    0x88 Spell::HasStr("prometheus"), Prometheus(text) => f.str("prometheus", text),
    0x87 Spell::HasArr("trend"), Trend(report) => f.inline(report),
    0x81 Spell::Has("hello"), Hello { version, features } => f.nested("hello", |f| {
        f.uint("version", version)?;
        f.uint_or("features", features, 0)
    }),
    0x8B Spell::HasArr("frames"), ExportChunk { frames, watermark, done } => {
        f.frames("frames", frames)?;
        f.uint("watermark", watermark)?;
        f.bool_or("done", done, false)
    },
    0x8C Spell::Has("applied"), Applied { applied, skipped, watermark } => {
        f.uint("applied", applied)?;
        f.uint("skipped", skipped)?;
        f.uint("watermark", watermark)
    },
    0x82 Spell::Has("run_id"), Ingest(receipt) => f.inline(receipt),
    0x83 Spell::HasArr("regions"), Top(report) => f.inline(report),
    0x85 Spell::Has("regressed"), Regress(report) => f.inline(report),
    0x84 Spell::Has("total_ns"), Stats(report) => f.inline(report),
    0x86 Spell::Has("server"), ServerStats(report) => f.inline(report),
);

tagged!(Notification, "event", f =>
    0 event("telemetry"), Telemetry { t_ns, stats } => {
        f.uint("t_ns", t_ns)?;
        f.inline(stats)
    },
    1 event("ingest"), Ingest { first_run_id, count, bytes, benchmark, threads } => {
        f.uint("run_id", first_run_id)?;
        f.uint_or("count", count, 1)?;
        f.uint("bytes", bytes)?;
        f.str("benchmark", benchmark)?;
        f.uint("threads", threads)
    },
    2 event("lagged"), Lagged { dropped } => f.uint("dropped", dropped),
);

fields!(IngestReceipt { first_run_id, count, bytes, segment }, f => {
    f.uint("run_id", first_run_id)?;
    f.uint_or("count", count, 1)?;
    f.uint("bytes", bytes)?;
    f.uint("segment", segment)
});

fields!(TopReport { benchmark, threads, runs, regions }, f => {
    f.str("benchmark", benchmark)?;
    f.uint("threads", threads)?;
    f.uint("runs", runs)?;
    f.list("regions", regions)
});

fields!(RegionRow { region, metric }, f => {
    f.str("region", region)?;
    f.inline(metric)
});

fields!(MetricReport { runs, sum_ns, min_ns, max_ns, mean_ns }, f => {
    f.uint("runs", runs)?;
    f.uint("sum_ns", sum_ns)?;
    f.uint("min_ns", min_ns)?;
    f.uint("max_ns", max_ns)?;
    f.f64("mean_ns", mean_ns)
});

fields!(StatsReport { benchmark, threads, runs, total_ns, constructs, tree_mismatches }, f => {
    f.str("benchmark", benchmark)?;
    f.uint("threads", threads)?;
    f.uint("runs", runs)?;
    f.nested("total_ns", |f| f.inline(total_ns))?;
    f.uint("constructs", constructs)?;
    f.uint("tree_mismatches", tree_mismatches)
});

fields!(RegressReport { regressed, baseline_runs, threshold, findings }, f => {
    f.bool("regressed", regressed)?;
    f.uint("baseline_runs", baseline_runs)?;
    f.f64("threshold", threshold)?;
    f.list("findings", findings)
});

fields!(RegressFinding { region, new_ns, mean_ns, ratio }, f => {
    f.str("region", region)?;
    f.uint("new_ns", new_ns)?;
    f.f64("mean_ns", mean_ns)?;
    f.f64("ratio", ratio)
});

fields!(TrendReport { benchmark, threads, runs, buckets }, f => {
    f.str("benchmark", benchmark)?;
    f.uint("threads", threads)?;
    f.uint("runs", runs)?;
    f.list("trend", buckets)
});

fields!(TrendBucket { runs, sum_ns, min_ns, max_ns, first_timestamp_ns, last_timestamp_ns }, f => {
    f.uint("runs", runs)?;
    f.uint("sum_ns", sum_ns)?;
    f.uint("min_ns", min_ns)?;
    f.uint("max_ns", max_ns)?;
    f.uint("first_timestamp_ns", first_timestamp_ns)?;
    f.uint("last_timestamp_ns", last_timestamp_ns)
});

// The one shape whose two layouts order its fields differently: JSON
// nests the daemon's clock pair in `server`, before `store`; TPF1 writes
// it after the store fields. The pair is written once, where this wire
// puts it.
fields!(ServerStatsReport { service, read_only, store, open_timestamp_ns, uptime_secs, latency }, f => {
    let mut clock = Some((open_timestamp_ns, uptime_secs));
    let json = f.json();
    f.nested("server", |f| {
        f.inline(service)?;
        f.bool_or("read_only", read_only, false)?;
        clock.take_if(|_| json).map_or(Ok(()), |pair| clocks(f, pair))
    })?;
    f.nested("store", |f| f.inline(store))?;
    clock.map_or(Ok(()), |pair| clocks(f, pair))?;
    f.list_or_empty("latency", latency)
});

fn clocks<M: Mode, F: Fields<M>>(f: &mut F, (open, up): (M::Ref<'_, u64>, M::Ref<'_, u64>)) -> Res {
    f.uint_or("open_timestamp_ns", open, 0)?;
    f.uint_or("uptime_secs", up, 0)
}

fields!(ServiceSnapshot {
    connections, shed_connections, timeout_connections, ingests, ingest_bytes, queries, errors,
    panics, json_requests, bin_requests, ingest_batches, subscriptions, sub_events, sub_lagged,
}, f => {
    f.uint("connections", connections)?;
    f.uint("shed_connections", shed_connections)?;
    f.uint("timeout_connections", timeout_connections)?;
    f.uint("ingests", ingests)?;
    f.uint("ingest_bytes", ingest_bytes)?;
    f.uint("queries", queries)?;
    f.uint("errors", errors)?;
    f.uint("panics", panics)?;
    f.uint_or("json_requests", json_requests, 0)?;
    f.uint_or("bin_requests", bin_requests, 0)?;
    f.uint_or("ingest_batches", ingest_batches, 0)?;
    f.uint_or("subscriptions", subscriptions, 0)?;
    f.uint_or("sub_events", sub_events, 0)?;
    f.uint_or("sub_lagged", sub_lagged, 0)
});

fields!(StoreStats { segments, runs, bytes, recovered_tail_bytes, compacted_through }, f => {
    f.uint("segments", segments)?;
    f.uint("runs", runs)?;
    f.uint("bytes", bytes)?;
    f.uint("recovered_tail_bytes", recovered_tail_bytes)?;
    f.uint("compacted_through", compacted_through)
});

fields!(LatencyStat { verb, proto, count, sum_ns, max_ns, p50_ns, p99_ns }, f => {
    f.str("verb", verb)?;
    f.str("proto", proto)?;
    f.uint("count", count)?;
    f.uint("sum_ns", sum_ns)?;
    f.uint("max_ns", max_ns)?;
    f.uint("p50_ns", p50_ns)?;
    f.uint("p99_ns", p99_ns)
});

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Encode a request payload (unframed; pass to [`frame`](crate::wire::frame)).
pub fn encode_request(req: &Request) -> Vec<u8> {
    to_bin(req)
}

/// Decode a request payload produced by [`encode_request`].
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    from_bin(payload)
}

/// Encode a response payload (unframed; pass to [`frame`](crate::wire::frame)).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    to_bin(resp)
}

/// Decode a response payload produced by [`encode_response`].
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    from_bin(payload)
}

impl Request {
    /// Parse one JSON request line; the profile text is moved out of the
    /// parsed tree, not copied. `Err` carries a `bad_request` explanation.
    pub fn from_json_line(line: &str) -> Result<Request, String> {
        from_json(line)
    }

    /// Serialize to one JSON request line (the client side), streamed into
    /// one `String`: the profile text is escaped from where it lives, never
    /// cloned. A binary record payload is re-rendered as profile text,
    /// since JSON strings cannot carry raw bytes.
    pub fn to_json_line(&self) -> String {
        to_json(self)
    }
}

impl Response {
    /// Serialize to one JSON response line (the server side).
    pub fn to_json_line(&self) -> String {
        to_json(self)
    }

    /// Parse one JSON response line back into the typed form (the client
    /// side). The response kind is recovered from its distinguishing
    /// members, so no out-of-band context is needed.
    pub fn from_json_line(line: &str) -> Result<Response, String> {
        from_json(line)
    }
}

fn to_bin<T: Tagged>(msg: &T) -> Vec<u8> {
    let mut w = BinWriter(Vec::with_capacity(64));
    w.tagged(msg).expect("writers do not fail");
    w.0
}

fn from_bin<T: Tagged>(payload: &[u8]) -> Result<T, WireError> {
    let mut r = BinReader(Reader::new(payload));
    let mut msg = T::blank();
    r.tagged(&mut msg).map_err(WireError::Malformed)?;
    if !r.0.done() {
        let what = T::WHAT;
        return Err(WireError::Malformed(format!("trailing bytes after {what}")));
    }
    Ok(msg)
}

fn to_json<T: Tagged>(msg: &T) -> String {
    let mut line = String::new();
    let mut w = ObjWriter::begin(&mut line);
    w.tagged(msg).expect("writers do not fail");
    w.close('}');
    line
}

fn from_json<T: Tagged>(line: &str) -> Res<T> {
    let mut r = JsonReader(json::parse(line).map_err(|e| e.to_string())?);
    let mut msg = T::blank();
    r.tagged(&mut msg)?;
    Ok(msg)
}

// ---------------------------------------------------------------------
// TPF1
// ---------------------------------------------------------------------

const PAYLOAD_TEXT: u8 = 0;
const PAYLOAD_RECORD: u8 = 1;

/// Store a decoded value — readers fill the blank message in place.
fn fill<T>(slot: &mut T, v: Res<T>) -> Res {
    *slot = v?;
    Ok(())
}

struct BinWriter(Vec<u8>);

impl BinWriter {
    fn byte(&mut self, b: u8) -> Res {
        self.0.push(b);
        Ok(())
    }

    /// Varint length, then the bytes — strings, record payloads, frames.
    fn bytes(&mut self, bytes: &[u8]) -> Res {
        put_uv(&mut self.0, bytes.len() as u64);
        self.0.extend_from_slice(bytes);
        Ok(())
    }
}

impl Fields<Put> for BinWriter {
    fn uint<T: Uint>(&mut self, _: &'static str, v: &T) -> Res {
        put_uv(&mut self.0, wide(*v));
        Ok(())
    }
    fn f64(&mut self, _: &'static str, v: &f64) -> Res {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
        Ok(())
    }
    fn bool(&mut self, _: &'static str, v: &bool) -> Res {
        self.byte(u8::from(*v))
    }
    fn str(&mut self, _: &'static str, v: &String) -> Res {
        self.bytes(v.as_bytes())
    }
    fn opt_u64(&mut self, name: &'static str, v: &Option<u64>) -> Res {
        self.bool(name, &v.is_some())?;
        v.as_ref().map_or(Ok(()), |v| self.uint(name, v))
    }
    fn opt_f64(&mut self, name: &'static str, v: &Option<f64>) -> Res {
        self.bool(name, &v.is_some())?;
        v.as_ref().map_or(Ok(()), |v| self.f64(name, v))
    }
    fn trailing_str(&mut self, name: &'static str, v: &Option<String>) -> Res {
        self.bool(name, &v.is_some())?;
        v.as_ref().map_or(Ok(()), |v| self.str(name, v))
    }
    fn payload(&mut self, _: &'static str, v: &ProfilePayload) -> Res {
        let (kind, bytes) = match v {
            ProfilePayload::Text(text) => (PAYLOAD_TEXT, text.as_bytes()),
            ProfilePayload::Record(bytes) => (PAYLOAD_RECORD, &bytes[..]),
        };
        self.byte(kind)?;
        self.bytes(bytes)
    }
    fn frames(&mut self, _: &'static str, v: &Vec<Vec<u8>>) -> Res {
        put_uv(&mut self.0, v.len() as u64);
        v.iter().try_for_each(|frame| self.bytes(frame))
    }
    fn kind(&mut self, _: &'static str, v: &ErrorKind) -> Res {
        self.byte(v.byte())
    }
    fn list<T: Msg + Blank>(&mut self, _: &'static str, v: &Vec<T>) -> Res {
        put_uv(&mut self.0, v.len() as u64);
        v.iter().try_for_each(|item| item.put(self))
    }
    fn nested(&mut self, _: &'static str, body: impl FnOnce(&mut Self) -> Res) -> Res {
        body(self)
    }
    fn tag(&mut self, byte: u8, _: Spell) -> Res {
        self.byte(byte)
    }
}

struct BinReader<'a>(Reader<'a>);

/// A store-codec error as the reason a payload is malformed.
fn reason<T>(r: Result<T, CodecError>) -> Res<T> {
    r.map_err(|e| e.to_string())
}

impl BinReader<'_> {
    fn flag(&mut self, what: &str) -> Res<bool> {
        match reason(self.0.byte())? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(format!("bad {what}")),
        }
    }

    /// An element count, refused when larger than the bytes left — so a
    /// corrupt count cannot become a huge allocation.
    fn count(&mut self) -> Res<usize> {
        let n = reason(self.0.uv())? as usize;
        if n > self.0.remaining() {
            return Err("count exceeds payload".into());
        }
        Ok(n)
    }

    fn bytes(&mut self) -> Res<Vec<u8>> {
        let len = reason(self.0.uv())? as usize;
        Ok(reason(self.0.bytes(len))?.to_vec())
    }
}

impl Fields<Take> for BinReader<'_> {
    fn uint<T: Uint>(&mut self, name: &'static str, v: &mut T) -> Res {
        fill(v, narrow(name, reason(self.0.uv())?))
    }
    fn f64(&mut self, _: &'static str, v: &mut f64) -> Res {
        let bytes = reason(self.0.bytes(8))?.try_into().expect("eight bytes");
        fill(v, Ok(f64::from_le_bytes(bytes)))
    }
    fn bool(&mut self, _: &'static str, v: &mut bool) -> Res {
        fill(v, self.flag("bool"))
    }
    fn str(&mut self, _: &'static str, v: &mut String) -> Res {
        fill(v, reason(self.0.str()))
    }
    fn opt_u64(&mut self, name: &'static str, v: &mut Option<u64>) -> Res {
        match self.flag("option flag")? {
            true => self.uint(name, v.insert(0)),
            false => Ok(()),
        }
    }
    fn opt_f64(&mut self, name: &'static str, v: &mut Option<f64>) -> Res {
        match self.flag("option flag")? {
            true => self.f64(name, v.insert(0.0)),
            false => Ok(()),
        }
    }
    fn trailing_str(&mut self, name: &'static str, v: &mut Option<String>) -> Res {
        if self.0.done() || !self.flag(&format!("{name} flag"))? {
            return Ok(());
        }
        self.str(name, v.insert(String::new()))
    }
    fn payload(&mut self, _: &'static str, v: &mut ProfilePayload) -> Res {
        match reason(self.0.byte())? {
            PAYLOAD_TEXT => fill(v, reason(self.0.str()).map(ProfilePayload::Text)),
            PAYLOAD_RECORD => fill(v, self.bytes().map(ProfilePayload::Record)),
            _ => Err("bad payload kind".into()),
        }
    }
    fn frames(&mut self, _: &'static str, v: &mut Vec<Vec<u8>>) -> Res {
        let n = self.count()?;
        fill(v, (0..n).map(|_| self.bytes()).collect())
    }
    fn kind(&mut self, _: &'static str, v: &mut ErrorKind) -> Res {
        let kind = ErrorKind::from_byte(reason(self.0.byte())?);
        fill(v, kind.ok_or_else(|| "unknown error kind".into()))
    }
    fn list<T: Msg + Blank>(&mut self, _: &'static str, v: &mut Vec<T>) -> Res {
        let n = self.count()?;
        v.reserve_exact(n);
        for _ in 0..n {
            let mut item = T::blank();
            item.take(self)?;
            v.push(item);
        }
        Ok(())
    }
    fn nested(&mut self, _: &'static str, body: impl FnOnce(&mut Self) -> Res) -> Res {
        body(self)
    }
    fn tagged<T: Tagged>(&mut self, v: &mut T) -> Res {
        let tag = reason(self.0.byte())?;
        let Some(row) = T::VARIANTS.iter().find(|row| row.byte == tag) else {
            return Err(format!("unknown {} tag {tag:#x}", T::WHAT));
        };
        *v = (row.blank)();
        v.take(self)
    }
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

impl Fields<Put> for ObjWriter<'_> {
    fn uint<T: Uint>(&mut self, name: &'static str, v: &T) -> Res {
        self.value(name, &Json::UInt(wide(*v)));
        Ok(())
    }
    fn f64(&mut self, name: &'static str, v: &f64) -> Res {
        self.value(name, &Json::num_f(*v));
        Ok(())
    }
    fn bool(&mut self, name: &'static str, v: &bool) -> Res {
        self.value(name, &Json::Bool(*v));
        Ok(())
    }
    fn str(&mut self, name: &'static str, v: &String) -> Res {
        ObjWriter::str(self, name, v);
        Ok(())
    }
    fn opt_u64(&mut self, name: &'static str, v: &Option<u64>) -> Res {
        v.as_ref().map_or(Ok(()), |v| self.uint(name, v))
    }
    fn opt_f64(&mut self, name: &'static str, v: &Option<f64>) -> Res {
        v.as_ref().map_or(Ok(()), |v| self.f64(name, v))
    }
    fn trailing_str(&mut self, name: &'static str, v: &Option<String>) -> Res {
        v.as_ref().map_or(Ok(()), |v| Fields::str(self, name, v))
    }
    /// JSON strings cannot carry raw bytes: a record payload travels as
    /// its text rendering.
    fn payload(&mut self, name: &'static str, v: &ProfilePayload) -> Res {
        ObjWriter::str(self, name, &v.to_text().unwrap_or_default());
        Ok(())
    }
    fn frames(&mut self, name: &'static str, v: &Vec<Vec<u8>>) -> Res {
        let hex = v.iter().map(|frame| Json::Str(hex_encode(frame)));
        self.value(name, &Json::Arr(hex.collect()));
        Ok(())
    }
    fn kind(&mut self, name: &'static str, v: &ErrorKind) -> Res {
        ObjWriter::str(self, name, v.tag());
        Ok(())
    }
    fn list<T: Msg + Blank>(&mut self, name: &'static str, v: &Vec<T>) -> Res {
        self.open(Some(name), '[');
        for item in v {
            self.open(None, '{');
            item.put(self)?;
            self.close('}');
        }
        self.close(']');
        Ok(())
    }
    fn nested(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> Res) -> Res {
        self.open(Some(name), '{');
        body(self)?;
        self.close('}');
        Ok(())
    }
    fn tag(&mut self, _: u8, json: Spell) -> Res {
        match json {
            Spell::Named((key, name), second) => {
                ObjWriter::str(self, key, name);
                if let Some((key, name)) = second {
                    ObjWriter::str(self, key, name);
                }
            }
            Spell::Failed => self.value("ok", &Json::Bool(false)),
            reply => {
                self.value("ok", &Json::Bool(true));
                if let Spell::Flag(member) = reply {
                    self.value(member, &Json::Bool(true));
                }
            }
        }
        Ok(())
    }
    fn json(&self) -> bool {
        true
    }
}

/// Reads the object it holds; a nested object or list item is swapped in
/// while its fields are read. Members are moved out, not cloned.
struct JsonReader(Json);

impl JsonReader {
    fn need<'a, T>(&'a self, name: &str, what: &str, get: fn(&'a Json) -> Option<T>) -> Res<T> {
        let v = self.0.get(name).and_then(get);
        v.ok_or_else(|| format!("missing or non-{what} '{name}'"))
    }

    /// Move a member out of the object, leaving `null`.
    fn pull(&mut self, name: &str) -> Option<Json> {
        let v = self.0.get_mut(name)?;
        Some(std::mem::replace(v, Json::Null))
    }

    fn text(&mut self, name: &str) -> Res<String> {
        match self.pull(name) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(format!("missing or non-string '{name}'")),
        }
    }

    /// Read with `inner` as the current object.
    fn within(&mut self, inner: Json, read: impl FnOnce(&mut Self) -> Res) -> Res {
        let outer = std::mem::replace(&mut self.0, inner);
        read(self)?;
        self.0 = outer;
        Ok(())
    }

    fn items<T: Msg + Blank>(&mut self, items: Vec<Json>, v: &mut Vec<T>) -> Res {
        v.reserve_exact(items.len());
        for item in items {
            let mut t = T::blank();
            self.within(item, |r| t.take(r))?;
            v.push(t);
        }
        Ok(())
    }
}

impl Fields<Take> for JsonReader {
    fn uint<T: Uint>(&mut self, name: &'static str, v: &mut T) -> Res {
        fill(v, narrow(name, self.need(name, "integer", Json::as_u64)?))
    }
    fn f64(&mut self, name: &'static str, v: &mut f64) -> Res {
        fill(v, self.need(name, "number", Json::as_f64))
    }
    fn bool(&mut self, name: &'static str, v: &mut bool) -> Res {
        fill(v, self.need(name, "bool", Json::as_bool))
    }
    fn str(&mut self, name: &'static str, v: &mut String) -> Res {
        fill(v, self.text(name))
    }
    fn opt_u64(&mut self, name: &'static str, v: &mut Option<u64>) -> Res {
        fill(v, Ok(self.0.get(name).and_then(Json::as_u64)))
    }
    fn opt_f64(&mut self, name: &'static str, v: &mut Option<f64>) -> Res {
        fill(v, Ok(self.0.get(name).and_then(Json::as_f64)))
    }
    fn trailing_str(&mut self, name: &'static str, v: &mut Option<String>) -> Res {
        fill(v, Ok(self.text(name).ok()))
    }
    fn payload(&mut self, name: &'static str, v: &mut ProfilePayload) -> Res {
        fill(v, self.text(name).map(ProfilePayload::Text))
    }
    fn frames(&mut self, name: &'static str, v: &mut Vec<Vec<u8>>) -> Res {
        let frames = self.need(name, "array", Json::as_arr)?.iter();
        let hex = |f: &Json| hex_decode(f.as_str().ok_or("non-string frame")?);
        fill(v, frames.map(hex).collect())
    }
    fn kind(&mut self, name: &'static str, v: &mut ErrorKind) -> Res {
        let tag = self.need(name, "string", Json::as_str)?;
        let kind = ErrorKind::from_tag(tag).ok_or_else(|| format!("unknown {name} '{tag}'"));
        fill(v, kind)
    }
    fn list<T: Msg + Blank>(&mut self, name: &'static str, v: &mut Vec<T>) -> Res {
        match self.pull(name) {
            Some(Json::Arr(items)) => self.items(items, v),
            _ => Err(format!("missing or non-array '{name}'")),
        }
    }
    fn nested(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> Res) -> Res {
        let inner = self.pull(name).ok_or_else(|| format!("missing '{name}'"))?;
        self.within(inner, body)
    }
    fn tagged<T: Tagged>(&mut self, v: &mut T) -> Res {
        *v = (spelled::<T>(&self.0)?.blank)();
        v.take(self)
    }
    fn json(&self) -> bool {
        true
    }
    fn uint_or<T: Uint>(&mut self, name: &'static str, v: &mut T, default: T) -> Res {
        match self.0.get(name).and_then(Json::as_u64) {
            Some(n) => fill(v, narrow(name, n)),
            None => fill(v, Ok(default)),
        }
    }
    fn bool_or(&mut self, name: &'static str, v: &mut bool, default: bool) -> Res {
        let read = self.0.get(name).and_then(Json::as_bool);
        fill(v, Ok(read.unwrap_or(default)))
    }
    fn list_or_empty<T: Msg + Blank>(&mut self, name: &'static str, v: &mut Vec<T>) -> Res {
        match self.pull(name) {
            Some(Json::Arr(items)) => self.items(items, v),
            _ => Ok(()),
        }
    }
}
