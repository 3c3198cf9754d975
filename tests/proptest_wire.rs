//! Robustness of the TPF1 wire codec: arbitrary and corrupted bytes must
//! never panic the decoder, truncated frames must wait for more data
//! instead of yielding garbage, single-bit corruption must never pass the
//! frame check undetected, and encode→decode must round-trip every
//! request and response shape. The JSON-lines codec gets the same
//! treatment further down: string and tree round trips, cut and corrupted
//! lines, and the checked-in request lines that pin the wire format. Both
//! codecs come from one declaration per message; the last properties
//! check that they decode every message alike.

use profserve::protocol::{MetricReport, RegionRow, RegressFinding};
use profserve::wire::{
    decode_request, decode_response, encode_request, encode_response, frame, try_frame,
};
use profserve::{
    parse_json, ErrorKind, IngestReceipt, Json, LatencyStat, Notification, ProfilePayload, Record,
    RegressReport, Request, Response, ServerStatsReport, StatsReport, TopReport, TrendReport,
};
use profstore::{RunWindow, StoreStats, TrendBucket};
use std::ops::Range;
use taskprof_telemetry::ServiceSnapshot;
use test_util::prop::{check, line, Gen};

/// Decoder-side payload cap used by every property: large enough that no
/// generated frame ever trips it, so `FrameError::TooLarge` only appears
/// when corruption inflates the length header.
const MAX_PAYLOAD: usize = 1 << 20;

fn payload(g: &mut Gen) -> ProfilePayload {
    match g.below(2) {
        0 => ProfilePayload::Text(line(g, 0..81)),
        _ => ProfilePayload::Record(bytes(g, 0..120)),
    }
}

fn bytes(g: &mut Gen, len: Range<usize>) -> Vec<u8> {
    g.vec(len, |g| g.u64(..=255) as u8)
}

/// A lowercase word of 1 to 12 letters, and `_` too when `underscore`.
fn word(g: &mut Gen, underscore: bool) -> String {
    let letters = if underscore { 27 } else { 26 };
    g.vec(1..13, |g| match g.below(letters) {
        26 => '_',
        k => char::from(b'a' + k as u8),
    })
    .into_iter()
    .collect()
}

fn opt_u64(g: &mut Gen) -> Option<u64> {
    g.option(|g| g.u64(..))
}

fn window(g: &mut Gen) -> RunWindow {
    RunWindow {
        last: opt_u64(g),
        since_ns: opt_u64(g),
    }
}

fn record(g: &mut Gen) -> Record {
    Record {
        benchmark: word(g, true),
        threads: g.u64(1..8) as u32,
        timestamp_ns: opt_u64(g),
        profile: payload(g),
    }
}

fn frames(g: &mut Gen) -> Vec<Vec<u8>> {
    g.vec(0..4, |g| bytes(g, 0..64))
}

fn request(g: &mut Gen) -> Request {
    match g.below(12) {
        0 => Request::Stats,
        1 => Request::StatsPrometheus,
        2 => Request::Hello {
            version: g.u64(..1 << 32) as u32,
            features: g.u64(..),
            // Any short secret, empty too: the codec must not care.
            auth: g.option(|g| line(g, 0..25)),
        },
        3 => Request::Ingest(record(g)),
        4 => Request::IngestBatch(g.vec(0..4, record)),
        5 => Request::QueryTop {
            benchmark: word(g, false),
            threads: g.u64(1..8) as u32,
            n: g.u64(0..50) as usize,
            window: window(g),
        },
        6 => Request::QueryStats {
            benchmark: word(g, false),
            threads: g.u64(1..8) as u32,
            window: window(g),
        },
        7 => Request::QueryRegress {
            benchmark: word(g, false),
            threads: g.u64(1..8) as u32,
            profile: payload(g),
            threshold: g.option(|g| g.unit_f64() * 10.0),
            min_runs: opt_u64(g),
            min_delta_ns: opt_u64(g),
            window: window(g),
        },
        8 => Request::QueryTrend {
            benchmark: word(g, false),
            threads: g.u64(1..8) as u32,
            buckets: g.u64(1..16) as u32,
            window: window(g),
        },
        9 => Request::Subscribe {
            interval_ms: opt_u64(g),
        },
        10 => Request::Export {
            after: g.u64(..),
            max: g.u64(..),
        },
        _ => Request::Apply { frames: frames(g) },
    }
}

/// Floats the JSON wire carries exactly: its four-decimal rounding leaves
/// sixteenths alone.
fn exact_f64(g: &mut Gen) -> f64 {
    g.u64(..1 << 40) as f64 / 16.0
}

fn u64s<const N: usize>(g: &mut Gen) -> [u64; N] {
    std::array::from_fn(|_| g.u64(..))
}

fn metric(g: &mut Gen) -> MetricReport {
    let [runs, sum_ns, min_ns, max_ns] = u64s(g);
    MetricReport {
        runs,
        sum_ns,
        min_ns,
        max_ns,
        mean_ns: exact_f64(g),
    }
}

fn server_stats(g: &mut Gen) -> ServerStatsReport {
    let v: [u64; 21] = u64s(g);
    let read_only = g.bool();
    let latency = g.vec(0..3, |g| {
        let (verb, proto) = (line(g, 0..13), line(g, 0..5));
        let [count, sum_ns, max_ns, p50_ns, p99_ns] = u64s(g);
        LatencyStat {
            verb,
            proto,
            count,
            sum_ns,
            max_ns,
            p50_ns,
            p99_ns,
        }
    });
    ServerStatsReport {
        service: ServiceSnapshot {
            connections: v[0],
            shed_connections: v[1],
            timeout_connections: v[2],
            ingests: v[3],
            ingest_bytes: v[4],
            queries: v[5],
            errors: v[6],
            panics: v[7],
            json_requests: v[8],
            bin_requests: v[9],
            ingest_batches: v[10],
            subscriptions: v[11],
            sub_events: v[12],
            sub_lagged: v[13],
        },
        read_only,
        store: StoreStats {
            segments: v[14],
            runs: v[15],
            bytes: v[16],
            recovered_tail_bytes: v[17],
            compacted_through: v[18],
        },
        open_timestamp_ns: v[19],
        uptime_secs: v[20],
        latency,
    }
}

fn response(g: &mut Gen) -> Response {
    match g.below(15) {
        0 => Response::Hello {
            version: g.u64(..1 << 32) as u32,
            features: g.u64(..),
        },
        1 => {
            let [first_run_id, count, bytes, segment] = u64s(g);
            Response::Ingest(IngestReceipt {
                first_run_id,
                count,
                bytes,
                segment,
            })
        }
        2 => Response::Top(TopReport {
            benchmark: line(g, 0..25),
            threads: g.u64(..1 << 32) as u32,
            runs: g.u64(..),
            regions: g.vec(0..4, |g| RegionRow {
                region: line(g, 0..25),
                metric: metric(g),
            }),
        }),
        3 => {
            let (benchmark, threads) = (line(g, 0..25), g.u64(..1 << 32) as u32);
            let [runs, constructs, tree_mismatches] = u64s(g);
            Response::Stats(StatsReport {
                benchmark,
                threads,
                runs,
                total_ns: metric(g),
                constructs,
                tree_mismatches,
            })
        }
        4 => Response::Regress(RegressReport {
            regressed: g.bool(),
            baseline_runs: g.u64(..),
            threshold: exact_f64(g),
            findings: g.vec(0..4, |g| RegressFinding {
                region: line(g, 0..25),
                new_ns: g.u64(..),
                mean_ns: exact_f64(g),
                ratio: exact_f64(g),
            }),
        }),
        5 => Response::Trend(TrendReport {
            benchmark: line(g, 0..25),
            threads: g.u64(..1 << 32) as u32,
            runs: g.u64(..),
            buckets: g.vec(0..4, |g| {
                let [runs, sum_ns, min_ns, max_ns, first_timestamp_ns, last_timestamp_ns] = u64s(g);
                TrendBucket {
                    runs,
                    sum_ns,
                    min_ns,
                    max_ns,
                    first_timestamp_ns,
                    last_timestamp_ns,
                }
            }),
        }),
        6 => Response::ServerStats(server_stats(g)),
        7 => Response::Prometheus(line(g, 0..81)),
        8 => Response::Subscribed {
            interval_ms: g.u64(..),
        },
        9 => Response::Event(Notification::Telemetry {
            t_ns: g.u64(..),
            stats: server_stats(g),
        }),
        10 => {
            let [first_run_id, count, bytes] = u64s(g);
            Response::Event(Notification::Ingest {
                first_run_id,
                count,
                bytes,
                benchmark: line(g, 0..25),
                threads: g.u64(..1 << 32) as u32,
            })
        }
        11 => Response::Event(Notification::Lagged { dropped: g.u64(..) }),
        12 => Response::ExportChunk {
            frames: frames(g),
            watermark: g.u64(..),
            done: g.bool(),
        },
        13 => {
            let [applied, skipped, watermark] = u64s(g);
            Response::Applied {
                applied,
                skipped,
                watermark,
            }
        }
        _ => Response::Error {
            kind: ErrorKind::from_byte(g.below(7) as u8).expect("seven kinds"),
            message: line(g, 0..41),
        },
    }
}

#[test]
fn frame_parser_never_panics_on_arbitrary_bytes() {
    let gen = |g: &mut Gen| bytes(g, 0..600);
    check(
        "frame_parser_never_panics_on_arbitrary_bytes",
        64,
        gen,
        |bytes| {
            let _ = try_frame(&bytes, MAX_PAYLOAD);
        },
    );
}

#[test]
fn payload_decoders_never_panic_on_arbitrary_bytes() {
    let gen = |g: &mut Gen| bytes(g, 0..600);
    check(
        "payload_decoders_never_panic_on_arbitrary_bytes",
        64,
        gen,
        |bytes| {
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
        },
    );
}

#[test]
fn requests_round_trip_through_frame_and_codec() {
    check(
        "requests_round_trip_through_frame_and_codec",
        64,
        request,
        |req| {
            let framed = frame(&encode_request(&req));
            let (payload, consumed) = try_frame(&framed, MAX_PAYLOAD)
                .expect("valid frame")
                .expect("complete frame");
            assert_eq!(consumed, framed.len());
            assert_eq!(decode_request(payload).expect("valid payload"), req);
        },
    );
}

#[test]
fn responses_round_trip_through_frame_and_codec() {
    check(
        "responses_round_trip_through_frame_and_codec",
        64,
        response,
        |resp| {
            let framed = frame(&encode_response(&resp));
            let (payload, consumed) = try_frame(&framed, MAX_PAYLOAD)
                .expect("valid frame")
                .expect("complete frame");
            assert_eq!(consumed, framed.len());
            assert_eq!(decode_response(payload).expect("valid payload"), resp);
        },
    );
}

#[test]
fn truncated_frames_wait_for_more_data() {
    let gen = |g: &mut Gen| (request(g), g.unit_f64());
    check(
        "truncated_frames_wait_for_more_data",
        64,
        gen,
        |(req, cut)| {
            // Any strict prefix of a valid frame is an incomplete read, never
            // a decoded frame and never an error: the reactor must keep the
            // connection open and wait for the remaining bytes.
            let framed = frame(&encode_request(&req));
            let keep = ((framed.len() as f64 * cut) as usize).min(framed.len() - 1);
            assert!(matches!(try_frame(&framed[..keep], MAX_PAYLOAD), Ok(None)));
        },
    );
}

#[test]
fn bit_flips_never_pass_undetected() {
    let gen = |g: &mut Gen| (request(g), g.u64(..) as usize, g.below(8));
    check(
        "bit_flips_never_pass_undetected",
        64,
        gen,
        |(req, pos, bit)| {
            let framed = frame(&encode_request(&req));
            let original = try_frame(&framed, MAX_PAYLOAD)
                .expect("valid frame")
                .expect("complete frame")
                .0;
            let mut corrupt = framed.clone();
            let idx = pos % corrupt.len();
            corrupt[idx] ^= 1 << bit;
            // A flipped length header may legitimately look like an
            // incomplete frame (Ok(None)) or an oversized one (Err); a
            // flipped payload or checksum must fail the CRC. What must never
            // happen is the original payload coming back as if intact.
            if let Ok(Some((payload, _))) = try_frame(&corrupt, MAX_PAYLOAD) {
                assert!(
                    payload != original,
                    "bit flip at byte {} went undetected",
                    idx
                );
            }
        },
    );
}

#[test]
fn truncated_payloads_never_decode_to_the_original() {
    let gen = |g: &mut Gen| (request(g), g.unit_f64());
    check(
        "truncated_payloads_never_decode_to_the_original",
        64,
        gen,
        |(req, cut)| {
            let payload = encode_request(&req);
            // One deliberate exception: the HELLO auth extension is a trailing
            // optional field, and the decoder accepts a pre-auth HELLO that
            // ends after `features` as auth: None. Dropping exactly the
            // presence byte of an auth-less HELLO therefore round-trips.
            let compat_hello = matches!(&req, Request::Hello { auth: None, .. });
            if payload.len() > 1 {
                let keep = ((payload.len() as f64 * cut) as usize).min(payload.len() - 1);
                if !(compat_hello && keep == payload.len() - 1) {
                    if let Ok(decoded) = decode_request(&payload[..keep]) {
                        assert_ne!(decoded, req);
                    }
                }
            }
        },
    );
}

// ---------------------------------------------------------------------
// JSON lines
// ---------------------------------------------------------------------

/// Characters chosen so that escapes are dense: a clean run can start
/// and end at any offset from a `"`, a `\\`, a control character (short
/// and `\\u00XX` forms), and two-, three- and four-byte scalars up to
/// the edges of the surrogate gap.
fn json_char(g: &mut Gen) -> char {
    const SPECIAL: [char; 20] = [
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        'é',
        'λ',
        '中',
        '\u{d7ff}',
        '\u{e000}',
        '\u{ffff}',
        '🦀',
        '\u{10ffff}',
    ];
    match g.below(40) as usize {
        pick @ 0..20 => SPECIAL[pick],
        _ => any_char(g),
    }
}

/// Any `char`: mostly printable ASCII, one time in eight any scalar.
fn any_char(g: &mut Gen) -> char {
    match g.below(8) {
        7 => char::from_u32(g.u64(..0x11_0000) as u32).unwrap_or('\u{fffd}'),
        _ => char::from(0x20 + g.below(0x5f) as u8),
    }
}

fn json_string(g: &mut Gen) -> String {
    g.vec(0..48, json_char).into_iter().collect()
}

/// Trees whose numbers are already in the form the parser hands back:
/// a non-negative integral value is a `UInt`, so `Num` holds negatives
/// and fractions only. Up to `depth` levels of arrays and objects.
fn json(g: &mut Gen, depth: u32) -> Json {
    if depth == 0 || g.below(3) == 0 {
        return match g.below(6) {
            0 => Json::Null,
            1 => Json::Bool(g.bool()),
            2 => Json::UInt(g.u64(..)),
            3 => Json::Num(-(g.u64(1..1_000_000) as f64)),
            4 => Json::Num(g.u64(..2_000_000) as f64 - 1_000_000.0 + 0.5),
            _ => Json::Str(json_string(g)),
        };
    }
    match g.below(2) {
        0 => Json::Arr(g.vec(0..4, |g| json(g, depth - 1))),
        _ => Json::Obj(g.vec(0..4, |g| (json_string(g), json(g, depth - 1)))),
    }
}

#[test]
fn json_strings_round_trip() {
    check("json_strings_round_trip", 256, json_string, |s| {
        let line = Json::Str(s.clone()).to_string();
        assert!(!line.contains('\n'), "a line must stay one line: {line:?}");
        assert_eq!(parse_json(&line).expect("own output parses"), Json::Str(s));
    });
}

#[test]
fn json_trees_round_trip() {
    let gen = |g: &mut Gen| json(g, 3);
    check("json_trees_round_trip", 256, gen, |v| {
        assert_eq!(parse_json(&v.to_string()).expect("own output parses"), v);
    });
}

#[test]
fn cut_or_corrupted_request_lines_never_panic() {
    let gen = |g: &mut Gen| (request(g), g.u64(..) as usize, g.below(8));
    check(
        "cut_or_corrupted_request_lines_never_panic",
        256,
        gen,
        |(req, pos, bit)| {
            let line = req.to_json_line();
            assert_eq!(
                Request::from_json_line(&line)
                    .expect("own output parses")
                    .to_json_line(),
                line.clone()
            );
            // No strict prefix of an object is a complete document.
            let cut = &line.as_bytes()[..pos % line.len()];
            if let Ok(prefix) = std::str::from_utf8(cut) {
                assert!(
                    Request::from_json_line(prefix).is_err(),
                    "accepted {prefix:?}"
                );
            }
            let mut corrupt = line.into_bytes();
            let idx = pos % corrupt.len();
            corrupt[idx] ^= 1 << bit;
            if let Ok(text) = std::str::from_utf8(&corrupt) {
                let _ = parse_json(text);
                let _ = Request::from_json_line(text);
            }
        },
    );
}

/// Profile text that needs every writer escape: `\n` per line, `"` and
/// `\` in names, a tab and a control character in a diagnostic, and
/// multi-byte and non-BMP characters that must pass through unescaped.
const GOLDEN_PROFILE: &str = "taskprof-profile v1\nthreads 1\nthread 0 max_live 2 arena 8\ndiag \"tab\there \u{1} λ → 🦀\"\nmain\n  region parallel \"gold \\\"par\\\" \\\\ λ🦀\" visits 1 sum 90 min 90 max 90 samples 1\n    stub \"gold-task\" visits 3 sum 33 min 10 max 12 samples 3\ntasktree\n  region task \"gold-task\" visits 3 sum 33 min 10 max 12 samples 3 aborted 1\n    param \"depth\" -2 visits 1 sum 5 min 5 max 5 samples 1\nend\n";

fn golden_requests() -> Vec<Request> {
    let text_record = Record::from_text(
        "gold \"bench\" \\ λ🦀",
        4,
        Some(1_754_640_000_123_456_789),
        GOLDEN_PROFILE,
    );
    let binary_record = Record::from_profile(
        "gold-bin",
        2,
        None,
        &cube::read_profile(GOLDEN_PROFILE).expect("golden profile parses"),
    );
    vec![
        Request::Ingest(text_record.clone()),
        Request::IngestBatch(vec![text_record, binary_record]),
        Request::QueryRegress {
            benchmark: "gold".into(),
            threads: 4,
            profile: ProfilePayload::Text(GOLDEN_PROFILE.into()),
            threshold: Some(0.15),
            min_runs: Some(3),
            min_delta_ns: None,
            window: RunWindow {
                last: Some(10),
                since_ns: None,
            },
        },
        Request::Apply {
            frames: vec![vec![0x00, 0x01, 0xfe, 0xff], vec![]],
        },
    ]
}

/// The JSON wire is a public format (`curl`, CI scripts): one fixed
/// request of each payload-carrying shape must serialize to exactly the
/// checked-in line. Regenerate with `BLESS=1` after an intentional
/// format change.
#[test]
fn json_request_lines_match_the_golden_file() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/json_request_lines.txt");
    let actual: String = golden_requests()
        .iter()
        .map(|r| r.to_json_line() + "\n")
        .collect();
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden file (BLESS=1 creates it)");
    assert_eq!(actual, expected, "JSON request lines changed on the wire");
    for (line, request) in expected.lines().zip(golden_requests()) {
        let parsed = Request::from_json_line(line).expect("golden line parses");
        // A binary record payload travels as text over JSON.
        assert_eq!(parsed.to_json_line(), request.to_json_line());
    }
}

// ---------------------------------------------------------------------
// One declaration, two encodings
// ---------------------------------------------------------------------

/// A request as JSON can carry it: a record payload as its text
/// rendering, a threshold at the four decimals of a JSON number.
fn textual(req: Request) -> Request {
    let text = |p: ProfilePayload| ProfilePayload::Text(p.to_text().unwrap_or_default().into());
    let record = |r: Record| Record {
        profile: text(r.profile),
        ..r
    };
    match req {
        Request::Ingest(r) => Request::Ingest(record(r)),
        Request::IngestBatch(items) => {
            Request::IngestBatch(items.into_iter().map(record).collect())
        }
        Request::QueryRegress {
            benchmark,
            threads,
            profile,
            threshold,
            min_runs,
            min_delta_ns,
            window,
        } => Request::QueryRegress {
            benchmark,
            threads,
            profile: text(profile),
            threshold: threshold.and_then(|t| Json::num_f(t).as_f64()),
            min_runs,
            min_delta_ns,
            window,
        },
        other => other,
    }
}

#[test]
fn both_encodings_decode_every_request_alike() {
    check(
        "both_encodings_decode_every_request_alike",
        256,
        request,
        |req| {
            let over_json = Request::from_json_line(&req.to_json_line()).expect("own line parses");
            let over_bin = decode_request(&encode_request(&req)).expect("own payload decodes");
            assert_eq!(textual(over_json), textual(over_bin));
        },
    );
}

#[test]
fn both_encodings_decode_every_response_alike() {
    check(
        "both_encodings_decode_every_response_alike",
        256,
        response,
        |resp| {
            let over_json = Response::from_json_line(&resp.to_json_line());
            let over_bin = decode_response(&encode_response(&resp)).map_err(|e| e.to_string());
            assert_eq!(over_json, over_bin);
        },
    );
}
