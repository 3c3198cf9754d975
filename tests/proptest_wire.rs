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
use proptest::prelude::*;
use taskprof_telemetry::ServiceSnapshot;

/// Decoder-side payload cap used by every property: large enough that no
/// generated frame ever trips it, so `FrameError::TooLarge` only appears
/// when corruption inflates the length header.
const MAX_PAYLOAD: usize = 1 << 20;

fn arb_payload() -> impl Strategy<Value = ProfilePayload> {
    prop_oneof![
        ".{0,80}".prop_map(ProfilePayload::Text),
        prop::collection::vec(any::<u8>(), 0..120).prop_map(ProfilePayload::Record),
    ]
}

/// `Option<u64>` out of primitives (the vendored proptest has no
/// `prop::option`).
fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_window() -> impl Strategy<Value = RunWindow> {
    (arb_opt_u64(), arb_opt_u64()).prop_map(|(last, since_ns)| RunWindow { last, since_ns })
}

fn arb_record() -> impl Strategy<Value = Record> {
    ("[a-z_]{1,12}", 1u32..8, arb_opt_u64(), arb_payload()).prop_map(
        |(benchmark, threads, timestamp_ns, profile)| Record {
            benchmark,
            threads,
            timestamp_ns,
            profile,
        },
    )
}

/// Optional `HELLO` auth secret (arbitrary short strings, including
/// empty — the codec must not care what the secret looks like).
fn arb_auth() -> impl Strategy<Value = Option<String>> {
    (any::<bool>(), ".{0,24}").prop_map(|(some, s)| some.then_some(s))
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), arb_auth()).prop_map(|(version, features, auth)| {
            Request::Hello {
                version,
                features,
                auth,
            }
        }),
        arb_record().prop_map(Request::Ingest),
        prop::collection::vec(arb_record(), 0..4).prop_map(Request::IngestBatch),
        ("[a-z]{1,12}", 1u32..8, 0usize..50, arb_window()).prop_map(
            |(benchmark, threads, n, window)| Request::QueryTop {
                benchmark,
                threads,
                n,
                window,
            }
        ),
        ("[a-z]{1,12}", 1u32..8, arb_window()).prop_map(|(benchmark, threads, window)| {
            Request::QueryStats {
                benchmark,
                threads,
                window,
            }
        }),
        (
            ("[a-z]{1,12}", 1u32..8, arb_payload()),
            (
                (any::<bool>(), 0.0f64..10.0).prop_map(|(some, v)| some.then_some(v)),
                arb_opt_u64(),
                arb_opt_u64(),
                arb_window(),
            ),
        )
            .prop_map(
                |((benchmark, threads, profile), (threshold, min_runs, min_delta_ns, window))| {
                    Request::QueryRegress {
                        benchmark,
                        threads,
                        profile,
                        threshold,
                        min_runs,
                        min_delta_ns,
                        window,
                    }
                },
            ),
        ("[a-z]{1,12}", 1u32..8, 1u32..16, arb_window()).prop_map(
            |(benchmark, threads, buckets, window)| Request::QueryTrend {
                benchmark,
                threads,
                buckets,
                window,
            }
        ),
        Just(Request::Stats),
        Just(Request::StatsPrometheus),
        arb_opt_u64().prop_map(|interval_ms| Request::Subscribe { interval_ms }),
        (any::<u64>(), any::<u64>()).prop_map(|(after, max)| Request::Export { after, max }),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..4)
            .prop_map(|frames| Request::Apply { frames }),
    ]
}

/// Floats the JSON wire carries exactly: its four-decimal rounding leaves
/// sixteenths alone.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0u64..1 << 40).prop_map(|k| k as f64 / 16.0)
}

fn arb_u64s(n: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), n..n + 1)
}

fn arb_metric() -> impl Strategy<Value = MetricReport> {
    (arb_u64s(4), arb_f64()).prop_map(|(v, mean_ns)| MetricReport {
        runs: v[0],
        sum_ns: v[1],
        min_ns: v[2],
        max_ns: v[3],
        mean_ns,
    })
}

fn arb_server_stats() -> impl Strategy<Value = ServerStatsReport> {
    let latency = prop::collection::vec((".{0,12}", ".{0,4}", arb_u64s(5)), 0..3);
    (arb_u64s(21), any::<bool>(), latency).prop_map(|(v, read_only, latency)| ServerStatsReport {
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
        latency: latency
            .into_iter()
            .map(|(verb, proto, l)| LatencyStat {
                verb,
                proto,
                count: l[0],
                sum_ns: l[1],
                max_ns: l[2],
                p50_ns: l[3],
                p99_ns: l[4],
            })
            .collect(),
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    let rows = prop::collection::vec((".{0,24}", arb_metric()), 0..4);
    let findings = prop::collection::vec((".{0,24}", any::<u64>(), arb_f64(), arb_f64()), 0..4);
    let frames = prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..4);
    prop_oneof![
        (any::<u32>(), any::<u64>())
            .prop_map(|(version, features)| Response::Hello { version, features }),
        arb_u64s(4).prop_map(|v| Response::Ingest(IngestReceipt {
            first_run_id: v[0],
            count: v[1],
            bytes: v[2],
            segment: v[3],
        })),
        (".{0,24}", any::<u32>(), any::<u64>(), rows).prop_map(
            |(benchmark, threads, runs, rows)| Response::Top(TopReport {
                benchmark,
                threads,
                runs,
                regions: rows
                    .into_iter()
                    .map(|(region, metric)| RegionRow { region, metric })
                    .collect(),
            })
        ),
        (".{0,24}", any::<u32>(), arb_u64s(3), arb_metric()).prop_map(
            |(benchmark, threads, v, total_ns)| Response::Stats(StatsReport {
                benchmark,
                threads,
                runs: v[0],
                total_ns,
                constructs: v[1],
                tree_mismatches: v[2],
            })
        ),
        (any::<bool>(), any::<u64>(), arb_f64(), findings).prop_map(
            |(regressed, baseline_runs, threshold, findings)| Response::Regress(RegressReport {
                regressed,
                baseline_runs,
                threshold,
                findings: findings
                    .into_iter()
                    .map(|(region, new_ns, mean_ns, ratio)| RegressFinding {
                        region,
                        new_ns,
                        mean_ns,
                        ratio,
                    })
                    .collect(),
            })
        ),
        (
            ".{0,24}",
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(arb_u64s(6), 0..4)
        )
            .prop_map(
                |(benchmark, threads, runs, buckets)| Response::Trend(TrendReport {
                    benchmark,
                    threads,
                    runs,
                    buckets: buckets
                        .into_iter()
                        .map(|b| TrendBucket {
                            runs: b[0],
                            sum_ns: b[1],
                            min_ns: b[2],
                            max_ns: b[3],
                            first_timestamp_ns: b[4],
                            last_timestamp_ns: b[5],
                        })
                        .collect(),
                })
            ),
        arb_server_stats().prop_map(Response::ServerStats),
        ".{0,80}".prop_map(Response::Prometheus),
        any::<u64>().prop_map(|interval_ms| Response::Subscribed { interval_ms }),
        (any::<u64>(), arb_server_stats())
            .prop_map(|(t_ns, stats)| Response::Event(Notification::Telemetry { t_ns, stats })),
        (arb_u64s(3), ".{0,24}", any::<u32>()).prop_map(|(v, benchmark, threads)| {
            Response::Event(Notification::Ingest {
                first_run_id: v[0],
                count: v[1],
                bytes: v[2],
                benchmark,
                threads,
            })
        }),
        any::<u64>().prop_map(|dropped| Response::Event(Notification::Lagged { dropped })),
        (frames, any::<u64>(), any::<bool>()).prop_map(|(frames, watermark, done)| {
            Response::ExportChunk {
                frames,
                watermark,
                done,
            }
        }),
        arb_u64s(3).prop_map(|v| Response::Applied {
            applied: v[0],
            skipped: v[1],
            watermark: v[2],
        }),
        (0u8..7, ".{0,40}").prop_map(|(byte, message)| Response::Error {
            kind: ErrorKind::from_byte(byte).expect("seven kinds"),
            message,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frame_parser_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let _ = try_frame(&bytes, MAX_PAYLOAD);
    }

    #[test]
    fn payload_decoders_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    #[test]
    fn requests_round_trip_through_frame_and_codec(req in arb_request()) {
        let framed = frame(&encode_request(&req));
        let (payload, consumed) = try_frame(&framed, MAX_PAYLOAD)
            .expect("valid frame")
            .expect("complete frame");
        prop_assert_eq!(consumed, framed.len());
        prop_assert_eq!(decode_request(payload).expect("valid payload"), req);
    }

    #[test]
    fn responses_round_trip_through_frame_and_codec(resp in arb_response()) {
        let framed = frame(&encode_response(&resp));
        let (payload, consumed) = try_frame(&framed, MAX_PAYLOAD)
            .expect("valid frame")
            .expect("complete frame");
        prop_assert_eq!(consumed, framed.len());
        prop_assert_eq!(decode_response(payload).expect("valid payload"), resp);
    }

    #[test]
    fn truncated_frames_wait_for_more_data(req in arb_request(), cut in 0.0f64..1.0) {
        // Any strict prefix of a valid frame is an incomplete read, never
        // a decoded frame and never an error: the reactor must keep the
        // connection open and wait for the remaining bytes.
        let framed = frame(&encode_request(&req));
        let keep = ((framed.len() as f64 * cut) as usize).min(framed.len() - 1);
        prop_assert!(matches!(try_frame(&framed[..keep], MAX_PAYLOAD), Ok(None)));
    }

    #[test]
    fn bit_flips_never_pass_undetected(
        req in arb_request(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
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
            prop_assert!(payload != original, "bit flip at byte {} went undetected", idx);
        }
    }

    #[test]
    fn truncated_payloads_never_decode_to_the_original(req in arb_request(), cut in 0.0f64..1.0) {
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
                    prop_assert_ne!(decoded, req);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// JSON lines
// ---------------------------------------------------------------------

/// Characters chosen so that escapes are dense: a clean run can start
/// and end at any offset from a `"`, a `\\`, a control character (short
/// and `\\u00XX` forms), and two-, three- and four-byte scalars up to
/// the edges of the surrogate gap.
fn arb_json_char() -> impl Strategy<Value = char> {
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
    (0usize..40, any::<char>()).prop_map(|(pick, other)| *SPECIAL.get(pick).unwrap_or(&other))
}

fn arb_json_string() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_json_char(), 0..48).prop_map(|chars| chars.into_iter().collect())
}

/// Trees whose numbers are already in the form the parser hands back:
/// a non-negative integral value is a `UInt`, so `Num` holds negatives
/// and fractions only.
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<u64>().prop_map(Json::UInt),
        (1i64..1_000_000).prop_map(|n| Json::Num(-(n as f64))),
        (-1_000_000i64..1_000_000).prop_map(|n| Json::Num(n as f64 + 0.5)),
        arb_json_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            prop::collection::vec((arb_json_string(), inner), 0..4).prop_map(Json::Obj),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_strings_round_trip(s in arb_json_string()) {
        let line = Json::Str(s.clone()).to_string();
        prop_assert!(!line.contains('\n'), "a line must stay one line: {line:?}");
        prop_assert_eq!(parse_json(&line).expect("own output parses"), Json::Str(s));
    }

    #[test]
    fn json_trees_round_trip(v in arb_json()) {
        prop_assert_eq!(parse_json(&v.to_string()).expect("own output parses"), v);
    }

    #[test]
    fn cut_or_corrupted_request_lines_never_panic(
        req in arb_request(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let line = req.to_json_line();
        prop_assert_eq!(
            Request::from_json_line(&line).expect("own output parses").to_json_line(),
            line.clone()
        );
        // No strict prefix of an object is a complete document.
        let cut = &line.as_bytes()[..pos % line.len()];
        if let Ok(prefix) = std::str::from_utf8(cut) {
            prop_assert!(Request::from_json_line(prefix).is_err(), "accepted {prefix:?}");
        }
        let mut corrupt = line.into_bytes();
        let idx = pos % corrupt.len();
        corrupt[idx] ^= 1 << bit;
        if let Ok(text) = std::str::from_utf8(&corrupt) {
            let _ = parse_json(text);
            let _ = Request::from_json_line(text);
        }
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn both_encodings_decode_every_request_alike(req in arb_request()) {
        let over_json = Request::from_json_line(&req.to_json_line()).expect("own line parses");
        let over_bin = decode_request(&encode_request(&req)).expect("own payload decodes");
        prop_assert_eq!(textual(over_json), textual(over_bin));
    }

    #[test]
    fn both_encodings_decode_every_response_alike(resp in arb_response()) {
        let over_json = Response::from_json_line(&resp.to_json_line());
        let over_bin = decode_response(&encode_response(&resp)).map_err(|e| e.to_string());
        prop_assert_eq!(over_json, over_bin);
    }
}
