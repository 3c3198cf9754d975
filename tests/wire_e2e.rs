//! Mixed-protocol end-to-end: line-delimited JSON clients and TPF1
//! binary clients hammer the same daemon concurrently — including the
//! batched binary ingest path — and no run is lost or duplicated. Also
//! pins the protocol-restriction modes: a `json`-only server refuses the
//! binary preamble, a `bin`-only server refuses JSON lines.

use profserve::{
    Client, ClientError, ClientTimeouts, ErrorKind, ProfilePayload, Record, Response, ServeConfig,
    Server, WireProtocol,
};
use profstore::{ProfileStore, RunWindow};
use std::collections::HashSet;
use std::path::PathBuf;
use taskprof_session::MeasurementSession;
use taskrt::TaskConstruct;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wire-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server(
    dir: &std::path::Path,
    config: ServeConfig,
) -> (
    profserve::ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let store = ProfileStore::open(dir).expect("open store");
    Server::spawn("127.0.0.1:0", store, config).expect("spawn server")
}

/// One deterministic seeded measurement, as text-store-format bytes.
fn profile_text(seed: u64) -> String {
    let task = TaskConstruct::new("wire_e2e_task");
    let tw = taskrt::taskwait_region("wire-e2e!tw");
    let session = MeasurementSession::builder("wire-e2e")
        .threads(2)
        .deterministic(seed)
        .build()
        .expect("valid session");
    session
        .run(|ctx| {
            for _ in 0..3 {
                ctx.task(&task, |_| {});
            }
            ctx.taskwait(tw);
        })
        .unwrap();
    cube::write_profile(&session.finish().profile)
}

#[test]
fn mixed_protocol_clients_lose_and_duplicate_nothing() {
    const CLIENTS: usize = 6;
    const RUNS_PER_CLIENT: usize = 6;
    const BATCH: usize = 3;

    let dir = temp_dir("mixed");
    let (handle, join) = spawn_server(
        &dir,
        ServeConfig {
            max_connections: CLIENTS + 4,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr().to_string();

    // Even workers speak JSON, odd workers speak TPF1; binary workers
    // upload half their runs through one batched ingest so the bulk path
    // contends with per-record traffic on the same store.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Vec<u64> {
                let proto = if w % 2 == 0 {
                    WireProtocol::Json
                } else {
                    WireProtocol::Binary
                };
                let mut client = Client::connect_proto(&addr, proto, ClientTimeouts::unbounded())
                    .expect("connect");
                assert_eq!(client.protocol(), proto);
                let records: Vec<Record> = (0..RUNS_PER_CLIENT)
                    .map(|k| {
                        let seed = (w * RUNS_PER_CLIENT + k) as u64;
                        Record::from_text("wire-bench", 2, Some(seed), profile_text(seed))
                    })
                    .collect();
                let mut ids = Vec::new();
                if proto == WireProtocol::Binary {
                    let receipt = client.ingest_batch(&records[..BATCH]).expect("batch");
                    assert_eq!(receipt.count, BATCH as u64);
                    ids.extend(receipt.first_run_id..receipt.first_run_id + BATCH as u64);
                    for record in &records[BATCH..] {
                        ids.push(client.ingest_record(record).expect("ingest").run_id());
                    }
                } else {
                    for record in &records {
                        ids.push(client.ingest_record(record).expect("ingest").run_id());
                    }
                }
                // Reads interleave with the other workers' writes.
                let top = client.query_top("wire-bench", 2, 5).expect("query");
                assert!(top.runs >= 1);
                ids
            })
        })
        .collect();

    let mut all_ids = Vec::new();
    for worker in workers {
        all_ids.extend(worker.join().expect("worker panicked"));
    }
    let expected = CLIENTS * RUNS_PER_CLIENT;
    assert_eq!(all_ids.len(), expected);
    let unique: HashSet<u64> = all_ids.iter().copied().collect();
    assert_eq!(unique.len(), expected, "duplicated run ids: {all_ids:?}");

    // Both protocols served requests, and every acknowledged run landed.
    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.query_stats("wire-bench", 2).expect("stats");
    assert_eq!(stats.runs, expected as u64);
    let health = client.server_stats().expect("server stats");
    assert!(health.service.json_requests > 0, "no JSON traffic seen");
    assert!(health.service.bin_requests > 0, "no binary traffic seen");
    assert_eq!(health.service.ingest_batches, CLIENTS as u64 / 2);
    assert_eq!(health.service.panics, 0);

    handle.stop();
    drop(client);
    join.join().expect("join").expect("run");
    drop(handle);

    let store = ProfileStore::open(&dir).expect("reopen");
    assert_eq!(store.stats().runs, expected as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restricted_servers_refuse_the_other_protocol() {
    // A json-only server: binary handshakes are refused, Auto clients
    // fall back to JSON and work.
    let dir = temp_dir("json-only");
    let (handle, join) = spawn_server(
        &dir,
        ServeConfig {
            protocols: WireProtocol::Json,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr().to_string();
    let err = match Client::connect_proto(&addr, WireProtocol::Binary, ClientTimeouts::unbounded())
    {
        Ok(_) => panic!("binary must be refused by a json-only server"),
        Err(e) => e,
    };
    assert!(
        matches!(
            err,
            ClientError::Server {
                kind: ErrorKind::BadRequest,
                ..
            }
        ),
        "unexpected refusal: {err:?}"
    );
    let mut auto = Client::connect(&addr).expect("auto falls back");
    assert_eq!(auto.protocol(), WireProtocol::Json);
    auto.ingest_record(&Record::from_text("fallback", 2, Some(1), profile_text(1)))
        .expect("ingest over fallback");
    handle.stop();
    drop(auto);
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);

    // A bin-only server: JSON clients get a typed bad_request and the
    // connection closes; binary clients work.
    let dir = temp_dir("bin-only");
    let (handle, join) = spawn_server(
        &dir,
        ServeConfig {
            protocols: WireProtocol::Binary,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr().to_string();
    let mut json = Client::connect_proto(&addr, WireProtocol::Json, ClientTimeouts::unbounded())
        .expect("tcp connect succeeds");
    let err = json
        .ingest_record(&Record::from_text("refused", 2, Some(1), profile_text(1)))
        .expect_err("json must be refused");
    assert!(
        matches!(
            err,
            ClientError::Server {
                kind: ErrorKind::BadRequest,
                ..
            }
        ),
        "unexpected refusal: {err:?}"
    );
    let mut bin = Client::connect_proto(&addr, WireProtocol::Binary, ClientTimeouts::unbounded())
        .expect("binary connects");
    bin.ingest_record(&Record::from_text("allowed", 2, Some(1), profile_text(1)))
        .expect("ingest over binary");
    handle.stop();
    drop(bin);
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One raw JSON-lines exchange: what a `curl`/Python client does.
fn raw_exchange(stream: &mut std::net::TcpStream, line: &[u8]) -> String {
    use std::io::{BufRead, BufReader, Write};
    stream.write_all(line).expect("write");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read");
    reply
}

fn ingest_line(benchmark_json: &str, seed: u64) -> String {
    let profile = profserve::Json::str(profile_text(seed)).to_string();
    format!("{{\"cmd\":\"INGEST\",\"benchmark\":{benchmark_json},\"threads\":2,\"profile\":{profile}}}\n")
}

#[test]
fn escaped_surrogate_pair_in_a_benchmark_name_lands_in_the_queried_group() {
    let dir = temp_dir("surrogate");
    let (handle, join) = spawn_server(&dir, ServeConfig::default());
    let addr = handle.addr().to_string();

    // `json.dumps("crab 🦀")` escapes the non-BMP scalar as a pair.
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    let reply = raw_exchange(
        &mut raw,
        ingest_line(r#""crab \ud83e\udd80""#, 1).as_bytes(),
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");

    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.query_stats("crab 🦀", 2).expect("stats").runs, 1);

    handle.stop();
    drop((raw, client));
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_utf8_request_line_is_a_bad_request_and_the_connection_survives() {
    let dir = temp_dir("non-utf8");
    let (handle, join) = spawn_server(&dir, ServeConfig::default());
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");

    let reply = raw_exchange(&mut raw, ingest_line("\"ok-group\"", 1).as_bytes());
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let before = client.server_stats().expect("stats");

    // An ingest whose group name holds a byte that is no UTF-8: it used
    // to be repaired to U+FFFD and stored under the mangled group.
    let mut bad = ingest_line("\"bad-group-X\"", 2).into_bytes();
    let x = bad.iter().position(|&b| b == b'X').expect("marker");
    bad[x] = 0xff;
    let reply = raw_exchange(&mut raw, &bad);
    assert!(
        reply.contains("\"kind\":\"bad_request\"") && reply.contains("not valid UTF-8"),
        "{reply}"
    );

    // Same connection, next line: served.
    let reply = raw_exchange(&mut raw, ingest_line("\"ok-group\"", 3).as_bytes());
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let after = client.server_stats().expect("stats");
    assert_eq!(
        after.store.runs,
        before.store.runs + 1,
        "only the good line stored a run"
    );
    assert_eq!(after.service.errors, before.service.errors + 1);
    assert_eq!(client.query_stats("ok-group", 2).expect("stats").runs, 2);

    // The unterminated trailer before EOF goes through the same check.
    use std::io::Write;
    raw.write_all(&bad[..bad.len() - 1]).expect("write trailer");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let reply = raw_exchange(&mut raw, b"");
    assert!(reply.contains("\"kind\":\"bad_request\""), "{reply}");
    assert_eq!(
        client.server_stats().expect("stats").store.runs,
        after.store.runs
    );

    handle.stop();
    drop((raw, client));
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_and_tpf1_clients_get_the_same_query_replies() {
    let dir = temp_dir("queries");
    let (handle, join) = spawn_server(&dir, ServeConfig::default());
    let addr = handle.addr().to_string();
    let connect =
        |proto| Client::connect_proto(&addr, proto, ClientTimeouts::unbounded()).expect("connect");
    let (mut json, mut bin) = (connect(WireProtocol::Json), connect(WireProtocol::Binary));
    for seed in 1..=4u64 {
        let record = Record::from_text("wire-q", 2, Some(100 * seed), profile_text(seed));
        bin.ingest_record(&record).expect("ingest");
    }
    let candidate = ProfilePayload::Text(profile_text(9));
    let windows = [
        (None, None),
        (Some(2), None),
        (None, Some(200)),
        (Some(1), Some(300)),
    ];
    for (last, since_ns) in windows {
        let window = RunWindow { last, since_ns };
        let ask = |c: &mut Client| {
            let regress = c.query_regress_window(
                "wire-q",
                2,
                candidate.clone(),
                Some(0.0),
                Some(1),
                Some(0),
                window,
            );
            [
                Response::Top(c.query_top_window("wire-q", 2, 5, window).expect("top")),
                Response::Stats(c.query_stats_window("wire-q", 2, window).expect("stats")),
                Response::Regress(regress.expect("regress")),
                Response::Trend(c.query_trend("wire-q", 2, 3, window).expect("trend")),
            ]
        };
        for (over_json, over_bin) in ask(&mut json).into_iter().zip(ask(&mut bin)) {
            // The JSON wire rounds floats to four decimals; nothing else
            // may differ.
            let at_json_resolution = Response::from_json_line(&over_bin.to_json_line());
            assert_eq!(Ok(over_json), at_json_resolution, "{window:?}");
        }
    }
    handle.stop();
    drop((json, bin));
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_non_finite_regress_threshold_is_a_bad_request_on_both_wires() {
    let dir = temp_dir("threshold");
    let (handle, join) = spawn_server(&dir, ServeConfig::default());
    let addr = handle.addr().to_string();
    let mut bin = Client::connect_proto(&addr, WireProtocol::Binary, ClientTimeouts::unbounded())
        .expect("connect");
    bin.ingest_record(&Record::from_text("wire-t", 2, Some(1), profile_text(1)))
        .expect("ingest");

    // `1e999` parses as infinity, which a verdict used to echo back as
    // `"threshold":null` — a reply no client could read.
    let profile = profserve::Json::str(profile_text(2)).to_string();
    let line = format!(
        "{{\"cmd\":\"QUERY\",\"query\":\"regress\",\"benchmark\":\"wire-t\",\"threads\":2,\"threshold\":1e999,\"profile\":{profile}}}\n"
    );
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    let reply = Response::from_json_line(raw_exchange(&mut raw, line.as_bytes()).trim_end());
    assert!(
        matches!(
            reply,
            Ok(Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            })
        ),
        "{reply:?}"
    );

    let nan = bin.query_regress(
        "wire-t",
        2,
        ProfilePayload::Text(profile_text(2)),
        Some(f64::NAN),
        None,
        None,
    );
    assert!(
        matches!(
            nan,
            Err(ClientError::Server {
                kind: ErrorKind::BadRequest,
                ..
            })
        ),
        "{nan:?}"
    );

    handle.stop();
    drop((raw, bin));
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fastest of five runs, in nanoseconds.
fn min_of_5<T>(mut f: impl FnMut() -> T) -> u128 {
    (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos()
        })
        .min()
        .expect("five runs")
}

/// The JSON ingest codecs are linear in the profile size. No absolute
/// time: 16× the text may cost up to 64× (linear is 16×; the per-char
/// whole-input validation this guards against was 256×).
#[test]
fn json_and_text_codecs_scale_linearly_with_profile_size() {
    let cost = |nodes: usize| {
        let text = test_util::sized_profile_text(nodes, 32);
        let request =
            profserve::Request::Ingest(Record::from_text("scale", 2, Some(1), text.clone()));
        let line = request.to_json_line();
        [
            min_of_5(|| request.to_json_line()),
            min_of_5(|| profserve::Request::from_json_line(&line).expect("parse")),
            min_of_5(|| cube::read_profile(&text).expect("parse")),
        ]
    };
    let (small, large) = (cost(512), cost(16 * 512));
    for (what, (small, large)) in ["to_json_line", "from_json_line", "read_profile"]
        .into_iter()
        .zip(small.into_iter().zip(large))
    {
        assert!(
            large < 64 * small.max(1),
            "{what}: {small} ns at 1x, {large} ns at 16x — super-linear"
        );
    }
}
