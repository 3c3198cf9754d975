//! End-to-end coverage of the profile repository: concurrent clients
//! hammering one daemon without losing or duplicating runs, and the
//! determinism contract — two identical seeded sweeps produce
//! byte-identical query responses.

use profserve::{Client, ProfilePayload, Record, Response, ServeConfig, Server, ServerHandle};
use profstore::ProfileStore;
use std::collections::HashSet;
use std::path::PathBuf;
use taskprof_session::MeasurementSession;
use taskrt::TaskConstruct;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "profrepo-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server(
    dir: &std::path::Path,
    max_connections: usize,
) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let store = ProfileStore::open(dir).expect("open store");
    let config = ServeConfig {
        max_connections,
        ..ServeConfig::default()
    };
    Server::spawn("127.0.0.1:0", store, config).expect("spawn server")
}

/// One deterministic seeded measurement of a small task workload, as the
/// text store format. Same seed, same bytes.
fn deterministic_profile_text(seed: u64) -> String {
    let task = TaskConstruct::new("e2e_repo_task");
    let tw = taskrt::taskwait_region("e2e-repo!tw");
    let session = MeasurementSession::builder("e2e-repo")
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
fn concurrent_clients_lose_and_duplicate_nothing() {
    const CLIENTS: usize = 8;
    const RUNS_PER_CLIENT: usize = 5;

    let dir = temp_dir("stress");
    let (handle, join) = spawn_server(&dir, CLIENTS + 4);
    let addr = handle.addr().to_string();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Vec<u64> {
                let mut client = Client::connect(&addr).expect("connect");
                let mut ids = Vec::new();
                for k in 0..RUNS_PER_CLIENT {
                    let seed = (w * RUNS_PER_CLIENT + k) as u64;
                    let text = deterministic_profile_text(seed);
                    let receipt = client
                        .ingest_record(&Record::from_text("stress-bench", 2, Some(seed), &text))
                        .expect("ingest");
                    ids.push(receipt.run_id());
                    // Interleave queries with the ingests so reads and
                    // writes genuinely contend on the store lock.
                    let top = client.query_top("stress-bench", 2, 5).expect("query");
                    assert!(top.runs >= 1, "query saw an empty aggregate");
                }
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

    // The server agrees: exactly one stored run per acknowledged ingest.
    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.query_stats("stress-bench", 2).expect("stats");
    assert_eq!(stats.runs, expected as u64);
    let health = client.server_stats().expect("server stats");
    assert_eq!(health.service.ingests, expected as u64);
    assert_eq!(health.service.panics, 0);

    handle.stop();
    drop(client);
    join.join().expect("join").expect("run");
    // The handle keeps the server's store (and its directory lock)
    // alive; release it before reopening the log as a new writer.
    drop(handle);

    // And the segment log on disk survives a cold reopen with all runs.
    let store = ProfileStore::open(&dir).expect("reopen");
    assert_eq!(store.stats().runs, expected as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One full sweep: fresh store, fresh server, 20 deterministic ingests,
/// then the three query kinds. Returns every response line.
fn sweep(tag: &str) -> Vec<String> {
    let dir = temp_dir(tag);
    let (handle, join) = spawn_server(&dir, 8);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    for seed in 0..20u64 {
        let text = deterministic_profile_text(seed);
        client
            .ingest_record(&Record::from_text(
                "sweep-bench",
                2,
                Some(seed * 1_000),
                &text,
            ))
            .expect("ingest");
    }

    // Serialize each typed report to its canonical JSON response line so
    // "byte-identical" stays a meaningful cross-sweep assertion.
    let mut lines = Vec::new();
    lines.push(Response::Top(client.query_top("sweep-bench", 2, 10).expect("top")).to_json_line());
    lines
        .push(Response::Stats(client.query_stats("sweep-bench", 2).expect("stats")).to_json_line());
    // Candidate from a seed outside the baseline: deterministic, so the
    // verdict (and its serialized form) is identical across sweeps.
    let candidate = deterministic_profile_text(777);
    lines.push(
        Response::Regress(
            client
                .query_regress(
                    "sweep-bench",
                    2,
                    ProfilePayload::Text(candidate),
                    Some(0.25),
                    None,
                    None,
                )
                .expect("regress"),
        )
        .to_json_line(),
    );

    handle.stop();
    drop(client);
    join.join().expect("join").expect("run");
    let _ = std::fs::remove_dir_all(&dir);
    lines
}

#[test]
fn identical_seeded_sweeps_answer_byte_identically() {
    let first = sweep("sweep-a");
    let second = sweep("sweep-b");
    assert_eq!(
        first, second,
        "identical deterministic sweeps must produce byte-identical responses"
    );
    // Sanity: the sweep actually stored and aggregated 20 runs.
    assert!(first[0].contains("\"runs\":20"), "{}", first[0]);
    assert!(first[2].contains("\"regressed\""), "{}", first[2]);
}
