//! End-to-end runs of the `taskprof-cli` binary: the analysis verbs on
//! the paper's codes, and the repository verbs against `serve` daemons
//! each test spawns itself.
//!
//! Every spawned process is owned by a [`Proc`], which kills and reaps it
//! when dropped, also when the test panics. Daemons bind ephemeral ports
//! and publish them through `--port-file`. Every wait polls a condition
//! until a deadline; no sleep stands in for an assertion.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const CLI: &str = env!("CARGO_BIN_EXE_taskprof-cli");

/// How long any one wait may take before the test fails.
const DEADLINE: Duration = Duration::from_secs(120);

/// A spawned process, killed and reaped on drop.
struct Proc {
    child: Child,
    what: String,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "taskprof-cli-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Poll `done` until it yields a value, failing the test at the deadline.
fn wait_for<T>(what: &str, mut done: impl FnMut() -> Option<T>) -> T {
    let start = Instant::now();
    loop {
        if let Some(v) = done() {
            return v;
        }
        assert!(start.elapsed() < DEADLINE, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Start the CLI with `args`, its stdout going to `stdout` (or nowhere).
fn spawn(args: &[&str], stdout: Option<&Path>) -> Proc {
    let out = match stdout {
        Some(path) => Stdio::from(std::fs::File::create(path).expect("create stdout file")),
        None => Stdio::null(),
    };
    let child = Command::new(CLI)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn taskprof-cli");
    Proc {
        child,
        what: args.join(" "),
    }
}

/// A finished CLI run.
struct Run {
    status: ExitStatus,
    stdout: String,
    stderr: String,
}

/// Run the CLI with `args` to completion (within the deadline).
fn run(args: &[&str]) -> Run {
    let scratch = Scratch::new("run");
    let (out, err) = (scratch.path("stdout"), scratch.path("stderr"));
    let child = Command::new(CLI)
        .args(args)
        .stdin(Stdio::null())
        .stdout(std::fs::File::create(&out).expect("create stdout file"))
        .stderr(std::fs::File::create(&err).expect("create stderr file"))
        .spawn()
        .expect("spawn taskprof-cli");
    let mut proc = Proc {
        child,
        what: args.join(" "),
    };
    let what = format!("`taskprof-cli {}` to exit", proc.what);
    let status = wait_for(&what, || proc.child.try_wait().expect("poll child"));
    Run {
        status,
        stdout: std::fs::read_to_string(&out).expect("read stdout"),
        stderr: std::fs::read_to_string(&err).expect("read stderr"),
    }
}

/// [`run`], failing the test unless the CLI exits 0.
fn ok(args: &[&str]) -> String {
    let run = run(args);
    assert!(
        run.status.success(),
        "`taskprof-cli {}` exited {}\nstdout:\n{}\nstderr:\n{}",
        args.join(" "),
        run.status,
        run.stdout,
        run.stderr
    );
    run.stdout
}

/// A `serve` daemon on an ephemeral port, killed when dropped.
struct Daemon {
    _proc: Proc,
    addr: String,
}

/// Serve the store in `dir` with `extra` options; returns once the
/// daemon has published its port.
fn serve(scratch: &Scratch, name: &str, extra: &[&str]) -> Daemon {
    let dir = scratch.path(name);
    let port_file = scratch.path(&format!("{name}.port"));
    let mut args = vec![
        "serve",
        "--dir",
        dir.to_str().expect("utf-8 path"),
        "--addr",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().expect("utf-8 path"),
    ];
    args.extend_from_slice(extra);
    let mut proc = spawn(&args, None);
    let port = wait_for("the daemon to publish its port", || {
        if let Some(status) = proc.child.try_wait().expect("poll daemon") {
            panic!("`taskprof-cli {}` exited {status}", proc.what);
        }
        let text = std::fs::read_to_string(&port_file).ok()?;
        text.trim().parse::<u16>().ok()
    });
    Daemon {
        _proc: proc,
        addr: format!("127.0.0.1:{port}"),
    }
}

/// Spool frame files in `dir`.
fn spooled(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".frame"))
        .collect();
    names.sort();
    names
}

#[test]
fn run_with_trace_prints_the_trace_analysis() {
    let out = ok(&["run", "fib", "--scale", "test", "--threads", "2", "--trace"]);
    assert!(out.contains("trace analysis ("), "{out}");
    assert!(out.contains("management/work ratio"), "{out}");
}

#[test]
fn explore_finds_no_invariant_violation() {
    let out = ok(&[
        "explore",
        "--seeds",
        "4",
        "--threads",
        "2",
        "--workload",
        "all",
        "--dfs",
        "100",
    ]);
    assert!(
        out.contains("all explored schedules satisfy the profile invariants"),
        "{out}"
    );
}

#[test]
fn whatif_replay_reproduces_its_prediction_and_critpath_reports_parallelism() {
    let whatif = &[
        "whatif",
        "--workload",
        "div",
        "--seed",
        "11",
        "--threads",
        "2",
        "--region",
        "sim-div-3!task",
        "--speedup",
        "3",
        "--validate",
    ];
    let out = ok(whatif);
    assert!(out.contains("predicted makespan"), "{out}");
    assert!(
        out.contains("replay reproduced the prediction exactly"),
        "{out}"
    );
    let out = ok(&[
        "critpath",
        "--workload",
        "div",
        "--seed",
        "11",
        "--threads",
        "2",
    ]);
    assert!(out.contains("parallelism"), "{out}");
}

#[test]
fn both_protocols_ingest_into_one_log_and_a_rerun_does_not_regress() {
    let scratch = Scratch::new("repo");
    let daemon = serve(&scratch, "store", &[]);
    let addr = daemon.addr.as_str();
    let ingest = |seed: &str, runs: &str, proto: &str| {
        ok(&[
            "ingest",
            "--addr",
            addr,
            "--app",
            "fib",
            "--seed",
            seed,
            "--runs",
            runs,
            "--threads",
            "2",
            "--proto",
            proto,
        ])
    };
    ingest("41", "2", "bin");
    ingest("43", "1", "json");
    let top = ok(&[
        "query",
        "top",
        "--addr",
        addr,
        "--bench",
        "fib",
        "--threads",
        "2",
        "--proto",
        "bin",
    ]);
    assert!(top.contains("\"runs\":3"), "expected 3 runs: {top}");
    // A candidate re-measured from the same seed does not regress against
    // its own baseline (exit 3 would flag a regression).
    ok(&[
        "query",
        "regress",
        "--addr",
        addr,
        "--bench",
        "fib",
        "--threads",
        "2",
        "--app",
        "fib",
        "--seed",
        "41",
    ]);
}

/// `profserve_subscriptions_total` in the daemon's Prometheus scrape.
fn subscriptions(addr: &str) -> u64 {
    ok(&["query", "stats", "--prometheus", "--addr", addr])
        .lines()
        .find_map(|l| l.strip_prefix("profserve_subscriptions_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn watchers_on_both_protocols_see_an_ingest_and_telemetry() {
    let scratch = Scratch::new("watch");
    let daemon = serve(&scratch, "store", &[]);
    let addr = daemon.addr.as_str();
    let outs = [scratch.path("watch.json"), scratch.path("watch.bin")];
    // The watchers run until killed: a fixed number of frames could end
    // before the ingest lands on a loaded host. Their stdout is
    // line-buffered, so the files can be polled.
    let watchers: Vec<Proc> = ["json", "bin"]
        .iter()
        .zip(&outs)
        .map(|(proto, out)| {
            let args = [
                "watch",
                "--addr",
                addr,
                "--proto",
                proto,
                "--interval-ms",
                "200",
                "--format",
                "jsonl",
            ];
            spawn(&args, Some(out))
        })
        .collect();
    // Hold the upload until both subscribers are attached, so the
    // fan-out provably reaches them.
    wait_for("both watchers to subscribe", || {
        (subscriptions(addr) >= 2).then_some(())
    });
    ok(&[
        "ingest",
        "--addr",
        addr,
        "--app",
        "fib",
        "--seed",
        "45",
        "--runs",
        "1",
        "--threads",
        "2",
        "--proto",
        "bin",
    ]);
    for out in &outs {
        for event in ["ingest", "telemetry"] {
            let needle = format!("\"event\":\"{event}\"");
            wait_for(
                &format!("{} to show a {event} event", out.display()),
                || {
                    let text = std::fs::read_to_string(out).unwrap_or_default();
                    text.contains(&needle).then_some(())
                },
            );
        }
    }
    drop(watchers);
    // The scrape exposes the request-latency histograms and store gauges.
    let prom = ok(&["query", "stats", "--prometheus", "--addr", addr]);
    assert!(
        prom.lines()
            .any(|l| l.starts_with("profserve_request_latency_ns_bucket")),
        "no latency histogram in the scrape:\n{prom}"
    );
    assert!(
        prom.lines().any(|l| l.starts_with("profserve_store_runs")),
        "no store gauges in the scrape:\n{prom}"
    );
}

#[test]
fn ingest_spools_while_the_daemon_is_down_and_drains_exactly_once() {
    let scratch = Scratch::new("spool");
    let daemon = serve(&scratch, "store", &[]);
    let addr = daemon.addr.as_str();
    let spool = scratch.path("spool");
    let spool_arg = spool.to_str().expect("utf-8 path");
    let ingest = |to: &str, seed: &str| {
        ok(&[
            "ingest",
            "--addr",
            to,
            "--app",
            "fib",
            "--seed",
            seed,
            "--runs",
            "1",
            "--threads",
            "2",
            "--spool",
            spool_arg,
            "--deadline-ms",
            "500",
        ])
    };
    let runs = || {
        ok(&[
            "query",
            "top",
            "--addr",
            addr,
            "--bench",
            "fib",
            "--threads",
            "2",
        ])
    };
    // Nothing listens on port 1: the run lands in the spool, stamped from
    // its seed like a delivered one.
    let dead = "127.0.0.1:1";
    let out = ingest(dead, "77");
    assert!(out.contains("spooled fib"), "{out}");
    assert_eq!(spooled(&spool).len(), 1);
    assert!(
        spooled(&spool)[0].starts_with("spool-00000000000000077000-"),
        "{:?}",
        spooled(&spool)
    );
    // A delivery that succeeds drains what earlier ones spooled.
    let out = ingest(addr, "78");
    assert!(out.contains("ingested fib as run 1"), "{out}");
    assert!(out.contains("drained 1 spooled frame(s)"), "{out}");
    assert!(spooled(&spool).is_empty());
    assert!(runs().contains("\"runs\":2"));
    // So does `drain`, exactly once: an empty spool is a no-op success.
    ingest(dead, "79");
    assert_eq!(spooled(&spool).len(), 1);
    let out = ok(&["drain", "--addr", addr, "--spool", spool_arg]);
    assert!(out.contains("drained 1 frame(s)"), "{out}");
    assert!(spooled(&spool).is_empty());
    let out = ok(&["drain", "--addr", addr, "--spool", spool_arg]);
    assert!(out.contains("drained 0 frame(s)"), "{out}");
    assert!(runs().contains("\"runs\":3"));
}

#[test]
fn a_batch_spools_whole_after_one_campaign_against_a_daemon_that_is_down() {
    let scratch = Scratch::new("spool-batch");
    let spool = scratch.path("spool");
    let spool_arg = spool.to_str().expect("utf-8 path");
    let profile = scratch.path("one.profile");
    std::fs::write(
        &profile,
        "taskprof-profile v1\nthreads 1\nthread 0 max_live 0 arena 1\nmain\n  \
         region parallel \"batch par\" visits 1 sum 5 min 5 max 5 samples 1\nend\n",
    )
    .expect("write profile");
    let file = profile.to_str().expect("utf-8 path");
    let ingest = |to: &str| {
        let start = Instant::now();
        let out = ok(&[
            "ingest",
            "--addr",
            to,
            "--bench",
            "batch",
            "--file",
            file,
            "--file",
            file,
            "--file",
            file,
            "--spool",
            spool_arg,
            "--deadline-ms",
            "1500",
        ]);
        (out, start.elapsed())
    };
    // Nothing listens on port 1: every item lands in the spool.
    let (out, _) = ingest("127.0.0.1:1");
    assert_eq!(out.matches("spooled batch").count(), 3, "{out}");
    assert_eq!(spooled(&spool).len(), 3);
    // A listener that never accepts holds each attempt until its timeout,
    // so one delivery campaign lasts about the 1.5 s deadline (2 s
    // measured). The first item's campaign spools it; the other two go
    // straight to the spool instead of waiting out two more campaigns.
    let stalled = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = stalled.local_addr().expect("local addr").to_string();
    let (out, took) = ingest(&addr);
    assert_eq!(out.matches("spooled batch").count(), 3, "{out}");
    assert_eq!(spooled(&spool).len(), 6);
    assert!(took < Duration::from_secs(4), "took {took:?}");
}

#[test]
fn a_sharded_follower_replicates_byte_identically_and_exactly_once() {
    let scratch = Scratch::new("replica");
    let auth = ["--auth", "hunter2"];
    let leader = serve(&scratch, "leader", &auth);
    let follower = serve(
        &scratch,
        "follower",
        &["--auth", "hunter2", "--shards", "2", "--keep-last", "100"],
    );
    let (lead, folw) = (leader.addr.as_str(), follower.addr.as_str());
    // The wrong secret is refused before any data moves.
    let refused = run(&["query", "stats", "--addr", lead, "--auth", "wrong"]);
    assert!(!refused.status.success(), "wrong secret accepted");
    ok(&[
        "ingest",
        "--addr",
        lead,
        "--app",
        "fib",
        "--seed",
        "61",
        "--runs",
        "3",
        "--threads",
        "2",
        "--proto",
        "bin",
        "--auth",
        "hunter2",
    ]);
    ok(&[
        "replicate",
        "--from",
        lead,
        "--to",
        folw,
        "--auth",
        "hunter2",
        "--batch",
        "2",
    ]);
    let top = |addr: &str| {
        ok(&[
            "query",
            "top",
            "--addr",
            addr,
            "--bench",
            "fib",
            "--threads",
            "2",
            "--auth",
            "hunter2",
        ])
    };
    let (lead_top, folw_top) = (top(lead), top(folw));
    assert_eq!(lead_top, folw_top, "the replica's answer diverges");
    assert!(folw_top.contains("\"runs\":3"), "{folw_top}");
    let again = ok(&[
        "replicate",
        "--from",
        lead,
        "--to",
        folw,
        "--auth",
        "hunter2",
    ]);
    assert!(again.contains(" 0 frame(s) applied"), "{again}");
}
