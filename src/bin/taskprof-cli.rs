//! `taskprof-cli` — command-line front end for the suite.
//!
//! ```text
//! taskprof-cli run <app> [--threads N] [--scale test|small|medium]
//!                        [--cutoff] [--depth-param]
//!                        [--render] [--csv] [--diagnose] [--trace]
//!                        [--save FILE]
//! taskprof-cli telemetry <app> [--threads N] [--scale test|small|medium]
//!                              [--cutoff] [--interval-ms N]
//!                              [--format dashboard|prometheus|jsonl]
//! taskprof-cli explore [--seeds N] [--threads N]
//!                      [--workload fib|flat|mixed|all] [--dfs BUDGET]
//! taskprof-cli diff <a.profile> <b.profile>
//! taskprof-cli list
//! taskprof-cli serve --dir DIR [--addr HOST:PORT] [--max-conns N]
//!                    [--port-file FILE] [--proto json|bin|auto]
//!                    [--shards N] [--auth SECRET]
//!                    [--keep-last N] [--retain-since NS]
//!                    [--telemetry-jsonl FILE] [--telemetry-interval-ms N]
//! taskprof-cli ingest --addr HOST:PORT (--file F --bench NAME | --app fib|nqueens
//!                     [--seed S] [--runs K]) [--threads N]
//!                     [--spool DIR] [--deadline-ms N] [--proto json|bin|auto]
//!                     [--auth SECRET]
//! taskprof-cli drain --addr HOST:PORT --spool DIR [--deadline-ms N]
//!                    [--proto json|bin|auto] [--auth SECRET]
//! taskprof-cli query top|stats|regress|trend --addr HOST:PORT --bench NAME
//!                   [--threads N] [--n N] [--file F] [--threshold T]
//!                   [--last N] [--since-ns T] [--buckets N]
//!                   [--prometheus] [--proto json|bin|auto] [--auth SECRET]
//! taskprof-cli watch --addr HOST:PORT [--interval-ms N] [--frames N]
//!                    [--format dashboard|jsonl] [--proto json|bin|auto]
//!                    [--auth SECRET]
//! taskprof-cli replicate --from HOST:PORT --to HOST:PORT [--batch N]
//!                        [--proto json|bin|auto] [--auth SECRET]
//! taskprof-cli critpath (--app fib|nqueens | --workload fib|flat|mixed|div)
//!                       [--seed S] [--threads N]
//! taskprof-cli whatif --region NAME --speedup K
//!                     (--app fib|nqueens | --workload fib|flat|mixed|div)
//!                     [--seed S] [--threads N] [--validate]
//! ```
//!
//! `run` executes one BOTS code under the profiler (which `--trace` has
//! record its edge log too) and reports; `telemetry` runs a code with live
//! telemetry enabled, sampling the lock-free gauges while it executes; `explore`
//! runs the deterministic schedule explorer (`simsched`) over seeded
//! simulated schedules and fails on any profile-invariant violation;
//! `diff` compares two saved profiles; `list` shows the available codes.
//!
//! Causal analysis: `critpath` runs a deterministic seeded source with
//! task create/join edge recording enabled and prints the work/span
//! report — total work, critical-path length, parallelism, per-region
//! rows, and detrimental-pattern warnings. `whatif` predicts the
//! program makespan with one region `--speedup K`× faster by re-solving
//! the recorded DAG with scaled weights; with `--workload` sources,
//! `--validate` re-runs the *actually sped-up* graph under the same seed
//! and exits 1 unless the measured makespan equals the prediction
//! exactly.
//!
//! The profile-repository commands: `serve` runs the `profserve` daemon
//! over a `profstore` directory (`--addr 127.0.0.1:0` binds an ephemeral
//! port, `--port-file` writes the bound port for scripting); `ingest`
//! uploads saved profiles or deterministic seeded runs of the simulated
//! BOTS codes; `query` prints the server's response line verbatim —
//! `regress` additionally exits 3 when the candidate regressed, so CI can
//! gate on the exit code.
//!
//! All repository commands take `--proto json|bin|auto` (default `auto`):
//! `serve` restricts which wire protocols the daemon accepts, while the
//! client commands pick the protocol they speak — `auto` attempts the
//! compact TPF1 binary framing and falls back to JSON lines when the
//! server refuses the handshake.
//!
//! Observability: every repository query takes a run *window* — `--last
//! N` restricts the aggregate to the N most recent runs, `--since-ns T`
//! to runs stamped at or after `T` (combine both to intersect); `query
//! trend` slices the windowed runs into `--buckets` per-window aggregates
//! for sparkline dashboards. `query stats --prometheus` (no `--bench`)
//! prints the daemon's full scrape document, including its per-verb
//! request-latency histograms. `watch` attaches a live subscription and
//! renders pushed telemetry snapshots and ingest notifications —
//! `--format jsonl` emits the raw event lines for scripts, `--frames N`
//! exits after N telemetry snapshots. `serve --telemetry-jsonl FILE`
//! appends the daemon's request-latency histograms to FILE as JSONL
//! records (one per `--telemetry-interval-ms`), the same sink format as
//! `telemetry --format jsonl`.
//!
//! Resilience: `ingest --spool DIR` degrades gracefully when the daemon
//! is unreachable — instead of failing, profiles land in `DIR` as
//! CRC-framed spool files (`--deadline-ms` bounds how long delivery may
//! try first). `drain` re-delivers a spool directory to a (recovered)
//! daemon, deleting each frame only after the server acks it and
//! starting no batch once `--deadline-ms` (default 2000) has passed, and
//! exits 1 while frames remain spooled so scripts can retry.
//!
//! Sharding & replication: `serve --shards N` opens the directory as N
//! routed sub-stores (runs land by benchmark, queries fan in across
//! shards); an existing sharded directory is detected and reopened with
//! its on-disk count. `serve --keep-last N` / `--retain-since NS` set a
//! retention policy the daemon enforces on its compaction cadence,
//! rewriting segments to reclaim disk. `serve --auth SECRET` requires
//! every connection to present the shared secret in `HELLO`;
//! the client commands pass the same secret with `--auth`. `replicate`
//! pumps every run a follower daemon is missing out of a leader —
//! resumable from the follower's own cursor, exactly-once under retries.
//!
//! `explore --seeds` sweeps 64 seeds per workload unless told otherwise.

use bots::{run_app, AppId, RunOpts, Scale, Variant, ALL_APPS};
use cube::{
    diagnose, diff_profiles, format_ns, read_profile, render_loads, render_profile,
    render_telemetry, thread_loads, to_csv, to_dot, write_profile, write_profile_to, AggProfile,
    DiagnoseConfig, RenderOpts,
};
use std::sync::Arc;
use taskprof_session::MeasurementSession;
use taskrt::Team;

fn usage() -> ! {
    eprintln!(
        "usage:\n  taskprof-cli run <app> [--threads N] [--scale test|small|medium] \
         [--cutoff] [--depth-param] [--render] [--csv] [--dot] [--diagnose] [--imbalance] [--trace] [--save FILE]\n  \
         taskprof-cli telemetry <app> [--threads N] [--scale test|small|medium] [--cutoff] \
         [--interval-ms N] [--format dashboard|prometheus|jsonl]\n  \
         taskprof-cli explore [--seeds N] [--threads N] [--workload fib|flat|mixed|all] [--dfs BUDGET]\n  \
         taskprof-cli diff <a.profile> <b.profile>\n  taskprof-cli list\n  \
         taskprof-cli serve --dir DIR [--addr HOST:PORT] [--max-conns N] [--port-file FILE] [--proto json|bin|auto] [--shards N] [--auth SECRET] [--keep-last N] [--retain-since NS] [--telemetry-jsonl FILE] [--telemetry-interval-ms N]\n  \
         taskprof-cli ingest --addr HOST:PORT (--file F --bench NAME | --app fib|nqueens [--seed S] [--runs K]) [--threads N] [--spool DIR] [--deadline-ms N] [--proto json|bin|auto] [--auth SECRET]\n  \
         taskprof-cli drain --addr HOST:PORT --spool DIR [--deadline-ms N] [--proto json|bin|auto] [--auth SECRET]\n  \
         taskprof-cli query top|stats|regress|trend --addr HOST:PORT --bench NAME [--threads N] [--n N] [--file F] [--threshold T] [--last N] [--since-ns T] [--buckets N] [--prometheus] [--proto json|bin|auto] [--auth SECRET]\n  \
         taskprof-cli watch --addr HOST:PORT [--interval-ms N] [--frames N] [--format dashboard|jsonl] [--proto json|bin|auto] [--auth SECRET]\n  \
         taskprof-cli replicate --from HOST:PORT --to HOST:PORT [--batch N] [--proto json|bin|auto] [--auth SECRET]\n  \
         taskprof-cli critpath (--app fib|nqueens | --workload fib|flat|mixed|div) [--seed S] [--threads N]\n  \
         taskprof-cli whatif --region NAME --speedup K (--app fib|nqueens | --workload fib|flat|mixed|div) [--seed S] [--threads N] [--validate]"
    );
    std::process::exit(2);
}

/// The value after a flag, parsed; usage on a missing or unparsable one.
fn value<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

/// The value of `--scale`.
fn scale(it: &mut std::slice::Iter<'_, String>) -> Scale {
    match value::<String>(it).as_str() {
        "test" => Scale::Test,
        "small" => Scale::Small,
        "medium" => Scale::Medium,
        _ => usage(),
    }
}

fn app_by_name(name: &str) -> Option<AppId> {
    ALL_APPS.into_iter().find(|a| a.name() == name)
}

fn cmd_list() {
    println!("available BOTS codes:");
    for app in ALL_APPS {
        println!(
            "  {:<10} task construct: {:<20} cut-off version: {}",
            app.name(),
            app.task_region_name(),
            if app.has_cutoff() { "yes" } else { "no" }
        );
    }
}

#[allow(clippy::too_many_lines)]
fn cmd_run(args: &[String]) {
    let Some(app) = args.first().and_then(|n| app_by_name(n)) else {
        eprintln!("unknown app; try 'taskprof-cli list'");
        std::process::exit(2);
    };
    let mut opts = RunOpts::new(2);
    let (mut render, mut csv, mut diag, mut trace_on) = (false, false, false, false);
    let mut imbalance = false;
    let mut dot = false;
    let mut save: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => opts.threads = value(&mut it),
            "--scale" => opts.scale = scale(&mut it),
            "--cutoff" => opts.variant = Variant::Cutoff,
            "--depth-param" => opts.depth_param = true,
            "--render" => render = true,
            "--csv" => csv = true,
            "--dot" => dot = true,
            "--diagnose" => diag = true,
            "--imbalance" => imbalance = true,
            "--trace" => trace_on = true,
            "--save" => save = Some(value(&mut it)),
            _ => usage(),
        }
    }
    if !(render || csv || dot || diag || trace_on || imbalance || save.is_some()) {
        render = true;
        diag = true;
    }

    let mut builder = MeasurementSession::builder("taskprof-cli").threads(opts.threads);
    if trace_on {
        builder = builder.record_task_edges();
    }
    let session = builder
        .build()
        .expect("default session configuration is valid");
    let out = run_app(app, session.monitor(), &opts);
    println!(
        "# {} scale={:?} threads={} variant={:?}: kernel {:?}, checksum {}, verified {}",
        app.name(),
        opts.scale,
        opts.threads,
        opts.variant,
        out.kernel,
        out.checksum,
        out.verified
    );
    let edge_log = trace_on.then(|| session.profiler().take_edge_log().expect("run finished"));
    let profile = session.finish().profile;
    let agg = AggProfile::from_profile(&profile);

    if render {
        println!("{}", render_profile(&agg, &RenderOpts::default()));
    }
    if csv {
        print!("{}", to_csv(&agg));
    }
    if dot {
        print!("{}", to_dot(&agg));
    }
    if imbalance {
        println!("per-thread load:");
        print!("{}", render_loads(&thread_loads(&profile)));
        println!();
    }
    if diag {
        let findings = diagnose(&profile, &DiagnoseConfig::default());
        if findings.is_empty() {
            println!("diagnosis: no task performance issues detected");
        } else {
            println!("diagnosis ({} findings):", findings.len());
            for f in findings {
                println!(
                    "  [{:>4.0}%] {:?}: {}",
                    f.severity * 100.0,
                    f.kind,
                    f.message
                );
            }
        }
    }
    if let Some(edge_log) = edge_log {
        let a = critpath::analyze_trace(&edge_log).unwrap_or_else(|e| {
            eprintln!("trace analysis: {e}");
            std::process::exit(1);
        });
        let streams = edge_log.iter().flat_map(|r| &r.streams);
        let events = streams.flat_map(|(_, stream)| stream.events());
        let events = events
            .filter(|e| !matches!(e, taskprof::Event::Advance(_)))
            .count();
        println!("\ntrace analysis ({events} events):");
        println!(
            "  task execution {}   creation {}   sched-point non-exec {}",
            format_ns(a.total_task_exec_ns),
            format_ns(a.total_creation_ns),
            format_ns(a.total_sched_nonexec_ns)
        );
        println!(
            "  task switches {}   management/work ratio {:.3}",
            a.switches, a.management_to_work_ratio
        );
        for b in &a.by_kind {
            println!(
                "  {:<9} intervals {:>6}  dwell {:>10}  exec {:>10}  pre-switch {:>10}",
                b.kind.label(),
                b.intervals,
                format_ns(b.dwell_ns),
                format_ns(b.task_exec_ns),
                format_ns(b.pre_switch_ns)
            );
        }
    }
    if let Some(path) = save {
        if let Err(e) = write_profile_to(std::path::Path::new(&path), &profile) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("profile saved to {path}");
    }
}

fn cmd_telemetry(args: &[String]) {
    let Some(app) = args.first().and_then(|n| app_by_name(n)) else {
        eprintln!("unknown app; try 'taskprof-cli list'");
        std::process::exit(2);
    };
    let mut opts = RunOpts::new(2);
    let mut interval_ms: u64 = 50;
    #[derive(PartialEq)]
    enum Format {
        Dashboard,
        Prometheus,
        Jsonl,
    }
    let mut format = Format::Dashboard;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => opts.threads = value(&mut it),
            "--scale" => opts.scale = scale(&mut it),
            "--cutoff" => opts.variant = Variant::Cutoff,
            "--interval-ms" => interval_ms = value(&mut it),
            "--format" => {
                format = match value::<String>(&mut it).as_str() {
                    "dashboard" => Format::Dashboard,
                    "prometheus" => Format::Prometheus,
                    "jsonl" => Format::Jsonl,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }

    let session = MeasurementSession::builder("taskprof-cli-telemetry")
        .threads(opts.threads)
        .telemetry()
        .build()
        .expect("default session configuration is valid");
    let telemetry = session
        .telemetry()
        .expect("telemetry was enabled on the builder");
    let sampler = telemetry.start_sampler(std::time::Duration::from_millis(interval_ms.max(1)));
    let out = run_app(app, session.monitor(), &opts);
    let series = sampler.stop();
    let elapsed = telemetry.elapsed_ns();
    eprintln!(
        "# {} scale={:?} threads={} kernel {:?} verified {} ({} samples at {interval_ms}ms)",
        app.name(),
        opts.scale,
        opts.threads,
        out.kernel,
        out.verified,
        series.len()
    );
    let report = session.finish();
    let final_snapshot = report
        .telemetry
        .expect("telemetry-enabled session reports a final snapshot");
    match format {
        Format::Dashboard => {
            print!("{}", render_telemetry(&final_snapshot, Some(elapsed)));
        }
        Format::Prometheus => {
            print!("{}", taskprof_telemetry::to_prometheus(&final_snapshot));
        }
        Format::Jsonl => {
            for point in &series {
                println!(
                    "{}",
                    taskprof_telemetry::to_jsonl_line(point.elapsed_ns, &point.snapshot)
                );
            }
            println!(
                "{}",
                taskprof_telemetry::to_jsonl_line(elapsed, &final_snapshot)
            );
        }
    }
}

fn cmd_explore(args: &[String]) {
    let mut seeds: u64 = 64;
    let mut threads: usize = 2;
    let mut which = String::from("all");
    let mut dfs_budget: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => seeds = value(&mut it),
            "--threads" => threads = value(&mut it),
            "--workload" => which = value(&mut it),
            "--dfs" => dfs_budget = Some(value(&mut it)),
            _ => usage(),
        }
    }
    let workloads: Vec<simsched::TreeWorkload> = match which.as_str() {
        "fib" => vec![simsched::workloads::fib_like(3)],
        "flat" => vec![simsched::workloads::flat(6)],
        "mixed" => vec![simsched::workloads::mixed()],
        "all" => vec![
            simsched::workloads::fib_like(3),
            simsched::workloads::flat(6),
            simsched::workloads::mixed(),
        ],
        _ => usage(),
    };
    let mut failed = false;
    for w in &workloads {
        let report = simsched::explore_seeds(w, threads, 0..seeds);
        println!(
            "# {:<12} threads={threads} seeds={seeds}: {} runs, {} distinct schedules, {} violations",
            w.name(),
            report.runs,
            report.distinct_schedules,
            report.violations.len()
        );
        for v in &report.violations {
            println!("  violation: {v}");
            failed = true;
        }
        if let Some(budget) = dfs_budget {
            let (dfs, exhausted) = simsched::explore_dfs(w, threads, budget);
            println!(
                "# {:<12} dfs budget={budget}: {} schedules explored ({}), {} violations",
                w.name(),
                dfs.runs,
                if exhausted { "exhaustive" } else { "truncated" },
                dfs.violations.len()
            );
            for v in &dfs.violations {
                println!("  violation: {v}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("schedule exploration found invariant violations");
        std::process::exit(1);
    }
    println!("all explored schedules satisfy the profile invariants");
}

fn cmd_diff(args: &[String]) {
    let [a_path, b_path] = args else { usage() };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(1);
        });
        read_profile(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {p}: {e}");
            std::process::exit(1);
        })
    };
    let a = AggProfile::from_profile(&load(a_path));
    let b = AggProfile::from_profile(&load(b_path));
    println!("{:>12} {:>12} {:>8}  path", "A incl", "B incl", "ratio");
    for row in diff_profiles(&a, &b).into_iter().take(25) {
        println!(
            "{:>12} {:>12} {:>8}  {}",
            format_ns(row.a_incl_ns),
            format_ns(row.b_incl_ns),
            row.ratio()
                .map(|r| format!("{r:.2}x"))
                .unwrap_or_else(|| "new".into()),
            row.path
        );
    }
}

fn cmd_serve(args: &[String]) {
    let mut dir: Option<String> = None;
    let mut addr = String::from("127.0.0.1:7979");
    let mut max_conns: usize = 64;
    let mut port_file: Option<String> = None;
    let mut proto = profserve::WireProtocol::Auto;
    let mut shards: Option<u32> = None;
    let mut auth: Option<String> = None;
    let mut keep_last: Option<u64> = None;
    let mut retain_since: Option<u64> = None;
    let mut telemetry_jsonl: Option<String> = None;
    let mut telemetry_interval_ms: u64 = 1_000;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => dir = Some(value(&mut it)),
            "--addr" => addr = value(&mut it),
            "--max-conns" => max_conns = value(&mut it),
            "--port-file" => port_file = Some(value(&mut it)),
            "--proto" => proto = value(&mut it),
            "--shards" => shards = Some(value(&mut it)),
            "--auth" => auth = Some(value(&mut it)),
            "--keep-last" => keep_last = Some(value(&mut it)),
            "--retain-since" => retain_since = Some(value(&mut it)),
            "--telemetry-jsonl" => telemetry_jsonl = Some(value(&mut it)),
            "--telemetry-interval-ms" => telemetry_interval_ms = value(&mut it),
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };
    let dir_path = std::path::Path::new(&dir);
    // A directory that is already sharded reopens with its on-disk
    // count; --shards N > 1 shards a fresh directory. A mismatch
    // between the flag and an existing SHARDS file is refused by the
    // store (no silent re-routing of existing runs).
    let on_disk_shards: Option<u32> = std::fs::read_to_string(dir_path.join("SHARDS"))
        .ok()
        .and_then(|s| s.trim().parse().ok());
    let shard_count = shards.or(on_disk_shards).unwrap_or(1);
    let repo: profstore::Repo = if shard_count > 1 {
        profstore::ShardedStore::open(dir_path, shard_count)
            .unwrap_or_else(|e| {
                eprintln!("cannot open sharded store {dir}: {e}");
                std::process::exit(1);
            })
            .into()
    } else {
        profstore::ProfileStore::open(dir_path)
            .unwrap_or_else(|e| {
                eprintln!("cannot open store {dir}: {e}");
                std::process::exit(1);
            })
            .into()
    };
    let stats = repo.stats();
    let retention = if keep_last.is_some() || retain_since.is_some() {
        Some(profstore::RetentionPolicy {
            keep_last,
            min_timestamp_ns: retain_since,
        })
    } else {
        None
    };
    let config = profserve::ServeConfig {
        max_connections: max_conns,
        protocols: proto,
        auth_secret: auth,
        retention,
        ..profserve::ServeConfig::default()
    };
    let server = profserve::Server::bind(&addr, repo, config).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let bound = server.local_addr().expect("bound address");
    if let Some(pf) = port_file {
        // Written atomically so a polling script never reads a half
        // written port number.
        let tmp = format!("{pf}.tmp-{}", std::process::id());
        if std::fs::write(&tmp, format!("{}\n", bound.port()))
            .and_then(|()| std::fs::rename(&tmp, &pf))
            .is_err()
        {
            eprintln!("cannot write port file {pf}");
            std::process::exit(1);
        }
    }
    // Daemon-side JSONL telemetry: a sampler thread appends the
    // request-latency histograms to the configured sink at a fixed
    // cadence, in the same format family as `telemetry --format jsonl`.
    if let Some(path) = telemetry_jsonl {
        let handle = server.handle().expect("server handle");
        let every = std::time::Duration::from_millis(telemetry_interval_ms.max(50));
        std::thread::spawn(move || {
            use std::io::Write as _;
            let mut file = match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open telemetry sink {path}: {e}");
                    return;
                }
            };
            while !handle.stopped() {
                std::thread::sleep(every);
                let t_ns = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0);
                if writeln!(file, "{}", handle.latency_jsonl_line(t_ns)).is_err() {
                    return;
                }
            }
        });
    }
    eprintln!(
        "# profserve listening on {bound} (protocols {proto}), store {dir} ({} runs in {} segments, {} shard(s))",
        stats.runs, stats.segments, shard_count
    );
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
}

/// One deterministic seeded run of a simulated BOTS code, profiled under
/// the seeded `simsched` scheduler and its virtual clocks: the same
/// (app, seed, threads) always yields a byte-identical profile.
fn deterministic_profile(app: &str, seed: u64, threads: usize) -> taskprof::Profile {
    let sched = Arc::new(simsched::SimScheduler::new(seed));
    let clock = sched.clock().clone();
    let team = Team::new(threads).with_policy(sched);
    let monitor = taskprof::ProfMonitor::builder()
        .clock(clock)
        .build()
        .expect("profiler config is valid");
    let opts = RunOpts::new(threads);
    match app {
        "fib" => {
            bots::fib::run_with_team(&monitor, &team, &opts);
        }
        "nqueens" => {
            bots::nqueens::run_with_team(&monitor, &team, &opts);
        }
        _ => {
            eprintln!("--app must be fib or nqueens (simulated deterministic codes)");
            std::process::exit(2);
        }
    }
    monitor.take_profile().expect("region finished")
}

/// How a `critpath`/`whatif` invocation obtains its task DAG: either a
/// deterministic seeded run of a simulated BOTS code (`--app`) or a
/// synthetic `simsched` workload (`--workload`).
struct DagSource {
    app: Option<String>,
    workload: Option<String>,
    seed: u64,
    threads: usize,
}

impl DagSource {
    fn parse(a: &str, it: &mut std::slice::Iter<'_, String>, src: &mut DagSource) -> bool {
        match a {
            "--app" => src.app = Some(value(it)),
            "--workload" => src.workload = Some(value(it)),
            "--seed" => src.seed = value(it),
            "--threads" => src.threads = value(it),
            _ => return false,
        }
        true
    }

    fn workload_by_name(name: &str) -> simsched::TreeWorkload {
        match name {
            "fib" => simsched::workloads::fib_like(3),
            "flat" => simsched::workloads::flat(6),
            "mixed" => simsched::workloads::mixed(),
            "div" => simsched::workloads::divisible(3),
            _ => usage(),
        }
    }

    /// Run the selected source and assemble its critical-path DAG.
    fn build_dag(&self) -> critpath::TaskDag {
        match (&self.app, &self.workload) {
            (Some(app), None) => deterministic_dag(app, self.seed, self.threads),
            (None, Some(w)) => {
                let workload = Self::workload_by_name(w);
                let cfg = simsched::SimConfig::seeded(self.threads, self.seed);
                let run = simsched::run_workload(&workload, &cfg);
                simsched::whatif::analyze(&run, &workload)
                    .unwrap_or_else(|e| die_dag(workload.name(), &e))
            }
            _ => {
                eprintln!(
                    "exactly one of --app fib|nqueens or --workload fib|flat|mixed|div is required"
                );
                std::process::exit(2);
            }
        }
    }
}

fn die_dag(what: &str, e: &critpath::DagError) -> ! {
    eprintln!("cannot assemble task DAG for {what}: {e}");
    std::process::exit(1);
}

/// Like [`deterministic_profile`], but with task create/join edge
/// recording enabled; returns the assembled critical-path DAG instead of
/// the call-path profile.
fn deterministic_dag(app: &str, seed: u64, threads: usize) -> critpath::TaskDag {
    let sched = Arc::new(simsched::SimScheduler::new(seed));
    let clock = sched.clock().clone();
    let team = Team::new(threads).with_policy(sched);
    let monitor = taskprof::ProfMonitor::builder()
        .clock(clock)
        .record_task_edges()
        .build()
        .expect("profiler config is valid");
    let opts = RunOpts::new(threads);
    let par = match app {
        "fib" => {
            bots::fib::run_with_team(&monitor, &team, &opts);
            bots::fib::regions().par.region
        }
        "nqueens" => {
            bots::nqueens::run_with_team(&monitor, &team, &opts);
            bots::nqueens::regions().par.region
        }
        _ => {
            eprintln!("--app must be fib or nqueens (simulated deterministic codes)");
            std::process::exit(2);
        }
    };
    let streams = monitor.take_edge_streams().expect("run finished");
    let dopts = critpath::DagOptions {
        undeferred_spawn_cost: Some(simsched::DEFAULT_SPAWN_COST_NS),
    };
    critpath::TaskDag::from_streams(&streams, par, &dopts).unwrap_or_else(|e| die_dag(app, &e))
}

/// Resolve a region by name regardless of kind — region names are unique
/// per kind in the registry, and what-if targets are usually task or
/// user-function regions, so try every kind in a fixed order.
fn resolve_region(name: &str) -> Option<pomp::RegionId> {
    use pomp::RegionKind as K;
    [
        K::Task,
        K::Function,
        K::TaskCreate,
        K::Single,
        K::Parallel,
        K::Taskwait,
        K::Workshare,
        K::Critical,
        K::ImplicitBarrier,
        K::ExplicitBarrier,
    ]
    .into_iter()
    .find_map(|k| pomp::registry().lookup(name, k))
}

fn cmd_critpath(args: &[String]) {
    let mut src = DagSource {
        app: None,
        workload: None,
        seed: 42,
        threads: 2,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !DagSource::parse(a, &mut it, &mut src) {
            usage();
        }
    }
    let dag = src.build_dag();
    print!("{}", cube::render_critpath(&dag.report()));
}

fn cmd_whatif(args: &[String]) {
    let mut src = DagSource {
        app: None,
        workload: None,
        seed: 42,
        threads: 2,
    };
    let mut region_name: Option<String> = None;
    let mut speedup: Option<u64> = None;
    let mut validate = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--region" => region_name = Some(value(&mut it)),
            "--speedup" => speedup = Some(value(&mut it)),
            other => {
                if !DagSource::parse(other, &mut it, &mut src) {
                    if other == "--validate" {
                        validate = true;
                    } else {
                        usage();
                    }
                }
            }
        }
    }
    let (Some(region_name), Some(speedup)) = (region_name, speedup) else {
        usage()
    };
    if speedup == 0 {
        eprintln!("--speedup must be at least 1");
        std::process::exit(2);
    }
    let dag = src.build_dag();
    let region = resolve_region(&region_name).unwrap_or_else(|| {
        eprintln!("unknown region {region_name:?}; run `taskprof-cli critpath` with the same source to list region names");
        std::process::exit(2);
    });
    if dag.region_work_ns(region) == 0 {
        eprintln!(
            "region {region_name:?} has no recorded work in this run; the prediction would be vacuous"
        );
        std::process::exit(2);
    }
    let prediction = dag.what_if(region, speedup);
    print!("{}", cube::render_whatif(&prediction, &region_name));
    if !validate {
        return;
    }
    let Some(wname) = src.workload.as_deref() else {
        eprintln!(
            "--validate requires --workload (BOTS app bodies cannot be rebuilt with scaled work)"
        );
        std::process::exit(2);
    };
    let workload = DagSource::workload_by_name(wname);
    let cfg = simsched::SimConfig::seeded(src.threads, src.seed);
    match simsched::validate_whatif(&workload, &cfg, region, speedup) {
        None => {
            eprintln!(
                "cannot validate: some work in {region_name:?} is not divisible by {speedup} \
                 (the sped-up graph is not representable in integer virtual time)"
            );
            std::process::exit(1);
        }
        Some(v) => {
            println!(
                "validation: replayed makespan {}  choice trace {}",
                format_ns(v.replayed_makespan_ns),
                if v.traces_match {
                    "matched"
                } else {
                    "DIVERGED"
                }
            );
            if v.exact() {
                println!("replay reproduced the prediction exactly");
            } else {
                eprintln!(
                    "what-if validation FAILED: predicted {} but replay measured {}",
                    format_ns(v.predicted_makespan_ns),
                    format_ns(v.replayed_makespan_ns)
                );
                std::process::exit(1);
            }
        }
    }
}

fn connect_or_die(
    addr: &str,
    proto: profserve::WireProtocol,
    auth: Option<&str>,
) -> profserve::Client {
    profserve::Client::connect_proto_auth(addr, proto, profserve::ClientTimeouts::unbounded(), auth)
        .unwrap_or_else(|e| {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        })
}

fn delivery_policy(
    deadline_ms: Option<u64>,
    spool: Option<&String>,
    proto: profserve::WireProtocol,
    auth: Option<String>,
) -> taskprof_session::ExportPolicy {
    let mut policy = taskprof_session::ExportPolicy::default();
    if let Some(ms) = deadline_ms {
        policy.deadline = std::time::Duration::from_millis(ms.max(1));
    }
    policy.spool_dir = spool.map(std::path::PathBuf::from);
    policy.wire_protocol = proto;
    policy.auth = auth;
    policy
}

fn cmd_ingest(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut bench: Option<String> = None;
    let mut app: Option<String> = None;
    let mut threads: usize = 2;
    let mut seed: u64 = 42;
    let mut runs: u64 = 1;
    let mut spool: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut proto = profserve::WireProtocol::Auto;
    let mut auth: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(value(&mut it)),
            "--file" => files.push(value(&mut it)),
            "--bench" => bench = Some(value(&mut it)),
            "--app" => app = Some(value(&mut it)),
            "--threads" => threads = value(&mut it),
            "--seed" => seed = value(&mut it),
            "--runs" => runs = value(&mut it),
            "--spool" => spool = Some(value(&mut it)),
            "--deadline-ms" => deadline_ms = Some(value(&mut it)),
            "--proto" => proto = value(&mut it),
            "--auth" => auth = Some(value(&mut it)),
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let policy = delivery_policy(deadline_ms, spool.as_ref(), proto, auth);

    let mut items: Vec<(String, Option<u64>, taskprof::Profile)> = Vec::new();
    if let Some(app) = app {
        // Deterministic seeded runs: timestamps derive from the seed so
        // identical sweeps produce byte-identical stored indexes.
        for k in 0..runs {
            let run_seed = seed + k;
            let profile = deterministic_profile(&app, run_seed, threads);
            let bench_name = bench.clone().unwrap_or_else(|| app.clone());
            items.push((bench_name, Some(run_seed * 1_000), profile));
        }
    } else if !files.is_empty() {
        let Some(bench) = bench else {
            eprintln!("--file requires --bench NAME");
            std::process::exit(2);
        };
        for f in &files {
            let text = std::fs::read_to_string(f).unwrap_or_else(|e| {
                eprintln!("cannot read {f}: {e}");
                std::process::exit(1);
            });
            let profile = read_profile(&text).unwrap_or_else(|e| {
                eprintln!("cannot parse {f}: {e}");
                std::process::exit(1);
            });
            // The daemon stamps a file's run with its own clock.
            items.push((bench.clone(), None, profile));
        }
    } else {
        usage();
    }

    // Each item takes the session's delivery campaign: bounded retries,
    // the spool when the daemon stays down, and a drain of earlier
    // spooled frames once one delivery succeeds. Once one item has
    // spooled, the rest go straight to the spool instead of each waiting
    // out a campaign of its own against a daemon that is down.
    let mut down = false;
    for (bench_name, ts, profile) in &items {
        if down {
            let dir = policy.spool_dir.as_deref().expect("only a spool sets down");
            let ts = ts.unwrap_or_else(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0)
            });
            match taskprof_session::spool_profile(dir, bench_name, threads as u32, ts, profile) {
                Ok(path) => println!(
                    "daemon unreachable; spooled {bench_name} to {}",
                    path.display()
                ),
                Err(e) => {
                    eprintln!("cannot spool {bench_name}: {e}");
                    std::process::exit(1);
                }
            }
            continue;
        }
        let receipt = taskprof_session::export_to_server(
            &addr,
            bench_name,
            threads as u32,
            *ts,
            profile,
            &policy,
        )
        .unwrap_or_else(|e| {
            eprintln!("ingest of {bench_name} failed: {e}");
            std::process::exit(1);
        });
        match (receipt.run_id, &receipt.spool_path) {
            (Some(run_id), _) => println!(
                "ingested {bench_name} as run {run_id} ({} bytes)",
                receipt.bytes
            ),
            (None, Some(path)) => {
                println!(
                    "daemon unreachable; spooled {bench_name} to {}",
                    path.display()
                );
                down = true;
            }
            (None, None) => unreachable!("an export is stored or spooled"),
        }
        let drain = receipt.drained;
        if drain.delivered > 0 || drain.quarantined > 0 {
            println!(
                "drained {} spooled frame(s), {} quarantined, {} remaining",
                drain.delivered, drain.quarantined, drain.remaining
            );
        }
    }
}

fn cmd_drain(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut spool: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut proto = profserve::WireProtocol::Auto;
    let mut auth: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(value(&mut it)),
            "--spool" => spool = Some(value(&mut it)),
            "--deadline-ms" => deadline_ms = Some(value(&mut it)),
            "--proto" => proto = value(&mut it),
            "--auth" => auth = Some(value(&mut it)),
            _ => usage(),
        }
    }
    let (Some(addr), Some(spool)) = (addr, spool) else {
        usage()
    };
    let policy = delivery_policy(deadline_ms, None, proto, auth);
    let report = taskprof_session::drain_spool(std::path::Path::new(&spool), &addr, &policy);
    println!(
        "drained {} frame(s), {} quarantined (.bad), {} remaining",
        report.delivered, report.quarantined, report.remaining
    );
    if report.remaining > 0 {
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_lines)]
fn cmd_query(args: &[String]) {
    let Some(what) = args.first().map(String::as_str) else {
        usage()
    };
    let mut addr: Option<String> = None;
    let mut bench: Option<String> = None;
    let mut threads: usize = 2;
    let mut n: usize = 10;
    let mut file: Option<String> = None;
    let mut app: Option<String> = None;
    let mut seed: u64 = 42;
    let mut threshold: Option<f64> = None;
    let mut proto = profserve::WireProtocol::Auto;
    let mut last: Option<u64> = None;
    let mut since_ns: Option<u64> = None;
    let mut buckets: u32 = 8;
    let mut prometheus = false;
    let mut auth: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--proto" => proto = value(&mut it),
            "--auth" => auth = Some(value(&mut it)),
            "--addr" => addr = Some(value(&mut it)),
            "--bench" => bench = Some(value(&mut it)),
            "--threads" => threads = value(&mut it),
            "--n" => n = value(&mut it),
            "--file" => file = Some(value(&mut it)),
            "--app" => app = Some(value(&mut it)),
            "--seed" => seed = value(&mut it),
            "--threshold" => threshold = Some(value(&mut it)),
            "--last" => last = Some(value(&mut it)),
            "--since-ns" => since_ns = Some(value(&mut it)),
            "--buckets" => buckets = value(&mut it),
            "--prometheus" => prometheus = true,
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let window = profstore::RunWindow { last, since_ns };
    let mut client = connect_or_die(&addr, proto, auth.as_deref());
    let die = |e: profserve::ClientError| -> ! {
        eprintln!("query failed: {e}");
        std::process::exit(1);
    };
    // Typed reports are printed as the canonical JSON response line, so
    // scripted consumers see identical output on both wire protocols.
    match what {
        "top" => {
            let Some(bench) = bench else { usage() };
            let report = client
                .query_top_window(&bench, threads as u32, n, window)
                .unwrap_or_else(|e| die(e));
            println!("{}", profserve::Response::Top(report).to_json_line());
        }
        "stats" => {
            if let Some(bench) = bench {
                let report = client
                    .query_stats_window(&bench, threads as u32, window)
                    .unwrap_or_else(|e| die(e));
                println!("{}", profserve::Response::Stats(report).to_json_line());
            } else if prometheus {
                // Scrape document: the verbatim text, not a JSON line.
                let text = client.server_stats_prometheus().unwrap_or_else(|e| die(e));
                print!("{text}");
            } else {
                // Without --bench, report server health.
                let report = client.server_stats().unwrap_or_else(|e| die(e));
                println!(
                    "{}",
                    profserve::Response::ServerStats(report).to_json_line()
                );
            }
        }
        "trend" => {
            let Some(bench) = bench else { usage() };
            let report = client
                .query_trend(&bench, threads as u32, buckets, window)
                .unwrap_or_else(|e| die(e));
            println!("{}", profserve::Response::Trend(report).to_json_line());
        }
        "regress" => {
            let Some(bench) = bench else { usage() };
            let text = if let Some(f) = file {
                std::fs::read_to_string(&f).unwrap_or_else(|e| {
                    eprintln!("cannot read {f}: {e}");
                    std::process::exit(1);
                })
            } else if let Some(app) = app {
                write_profile(&deterministic_profile(&app, seed, threads))
            } else {
                eprintln!("regress needs --file F or --app fib|nqueens");
                std::process::exit(2);
            };
            let report = client
                .query_regress_window(
                    &bench,
                    threads as u32,
                    profserve::ProfilePayload::Text(text),
                    threshold,
                    None,
                    None,
                    window,
                )
                .unwrap_or_else(|e| die(e));
            let regressed = report.regressed;
            println!("{}", profserve::Response::Regress(report).to_json_line());
            if regressed {
                std::process::exit(3);
            }
        }
        _ => usage(),
    }
}

/// `watch`: attach a live subscription and render pushed events.
fn cmd_watch(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut interval_ms: Option<u64> = None;
    let mut frames: Option<u64> = None;
    let mut jsonl = false;
    let mut proto = profserve::WireProtocol::Auto;
    let mut auth: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(value(&mut it)),
            "--interval-ms" => interval_ms = Some(value(&mut it)),
            "--frames" => frames = Some(value(&mut it)),
            "--format" => {
                jsonl = match value::<String>(&mut it).as_str() {
                    "dashboard" => false,
                    "jsonl" => true,
                    _ => usage(),
                }
            }
            "--proto" => proto = value(&mut it),
            "--auth" => auth = Some(value(&mut it)),
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let client = connect_or_die(&addr, proto, auth.as_deref());
    let (mut sub, granted_ms) = client.subscribe(interval_ms).unwrap_or_else(|e| {
        eprintln!("cannot subscribe: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "# watching {addr} over {} (telemetry every {granted_ms}ms{})",
        sub.protocol(),
        frames
            .map(|f| format!(", exiting after {f} frames"))
            .unwrap_or_default()
    );
    let mut seen_frames: u64 = 0;
    loop {
        let event = match sub.next_event() {
            Ok(event) => event,
            Err(e) => {
                eprintln!("subscription ended: {e}");
                std::process::exit(1);
            }
        };
        if jsonl {
            // Raw event lines for scripts, identical on both protocols.
            println!(
                "{}",
                profserve::Response::Event(event.clone()).to_json_line()
            );
        } else {
            match &event {
                profserve::Notification::Telemetry { stats, .. } => {
                    print!("{}", profserve::render_fleet(stats));
                }
                profserve::Notification::Ingest {
                    first_run_id,
                    count,
                    bytes,
                    benchmark,
                    threads,
                } => {
                    println!(
                        "ingest: {count} run(s) of {benchmark}@{threads} from run id {first_run_id} ({bytes} bytes)"
                    );
                }
                profserve::Notification::Lagged { dropped } => {
                    println!("lagged: {dropped} event(s) dropped (subscriber fell behind)");
                }
            }
        }
        if let profserve::Notification::Telemetry { .. } = event {
            seen_frames += 1;
            if frames.is_some_and(|f| seen_frames >= f) {
                return;
            }
        }
    }
}

/// `replicate`: pump every run the follower is missing from the leader,
/// resuming from the follower's own cursor.
fn cmd_replicate(args: &[String]) {
    let mut from: Option<String> = None;
    let mut to: Option<String> = None;
    let mut config = profserve::ReplicaConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--from" => from = Some(value(&mut it)),
            "--to" => to = Some(value(&mut it)),
            "--batch" => config.batch = value(&mut it),
            "--proto" => config.proto = value(&mut it),
            "--auth" => config.auth = Some(value(&mut it)),
            _ => usage(),
        }
    }
    let (Some(from), Some(to)) = (from, to) else {
        usage()
    };
    match profserve::replicate(&from, &to, &config) {
        Ok(report) => println!(
            "replicated {from} -> {to}: {} frame(s) applied, {} already present, \
             cursor {} -> {} over {} page(s)",
            report.frames_applied,
            report.frames_skipped,
            report.start_cursor,
            report.end_cursor,
            report.pages
        ),
        Err(e) => {
            eprintln!("replication failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("telemetry") => cmd_telemetry(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("list") => cmd_list(),
        Some("serve") => cmd_serve(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("drain") => cmd_drain(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("replicate") => cmd_replicate(&args[1..]),
        Some("critpath") => cmd_critpath(&args[1..]),
        Some("whatif") => cmd_whatif(&args[1..]),
        _ => usage(),
    }
}
