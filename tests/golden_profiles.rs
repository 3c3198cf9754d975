//! Golden-profile snapshot tests: canonical event streams and
//! deterministically simulated benchmark runs must serialize to exactly
//! the checked-in cube text under `tests/golden/`.
//!
//! Run with `BLESS=1 cargo test --test golden_profiles` to regenerate the
//! goldens after an intentional format or algorithm change; the diff of
//! the golden files then documents the change in review.

use pomp::{RegionId, RegionKind, TaskIdAllocator};
use std::path::PathBuf;
use std::sync::Arc;
use taskprof::{Event, Profile, ProfMonitor};
use taskrt::Team;
use test_util::fig12::replay_checked;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; run with BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "golden '{name}' differs; regenerate with BLESS=1 if the change is intentional"
    );
}

fn reg(name: &str, kind: RegionKind) -> RegionId {
    pomp::registry().register(name, kind, file!(), line!())
}

/// The Fig. 5 stream (stub-node view): 113 s of task execution inside
/// the barrier, 103 s management/idle, task tree split into 51.5 s
/// exclusive + 25.8 s creating. Mirrors `tests/fig5_stub.rs` with
/// registered (named) regions so the profile serializes.
#[test]
fn golden_fig5_stub_stream() {
    let par = reg("golden-fig5!parallel", RegionKind::Parallel);
    let task = reg("golden-fig5!task", RegionKind::Task);
    let create = reg("golden-fig5!create", RegionKind::TaskCreate);
    let barrier = reg("golden-fig5!ibarrier", RegionKind::ImplicitBarrier);
    const S: u64 = 1_000_000_000;

    let ids = TaskIdAllocator::new();
    let mut events = vec![Event::Enter(barrier)];
    let spec: [(u64, u64); 4] = [(300, 70), (300, 70), (300, 70), (230, 48)];
    for (total, creating) in spec {
        let id = ids.alloc();
        let nested = ids.alloc();
        let rest = total - creating;
        events.extend([
            Event::TaskBegin { region: task, id },
            Event::Advance(rest / 2 * S / 10),
            Event::CreateBegin {
                create,
                task_region: task,
                id: nested,
            },
            Event::Advance(creating * S / 10),
            Event::CreateEnd { create, id: nested },
            Event::Advance((rest - rest / 2) * S / 10),
            Event::TaskEnd { region: task, id },
        ]);
    }
    events.push(Event::Advance(103 * S));
    events.push(Event::Exit(barrier));
    let snap = replay_checked(par, events);
    let profile = Profile {
        threads: vec![snap],
    };
    check_golden("fig5_stub", &cube::write_profile(&profile));
}

/// The Figs. 6–11 walkthrough stream: two instances of construct A, the
/// second starting at the first's taskwait. Mirrors
/// `tests/algorithm_walkthrough.rs` with registered regions.
#[test]
fn golden_figs6_11_walkthrough_stream() {
    let par = reg("golden-walk!parallel", RegionKind::Parallel);
    let task_a = reg("golden-walk!taskA", RegionKind::Task);
    let create_a = reg("golden-walk!createA", RegionKind::TaskCreate);
    let barrier = reg("golden-walk!ibarrier", RegionKind::ImplicitBarrier);
    let tw = reg("golden-walk!taskwait", RegionKind::Taskwait);

    let ids = TaskIdAllocator::new();
    let (i1, i2) = (ids.alloc(), ids.alloc());
    let events = [
        Event::Advance(2),
        Event::CreateBegin {
            create: create_a,
            task_region: task_a,
            id: i1,
        },
        Event::Advance(1),
        Event::CreateEnd { create: create_a, id: i1 },
        Event::CreateBegin {
            create: create_a,
            task_region: task_a,
            id: i2,
        },
        Event::Advance(1),
        Event::CreateEnd { create: create_a, id: i2 },
        Event::Enter(barrier),
        Event::Advance(1),
        Event::TaskBegin { region: task_a, id: i1 },
        Event::Advance(5),
        Event::Enter(tw),
        Event::Advance(1),
        Event::TaskBegin { region: task_a, id: i2 },
        Event::Advance(7),
        Event::TaskEnd { region: task_a, id: i2 },
        Event::Switch(pomp::TaskRef::Explicit(i1)),
        Event::Advance(1),
        Event::Exit(tw),
        Event::Advance(2),
        Event::TaskEnd { region: task_a, id: i1 },
        Event::Advance(3),
        Event::Exit(barrier),
    ];
    let snap = replay_checked(par, events);
    let profile = Profile {
        threads: vec![snap],
    };
    check_golden("figs6_11_walkthrough", &cube::write_profile(&profile));
}

/// Run a BOTS code deterministically: seeded simulated schedule, virtual
/// per-thread clocks (time advances only at task-creation scheduling
/// points), two simulated threads.
fn simulated_bots_profile(
    run: impl Fn(&ProfMonitor<simsched::SimClock>, &Team) -> bots::Outcome,
    seed: u64,
) -> (Profile, bots::Outcome) {
    let sched = Arc::new(simsched::SimScheduler::new(seed));
    let clock = sched.clock().clone();
    let team = Team::new(2).with_policy(sched);
    let monitor = ProfMonitor::builder()
        .clock(clock)
        .build()
        .expect("profiler config is valid");
    let out = run(&monitor, &team);
    let profile = monitor.take_profile().expect("region finished");
    (profile, out)
}

#[test]
fn golden_fib_tiny_fixed_seed() {
    let opts = bots::RunOpts::new(2).scale(bots::Scale::Test);
    let (profile, out) = simulated_bots_profile(
        |monitor, team| bots::fib::run_with_team(monitor, team, &opts),
        42,
    );
    assert!(out.verified, "simulated fib computed a wrong checksum");
    check_golden("fib_test_seed42", &cube::write_profile(&profile));
}

#[test]
fn golden_nqueens_tiny_fixed_seed() {
    let opts = bots::RunOpts::new(2).scale(bots::Scale::Test);
    let (profile, out) = simulated_bots_profile(
        |monitor, team| bots::nqueens::run_with_team(monitor, team, &opts),
        42,
    );
    assert!(out.verified, "simulated nqueens found a wrong solution count");
    check_golden("nqueens_test_seed42", &cube::write_profile(&profile));
}

/// Like `simulated_bots_profile`, but with task create/join edge
/// recording enabled: returns the critical-path report rendered by cube,
/// the snapshot surface of the causal-profiling subsystem.
fn simulated_bots_critpath(
    run: impl Fn(&ProfMonitor<simsched::SimClock>, &Team) -> bots::Outcome,
    parallel_region: RegionId,
    seed: u64,
) -> String {
    let sched = Arc::new(simsched::SimScheduler::new(seed));
    let clock = sched.clock().clone();
    let team = Team::new(2).with_policy(sched);
    let monitor = ProfMonitor::builder()
        .clock(clock)
        .record_task_edges()
        .build()
        .expect("profiler config is valid");
    let out = run(&monitor, &team);
    assert!(out.verified, "simulated run produced a wrong answer");
    let streams = monitor.take_edge_streams().expect("region finished");
    let opts = critpath::DagOptions {
        undeferred_spawn_cost: Some(simsched::DEFAULT_SPAWN_COST_NS),
    };
    let dag = critpath::TaskDag::from_streams(&streams, parallel_region, &opts)
        .expect("recorded edge streams assemble into a DAG");
    cube::render_critpath(&dag.report())
}

#[test]
fn golden_fib_critpath_fixed_seed() {
    let opts = bots::RunOpts::new(2).scale(bots::Scale::Test);
    let rendered = simulated_bots_critpath(
        |monitor, team| bots::fib::run_with_team(monitor, team, &opts),
        bots::fib::regions().par.region,
        42,
    );
    check_golden("critpath_fib_test_seed42", &rendered);
}

#[test]
fn golden_nqueens_critpath_fixed_seed() {
    let opts = bots::RunOpts::new(2).scale(bots::Scale::Test);
    let rendered = simulated_bots_critpath(
        |monitor, team| bots::nqueens::run_with_team(monitor, team, &opts),
        bots::nqueens::regions().par.region,
        42,
    );
    check_golden("critpath_nqueens_test_seed42", &rendered);
}

/// The workloads both exact goldens run: the simsched built-ins and a
/// graded tree whose inner/leaf weights make some sibling chains tie and
/// others not.
fn exact_grid() -> [(&'static str, simsched::TreeWorkload); 5] {
    use simsched::{workloads, Step, TreeWorkload};

    fn graded(depth: u64) -> Vec<Step> {
        if depth == 0 {
            return vec![Step::Work(20)];
        }
        // Child i does (1 + i % 2) × 20 before its own subtree: the first
        // and third sibling chains tie, the second is longer.
        let mut steps = vec![Step::Work(10 * depth)];
        for i in 0..3 {
            let mut child = vec![Step::Work(20 * (1 + i % 2))];
            child.extend(graded(depth - 1));
            steps.push(Step::Task(child));
        }
        steps.push(Step::Taskwait);
        steps.push(Step::Work(5));
        steps
    }
    [
        ("fib", workloads::fib_like(4)),
        ("div", workloads::divisible(3)),
        ("flat", workloads::flat(8)),
        ("mixed", workloads::mixed()),
        (
            "graded",
            TreeWorkload::new(
                "golden-critpath-graded",
                vec![Step::Work(7)],
                vec![Step::Task(graded(3)), Step::Taskwait],
            ),
        ),
    ]
}

/// Every exact output of the critical-path analysis, frozen: the two
/// goldens above are rounded renderings with a single region row, which
/// pin neither the critical-path tie-break nor creation carving. One
/// case per line over [`exact_grid`].
/// Written once by the builder this file was added beside; a change to
/// `critpath` must leave it byte-identical, not `BLESS` it.
#[test]
fn golden_critpath_exact_outputs() {
    use simsched::{run_workload, SimConfig};
    use std::fmt::Write;

    let mut out = String::new();
    for (label, w) in &exact_grid() {
        for threads in [1, 2, 4] {
            for seed in 0..8 {
                let run = run_workload(w, &SimConfig::seeded(threads, seed));
                for spawn_cost in [None, Some(simsched::DEFAULT_SPAWN_COST_NS)] {
                    let opts = critpath::DagOptions {
                        undeferred_spawn_cost: spawn_cost,
                    };
                    let dag = critpath::TaskDag::from_streams(&run.streams, w.parallel_region(), &opts)
                        .expect("simulated streams form a DAG");
                    let r = dag.report();
                    write!(
                        out,
                        "{label} t{threads} s{seed} {} work={} span={} makespan={} threads={} tasks={} fragments={} steals={} thread_work={:?} flags={:?}",
                        if spawn_cost.is_some() { "carved" } else { "plain" },
                        r.work_ns, r.span_ns, r.makespan_ns, r.threads, r.tasks, r.fragments, r.steals,
                        r.thread_work_ns, r.flags,
                    )
                    .unwrap();
                    // Per region: work, span, then predicted makespan/span
                    // at K = 2 and K = 3.
                    for row in &r.regions {
                        let short = row.name.rsplit('!').next().unwrap();
                        write!(out, " | {short} {} {}", row.work_ns, row.span_ns).unwrap();
                        for k in [2, 3] {
                            let p = dag.what_if(row.region, k);
                            assert_eq!(p.baseline_makespan_ns, r.makespan_ns);
                            write!(out, " {}/{}", p.predicted_makespan_ns, p.predicted_span_ns).unwrap();
                        }
                    }
                    out.push('\n');
                }
            }
        }
    }
    check_golden("critpath_exact", &out);
}

/// The seeded run of `w` as the session drains it: the whole edge log,
/// regions included (`SimRun::streams` drops them).
fn sim_edge_log(w: &simsched::TreeWorkload, threads: usize, seed: u64) -> Vec<taskprof::RegionEdges> {
    let sched = simsched::SimScheduler::new(seed).with_spawn_cost(simsched::DEFAULT_SPAWN_COST_NS);
    let clock = sched.clock().clone();
    let team = Team::new(threads).with_policy(Arc::new(sched));
    let monitor = ProfMonitor::builder()
        .clock(clock.clone())
        .record_task_edges()
        .build()
        .expect("profiler config is valid");
    w.run(&team, &monitor, &clock).unwrap();
    monitor.take_edge_log().expect("region finished")
}

/// FNV-1a, 64 bits.
fn fnv1a64(text: &str) -> u64 {
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    text.bytes().fold(0xcbf2_9ce4_8422_2325, step)
}

/// `{:?}` of `ev` with every `RegionId(n)` spelled as the region's name:
/// ids go by registration order, which this binary's tests race for.
fn debug_by_name(ev: &Event) -> String {
    let text = format!("{ev:?}");
    let (mut out, mut rest) = (String::new(), text.as_str());
    while let Some(at) = rest.find("RegionId(") {
        out += &rest[..at];
        rest = &rest[at + "RegionId(".len()..];
        let close = rest.find(')').expect("a RegionId closes");
        out += &pomp::registry().name(RegionId(rest[..close].parse().expect("a RegionId is a number")));
        rest = &rest[close + 1..];
    }
    out + rest
}

/// The drained edge log itself over [`exact_grid`], frozen: per region its
/// occurrence and name, per stream its thread, origin, decoded event
/// count, summed `Advance`s and an FNV-1a-64 of the events' `{:?}` text
/// (regions by name). Written once, by the drain that decoded every
/// stream into an event array; never `BLESS`ed: the words read through
/// `EdgeStream::events` must say the same.
#[test]
fn golden_edge_log_exact_outputs() {
    use std::fmt::Write;

    let mut out = String::new();
    for (label, w) in &exact_grid() {
        for threads in [1, 2, 4] {
            for seed in 0..8 {
                writeln!(out, "{label} t{threads} s{seed}").unwrap();
                for region in sim_edge_log(w, threads, seed) {
                    let name = pomp::registry().name(region.region);
                    writeln!(out, "  region {} {name}", region.occurrence).unwrap();
                    for (tid, stream) in &region.streams {
                        let (mut events, mut advanced, mut text) = (0, 0, String::new());
                        for ev in stream.events() {
                            events += 1;
                            if let Event::Advance(dt) = ev {
                                advanced += dt;
                            }
                            text += &(debug_by_name(&ev) + "\n");
                        }
                        writeln!(
                            out,
                            "    stream {tid} origin={} events={events} advance={advanced} fnv={:016x}",
                            stream.origin(),
                            fnv1a64(&text)
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    assert_eq!(out, include_str!("golden/edge_log_exact.txt"));
}

/// Every exact output of the §VII trace analysis over [`exact_grid`],
/// frozen: one case per line — the totals, switches and ratio, the
/// scheduling-point kinds in declaration order, then every instance in
/// id order. Written once by the analysis of the separate trace crate
/// this repository had, before the analysis became a reader of the DAG
/// builder's walk; never `BLESS`ed. Both readers of that walk agree on
/// what they both count.
#[test]
fn golden_trace_analysis_exact_outputs() {
    use std::fmt::Write;

    let mut out = String::new();
    for (label, w) in &exact_grid() {
        for threads in [1, 2, 4] {
            for seed in 0..8 {
                let log = sim_edge_log(w, threads, seed);
                let a = critpath::analyze_trace(&log).expect("a recorded run reads");
                let (mut fragments, mut tasks) = (0, 0);
                for region in &log {
                    let dag = critpath::TaskDag::from_streams(&region.streams, region.region, &Default::default())
                        .expect("simulated streams form a DAG");
                    let report = dag.report();
                    (fragments, tasks) = (fragments + report.fragments, tasks + report.tasks);
                }
                assert_eq!(a.switches, fragments, "{label} t{threads} s{seed}");
                assert_eq!(a.instances.len() as u64, tasks, "{label} t{threads} s{seed}");
                write!(
                    out,
                    "{label} t{threads} s{seed} task_exec={} creation={} sched_nonexec={} switches={} ratio={}",
                    a.total_task_exec_ns,
                    a.total_creation_ns,
                    a.total_sched_nonexec_ns,
                    a.switches,
                    a.management_to_work_ratio,
                )
                .unwrap();
                let mut kinds = a.by_kind.clone();
                kinds.sort_by_key(|b| b.kind as u8);
                for b in &kinds {
                    write!(
                        out,
                        " | {} {} {} {} {} {}",
                        b.kind.label(),
                        b.intervals,
                        b.dwell_ns,
                        b.task_exec_ns,
                        b.pre_switch_ns,
                        b.fragments
                    )
                    .unwrap();
                }
                for i in &a.instances {
                    let name = pomp::registry().name(i.region);
                    let short = name.rsplit('!').next().unwrap();
                    let queue = i.queue_ns.map_or("-".to_string(), |q| q.to_string());
                    write!(out, " ; {} {short} {queue} {} {}", i.id.get(), i.span_ns, i.fragments).unwrap();
                }
                out.push('\n');
            }
        }
    }
    assert_eq!(out, include_str!("golden/trace_analysis_exact.txt"));
}
