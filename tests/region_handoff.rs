//! What a parallel region costs the profiler's cross-thread hand-off,
//! counted allocation by allocation: fork, thread begin, thread end and
//! join each take the monitor's one lock once, and the arena a thread
//! returns at its end is the one the next region's thread pops, so a
//! warm region allocates only what its snapshot (and, when edges are
//! recorded, its edge log) holds, plus amortised growth of the lists the
//! drains empty. A monitor dropped undrained frees all of it.

use pomp::{Monitor, RegionId, TaskIdAllocator, ThreadHooks, VirtualClock};
use taskprof::ProfMonitor;
use test_util::alloc::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const PAR: RegionId = RegionId(9800);
const CREATE: RegionId = RegionId(9801);
const TASK: RegionId = RegionId(9802);
const WORK: RegionId = RegionId(9803);

const ROUNDS: u64 = 64;
const TASK_CYCLES: u64 = 32;

/// fork → begin → `TASK_CYCLES` task cycles → end → join, on a team of
/// one.
fn region(m: &ProfMonitor<VirtualClock>, ids: &TaskIdAllocator) {
    m.parallel_fork(PAR, 1);
    let th = m.thread_begin(0, 1, PAR);
    for _ in 0..TASK_CYCLES {
        let id = ids.alloc();
        m.clock().advance(1);
        th.task_create_begin(CREATE, TASK, id);
        th.task_create_end(CREATE, id);
        th.task_begin(TASK, id);
        th.enter(WORK);
        m.clock().advance(1);
        th.exit(WORK);
        th.task_end(TASK, id);
    }
    m.thread_end(0, th);
    m.parallel_join(PAR);
}

fn monitor(clock: &VirtualClock, edges: bool) -> ProfMonitor<VirtualClock> {
    let builder = ProfMonitor::builder().clock(clock.clone());
    let builder = if edges {
        builder.record_task_edges()
    } else {
        builder
    };
    builder.build().expect("default configuration is valid")
}

/// Allocations in `ROUNDS` undrained regions after two warm ones.
fn undrained_region_allocs(edges: bool) -> u64 {
    let clock = VirtualClock::new();
    let m = monitor(&clock, edges);
    let ids = TaskIdAllocator::new();
    for _ in 0..2 {
        region(&m, &ids);
    }
    let allocs = measure(|| {
        for _ in 0..ROUNDS {
            region(&m, &ids);
        }
    })
    .allocs;
    let profile = m.take_profile().expect("no region in flight");
    assert_eq!(profile.num_threads() as u64, ROUNDS + 2);
    assert_eq!(
        m.take_edge_streams().expect("no region in flight").len() as u64,
        if edges { ROUNDS + 2 } else { 0 }
    );
    allocs
}

#[test]
fn a_warm_region_hands_off_without_allocating_for_the_hand_off() {
    // Per region, the thread's profile and the snapshot its end builds
    // allocate 11 times, and the edge log, when recorded, 1 buffer more.
    // The hand-off itself allocates only when a list outgrows its
    // capacity: the snapshots' list grows 4 → 128 (5 times), and so does
    // the edge streams' list. The spare arena is popped and pushed back
    // in place.
    assert_eq!(undrained_region_allocs(false), ROUNDS * 11 + 5);
    assert_eq!(undrained_region_allocs(true), ROUNDS * 12 + 10);
}

#[test]
fn a_monitor_dropped_undrained_frees_what_it_collected() {
    let clock = VirtualClock::new();
    let ids = TaskIdAllocator::new();
    for edges in [false, true] {
        let stats = measure(|| {
            let m = monitor(&clock, edges);
            for _ in 0..ROUNDS {
                region(&m, &ids);
            }
            drop(m);
        });
        assert!(stats.peak_live_bytes > 0);
        assert_eq!(stats.live_bytes, 0, "edges: {edges}: {stats:?}");
    }
}
