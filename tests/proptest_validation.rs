//! Fuzzing the fault-tolerance layer: *no* input — corrupted store files
//! or arbitrarily ill-formed event streams — may panic the measurement
//! system.
//!
//! The strict profiler assumes a well-formed stream (and asserts on it);
//! [`pomp::ValidatingMonitor`] is the shield in front of it. The central
//! property here: an arbitrary hook sequence, driven through the
//! validator into the real profiler, always completes and yields a
//! finalized profile.

use pomp::{Monitor, TaskId, TaskRef, ThreadHooks, ValidatingMonitor};
use proptest::prelude::*;
use taskprof::ProfMonitor;

/// One raw hook call, decodable from three small integers.
#[derive(Debug, Clone, Copy)]
struct RawOp {
    op: u8,
    region: u8,
    task: u8,
}

fn arb_op() -> impl Strategy<Value = RawOp> {
    (0u8..11, 0u8..3, 1u8..6).prop_map(|(op, region, task)| RawOp { op, region, task })
}

fn fixture_regions() -> [pomp::RegionId; 3] {
    let reg = pomp::registry();
    [
        reg.register("pv-r0", pomp::RegionKind::User, "t", 0),
        reg.register("pv-r1", pomp::RegionKind::Taskwait, "t", 0),
        reg.register("pv-task", pomp::RegionKind::Task, "t", 0),
    ]
}

fn apply(th: &impl ThreadHooks, regions: &[pomp::RegionId; 3], o: RawOp) {
    let r = regions[(o.region % 3) as usize];
    let task_region = regions[2];
    let id = TaskId::from_raw(u64::from(o.task)).expect("task ids are >= 1");
    let param = pomp::ParamId(u32::from(o.region));
    match o.op {
        0 => th.enter(r),
        1 => th.exit(r),
        2 => th.task_create_begin(r, task_region, id),
        3 => th.task_create_end(r, id),
        4 => th.task_begin(task_region, id),
        5 => th.task_end(task_region, id),
        6 => th.task_abort(task_region, id),
        7 => th.task_switch(TaskRef::Implicit),
        8 => th.task_switch(TaskRef::Explicit(id)),
        9 => th.parameter_begin(param, i64::from(o.task)),
        _ => th.parameter_end(param),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any hook sequence — however ill-formed — passes through the
    /// validator into the strict profiler without panicking, and the
    /// profile finalizes (no live instances leak past thread_end).
    #[test]
    fn validated_arbitrary_streams_never_panic_the_profiler(
        ops in prop::collection::vec(arb_op(), 0..60),
    ) {
        let regions = fixture_regions();
        let v = ValidatingMonitor::new(ProfMonitor::new());
        let th = v.thread_begin(0, 1, regions[0]);
        for o in ops {
            apply(&th, &regions, o);
        }
        v.thread_end(0, th);
        let p = v.inner().take_profile().expect("no region in flight");
        prop_assert_eq!(p.threads.len(), 1);
        // Finalized: the implicit root's time is accounted and no
        // negative exclusive time appears anywhere.
        let mut ok = true;
        p.threads[0].main.walk(&mut |_, n| {
            if n.exclusive_ns() < 0 {
                ok = false;
            }
        });
        prop_assert!(ok, "negative exclusive time in healed profile");
    }

    /// The validator itself never panics on arbitrary streams, and every
    /// diagnostic it reports renders (Display is total).
    #[test]
    fn validator_diagnostics_always_render(
        ops in prop::collection::vec(arb_op(), 0..60),
    ) {
        let regions = fixture_regions();
        let v = ValidatingMonitor::new(pomp::NullMonitor);
        let th = v.thread_begin(0, 1, regions[0]);
        for o in ops {
            apply(&th, &regions, o);
        }
        v.thread_end(0, th);
        for d in v.take_diagnostics() {
            prop_assert!(!d.to_string().is_empty());
        }
    }

    /// A validated stream is idempotent: feeding the repaired stream
    /// through a second validator yields zero new diagnostics.
    #[test]
    fn repaired_streams_validate_clean(
        ops in prop::collection::vec(arb_op(), 0..60),
    ) {
        let regions = fixture_regions();
        let inner = ValidatingMonitor::new(pomp::NullMonitor);
        let v = ValidatingMonitor::new(&inner);
        let th = v.thread_begin(0, 1, regions[0]);
        for o in ops {
            apply(&th, &regions, o);
        }
        v.thread_end(0, th);
        prop_assert!(
            inner.is_clean(),
            "second pass found defects: {:?}",
            inner.take_diagnostics()
        );
    }

    /// Point-corrupted profile files parse or fail with position context —
    /// they never panic, and reported positions lie within the input.
    #[test]
    fn corrupted_profile_files_fail_with_position(
        seed in any::<u64>(),
        flips in 1usize..6,
    ) {
        let text = sample_profile_text();
        let corrupted = corrupt(&text, seed, flips);
        match cube::read_profile(&corrupted) {
            Ok(_) => {}
            Err(e) => {
                prop_assert!(e.line <= corrupted.lines().count() + 1, "{e}");
                let shown = e.to_string();
                prop_assert!(shown.contains("line"), "{shown}");
            }
        }
    }

}

/// Deterministically substitute `flips` bytes of `text` (printable ASCII
/// replacements, so the result stays valid UTF-8).
fn corrupt(text: &str, seed: u64, flips: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    for _ in 0..flips {
        if bytes.is_empty() {
            break;
        }
        let pos = (next() % bytes.len() as u64) as usize;
        bytes[pos] = 0x21 + (next() % 0x5e) as u8;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn sample_profile_text() -> String {
    use taskprof::{AssignPolicy, Event, TeamReplayer};
    let reg = pomp::registry();
    let par = reg.register("pv-file-par", pomp::RegionKind::Parallel, "t", 0);
    let task = reg.register("pv-file-task", pomp::RegionKind::Task, "t", 0);
    let ids = pomp::TaskIdAllocator::new();
    let id = ids.alloc();
    let mut team = TeamReplayer::new(1, par, AssignPolicy::Executing);
    team.apply(0, Event::TaskBegin { region: task, id })
        .advance(7)
        .apply(0, Event::TaskEnd { region: task, id })
        .advance(3);
    cube::write_profile(&team.finish())
}
