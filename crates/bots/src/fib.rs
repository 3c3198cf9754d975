//! BOTS `fib`: the paper's pathological granularity example.
//!
//! Each task creates two child tasks and sums two numbers after a
//! `taskwait` — per-task work of an addition, so without a cut-off the
//! instrumentation overhead dominates (310 % in the paper's Fig. 13, 527 %
//! in Fig. 14).

use crate::util::SendPtr;
use crate::{Outcome, RunOpts, Scale, Variant};
use pomp::{Monitor, RegionId};
use std::sync::OnceLock;
use std::time::Instant;
use taskrt::{taskwait_region, ParallelConstruct, SingleConstruct, TaskConstruct, TaskCtx, Team};

/// Regions of the fib benchmark.
pub struct Regions {
    /// The parallel region.
    pub par: ParallelConstruct,
    /// The recursive task construct.
    pub task: TaskConstruct,
    /// The taskwait joining the two children.
    pub tw: RegionId,
    /// The single construct hosting the root call.
    pub single: SingleConstruct,
}

/// Lazily registered regions.
pub fn regions() -> &'static Regions {
    static R: OnceLock<Regions> = OnceLock::new();
    R.get_or_init(|| Regions {
        par: ParallelConstruct::new("fib!parallel"),
        task: TaskConstruct::new("fib"),
        tw: taskwait_region("fib!taskwait"),
        single: SingleConstruct::new("fib!single"),
    })
}

/// Serial reference.
pub fn fib_serial(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_serial(n - 1) + fib_serial(n - 2)
    }
}

/// Input size per scale (the paper ran n large enough for 3.69 G tasks;
/// we keep the same microsecond-scale tasks at laptop-scale counts).
pub fn input_n(scale: Scale) -> u64 {
    match scale {
        Scale::Test => 15,
        Scale::Small => 20,
        Scale::Medium => 25,
    }
}

/// Manual cut-off depth of the BOTS cut-off version.
pub const CUTOFF_DEPTH: u32 = 8;

fn fib_task<'e, M: Monitor>(
    ctx: &TaskCtx<'_, 'e, M>,
    n: u64,
    depth: u32,
    cutoff: Option<u32>,
) -> u64 {
    if n < 2 {
        return n;
    }
    if let Some(c) = cutoff {
        if depth >= c {
            return fib_serial(n);
        }
    }
    let r = regions();
    let (mut a, mut b) = (0u64, 0u64);
    let (pa, pb) = (SendPtr::new(&mut a), SendPtr::new(&mut b));
    // SAFETY (both tasks): the pointees live in this frame, which stays
    // alive across the taskwait below; each child writes a distinct slot.
    ctx.task(&r.task, move |ctx| unsafe {
        pa.write(fib_task(ctx, n - 1, depth + 1, cutoff));
    });
    ctx.task(&r.task, move |ctx| unsafe {
        pb.write(fib_task(ctx, n - 2, depth + 1, cutoff));
    });
    ctx.taskwait(r.tw);
    a + b
}

/// Run the benchmark.
pub fn run<M: Monitor>(monitor: &M, opts: &RunOpts) -> Outcome {
    run_with_team(monitor, &Team::new(opts.threads), opts)
}

/// Run the benchmark on a caller-supplied team — e.g. one carrying a
/// deterministic [`taskrt::SchedulePolicy`] for schedule exploration.
/// `opts.threads` is ignored in favour of the team's size.
pub fn run_with_team<M: Monitor>(monitor: &M, team: &Team, opts: &RunOpts) -> Outcome {
    let n = input_n(opts.scale);
    let cutoff = (opts.variant == Variant::Cutoff).then_some(CUTOFF_DEPTH);
    let r = regions();
    let mut result = 0u64;
    let pr = SendPtr::new(&mut result);
    let start = Instant::now();
    team.parallel(monitor, &r.par, |ctx| {
        ctx.single(&r.single, |ctx| {
            let v = fib_task(ctx, n, 0, cutoff);
            // SAFETY: `result` outlives the parallel region; only the
            // single's executor writes it.
            unsafe { pr.write(v) };
        });
    });
    let kernel = start.elapsed();
    let expected = fib_serial(n);
    Outcome {
        kernel,
        checksum: result,
        verified: result == expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Variant;
    use pomp::NullMonitor;

    #[test]
    fn serial_fib_basics() {
        assert_eq!(fib_serial(0), 0);
        assert_eq!(fib_serial(1), 1);
        assert_eq!(fib_serial(10), 55);
        assert_eq!(fib_serial(20), 6765);
    }

    #[test]
    fn task_fib_matches_serial_across_threads() {
        for threads in [1, 2, 4] {
            let out = run(&NullMonitor, &RunOpts::new(threads).scale(Scale::Test));
            assert!(out.verified);
            assert_eq!(out.checksum, fib_serial(input_n(Scale::Test)));
        }
    }

    #[test]
    fn cutoff_version_matches() {
        let out = run(
            &NullMonitor,
            &RunOpts::new(2).scale(Scale::Test).variant(Variant::Cutoff),
        );
        assert!(out.verified);
    }
}
