//! Ablation: the tied-task scheduling constraint at taskwaits.
//!
//! The runtime normally executes only *descendants* of the waiting task
//! at its taskwait (the OpenMP tied-task scheduling constraint: anything
//! else could require resuming a tied task on the wrong thread and stacks
//! suspended tasks arbitrarily deep). This binary runs nqueens both ways
//! and compares kernel time and — the telling metric — the paper's
//! Table II counter: the maximum number of concurrently live task
//! instances per thread, which bounds both the profiler's and the
//! runtime's memory.

use bots::nqueens::{self};
use cube::AggProfile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use taskprof::ProfMonitor;
use taskprof_session::{MeasurementSession, SessionBuilder};

fn run_nqueens(session: &MeasurementSession<ProfMonitor>, n: usize) -> (std::time::Duration, u64) {
    let r = nqueens::regions();
    let count = AtomicU64::new(0);
    let count_ref = &count;
    let start = Instant::now();
    session.run_in(&r.par, |ctx| {
        ctx.single(&r.single, |ctx| {
            // Reuse the library's task recursion through the public API.
            nqueens_spawn(ctx, n, 0, vec![0; n], count_ref);
        });
    });
    (start.elapsed(), count.load(Ordering::Relaxed))
}

fn nqueens_spawn<'e, M: pomp::Monitor>(
    ctx: &taskrt::TaskCtx<'_, 'e, M>,
    n: usize,
    row: usize,
    board: Vec<u8>,
    count: &'e AtomicU64,
) {
    if row == n {
        count.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let r = nqueens::regions();
    for col in 0..n as u8 {
        let ok = (0..row).all(|pr| {
            let c = board[pr] as i32;
            let dc = c - col as i32;
            dc != 0 && dc.abs() != (row - pr) as i32
        });
        if ok {
            let mut b2 = board.clone();
            b2[row] = col;
            ctx.task(&r.task, move |ctx| {
                nqueens_spawn(ctx, n, row + 1, b2, count)
            });
        }
    }
    ctx.taskwait(r.tw);
}

fn main() {
    println!("== Ablation — tied-task scheduling constraint at taskwait ==\n");
    let n = 9;
    let threads = 4;
    type Shape = fn(SessionBuilder) -> SessionBuilder;
    let builders: [(&str, Shape); 2] = [
        ("descendants-only (tied TSC, default)", |b| b),
        ("unrestricted (constraint dropped)", |b| {
            b.unrestricted_taskwait()
        }),
    ];
    for (label, shape) in builders {
        let session = shape(MeasurementSession::builder("nqueens-ablation").threads(threads))
            .build()
            .expect("default session configuration is valid");
        let (kernel, solutions) = run_nqueens(&session, n);
        assert_eq!(solutions, nqueens::expected_solutions(n));
        let prof = AggProfile::from_profile(&session.finish().profile);
        println!("{label}:");
        println!("  kernel                        : {kernel:?}");
        println!(
            "  max concurrent tasks / thread : {}  (paper Table II metric)",
            prof.max_live_trees
        );
        println!();
    }
    println!("reading: dropping the constraint permits unrelated tasks to stack on top");
    println!("of suspended ones, so the concurrent-instance bound (which Section V-B's");
    println!("memory argument rests on) can only grow. With LIFO local deques and a");
    println!("single creator the top of the deque is almost always a descendant anyway,");
    println!("so the measured bound often matches; the constraint is what *guarantees*");
    println!("it under adversarial stealing. Correctness is unchanged either way.");
}
