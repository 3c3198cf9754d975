//! `taskrt` — an OpenMP-3.0-style *tied task* runtime for Rust.
//!
//! This crate is the runtime substrate of the paper reproduction: the
//! original work profiles OpenMP tasks through OPARI2 instrumentation of a
//! C runtime; here we provide the equivalent tasking semantics as a
//! library, with the instrumentation hooks (`pomp`) built into exactly the
//! program points OPARI2 instruments.
//!
//! # Model
//!
//! * [`Team::parallel`] runs a closure once per team thread (the thread's
//!   *implicit task*), ending with an implicit barrier.
//! * [`TaskCtx::task`] creates a *deferred tied task*: it may start on any
//!   thread (work stealing) at a task scheduling point, but once started it
//!   never migrates — suspension at a [`TaskCtx::taskwait`] resumes on the
//!   same thread (it is literally kept on that thread's stack).
//! * Scheduling points execute queued tasks: `taskwait` runs descendants
//!   of the waiting task (the tied-task scheduling constraint), barriers
//!   run anything.
//! * Untied tasks are not provided; like the paper's instrumentation
//!   (Section IV-D2), everything is tied by default because arbitrary
//!   interruption points cannot be instrumented from outside the runtime.
//!
//! # Instrumentation
//!
//! Every scheduling-relevant event is reported to a [`pomp::Monitor`]:
//! the profiler (`taskprof::ProfMonitor`) for measured runs, or
//! [`pomp::NullMonitor`] — whose hooks compile to nothing — for the
//! uninstrumented baseline used in overhead experiments.
//!
//! ```
//! use taskrt::{Team, TaskConstruct, ParallelConstruct, taskwait_region};
//! use pomp::NullMonitor;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let par = ParallelConstruct::new("demo");
//! let fib_task = TaskConstruct::new("demo_fib");
//! let tw = taskwait_region("demo_fib!wait");
//! let result = AtomicU64::new(0);
//!
//! Team::new(2).parallel(&NullMonitor, &par, |ctx| {
//!     if ctx.tid() == 0 {
//!         ctx.task(&fib_task, |ctx| {
//!             ctx.task(&fib_task, |_| { /* child work */ });
//!             ctx.taskwait(tw);
//!             result.fetch_add(1, Ordering::Relaxed);
//!         });
//!     }
//! });
//! assert_eq!(result.load(Ordering::Relaxed), 1);
//! ```

#![warn(missing_docs)]

mod constructs;
mod ctx;
mod outcome;
mod policy;
mod raw;
mod sched;
mod task;
mod team;
mod worker;

pub use constructs::{
    barrier_region, critical_region, taskwait_region, ForConstruct, ParallelConstruct,
    SingleConstruct, TaskConstruct,
};
pub use ctx::TaskCtx;
pub use outcome::ParallelOutcome;
pub use policy::{AcquireOrder, SchedPoint, SchedulePolicy, WorkSteal};
pub use task::TaskNode;
pub use team::Team;

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::NullMonitor;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    fn constructs(name: &str) -> (ParallelConstruct, TaskConstruct, pomp::RegionId) {
        (
            ParallelConstruct::new(&format!("{name}-par")),
            TaskConstruct::new(&format!("{name}-task")),
            taskwait_region(&format!("{name}-tw")),
        )
    }

    #[test]
    fn all_threads_run_implicit_task() {
        let (par, _, _) = constructs("t-implicit");
        let seen = Mutex::new(Vec::new());
        Team::new(4).parallel(&NullMonitor, &par, |ctx| {
            seen.lock().unwrap().push(ctx.tid());
            assert_eq!(ctx.num_threads(), 4);
            assert!(ctx.is_implicit());
            assert_eq!(ctx.task_depth(), 0);
        });
        let mut tids = seen.into_inner().unwrap();
        tids.sort();
        assert_eq!(tids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn deferred_tasks_all_execute() {
        let (par, task, _) = constructs("t-defer");
        let count = AtomicUsize::new(0);
        Team::new(4).parallel(&NullMonitor, &par, |ctx| {
            if ctx.tid() == 0 {
                for _ in 0..1000 {
                    ctx.task(&task, |_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn tasks_borrow_the_environment() {
        let (par, task, tw) = constructs("t-borrow");
        let data: Vec<u64> = (0..100).collect();
        let total = AtomicUsize::new(0);
        let (data_ref, total_ref) = (&data, &total);
        Team::new(2).parallel(&NullMonitor, &par, |ctx| {
            if ctx.tid() == 0 {
                for chunk in data_ref.chunks(10) {
                    ctx.task(&task, move |_| {
                        let s: u64 = chunk.iter().sum();
                        total_ref.fetch_add(s as usize, Ordering::Relaxed);
                    });
                }
                ctx.taskwait(tw);
                assert_eq!(total_ref.load(Ordering::Relaxed), 4950);
            }
        });
    }

    #[test]
    fn taskwait_waits_for_direct_children() {
        let (par, task, tw) = constructs("t-tw");
        let order = Mutex::new(Vec::new());
        let order_ref = &order;
        Team::new(2).parallel(&NullMonitor, &par, |ctx| {
            if ctx.tid() == 0 {
                for i in 0..8 {
                    ctx.task(&task, move |_| {
                        std::thread::sleep(Duration::from_micros(50));
                        order_ref.lock().unwrap().push(format!("child{i}"));
                    });
                }
                ctx.taskwait(tw);
                order_ref.lock().unwrap().push("after".into());
            }
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 9);
        assert_eq!(order.last().unwrap(), "after");
    }

    #[test]
    fn recursive_fib_with_taskwait() {
        let (par, task, tw) = constructs("t-fib");
        fn fib<'e, M: pomp::Monitor>(
            ctx: &TaskCtx<'_, 'e, M>,
            task: &'e TaskConstruct,
            tw: pomp::RegionId,
            n: u64,
            out: &'e AtomicUsize,
        ) {
            if n < 2 {
                out.fetch_add(n as usize, Ordering::Relaxed);
                return;
            }
            // Sum leaf contributions directly into `out`.
            ctx.task(task, move |ctx| fib(ctx, task, tw, n - 1, out));
            ctx.task(task, move |ctx| fib(ctx, task, tw, n - 2, out));
            ctx.taskwait(tw);
        }
        let out = AtomicUsize::new(0);
        let task_ref = &task;
        let out_ref = &out;
        Team::new(4).parallel(&NullMonitor, &par, |ctx| {
            if ctx.tid() == 0 {
                fib(ctx, task_ref, tw, 16, out_ref);
            }
        });
        assert_eq!(out.load(Ordering::Relaxed), 987); // fib(16)
    }

    #[test]
    fn undeferred_task_runs_inline() {
        let (par, task, _) = constructs("t-undeferred");
        let tid_of_exec = AtomicUsize::new(usize::MAX);
        Team::new(4).parallel(&NullMonitor, &par, |ctx| {
            if ctx.tid() == 2 {
                ctx.task_if(false, &task, |inner| {
                    assert!(!inner.is_implicit());
                    assert_eq!(inner.task_depth(), 1);
                    tid_of_exec.store(inner.tid(), Ordering::Relaxed);
                });
                // Undeferred: executed before task_if returns.
                assert_eq!(tid_of_exec.load(Ordering::Relaxed), 2);
            }
        });
    }

    #[test]
    fn single_runs_exactly_once_per_encounter() {
        let (par, _, _) = constructs("t-single");
        let single = SingleConstruct::new("t-single-s");
        let count = AtomicUsize::new(0);
        Team::new(4).parallel(&NullMonitor, &par, |ctx| {
            for _ in 0..3 {
                ctx.single(&single, |_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn explicit_barrier_synchronizes() {
        let (par, task, _) = constructs("t-barrier");
        let barrier = barrier_region("t-barrier-b");
        let before = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        Team::new(4).parallel(&NullMonitor, &par, |ctx| {
            if ctx.tid() == 0 {
                for _ in 0..100 {
                    ctx.task(&task, |_| {
                        before.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
            ctx.barrier(barrier);
            // The barrier drains all queued tasks.
            if before.load(Ordering::Relaxed) != 100 {
                violations.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(violations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn single_creator_pattern_spreads_work() {
        // sparselu/alignment shape: one thread creates, all execute.
        let (par, task, _) = constructs("t-creator");
        let single = SingleConstruct::new("t-creator-s");
        let executed_by = Mutex::new(std::collections::HashSet::new());
        let held = std::sync::atomic::AtomicBool::new(false);
        Team::new(4).parallel(&NullMonitor, &par, |ctx| {
            ctx.single(&single, |sctx| {
                for _ in 0..400 {
                    sctx.task(&task, |ictx| {
                        executed_by.lock().unwrap().insert(ictx.tid());
                        // The first task to run holds its thread until
                        // another worker has run a task, so the rest can
                        // only drain by stealing, however little a task
                        // body costs. The deadline is far past any steal.
                        if !held.swap(true, Ordering::SeqCst) {
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while executed_by.lock().unwrap().len() < 2 && Instant::now() < deadline
                            {
                                std::thread::yield_now();
                            }
                        }
                    });
                }
            });
        });
        let set = executed_by.into_inner().unwrap();
        assert!(!set.is_empty());
        assert!(set.len() >= 2, "no stealing happened: {set:?}");
    }

    #[test]
    fn nested_taskwaits_single_thread() {
        // Regression guard for the taskwait work-discovery path with one
        // thread: ancestors must find their children again after a nested
        // taskwait stashed unrelated tasks.
        let (par, task, tw) = constructs("t-nested1");
        let count = AtomicUsize::new(0);
        Team::new(1).parallel(&NullMonitor, &par, |ctx| {
            for _ in 0..4 {
                ctx.task(&task, |ctx| {
                    for _ in 0..4 {
                        ctx.task(&task, |ctx| {
                            for _ in 0..4 {
                                ctx.task(&task, |_| {
                                    count.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                            ctx.taskwait(tw);
                        });
                    }
                    ctx.taskwait(tw);
                });
            }
            ctx.taskwait(tw);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn for_static_covers_range_disjointly() {
        let (par, _, _) = constructs("t-forstatic");
        let fc = ForConstruct::new("t-forstatic-f");
        let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
        let hits_ref = &hits;
        Team::new(4).parallel(&NullMonitor, &par, |ctx| {
            ctx.for_static(&fc, 0..103, 7, |i| {
                hits_ref[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "iteration {i}");
        }
    }

    #[test]
    fn for_dynamic_covers_range_disjointly() {
        let (par, _, _) = constructs("t-fordyn");
        let fc = ForConstruct::new("t-fordyn-f");
        let hits: Vec<AtomicUsize> = (0..211).map(|_| AtomicUsize::new(0)).collect();
        let hits_ref = &hits;
        Team::new(4).parallel(&NullMonitor, &par, |ctx| {
            // Two consecutive dynamic loops: encounter counters must not
            // bleed between them.
            ctx.for_dynamic(&fc, 0..100, 3, |i| {
                hits_ref[i].fetch_add(1, Ordering::Relaxed);
            });
            ctx.for_dynamic(&fc, 100..211, 5, |i| {
                hits_ref[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "iteration {i}");
        }
    }

    #[test]
    fn critical_sections_are_mutually_exclusive() {
        let (par, task, _) = constructs("t-crit");
        let crit = critical_region("t-crit-c");
        // A non-atomic counter only stays consistent under real mutual
        // exclusion.
        let mut unguarded = 0u64;
        let cell = std::sync::atomic::AtomicPtr::new(&mut unguarded as *mut u64);
        Team::new(4).parallel(&NullMonitor, &par, |ctx| {
            for _ in 0..50 {
                ctx.task(&task, |ctx| {
                    ctx.critical(crit, |_| {
                        // SAFETY: the critical section provides exclusion.
                        unsafe {
                            let p = cell.load(Ordering::Relaxed);
                            let v = *p;
                            std::hint::black_box(v);
                            *p = v + 1;
                        }
                    });
                });
            }
        });
        assert_eq!(unguarded, 200);
    }

    #[test]
    fn for_empty_range_is_fine() {
        let (par, _, _) = constructs("t-forempty");
        let fc = ForConstruct::new("t-forempty-f");
        let count = AtomicUsize::new(0);
        Team::new(2).parallel(&NullMonitor, &par, |ctx| {
            ctx.for_static(&fc, 5..5, 4, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            ctx.for_dynamic(&fc, 9..9, 1, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn tasks_created_by_multiple_threads() {
        let (par, task, tw) = constructs("t-multi");
        let count = AtomicUsize::new(0);
        Team::new(4).parallel(&NullMonitor, &par, |ctx| {
            for _ in 0..50 {
                ctx.task(&task, |_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
            ctx.taskwait(tw);
        });
        assert_eq!(count.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn deep_task_chain_completes() {
        let (par, task, tw) = constructs("t-deep");
        fn chain<'e, M: pomp::Monitor>(
            ctx: &TaskCtx<'_, 'e, M>,
            task: &'e TaskConstruct,
            tw: pomp::RegionId,
            depth: u32,
            count: &'e AtomicUsize,
        ) {
            count.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                ctx.task(task, move |ctx| chain(ctx, task, tw, depth - 1, count));
                ctx.taskwait(tw);
            }
        }
        let count = AtomicUsize::new(0);
        let (task_ref, count_ref) = (&task, &count);
        Team::new(2).parallel(&NullMonitor, &par, |ctx| {
            if ctx.tid() == 0 {
                chain(ctx, task_ref, tw, 200, count_ref);
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 201);
    }

    #[test]
    fn panicking_sibling_is_contained() {
        let (par, task, tw) = constructs("t-panic-sibling");
        let done = AtomicUsize::new(0);
        let done_ref = &done;
        let outcome = Team::new(4).parallel(&NullMonitor, &par, |ctx| {
            if ctx.tid() == 0 {
                for i in 0..16 {
                    ctx.task(&task, move |_| {
                        if i == 5 {
                            panic!("sibling 5 exploded");
                        }
                        done_ref.fetch_add(1, Ordering::Relaxed);
                    });
                }
                ctx.taskwait(tw); // must not deadlock on the dead child
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 15, "siblings kept running");
        assert!(!outcome.is_ok());
        assert_eq!(outcome.failed_tasks(), 1);
        assert_eq!(outcome.panic_message(), Some("sibling 5 exploded"));
    }

    #[test]
    fn panicking_undeferred_task_is_contained() {
        let (par, task, _) = constructs("t-panic-undeferred");
        let after = AtomicUsize::new(0);
        let outcome = Team::new(2).parallel(&NullMonitor, &par, |ctx| {
            if ctx.tid() == 0 {
                ctx.task_if(false, &task, |_| panic!("undeferred boom"));
                after.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(
            after.load(Ordering::Relaxed),
            1,
            "encountering task resumes after the failed undeferred child"
        );
        assert_eq!(outcome.failed_tasks(), 1);
        assert_eq!(outcome.panic_message(), Some("undeferred boom"));
    }

    #[test]
    fn panicking_implicit_task_still_joins() {
        let (par, task, _) = constructs("t-panic-implicit");
        let executed = AtomicUsize::new(0);
        let executed_ref = &executed;
        let outcome = Team::new(3).parallel(&NullMonitor, &par, |ctx| {
            if ctx.tid() == 0 {
                for _ in 0..32 {
                    ctx.task(&task, move |_| {
                        executed_ref.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
            if ctx.tid() == 2 {
                panic!("implicit task of thread 2 died");
            }
        });
        assert_eq!(
            executed.load(Ordering::Relaxed),
            32,
            "deferred work still drains at the implicit barrier"
        );
        assert_eq!(outcome.failed_tasks(), 1);
        assert_eq!(
            outcome.panic_message(),
            Some("implicit task of thread 2 died")
        );
    }

    #[test]
    fn panic_in_recursive_chain_releases_ancestors() {
        // A panic deep in a recursive task chain must not wedge the
        // taskwaits of its ancestors.
        let (par, task, tw) = constructs("t-panic-chain");
        fn chain<'e, M: pomp::Monitor>(
            ctx: &TaskCtx<'_, 'e, M>,
            task: &'e TaskConstruct,
            tw: pomp::RegionId,
            depth: usize,
        ) {
            if depth == 0 {
                panic!("leaf panicked");
            }
            ctx.task(task, move |ctx| chain(ctx, task, tw, depth - 1));
            ctx.taskwait(tw);
        }
        let task_ref = &task;
        let outcome = Team::new(2).parallel(&NullMonitor, &par, |ctx| {
            if ctx.tid() == 0 {
                chain(ctx, task_ref, tw, 20);
            }
        });
        assert_eq!(outcome.failed_tasks(), 1);
        assert_eq!(outcome.panic_message(), Some("leaf panicked"));
    }

    #[test]
    fn outcome_is_ok_on_clean_run() {
        let (par, task, _) = constructs("t-outcome-ok");
        let outcome = Team::new(2).parallel(&NullMonitor, &par, |ctx| {
            if ctx.tid() == 0 {
                ctx.task(&task, |_| {});
            }
        });
        assert!(outcome.is_ok());
        assert_eq!(outcome.failed_tasks(), 0);
        outcome.unwrap();
    }
}
