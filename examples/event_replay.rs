//! Replay the paper's event-stream figures deterministically.
//!
//! ```text
//! cargo run --example event_replay
//! ```
//!
//! The paper explains its algorithm with hand-drawn event streams
//! (Figs. 1, 2, 4) and a CUBE screenshot (Fig. 5). This example feeds the
//! same streams through the profiler under virtual time and renders the
//! resulting profiles, numbers and all — no threads, no runtime, fully
//! reproducible.

#![allow(clippy::disallowed_names)] // `foo` is the paper's own function name

use cube::{render_profile, AggProfile, RenderOpts};
use pomp::{registry, RegionKind, TaskIdAllocator, TaskRef};
use taskprof::{replay, AssignPolicy, Event, Profile};

fn reg(name: &str, kind: RegionKind) -> pomp::RegionId {
    registry().register(name, kind, file!(), line!())
}

fn show(title: &str, snap: taskprof::ThreadSnapshot) {
    println!("--- {title} ---");
    let p = AggProfile::from_profile(&Profile {
        threads: vec![snap],
    });
    println!("{}", render_profile(&p, &RenderOpts::default()));
}

/// Fig. 1: a plain nested stream — tasks change nothing for task-free
/// code.
fn fig1() {
    let main_r = reg("main", RegionKind::Parallel);
    let foo = reg("foo", RegionKind::Function);
    let bar = reg("bar", RegionKind::Function);
    let snap = replay(
        main_r,
        AssignPolicy::Executing,
        [
            Event::Advance(5),
            Event::Enter(foo),
            Event::Advance(20),
            Event::Exit(foo),
            Event::Advance(5),
            Event::Enter(bar),
            Event::Advance(10),
            Event::Exit(bar),
            Event::Advance(5),
        ],
    );
    show("Fig. 1 — nested enter/exit events translate directly", snap);
}

/// Fig. 2 + Fig. 4: two instances of one task construct interleave inside
/// `foo()`, suspending at a taskwait; instance tracking untangles the
/// exits that are indistinguishable by region alone.
fn fig2_and_4() {
    let par = reg("main", RegionKind::Parallel);
    let barrier = reg("main!ibarrier", RegionKind::ImplicitBarrier);
    let task = reg("task", RegionKind::Task);
    let foo = reg("foo", RegionKind::Function);
    let tw = reg("task!taskwait", RegionKind::Taskwait);
    let ids = TaskIdAllocator::new();
    let (t1, t2) = (ids.alloc(), ids.alloc());
    let snap = replay(
        par,
        AssignPolicy::Executing,
        [
            Event::Enter(barrier),
            Event::TaskBegin {
                region: task,
                id: t1,
            },
            Event::Advance(10),
            Event::Enter(foo), // task1 enters foo
            Event::Advance(10),
            Event::Enter(tw), // suspension point inside foo
            Event::Advance(2),
            Event::TaskBegin {
                region: task,
                id: t2,
            }, // task1 suspended
            Event::Advance(5),
            Event::Enter(foo), // task2 enters foo too
            Event::Advance(15),
            Event::Exit(foo), // belongs to task2's foo
            Event::Advance(5),
            Event::TaskEnd {
                region: task,
                id: t2,
            },
            Event::Switch(TaskRef::Explicit(t1)), // task1 resumes
            Event::Advance(3),
            Event::Exit(tw),
            Event::Advance(5),
            Event::Exit(foo), // belongs to task1's foo
            Event::Advance(2),
            Event::TaskEnd {
                region: task,
                id: t1,
            },
            Event::Exit(barrier),
        ],
    );
    show(
        "Figs. 2 & 4 — interleaved fragments, correctly attributed per instance",
        snap,
    );
    println!("note: 'task' has 2 instances with different inclusive times (suspension");
    println!("subtracted); the barrier's stub counts 3 executed fragments.\n");
}

/// Fig. 5: the stub-node split, with the screenshot's headline numbers
/// (113 s task execution inside the barrier, 103 s remaining).
fn fig5() {
    let par = reg("parallel", RegionKind::Parallel);
    let barrier = reg("parallel!ibarrier", RegionKind::ImplicitBarrier);
    let task0 = reg("task0", RegionKind::Task);
    let create = reg("task0!create", RegionKind::TaskCreate);
    let ids = TaskIdAllocator::new();
    let s = 1_000_000_000u64; // 1 second in ns
    let first = ids.alloc();
    let mut events = vec![
        Event::Advance(2 * s),
        Event::CreateBegin {
            create,
            task_region: task0,
            id: first,
        },
        Event::Advance(s / 2),
        Event::CreateEnd { create, id: first },
        Event::Enter(barrier),
        Event::TaskBegin {
            region: task0,
            id: first,
        },
        Event::Advance(30 * s - 7 * s),
        Event::TaskEnd {
            region: task0,
            id: first,
        },
    ];
    // Three more instances executing inside the barrier (113 s of task
    // work in total), each spending part of its time creating new tasks.
    for (dur, create_dur) in [(30u64, 7u64), (30, 7), (30, 8)] {
        let id = ids.alloc();
        let nested = ids.alloc();
        events.extend([
            Event::TaskBegin { region: task0, id },
            Event::Advance((dur - create_dur) * s / 2),
            Event::CreateBegin {
                create,
                task_region: task0,
                id: nested,
            },
            Event::Advance(create_dur * s),
            Event::CreateEnd { create, id: nested },
            Event::Advance((dur - create_dur) * s / 2),
            Event::TaskEnd { region: task0, id },
        ]);
    }
    events.push(Event::Advance(103 * s)); // management / idle remainder
    events.push(Event::Exit(barrier));
    let snap = replay(par, AssignPolicy::Executing, events);
    show(
        "Fig. 5 — stub node splits barrier time into task work vs. idle",
        snap,
    );
    println!("matches the screenshot: 113 s of task execution inside the barrier,");
    println!("103 s left as the barrier's exclusive time; the task tree shows the");
    println!("tasks' own creation time.\n");
}

fn main() {
    fig1();
    fig2_and_4();
    fig5();
}
