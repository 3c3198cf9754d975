//! Untied-task migration through the profiler (paper Section IV-D).
//!
//! ```text
//! cargo run --example untied_migration
//! ```
//!
//! The 2012 OpenMP runtimes provided no hooks for untied-task switches,
//! so the paper's tool forces every task tied — but Section IV-D1 argues
//! the algorithm itself handles migration: "if a task migrates, the
//! pointer to the task-specific data migrates together with the task".
//! This example plays the hypothetical event stream of a migrating task
//! through a two-thread replay and shows that the statistics follow the
//! task while each thread's stub records its own fragment.

use cube::{render_profile, AggProfile, RenderOpts};
use pomp::{registry, RegionKind, TaskIdAllocator, TaskRef};
use taskprof::{AssignPolicy, Event, TeamReplayer};

fn main() {
    let reg = registry();
    let par = reg.register("untied!parallel", RegionKind::Parallel, file!(), line!());
    let barrier = reg.register(
        "untied!ibarrier",
        RegionKind::ImplicitBarrier,
        file!(),
        line!(),
    );
    let task = reg.register("untied_task", RegionKind::Task, file!(), line!());
    let phase1 = reg.register("phase1", RegionKind::Function, file!(), line!());
    let phase2 = reg.register("phase2", RegionKind::Function, file!(), line!());
    let ids = TaskIdAllocator::new();
    let id = ids.alloc();
    let us = 1_000u64;

    let mut team = TeamReplayer::new(2, par, AssignPolicy::Executing);
    team.apply(0, Event::Enter(barrier))
        .apply(1, Event::Enter(barrier))
        // Thread 0 runs the first 300 µs of the task (phase1)...
        .apply(0, Event::TaskBegin { region: task, id })
        .apply(0, Event::Enter(phase1))
        .advance(300 * us)
        .apply(0, Event::Exit(phase1))
        .apply(0, Event::Enter(phase2))
        .advance(50 * us)
        // ...and the untied task is interrupted mid-phase2.
        .apply(0, Event::Switch(TaskRef::Implicit));
    println!(
        "before migration: thread 0 holds {} live instance tree(s)",
        team.thread(0).live_instance_trees()
    );
    team.migrate(id, 0, 1);
    println!(
        "after migration : thread 0 holds {}, thread 1 holds {}",
        team.thread(0).live_instance_trees(),
        team.thread(1).live_instance_trees()
    );
    // Thread 1 resumes inside phase2 and completes the task.
    team.advance(10 * us)
        .apply(1, Event::Switch(TaskRef::Explicit(id)))
        .advance(150 * us)
        .apply(1, Event::Exit(phase2))
        .apply(1, Event::TaskEnd { region: task, id })
        .apply(0, Event::Exit(barrier))
        .apply(1, Event::Exit(barrier));

    let profile = team.finish();
    let agg = AggProfile::from_profile(&profile);
    println!("\n{}", render_profile(&agg, &RenderOpts::default()));
    println!("what to notice:");
    println!(" * the task tree reports ONE instance of 500 µs — phase1 300 µs on thread 0,");
    println!("   phase2 50 µs + 150 µs across the migration, with the 10 µs gap excluded;");
    println!(" * each thread's barrier stub holds only its own fragment (350 µs / 150 µs),");
    println!("   so per-thread imbalance data stays truthful.");
}
