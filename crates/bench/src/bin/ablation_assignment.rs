//! Ablation of the node-assignment policy (paper Fig. 3 / Section IV-B2):
//! attribute task execution to the *creating* node vs. the *executing*
//! node.
//!
//! Replays the figure's scenario deterministically and prints both
//! profiles: the creating-node policy yields a negative exclusive time at
//! the creation site and over-attributes the barrier; the executing-node
//! policy (the paper's choice) keeps every exclusive time meaningful.

use cube::{render_profile, AggProfile, RenderOpts};
use pomp::{registry, RegionKind, TaskIdAllocator};
use taskprof::{replay, AssignPolicy, Event, Profile};

fn scenario(policy: AssignPolicy) -> AggProfile {
    let reg = registry();
    let par = reg.register("fig3!parallel", RegionKind::Parallel, file!(), line!());
    let task = reg.register("fig3_task", RegionKind::Task, file!(), line!());
    let create = reg.register("fig3_task!create", RegionKind::TaskCreate, file!(), line!());
    let barrier = reg.register(
        "fig3!ibarrier",
        RegionKind::ImplicitBarrier,
        file!(),
        line!(),
    );
    let ids = TaskIdAllocator::new();
    let t1 = ids.alloc();
    // Fig. 3 numbers: parallel start 2, creation 2, task body 5, barrier
    // tail 2.
    let snap = replay(
        par,
        policy,
        [
            Event::Advance(2),
            Event::CreateBegin {
                create,
                task_region: task,
                id: t1,
            },
            Event::Advance(2),
            Event::CreateEnd { create, id: t1 },
            Event::Enter(barrier),
            Event::TaskBegin {
                region: task,
                id: t1,
            },
            Event::Advance(5),
            Event::TaskEnd {
                region: task,
                id: t1,
            },
            Event::Advance(2),
            Event::Exit(barrier),
        ],
    );
    AggProfile::from_profile(&Profile {
        threads: vec![snap],
    })
}

fn main() {
    println!("== Ablation — task attribution policy (paper Fig. 3) ==\n");
    for (policy, name) in [
        (
            AssignPolicy::Creating,
            "assign to CREATING node (rejected by the paper)",
        ),
        (
            AssignPolicy::Executing,
            "assign to EXECUTING node (the paper's design)",
        ),
    ] {
        println!("--- {name} ---");
        let prof = scenario(policy);
        print!("{}", render_profile(&prof, &RenderOpts::default()));
        let create_excl = cube::region_excl_by_name(&prof, "fig3_task!create");
        let barrier_excl = cube::region_excl_by_kind(&prof, RegionKind::ImplicitBarrier);
        println!(
            "creation-site exclusive: {create_excl} ns   barrier exclusive: {barrier_excl} ns\n"
        );
        match policy {
            AssignPolicy::Creating => {
                assert!(create_excl < 0, "expected the Fig. 3 pathology");
                assert_eq!(barrier_excl, 7, "task time wrongly attributed to barrier");
            }
            AssignPolicy::Executing => {
                assert!(create_excl >= 0);
                assert_eq!(barrier_excl, 2, "only true waiting remains in the barrier");
            }
        }
    }
    println!("conclusion (matches paper): only executing-node attribution produces");
    println!("meaningful exclusive times; creating-node attribution goes negative.");
}
