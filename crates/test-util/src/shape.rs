//! Randomly shaped task trees for runtime-level property tests.
//!
//! A [`Shape`] describes a uniform task tree by per-depth fanout: the
//! implicit task spawns `fanout[0]` tasks, each of which spawns
//! `fanout[1]`, and so on, with optional taskwaits between levels and a
//! tunable amount of busy work per task. The same shape can execute on a
//! real work-stealing team ([`run_shape`]) or be converted into a
//! deterministic-simulation workload ([`steps`] / [`tree_workload`]).

use crate::prop::Gen;
use pomp::Monitor;
use simsched::{Step, TreeWorkload};
use std::sync::atomic::{AtomicU64, Ordering};
use taskrt::{taskwait_region, ParallelConstruct, TaskConstruct, TaskCtx, Team};

/// A randomly shaped task tree: each node spawns children and optionally
/// taskwaits between batches.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Children per node, by depth (empty → leaf).
    pub fanout: Vec<u8>,
    /// Whether each level taskwaits after spawning.
    pub wait: Vec<bool>,
    /// Work units burned per task.
    pub work: u8,
}

/// A small task-tree shape: up to 3 levels, fanout < 4.
pub fn shape(g: &mut Gen) -> Shape {
    Shape {
        fanout: g.vec(1..4, |g| g.u64(0..4) as u8),
        wait: g.vec(4..5, Gen::bool),
        work: g.u64(..=255) as u8,
    }
}

/// Number of explicit tasks a shape creates.
pub fn expected_tasks(shape: &Shape) -> u64 {
    // Root (implicit) spawns fanout[0] tasks, each spawns fanout[1], ...
    let mut total = 0u64;
    let mut level_count = 1u64;
    for &f in &shape.fanout {
        level_count *= f as u64;
        total += level_count;
        if level_count == 0 {
            break;
        }
    }
    total
}

/// Spawn one level of the shape from the current task: used as the body
/// of the implicit task (depth 0) and of each spawned task (depth + 1).
pub fn spawn_level<'e, M: Monitor>(
    ctx: &TaskCtx<'_, 'e, M>,
    shape: &'e Shape,
    depth: usize,
    task: &'e TaskConstruct,
    tw: pomp::RegionId,
    executed: &'e AtomicU64,
    work_sink: &'e AtomicU64,
) {
    if depth >= shape.fanout.len() {
        return;
    }
    for _ in 0..shape.fanout[depth] {
        ctx.task(task, move |ctx| {
            executed.fetch_add(1, Ordering::Relaxed);
            let mut acc = 0u64;
            for i in 0..shape.work as u64 * 16 {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            work_sink.fetch_add(acc, Ordering::Relaxed);
            spawn_level(ctx, shape, depth + 1, task, tw, executed, work_sink);
            if shape.wait.get(depth + 1).copied().unwrap_or(false) {
                ctx.taskwait(tw);
            }
        });
    }
    if shape.wait.first().copied().unwrap_or(true) && depth == 0 {
        ctx.taskwait(tw);
    }
}

/// Execute the shape on a fresh team (thread 0 is the producer) and
/// return how many tasks ran.
pub fn run_shape<M: Monitor>(monitor: &M, shape: &Shape, threads: usize) -> u64 {
    let par = ParallelConstruct::new("pt-rt!parallel");
    let task = TaskConstruct::new("pt-rt-task");
    let tw = taskwait_region("pt-rt!tw");
    let executed = AtomicU64::new(0);
    let work_sink = AtomicU64::new(0);
    let (exec_ref, sink_ref, shape_ref, task_ref) = (&executed, &work_sink, shape, &task);
    Team::new(threads).parallel(monitor, &par, |ctx| {
        if ctx.tid() == 0 {
            spawn_level(ctx, shape_ref, 0, task_ref, tw, exec_ref, sink_ref);
        }
    });
    executed.load(Ordering::Relaxed)
}

/// Convert the shape into simulation steps: the same tree topology and
/// taskwait placement, with busy work replaced by virtual time.
pub fn steps(shape: &Shape) -> Vec<Step> {
    fn level(shape: &Shape, depth: usize) -> Vec<Step> {
        let mut out = Vec::new();
        if depth > 0 {
            // Each task body: its work, then its children.
            out.push(Step::Work(shape.work as u64 + 1));
        }
        if depth < shape.fanout.len() {
            for _ in 0..shape.fanout[depth] {
                out.push(Step::Task(level(shape, depth + 1)));
            }
            let waits = if depth == 0 {
                shape.wait.first().copied().unwrap_or(true)
            } else {
                shape.wait.get(depth + 1).copied().unwrap_or(false)
            };
            if waits {
                out.push(Step::Taskwait);
            }
        }
        out
    }
    level(shape, 0)
}

/// The shape as a single-producer simulation workload (the single winner
/// plays the producer thread 0 plays in [`run_shape`]).
pub fn tree_workload(shape: &Shape) -> TreeWorkload {
    TreeWorkload::new("pt-sim-shape", vec![], steps(shape))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_preserve_task_count_and_depth() {
        let shape = Shape {
            fanout: vec![2, 3],
            wait: vec![true, false, true, false],
            work: 1,
        };
        let w = tree_workload(&shape);
        assert_eq!(w.expected_instances(4), expected_tasks(&shape));
        assert_eq!(w.live_tree_bound(), 2);
    }

    #[test]
    fn zero_fanout_level_makes_a_leafless_tree() {
        let shape = Shape {
            fanout: vec![0, 3],
            wait: vec![true; 4],
            work: 0,
        };
        assert_eq!(expected_tasks(&shape), 0);
        assert_eq!(tree_workload(&shape).expected_instances(2), 0);
    }
}
