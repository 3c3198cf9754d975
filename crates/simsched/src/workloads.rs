//! Declarative task-graph workloads for schedule exploration.
//!
//! A [`TreeWorkload`] describes a task graph as data — nested [`Step`]
//! lists interpreted against the real [`taskrt::TaskCtx`] API — so the
//! same graph can be run under any seed or choice script and so property
//! tests can *generate* graphs. Virtual time is spent only through
//! [`Step::Work`], which makes every instance's inclusive time a property
//! of the graph, not of the schedule (see [`crate::clock`]).

use crate::clock::SimClock;
use pomp::{registry, Monitor, ParamId, RegionId};
use taskrt::{
    taskwait_region, ParallelConstruct, ParallelOutcome, SingleConstruct, TaskConstruct, TaskCtx,
    Team,
};

/// One step of a workload body. Bodies are step lists executed in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Spend `ns` of virtual time.
    Work(u64),
    /// Create a task instance with the given body (the schedule policy
    /// decides deferred vs. undeferred).
    Task(Vec<Step>),
    /// Wait for the current task's children (task scheduling point).
    Taskwait,
    /// Run the body inside the workload's instrumented user region.
    Region(Vec<Step>),
    /// Run the body inside a parameter scope with the given value.
    Param(i64, Vec<Step>),
}

impl Step {
    /// Shorthand for a task that just works for `ns`.
    pub fn leaf(ns: u64) -> Step {
        Step::Task(vec![Step::Work(ns)])
    }
}

fn nesting_depth(steps: &[Step]) -> usize {
    steps
        .iter()
        .map(|s| match s {
            Step::Task(body) => 1 + nesting_depth(body),
            Step::Region(body) | Step::Param(_, body) => nesting_depth(body),
            Step::Work(_) | Step::Taskwait => 0,
        })
        .max()
        .unwrap_or(0)
}

fn count_tasks(steps: &[Step]) -> u64 {
    steps
        .iter()
        .map(|s| match s {
            Step::Task(body) => 1 + count_tasks(body),
            Step::Region(body) | Step::Param(_, body) => count_tasks(body),
            Step::Work(_) | Step::Taskwait => 0,
        })
        .sum()
}

/// A schedule-explorable workload: one parallel region in which every
/// thread runs `prologue` as its implicit task, then a `single` construct
/// whose winner runs `single_body`. All tasks are instances of one task
/// construct, so the profile invariants have a single construct to check.
#[derive(Clone, Debug)]
pub struct TreeWorkload {
    name: String,
    par: ParallelConstruct,
    task: TaskConstruct,
    tw: RegionId,
    single: SingleConstruct,
    region: RegionId,
    param: ParamId,
    prologue: Vec<Step>,
    single_body: Vec<Step>,
}

impl TreeWorkload {
    /// A workload named `name` (regions are registered under that name —
    /// reuse the same name for the same graph to avoid growing the region
    /// registry).
    pub fn new(name: &str, prologue: Vec<Step>, single_body: Vec<Step>) -> Self {
        Self {
            name: name.to_string(),
            par: ParallelConstruct::new(&format!("{name}!parallel")),
            task: TaskConstruct::new(&format!("{name}!task")),
            tw: taskwait_region(&format!("{name}!taskwait")),
            single: SingleConstruct::new(&format!("{name}!single")),
            region: registry().register(
                &format!("{name}!region"),
                pomp::RegionKind::Function,
                file!(),
                line!(),
            ),
            param: registry().register_param(&format!("{name}!param")),
            prologue,
            single_body,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parallel region id (root of every thread's main tree).
    pub fn parallel_region(&self) -> RegionId {
        self.par.region
    }

    /// The task construct all instances belong to.
    pub fn task_region(&self) -> RegionId {
        self.task.task
    }

    /// The task construct's creation-site region.
    pub fn create_region(&self) -> RegionId {
        self.task.create
    }

    /// The single region (the winner's body executes inside it).
    pub fn single_region(&self) -> RegionId {
        self.single.region
    }

    /// The instrumented user region [`Step::Region`] bodies run inside.
    pub fn user_region(&self) -> RegionId {
        self.region
    }

    /// The same graph with every [`Step::Work`] attributed to `target`
    /// divided by `k` — the workload a replay-checked what-if runs.
    /// Regions are re-registered under the same name, so every id is
    /// identical to this workload's (the registry is idempotent).
    ///
    /// Returns `None` if any affected work amount is not divisible by
    /// `k`: integer virtual time cannot represent the sped-up graph
    /// exactly, and an inexact graph would break the bit-exact replay
    /// check (callers should pick test workloads with divisible weights).
    pub fn speedup_region(&self, target: RegionId, k: u64) -> Option<TreeWorkload> {
        assert!(k >= 1, "speedup factor must be >= 1");
        // Walk with the same attribution the profiler applies: work inside
        // a task body belongs to the task region, inside a `Step::Region`
        // to the user region, prologue work to the parallel region, and
        // the single winner's body to the single region. Parameter scopes
        // are transparent.
        fn scale(
            steps: &[Step],
            ctx: RegionId,
            target: RegionId,
            k: u64,
            task: RegionId,
            user: RegionId,
        ) -> Option<Vec<Step>> {
            steps
                .iter()
                .map(|s| match s {
                    Step::Work(ns) => {
                        if ctx == target {
                            (ns % k == 0).then(|| Step::Work(ns / k))
                        } else {
                            Some(Step::Work(*ns))
                        }
                    }
                    Step::Task(body) => scale(body, task, target, k, task, user).map(Step::Task),
                    Step::Taskwait => Some(Step::Taskwait),
                    Step::Region(body) => {
                        scale(body, user, target, k, task, user).map(Step::Region)
                    }
                    Step::Param(v, body) => {
                        scale(body, ctx, target, k, task, user).map(|b| Step::Param(*v, b))
                    }
                })
                .collect()
        }
        let prologue = scale(
            &self.prologue,
            self.par.region,
            target,
            k,
            self.task.task,
            self.region,
        )?;
        let single_body = scale(
            &self.single_body,
            self.single.region,
            target,
            k,
            self.task.task,
            self.region,
        )?;
        Some(TreeWorkload::new(&self.name, prologue, single_body))
    }

    /// Table II bound: with tied tasks, a thread only stacks an instance
    /// on top of another at a taskwait inside it (or by running one
    /// undeferred), and the new instance is always a strict descendant —
    /// so the live-instance chain can never be longer than the graph's
    /// maximum task nesting depth.
    pub fn live_tree_bound(&self) -> usize {
        nesting_depth(&self.prologue).max(nesting_depth(&self.single_body))
    }

    /// Exact number of task instances a team of `nthreads` creates:
    /// every thread runs the prologue, one thread runs the single body.
    pub fn expected_instances(&self, nthreads: usize) -> u64 {
        count_tasks(&self.prologue) * nthreads as u64 + count_tasks(&self.single_body)
    }

    fn exec<'env, M: Monitor>(
        &'env self,
        ctx: &TaskCtx<'_, 'env, M>,
        clock: &'env SimClock,
        steps: &'env [Step],
    ) {
        for step in steps {
            match step {
                Step::Work(ns) => clock.work(*ns),
                Step::Task(body) => {
                    ctx.task(&self.task, move |c| self.exec(c, clock, body));
                }
                Step::Taskwait => ctx.taskwait(self.tw),
                Step::Region(body) => {
                    ctx.region(self.region, |c| self.exec(c, clock, body));
                }
                Step::Param(value, body) => {
                    ctx.parameter(self.param, *value, |c| self.exec(c, clock, body));
                }
            }
        }
    }

    /// Run the workload on `team` under `monitor`, spending virtual time
    /// on `clock` (the simulation scheduler's clock).
    pub fn run<M: Monitor>(&self, team: &Team, monitor: &M, clock: &SimClock) -> ParallelOutcome {
        team.parallel(monitor, &self.par, |ctx| {
            self.exec(ctx, clock, &self.prologue);
            ctx.single(&self.single, |c| self.exec(c, clock, &self.single_body));
        })
    }
}

/// Recursive fib-style binary task tree of the given depth: each task
/// spawns two children and taskwaits, like the paper's `fib` kernel.
pub fn fib_like(depth: usize) -> TreeWorkload {
    fn node(depth: usize) -> Vec<Step> {
        if depth == 0 {
            return vec![Step::Work(10)];
        }
        vec![
            Step::Work(5),
            Step::Task(node(depth - 1)),
            Step::Task(node(depth - 1)),
            Step::Taskwait,
            Step::Work(2),
        ]
    }
    TreeWorkload::new(
        &format!("sim-fib-{depth}"),
        vec![],
        vec![Step::Task(node(depth)), Step::Taskwait],
    )
}

/// Fib-style binary tree whose every work amount is a multiple of 60, so
/// [`TreeWorkload::speedup_region`] stays integer-exact for any
/// K ∈ {2, 3, 4, 5, 6}: the workload behind the what-if validation demos
/// and the replay-exactness test suite.
pub fn divisible(depth: usize) -> TreeWorkload {
    fn node(depth: usize) -> Vec<Step> {
        if depth == 0 {
            return vec![Step::Work(120)];
        }
        vec![
            Step::Work(60),
            Step::Task(node(depth - 1)),
            Step::Task(node(depth - 1)),
            Step::Taskwait,
            Step::Work(60),
        ]
    }
    TreeWorkload::new(
        &format!("sim-div-{depth}"),
        vec![],
        vec![Step::Task(node(depth)), Step::Taskwait],
    )
}

/// Flat producer: the single winner spawns `n` leaf tasks of varied sizes
/// and taskwaits — the classic single-producer pattern (paper Fig. 5).
pub fn flat(n: usize) -> TreeWorkload {
    let mut body: Vec<Step> = (0..n)
        .map(|i| Step::leaf(10 + (i as u64 % 7) * 3))
        .collect();
    body.push(Step::Taskwait);
    TreeWorkload::new(&format!("sim-flat-{n}"), vec![], body)
}

/// Mixed stressor: every thread spawns a nested tree from its implicit
/// task (concurrent producers), then the single winner runs a deeper tree
/// with parameter scopes and an inner user region.
pub fn mixed() -> TreeWorkload {
    let prologue = vec![
        Step::Work(3),
        Step::Task(vec![
            Step::Work(8),
            Step::Task(vec![Step::Work(4)]),
            Step::Taskwait,
        ]),
        Step::leaf(6),
        Step::Taskwait,
    ];
    let single_body = vec![
        Step::Region(vec![
            Step::Param(
                1,
                vec![Step::Task(vec![
                    Step::Work(5),
                    Step::Param(2, vec![Step::Task(vec![Step::Work(9)]), Step::Taskwait]),
                ])],
            ),
            Step::Task(vec![Step::Work(11)]),
            Step::Taskwait,
        ]),
        Step::Work(1),
    ];
    TreeWorkload::new("sim-mixed", prologue, single_body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_and_count_walk_nested_bodies() {
        let steps = vec![
            Step::Task(vec![Step::Task(vec![Step::Work(1)]), Step::Taskwait]),
            Step::Region(vec![Step::Task(vec![Step::Work(1)])]),
        ];
        assert_eq!(nesting_depth(&steps), 2);
        assert_eq!(count_tasks(&steps), 3);
    }

    #[test]
    fn workload_accounting() {
        let w = TreeWorkload::new(
            "sim-acct-test",
            vec![Step::leaf(1), Step::Taskwait],
            vec![Step::Task(vec![Step::leaf(1), Step::Taskwait])],
        );
        assert_eq!(w.live_tree_bound(), 2);
        assert_eq!(w.expected_instances(3), 3 + 2);
    }

    #[test]
    fn builders_make_consistent_graphs() {
        assert_eq!(fib_like(2).live_tree_bound(), 3);
        assert_eq!(fib_like(2).expected_instances(4), 7);
        assert_eq!(flat(5).expected_instances(2), 5);
        assert_eq!(flat(5).live_tree_bound(), 1);
        assert!(mixed().expected_instances(2) > 0);
    }
}
