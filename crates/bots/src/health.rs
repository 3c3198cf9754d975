//! BOTS `health`: discrete-time simulation of a hierarchical health-care
//! system. Each time step recursively simulates the village tree — one
//! task per child village — then processes the local hospital and collects
//! patients referred up by the children.
//!
//! In the paper's Table I, health's tasks average 2.35 µs: far too small,
//! which is why it shows up to 32 % instrumented overhead at one thread
//! (Fig. 13) that shrinks as threads are added and runtime contention
//! shadows the measurement cost.

use crate::util::SendPtr;
use crate::{Outcome, RunOpts, Scale, Variant};
use pomp::{Monitor, RegionId, SplitMix64};
use std::sync::OnceLock;
use std::time::Instant;
use taskrt::{taskwait_region, ParallelConstruct, SingleConstruct, TaskConstruct, TaskCtx, Team};

/// Regions of the health benchmark.
pub struct Regions {
    /// The parallel region.
    pub par: ParallelConstruct,
    /// The per-village simulation task.
    pub task: TaskConstruct,
    /// The per-village taskwait.
    pub tw: RegionId,
    /// The single construct hosting the step loop.
    pub single: SingleConstruct,
}

/// Lazily registered regions.
pub fn regions() -> &'static Regions {
    static R: OnceLock<Regions> = OnceLock::new();
    R.get_or_init(|| Regions {
        par: ParallelConstruct::new("health!parallel"),
        task: TaskConstruct::new("health_village"),
        tw: taskwait_region("health!taskwait"),
        single: SingleConstruct::new("health!single"),
    })
}

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Tree height (root level = `levels - 1`, leaves = 0).
    pub levels: u32,
    /// Children per non-leaf village.
    pub branch: usize,
    /// Initial healthy population per village.
    pub population: usize,
    /// Simulated time steps.
    pub steps: u32,
    /// Input seed.
    pub seed: u64,
}

/// Parameters per scale.
pub fn params(scale: Scale) -> Params {
    match scale {
        Scale::Test => Params {
            levels: 3,
            branch: 3,
            population: 15,
            steps: 20,
            seed: 0x4EA1,
        },
        Scale::Small => Params {
            levels: 4,
            branch: 3,
            population: 20,
            steps: 60,
            seed: 0x4EA1,
        },
        Scale::Medium => Params {
            levels: 5,
            branch: 4,
            population: 20,
            steps: 120,
            seed: 0x4EA1,
        },
    }
}

/// Cut-off: tasks only for villages at or above this level.
pub const CUTOFF_LEVEL: u32 = 2;

const SICK_DENOM: u64 = 15; // P(get sick) = 1/15 per step
const ASSESS_CAPACITY: usize = 2;
const ASSESS_TIME: u32 = 3;
const TREAT_TIME: u32 = 8;
const CURE_NUM: u64 = 4; // P(cured at assessment) = 4/10
const REFER_NUM: u64 = 3; // P(referred up)        = 3/10 (rest: treat here)

/// A patient; the list they sit in encodes their state.
#[derive(Clone, Copy, Debug)]
pub struct Patient {
    /// Steps remaining in the current state.
    pub remaining: u32,
}

/// A village with a hospital.
pub struct Village {
    /// Level in the tree (leaves = 0).
    pub level: u32,
    /// Child villages.
    pub children: Vec<Village>,
    rng: SplitMix64,
    healthy: Vec<Patient>,
    waiting: Vec<Patient>,
    assess: Vec<Patient>,
    inside: Vec<Patient>,
    refer_up: Vec<Patient>,
    treated_total: u64,
}

impl Village {
    /// Build the deterministic village tree.
    pub fn generate(p: &Params) -> Village {
        fn build(level: u32, p: &Params, path: u64) -> Village {
            let children = if level == 0 {
                Vec::new()
            } else {
                (0..p.branch)
                    .map(|i| build(level - 1, p, path * 31 + i as u64 + 1))
                    .collect()
            };
            Village {
                level,
                children,
                rng: SplitMix64::new(p.seed ^ path.wrapping_mul(0x9E37_79B9)),
                healthy: vec![Patient { remaining: 0 }; p.population],
                waiting: Vec::new(),
                assess: Vec::new(),
                inside: Vec::new(),
                refer_up: Vec::new(),
                treated_total: 0,
            }
        }
        build(p.levels - 1, p, 1)
    }

    /// One local hospital step (children are handled by the caller).
    fn step_local(&mut self, is_root: bool) {
        // 1. Healthy population falls sick with a fixed hazard.
        let mut i = 0;
        while i < self.healthy.len() {
            if self.rng.below(SICK_DENOM) == 0 {
                let mut p = self.healthy.swap_remove(i);
                p.remaining = 0;
                self.waiting.push(p);
            } else {
                i += 1;
            }
        }
        // 2. Admit up to the assessment capacity.
        let take = ASSESS_CAPACITY.min(self.waiting.len());
        for mut p in self.waiting.drain(..take) {
            p.remaining = ASSESS_TIME;
            self.assess.push(p);
        }
        // 3. Assessment outcomes.
        let mut k = 0;
        while k < self.assess.len() {
            if self.assess[k].remaining > 0 {
                self.assess[k].remaining -= 1;
                k += 1;
                continue;
            }
            let mut p = self.assess.swap_remove(k);
            let roll = self.rng.below(10);
            if roll < CURE_NUM {
                self.healthy.push(p);
            } else if roll < CURE_NUM + REFER_NUM && !is_root {
                self.refer_up.push(p);
            } else {
                p.remaining = TREAT_TIME;
                self.inside.push(p);
            }
        }
        // 4. Treatment progress.
        let mut k = 0;
        while k < self.inside.len() {
            if self.inside[k].remaining > 0 {
                self.inside[k].remaining -= 1;
                k += 1;
            } else {
                let p = self.inside.swap_remove(k);
                self.treated_total += 1;
                self.healthy.push(p);
            }
        }
    }

    /// Collect patients the children referred upwards.
    fn collect_referrals(&mut self) {
        // Split borrows: move out of children into our waiting list.
        let mut incoming = Vec::new();
        for c in &mut self.children {
            incoming.append(&mut c.refer_up);
        }
        self.waiting.append(&mut incoming);
    }

    /// Serial simulation of one step for this subtree.
    pub fn step_serial(&mut self, is_root: bool) {
        for c in &mut self.children {
            c.step_serial(false);
        }
        self.step_local(is_root);
        self.collect_referrals();
    }

    /// Total patients in this subtree (conservation check).
    pub fn total_patients(&self) -> usize {
        self.healthy.len()
            + self.waiting.len()
            + self.assess.len()
            + self.inside.len()
            + self.refer_up.len()
            + self
                .children
                .iter()
                .map(Village::total_patients)
                .sum::<usize>()
    }

    /// Deterministic state checksum.
    pub fn checksum(&self) -> u64 {
        let mut acc = (self.healthy.len() as u64)
            .wrapping_mul(3)
            .wrapping_add((self.waiting.len() as u64).wrapping_mul(5))
            .wrapping_add((self.assess.len() as u64).wrapping_mul(7))
            .wrapping_add((self.inside.len() as u64).wrapping_mul(11))
            .wrapping_add(self.treated_total.wrapping_mul(13));
        for c in &self.children {
            acc = acc.wrapping_mul(31).wrapping_add(c.checksum());
        }
        acc
    }
}

fn sim_task<'e, M: Monitor>(
    ctx: &TaskCtx<'_, 'e, M>,
    village: SendPtr<Village>,
    is_root: bool,
    cutoff: Option<u32>,
) {
    // SAFETY: each task owns its village subtree exclusively; the parent
    // only touches it again after its taskwait.
    let v = unsafe { village.as_mut() };
    let r = regions();
    let spawn_children = cutoff.is_none_or(|c| v.level >= c);
    for child in &mut v.children {
        if spawn_children {
            let p = SendPtr::new(child);
            ctx.task(&r.task, move |ctx| sim_task(ctx, p, false, cutoff));
        } else {
            child.step_serial(false);
        }
    }
    v.step_local(is_root);
    ctx.taskwait(r.tw);
    v.collect_referrals();
}

/// Run the benchmark.
pub fn run<M: Monitor>(monitor: &M, opts: &RunOpts) -> Outcome {
    let p = params(opts.scale);
    let cutoff = (opts.variant == Variant::Cutoff).then_some(CUTOFF_LEVEL);
    let mut root = Village::generate(&p);
    let initial = root.total_patients();
    let r = regions();
    let team = Team::new(opts.threads);
    let root_ptr = SendPtr::new(&mut root);
    let start = Instant::now();
    team.parallel(monitor, &r.par, |ctx| {
        ctx.single(&r.single, |ctx| {
            for _ in 0..p.steps {
                // SAFETY: the single's executor drives steps sequentially;
                // each step's tasks are joined by taskwaits inside.
                sim_task(ctx, root_ptr, true, cutoff);
                ctx.taskwait(regions().tw);
            }
        });
    });
    let kernel = start.elapsed();
    // Serial reference with identical seeds.
    let mut reference = Village::generate(&p);
    for _ in 0..p.steps {
        reference.step_serial(true);
    }
    let verified = root.checksum() == reference.checksum() && root.total_patients() == initial;
    Outcome {
        kernel,
        checksum: root.checksum(),
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::NullMonitor;

    #[test]
    fn tree_shape_matches_params() {
        let p = params(Scale::Test);
        let v = Village::generate(&p);
        assert_eq!(v.level, p.levels - 1);
        assert_eq!(v.children.len(), p.branch);
        assert!(v.children[0].children[0].children.is_empty());
        fn count(v: &Village) -> usize {
            1 + v.children.iter().map(count).sum::<usize>()
        }
        assert_eq!(count(&v), 1 + 3 + 9);
    }

    #[test]
    fn serial_sim_conserves_patients() {
        let p = params(Scale::Test);
        let mut v = Village::generate(&p);
        let before = v.total_patients();
        for _ in 0..p.steps {
            v.step_serial(true);
        }
        assert_eq!(v.total_patients(), before);
        // Something actually happened.
        assert!(v.checksum() != Village::generate(&p).checksum());
    }

    #[test]
    fn root_never_refers_up() {
        let p = params(Scale::Test);
        let mut v = Village::generate(&p);
        for _ in 0..50 {
            v.step_serial(true);
            assert!(v.refer_up.is_empty());
        }
    }

    #[test]
    fn parallel_matches_serial_all_thread_counts() {
        for threads in [1, 2, 4] {
            let out = run(&NullMonitor, &RunOpts::new(threads).scale(Scale::Test));
            assert!(out.verified, "threads = {threads}");
        }
    }

    #[test]
    fn cutoff_variant_matches() {
        let out = run(
            &NullMonitor,
            &RunOpts::new(4).scale(Scale::Test).variant(Variant::Cutoff),
        );
        assert!(out.verified);
    }
}
