//! Pre-registered region bundles for the OpenMP-like constructs.
//!
//! OPARI2 generates one static region descriptor per construct in the
//! source; these types are the equivalent: register them once (e.g. in a
//! lazily-initialized struct per application) and pass references into the
//! hot paths.

use pomp::{registry, RegionId, RegionKind};

/// Regions of a `task` construct: the task region itself plus its creation
/// region (entered/exited by the encountering thread while queuing an
/// instance — paper Fig. 7 "create A").
#[derive(Clone, Copy, Debug)]
pub struct TaskConstruct {
    /// Root region of every instance of this construct.
    pub task: RegionId,
    /// The creation-site region.
    pub create: RegionId,
}

impl TaskConstruct {
    /// Register (or look up) the construct named `name`.
    pub fn new(name: &str) -> Self {
        let r = registry();
        Self {
            task: r.register(name, RegionKind::Task, file!(), line!()),
            create: r.register(
                &format!("{name}!create"),
                RegionKind::TaskCreate,
                file!(),
                line!(),
            ),
        }
    }
}

/// Regions of a `parallel` construct: the region itself plus the implicit
/// barrier at its end.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConstruct {
    /// The parallel region (root of each thread's main call tree).
    pub region: RegionId,
    /// The implicit barrier at region end.
    pub ibarrier: RegionId,
}

impl ParallelConstruct {
    /// Register (or look up) the construct named `name`.
    pub fn new(name: &str) -> Self {
        let r = registry();
        Self {
            region: r.register(name, RegionKind::Parallel, file!(), line!()),
            ibarrier: r.register(
                &format!("{name}!ibarrier"),
                RegionKind::ImplicitBarrier,
                file!(),
                line!(),
            ),
        }
    }
}

/// Regions of a `single` construct: the region plus its implied barrier.
#[derive(Clone, Copy, Debug)]
pub struct SingleConstruct {
    /// The single region (all threads enter/exit; one executes the body).
    pub region: RegionId,
    /// The implied barrier at the end of the construct.
    pub barrier: RegionId,
}

impl SingleConstruct {
    /// Register (or look up) the construct named `name`.
    pub fn new(name: &str) -> Self {
        let r = registry();
        Self {
            region: r.register(name, RegionKind::Single, file!(), line!()),
            barrier: r.register(
                &format!("{name}!barrier"),
                RegionKind::ImplicitBarrier,
                file!(),
                line!(),
            ),
        }
    }
}

/// Regions of a `for` worksharing construct: the loop region plus its
/// implied barrier.
#[derive(Clone, Copy, Debug)]
pub struct ForConstruct {
    /// The worksharing region (all threads enter/exit; iterations are
    /// divided among them).
    pub region: RegionId,
    /// The implied barrier at the end of the construct.
    pub barrier: RegionId,
}

impl ForConstruct {
    /// Register (or look up) the construct named `name`.
    pub fn new(name: &str) -> Self {
        let r = registry();
        Self {
            region: r.register(name, RegionKind::Workshare, file!(), line!()),
            barrier: r.register(
                &format!("{name}!barrier"),
                RegionKind::ImplicitBarrier,
                file!(),
                line!(),
            ),
        }
    }
}

/// Register (or look up) a `taskwait` region named `name`.
pub fn taskwait_region(name: &str) -> RegionId {
    registry().register(name, RegionKind::Taskwait, file!(), line!())
}

/// Register (or look up) an explicit `barrier` region named `name`.
pub fn barrier_region(name: &str) -> RegionId {
    registry().register(name, RegionKind::ExplicitBarrier, file!(), line!())
}

/// Register (or look up) a named `critical` region.
pub fn critical_region(name: &str) -> RegionId {
    registry().register(name, RegionKind::Critical, file!(), line!())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_register_paired_regions() {
        let t = TaskConstruct::new("tc-test");
        assert_eq!(registry().kind(t.task), RegionKind::Task);
        assert_eq!(registry().kind(t.create), RegionKind::TaskCreate);
        assert_eq!(registry().name(t.create), "tc-test!create");
        // Idempotent.
        let t2 = TaskConstruct::new("tc-test");
        assert_eq!(t.task, t2.task);
        assert_eq!(t.create, t2.create);
    }

    #[test]
    fn parallel_and_single_register() {
        let p = ParallelConstruct::new("pc-test");
        assert_eq!(registry().kind(p.ibarrier), RegionKind::ImplicitBarrier);
        let s = SingleConstruct::new("sc-test");
        assert_eq!(registry().kind(s.region), RegionKind::Single);
        let tw = taskwait_region("tw-test");
        assert_eq!(registry().kind(tw), RegionKind::Taskwait);
        let b = barrier_region("b-test");
        assert_eq!(registry().kind(b), RegionKind::ExplicitBarrier);
    }
}
