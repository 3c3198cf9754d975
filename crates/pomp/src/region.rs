//! Interned source-code regions.
//!
//! Every profilable entity — a task construct, a taskwait, a barrier, a task
//! creation site, a user function — is registered once and referred to by a
//! compact [`RegionId`]. This mirrors the region handles OPARI2 generates as
//! static descriptors in the instrumented source: the [`crate::region!`]
//! macro caches the id in a per-call-site `OnceLock`, so after the first
//! call registration is a single atomic load.

use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Compact handle for an interned region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RegionId(pub u32);

impl RegionId {
    /// Index into the registry's region table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Compact handle for an interned parameter name (paper Section VI,
/// "parameter instrumentation" — e.g. the recursion depth of `nqueens`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ParamId(pub u32);

/// What kind of construct a region instruments.
///
/// The profiler treats most kinds identically (they are just call-tree
/// nodes); the kind matters for analysis queries ("exclusive time of all
/// taskwait regions") and for rendering.
///
/// The discriminants are the kind's byte in stored binary records
/// (`kind as u8`, [`RegionKind::from_u8`]): append, never renumber.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RegionKind {
    /// An instrumented user function or code region.
    Function = 0,
    /// A `parallel` construct (the implicit tasks' root).
    Parallel = 1,
    /// An explicit `task` construct: the root region of every instance
    /// created by that construct.
    Task = 2,
    /// The task *creation* region: entered/exited by the encountering thread
    /// around queuing a deferred task (paper Fig. 7, "create A").
    TaskCreate = 3,
    /// A `taskwait` construct — a task scheduling point.
    Taskwait = 4,
    /// The implicit barrier at the end of a parallel region — a scheduling
    /// point in which threads execute queued tasks (paper Fig. 8).
    ImplicitBarrier = 5,
    /// An explicit `barrier` construct.
    ExplicitBarrier = 6,
    /// A `single` construct (BOTS uses it for single-creator codes).
    Single = 7,
    /// A `for` worksharing construct (BOTS provides for-versions of
    /// alignment and sparselu alongside the task versions).
    Workshare = 8,
    /// A named `critical` section (lock acquisition shows up as exclusive
    /// time of this region — lock-contention profiling).
    Critical = 9,
    /// Anything else the user wants on the call path.
    User = 10,
}

impl RegionKind {
    /// Short lowercase label used by renderers: the store [`tag`](Self::tag)
    /// except for the two kinds renderers abbreviate.
    pub fn label(self) -> &'static str {
        match self {
            RegionKind::Function => "fn",
            RegionKind::User => "region",
            other => other.tag(),
        }
    }

    /// The kind's name in the text profile store (`taskprof-profile v1`).
    /// A file format: never rename one.
    #[inline]
    pub fn tag(self) -> &'static str {
        match self {
            RegionKind::Function => "function",
            RegionKind::Parallel => "parallel",
            RegionKind::Task => "task",
            RegionKind::TaskCreate => "create",
            RegionKind::Taskwait => "taskwait",
            RegionKind::ImplicitBarrier => "ibarrier",
            RegionKind::ExplicitBarrier => "barrier",
            RegionKind::Single => "single",
            RegionKind::Workshare => "for",
            RegionKind::Critical => "critical",
            RegionKind::User => "user",
        }
    }

    /// Inverse of [`tag`](Self::tag); `None` for an unknown tag.
    #[inline]
    pub fn from_tag(tag: &str) -> Option<RegionKind> {
        Some(match tag {
            "function" => RegionKind::Function,
            "parallel" => RegionKind::Parallel,
            "task" => RegionKind::Task,
            "create" => RegionKind::TaskCreate,
            "taskwait" => RegionKind::Taskwait,
            "ibarrier" => RegionKind::ImplicitBarrier,
            "barrier" => RegionKind::ExplicitBarrier,
            "single" => RegionKind::Single,
            "for" => RegionKind::Workshare,
            "critical" => RegionKind::Critical,
            "user" => RegionKind::User,
            _ => return None,
        })
    }

    /// Inverse of `kind as u8`, the kind's byte in the binary record
    /// codec; `None` for a byte no kind has.
    #[inline]
    pub fn from_u8(byte: u8) -> Option<RegionKind> {
        Some(match byte {
            0 => RegionKind::Function,
            1 => RegionKind::Parallel,
            2 => RegionKind::Task,
            3 => RegionKind::TaskCreate,
            4 => RegionKind::Taskwait,
            5 => RegionKind::ImplicitBarrier,
            6 => RegionKind::ExplicitBarrier,
            7 => RegionKind::Single,
            8 => RegionKind::Workshare,
            9 => RegionKind::Critical,
            10 => RegionKind::User,
            _ => return None,
        })
    }

    /// True for kinds that are task scheduling points in OpenMP 3.0: task
    /// creation, taskwait, and barriers. (Task completion is also a
    /// scheduling point but has no region of its own.)
    pub fn is_scheduling_point(self) -> bool {
        matches!(
            self,
            RegionKind::TaskCreate
                | RegionKind::Taskwait
                | RegionKind::ImplicitBarrier
                | RegionKind::ExplicitBarrier
        )
    }
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Metadata stored for a registered region.
#[derive(Clone, Debug)]
pub struct RegionInfo {
    /// Display name, e.g. `"nqueens"` or `"taskwait@nqueens.rs:42"`.
    pub name: String,
    /// Construct kind.
    pub kind: RegionKind,
    /// Source file of the registration site (`file!()` via the macro).
    pub file: &'static str,
    /// Source line of the registration site.
    pub line: u32,
}

/// Number of [`RegionKind`] variants (`User` is the last one).
const KINDS: usize = RegionKind::User as usize + 1;

#[derive(Default)]
struct Inner {
    regions: Vec<RegionInfo>,
    /// One name → id map per [`RegionKind`] (indexed by discriminant), so
    /// a `&str` probes it without building an owned `(String, kind)` key.
    by_name: [HashMap<String, RegionId>; KINDS],
    params: Vec<String>,
    params_by_name: HashMap<String, ParamId>,
}

/// Global region registry.
///
/// Cheap to read after registration; registration takes a write lock and is
/// expected to happen once per call site (see [`crate::region!`]).
#[derive(Default)]
pub struct Registry {
    inner: RwLock<Inner>,
}

/// The registry's tables behind one read lock, handing out borrowed
/// names: what a renderer or encoder that names every node of a tree
/// holds for the length of its walk. Registering (on this thread) while
/// a view is alive deadlocks.
pub struct RegistryView<'a>(RwLockReadGuard<'a, Inner>);

impl RegistryView<'_> {
    /// Metadata for `id`. Panics on an id from a different registry.
    pub fn info(&self, id: RegionId) -> &RegionInfo {
        &self.0.regions[id.index()]
    }

    /// Name of an interned parameter.
    pub fn param_name(&self, id: ParamId) -> &str {
        &self.0.params[id.0 as usize]
    }
}

impl Registry {
    /// Create an empty registry. Most users want the global [`registry()`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a region. Registering the same `(name, kind)` twice returns
    /// the same id (the first registration's file/line win).
    pub fn register(
        &self,
        name: &str,
        kind: RegionKind,
        file: &'static str,
        line: u32,
    ) -> RegionId {
        if let Some(id) = self.lookup(name, kind) {
            return id;
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_name[kind as usize].get(name) {
            return id;
        }
        let id = RegionId(u32::try_from(inner.regions.len()).expect("region table overflow"));
        inner.regions.push(RegionInfo {
            name: name.to_owned(),
            kind,
            file,
            line,
        });
        inner.by_name[kind as usize].insert(name.to_owned(), id);
        id
    }

    /// Intern a parameter name.
    pub fn register_param(&self, name: &str) -> ParamId {
        if let Some(&id) = self.inner.read().params_by_name.get(name) {
            return id;
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.params_by_name.get(name) {
            return id;
        }
        let id = ParamId(u32::try_from(inner.params.len()).expect("param table overflow"));
        inner.params.push(name.to_owned());
        inner.params_by_name.insert(name.to_owned(), id);
        id
    }

    /// Borrowed access to every name under one read lock.
    pub fn view(&self) -> RegistryView<'_> {
        RegistryView(self.inner.read())
    }

    /// Metadata for `id` (clones the name; walks over whole trees should
    /// borrow through [`Registry::view`]). Panics on an id from a
    /// different registry.
    pub fn info(&self, id: RegionId) -> RegionInfo {
        self.view().info(id).clone()
    }

    /// Display name for `id` (allocates, see [`Registry::info`]).
    pub fn name(&self, id: RegionId) -> String {
        self.view().info(id).name.clone()
    }

    /// Construct kind for `id`.
    pub fn kind(&self, id: RegionId) -> RegionKind {
        self.view().info(id).kind
    }

    /// Name of an interned parameter.
    pub fn param_name(&self, id: ParamId) -> String {
        self.view().param_name(id).to_owned()
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.inner.read().regions.len()
    }

    /// True when no region has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of interned parameter names.
    pub fn param_count(&self) -> usize {
        self.inner.read().params.len()
    }

    /// Look up an already-registered region by name and kind.
    pub fn lookup(&self, name: &str, kind: RegionKind) -> Option<RegionId> {
        self.inner.read().by_name[kind as usize].get(name).copied()
    }
}

/// The process-global registry used by the `region!` macro, the runtime,
/// and the profiler.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Register (once) and return the [`RegionId`] for this call site.
///
/// ```
/// use pomp::{region, RegionKind};
/// let id = region!("compute", RegionKind::Task);
/// assert_eq!(id, region!("compute", RegionKind::Task));
/// ```
#[macro_export]
macro_rules! region {
    ($name:expr, $kind:expr) => {{
        static __POMP_REGION: ::std::sync::OnceLock<$crate::RegionId> =
            ::std::sync::OnceLock::new();
        *__POMP_REGION.get_or_init(|| {
            $crate::registry().register($name, $kind, ::core::file!(), ::core::line!())
        })
    }};
}

/// Register (once) and return the [`ParamId`] for this call site.
#[macro_export]
macro_rules! param {
    ($name:expr) => {{
        static __POMP_PARAM: ::std::sync::OnceLock<$crate::ParamId> =
            ::std::sync::OnceLock::new();
        *__POMP_PARAM.get_or_init(|| $crate::registry().register_param($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_spellings_round_trip() {
        for byte in 0..KINDS as u8 {
            let kind = RegionKind::from_u8(byte).expect("every byte below KINDS is a kind");
            assert_eq!(kind as u8, byte);
            assert_eq!(RegionKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(RegionKind::from_u8(KINDS as u8), None);
        assert_eq!(RegionKind::from_tag("fn"), None);
    }

    #[test]
    fn register_is_idempotent() {
        let r = Registry::new();
        let a = r.register("x", RegionKind::Task, "f", 1);
        let b = r.register("x", RegionKind::Task, "g", 2);
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
        // First registration wins for metadata.
        assert_eq!(r.info(a).file, "f");
    }

    #[test]
    fn same_name_different_kind_distinct() {
        let r = Registry::new();
        let a = r.register("x", RegionKind::Task, "f", 1);
        let b = r.register("x", RegionKind::Taskwait, "f", 2);
        assert_ne!(a, b);
        assert_eq!(r.kind(a), RegionKind::Task);
        assert_eq!(r.kind(b), RegionKind::Taskwait);
    }

    #[test]
    fn params_interned() {
        let r = Registry::new();
        let a = r.register_param("depth");
        let b = r.register_param("depth");
        let c = r.register_param("level");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(r.param_name(c), "level");
    }

    #[test]
    fn lookup_finds_registered() {
        let r = Registry::new();
        assert!(r.lookup("y", RegionKind::Task).is_none());
        let id = r.register("y", RegionKind::Task, "f", 1);
        assert_eq!(r.lookup("y", RegionKind::Task), Some(id));
        assert!(r.lookup("y", RegionKind::Function).is_none());
    }

    #[test]
    fn macro_caches_global_id() {
        let a = crate::region!("macro-test-region", RegionKind::User);
        let b = crate::region!("macro-test-region", RegionKind::User);
        assert_eq!(a, b);
        let p = crate::param!("macro-test-param");
        assert_eq!(registry().param_name(p), "macro-test-param");
    }

    #[test]
    fn scheduling_point_kinds() {
        assert!(RegionKind::Taskwait.is_scheduling_point());
        assert!(RegionKind::ImplicitBarrier.is_scheduling_point());
        assert!(RegionKind::ExplicitBarrier.is_scheduling_point());
        assert!(RegionKind::TaskCreate.is_scheduling_point());
        assert!(!RegionKind::Task.is_scheduling_point());
        assert!(!RegionKind::Function.is_scheduling_point());
    }

    #[test]
    fn concurrent_registration_race() {
        let r = std::sync::Arc::new(Registry::new());
        let mut handles = vec![];
        for _ in 0..8 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|i| r.register(&format!("r{i}"), RegionKind::Task, "f", 0))
                    .collect::<Vec<_>>()
            }));
        }
        let ids: Vec<Vec<RegionId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in ids.windows(2) {
            assert_eq!(w[0], w[1], "all threads must agree on interned ids");
        }
        assert_eq!(r.len(), 100);
    }
}
