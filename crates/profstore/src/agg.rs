//! Cross-run aggregation and regression checking.
//!
//! `cube::agg` merges the threads of *one* run; this module folds *many
//! runs* of the same benchmark into one aggregate: per-construct
//! min/max/mean/sum over runs (the paper's per-node statistics, lifted
//! one level up). The fold is strictly one-run-at-a-time, over a
//! [`RunSummary`] per run. The store makes each one straight from the
//! record's bytes ([`RunSummary::from_record`]): a query, a trend or a
//! compaction decodes no profile and names nothing in the registry.

use crate::codec::{walk_record, CodecError, NodeRef, Visit};
use pomp::{registry, RegionKind};
use std::collections::{BTreeMap, HashMap};
use taskprof::{NodeKind, Profile};

/// min/max/mean/sum of one metric over runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricAgg {
    /// Number of runs folded in.
    pub count: u64,
    /// Sum over runs.
    pub sum: u64,
    /// Minimum over runs (`u64::MAX` while empty).
    pub min: u64,
    /// Maximum over runs.
    pub max: u64,
}

/// Same as [`MetricAgg::new`]: the empty-minimum sentinel is `u64::MAX`,
/// so a derived all-zero default would corrupt the first `min` fold.
impl Default for MetricAgg {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricAgg {
    /// Empty aggregate.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Fold one run's value.
    pub fn fold(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean over folded runs (0.0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Minimum as an `Option` (None while empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }
}

/// What a node stands for, owned: [`NodeRef`] with its names copied out
/// of the record or the registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Construct {
    /// A region of this kind and name.
    Region(RegionKind, String),
    /// The stub of the task region of this name.
    Stub(String),
    /// A parameter of this name at this value.
    Param(String, i64),
    /// A truncation marker.
    Truncated,
}

impl From<NodeRef<'_>> for Construct {
    fn from(node: NodeRef<'_>) -> Self {
        match node {
            NodeRef::Region(kind, name) => Construct::Region(kind, name.to_owned()),
            NodeRef::Stub(name) => Construct::Stub(name.to_owned()),
            NodeRef::Param(name, v) => Construct::Param(name.to_owned(), v),
            NodeRef::Truncated => Construct::Truncated,
        }
    }
}

/// One run reduced to the per-construct totals the cross-run statistics
/// are built from: inclusive nanoseconds summed per region name over
/// every thread's trees (task trees included, parameter nodes skipped).
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Root (parallel region) inclusive time, summed over threads.
    pub total_ns: u64,
    /// Per-construct inclusive nanoseconds, keyed by display name
    /// (stub nodes get a ` (stub)` suffix to stay distinct).
    pub regions: BTreeMap<String, u64>,
    /// The root of the first thread's main tree (`None`: no threads).
    /// The registry dedups regions by (name, kind), so two runs' roots
    /// are the same node kind exactly when they are spelled alike.
    pub root: Option<Construct>,
}

impl RunSummary {
    /// Reduce one profile (all zero for one without threads).
    ///
    /// Walks the per-thread trees as they are: the totals are sums, so
    /// they equal those of the cross-thread merge `cube::AggProfile`
    /// builds, without building it. Nodes are gathered by identity and
    /// each distinct construct is named once.
    pub fn from_profile(p: &Profile) -> Self {
        let mut total_ns = 0;
        // ((region, is stub), inclusive ns) of every construct node.
        let mut nodes = Vec::new();
        for thread in &p.threads {
            total_ns += thread.main.stats.sum_ns;
            for tree in std::iter::once(&thread.main).chain(&thread.task_trees) {
                tree.walk(&mut |_, node| match node.kind {
                    NodeKind::Region(id) => nodes.push(((id, false), node.stats.sum_ns)),
                    NodeKind::Stub(id) => nodes.push(((id, true), node.stats.sum_ns)),
                    NodeKind::Param(..) | NodeKind::Truncated => {}
                });
            }
        }
        nodes.sort_unstable_by_key(|&(key, _)| key);
        let names = registry().view();
        let root = p
            .threads
            .first()
            .map(|t| NodeRef::of(t.main.kind, &names).into());
        let mut regions = BTreeMap::new();
        for same in nodes.chunk_by(|a, b| a.0 == b.0) {
            let (id, stub) = same[0].0;
            let key = display_name(&names.info(id).name, stub);
            // Two region ids may share one display name.
            *regions.entry(key).or_insert(0) += same.iter().map(|&(_, ns)| ns).sum::<u64>();
        }
        Self {
            total_ns,
            regions,
            root,
        }
    }

    /// Reduce one record payload as [`RunSummary::from_profile`] reduces
    /// the profile it spells, straight from its bytes: one walk, no tree,
    /// no registry. Refuses exactly what
    /// [`decode_record`](crate::decode_record) refuses, with its error.
    pub fn from_record(payload: &[u8]) -> Result<Self, CodecError> {
        let mut fold = Fold::default();
        walk_record(payload, false, &mut fold)?;
        let Fold {
            total_ns,
            root,
            nodes,
        } = fold;
        let mut regions = BTreeMap::new();
        for ((name, stub), ns) in nodes {
            *regions.entry(display_name(name, stub)).or_insert(0) += ns;
        }
        Ok(Self {
            total_ns,
            regions,
            root,
        })
    }
}

/// The visitor of [`RunSummary::from_record`]: inclusive ns per
/// (name, is stub), names borrowed from the payload.
#[derive(Default)]
struct Fold<'a> {
    total_ns: u64,
    root: Option<Construct>,
    nodes: HashMap<(&'a str, bool), u64>,
}

impl<'a> Visit<'a> for Fold<'a> {
    fn node(&mut self, node: NodeRef<'a>, stats: &[u64; 6], _children: u64, main_root: bool) {
        let sum_ns = stats[1];
        if main_root {
            self.total_ns += sum_ns;
            self.root.get_or_insert_with(|| Construct::from(node));
        }
        let key = match node {
            NodeRef::Region(_, name) => (name, false),
            NodeRef::Stub(name) => (name, true),
            NodeRef::Param(..) | NodeRef::Truncated => return,
        };
        *self.nodes.entry(key).or_insert(0) += sum_ns;
    }
}

/// The [`RunSummary::regions`] key of a construct: stubs get a ` (stub)`
/// suffix to stay distinct from their task region.
fn display_name(name: &str, stub: bool) -> String {
    if stub {
        format!("{name} (stub)")
    } else {
        name.to_owned()
    }
}

/// Cross-run aggregate of one (benchmark, thread count) group.
#[derive(Clone, Debug, Default)]
pub struct BenchAgg {
    /// Runs folded in.
    pub runs: u64,
    /// Run total (root inclusive) over runs.
    pub total_ns: MetricAgg,
    /// Per-construct inclusive time over runs, keyed like
    /// [`RunSummary::regions`].
    pub regions: BTreeMap<String, MetricAgg>,
    /// Runs whose root construct is not that of the first run folded
    /// (their scalar statistics still count).
    pub tree_mismatches: u64,
    /// Root construct of the first run folded that had one.
    first_root: Option<Construct>,
}

impl BenchAgg {
    /// Empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one run's profile ([`BenchAgg::fold_summary`] of its
    /// [`RunSummary::from_profile`]).
    pub fn fold(&mut self, profile: &Profile) {
        self.fold_summary(RunSummary::from_profile(profile));
    }

    /// Fold one run.
    pub fn fold_summary(&mut self, run: RunSummary) {
        self.runs += 1;
        self.total_ns.fold(run.total_ns);
        for (key, ns) in run.regions {
            self.regions.entry(key).or_default().fold(ns);
        }
        if let Some(root) = run.root {
            match &self.first_root {
                Some(first) => self.tree_mismatches += u64::from(*first != root),
                None => self.first_root = Some(root),
            }
        }
    }

    /// The `n` largest constructs by summed inclusive time over runs.
    pub fn top_regions(&self, n: usize) -> Vec<(&str, &MetricAgg)> {
        let mut rows: Vec<(&str, &MetricAgg)> =
            self.regions.iter().map(|(k, v)| (k.as_str(), v)).collect();
        // Sort by sum descending; the BTreeMap key breaks ties, keeping
        // the ordering byte-stable across identical sweeps.
        rows.sort_by(|a, b| b.1.sum.cmp(&a.1.sum).then_with(|| a.0.cmp(b.0)));
        rows.truncate(n);
        rows
    }

    /// Check a new run against this aggregate.
    pub fn check_regression(&self, new_run: &RunSummary, config: &RegressConfig) -> Regression {
        let mut findings = Vec::new();
        if self.runs >= config.min_runs {
            let mut consider = |region: &str, new_ns: u64, agg: &MetricAgg| {
                let mean = agg.mean();
                let grew_by = new_ns as f64 - mean;
                if mean > 0.0
                    && grew_by > config.min_delta_ns as f64
                    && new_ns as f64 > mean * (1.0 + config.threshold)
                {
                    findings.push(RegressionFinding {
                        region: region.to_string(),
                        new_ns,
                        mean_ns: mean,
                        ratio: new_ns as f64 / mean,
                    });
                }
            };
            consider("(total)", new_run.total_ns, &self.total_ns);
            for (region, agg) in &self.regions {
                if let Some(new_ns) = new_run.regions.get(region) {
                    consider(region, *new_ns, agg);
                }
            }
        }
        Regression {
            baseline_runs: self.runs,
            threshold: config.threshold,
            regressed: !findings.is_empty(),
            findings,
        }
    }
}

/// Tunables for [`BenchAgg::check_regression`].
#[derive(Clone, Copy, Debug)]
pub struct RegressConfig {
    /// Relative growth over the stored mean that counts as a regression
    /// (0.2 = 20% slower).
    pub threshold: f64,
    /// Minimum stored runs before any verdict; below this the check
    /// always passes (not enough baseline).
    pub min_runs: u64,
    /// Absolute floor: growth below this many nanoseconds never flags,
    /// regardless of ratio (suppresses noise on near-zero constructs).
    pub min_delta_ns: u64,
}

impl Default for RegressConfig {
    fn default() -> Self {
        Self {
            threshold: 0.2,
            min_runs: 1,
            min_delta_ns: 0,
        }
    }
}

/// One construct that regressed.
#[derive(Clone, Debug, PartialEq)]
pub struct RegressionFinding {
    /// Construct display name (`(total)` for the whole-run time).
    pub region: String,
    /// The new run's inclusive nanoseconds.
    pub new_ns: u64,
    /// Mean over the stored baseline runs.
    pub mean_ns: f64,
    /// `new_ns / mean_ns`.
    pub ratio: f64,
}

/// Verdict of a regression check.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Runs in the stored baseline.
    pub baseline_runs: u64,
    /// The relative threshold the check ran with.
    pub threshold: f64,
    /// True when at least one construct regressed.
    pub regressed: bool,
    /// The regressed constructs, in deterministic (`(total)` first, then
    /// name) order.
    pub findings: Vec<RegressionFinding>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionKind, TaskIdAllocator};
    use taskprof::{AssignPolicy, Event, TeamReplayer};

    fn profile(tag: &str, task_ns: u64) -> Profile {
        let reg = registry();
        let par = reg.register(&format!("{tag}-par"), RegionKind::Parallel, "t", 0);
        let task = reg.register(&format!("{tag}-task"), RegionKind::Task, "t", 0);
        let ids = TaskIdAllocator::new();
        let mut team = TeamReplayer::new(1, par, AssignPolicy::Executing);
        let id = ids.alloc();
        team.apply(0, Event::TaskBegin { region: task, id })
            .advance(task_ns)
            .apply(0, Event::TaskEnd { region: task, id });
        team.finish()
    }

    #[test]
    fn metric_agg_folds() {
        let mut m = MetricAgg::new();
        assert_eq!(m.min(), None);
        m.fold(10);
        m.fold(30);
        m.fold(20);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 60);
        assert_eq!(m.min(), Some(10));
        assert_eq!(m.max, 30);
        assert!((m.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn bench_agg_accumulates_runs() {
        let mut agg = BenchAgg::new();
        agg.fold(&profile("agg-a", 100));
        agg.fold(&profile("agg-a", 300));
        assert_eq!(agg.runs, 2);
        let task = agg.regions.get("agg-a-task").expect("task tracked");
        assert_eq!(task.count, 2);
        assert_eq!(task.min(), Some(100));
        assert_eq!(task.max, 300);
        // total_ns is built through Default: its empty-min sentinel must
        // be u64::MAX, or the first fold would pin min at 0.
        assert!(agg.total_ns.min().expect("folded") > 0);
        assert_eq!(agg.total_ns.min(), Some(agg.total_ns.min));
        assert_eq!(agg.tree_mismatches, 0);
        let top = agg.top_regions(10);
        assert!(!top.is_empty());
        assert!(top[0].1.sum >= top.last().unwrap().1.sum);
    }

    #[test]
    fn regression_flags_growth_beyond_threshold() {
        let mut agg = BenchAgg::new();
        for _ in 0..5 {
            agg.fold(&profile("agg-r", 100));
        }
        let ok = RunSummary::from_profile(&profile("agg-r", 110));
        let bad = RunSummary::from_profile(&profile("agg-r", 200));
        let config = RegressConfig {
            threshold: 0.5,
            min_runs: 3,
            min_delta_ns: 0,
        };
        let verdict = agg.check_regression(&ok, &config);
        assert!(!verdict.regressed, "{verdict:?}");
        let verdict = agg.check_regression(&bad, &config);
        assert!(verdict.regressed);
        assert!(verdict.findings.iter().any(|f| f.region == "agg-r-task"));
        let f = verdict
            .findings
            .iter()
            .find(|f| f.region == "agg-r-task")
            .unwrap();
        assert!((f.ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn regression_needs_a_baseline() {
        let mut agg = BenchAgg::new();
        agg.fold(&profile("agg-b", 100));
        let huge = RunSummary::from_profile(&profile("agg-b", 10_000));
        let config = RegressConfig {
            min_runs: 3,
            ..RegressConfig::default()
        };
        assert!(!agg.check_regression(&huge, &config).regressed);
    }
}
