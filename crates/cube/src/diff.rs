//! Structural diff of two profiles — comparing runs is how the paper's
//! Section VI localizes scaling problems ("comparison of profiles of
//! instrumented runs with different numbers of threads").

use crate::agg::AggProfile;
use crate::export::{rows, CsvRow};
use std::collections::HashMap;

/// One call path present in either profile.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Slash-separated call path.
    pub path: String,
    /// Inclusive ns in profile A (0 if absent).
    pub a_incl_ns: u64,
    /// Inclusive ns in profile B (0 if absent).
    pub b_incl_ns: u64,
    /// Visits in A.
    pub a_visits: u64,
    /// Visits in B.
    pub b_visits: u64,
}

impl DiffRow {
    /// Inclusive-time delta (B − A), ns.
    pub fn delta_ns(&self) -> i64 {
        self.b_incl_ns as i64 - self.a_incl_ns as i64
    }

    /// Inclusive-time ratio B/A (`None` when A is zero).
    pub fn ratio(&self) -> Option<f64> {
        (self.a_incl_ns > 0).then(|| self.b_incl_ns as f64 / self.a_incl_ns as f64)
    }
}

/// Diff two aggregated profiles by call path, sorted by descending
/// absolute time delta.
pub fn diff_profiles(a: &AggProfile, b: &AggProfile) -> Vec<DiffRow> {
    let index = |p: &AggProfile| -> HashMap<String, CsvRow> {
        rows(p).into_iter().map(|r| (r.path.clone(), r)).collect()
    };
    let (ia, ib) = (index(a), index(b));
    let mut paths: Vec<&String> = ia.keys().chain(ib.keys()).collect();
    paths.sort();
    paths.dedup();
    let mut out: Vec<DiffRow> = paths
        .into_iter()
        .map(|p| {
            let ra = ia.get(p);
            let rb = ib.get(p);
            DiffRow {
                path: p.clone(),
                a_incl_ns: ra.map_or(0, |r| r.incl_ns),
                b_incl_ns: rb.map_or(0, |r| r.incl_ns),
                a_visits: ra.map_or(0, |r| r.visits),
                b_visits: rb.map_or(0, |r| r.visits),
            }
        })
        .collect();
    out.sort_by_key(|r| std::cmp::Reverse(r.delta_ns().unsigned_abs()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{registry, RegionKind};
    use taskprof::{replay, AssignPolicy, Event, Profile};

    fn profile_with(work_ns: u64) -> AggProfile {
        let reg = registry();
        let par = reg.register("d-par", RegionKind::Parallel, "t", 0);
        let work = reg.register("d-work", RegionKind::User, "t", 0);
        let snap = replay(
            par,
            AssignPolicy::Executing,
            [
                Event::Enter(work),
                Event::Advance(work_ns),
                Event::Exit(work),
            ],
        );
        AggProfile::from_profile(&Profile {
            threads: vec![snap],
        })
    }

    #[test]
    fn diff_ranks_biggest_change_first() {
        let a = profile_with(100);
        let b = profile_with(500);
        let d = diff_profiles(&a, &b);
        assert_eq!(d[0].delta_ns().unsigned_abs(), 400);
        let work = d.iter().find(|r| r.path.ends_with("d-work")).unwrap();
        assert_eq!(work.a_incl_ns, 100);
        assert_eq!(work.b_incl_ns, 500);
        assert_eq!(work.ratio(), Some(5.0));
    }

    #[test]
    fn diff_handles_missing_paths() {
        let reg = registry();
        let par = reg.register("d2-par", RegionKind::Parallel, "t", 0);
        let only_b = reg.register("d2-only-b", RegionKind::User, "t", 0);
        let snap_a = replay(par, AssignPolicy::Executing, [Event::Advance(10)]);
        let snap_b = replay(
            par,
            AssignPolicy::Executing,
            [
                Event::Enter(only_b),
                Event::Advance(10),
                Event::Exit(only_b),
            ],
        );
        let a = AggProfile::from_profile(&Profile {
            threads: vec![snap_a],
        });
        let b = AggProfile::from_profile(&Profile {
            threads: vec![snap_b],
        });
        let d = diff_profiles(&a, &b);
        let row = d.iter().find(|r| r.path.ends_with("d2-only-b")).unwrap();
        assert_eq!(row.a_incl_ns, 0);
        assert_eq!(row.b_incl_ns, 10);
        assert_eq!(row.ratio(), None);
    }
}
