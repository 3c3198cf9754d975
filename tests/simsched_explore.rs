//! Schedule exploration at integration scale: the deterministic
//! simulator (`simsched`) runs real `taskrt` task graphs — including
//! graphs drawn from the runtime property-test shape generator — across
//! hundreds of seeded schedules, checking the paper's profile invariants
//! after every run and that same-seed runs are byte-reproducible. The
//! seed counts per workload are the acceptance bar.

use simsched::workloads::{fib_like, flat, mixed};
use simsched::{explore_dfs, explore_seeds, run_workload, SimConfig};
use test_util::prop::Gen;
use test_util::shape::{shape, tree_workload};

#[test]
fn built_in_workloads_survive_a_seed_sweep() {
    let per = 64;
    for (threads, w) in [
        (2, fib_like(3)),
        (3, flat(6)),
        (2, mixed()),
        (4, fib_like(2)),
    ] {
        let report = explore_seeds(&w, threads, 0..per);
        assert_eq!(report.runs, per as usize);
        assert!(
            report.is_clean(),
            "{} x{threads}: {} violations, first: {}",
            w.name(),
            report.violations.len(),
            report.violations[0]
        );
        assert!(
            report.distinct_schedules > 1 || per <= 1,
            "{} x{threads}: seed sweep produced a single schedule",
            w.name()
        );
    }
}

#[test]
fn generated_shapes_survive_a_seed_sweep() {
    // Draw task-graph shapes from the same generator the runtime property
    // tests use, with a fixed generator seed so the corpus is stable.
    let mut g = Gen::seeded(0x5EED_5EED_5EED_5EED);
    let per = 32;
    let mut total_runs = 0usize;
    for _ in 0..8 {
        let shape = shape(&mut g);
        let w = tree_workload(&shape);
        let report = explore_seeds(&w, 2, 0..per);
        total_runs += report.runs;
        assert!(
            report.is_clean(),
            "shape {shape:?}: {} violations, first: {}",
            report.violations.len(),
            report.violations[0]
        );
    }
    assert_eq!(total_runs, 8 * per as usize);
}

#[test]
fn same_seed_exports_byte_identical_cubes() {
    for seed in [0u64, 7, 0xDEAD_BEEF] {
        let a = run_workload(&mixed(), &SimConfig::seeded(2, seed));
        let b = run_workload(&mixed(), &SimConfig::seeded(2, seed));
        let (text_a, text_b) = (
            cube::write_profile(&a.profile),
            cube::write_profile(&b.profile),
        );
        assert_eq!(
            text_a, text_b,
            "seed {seed}: two identically-seeded runs exported different cubes"
        );
        assert_eq!(a.trace, b.trace, "seed {seed}: schedules diverged");
    }
}

#[test]
fn different_seeds_change_the_schedule_not_the_fingerprint() {
    let a = run_workload(&flat(5), &SimConfig::seeded(2, 1));
    let b = run_workload(&flat(5), &SimConfig::seeded(2, 2));
    assert_eq!(
        simsched::fingerprint(&a.profile),
        simsched::fingerprint(&b.profile),
        "schedule-invariant fingerprint must not depend on the seed"
    );
}

#[test]
fn live_profile_matches_offline_replay() {
    for seed in 0..16 {
        let run = run_workload(&fib_like(3), &SimConfig::seeded(2, seed));
        let diffs = simsched::check_differential(&run);
        assert!(
            diffs.is_empty(),
            "seed {seed}: live profiler and replayed event stream disagree: {}",
            diffs[0]
        );
    }
}

#[test]
fn dfs_smoke_on_a_small_graph() {
    let (report, _exhausted) = explore_dfs(&flat(2), 2, 300);
    assert!(report.runs > 0);
    assert!(
        report.is_clean(),
        "dfs: {} violations, first: {}",
        report.violations.len(),
        report.violations[0]
    );
}
