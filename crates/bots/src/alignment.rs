//! BOTS `alignment`: all-pairs protein sequence alignment.
//!
//! Single-creator pattern: one thread creates one task per sequence pair;
//! each task computes a Gotoh affine-gap global alignment score. Tasks are
//! comparatively large and uniform — the code with zero measurable
//! profiling overhead in the paper's Fig. 13.

use crate::util::RawSlice;
use crate::{Outcome, RunOpts, Scale};
use pomp::{Monitor, SplitMix64};
use std::sync::OnceLock;
use std::time::Instant;
use taskrt::{ForConstruct, ParallelConstruct, SingleConstruct, TaskConstruct, Team};

/// Alphabet size (amino acids).
pub const ALPHABET: u8 = 20;

/// Scoring scheme (simple substitution model instead of PAM — the task
/// shape, not the biology, is what the experiments exercise).
const MATCH: i32 = 5;
const MISMATCH: i32 = -2;
const GAP_OPEN: i32 = -6;
const GAP_EXTEND: i32 = -1;

/// Regions of the alignment benchmark.
pub struct Regions {
    /// The parallel region.
    pub par: ParallelConstruct,
    /// The per-pair task construct.
    pub task: TaskConstruct,
    /// The single construct creating all pair tasks.
    pub single: SingleConstruct,
    /// The worksharing loop of the BOTS "for" version.
    pub for_loop: ForConstruct,
}

/// Lazily registered regions.
pub fn regions() -> &'static Regions {
    static R: OnceLock<Regions> = OnceLock::new();
    R.get_or_init(|| Regions {
        par: ParallelConstruct::new("alignment!parallel"),
        task: TaskConstruct::new("alignment_pair"),
        single: SingleConstruct::new("alignment!single"),
        for_loop: ForConstruct::new("alignment!for"),
    })
}

/// (sequence count, sequence length) per scale.
pub fn input_dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (8, 64),
        Scale::Small => (12, 128),
        Scale::Medium => (20, 256),
    }
}

/// Deterministic sequence set.
pub fn gen_seqs(count: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| (0..len).map(|_| rng.below(ALPHABET as u64) as u8).collect())
        .collect()
}

/// Gotoh global alignment score with affine gaps, O(|a|·|b|) time,
/// O(|b|) space.
pub fn align_score(a: &[u8], b: &[u8]) -> i32 {
    const NEG: i32 = i32::MIN / 4;
    let m = b.len();
    // s[j]: best score ending anywhere; e[j]: best ending in a gap in `a`.
    let mut s = vec![0i32; m + 1];
    let mut e = vec![NEG; m + 1];
    for (j, slot) in s.iter_mut().enumerate().skip(1) {
        *slot = GAP_OPEN + (j as i32 - 1) * GAP_EXTEND;
    }
    for &ca in a {
        let mut diag = s[0];
        let mut f = NEG; // best ending in a gap in `b`, current row
        s[0] = if s[0] == 0 {
            GAP_OPEN
        } else {
            s[0] + GAP_EXTEND
        };
        for j in 1..=m {
            e[j] = (e[j] + GAP_EXTEND).max(s[j] + GAP_OPEN);
            f = (f + GAP_EXTEND).max(s[j - 1] + GAP_OPEN);
            let sub = diag + if ca == b[j - 1] { MATCH } else { MISMATCH };
            diag = s[j];
            s[j] = sub.max(e[j]).max(f);
        }
    }
    s[m]
}

/// Serial reference: scores of all pairs (i < j), in pair order.
pub fn serial_scores(seqs: &[Vec<u8>]) -> Vec<i32> {
    let mut out = Vec::new();
    for i in 0..seqs.len() {
        for j in i + 1..seqs.len() {
            out.push(align_score(&seqs[i], &seqs[j]));
        }
    }
    out
}

/// Run the benchmark.
pub fn run<M: Monitor>(monitor: &M, opts: &RunOpts) -> Outcome {
    let (count, len) = input_dims(opts.scale);
    let seqs = gen_seqs(count, len, 0xA119_0000);
    let npairs = count * (count - 1) / 2;
    let mut results = vec![0i32; npairs];
    let rs = RawSlice::new(&mut results);
    let seqs_ref = &seqs;
    let r = regions();
    let team = Team::new(opts.threads);
    let start = Instant::now();
    team.parallel(monitor, &r.par, |ctx| {
        ctx.single(&r.single, |ctx| {
            let mut p = 0usize;
            for i in 0..seqs_ref.len() {
                for j in i + 1..seqs_ref.len() {
                    let slot = p;
                    ctx.task(&r.task, move |_| {
                        let score = align_score(&seqs_ref[i], &seqs_ref[j]);
                        // SAFETY: each task writes its own result slot.
                        unsafe { rs.range_mut(slot, 1)[0] = score };
                    });
                    p += 1;
                }
            }
            // Joined by the single's implied barrier.
        });
    });
    let kernel = start.elapsed();
    let expect = serial_scores(&seqs);
    let verified = results == expect;
    let checksum = results
        .iter()
        .fold(0u64, |acc, &s| acc.wrapping_add(s as i64 as u64));
    Outcome {
        kernel,
        checksum,
        verified,
    }
}

/// The BOTS "for" version: the pair loop is a dynamically scheduled
/// worksharing construct instead of a task per pair. Same result, no
/// tasks — in a profile its time sits under the workshare region rather
/// than in task trees.
pub fn run_for<M: Monitor>(monitor: &M, opts: &RunOpts) -> Outcome {
    let (count, len) = input_dims(opts.scale);
    let seqs = gen_seqs(count, len, 0xA119_0000);
    let pairs: Vec<(usize, usize)> = (0..count)
        .flat_map(|i| (i + 1..count).map(move |j| (i, j)))
        .collect();
    let mut results = vec![0i32; pairs.len()];
    let rs = RawSlice::new(&mut results);
    let (seqs_ref, pairs_ref) = (&seqs, &pairs);
    let r = regions();
    let team = Team::new(opts.threads);
    let start = Instant::now();
    team.parallel(monitor, &r.par, |ctx| {
        ctx.for_dynamic(&r.for_loop, 0..pairs_ref.len(), 1, |p| {
            let (i, j) = pairs_ref[p];
            let score = align_score(&seqs_ref[i], &seqs_ref[j]);
            // SAFETY: each iteration index is executed exactly once, so
            // result slots are written disjointly.
            unsafe { rs.range_mut(p, 1)[0] = score };
        });
    });
    let kernel = start.elapsed();
    let expect = serial_scores(&seqs);
    let verified = results == expect;
    let checksum = results
        .iter()
        .fold(0u64, |acc, &s| acc.wrapping_add(s as i64 as u64));
    Outcome {
        kernel,
        checksum,
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::NullMonitor;

    #[test]
    fn for_version_matches_task_version() {
        for threads in [1, 3] {
            let opts = RunOpts::new(threads).scale(Scale::Test);
            let a = run(&NullMonitor, &opts);
            let b = run_for(&NullMonitor, &opts);
            assert!(a.verified && b.verified);
            assert_eq!(a.checksum, b.checksum);
        }
    }

    #[test]
    fn identical_sequences_score_full_match() {
        let s = vec![1u8, 2, 3, 4, 5];
        assert_eq!(align_score(&s, &s), 5 * MATCH);
    }

    #[test]
    fn empty_vs_sequence_pays_gaps() {
        let s = vec![1u8, 2, 3];
        assert_eq!(align_score(&[], &s), GAP_OPEN + 2 * GAP_EXTEND);
        assert_eq!(align_score(&s, &[]), GAP_OPEN + 2 * GAP_EXTEND);
    }

    #[test]
    fn single_substitution_prefers_mismatch_over_gaps() {
        let a = vec![1u8, 2, 3, 4];
        let b = vec![1u8, 2, 9, 4];
        assert_eq!(align_score(&a, &b), 3 * MATCH + MISMATCH);
    }

    #[test]
    fn alignment_is_symmetric() {
        let seqs = gen_seqs(4, 50, 9);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    align_score(&seqs[i], &seqs[j]),
                    align_score(&seqs[j], &seqs[i])
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial_all_thread_counts() {
        for threads in [1, 2, 4] {
            let out = run(&NullMonitor, &RunOpts::new(threads).scale(Scale::Test));
            assert!(out.verified, "threads = {threads}");
        }
    }
}
