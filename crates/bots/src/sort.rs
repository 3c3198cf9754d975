//! BOTS `sort`: cilksort — 4-way parallel mergesort with recursive
//! task-parallel merging and a sequential quicksort below a grain size.

use crate::util::RawSlice;
use crate::{Outcome, RunOpts, Scale};
use pomp::{Monitor, RegionId, SplitMix64};
use std::sync::OnceLock;
use std::time::Instant;
use taskrt::{taskwait_region, ParallelConstruct, SingleConstruct, TaskConstruct, TaskCtx, Team};

/// Regions of the sort benchmark.
pub struct Regions {
    /// The parallel region.
    pub par: ParallelConstruct,
    /// Recursive sort-split tasks.
    pub task_sort: TaskConstruct,
    /// Recursive merge tasks.
    pub task_merge: TaskConstruct,
    /// The joining taskwait.
    pub tw: RegionId,
    /// The single construct hosting the root call.
    pub single: SingleConstruct,
}

/// Lazily registered regions.
pub fn regions() -> &'static Regions {
    static R: OnceLock<Regions> = OnceLock::new();
    R.get_or_init(|| Regions {
        par: ParallelConstruct::new("sort!parallel"),
        task_sort: TaskConstruct::new("sort_split"),
        task_merge: TaskConstruct::new("sort_merge"),
        tw: taskwait_region("sort!taskwait"),
        single: SingleConstruct::new("sort!single"),
    })
}

/// Element count per scale (BOTS medium is 32 M; scaled down).
pub fn input_len(scale: Scale) -> usize {
    match scale {
        Scale::Test => 1 << 13,
        Scale::Small => 1 << 16,
        Scale::Medium => 1 << 19,
    }
}

/// Below this many elements, sort sequentially (BOTS default 2048).
const QUICK_GRAIN: usize = 2048;
/// Below this many total elements, merge sequentially (BOTS default 2048).
const MERGE_GRAIN: usize = 2048;

/// Deterministic input.
pub fn gen_input(len: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| rng.next_u64() as u32).collect()
}

/// In-place sequential quicksort with insertion sort below 32 elements
/// (own implementation, mirroring BOTS's seqquick/insertion pair).
pub fn seq_quicksort(s: &mut [u32]) {
    if s.len() <= 32 {
        // Insertion sort.
        for i in 1..s.len() {
            let v = s[i];
            let mut j = i;
            while j > 0 && s[j - 1] > v {
                s[j] = s[j - 1];
                j -= 1;
            }
            s[j] = v;
        }
        return;
    }
    // Median-of-three pivot.
    let (lo, mid, hi) = (0, s.len() / 2, s.len() - 1);
    let mut pivot = s[mid];
    if (s[lo] > pivot) != (s[lo] > s[hi]) {
        pivot = s[lo];
    } else if (s[hi] > pivot) != (s[hi] > s[lo]) {
        pivot = s[hi];
    }
    let (mut i, mut j) = (0usize, s.len() - 1);
    loop {
        while s[i] < pivot {
            i += 1;
        }
        while s[j] > pivot {
            j -= 1;
        }
        if i >= j {
            break;
        }
        s.swap(i, j);
        i += 1;
        j = j.saturating_sub(1);
    }
    let split = j + 1;
    let (a, b) = s.split_at_mut(split);
    seq_quicksort(a);
    seq_quicksort(b);
}

/// Sequential two-way merge.
fn seq_merge(a: &[u32], b: &[u32], out: &mut [u32]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Index of the first element in `s` that is `>= key` (lower bound).
fn lower_bound(s: &[u32], key: u32) -> usize {
    s.partition_point(|&x| x < key)
}

/// Recursive parallel merge (cilkmerge): split the larger run at its
/// median, binary-search the split point in the other run, and merge the
/// two halves as tasks.
#[allow(clippy::too_many_arguments)]
fn par_merge<'e, M: Monitor>(
    ctx: &TaskCtx<'_, 'e, M>,
    src: RawSlice<u32>,
    a0: usize,
    alen: usize,
    b0: usize,
    blen: usize,
    dst: RawSlice<u32>,
    o0: usize,
) {
    // SAFETY throughout: `src` ranges [a0, a0+alen) and [b0, b0+blen) are
    // only read, `dst` range [o0, o0+alen+blen) is written exclusively by
    // this call tree; the recursion partitions both ranges disjointly.
    if alen + blen <= MERGE_GRAIN {
        let (a, b) = unsafe { (src.range(a0, alen), src.range(b0, blen)) };
        let out = unsafe { dst.range_mut(o0, alen + blen) };
        seq_merge(a, b, out);
        return;
    }
    // Ensure the first run is the larger one.
    if alen < blen {
        return par_merge(ctx, src, b0, blen, a0, alen, dst, o0);
    }
    let r = regions();
    let ma = alen / 2;
    let key = unsafe { src.range(a0, alen) }[ma];
    let mb = lower_bound(unsafe { src.range(b0, blen) }, key);
    ctx.task(&r.task_merge, move |ctx| {
        par_merge(ctx, src, a0, ma, b0, mb, dst, o0);
    });
    ctx.task(&r.task_merge, move |ctx| {
        par_merge(
            ctx,
            src,
            a0 + ma,
            alen - ma,
            b0 + mb,
            blen - mb,
            dst,
            o0 + ma + mb,
        );
    });
    ctx.taskwait(r.tw);
}

/// Recursive 4-way parallel mergesort over `data[lo..lo+len)`, using
/// `tmp[lo..lo+len)` as scratch.
fn par_sort<'e, M: Monitor>(
    ctx: &TaskCtx<'_, 'e, M>,
    data: RawSlice<u32>,
    tmp: RawSlice<u32>,
    lo: usize,
    len: usize,
) {
    if len <= QUICK_GRAIN {
        // SAFETY: this call tree owns [lo, lo+len) exclusively.
        seq_quicksort(unsafe { data.range_mut(lo, len) });
        return;
    }
    let r = regions();
    let q = len / 4;
    let quarters = [
        (lo, q),
        (lo + q, q),
        (lo + 2 * q, q),
        (lo + 3 * q, len - 3 * q),
    ];
    for (qlo, qlen) in quarters {
        ctx.task(&r.task_sort, move |ctx| par_sort(ctx, data, tmp, qlo, qlen));
    }
    ctx.taskwait(r.tw);
    // Merge quarter pairs into tmp.
    ctx.task(&r.task_merge, move |ctx| {
        par_merge(ctx, data, lo, q, lo + q, q, tmp, lo);
    });
    ctx.task(&r.task_merge, move |ctx| {
        par_merge(
            ctx,
            data,
            lo + 2 * q,
            q,
            lo + 3 * q,
            len - 3 * q,
            tmp,
            lo + 2 * q,
        );
    });
    ctx.taskwait(r.tw);
    // Merge halves back into data.
    par_merge(ctx, tmp, lo, 2 * q, lo + 2 * q, len - 2 * q, data, lo);
}

/// Library entry point: task-parallel sort of an arbitrary slice.
pub fn sort_slice<M: Monitor>(monitor: &M, threads: usize, data: &mut [u32]) {
    let len = data.len();
    let mut tmp = vec![0u32; len];
    let rs_data = RawSlice::new(data);
    let rs_tmp = RawSlice::new(&mut tmp);
    let r = regions();
    Team::new(threads).parallel(monitor, &r.par, |ctx| {
        ctx.single(&r.single, |ctx| par_sort(ctx, rs_data, rs_tmp, 0, len));
    });
}

/// Run the benchmark.
pub fn run<M: Monitor>(monitor: &M, opts: &RunOpts) -> Outcome {
    let len = input_len(opts.scale);
    let mut data = gen_input(len, 0xB075_5047);
    let sum_before: u64 = data.iter().map(|&x| x as u64).sum();
    let mut tmp = vec![0u32; len];
    let rs_data = RawSlice::new(&mut data);
    let rs_tmp = RawSlice::new(&mut tmp);
    let r = regions();
    let team = Team::new(opts.threads);
    let start = Instant::now();
    team.parallel(monitor, &r.par, |ctx| {
        ctx.single(&r.single, |ctx| par_sort(ctx, rs_data, rs_tmp, 0, len));
    });
    let kernel = start.elapsed();
    let sorted = data.windows(2).all(|w| w[0] <= w[1]);
    let sum_after: u64 = data.iter().map(|&x| x as u64).sum();
    Outcome {
        kernel,
        checksum: sum_after,
        verified: sorted && sum_before == sum_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::NullMonitor;

    #[test]
    fn seq_quicksort_sorts() {
        let mut v = gen_input(10_000, 42);
        let mut expect = v.clone();
        expect.sort_unstable();
        seq_quicksort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn seq_quicksort_edge_cases() {
        let mut empty: Vec<u32> = vec![];
        seq_quicksort(&mut empty);
        let mut one = vec![7u32];
        seq_quicksort(&mut one);
        assert_eq!(one, vec![7]);
        let mut dups = vec![3u32; 100];
        seq_quicksort(&mut dups);
        assert_eq!(dups, vec![3u32; 100]);
        let mut rev: Vec<u32> = (0..1000).rev().collect();
        seq_quicksort(&mut rev);
        assert!(rev.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn seq_merge_interleaves() {
        let a = [1u32, 4, 6];
        let b = [2u32, 3, 5, 7];
        let mut out = [0u32; 7];
        seq_merge(&a, &b, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn parallel_sort_matches_reference() {
        for threads in [1, 2, 4] {
            let out = run(&NullMonitor, &RunOpts::new(threads).scale(Scale::Test));
            assert!(out.verified, "threads = {threads}");
        }
    }
}
