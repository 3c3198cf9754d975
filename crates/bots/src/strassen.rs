//! BOTS `strassen`: Strassen matrix multiplication with one task per
//! sub-product (7 per recursion level).
//!
//! In the paper's Table I strassen is the *well-sized* code: ~150 µs mean
//! task time, two orders of magnitude above fib/health/nqueens — and the
//! only code with near-zero profiling overhead in Figs. 13/14.

use crate::{Outcome, RunOpts, Scale, Variant};
use pomp::{Monitor, RegionId, SplitMix64};
use std::sync::OnceLock;
use std::time::Instant;
use taskrt::{taskwait_region, ParallelConstruct, SingleConstruct, TaskConstruct, TaskCtx, Team};

/// Regions of the strassen benchmark.
pub struct Regions {
    /// The parallel region.
    pub par: ParallelConstruct,
    /// The per-product task construct.
    pub task: TaskConstruct,
    /// The joining taskwait.
    pub tw: RegionId,
    /// The single construct hosting the root call.
    pub single: SingleConstruct,
}

/// Lazily registered regions.
pub fn regions() -> &'static Regions {
    static R: OnceLock<Regions> = OnceLock::new();
    R.get_or_init(|| Regions {
        par: ParallelConstruct::new("strassen!parallel"),
        task: TaskConstruct::new("strassen_mul"),
        tw: taskwait_region("strassen!taskwait"),
        single: SingleConstruct::new("strassen!single"),
    })
}

/// Matrix dimension per scale (power of two; BOTS medium is 1024).
pub fn input_n(scale: Scale) -> usize {
    input_dims(scale).0
}

/// (matrix dimension, leaf-kernel dimension) per scale. The leaf grows
/// with the matrix so the Medium tasks land in the ~hundred-µs range the
/// paper's Table I reports for strassen.
pub fn input_dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (64, 16),
        Scale::Small => (128, 16),
        Scale::Medium => (512, 64),
    }
}

/// Task-creation cut-off depth of the cut-off variant: one level less
/// than the recursion supports, so the cut-off version always creates
/// strictly fewer (but still enough) tasks at every scale.
pub fn cutoff_depth(n: usize, leaf: usize) -> u32 {
    let task_levels = (n / leaf).max(2).ilog2();
    task_levels.saturating_sub(1).max(1)
}

/// An unowned dense sub-matrix view (row-major, arbitrary row stride).
/// Sibling Strassen tasks write disjoint product buffers, so all accesses
/// are unsafe-with-discipline like the C original.
#[derive(Clone, Copy, Debug)]
pub struct Mat {
    ptr: *mut f64,
    stride: usize,
}

// SAFETY: raw view; all access unsafe and caller-disciplined.
unsafe impl Send for Mat {}
unsafe impl Sync for Mat {}

impl Mat {
    /// View over a full `n × n` buffer.
    pub fn new(buf: &mut [f64], n: usize) -> Self {
        assert!(buf.len() >= n * n);
        Self {
            ptr: buf.as_mut_ptr(),
            stride: n,
        }
    }

    /// Element pointer.
    ///
    /// # Safety
    /// In-bounds for the viewed matrix; caller manages aliasing.
    #[inline]
    pub unsafe fn at(self, i: usize, j: usize) -> *mut f64 {
        self.ptr.add(i * self.stride + j)
    }

    /// The `(qi, qj)` quadrant view of an `n × n` matrix (`half = n/2`).
    pub fn quad(self, qi: usize, qj: usize, half: usize) -> Mat {
        Mat {
            // SAFETY: quadrant offset stays within the viewed matrix.
            ptr: unsafe { self.ptr.add(qi * half * self.stride + qj * half) },
            stride: self.stride,
        }
    }
}

/// `c = a + b` over `n × n` views.
///
/// # Safety
/// Views valid for `n × n`; `c` not concurrently accessed.
unsafe fn mat_add(a: Mat, b: Mat, c: Mat, n: usize) {
    for i in 0..n {
        for j in 0..n {
            *c.at(i, j) = *a.at(i, j) + *b.at(i, j);
        }
    }
}

/// `c = a - b` over `n × n` views.
///
/// # Safety
/// As [`mat_add`].
unsafe fn mat_sub(a: Mat, b: Mat, c: Mat, n: usize) {
    for i in 0..n {
        for j in 0..n {
            *c.at(i, j) = *a.at(i, j) - *b.at(i, j);
        }
    }
}

/// Naive `c = a * b` (ikj order) over `n × n` views.
///
/// # Safety
/// As [`mat_add`]; `c` disjoint from `a` and `b`.
unsafe fn matmul_leaf(a: Mat, b: Mat, c: Mat, n: usize) {
    for i in 0..n {
        for j in 0..n {
            *c.at(i, j) = 0.0;
        }
        for k in 0..n {
            let aik = *a.at(i, k);
            for j in 0..n {
                *c.at(i, j) += aik * *b.at(k, j);
            }
        }
    }
}

/// One Strassen product: computes `m = (a_l ± a_r)(b_l ± b_r)` where
/// either operand sum may be a single quadrant.
#[derive(Clone, Copy)]
enum Operand {
    One(Mat),
    Add(Mat, Mat),
    Sub(Mat, Mat),
}

impl Operand {
    /// Materialize the operand into `buf` if needed, returning the view to
    /// multiply.
    ///
    /// # Safety
    /// `buf` is an exclusive `half × half` scratch buffer.
    unsafe fn materialize(self, buf: &mut Vec<f64>, half: usize) -> Mat {
        match self {
            Operand::One(m) => m,
            Operand::Add(x, y) => {
                buf.resize(half * half, 0.0);
                let m = Mat::new(buf, half);
                mat_add(x, y, m, half);
                m
            }
            Operand::Sub(x, y) => {
                buf.resize(half * half, 0.0);
                let m = Mat::new(buf, half);
                mat_sub(x, y, m, half);
                m
            }
        }
    }
}

/// The seven Strassen products for quadrants of `a` and `b`.
fn products(a: Mat, b: Mat, half: usize) -> [(Operand, Operand); 7] {
    let (a11, a12, a21, a22) = (
        a.quad(0, 0, half),
        a.quad(0, 1, half),
        a.quad(1, 0, half),
        a.quad(1, 1, half),
    );
    let (b11, b12, b21, b22) = (
        b.quad(0, 0, half),
        b.quad(0, 1, half),
        b.quad(1, 0, half),
        b.quad(1, 1, half),
    );
    [
        (Operand::Add(a11, a22), Operand::Add(b11, b22)), // m1
        (Operand::Add(a21, a22), Operand::One(b11)),      // m2
        (Operand::One(a11), Operand::Sub(b12, b22)),      // m3
        (Operand::One(a22), Operand::Sub(b21, b11)),      // m4
        (Operand::Add(a11, a12), Operand::One(b22)),      // m5
        (Operand::Sub(a21, a11), Operand::Add(b11, b12)), // m6
        (Operand::Sub(a12, a22), Operand::Add(b21, b22)), // m7
    ]
}

/// Combine the seven products into `c`.
///
/// # Safety
/// `c` is an exclusive `n × n` view; `m` are `half × half` views.
unsafe fn combine(m: &[Mat; 7], c: Mat, half: usize) {
    let (c11, c12, c21, c22) = (
        c.quad(0, 0, half),
        c.quad(0, 1, half),
        c.quad(1, 0, half),
        c.quad(1, 1, half),
    );
    for i in 0..half {
        for j in 0..half {
            let (m1, m2, m3, m4) = (
                *m[0].at(i, j),
                *m[1].at(i, j),
                *m[2].at(i, j),
                *m[3].at(i, j),
            );
            let (m5, m6, m7) = (*m[4].at(i, j), *m[5].at(i, j), *m[6].at(i, j));
            *c11.at(i, j) = m1 + m4 - m5 + m7;
            *c12.at(i, j) = m3 + m5;
            *c21.at(i, j) = m2 + m4;
            *c22.at(i, j) = m1 - m2 + m3 + m6;
        }
    }
}

/// Serial Strassen recursion: `c = a * b`.
///
/// # Safety
/// Views valid for `n × n`; `c` disjoint and exclusive.
pub unsafe fn strassen_serial(a: Mat, b: Mat, c: Mat, n: usize, leaf: usize) {
    if n <= leaf {
        matmul_leaf(a, b, c, n);
        return;
    }
    let half = n / 2;
    let mut bufs: Vec<Vec<f64>> = (0..7).map(|_| vec![0.0; half * half]).collect();
    let ms: Vec<Mat> = bufs.iter_mut().map(|v| Mat::new(v, half)).collect();
    for (k, (oa, ob)) in products(a, b, half).into_iter().enumerate() {
        let (mut ta, mut tb) = (Vec::new(), Vec::new());
        let ma = oa.materialize(&mut ta, half);
        let mb = ob.materialize(&mut tb, half);
        strassen_serial(ma, mb, ms[k], half, leaf);
    }
    combine(&[ms[0], ms[1], ms[2], ms[3], ms[4], ms[5], ms[6]], c, half);
}

#[allow(clippy::too_many_arguments)]
fn strassen_task<'e, M: Monitor>(
    ctx: &TaskCtx<'_, 'e, M>,
    a: Mat,
    b: Mat,
    c: Mat,
    n: usize,
    leaf: usize,
    depth: u32,
    cutoff: Option<u32>,
) {
    if n <= leaf {
        // SAFETY: this call tree owns `c` exclusively.
        unsafe { matmul_leaf(a, b, c, n) };
        return;
    }
    if let Some(cd) = cutoff {
        if depth >= cd {
            unsafe { strassen_serial(a, b, c, n, leaf) };
            return;
        }
    }
    let r = regions();
    let half = n / 2;
    let mut bufs: Vec<Vec<f64>> = (0..7).map(|_| vec![0.0; half * half]).collect();
    let ms: Vec<Mat> = bufs.iter_mut().map(|v| Mat::new(v, half)).collect();
    for (k, (oa, ob)) in products(a, b, half).into_iter().enumerate() {
        let m = ms[k];
        ctx.task(&r.task, move |ctx| {
            // SAFETY: each task materializes into its own scratch buffers
            // and writes its own product buffer `m`; operand quadrants are
            // only read.
            let (mut ta, mut tb) = (Vec::new(), Vec::new());
            let ma = unsafe { oa.materialize(&mut ta, half) };
            let mb = unsafe { ob.materialize(&mut tb, half) };
            strassen_task(ctx, ma, mb, m, half, leaf, depth + 1, cutoff);
        });
    }
    ctx.taskwait(r.tw);
    // SAFETY: children done; `c` exclusive to this call tree.
    unsafe { combine(&[ms[0], ms[1], ms[2], ms[3], ms[4], ms[5], ms[6]], c, half) };
}

/// Deterministic input matrix.
pub fn gen_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n * n).map(|_| rng.unit_f64() * 2.0 - 1.0).collect()
}

/// Run the benchmark.
pub fn run<M: Monitor>(monitor: &M, opts: &RunOpts) -> Outcome {
    let (n, leaf) = input_dims(opts.scale);
    let cutoff = (opts.variant == Variant::Cutoff).then_some(cutoff_depth(n, leaf));
    let mut a = gen_matrix(n, 0x5712_A55E);
    let mut b = gen_matrix(n, 0x5712_A55F);
    let mut c = vec![0.0f64; n * n];
    let (ma, mb, mc) = (
        Mat::new(&mut a, n),
        Mat::new(&mut b, n),
        Mat::new(&mut c, n),
    );
    let r = regions();
    let team = Team::new(opts.threads);
    let start = Instant::now();
    team.parallel(monitor, &r.par, |ctx| {
        ctx.single(&r.single, |ctx| {
            strassen_task(ctx, ma, mb, mc, n, leaf, 0, cutoff)
        });
    });
    let kernel = start.elapsed();
    // Serial Strassen has the identical operation order per element, so
    // the parallel result must be bitwise equal.
    let mut a2 = a.clone();
    let mut b2 = b.clone();
    let mut expect = vec![0.0f64; n * n];
    unsafe {
        strassen_serial(
            Mat::new(&mut a2, n),
            Mat::new(&mut b2, n),
            Mat::new(&mut expect, n),
            n,
            leaf,
        )
    };
    let verified = c == expect;
    Outcome {
        kernel,
        checksum: crate::util::checksum_f64(c.iter().copied()),
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::NullMonitor;

    fn naive(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    c[i * n + j] += a[i * n + k] * b[k * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn strassen_serial_matches_naive() {
        let n = 64;
        let mut a = gen_matrix(n, 1);
        let mut b = gen_matrix(n, 2);
        let want = naive(&a, &b, n);
        let mut c = vec![0.0; n * n];
        unsafe {
            strassen_serial(
                Mat::new(&mut a, n),
                Mat::new(&mut b, n),
                Mat::new(&mut c, n),
                n,
                16,
            )
        };
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn quadrant_views_address_correctly() {
        let n = 4;
        let mut m: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let mat = Mat::new(&mut m, n);
        let q11 = mat.quad(1, 1, 2);
        unsafe {
            assert_eq!(*q11.at(0, 0), 10.0);
            assert_eq!(*q11.at(1, 1), 15.0);
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
            &RunOpts::new(2).scale(Scale::Test).variant(Variant::Cutoff),
        );
        assert!(out.verified);
    }
}
