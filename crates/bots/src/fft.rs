//! BOTS `fft`: task-parallel recursive Cooley-Tukey FFT (radix 2).
//!
//! Each recursion level splits into an even and an odd half-transform
//! (two tasks), joins at a taskwait, and combines with twiddle factors.

use crate::util::{checksum_f64, RawSlice};
use crate::{Outcome, RunOpts, Scale};
use pomp::{Monitor, RegionId, SplitMix64};
use std::sync::OnceLock;
use std::time::Instant;
use taskrt::{taskwait_region, ParallelConstruct, SingleConstruct, TaskConstruct, TaskCtx, Team};

/// Minimal complex number (kept local: no external num crate).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// e^{-2πi k / n} (forward-transform twiddle factor).
    pub fn twiddle(k: usize, n: usize) -> Complex {
        let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
        Complex::new(ang.cos(), ang.sin())
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;

    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// Regions of the fft benchmark.
pub struct Regions {
    /// The parallel region.
    pub par: ParallelConstruct,
    /// The split task construct.
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
        par: ParallelConstruct::new("fft!parallel"),
        task: TaskConstruct::new("fft_split"),
        tw: taskwait_region("fft!taskwait"),
        single: SingleConstruct::new("fft!single"),
    })
}

/// Transform length per scale (power of two).
pub fn input_len(scale: Scale) -> usize {
    match scale {
        Scale::Test => 1 << 10,
        Scale::Small => 1 << 14,
        Scale::Medium => 1 << 17,
    }
}

/// Below this length the recursion is sequential.
const SEQ_BASE: usize = 512;

/// Deterministic complex input.
pub fn gen_input(len: usize, seed: u64) -> Vec<Complex> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| Complex::new(rng.unit_f64() - 0.5, rng.unit_f64() - 0.5))
        .collect()
}

/// Sequential recursive FFT: transform `src[s0], src[s0+stride], ...`
/// (n elements) into `dst[d0 .. d0+n)`.
pub fn fft_seq(
    src: &[Complex],
    dst: &mut [Complex],
    s0: usize,
    d0: usize,
    n: usize,
    stride: usize,
) {
    if n == 1 {
        dst[d0] = src[s0];
        return;
    }
    let half = n / 2;
    fft_seq(src, dst, s0, d0, half, stride * 2);
    fft_seq(src, dst, s0 + stride, d0 + half, half, stride * 2);
    combine(dst, d0, n);
}

/// Butterfly combine of the two half-transforms stored in
/// `dst[d0..d0+n)`.
fn combine(dst: &mut [Complex], d0: usize, n: usize) {
    let half = n / 2;
    for k in 0..half {
        let t = Complex::twiddle(k, n) * dst[d0 + half + k];
        let e = dst[d0 + k];
        dst[d0 + k] = e + t;
        dst[d0 + half + k] = e - t;
    }
}

/// Naive O(n²) DFT reference for small-n verification.
pub fn dft_naive(src: &[Complex]) -> Vec<Complex> {
    let n = src.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::default();
            for (j, &x) in src.iter().enumerate() {
                acc = acc + Complex::twiddle((k * j) % n, n) * x;
            }
            acc
        })
        .collect()
}

fn fft_task<'e, M: Monitor>(
    ctx: &TaskCtx<'_, 'e, M>,
    src: RawSlice<Complex>,
    dst: RawSlice<Complex>,
    s0: usize,
    d0: usize,
    n: usize,
    stride: usize,
) {
    // SAFETY throughout: `src` is only read; each call tree writes
    // `dst[d0..d0+n)` exclusively (the two children split it disjointly).
    if n <= SEQ_BASE {
        let s = unsafe { src.range(0, src.len()) };
        let d = unsafe { dst.range_mut(0, dst.len()) };
        fft_seq(s, d, s0, d0, n, stride);
        return;
    }
    let r = regions();
    let half = n / 2;
    ctx.task(&r.task, move |ctx| {
        fft_task(ctx, src, dst, s0, d0, half, stride * 2);
    });
    ctx.task(&r.task, move |ctx| {
        fft_task(ctx, src, dst, s0 + stride, d0 + half, half, stride * 2);
    });
    ctx.taskwait(r.tw);
    combine(unsafe { dst.range_mut(0, dst.len()) }, d0, n);
}

/// Library entry point: task-parallel forward FFT of `input`
/// (`input.len()` must be a power of two).
pub fn fft<M: Monitor>(monitor: &M, threads: usize, input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    let mut src = input.to_vec();
    let mut dst = vec![Complex::default(); n];
    let rs_src = RawSlice::new(&mut src);
    let rs_dst = RawSlice::new(&mut dst);
    let r = regions();
    Team::new(threads).parallel(monitor, &r.par, |ctx| {
        ctx.single(&r.single, |ctx| fft_task(ctx, rs_src, rs_dst, 0, 0, n, 1));
    });
    dst
}

/// Run the benchmark.
pub fn run<M: Monitor>(monitor: &M, opts: &RunOpts) -> Outcome {
    let n = input_len(opts.scale);
    let src = gen_input(n, 0xFF77_0001);
    let mut dst = vec![Complex::default(); n];
    let mut src_copy = src.clone();
    let rs_src = RawSlice::new(&mut src_copy);
    let rs_dst = RawSlice::new(&mut dst);
    let r = regions();
    let team = Team::new(opts.threads);
    let start = Instant::now();
    team.parallel(monitor, &r.par, |ctx| {
        ctx.single(&r.single, |ctx| fft_task(ctx, rs_src, rs_dst, 0, 0, n, 1));
    });
    let kernel = start.elapsed();
    // Reference: the sequential recursion has the identical operation
    // order, so results are bitwise equal.
    let mut expect = vec![Complex::default(); n];
    fft_seq(&src, &mut expect, 0, 0, n, 1);
    let verified = dst == expect;
    Outcome {
        kernel,
        checksum: checksum_f64(dst.iter().flat_map(|c| [c.re, c.im])),
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::NullMonitor;

    fn close(a: Complex, b: Complex) -> bool {
        (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9
    }

    #[test]
    fn fft_seq_matches_naive_dft() {
        let src = gen_input(64, 3);
        let mut out = vec![Complex::default(); 64];
        fft_seq(&src, &mut out, 0, 0, 64, 1);
        let want = dft_naive(&src);
        for (a, b) in out.iter().zip(&want) {
            assert!(close(*a, *b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut src = vec![Complex::default(); 16];
        src[0] = Complex::new(1.0, 0.0);
        let mut out = vec![Complex::default(); 16];
        fft_seq(&src, &mut out, 0, 0, 16, 1);
        for c in out {
            assert!(close(c, Complex::new(1.0, 0.0)));
        }
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let t = Complex::twiddle(0, 8);
        assert!(close(t, Complex::new(1.0, 0.0)));
    }

    #[test]
    fn parallel_fft_matches_serial() {
        for threads in [1, 2, 4] {
            let out = run(&NullMonitor, &RunOpts::new(threads).scale(Scale::Test));
            assert!(out.verified, "threads = {threads}");
        }
    }
}
