//! Property-based tests of the BOTS kernels themselves, run through the
//! real task runtime on arbitrary inputs.

use bots::fft::{dft_naive, fft, Complex};
use bots::nqueens::serial_count;
use bots::sort::sort_slice;
use pomp::{CountingMonitor, NullMonitor};
use test_util::prop::{check, Gen};

#[test]
fn parallel_sort_sorts_anything() {
    let gen = |g: &mut Gen| {
        (
            g.vec(0..5000, |g| g.u64(..1 << 32) as u32),
            g.u64(1..4) as usize,
        )
    };
    check(
        "parallel_sort_sorts_anything",
        24,
        gen,
        |(mut data, threads)| {
            let mut expect = data.clone();
            expect.sort_unstable();
            sort_slice(&NullMonitor, threads, &mut data);
            assert_eq!(data, expect);
        },
    );
}

#[test]
fn parallel_fft_matches_naive_dft() {
    let component = |g: &mut Gen| g.u64(..2000) as i32 - 1000;
    let gen = |g: &mut Gen| {
        (
            g.vec(1..5, |g| (component(g), component(g))),
            g.u64(4..9) as u32,
        )
    };
    check("parallel_fft_matches_naive_dft", 24, gen, |(raw, exp)| {
        // Build a power-of-two input from the raw seed values (cycled).
        let n = 1usize << exp;
        let input: Vec<Complex> = (0..n)
            .map(|i| {
                let (re, im) = raw[i % raw.len()];
                Complex::new(re as f64 / 100.0, im as f64 / 100.0)
            })
            .collect();
        let got = fft(&NullMonitor, 2, &input);
        let want = dft_naive(&input);
        for (a, b) in got.iter().zip(&want) {
            assert!(
                (a.re - b.re).abs() < 1e-6 && (a.im - b.im).abs() < 1e-6,
                "{a:?} vs {b:?}"
            );
        }
    });
}

#[test]
fn fft_is_linear() {
    let gen = |g: &mut Gen| (g.u64(..), g.u64(4..8) as u32, g.u64(1..50) as i32);
    check("fft_is_linear", 24, gen, |(seed, exp, scale)| {
        // FFT(c·x) = c·FFT(x): checks the combine stage's arithmetic.
        let n = 1usize << exp;
        let x = bots::fft::gen_input(n, seed);
        let c = scale as f64;
        let scaled: Vec<Complex> = x.iter().map(|v| Complex::new(v.re * c, v.im * c)).collect();
        let fx = fft(&NullMonitor, 2, &x);
        let fsx = fft(&NullMonitor, 2, &scaled);
        for (a, b) in fx.iter().zip(&fsx) {
            assert!((a.re * c - b.re).abs() < 1e-6);
            assert!((a.im * c - b.im).abs() < 1e-6);
        }
    });
}

#[test]
fn nqueens_counts_match_bitmask_reference() {
    // Independent bitmask backtracking implementation.
    fn bitmask(n: usize, cols: u32, diag1: u32, diag2: u32) -> u64 {
        let full = (1u32 << n) - 1;
        if cols == full {
            return 1;
        }
        let mut free = full & !(cols | diag1 | diag2);
        let mut total = 0;
        while free != 0 {
            let bit = free & free.wrapping_neg();
            free -= bit;
            total += bitmask(n, cols | bit, (diag1 | bit) << 1, (diag2 | bit) >> 1);
        }
        total
    }
    let gen = |g: &mut Gen| g.u64(1..8) as usize;
    check("nqueens_counts_match_bitmask_reference", 24, gen, |n| {
        let mut board = vec![0u8; n];
        assert_eq!(serial_count(n, &mut board, 0), bitmask(n, 0, 0, 0));
    });
}

#[test]
fn counting_monitor_sees_every_sort_task() {
    // Cross-check the cheapest monitor against ground truth: begins must
    // equal ends, and creations must equal begins (every deferred task
    // ran exactly once).
    let m = CountingMonitor::new();
    let mut data: Vec<u32> = (0..20_000u32).rev().collect();
    sort_slice(&m, 2, &mut data);
    assert!(data.windows(2).all(|w| w[0] <= w[1]));
    let (_enters, creations, begins, ends, _switches, _params, threads) = m.counts().snapshot();
    assert_eq!(begins, ends);
    assert_eq!(creations, begins);
    assert!(begins > 0, "the sort must actually create tasks");
    assert_eq!(threads, 2);
}
