//! BOTS `sparselu`: LU factorization of a sparse blocked matrix.
//!
//! The single-creator version the paper selected: one thread walks the
//! elimination order and creates one task per block operation (`fwd`,
//! `bdiv`, `bmod`), joining phases with taskwaits.

use crate::util::checksum_f64;
use crate::{Outcome, RunOpts, Scale};
use pomp::{Monitor, RegionId, SplitMix64};
use std::sync::OnceLock;
use std::time::Instant;
use taskrt::{taskwait_region, ParallelConstruct, SingleConstruct, TaskConstruct, Team};

/// Regions of the sparselu benchmark.
pub struct Regions {
    /// The parallel region.
    pub par: ParallelConstruct,
    /// Forward-substitution tasks (row of U).
    pub task_fwd: TaskConstruct,
    /// Block-division tasks (column of L).
    pub task_bdiv: TaskConstruct,
    /// Trailing-update tasks.
    pub task_bmod: TaskConstruct,
    /// Phase-joining taskwait.
    pub tw: RegionId,
    /// The single construct hosting the factorization loop.
    pub single: SingleConstruct,
}

/// Lazily registered regions.
pub fn regions() -> &'static Regions {
    static R: OnceLock<Regions> = OnceLock::new();
    R.get_or_init(|| Regions {
        par: ParallelConstruct::new("sparselu!parallel"),
        task_fwd: TaskConstruct::new("sparselu_fwd"),
        task_bdiv: TaskConstruct::new("sparselu_bdiv"),
        task_bmod: TaskConstruct::new("sparselu_bmod"),
        tw: taskwait_region("sparselu!taskwait"),
        single: SingleConstruct::new("sparselu!single"),
    })
}

/// Blocked sparse matrix: `nb × nb` grid of optional `bs × bs` dense
/// blocks.
pub struct SparseMat {
    /// Blocks per side.
    pub nb: usize,
    /// Block dimension.
    pub bs: usize,
    /// Row-major grid of blocks.
    pub blocks: Vec<Option<Box<[f64]>>>,
}

impl SparseMat {
    /// The BOTS sparsity pattern with deterministic block contents.
    pub fn generate(nb: usize, bs: usize, seed: u64) -> Self {
        let mut blocks = Vec::with_capacity(nb * nb);
        for ii in 0..nb {
            for jj in 0..nb {
                // BOTS genmat null-entry rule.
                let mut null_entry = false;
                if ii < jj && ii % 3 != 0 {
                    null_entry = true;
                }
                if ii > jj && jj % 3 != 0 {
                    null_entry = true;
                }
                if ii % 2 == 1 {
                    null_entry = true;
                }
                if jj % 2 == 1 {
                    null_entry = true;
                }
                if ii == jj || ii == jj + 1 || ii + 1 == jj {
                    null_entry = false;
                }
                blocks.push((!null_entry).then(|| {
                    let mut rng = SplitMix64::new(seed ^ ((ii as u64) << 32) ^ jj as u64);
                    let mut b = vec![0.0f64; bs * bs].into_boxed_slice();
                    for (k, v) in b.iter_mut().enumerate() {
                        *v = rng.unit_f64()
                            + if ii == jj && k % (bs + 1) == 0 {
                                // Diagonal dominance keeps the factorization
                                // numerically tame.
                                bs as f64
                            } else {
                                0.0
                            };
                    }
                    b
                }));
            }
        }
        Self { nb, bs, blocks }
    }

    /// Index into the block grid.
    #[inline]
    fn idx(&self, ii: usize, jj: usize) -> usize {
        ii * self.nb + jj
    }

    /// Is block (ii, jj) present?
    pub fn present(&self, ii: usize, jj: usize) -> bool {
        self.blocks[self.idx(ii, jj)].is_some()
    }

    /// Raw pointer to block (ii, jj) data (must be present).
    fn block_ptr(&mut self, ii: usize, jj: usize) -> *mut f64 {
        let i = self.idx(ii, jj);
        self.blocks[i].as_mut().expect("missing block").as_mut_ptr()
    }

    /// Allocate block (ii, jj) as zeros if absent.
    pub fn ensure_block(&mut self, ii: usize, jj: usize) {
        let i = self.idx(ii, jj);
        if self.blocks[i].is_none() {
            self.blocks[i] = Some(vec![0.0; self.bs * self.bs].into_boxed_slice());
        }
    }

    /// Order-independent checksum over all present blocks.
    pub fn checksum(&self) -> u64 {
        let mut acc = 0u64;
        for b in self.blocks.iter().flatten() {
            acc = acc.wrapping_add(checksum_f64(b.iter().copied()));
        }
        acc
    }
}

/// Diagonal-block LU (BOTS `lu0`).
///
/// # Safety
/// `diag` points at a live `bs × bs` block with exclusive access.
unsafe fn lu0(diag: *mut f64, bs: usize) {
    let d = std::slice::from_raw_parts_mut(diag, bs * bs);
    for k in 0..bs {
        for i in k + 1..bs {
            d[i * bs + k] /= d[k * bs + k];
            for j in k + 1..bs {
                d[i * bs + j] -= d[i * bs + k] * d[k * bs + j];
            }
        }
    }
}

/// Apply L⁻¹ of the diagonal block to a row-of-U block (BOTS `fwd`).
///
/// # Safety
/// Live `bs × bs` blocks; `col` exclusive, `diag` not written concurrently.
unsafe fn fwd(diag: *const f64, col: *mut f64, bs: usize) {
    let d = std::slice::from_raw_parts(diag, bs * bs);
    let c = std::slice::from_raw_parts_mut(col, bs * bs);
    for j in 0..bs {
        for k in 0..bs {
            for i in k + 1..bs {
                c[i * bs + j] -= d[i * bs + k] * c[k * bs + j];
            }
        }
    }
}

/// Solve X·U = A for a column-of-L block (BOTS `bdiv`).
///
/// # Safety
/// As [`fwd`] with `row` exclusive.
unsafe fn bdiv(diag: *const f64, row: *mut f64, bs: usize) {
    let d = std::slice::from_raw_parts(diag, bs * bs);
    let r = std::slice::from_raw_parts_mut(row, bs * bs);
    for i in 0..bs {
        for k in 0..bs {
            r[i * bs + k] /= d[k * bs + k];
            for j in k + 1..bs {
                r[i * bs + j] -= r[i * bs + k] * d[k * bs + j];
            }
        }
    }
}

/// Trailing update `inner -= row · col` (BOTS `bmod`).
///
/// # Safety
/// As [`fwd`] with `inner` exclusive.
unsafe fn bmod(row: *const f64, col: *const f64, inner: *mut f64, bs: usize) {
    let r = std::slice::from_raw_parts(row, bs * bs);
    let c = std::slice::from_raw_parts(col, bs * bs);
    let x = std::slice::from_raw_parts_mut(inner, bs * bs);
    for i in 0..bs {
        for k in 0..bs {
            let rik = r[i * bs + k];
            for j in 0..bs {
                x[i * bs + j] -= rik * c[k * bs + j];
            }
        }
    }
}

/// Serial reference factorization.
pub fn serial_lu(m: &mut SparseMat) {
    let (nb, bs) = (m.nb, m.bs);
    for kk in 0..nb {
        unsafe { lu0(m.block_ptr(kk, kk), bs) };
        for jj in kk + 1..nb {
            if m.present(kk, jj) {
                let diag = m.block_ptr(kk, kk) as *const f64;
                unsafe { fwd(diag, m.block_ptr(kk, jj), bs) };
            }
        }
        for ii in kk + 1..nb {
            if m.present(ii, kk) {
                let diag = m.block_ptr(kk, kk) as *const f64;
                unsafe { bdiv(diag, m.block_ptr(ii, kk), bs) };
            }
        }
        for ii in kk + 1..nb {
            if m.present(ii, kk) {
                for jj in kk + 1..nb {
                    if m.present(kk, jj) {
                        m.ensure_block(ii, jj);
                        let row = m.block_ptr(ii, kk) as *const f64;
                        let col = m.block_ptr(kk, jj) as *const f64;
                        unsafe { bmod(row, col, m.block_ptr(ii, jj), bs) };
                    }
                }
            }
        }
    }
}

/// Wrapper making a block pointer sendable into a task (the task writes a
/// block no sibling touches — BOTS discipline).
#[derive(Clone, Copy)]
struct BlockPtr(*mut f64);
// SAFETY: access is disciplined by the phase structure (taskwaits between
// conflicting phases).
unsafe impl Send for BlockPtr {}
unsafe impl Sync for BlockPtr {}

impl BlockPtr {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Send` wrapper, not the raw pointer field.
    #[inline]
    fn get(self) -> *mut f64 {
        self.0
    }
}

/// Task-parallel factorization.
pub fn parallel_lu<M: Monitor>(team: &Team, monitor: &M, m: &mut SparseMat) {
    let (nb, bs) = (m.nb, m.bs);
    let r = regions();
    // Pre-allocate all fill-in blocks so the block grid is structurally
    // immutable during the parallel phase.
    for kk in 0..nb {
        for ii in kk + 1..nb {
            for jj in kk + 1..nb {
                if m.present(ii, kk) && m.present(kk, jj) {
                    m.ensure_block(ii, jj);
                }
            }
        }
    }
    // Only the single's executor touches the matrix structure; the Mutex
    // exists to make the capture Sync.
    let mat = parking_lot::Mutex::new(m);
    team.parallel(monitor, &r.par, |ctx| {
        ctx.single(&r.single, |ctx| {
            let mut mat = mat.lock();
            for kk in 0..nb {
                unsafe { lu0(mat.block_ptr(kk, kk), bs) };
                let diag = BlockPtr(mat.block_ptr(kk, kk));
                for jj in kk + 1..nb {
                    if mat.present(kk, jj) {
                        let col = BlockPtr(mat.block_ptr(kk, jj));
                        ctx.task(&r.task_fwd, move |_| unsafe {
                            // SAFETY: sole writer of this block this phase.
                            fwd(diag.get(), col.get(), bs);
                        });
                    }
                }
                for ii in kk + 1..nb {
                    if mat.present(ii, kk) {
                        let row = BlockPtr(mat.block_ptr(ii, kk));
                        ctx.task(&r.task_bdiv, move |_| unsafe {
                            // SAFETY: sole writer of this block this phase.
                            bdiv(diag.get(), row.get(), bs);
                        });
                    }
                }
                ctx.taskwait(r.tw);
                for ii in kk + 1..nb {
                    if mat.present(ii, kk) {
                        let row = BlockPtr(mat.block_ptr(ii, kk));
                        for jj in kk + 1..nb {
                            if mat.present(kk, jj) {
                                let col = BlockPtr(mat.block_ptr(kk, jj));
                                let inner = BlockPtr(mat.block_ptr(ii, jj));
                                ctx.task(&r.task_bmod, move |_| unsafe {
                                    // SAFETY: (ii, jj) unique this phase;
                                    // row/col blocks are read-only here.
                                    bmod(row.get(), col.get(), inner.get(), bs);
                                });
                            }
                        }
                    }
                }
                ctx.taskwait(r.tw);
            }
        });
    });
}

/// The BOTS "for" version: each phase is a worksharing loop instead of a
/// batch of tasks. The paper selected the single/task version for its
/// evaluation; this variant exists in BOTS and is provided for
/// completeness (its profile has workshare regions instead of task
/// trees).
pub fn parallel_lu_for<M: Monitor>(team: &Team, monitor: &M, m: &mut SparseMat) {
    let (nb, bs) = (m.nb, m.bs);
    let r = regions();
    let for_loop = for_regions();
    // Materialize all fill-in blocks up front so every block pointer is
    // stable for the whole factorization.
    for kk in 0..nb {
        for ii in kk + 1..nb {
            for jj in kk + 1..nb {
                if m.present(ii, kk) && m.present(kk, jj) {
                    m.ensure_block(ii, jj);
                }
            }
        }
    }
    let ptrs: Vec<Option<BlockPtr>> = (0..nb * nb)
        .map(|i| {
            let (ii, jj) = (i / nb, i % nb);
            m.present(ii, jj).then(|| BlockPtr(m.block_ptr(ii, jj)))
        })
        .collect();
    let ptrs = &ptrs;
    let at = move |ii: usize, jj: usize| ptrs[ii * nb + jj];
    team.parallel(monitor, &r.par, |ctx| {
        for kk in 0..nb {
            ctx.single(&r.single, |_| unsafe {
                // SAFETY: single executor; exclusive during this phase.
                lu0(at(kk, kk).expect("diagonal block").get(), bs);
            });
            let diag = at(kk, kk).expect("diagonal block");
            // Row of U and column of L in one combined workshare
            // (disjoint target blocks).
            let span = nb - (kk + 1);
            ctx.for_dynamic(&for_loop.fwd_bdiv, 0..2 * span, 1, |x| {
                let idx = kk + 1 + (x % span);
                if x < span {
                    if let Some(col) = at(kk, idx) {
                        // SAFETY: sole writer of block (kk, idx) this phase.
                        unsafe { fwd(diag.get(), col.get(), bs) };
                    }
                } else if let Some(row) = at(idx, kk) {
                    // SAFETY: sole writer of block (idx, kk) this phase.
                    unsafe { bdiv(diag.get(), row.get(), bs) };
                }
            });
            ctx.for_dynamic(&for_loop.bmod, 0..span * span, 1, |x| {
                let ii = kk + 1 + x / span;
                let jj = kk + 1 + x % span;
                if let (Some(row), Some(col)) = (at(ii, kk), at(kk, jj)) {
                    let inner = at(ii, jj).expect("fill-in was materialized");
                    // SAFETY: (ii, jj) is unique within this phase; row
                    // and col blocks are read-only here.
                    unsafe { bmod(row.get(), col.get(), inner.get(), bs) };
                }
            });
        }
    });
}

/// Worksharing regions of the "for" version.
pub struct ForRegions {
    /// Combined fwd/bdiv phase loop.
    pub fwd_bdiv: taskrt::ForConstruct,
    /// Trailing-update phase loop.
    pub bmod: taskrt::ForConstruct,
}

/// Lazily registered worksharing regions.
pub fn for_regions() -> &'static ForRegions {
    static R: OnceLock<ForRegions> = OnceLock::new();
    R.get_or_init(|| ForRegions {
        fwd_bdiv: taskrt::ForConstruct::new("sparselu!for_fwd_bdiv"),
        bmod: taskrt::ForConstruct::new("sparselu!for_bmod"),
    })
}

/// Run the "for" variant as a benchmark.
pub fn run_for<M: Monitor>(monitor: &M, opts: &RunOpts) -> Outcome {
    let (nb, bs) = input_dims(opts.scale);
    let mut m = SparseMat::generate(nb, bs, 0x0123_4567);
    let team = Team::new(opts.threads);
    let start = Instant::now();
    parallel_lu_for(&team, monitor, &mut m);
    let kernel = start.elapsed();
    let mut reference = SparseMat::generate(nb, bs, 0x0123_4567);
    serial_lu(&mut reference);
    let verified = m.checksum() == reference.checksum();
    Outcome {
        kernel,
        checksum: m.checksum(),
        verified,
    }
}

/// Problem size per scale (blocks per side, block dimension; BOTS medium
/// is 50 × 100).
pub fn input_dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (6, 8),
        Scale::Small => (10, 16),
        Scale::Medium => (14, 24),
    }
}

/// Run the benchmark.
pub fn run<M: Monitor>(monitor: &M, opts: &RunOpts) -> Outcome {
    let (nb, bs) = input_dims(opts.scale);
    let mut m = SparseMat::generate(nb, bs, 0x0123_4567);
    let team = Team::new(opts.threads);
    let start = Instant::now();
    parallel_lu(&team, monitor, &mut m);
    let kernel = start.elapsed();
    let mut reference = SparseMat::generate(nb, bs, 0x0123_4567);
    serial_lu(&mut reference);
    // Identical per-block operation order ⇒ bitwise-equal factors.
    let verified = m.checksum() == reference.checksum();
    Outcome {
        kernel,
        checksum: m.checksum(),
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::NullMonitor;

    #[test]
    fn genmat_pattern_is_deterministic_and_diagonal_present() {
        let m = SparseMat::generate(8, 4, 1);
        let m2 = SparseMat::generate(8, 4, 1);
        assert_eq!(m.checksum(), m2.checksum());
        for k in 0..8 {
            assert!(m.present(k, k), "diagonal block {k} missing");
        }
    }

    #[test]
    fn lu0_factorizes_small_block() {
        // A = L·U for a 2×2: [[4, 2], [2, 3]] → L21 = 0.5, U22 = 2.
        let mut d = [4.0, 2.0, 2.0, 3.0];
        unsafe { lu0(d.as_mut_ptr(), 2) };
        assert_eq!(d, [4.0, 2.0, 0.5, 2.0]);
    }

    #[test]
    fn serial_lu_reproduces_product() {
        // Dense 1-block matrix: verify PA = LU by reconstruction.
        let bs = 8;
        let mut m = SparseMat::generate(1, bs, 3);
        let orig: Vec<f64> = m.blocks[0].as_ref().unwrap().to_vec();
        serial_lu(&mut m);
        let f = m.blocks[0].as_ref().unwrap();
        // Reconstruct L·U.
        let mut prod = vec![0.0; bs * bs];
        for i in 0..bs {
            for j in 0..bs {
                let mut acc = 0.0;
                for k in 0..bs {
                    let l = if i == k {
                        1.0
                    } else if k < i {
                        f[i * bs + k]
                    } else {
                        0.0
                    };
                    let u = if k <= j { f[k * bs + j] } else { 0.0 };
                    acc += l * u;
                }
                prod[i * bs + j] = acc;
            }
        }
        for (a, b) in prod.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
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
    fn for_version_matches_task_version() {
        for threads in [1, 3] {
            let opts = RunOpts::new(threads).scale(Scale::Test);
            let a = run(&NullMonitor, &opts);
            let b = run_for(&NullMonitor, &opts);
            assert!(a.verified && b.verified, "threads = {threads}");
            assert_eq!(a.checksum, b.checksum);
        }
    }
}
