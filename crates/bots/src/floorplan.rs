//! BOTS `floorplan`: branch-and-bound placement of cells on a grid,
//! minimizing the bounding-box area. One task per candidate placement; the
//! shared best bound prunes the search.
//!
//! This is the code whose instrumented runs fall into two load-balance
//! classes in the paper (Section V-A): scheduling decisions change which
//! branches are explored first and how the bound tightens.

use crate::{Outcome, RunOpts, Scale, Variant};
use pomp::{Monitor, RegionId, SplitMix64};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;
use taskrt::{taskwait_region, ParallelConstruct, SingleConstruct, TaskConstruct, TaskCtx, Team};

/// Grid dimension (placements beyond this are rejected).
pub const GRID: usize = 16;

/// Occupancy bitboard: bit `c` of `rows[r]` = cell at (r, c).
pub type Board = [u16; GRID];

/// A cell with alternative shapes (h, w).
#[derive(Clone, Debug)]
pub struct Cell {
    /// Alternative orientations/implementations.
    pub alts: Vec<(u8, u8)>,
}

/// Regions of the floorplan benchmark.
pub struct Regions {
    /// The parallel region.
    pub par: ParallelConstruct,
    /// The per-placement task construct.
    pub task: TaskConstruct,
    /// The per-level taskwait.
    pub tw: RegionId,
    /// The single construct hosting the root call.
    pub single: SingleConstruct,
}

/// Lazily registered regions.
pub fn regions() -> &'static Regions {
    static R: OnceLock<Regions> = OnceLock::new();
    R.get_or_init(|| Regions {
        par: ParallelConstruct::new("floorplan!parallel"),
        task: TaskConstruct::new("floorplan_add_cell"),
        tw: taskwait_region("floorplan!taskwait"),
        single: SingleConstruct::new("floorplan!single"),
    })
}

/// Number of cells per scale (BOTS inputs are 15/20 cells).
pub fn input_cells(scale: Scale) -> usize {
    match scale {
        Scale::Test => 6,
        Scale::Small => 8,
        Scale::Medium => 10,
    }
}

/// Task-creation cut-off depth of the cut-off variant.
pub const CUTOFF_DEPTH: usize = 3;

/// Deterministic cell set: 2–3 alternatives of 1..=3 × 1..=3 shapes.
pub fn gen_cells(n: usize, seed: u64) -> Vec<Cell> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let nalts = 2 + rng.below(2) as usize;
            let alts = (0..nalts)
                .map(|_| (1 + rng.below(3) as u8, 1 + rng.below(3) as u8))
                .collect();
            Cell { alts }
        })
        .collect()
}

/// Try placing an `h × w` cell with top-left corner (r, c); returns the
/// new board on success.
pub fn place(board: &Board, r: usize, c: usize, h: u8, w: u8) -> Option<Board> {
    let (h, w) = (h as usize, w as usize);
    if r + h > GRID || c + w > GRID {
        return None;
    }
    let mask = ((1u32 << w) - 1) as u16;
    let shifted = mask << c;
    let mut nb = *board;
    for row in &mut nb[r..r + h] {
        if *row & shifted != 0 {
            return None;
        }
        *row |= shifted;
    }
    Some(nb)
}

/// Candidate top-left positions: the origin on an empty board, otherwise
/// every free cell whose upper or left neighbour is occupied (plus free
/// cells on the top/left edge adjacent to the occupied region's bounding
/// box). Keeps branching moderate, like the original's corner positions.
pub fn candidates(board: &Board) -> Vec<(usize, usize)> {
    if board.iter().all(|&r| r == 0) {
        return vec![(0, 0)];
    }
    let mut out = Vec::new();
    let occupied = |r: usize, c: usize| board[r] & (1 << c) != 0;
    for r in 0..GRID {
        for c in 0..GRID {
            if occupied(r, c) {
                continue;
            }
            let above = r > 0 && occupied(r - 1, c);
            let left = c > 0 && occupied(r, c - 1);
            if above || left {
                out.push((r, c));
            }
        }
    }
    out
}

/// Bounding-box area of the occupied region.
pub fn area(board: &Board) -> u32 {
    let mut max_r = 0usize;
    let mut max_c = 0usize;
    let mut any = false;
    for (r, &row) in board.iter().enumerate() {
        if row != 0 {
            any = true;
            max_r = r;
            max_c = max_c.max(15 - row.leading_zeros() as usize);
        }
    }
    if any {
        ((max_r + 1) * (max_c + 1)) as u32
    } else {
        0
    }
}

/// Serial branch-and-bound reference.
pub fn serial_best(cells: &[Cell]) -> u32 {
    fn go(cells: &[Cell], id: usize, board: &Board, best: &mut u32, nsol: &mut u64) {
        if id == cells.len() {
            let a = area(board);
            if a < *best {
                *best = a;
            }
            *nsol += 1;
            return;
        }
        for &(h, w) in &cells[id].alts {
            for (r, c) in candidates(board) {
                if let Some(nb) = place(board, r, c, h, w) {
                    if area(&nb) >= *best {
                        continue; // bound
                    }
                    go(cells, id + 1, &nb, best, nsol);
                }
            }
        }
    }
    let mut best = u32::MAX;
    let mut nsol = 0;
    go(cells, 0, &[0; GRID], &mut best, &mut nsol);
    best
}

#[allow(clippy::too_many_arguments)]
fn add_cell_task<'e, M: Monitor>(
    ctx: &TaskCtx<'_, 'e, M>,
    cells: &'e [Cell],
    id: usize,
    board: Board,
    best: &'e AtomicU32,
    explored: &'e AtomicU64,
    cutoff: Option<usize>,
) {
    explored.fetch_add(1, Ordering::Relaxed);
    if id == cells.len() {
        best.fetch_min(area(&board), Ordering::AcqRel);
        return;
    }
    let r = regions();
    let spawn = cutoff.is_none_or(|c| id < c);
    for &(h, w) in &cells[id].alts {
        for (cr, cc) in candidates(&board) {
            if let Some(nb) = place(&board, cr, cc, h, w) {
                if area(&nb) >= best.load(Ordering::Acquire) {
                    continue;
                }
                if spawn {
                    ctx.task(&r.task, move |ctx| {
                        add_cell_task(ctx, cells, id + 1, nb, best, explored, cutoff)
                    });
                } else {
                    add_cell_task(ctx, cells, id + 1, nb, best, explored, cutoff);
                }
            }
        }
    }
    if spawn {
        ctx.taskwait(r.tw);
    }
}

/// Run the benchmark.
pub fn run<M: Monitor>(monitor: &M, opts: &RunOpts) -> Outcome {
    let cells = gen_cells(input_cells(opts.scale), 0xF100_0F1A);
    let cutoff = (opts.variant == Variant::Cutoff).then_some(CUTOFF_DEPTH);
    let best = AtomicU32::new(u32::MAX);
    let explored = AtomicU64::new(0);
    let r = regions();
    let team = Team::new(opts.threads);
    let (cells_ref, best_ref, explored_ref) = (&cells[..], &best, &explored);
    let start = Instant::now();
    team.parallel(monitor, &r.par, |ctx| {
        ctx.single(&r.single, |ctx| {
            add_cell_task(ctx, cells_ref, 0, [0; GRID], best_ref, explored_ref, cutoff);
        });
    });
    let kernel = start.elapsed();
    let got = best.load(Ordering::Relaxed);
    // Branch-and-bound is exact: the optimum is schedule-independent even
    // though the explored-node count is not.
    let verified = got == serial_best(&cells);
    Outcome {
        kernel,
        checksum: got as u64,
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::NullMonitor;

    #[test]
    fn place_detects_overlap_and_bounds() {
        let empty = [0u16; GRID];
        let b = place(&empty, 0, 0, 2, 2).unwrap();
        assert!(place(&b, 1, 1, 1, 1).is_none(), "overlap");
        assert!(place(&b, 0, 2, 1, 1).is_some());
        assert!(place(&empty, 15, 0, 2, 1).is_none(), "row overflow");
        assert!(place(&empty, 0, 15, 1, 2).is_none(), "col overflow");
    }

    #[test]
    fn area_is_bounding_box() {
        let empty = [0u16; GRID];
        assert_eq!(area(&empty), 0);
        let b = place(&empty, 0, 0, 2, 3).unwrap();
        assert_eq!(area(&b), 6);
        let b2 = place(&b, 3, 0, 1, 1).unwrap();
        assert_eq!(area(&b2), 4 * 3);
    }

    #[test]
    fn candidates_touch_placed_region() {
        let empty = [0u16; GRID];
        assert_eq!(candidates(&empty), vec![(0, 0)]);
        let b = place(&empty, 0, 0, 1, 1).unwrap();
        let cs = candidates(&b);
        assert!(cs.contains(&(0, 1)));
        assert!(cs.contains(&(1, 0)));
        assert!(!cs.contains(&(0, 0)), "occupied cell is not a candidate");
        assert!(!cs.contains(&(5, 5)), "detached cell is not a candidate");
    }

    #[test]
    fn serial_best_two_unit_cells() {
        // Two 1×1 cells: optimum packs them into a 1×2 box (area 2).
        let cells = vec![Cell { alts: vec![(1, 1)] }, Cell { alts: vec![(1, 1)] }];
        assert_eq!(serial_best(&cells), 2);
    }

    #[test]
    fn parallel_finds_same_optimum() {
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
