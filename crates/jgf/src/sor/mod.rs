//! JGF Section 2 SOR: red-black successive over-relaxation.
//!
//! "This benchmark is a typical scientific application, where a five-point
//! stencil is successively applied to a matrix" (§V). It is the workload of
//! every figure in the paper's evaluation. Three families live here:
//!
//! * [`seq`](self::sor_seq) — the plain sequential reference (the paper's
//!   "original" curve);
//! * [`pluggable`] — the base code written once against a [`Ctx`], plus the
//!   plan modules for sequential / shared-memory / distributed deployment
//!   and checkpointing;
//! * [`baseline`] — hand-written thread and message-passing versions, with
//!   and without *invasively* inserted checkpointing (the paper's "invasive"
//!   curve).
//!
//! The update is the classic red-black Gauss-Seidel SOR: cells with
//! `(i + j) % 2 == color` are relaxed from their four neighbours (all of the
//! opposite colour), so row-parallel sweeps write disjoint cells and read
//! only cells no one writes in the same sweep.

pub mod baseline;
pub mod pluggable;

use ppar_core::ctx::Ctx;
use ppar_core::shared::SharedGrid;

/// Parameters of one SOR run.
#[derive(Debug, Clone)]
pub struct SorParams {
    /// Grid side (N×N).
    pub n: usize,
    /// Relaxation iterations (each = red sweep + black sweep).
    pub iterations: usize,
    /// Over-relaxation factor (JGF uses 1.25).
    pub omega: f64,
    /// Seed for the deterministic initial grid.
    pub seed: u64,
    /// Simulate a resource failure after this iteration (the run returns
    /// early, leaving the run marker set).
    pub fail_after: Option<usize>,
    /// Record per-iteration wall times (Fig. 6).
    pub record_iter_times: bool,
}

impl SorParams {
    /// JGF-ish defaults at a given size.
    pub fn new(n: usize, iterations: usize) -> SorParams {
        SorParams {
            n,
            iterations,
            omega: 1.25,
            seed: 0x5eed_50f2,
            fail_after: None,
            record_iter_times: false,
        }
    }
}

/// Result of one SOR run.
#[derive(Debug, Clone)]
pub struct SorResult {
    /// Sum of all grid cells (the JGF validation checksum).
    pub checksum: f64,
    /// Iterations actually executed (less than requested on a simulated
    /// failure).
    pub iterations_done: usize,
    /// Per-iteration wall times when requested.
    pub iter_times: Vec<f64>,
}

/// Deterministic initial grid: a cheap splitmix-style hash of the cell
/// coordinates, identical on every rank and every mode.
pub fn init_value(seed: u64, i: usize, j: usize) -> f64 {
    let mut x = seed ^ ((i as u64) << 32) ^ (j as u64);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x as f64) / (u64::MAX as f64)
}

/// Fill a shared grid with the deterministic initial state.
pub fn fill_grid(g: &SharedGrid<f64>, seed: u64) {
    for i in 0..g.rows() {
        let row = g.row_cells_mut(i);
        for j in 0..row.len() {
            row.set(j, init_value(seed, i, j));
        }
    }
}

/// Relax every cell of interior row `i` with parity `color`, reading the
/// four neighbours through row views of rows `i - 1`, `i` and `i + 1`. The
/// arithmetic and its order are exactly [`sor_seq`]'s, so every variant
/// built on this kernel stays bitwise equal to the reference.
#[inline]
pub fn relax_row(g: &SharedGrid<f64>, i: usize, color: usize, omega: f64) {
    let n = g.cols();
    let jstart = 1 + ((i + color + 1) % 2);
    if jstart + 1 >= n {
        // No cell of this colour in the row: leave it unmarked.
        return;
    }
    let up = g.row_cells(i - 1);
    let down = g.row_cells(i + 1);
    let me = g.row_cells_mut(i);
    let mut j = jstart;
    while j < n - 1 {
        let stencil = up.get(j) + down.get(j) + me.get(j - 1) + me.get(j + 1);
        let old = me.get(j);
        me.set(j, omega * 0.25 * stencil + (1.0 - omega) * old);
        j += 2;
    }
}

/// Plain sequential SOR on an owned matrix: the reference implementation
/// every other variant is validated against.
pub fn sor_seq(p: &SorParams) -> SorResult {
    let n = p.n;
    let mut g = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            g[i * n + j] = init_value(p.seed, i, j);
        }
    }
    let mut done = 0;
    for it in 0..p.iterations {
        for color in 0..2 {
            for i in 1..n - 1 {
                let jstart = 1 + ((i + color + 1) % 2);
                let mut j = jstart;
                while j < n - 1 {
                    let stencil = g[(i - 1) * n + j]
                        + g[(i + 1) * n + j]
                        + g[i * n + j - 1]
                        + g[i * n + j + 1];
                    g[i * n + j] = p.omega * 0.25 * stencil + (1.0 - p.omega) * g[i * n + j];
                    j += 2;
                }
            }
        }
        done = it + 1;
        if Some(done) == p.fail_after {
            break;
        }
    }
    SorResult {
        checksum: g.iter().sum(),
        iterations_done: done,
        iter_times: Vec::new(),
    }
}

/// Checksum of a context-allocated grid (master/root view).
pub fn grid_checksum(ctx: &Ctx, g: &SharedGrid<f64>) -> f64 {
    let _ = ctx;
    g.sum_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_core::state::StateCell;
    use proptest::prelude::*;

    #[test]
    fn init_is_deterministic_and_spread() {
        assert_eq!(init_value(1, 2, 3), init_value(1, 2, 3));
        assert_ne!(init_value(1, 2, 3), init_value(1, 3, 2));
        assert_ne!(init_value(1, 2, 3), init_value(2, 2, 3));
        for i in 0..10 {
            for j in 0..10 {
                let v = init_value(42, i, j);
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn seq_sor_converges_toward_smoothness() {
        // SOR smooths the random field: the discrete Laplacian magnitude
        // must shrink.
        let rough = sor_seq(&SorParams::new(32, 0));
        let smooth = sor_seq(&SorParams::new(32, 50));
        // Checksums differ but remain finite and bounded.
        assert!(rough.checksum.is_finite());
        assert!(smooth.checksum.is_finite());
        assert_ne!(rough.checksum, smooth.checksum);
    }

    #[test]
    fn seq_sor_is_deterministic() {
        let a = sor_seq(&SorParams::new(24, 10));
        let b = sor_seq(&SorParams::new(24, 10));
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn fail_after_stops_early() {
        let r = sor_seq(&SorParams {
            fail_after: Some(3),
            ..SorParams::new(16, 10)
        });
        assert_eq!(r.iterations_done, 3);
    }

    /// One colour sweep over rows `1..n-1` through the per-element
    /// accessors: the arithmetic `relax_row` must reproduce.
    fn sweep_per_element(g: &SharedGrid<f64>, color: usize, omega: f64) {
        let n = g.cols();
        for i in 1..n - 1 {
            let mut j = 1 + ((i + color + 1) % 2);
            while j < n - 1 {
                let stencil = g.get(i - 1, j) + g.get(i + 1, j) + g.get(i, j - 1) + g.get(i, j + 1);
                let old = g.get(i, j);
                g.set(i, j, omega * 0.25 * stencil + (1.0 - omega) * old);
                j += 2;
            }
        }
    }

    /// Red then black sweep of one grid through `relax_row` and of a twin
    /// through the per-element arithmetic: after each colour the cells are
    /// bitwise equal and, dirty maps cleared beforehand, the same chunks are
    /// marked.
    fn assert_sweeps_match(n: usize, omega: f64, seed: u64) {
        let views = SharedGrid::new(n, n, 0.0f64);
        fill_grid(&views, seed);
        let cells = SharedGrid::new(n, n, 0.0f64);
        fill_grid(&cells, seed);
        let bits = |g: &SharedGrid<f64>| -> Vec<u64> {
            g.flat().as_slice().iter().map(|v| v.to_bits()).collect()
        };
        for color in 0..2 {
            views.clear_dirty();
            cells.clear_dirty();
            for i in 1..n - 1 {
                relax_row(&views, i, color, omega);
            }
            sweep_per_element(&cells, color, omega);
            assert_eq!(bits(&views), bits(&cells), "n={n} color={color}");
            assert_eq!(
                views.dirty_ranges(),
                cells.dirty_ranges(),
                "n={n} color={color}"
            );
        }
    }

    proptest! {
        /// Odd and even sides, both colours, any ω and seed.
        #[test]
        fn relax_row_matches_per_element_sweep(
            n in 3usize..65,
            omega in 0.1f64..1.95,
            seed in any::<u64>(),
        ) {
            assert_sweeps_match(n, omega, seed);
        }
    }

    #[test]
    fn relax_row_matches_per_element_sweep_at_every_side() {
        // The 3×3 grid's colour-1 sweep writes nothing and must mark nothing.
        for n in 3..65 {
            assert_sweeps_match(n, 1.25, n as u64);
        }
    }
}
