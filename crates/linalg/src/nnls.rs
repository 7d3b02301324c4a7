//! Lawson–Hanson non-negative least squares.
//!
//! Integer-Regression's continuous relaxation constrains the selection
//! indicator to be non-negative (a review cannot be "negatively selected").
//! NOMP refits on its active set with this solver so intermediate solutions
//! stay feasible.
//!
//! Two entry points share the active-set logic:
//!
//! * [`nnls_capped`] works in design space: `min ‖A x − b‖₂, x ≥ 0`,
//!   solving each passive-set refit through the normal equations of the
//!   sub-matrix. It backs the `nomp_reference` oracle.
//! * [`nnls_gram`] works in normal-equation space: it takes the Gram
//!   matrix `G = AᵀA` and `Aᵀb` directly, which is what the Gram-caching
//!   NOMP engine maintains incrementally — the refit never has to touch
//!   the (tall) design matrix again.
//!
//! Both return the same minimiser up to floating-point reassociation:
//!
//! ```
//! use comparesets_linalg::{nnls_capped, nnls_gram, DesignMatrix, Matrix};
//! use comparesets_obs::SolveCtl;
//!
//! let a = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
//! let b = [2.0, 1.0, 1.5];
//!
//! let (x_design, diag) = nnls_capped(&a, &b).unwrap();
//! assert!(diag.converged);
//!
//! // Hand nnls_gram the same system in normal-equation form.
//! let g = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap(); // AᵀA
//! let atb = DesignMatrix::tr_matvec(&a, &b).unwrap(); // Aᵀb
//! let (x_gram, _) = nnls_gram(&g, &atb, SolveCtl::default()).unwrap();
//!
//! for (d, g) in x_design.iter().zip(x_gram.iter()) {
//!     assert!((d - g).abs() < 1e-10);
//! }
//! ```

use crate::cholesky::{solve_gram_system_with, solve_normal_equations};
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector;
use comparesets_obs::{SolveCtl, SolverMetrics};

/// Row-range width of the cache-blocked dual refresh in
/// [`nnls_gram`]. A multiple of [`vector::SIMD_LANES`], so the
/// per-block chunked axpys execute exactly `⌊n/4⌋` full 4-lane blocks per
/// passive column in total (only the final range can have a scalar tail),
/// and small enough that one `gx` range plus the touched Gram rows stay
/// resident in L1/L2 across the whole passive set.
const NNLS_REFRESH_BLOCK: usize = 512;

/// Convergence diagnostic returned by both NNLS entry points.
///
/// The active-set loop has a hard iteration budget (`3 × cols + 10` outer
/// iterations). Neither entry point fails on exhaustion — they return
/// the best feasible iterate reached so far together with this record, so
/// callers on the solve path (the NOMP refit in particular) can degrade
/// gracefully instead of aborting an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NnlsDiagnostics {
    /// Whether the KKT conditions were met within the iteration budget.
    pub converged: bool,
    /// Outer iterations performed.
    pub iterations: usize,
}

/// Solve `min ‖A x − b‖₂  s.t.  x ≥ 0` with the Lawson–Hanson active-set
/// method, under a hard iteration cap: when the budget is exhausted the
/// current (always feasible, `x ≥ 0`) iterate is returned together with a
/// [`NnlsDiagnostics`] record.
///
/// # Errors
/// Shape errors and [`LinalgError::NonFinite`] on NaN/Inf input; never
/// [`LinalgError::NoConvergence`].
pub fn nnls_capped(a: &Matrix, b: &[f64]) -> Result<(Vec<f64>, NnlsDiagnostics), LinalgError> {
    let m = a.rows();
    let n = a.cols();
    if b.len() != m {
        return Err(LinalgError::DimensionMismatch {
            context: "nnls",
            expected: m,
            actual: b.len(),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite {
            context: "nnls design matrix",
        });
    }
    if !vector::all_finite(b) {
        return Err(LinalgError::NonFinite {
            context: "nnls rhs",
        });
    }
    // w = Aᵀ(b − A x); with x = 0 initially, w = Aᵀb.
    let w = a.tr_matvec(b)?;
    let mut residual = b.to_vec();
    lawson_hanson(
        n,
        w,
        || false,
        |passive_idx| solve_normal_equations(&a.select_columns(passive_idx), b),
        |x, w| {
            residual.copy_from_slice(b);
            let ax = a.matvec(x)?;
            for (r, v) in residual.iter_mut().zip(ax.iter()) {
                *r -= v;
            }
            *w = a.tr_matvec(&residual)?;
            Ok(())
        },
    )
}

/// Solve `min ‖A x − b‖₂  s.t.  x ≥ 0` given only the Gram matrix
/// `g = AᵀA` and the correlation vector `atb = Aᵀb`.
///
/// This is [`nnls_capped`] transported into normal-equation space: the
/// dual is `w = Aᵀ(b − A x) = atb − G x`, and the passive-set refits solve
/// principal subsystems of `G` directly, so no operation ever touches the
/// (potentially very tall) design matrix. NOMP maintains `G` and `atb`
/// incrementally across pursuit iterations and calls this for every refit;
/// see [`mod@crate::nomp`]. The returned minimiser is the same as
/// `nnls_capped(A, b)` up to floating-point reassociation.
///
/// Like [`nnls_capped`] this never fails on iteration exhaustion: the
/// current feasible iterate comes back with `converged: false`, so a
/// slow-to-converge active set degrades the fit quality of one pursuit
/// step instead of aborting the whole item. `ctl` carries the optional
/// metrics collector (passive-set refits route through the metered Gram
/// solver, so degradation-ladder activations are attributed to the run)
/// and the optional cancellation token, polled once per outer
/// Lawson–Hanson iteration; a fired token takes the same exit as the
/// iteration cap.
///
/// # Errors
/// Shape errors and [`LinalgError::NonFinite`] on NaN/Inf input; never
/// [`LinalgError::NoConvergence`].
pub fn nnls_gram(
    g: &Matrix,
    atb: &[f64],
    ctl: SolveCtl<'_>,
) -> Result<(Vec<f64>, NnlsDiagnostics), LinalgError> {
    let metrics = ctl.metrics;
    let n = g.rows();
    if g.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "nnls_gram (square)",
            expected: n,
            actual: g.cols(),
        });
    }
    if atb.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "nnls_gram",
            expected: n,
            actual: atb.len(),
        });
    }
    if !g.is_finite() {
        return Err(LinalgError::NonFinite {
            context: "nnls_gram matrix",
        });
    }
    if !vector::all_finite(atb) {
        return Err(LinalgError::NonFinite {
            context: "nnls_gram rhs",
        });
    }
    // w = Aᵀ(b − A x); with x = 0 initially, w = Aᵀb.
    lawson_hanson(
        n,
        atb.to_vec(),
        || ctl.is_cancelled(),
        |passive_idx| {
            // The principal subsystem of G on the passive set.
            let p = passive_idx.len();
            let mut g_sub = Matrix::zeros(p, p);
            for (ri, &i) in passive_idx.iter().enumerate() {
                for (ci, &j) in passive_idx.iter().enumerate() {
                    g_sub[(ri, ci)] = g[(i, j)];
                }
            }
            let rhs: Vec<f64> = passive_idx.iter().map(|&j| atb[j]).collect();
            solve_gram_system_with(&g_sub, &rhs, metrics)
        },
        |x, w| {
            // w = atb − G x. `x` is non-zero only on the passive set (p ≪ n
            // after pruning), and `G = AᵀA` is symmetric by this function's
            // contract, so column `j` of `G` is row `j` — a contiguous slice
            // the chunked axpy kernel can stream. The update is blocked over
            // row ranges so one `gx` range stays cache-resident across the
            // whole passive set. Bit-exactness versus the naive per-row dot:
            // for each element `i` the products arrive in the same
            // `j`-ascending order (`g[j][i]·x[j] == g[i][j]·x[j]` bitwise by
            // symmetry and commutativity), and the skipped `x[j] == 0` terms
            // are exact no-ops — a +0-seeded f64 accumulator never becomes
            // −0.0, so dropping ±0 additions changes nothing.
            let mut gx = vec![0.0_f64; n];
            let mut start = 0;
            while start < n {
                let end = (start + NNLS_REFRESH_BLOCK).min(n);
                for (j, &xj) in x.iter().enumerate() {
                    if xj == 0.0 {
                        continue;
                    }
                    vector::axpy(xj, &g.row(j)[start..end], &mut gx[start..end]);
                }
                start = end;
            }
            if let Some(mm) = metrics {
                // Every block except the last is a multiple of 4 wide, so
                // the chunked axpys run exactly ⌊n/4⌋ full lanes-blocks per
                // passive column.
                let nzx = x.iter().filter(|v| **v != 0.0).count() as u64;
                SolverMetrics::add(&mm.simd_blocks, nzx * vector::simd_block_count(n));
            }
            for (wi, (&ai, &gi)) in w.iter_mut().zip(atb.iter().zip(gx.iter())) {
                *wi = ai - gi;
            }
            Ok(())
        },
    )
}

/// The Lawson–Hanson active-set loop both entry points share, over `n`
/// variables starting from the dual `w = Aᵀb`. `solve_passive(idx)`
/// solves the unconstrained least-squares problem restricted to the
/// passive columns `idx`; `dual(x, w)` recomputes `w = Aᵀ(b − A x)`.
/// `cancelled()` is polled before every outer iteration: a true answer
/// takes the same exit as the iteration cap — the current `x` is feasible
/// (every accepted step kept `x ≥ 0`), so it comes back unconverged.
fn lawson_hanson(
    n: usize,
    mut w: Vec<f64>,
    mut cancelled: impl FnMut() -> bool,
    mut solve_passive: impl FnMut(&[usize]) -> Result<Vec<f64>, LinalgError>,
    mut dual: impl FnMut(&[f64], &mut Vec<f64>) -> Result<(), LinalgError>,
) -> Result<(Vec<f64>, NnlsDiagnostics), LinalgError> {
    let done = |x: Vec<f64>, converged: bool, iterations: usize| {
        Ok((
            x,
            NnlsDiagnostics {
                converged,
                iterations,
            },
        ))
    };
    if n == 0 {
        return done(Vec::new(), true, 0);
    }
    let mut x = vec![0.0_f64; n];
    let mut passive: Vec<bool> = vec![false; n];
    let tol = 1e-10 * vector::norm2(&w).max(1.0);
    let max_outer = 3 * n + 10;
    let mut outer = 0;
    loop {
        if cancelled() {
            return done(x, false, outer);
        }
        outer += 1;
        if outer > max_outer {
            return done(x, false, outer);
        }
        // Pick the most violated dual coordinate among the active (zero) set.
        let mut best_j = None;
        let mut best_w = tol;
        for j in 0..n {
            if !passive[j] && w[j] > best_w {
                best_w = w[j];
                best_j = Some(j);
            }
        }
        let Some(j_star) = best_j else {
            // KKT satisfied: all duals ≤ tol.
            return done(x, true, outer);
        };
        passive[j_star] = true;

        // Inner loop: solve unconstrained LS on the passive set, clip.
        loop {
            let passive_idx: Vec<usize> = (0..n).filter(|&j| passive[j]).collect();
            let z_sub = solve_passive(&passive_idx)?;

            if z_sub.iter().all(|&v| v > 0.0) {
                // Accept.
                x.iter_mut().for_each(|v| *v = 0.0);
                for (zi, &j) in z_sub.iter().zip(passive_idx.iter()) {
                    x[j] = *zi;
                }
                break;
            }
            // Step toward z as far as feasibility allows; move blockers out.
            let mut alpha = f64::INFINITY;
            for (zi, &j) in z_sub.iter().zip(passive_idx.iter()) {
                if *zi <= 0.0 {
                    let denom = x[j] - zi;
                    if denom > 0.0 {
                        alpha = alpha.min(x[j] / denom);
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (zi, &j) in z_sub.iter().zip(passive_idx.iter()) {
                x[j] += alpha * (zi - x[j]);
                if x[j] <= 1e-14 {
                    x[j] = 0.0;
                    passive[j] = false;
                }
            }
            // Guarantee progress: if the entering column got clipped right
            // back out, treat it as converged at the current x.
            if !passive[j_star] && x[j_star] == 0.0 && alpha == 0.0 {
                return done(x, true, outer);
            }
        }

        dual(&x, &mut w)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The converged design-space solution (every instance here converges).
    fn nnls(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let (x, diag) = nnls_capped(a, b)?;
        assert!(diag.converged);
        Ok(x)
    }

    /// The converged Gram-space solution, unmetered and uncancellable.
    fn gram(g: &Matrix, atb: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let (x, diag) = nnls_gram(g, atb, SolveCtl::default())?;
        assert!(diag.converged);
        Ok(x)
    }

    fn gram_of(a: &Matrix, b: &[f64]) -> (Matrix, Vec<f64>) {
        (a.gram(), a.tr_matvec(b).unwrap())
    }

    #[test]
    fn unconstrained_optimum_already_nonnegative() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let b = a.matvec(&[2.0, 3.0]).unwrap();
        let x = nnls(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-8);
        assert!((x[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn clips_negative_component() {
        // Unconstrained LS solution of this system has a negative entry;
        // NNLS must zero it and re-optimise the rest.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let b = vec![1.0, 0.0]; // unconstrained x = (2, -1)
        let x = nnls(&a, &b).unwrap();
        assert!(x.iter().all(|&v| v >= 0.0), "x = {x:?}");
        // With x2 forced to 0, best x1 minimises (x1-1)^2 + (x1-0)^2 → 0.5... actually
        // columns are (1,1) and (1,2); with only col0 active: min ||c0*x - b||,
        // x = c0·b/||c0||² = 1/2.
        assert!((x[0] - 0.5).abs() < 1e-8);
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let x = nnls(&a, &[0.0, 0.0]).unwrap();
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn empty_matrix_gives_empty_solution() {
        let a = Matrix::zeros(2, 0);
        let x = nnls(&a, &[1.0, 2.0]).unwrap();
        assert!(x.is_empty());
    }

    #[test]
    fn rejects_bad_rhs() {
        let a = Matrix::identity(2);
        assert!(nnls(&a, &[1.0]).is_err());
    }

    #[test]
    fn kkt_conditions_hold() {
        // Random-ish fixed instance: verify x >= 0 and A^T(b - Ax) <= tol
        // on the zero set, ≈ 0 on the positive set.
        let a = Matrix::from_rows(&[
            vec![0.5, 1.0, 0.0, 0.3],
            vec![1.0, 0.0, 0.7, 0.3],
            vec![0.0, 0.2, 1.0, 0.3],
            vec![0.9, 0.9, 0.1, 0.3],
        ])
        .unwrap();
        let b = vec![1.0, -0.5, 0.8, 0.2];
        let x = nnls(&a, &b).unwrap();
        assert!(x.iter().all(|&v| v >= 0.0));
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, yi)| bi - yi).collect();
        let w = a.tr_matvec(&r).unwrap();
        for (j, (&xj, &wj)) in x.iter().zip(w.iter()).enumerate() {
            if xj > 0.0 {
                assert!(wj.abs() < 1e-6, "dual not zero at positive coord {j}: {wj}");
            } else {
                assert!(wj < 1e-6, "dual positive at zero coord {j}: {wj}");
            }
        }
    }

    #[test]
    fn handles_duplicate_columns() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let b = vec![2.0, 2.0];
        let x = nnls(&a, &b).unwrap();
        assert!(x.iter().all(|&v| v >= 0.0));
        assert!((x[0] + x[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn gram_variant_matches_design_variant() {
        let a = Matrix::from_rows(&[
            vec![0.5, 1.0, 0.0, 0.3],
            vec![1.0, 0.0, 0.7, 0.3],
            vec![0.0, 0.2, 1.0, 0.3],
            vec![0.9, 0.9, 0.1, 0.3],
        ])
        .unwrap();
        let b = vec![1.0, -0.5, 0.8, 0.2];
        let x_design = nnls(&a, &b).unwrap();
        let (g, atb) = gram_of(&a, &b);
        let x_gram = gram(&g, &atb).unwrap();
        for (d, g) in x_design.iter().zip(x_gram.iter()) {
            assert!(
                (d - g).abs() < 1e-8,
                "design {x_design:?} vs gram {x_gram:?}"
            );
        }
    }

    #[test]
    fn gram_variant_clips_negative_component() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let b = vec![1.0, 0.0];
        let (g, atb) = gram_of(&a, &b);
        let x = gram(&g, &atb).unwrap();
        assert!((x[0] - 0.5).abs() < 1e-8);
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn gram_variant_satisfies_kkt() {
        let a = Matrix::from_rows(&[
            vec![0.5, 1.0, 0.0, 0.3],
            vec![1.0, 0.0, 0.7, 0.3],
            vec![0.0, 0.2, 1.0, 0.3],
            vec![0.9, 0.9, 0.1, 0.3],
        ])
        .unwrap();
        let b = vec![1.0, -0.5, 0.8, 0.2];
        let (g, atb) = gram_of(&a, &b);
        let x = gram(&g, &atb).unwrap();
        assert!(x.iter().all(|&v| v >= 0.0));
        let gx = g.matvec(&x).unwrap();
        for (j, ((&xj, &aj), &gj)) in x.iter().zip(atb.iter()).zip(gx.iter()).enumerate() {
            let wj = aj - gj;
            if xj > 0.0 {
                assert!(wj.abs() < 1e-6, "dual not zero at positive coord {j}: {wj}");
            } else {
                assert!(wj < 1e-6, "dual positive at zero coord {j}: {wj}");
            }
        }
    }

    #[test]
    fn gram_variant_rejects_bad_shapes() {
        let g = Matrix::identity(2);
        assert!(gram(&g, &[1.0]).is_err());
        let rect = Matrix::zeros(2, 3);
        assert!(gram(&rect, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn gram_variant_empty_system() {
        let g = Matrix::zeros(0, 0);
        assert!(gram(&g, &[]).unwrap().is_empty());
    }

    #[test]
    fn rejects_non_finite_input() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(
            nnls(&a, &[1.0, 1.0]),
            Err(LinalgError::NonFinite { .. })
        ));
        let a = Matrix::identity(2);
        assert!(matches!(
            nnls(&a, &[1.0, f64::INFINITY]),
            Err(LinalgError::NonFinite { .. })
        ));
        let mut g = Matrix::identity(2);
        g[(1, 1)] = f64::NEG_INFINITY;
        assert!(matches!(
            gram(&g, &[1.0, 1.0]),
            Err(LinalgError::NonFinite { .. })
        ));
        let g = Matrix::identity(2);
        assert!(matches!(
            gram(&g, &[f64::NAN, 1.0]),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn capped_variant_reports_convergence_on_easy_instance() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let b = a.matvec(&[2.0, 3.0]).unwrap();
        let (x, diag) = nnls_capped(&a, &b).unwrap();
        assert!(diag.converged);
        assert!(diag.iterations >= 1);
        assert_eq!(x, nnls(&a, &b).unwrap());

        let (g, atb) = gram_of(&a, &b);
        let (xg, diag_g) = nnls_gram(&g, &atb, SolveCtl::default()).unwrap();
        assert!(diag_g.converged);
        assert_eq!(xg, gram(&g, &atb).unwrap());
    }
}
