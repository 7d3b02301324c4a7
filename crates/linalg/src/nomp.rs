//! Non-negative Orthogonal Matching Pursuit (NOMP) with budget-path
//! sharing and Gram caching.
//!
//! Algorithm 1 of the paper calls `NOMP(Ṽ, Υ)` to find a sparse,
//! non-negative `x` with `‖x‖₀ ≤ ℓ` that makes `‖Ṽ x − Υ‖₂` small — the
//! continuous relaxation of review selection, following the
//! Integer-Regression strategy of Lappas, Crovella & Terzi (KDD'12).
//!
//! The pursuit is the classic greedy loop: repeatedly add the column with
//! the largest positive correlation to the current residual, refit on the
//! active set with non-negative least squares, prune any atom the refit
//! zeroed out, and stop once `ℓ` atoms are active, no column correlates
//! positively, or the residual stops improving. Two structural
//! optimisations make it fast without changing a single selected atom:
//!
//! * **Budget-path sharing** ([`nomp_path`]). Integer-Regression sweeps
//!   ℓ = 1…m (Algorithm 1 line 7), but the pursuit's loop body never reads
//!   the budget — only the loop *condition* does. One pursuit to the
//!   largest budget therefore passes through the exact state every smaller
//!   budget would have stopped at; [`nomp_path`] snapshots those states and
//!   returns all m results for the cost of one run.
//! * **Gram caching**. Each refit needs the active-set normal equations
//!   `G = AₛᵀAₛ`, `Aₛᵀb`. Instead of re-materialising the active submatrix
//!   and re-multiplying it every iteration (`O(rows·s²)` per refit), the
//!   engine maintains `G` and `Aₛᵀb` incrementally — an entering atom costs
//!   `s` column dot products ([`DesignMatrix::column_dot`]), a pruned atom
//!   deletes its row/column — and refits entirely in `s × s` space with
//!   [`crate::nnls::nnls_gram`].
//!
//! Scratch buffers (residual, correlations, the cached Gram) live in a
//! reusable [`NompWorkspace`] so solvers that run many pursuits (one per
//! item per sweep in CompaReSetS+) allocate once per task.
//!
//! A third optimisation targets *re-solves of the same design matrix*
//! (Algorithm 1's alternating sweeps change only the `μφ(S_j)` blocks of
//! the target between rounds). The same engine takes an optional
//! [`WarmState`]: without one the pursuit is cold and keeps nothing
//! between calls; with one it replays the previous pursuit's trajectory
//! atom-by-atom with validation — each cached atom must still be the
//! argmax under the new target, and a cached refit is reused only when its
//! inputs match bit-for-bit — and maintains the correlation vector `Aᵀr`
//! by Gram downdates (`c ← c − Δη·G[:,j]`) instead of a full matrix scan
//! per iteration, with periodic exact recomputes bounding drift.
//!
//! ```
//! use comparesets_linalg::{nomp_path, Matrix, NompOptions, NompWorkspace};
//! use comparesets_obs::SolveCtl;
//!
//! let a = Matrix::from_rows(&[
//!     vec![1.0, 0.0, 0.6],
//!     vec![0.0, 1.0, 0.8],
//! ])
//! .unwrap();
//! let b = vec![1.0, 2.0];
//! let mut ws = NompWorkspace::new();
//! let ctl = SolveCtl::default();
//!
//! // One pursuit, every budget ℓ = 1..=2: path[l-1] is the budget-ℓ result.
//! let path = nomp_path(&a, &b, NompOptions::with_max_atoms(2), &mut ws, None, ctl).unwrap();
//! assert_eq!(path.len(), 2);
//! assert!(path[1].sq_residual <= path[0].sq_residual + 1e-12);
//!
//! // Identical to a pursuit that stops at budget 1.
//! let single = nomp_path(&a, &b, NompOptions::with_max_atoms(1), &mut ws, None, ctl).unwrap();
//! assert_eq!(single[0].support, path[0].support);
//! assert_eq!(single[0].x, path[0].x);
//! ```

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::nnls::{nnls_capped, nnls_gram};
use crate::sparse::DesignMatrix;
use crate::vector;
use comparesets_obs::{CancelToken, SolveCtl, SolverMetrics};

/// Tuning knobs for [`nomp_path`].
#[derive(Debug, Clone, Copy)]
pub struct NompOptions {
    /// Maximum number of active atoms (ℓ in Algorithm 1 line 7). For
    /// [`nomp_path`] this is the largest budget; the path has this length.
    pub max_atoms: usize,
    /// Stop when the squared residual improves by less than this factor of
    /// the previous squared residual.
    pub min_relative_improvement: f64,
    /// Absolute squared-residual floor at which pursuit stops early.
    pub residual_tolerance: f64,
}

impl NompOptions {
    /// Options with a given atom budget and standard tolerances.
    pub fn with_max_atoms(max_atoms: usize) -> Self {
        NompOptions {
            max_atoms,
            min_relative_improvement: 1e-12,
            residual_tolerance: 1e-18,
        }
    }
}

/// Outcome of a NOMP run.
#[derive(Debug, Clone)]
pub struct NompResult {
    /// Dense solution vector (length = number of columns); entries off the
    /// support are exactly zero.
    pub x: Vec<f64>,
    /// Active column indices in the order they were selected.
    pub support: Vec<usize>,
    /// Final squared residual ‖A x − b‖₂².
    pub sq_residual: f64,
}

/// Reusable scratch for the pursuit engine: residual and correlation
/// buffers sized to the design matrix, plus the incrementally maintained
/// active-set Gram matrix and `Aᵀb` restriction.
///
/// A workspace carries no results between runs — every pursuit resets it —
/// but reusing one across the many pursuits of an alternating solve
/// (CompaReSetS+ re-solves each item every sweep) avoids re-allocating the
/// `O(rows + cols)` buffers each time.
#[derive(Debug, Clone, Default)]
pub struct NompWorkspace {
    col_norms: Vec<f64>,
    col_buf: Vec<f64>,
    residual: Vec<f64>,
    x: Vec<f64>,
    in_support: Vec<bool>,
    support: Vec<usize>,
    /// Active-set Gram matrix `AₛᵀAₛ`, row per support atom (in support
    /// order), maintained incrementally as atoms enter and leave.
    gram_rows: Vec<Vec<f64>>,
    /// `Aₛᵀb` restricted to the support, same order as `gram_rows`.
    atb: Vec<f64>,
}

impl NompWorkspace {
    /// An empty workspace; buffers grow to fit on first use.
    pub fn new() -> Self {
        NompWorkspace::default()
    }

    fn reset(&mut self, rows: usize, cols: usize) {
        self.col_norms.clear();
        self.col_norms.resize(cols, 0.0);
        self.col_buf.clear();
        self.col_buf.resize(rows, 0.0);
        self.residual.clear();
        self.residual.resize(rows, 0.0);
        self.x.clear();
        self.x.resize(cols, 0.0);
        self.in_support.clear();
        self.in_support.resize(cols, false);
        self.support.clear();
        self.gram_rows.clear();
        self.atb.clear();
    }

    fn snapshot(&self, sq_residual: f64) -> NompResult {
        NompResult {
            x: self.x.clone(),
            support: self.support.clone(),
            sq_residual,
        }
    }

    /// Reset to `a`'s shape and fill the column norms used to normalise
    /// correlations; zero columns are never selected. A NaN/Inf anywhere
    /// in a column makes its norm non-finite, so this pass doubles as the
    /// up-front finiteness scan of the design matrix (which may be sparse
    /// — scanning norms avoids densifying it).
    fn reset_norms<M: DesignMatrix>(&mut self, a: &M) -> Result<(), LinalgError> {
        self.reset(a.rows(), a.cols());
        for j in 0..a.cols() {
            a.column_into(j, &mut self.col_buf);
            self.col_norms[j] = vector::norm2(&self.col_buf);
        }
        if !vector::all_finite(&self.col_norms) {
            return Err(LinalgError::NonFinite {
                context: "nomp design matrix",
            });
        }
        Ok(())
    }

    /// Budget checkpoints: every budget whose stopping condition first
    /// holds at the current state gets a snapshot of it. True once every
    /// budget has one, which ends the pursuit.
    fn record_budgets(
        &self,
        results: &mut Vec<NompResult>,
        opts: NompOptions,
        sq_res: f64,
        metrics: Option<&SolverMetrics>,
    ) -> bool {
        let n = self.x.len();
        while results.len() < opts.max_atoms {
            let l = results.len() + 1;
            if self.support.len() >= l.min(n) || sq_res <= opts.residual_tolerance {
                if let Some(mm) = metrics {
                    SolverMetrics::incr(&mm.path_snapshots);
                }
                results.push(self.snapshot(sq_res));
            } else {
                return false;
            }
        }
        true
    }

    /// Hand every budget not yet recorded the current state: a pursuit
    /// that stops early stops there at every larger budget too.
    fn fill_budgets(
        &self,
        results: &mut Vec<NompResult>,
        opts: NompOptions,
        sq_res: f64,
        metrics: Option<&SolverMetrics>,
    ) {
        while results.len() < opts.max_atoms {
            if let Some(mm) = metrics {
                SolverMetrics::incr(&mm.path_snapshots);
            }
            results.push(self.snapshot(sq_res));
        }
    }

    /// Enter atom `j`: extend the cached Gram by `gram_row` (`G[k][j]` for
    /// every support atom `k`, then `G[j][j]`) and `Aᵀb` by `atb_j`.
    fn enter(&mut self, j: usize, gram_row: Vec<f64>, atb_j: f64) {
        for (row, &g) in self.gram_rows.iter_mut().zip(gram_row.iter()) {
            row.push(g);
        }
        self.gram_rows.push(gram_row);
        self.atb.push(atb_j);
        self.support.push(j);
        self.in_support[j] = true;
    }

    /// Refit on the active set entirely in Gram space, counting the refit
    /// into the metrics. The capped NNLS never fails on iteration
    /// exhaustion: a slow-to-converge refit degrades this step's fit
    /// (best feasible iterate) instead of aborting the item — the
    /// improvement check then decides whether pursuit can continue.
    fn refit(&self, ctl: SolveCtl<'_>) -> Result<Vec<f64>, LinalgError> {
        let metrics = ctl.metrics;
        let g = Matrix::from_rows(&self.gram_rows)?;
        let refit_start = metrics.map(|_| std::time::Instant::now());
        let (x_sub, diag) = nnls_gram(&g, &self.atb, ctl)?;
        if let Some(mm) = metrics {
            if let Some(t) = refit_start {
                SolverMetrics::add_time(&mm.refit_nanos, t.elapsed());
            }
            SolverMetrics::incr(&mm.nnls_refits);
            SolverMetrics::add(&mm.nnls_iterations, diag.iterations as u64);
            if !diag.converged {
                SolverMetrics::incr(&mm.nnls_cap_hits);
                tracing::warn!(
                    "nnls refit hit its iteration cap after {} outer iterations",
                    diag.iterations
                );
            }
        }
        Ok(x_sub)
    }

    /// Adopt a refit's active-set solution: write the dense `x`, prune the
    /// atoms it zeroed and compact the cached normal equations to the
    /// survivors. Returns whether the entering (last) atom was pruned.
    fn apply_refit(&mut self, x_sub: &[f64]) -> bool {
        let pruned_entering = x_sub[self.support.len() - 1] <= 0.0;
        let mut kept_pos: Vec<usize> = Vec::with_capacity(self.support.len());
        for (pos, v) in x_sub.iter().enumerate() {
            if *v > 0.0 {
                kept_pos.push(pos);
            } else {
                self.in_support[self.support[pos]] = false;
            }
        }
        self.x.iter_mut().for_each(|v| *v = 0.0);
        for (v, &j) in x_sub.iter().zip(self.support.iter()) {
            if *v > 0.0 {
                self.x[j] = *v;
            }
        }
        if kept_pos.len() < self.support.len() {
            self.support = kept_pos.iter().map(|&p| self.support[p]).collect();
            self.atb = kept_pos.iter().map(|&p| self.atb[p]).collect();
            self.gram_rows = kept_pos
                .iter()
                .map(|&p| kept_pos.iter().map(|&q| self.gram_rows[p][q]).collect())
                .collect();
        }
        pruned_entering
    }

    /// Recompute the residual `b − A x`; returns its squared norm.
    fn update_residual<M: DesignMatrix>(&mut self, a: &M, b: &[f64]) -> Result<f64, LinalgError> {
        self.residual.copy_from_slice(b);
        let ax = a.matvec(&self.x)?;
        for (r, v) in self.residual.iter_mut().zip(ax.iter()) {
            *r -= v;
        }
        Ok(vector::dot(&self.residual, &self.residual))
    }
}

/// The input checks every pursuit makes before any work.
fn check_inputs<M: DesignMatrix>(a: &M, b: &[f64], opts: NompOptions) -> Result<(), LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            context: "nomp",
            expected: a.rows(),
            actual: b.len(),
        });
    }
    if opts.max_atoms == 0 {
        return Err(LinalgError::InvalidArgument("nomp: max_atoms must be > 0"));
    }
    if !vector::all_finite(b) {
        return Err(LinalgError::NonFinite {
            context: "nomp rhs",
        });
    }
    Ok(())
}

/// Iterations between exact `Aᵀr` recomputes in a warm pursuit: the
/// downdated correlations accumulate one rounding's worth of drift per
/// refit, so a short period keeps them within a few ulps of exact.
const CORR_RECOMPUTE_PERIOD: u64 = 8;

/// Relative residual floor (vs `‖b‖²`) below which a warm pursuit always
/// recomputes `Aᵀr` exactly: near a perfect fit the correlations are tiny
/// differences of large downdates, where absolute drift dominates the
/// signal and could mis-rank the argmax.
const CORR_SAFETY_FLOOR: f64 = 1e-12;

/// Cache key for the tolerances a cached trajectory was produced under.
fn opts_key(opts: NompOptions) -> (usize, u64, u64) {
    (
        opts.max_atoms,
        opts.min_relative_improvement.to_bits(),
        opts.residual_tolerance.to_bits(),
    )
}

/// One recorded iteration of a completed pursuit: which atom entered, the
/// exact `Aᵀb` restriction its refit saw (support order, entering atom
/// last), and the refit's output. Replay reuses `x_sub` only when a fresh
/// run reproduces `atb` bit-for-bit — NNLS is deterministic, so identical
/// inputs make the cached output exact, not approximate.
#[derive(Debug, Clone)]
struct WarmStep {
    entered: usize,
    atb: Vec<f64>,
    x_sub: Vec<f64>,
}

/// A cached full Gram column `G[:,j] = AᵀA eⱼ` plus its non-zero index
/// list. Correlation downdates iterate only `nnz`: a skipped entry has
/// `g == 0.0`, so its update `c ← c − Δx·0` is an exact no-op (an f64
/// accumulator can never flip to −0.0 by adding ±0.0), and the error
/// bound built from the touched entries' maxima stays conservative —
/// untouched entries incur zero new rounding. On review design matrices
/// most column pairs share no aspect row, so `nnz` is short and the
/// downdate cost drops from `O(n)` to `O(nnz(G[:,j]))`.
#[derive(Debug, Clone)]
struct GramCol {
    values: Box<[f64]>,
    nnz: Box<[u32]>,
}

impl GramCol {
    fn new(values: Vec<f64>) -> Self {
        let nnz: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(k, _)| k as u32)
            .collect();
        GramCol {
            values: values.into_boxed_slice(),
            nnz: nnz.into_boxed_slice(),
        }
    }
}

/// Cross-call cache for [`nomp_path`]: the previous completed pursuit's
/// trajectory and path for one design matrix, plus lazily filled full
/// Gram columns shared by replay validation and the incremental
/// correlation downdates.
///
/// A state is self-validating against the matrix it is handed: every call
/// recomputes the column norms (the same pass a cold pursuit makes) and
/// a bitwise mismatch against the cached norms — or a shape change —
/// conservatively drops every matrix-derived cache. Reusing one state
/// across *different* matrices that collide on shape and column norms is
/// a caller contract violation; the intended use is one state per item
/// across the alternating sweeps of CompaReSetS+, where the design matrix
/// is identical between rounds and only the target changes.
#[derive(Debug, Clone, Default)]
pub struct WarmState {
    /// `(rows, cols)` the caches below describe; `None` = empty state.
    shape: Option<(usize, usize)>,
    /// [`opts_key`] of the cached trajectory.
    opts: (usize, u64, u64),
    /// Column norms of the cached matrix, compared bitwise each call.
    col_norms: Vec<f64>,
    /// Lazily cached full Gram columns `G[:,j] = AᵀA eⱼ` (with non-zero
    /// index lists for the sparse downdates), filled the first time atom
    /// `j` enters a pursuit and reused across calls.
    gram_cols: Vec<Option<GramCol>>,
    /// Target of the cached trajectory.
    target: Vec<f64>,
    /// Per-iteration trajectory of the cached (completed) pursuit.
    steps: Vec<WarmStep>,
    /// The cached full budget path.
    path: Vec<NompResult>,
    /// Whether `target`/`steps`/`path` describe a completed pursuit.
    trajectory: bool,
    /// Scratch: previous dense `x`, for the `Δx` downdates.
    x_prev: Vec<f64>,
}

impl WarmState {
    /// An empty state; caches fill on first use.
    pub fn new() -> Self {
        WarmState::default()
    }

    /// Drop every cache. Call when the design matrix the state was warmed
    /// on may have changed in ways the self-validation should not be
    /// trusted to catch (e.g. an incremental session mutated the item).
    pub fn invalidate(&mut self) {
        self.shape = None;
        self.col_norms.clear();
        self.gram_cols.clear();
        self.target.clear();
        self.steps.clear();
        self.path.clear();
        self.trajectory = false;
    }

    /// Would [`nomp_path`] with this state on `(b, opts)` take the
    /// full-reuse fast path? True when a completed trajectory is cached
    /// under the same options and a bit-equal target. The caller asserts
    /// the design matrix is unchanged — this query skips the norm
    /// validation the engine itself performs, so higher layers can skip
    /// *their own* recomputation (rounding, candidate evaluation) too.
    pub fn full_reuse_ready(&self, b: &[f64], opts: NompOptions) -> bool {
        self.trajectory && self.opts == opts_key(opts) && self.target == b
    }

    /// Count a full reuse into `metrics` as the engine's fast path does:
    /// every cached iteration as a warm-start hit, every path entry as a
    /// snapshot, and no refits. The pursuit itself is counted by whoever
    /// answers it.
    pub fn record_full_reuse(&self, metrics: Option<&SolverMetrics>) {
        if let Some(mm) = metrics {
            SolverMetrics::add(&mm.nomp_iterations, self.steps.len() as u64);
            SolverMetrics::add(&mm.warm_start_hits, self.steps.len() as u64);
            SolverMetrics::add(&mm.path_snapshots, self.path.len() as u64);
        }
    }

    /// Check the state against the matrix whose column norms were just
    /// computed: a shape or norm mismatch drops every matrix-derived
    /// cache, an options change drops the trajectory.
    fn validate(&mut self, shape: (usize, usize), col_norms: &[f64], opts: NompOptions) {
        if self.shape != Some(shape) || self.col_norms != col_norms {
            self.shape = Some(shape);
            self.col_norms.clear();
            self.col_norms.extend_from_slice(col_norms);
            self.gram_cols.clear();
            self.gram_cols.resize(shape.1, None);
            self.trajectory = false;
        }
        if self.opts != opts_key(opts) {
            self.opts = opts_key(opts);
            self.trajectory = false;
        }
    }

    /// Downdate `corr` by `c ← c − Δx_j·G[:,j]` for every atom whose
    /// coefficient moved from `x_prev` to `x`, adding each update's
    /// rounding bound to `corr_err`. Returns the number of columns applied.
    fn downdate(&self, corr: &mut [f64], x: &[f64], corr_err: &mut f64) -> u64 {
        let mut updates = 0u64;
        for (j, (&xj, &pj)) in x.iter().zip(self.x_prev.iter()).enumerate() {
            let dx = xj - pj;
            if dx == 0.0 {
                continue;
            }
            // Every atom with a coefficient entered some pursuit on this
            // matrix, so its Gram column is cached. Only the stored
            // non-zeros of `G[:,j]` are visited: a zero entry's update is
            // an exact no-op (see [`GramCol`]), so the touched values —
            // and hence the selections — are bitwise those of the
            // full-column walk at a fraction of the cost on sparse
            // instances.
            if let Some(gcol) = self.gram_cols[j].as_ref() {
                let mut gmax = 0.0_f64;
                let mut cmax = 0.0_f64;
                for &k in gcol.nnz.iter() {
                    let g = gcol.values[k as usize];
                    let cv = &mut corr[k as usize];
                    *cv -= dx * g;
                    gmax = gmax.max(g.abs());
                    cmax = cmax.max(cv.abs());
                }
                // Per-entry rounding of `fl(c − fl(dx·g))`: one ulp of the
                // product plus one of the difference, bounded by
                // `ε·(|dx|·max|G[:,j]| + max|c|)` with a 2× safety factor
                // (maxima over the touched entries — untouched ones incur
                // zero rounding). The downdate is also one exact
                // mathematical identity away from `Aᵀr`, so no model error
                // enters — only these roundings.
                *corr_err += 2.0 * f64::EPSILON * (dx.abs() * gmax + cmax);
                updates += 1;
            }
        }
        updates
    }

    /// Keep a completed pursuit's trajectory for the next call. A
    /// cancelled pursuit only clears the cache: its path is a truncated
    /// anytime state, not a completed answer.
    fn store(&mut self, b: &[f64], steps: Vec<WarmStep>, path: &[NompResult], completed: bool) {
        self.trajectory = completed;
        self.target.clear();
        if completed {
            self.target.extend_from_slice(b);
            self.steps = steps;
            self.path = path.to_vec();
        } else {
            self.steps.clear();
            self.path.clear();
        }
    }
}

/// Count one full correlation scan (`c = Aᵀr`) into `metrics`, classified
/// by backend: sparse scans walk stored entries, dense scans run the
/// chunked 4-lane kernels (whose full blocks land in `simd_blocks`).
#[inline]
fn count_corr_scan<M: DesignMatrix>(a: &M, residual: &[f64], metrics: Option<&SolverMetrics>) {
    if let Some(mm) = metrics {
        if a.is_sparse() {
            SolverMetrics::incr(&mm.sparse_corr_scans);
        } else {
            SolverMetrics::incr(&mm.dense_corr_scans);
            SolverMetrics::add(&mm.simd_blocks, a.tr_scan_simd_blocks(residual));
        }
    }
}

/// Run one shared pursuit and return the results for **every** budget
/// `ℓ = 1..=opts.max_atoms` (`path[l-1]` is the budget-`l` result).
///
/// Each entry is identical — same support, same coefficients, same
/// residual — to the last entry of a pursuit run with `max_atoms = l`,
/// because the pursuit's state evolution does not depend on the budget;
/// only the stopping point does. Integer-Regression's ℓ-sweep thus costs
/// one pursuit instead of m. A snapshot for budget `l` is taken at the
/// first loop-condition check where that budget's stopping condition
/// holds — `support.len() ≥ min(l, cols)` or the residual floor is
/// reached — exactly where a standalone budget-`l` run exits its loop.
/// Pruning may later shrink the support below `l` again; the snapshot
/// stays, matching the standalone run. When the pursuit breaks out of the
/// loop body (no positive correlation, the entering atom was pruned
/// straight back out, or the residual stopped improving), every
/// still-pending budget receives the current state — a standalone run at
/// any such budget would have executed the identical step and broken
/// identically.
///
/// `ws` is reusable scratch (see [`NompWorkspace`]). With `warm` = `None`
/// the pursuit is cold: an exact `Aᵀr` scan every iteration, and nothing
/// kept between calls. A [`WarmState`] carried across calls against the
/// same design matrix adds three levels of reuse, each validated rather
/// than assumed, and never changes a result:
///
/// 1. **Full-target reuse.** If the cached trajectory was completed under
///    the same options and a bit-equal target (and the matrix validates),
///    the cached path *is* this call's answer — a deterministic engine
///    re-run on identical inputs — and is returned without iterating.
/// 2. **Validated replay.** Otherwise the pursuit runs, but each cached
///    atom is checked against the live argmax; while they agree and the
///    refit's `Aᵀb` inputs match the cached step bit-for-bit, the cached
///    refit output is reused (NNLS on identical inputs is deterministic).
///    The first mismatch truncates the replay — counted once in
///    `warm_start_truncations` — and the pursuit continues without it.
/// 3. **Incremental correlations.** Iterations maintain `Aᵀr` by Gram
///    downdates (`c ← c − Δx_j·G[:,j]`) instead of a full `O(nnz)` scan.
///    Downdated values drift from the exact `Aᵀr` in the low-order bits,
///    so the engine carries a conservative absolute error bound alongside
///    them: an argmax is only accepted when its winner beats both the
///    runner-up and the zero stopping threshold by more than twice the
///    bound (normalised by the smallest positive column norm) — otherwise
///    the correlations collapse to an exact recompute and the scan reruns
///    on cold-identical floats. Combined with the periodic refresh every
///    `CORR_RECOMPUTE_PERIOD` iterations and the near-floor safety
///    recompute, every atom choice is provably the cold choice, not just
///    probably (additionally pinned by
///    `warm_engine_matches_cold_engine_exactly` and the full-scale eval
///    regeneration).
///
/// `ctl` carries the optional metrics collector — iterations, refits,
/// Gram-cache hits, budget snapshots and wall time are counted into it;
/// with none, no atomic is touched and no clock is read — and the
/// optional cancellation token, polled once per pursuit iteration and
/// inside every NNLS refit. A fired token takes the same exit as the
/// pursuit's "no progress" break — every still-pending budget receives
/// the current (always feasible) state — so a cancelled pursuit returns
/// `Ok` with its best-so-far path rather than an error; the caller
/// decides whether that counts as a deadline failure. A cancelled pursuit
/// never populates the trajectory cache.
///
/// # Errors
/// [`LinalgError::DimensionMismatch`] when `b.len() != a.rows()`;
/// [`LinalgError::InvalidArgument`] when `opts.max_atoms == 0`;
/// [`LinalgError::NonFinite`] on NaN/Inf in `a` or `b`.
pub fn nomp_path<M: DesignMatrix>(
    a: &M,
    b: &[f64],
    opts: NompOptions,
    ws: &mut NompWorkspace,
    mut warm: Option<&mut WarmState>,
    ctl: SolveCtl<'_>,
) -> Result<Vec<NompResult>, LinalgError> {
    let metrics = ctl.metrics;
    check_inputs(a, b, opts)?;
    let (m, n) = (a.rows(), a.cols());

    // Observability seam: with `metrics` absent (the default) neither an
    // atomic nor a clock is ever touched on this path, and the disabled
    // span below costs one relaxed load.
    if let Some(mm) = metrics {
        SolverMetrics::incr(&mm.nomp_pursuits);
    }
    let pursuit_start = metrics.map(|_| std::time::Instant::now());
    let span = tracing::trace_span!("nomp_pursuit", rows = m, cols = n, l_max = opts.max_atoms);
    let _span_guard = span.enter();

    // The norm pass doubles as the warm state's validation gate.
    ws.reset_norms(a)?;
    if let Some(w) = warm.as_deref_mut() {
        w.validate((m, n), &ws.col_norms, opts);
        // Level 1: full-target reuse.
        if w.full_reuse_ready(b, opts) {
            w.record_full_reuse(metrics);
            let out = w.path.clone();
            if let (Some(mm), Some(t)) = (metrics, pursuit_start) {
                SolverMetrics::add_time(&mm.pursuit_nanos, t.elapsed());
            }
            return Ok(out);
        }
    }

    ws.residual.copy_from_slice(b);
    let mut sq_res = vector::dot(&ws.residual, &ws.residual);
    let sq_b = sq_res;
    let mut results: Vec<NompResult> = Vec::with_capacity(opts.max_atoms);

    // Correlations `Aᵀr` of every column with the residual. A cold pursuit
    // scans them exactly at the top of every iteration; a warm one scans
    // once here and then downdates them (level 3), carrying `corr_err`, an
    // absolute error bound against the exact values that is zero right
    // after any exact scan.
    let mut corr: Vec<f64> = Vec::new();
    let mut corr_err = 0.0_f64;
    let mut since_exact: u64 = 0;
    let (mut norm_min, mut norm_max) = (f64::INFINITY, 0.0_f64);
    // Level 2 replay cursor into the cached trajectory; `None` once
    // truncated or exhausted, or when no trajectory is cached.
    let mut replay: Option<usize> = None;
    let mut new_steps: Vec<WarmStep> = Vec::new();
    if let Some(w) = warm.as_deref_mut() {
        count_corr_scan(a, &ws.residual, metrics);
        corr = a.tr_matvec(&ws.residual)?;
        w.x_prev.clear();
        w.x_prev.resize(n, 0.0);
        replay = w.trajectory.then_some(0);
        for &v in &ws.col_norms {
            if v > 0.0 {
                norm_min = norm_min.min(v);
            }
            norm_max = norm_max.max(v);
        }
    }
    let mut cancelled = false;

    loop {
        if ws.record_budgets(&mut results, opts, sq_res, metrics) {
            break;
        }

        // Cooperative cancellation: polled once per pursuit iteration.
        // A fired token takes the same exit as "no progress" below, so the
        // post-loop fill hands every pending budget the current feasible
        // state (anytime semantics).
        if ctl.is_cancelled() {
            cancelled = true;
            break;
        }

        if warm.is_none() {
            count_corr_scan(a, &ws.residual, metrics);
            corr = a.tr_matvec(&ws.residual)?;
        }

        // Argmax of the normalised correlations. Exact correlations
        // (`corr_err == 0`) always decide. Downdated ones decide only when
        // the decision is *provably* the exact one: each entry is within
        // `corr_err` of the exact `Aᵀr` entry, so a winner that clears the
        // runner-up and the zero stopping threshold by more than
        // `2·corr_err / norm_min` wins under the exact values too (the
        // argmax breaks ties towards the lower index with a strict `>`,
        // and a super-margin winner never ties). Anything closer collapses
        // to an exact recompute and a rescan on cold-identical floats.
        let mut best_j = None;
        for _attempt in 0..2 {
            best_j = None;
            let mut best_c = 0.0_f64;
            let mut runner_c = 0.0_f64;
            for (j, &cj) in corr.iter().enumerate() {
                if ws.in_support[j] || ws.col_norms[j] == 0.0 {
                    continue;
                }
                let c = cj / ws.col_norms[j];
                if c > best_c {
                    runner_c = best_c;
                    best_c = c;
                    best_j = Some(j);
                } else if c > runner_c {
                    runner_c = c;
                }
            }
            let margin = 2.0 * corr_err / norm_min;
            let decisive = corr_err == 0.0
                || (best_j.is_some() && best_c - runner_c > margin && best_c > margin);
            if decisive {
                break;
            }
            count_corr_scan(a, &ws.residual, metrics);
            corr = a.tr_matvec(&ws.residual)?;
            corr_err = 0.0;
            since_exact = 0;
            if let Some(mm) = metrics {
                SolverMetrics::incr(&mm.corr_exact_recomputes);
            }
        }
        let Some(j_star) = best_j else {
            break; // No positively correlated column remains.
        };

        // Replay validation: the cached atom must still be the argmax.
        if let (Some(k), Some(w)) = (replay, warm.as_deref()) {
            match w.steps.get(k) {
                Some(step) if step.entered == j_star => {}
                Some(_) => {
                    replay = None;
                    if let Some(mm) = metrics {
                        SolverMetrics::incr(&mm.warm_start_truncations);
                    }
                }
                // Cached trajectory exhausted without disagreeing: the
                // prefix fully matched, there is just nothing left to
                // replay — not a truncation.
                None => replay = None,
            }
        }
        if let Some(mm) = metrics {
            SolverMetrics::incr(&mm.nomp_iterations);
        }

        // Enter j_star: extend the cached Gram and Aᵀb by one atom. A cold
        // pursuit takes the `s + 1` column dot products the new Gram row
        // needs; a warm one fills the full Gram column once per atom,
        // which also serves the downdates and later calls.
        let gram_col = warm.as_deref_mut().map(|w| &mut w.gram_cols[j_star]);
        let cached = gram_col.as_ref().is_some_and(|c| c.is_some());
        if let Some(mm) = metrics {
            if a.is_sparse() && !cached {
                // CSC `column_dot` is a merge-join over the two columns'
                // stored entries — a sparse Gram build, not a dense dot.
                SolverMetrics::incr(&mm.sparse_gram_builds);
            }
        }
        let new_row: Vec<f64> = match gram_col {
            Some(slot) => {
                let col = slot.get_or_insert_with(|| {
                    GramCol::new((0..n).map(|k| a.column_dot(k, j_star)).collect())
                });
                ws.support
                    .iter()
                    .chain([&j_star])
                    .map(|&k| col.values[k])
                    .collect()
            }
            None => ws
                .support
                .iter()
                .chain([&j_star])
                .map(|&k| a.column_dot(k, j_star))
                .collect(),
        };
        ws.enter(j_star, new_row, a.column_dot_vec(j_star, b));

        // A warm pursuit records the refit inputs before pruning compacts
        // them — what the next call's replay compares against — and
        // reuses the cached step's refit while those inputs match exactly.
        let step_atb = warm.is_some().then(|| ws.atb.clone());
        let mut cached_x: Option<Vec<f64>> = None;
        if let (Some(k), Some(w)) = (replay, warm.as_deref()) {
            if let Some(step) = w.steps.get(k) {
                if step.atb == ws.atb {
                    cached_x = Some(step.x_sub.clone());
                } else {
                    replay = None;
                    if let Some(mm) = metrics {
                        SolverMetrics::incr(&mm.warm_start_truncations);
                    }
                }
            }
        }
        let x_sub = match cached_x {
            Some(x) => {
                if let Some(mm) = metrics {
                    SolverMetrics::incr(&mm.warm_start_hits);
                }
                replay = replay.map(|k| k + 1);
                x
            }
            None => {
                // Every refit after a pursuit's first reuses the
                // incrementally maintained Gram instead of rebuilding it
                // from the design matrix — that reuse is what the cache
                // counter measures.
                if let Some(mm) = metrics {
                    if ws.support.len() > 1 {
                        SolverMetrics::incr(&mm.gram_cache_hits);
                    }
                }
                ws.refit(ctl)?
            }
        };

        // Prune zeroed atoms (keeps the support meaningful).
        let pruned_entering = ws.apply_refit(&x_sub);
        if let Some(atb) = step_atb {
            new_steps.push(WarmStep {
                entered: j_star,
                atb,
                x_sub,
            });
        }
        let new_sq = ws.update_residual(a, b)?;

        // Warm correlation maintenance: downdate over the atoms whose
        // coefficient changed, with exact recomputes bounding drift
        // (periodic, plus the near-perfect-fit safety floor where the
        // downdated values would be cancellation-dominated).
        if let Some(w) = warm.as_deref_mut() {
            since_exact += 1;
            let near_floor =
                new_sq <= CORR_SAFETY_FLOOR * sq_b.max(1e-30) || new_sq <= opts.residual_tolerance;
            if since_exact >= CORR_RECOMPUTE_PERIOD || near_floor {
                count_corr_scan(a, &ws.residual, metrics);
                corr = a.tr_matvec(&ws.residual)?;
                since_exact = 0;
                corr_err = 0.0;
                if let Some(mm) = metrics {
                    SolverMetrics::incr(&mm.corr_exact_recomputes);
                }
            } else {
                let updates = w.downdate(&mut corr, &ws.x, &mut corr_err);
                if let Some(mm) = metrics {
                    SolverMetrics::add(&mm.corr_incremental_updates, updates);
                }
                // An exact scan recomputes `Aᵀr` from a freshly rounded
                // residual each iteration, so beyond the downdate
                // roundings the drift also covers (a) the two residual
                // vectors' own rounding (`r = fl(b − fl(Ax))` at both ends
                // of the downdate identity) projected through any column,
                // and (b) the summation rounding of the exact-path dot
                // products. All are `O(ε·m·‖col‖·‖r‖)`-sized; a generous
                // multiple is added per iteration (over-conservatism only
                // costs an extra exact recompute on a near-tie, never
                // correctness).
                corr_err += f64::EPSILON
                    * (m as f64)
                    * norm_max
                    * (2.0 * sq_b.sqrt() + 2.0 * sq_res.sqrt() + 3.0 * new_sq.sqrt());
            }
            w.x_prev.copy_from_slice(&ws.x);
        }

        let improved = sq_res - new_sq > opts.min_relative_improvement * sq_res.max(1e-30);
        sq_res = new_sq;
        if pruned_entering || !improved {
            break; // No progress possible.
        }
    }

    // A break above ends every budget not yet recorded at the current
    // state.
    ws.fill_budgets(&mut results, opts, sq_res, metrics);
    if let Some(w) = warm {
        // The non-consuming peek also catches a token that fired *inside*
        // an NNLS refit (degrading that refit's fit) without reaching the
        // pursuit-level poll again before the loop ended.
        let completed = !cancelled && !ctl.cancel.is_some_and(CancelToken::fired);
        w.store(b, new_steps, &results, completed);
    }
    if let (Some(mm), Some(t)) = (metrics, pursuit_start) {
        SolverMetrics::add_time(&mm.pursuit_nanos, t.elapsed());
    }
    Ok(results)
}

/// The straightforward NOMP implementation this crate shipped before the
/// Gram-cached engine: per iteration it re-materialises the active
/// submatrix and refits with design-space [`crate::nnls::nnls_capped`].
///
/// Kept as the oracle for equivalence tests (the optimised engine must
/// match it to tight tolerance on random instances) and as readable
/// reference code for the pursuit itself.
///
/// # Errors
/// As [`nomp_path`].
pub fn nomp_reference<M: DesignMatrix>(
    a: &M,
    b: &[f64],
    opts: NompOptions,
) -> Result<NompResult, LinalgError> {
    check_inputs(a, b, opts)?;
    let (m, n) = (a.rows(), a.cols());

    let mut support: Vec<usize> = Vec::with_capacity(opts.max_atoms.min(n));
    let mut in_support = vec![false; n];
    let mut x = vec![0.0_f64; n];
    let mut residual = b.to_vec();
    let mut sq_res = vector::dot(&residual, &residual);

    let mut col_norms = vec![0.0_f64; n];
    let mut col = vec![0.0_f64; m];
    for (j, cn) in col_norms.iter_mut().enumerate() {
        a.column_into(j, &mut col);
        *cn = vector::norm2(&col);
    }
    if !vector::all_finite(&col_norms) {
        return Err(LinalgError::NonFinite {
            context: "nomp design matrix",
        });
    }

    while support.len() < opts.max_atoms.min(n) && sq_res > opts.residual_tolerance {
        let corr = a.tr_matvec(&residual)?;
        let mut best_j = None;
        let mut best_c = 0.0_f64;
        for j in 0..n {
            if in_support[j] || col_norms[j] == 0.0 {
                continue;
            }
            let c = corr[j] / col_norms[j];
            if c > best_c {
                best_c = c;
                best_j = Some(j);
            }
        }
        let Some(j_star) = best_j else {
            break;
        };
        support.push(j_star);
        in_support[j_star] = true;

        let sub = a.dense_columns(&support);
        let (x_sub, _refit_diag) = nnls_capped(&sub, b)?;

        let mut kept: Vec<usize> = Vec::with_capacity(support.len());
        for (v, &j) in x_sub.iter().zip(support.iter()) {
            if *v > 0.0 {
                kept.push(j);
            } else {
                in_support[j] = false;
            }
        }
        x.iter_mut().for_each(|v| *v = 0.0);
        for (v, &j) in x_sub.iter().zip(support.iter()) {
            if *v > 0.0 {
                x[j] = *v;
            }
        }
        let pruned_entering = !kept.contains(&j_star);
        support = kept;

        residual.copy_from_slice(b);
        let ax = a.matvec(&x)?;
        for (r, v) in residual.iter_mut().zip(ax.iter()) {
            *r -= v;
        }
        let new_sq = vector::dot(&residual, &residual);
        let improved = sq_res - new_sq > opts.min_relative_improvement * sq_res.max(1e-30);
        sq_res = new_sq;
        if pruned_entering || !improved {
            break;
        }
    }

    Ok(NompResult {
        x,
        support,
        sq_residual: sq_res,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::sparse::CscMatrix;

    fn opts(l: usize) -> NompOptions {
        NompOptions::with_max_atoms(l)
    }

    /// A cold budget path on fresh scratch, unmetered and uncancellable.
    fn cold_path<M: DesignMatrix>(
        a: &M,
        b: &[f64],
        o: NompOptions,
    ) -> Result<Vec<NompResult>, LinalgError> {
        nomp_path(
            a,
            b,
            o,
            &mut NompWorkspace::new(),
            None,
            SolveCtl::default(),
        )
    }

    /// The single-budget result: the last entry of the budget path.
    fn nomp<M: DesignMatrix>(a: &M, b: &[f64], o: NompOptions) -> Result<NompResult, LinalgError> {
        cold_path(a, b, o).map(|mut p| p.pop().unwrap())
    }

    #[test]
    fn recovers_single_atom() {
        // b is exactly 2 × column 1.
        let a = Matrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 1.0]]).unwrap();
        let b = vec![0.0, 2.0];
        let r = nomp(&a, &b, opts(1)).unwrap();
        assert_eq!(r.support, vec![1]);
        assert!((r.x[1] - 2.0).abs() < 1e-10);
        assert!(r.sq_residual < 1e-16);
    }

    #[test]
    fn recovers_two_atoms() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.5],
            vec![0.0, 1.0, 0.5],
            vec![0.0, 0.0, 0.5],
        ])
        .unwrap();
        // b = 1*c0 + 3*c1
        let b = vec![1.0, 3.0, 0.0];
        let r = nomp(&a, &b, opts(2)).unwrap();
        let mut s = r.support.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
        assert!((r.x[0] - 1.0).abs() < 1e-8);
        assert!((r.x[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn respects_atom_budget() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        let b = vec![1.0, 1.0, 1.0];
        let r = nomp(&a, &b, opts(2)).unwrap();
        assert!(r.support.len() <= 2);
        assert!(r.sq_residual > 0.9); // one coordinate must remain unexplained
    }

    #[test]
    fn solution_is_nonnegative() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0], vec![1.0, 1.0]]).unwrap();
        let b = vec![2.0, 0.0];
        let r = nomp(&a, &b, opts(2)).unwrap();
        assert!(r.x.iter().all(|&v| v >= 0.0), "x = {:?}", r.x);
    }

    #[test]
    fn zero_budget_is_an_error() {
        let a = Matrix::identity(2);
        assert!(matches!(
            nomp(&a, &[1.0, 1.0], opts(0)),
            Err(LinalgError::InvalidArgument(_))
        ));
        assert!(cold_path(&a, &[1.0, 1.0], opts(0)).is_err());
    }

    #[test]
    fn rejects_bad_rhs() {
        let a = Matrix::identity(2);
        assert!(nomp(&a, &[1.0], opts(1)).is_err());
        assert!(cold_path(&a, &[1.0], opts(1)).is_err());
    }

    #[test]
    fn rejects_non_finite_input() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        for r in [
            nomp(&a, &[1.0, 1.0], opts(1)).map(|r| r.x),
            cold_path(&a, &[1.0, 1.0], opts(1)).map(|p| p[0].x.clone()),
            nomp_reference(&a, &[1.0, 1.0], opts(1)).map(|r| r.x),
        ] {
            assert!(matches!(r, Err(LinalgError::NonFinite { .. })));
        }
        let a = Matrix::identity(2);
        for r in [
            nomp(&a, &[1.0, f64::NAN], opts(1)).map(|r| r.x),
            nomp_reference(&a, &[f64::INFINITY, 1.0], opts(1)).map(|r| r.x),
        ] {
            assert!(matches!(r, Err(LinalgError::NonFinite { .. })));
        }
        // Sparse design matrices are scanned through the same norm pass.
        let bad = CscMatrix::from_columns(2, &[vec![(0, f64::INFINITY)], vec![(1, 1.0)]]);
        assert!(matches!(
            nomp(&bad, &[1.0, 1.0], opts(1)),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn anticorrelated_target_selects_nothing() {
        // Every column is the negative of b's direction: no positive
        // correlation, so the support stays empty and x = 0.
        let a = Matrix::from_rows(&[vec![-1.0, -2.0], vec![-1.0, -2.0]]).unwrap();
        let b = vec![1.0, 1.0];
        let r = nomp(&a, &b, opts(2)).unwrap();
        assert!(r.support.is_empty());
        assert!(r.x.iter().all(|&v| v == 0.0));
        assert!((r.sq_residual - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_columns_are_skipped() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 1.0]]).unwrap();
        let b = vec![1.0, 1.0];
        let r = nomp(&a, &b, opts(2)).unwrap();
        assert_eq!(r.support, vec![1]);
    }

    #[test]
    fn duplicate_columns_pick_one() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let b = vec![3.0, 3.0];
        let r = nomp(&a, &b, opts(2)).unwrap();
        // Either column alone explains b.
        assert!(r.sq_residual < 1e-10);
    }

    #[test]
    fn residual_decreases_with_budget() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.3],
            vec![0.0, 1.0, 0.0, 0.3],
            vec![0.0, 0.0, 1.0, 0.3],
        ])
        .unwrap();
        let b = vec![1.0, 0.8, 0.6];
        let r1 = nomp(&a, &b, opts(1)).unwrap();
        let r2 = nomp(&a, &b, opts(2)).unwrap();
        let r3 = nomp(&a, &b, opts(3)).unwrap();
        assert!(r2.sq_residual <= r1.sq_residual + 1e-12);
        assert!(r3.sq_residual <= r2.sq_residual + 1e-12);
    }

    /// A deterministic pseudo-random dense instance (xorshift-mixed).
    fn random_instance(rows: usize, cols: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map to [-1, 1).
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                // Sparse-ish, mixed-sign entries.
                let v = next();
                m[(i, j)] = if v.abs() < 0.4 { 0.0 } else { v };
            }
        }
        let b: Vec<f64> = (0..rows).map(|_| next()).collect();
        (m, b)
    }

    #[test]
    fn path_entries_match_standalone_runs_exactly() {
        // The core shared-path guarantee: path[l-1] is bit-identical to a
        // standalone budget-l pursuit on the same engine.
        for seed in 1..=8u64 {
            let (a, b) = random_instance(12, 9, seed);
            let lmax = 6;
            let path = cold_path(&a, &b, opts(lmax)).unwrap();
            assert_eq!(path.len(), lmax);
            for l in 1..=lmax {
                let single = nomp(&a, &b, opts(l)).unwrap();
                assert_eq!(single.support, path[l - 1].support, "seed {seed} l {l}");
                assert_eq!(single.x, path[l - 1].x, "seed {seed} l {l}");
                assert_eq!(
                    single.sq_residual.to_bits(),
                    path[l - 1].sq_residual.to_bits(),
                    "seed {seed} l {l}"
                );
            }
        }
    }

    #[test]
    fn path_is_identical_on_sparse_and_dense() {
        for seed in 1..=4u64 {
            let (a, b) = random_instance(15, 10, seed);
            let sp = CscMatrix::from_dense(&a, 0.0);
            let dense_path = cold_path(&a, &b, opts(5)).unwrap();
            let sparse_path = cold_path(&sp, &b, opts(5)).unwrap();
            for (d, s) in dense_path.iter().zip(sparse_path.iter()) {
                assert_eq!(d.support, s.support);
                assert_eq!(d.x, s.x);
            }
        }
    }

    #[test]
    fn engine_matches_reference_implementation() {
        // Same supports, and coefficients within numerical reassociation
        // noise of the design-space reference.
        for seed in 1..=10u64 {
            let (a, b) = random_instance(14, 11, seed);
            for l in [1, 3, 5] {
                let fast = nomp(&a, &b, opts(l)).unwrap();
                let slow = nomp_reference(&a, &b, opts(l)).unwrap();
                assert_eq!(fast.support, slow.support, "seed {seed} l {l}");
                for (xf, xs) in fast.x.iter().zip(slow.x.iter()) {
                    assert!((xf - xs).abs() < 1e-10, "seed {seed} l {l}: {xf} vs {xs}");
                }
                assert!((fast.sq_residual - slow.sq_residual).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn workspace_reuse_is_stateless() {
        let mut ws = NompWorkspace::new();
        let (a1, b1) = random_instance(10, 8, 3);
        let (a2, b2) = random_instance(6, 12, 4);
        let fresh1 = cold_path(&a1, &b1, opts(4)).unwrap();
        let fresh2 = cold_path(&a2, &b2, opts(4)).unwrap();
        // Interleave differently shaped problems through one workspace.
        let reused1 = nomp_path(&a1, &b1, opts(4), &mut ws, None, SolveCtl::default()).unwrap();
        let reused2 = nomp_path(&a2, &b2, opts(4), &mut ws, None, SolveCtl::default()).unwrap();
        let reused1_again =
            nomp_path(&a1, &b1, opts(4), &mut ws, None, SolveCtl::default()).unwrap();
        assert_paths_bit_equal(&fresh1, &reused1, "first problem");
        assert_paths_bit_equal(&fresh2, &reused2, "second problem");
        assert_paths_bit_equal(&fresh1, &reused1_again, "first problem again");
    }

    #[test]
    fn path_budgets_beyond_column_count_saturate() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let b = vec![1.0, 1.0];
        let path = cold_path(&a, &b, opts(5)).unwrap();
        assert_eq!(path.len(), 5);
        // Budgets 2..=5 all saturate at the full 2-column support.
        for l in 2..=5 {
            assert_eq!(path[l - 1].support, path[1].support);
            assert_eq!(path[l - 1].x, path[1].x);
        }
    }

    fn warm_path(
        a: &Matrix,
        b: &[f64],
        l: usize,
        ws: &mut NompWorkspace,
        warm: &mut WarmState,
    ) -> Vec<NompResult> {
        nomp_path(a, b, opts(l), ws, Some(warm), SolveCtl::default()).unwrap()
    }

    fn assert_paths_bit_equal(lhs: &[NompResult], rhs: &[NompResult], what: &str) {
        assert_eq!(lhs.len(), rhs.len(), "{what}: path lengths");
        for (l, r) in lhs.iter().zip(rhs.iter()) {
            assert_eq!(l.support, r.support, "{what}: support");
            assert_eq!(l.x, r.x, "{what}: coefficients");
            assert_eq!(
                l.sq_residual.to_bits(),
                r.sq_residual.to_bits(),
                "{what}: residual"
            );
        }
    }

    #[test]
    fn warm_engine_matches_cold_engine_exactly() {
        // A fresh warm state (nothing to replay) exercises the incremental
        // correlation kernel against the cold engine's full scans: the
        // selections, coefficients, and residuals must be bit-identical.
        for seed in 1..=10u64 {
            let (a, b) = random_instance(14, 11, seed);
            for l in [1, 3, 6] {
                let cold = cold_path(&a, &b, opts(l)).unwrap();
                let warm = warm_path(&a, &b, l, &mut NompWorkspace::new(), &mut WarmState::new());
                assert_paths_bit_equal(&cold, &warm, &format!("seed {seed} l {l}"));
            }
        }
    }

    #[test]
    fn warm_engine_matches_reference_implementation() {
        // Same equal-selection oracle the cold engine is held to.
        for seed in 1..=10u64 {
            let (a, b) = random_instance(14, 11, seed);
            let mut ws = NompWorkspace::new();
            let mut warm = WarmState::new();
            for l in [1, 3, 5] {
                let path = warm_path(&a, &b, l, &mut ws, &mut warm);
                let slow = nomp_reference(&a, &b, opts(l)).unwrap();
                assert_eq!(path[l - 1].support, slow.support, "seed {seed} l {l}");
                for (xf, xs) in path[l - 1].x.iter().zip(slow.x.iter()) {
                    assert!((xf - xs).abs() < 1e-10, "seed {seed} l {l}: {xf} vs {xs}");
                }
            }
        }
    }

    #[test]
    fn full_target_reuse_is_bit_identical_and_skips_refits() {
        let metrics = SolverMetrics::new();
        let ctl = SolveCtl::metered(Some(&metrics));
        let (a, b) = random_instance(12, 9, 5);
        let mut ws = NompWorkspace::new();
        let mut warm = WarmState::new();
        let first = nomp_path(&a, &b, opts(5), &mut ws, Some(&mut warm), ctl).unwrap();
        let after_first = metrics.snapshot();
        assert!(warm.full_reuse_ready(&b, opts(5)));
        assert!(!warm.full_reuse_ready(&b, opts(4)), "options are keyed");
        let second = nomp_path(&a, &b, opts(5), &mut ws, Some(&mut warm), ctl).unwrap();
        let snap = metrics.snapshot();
        assert_paths_bit_equal(&first, &second, "full reuse");
        assert_eq!(snap.nnls_refits, after_first.nnls_refits, "no refit ran");
        assert_eq!(
            snap.nomp_iterations - after_first.nomp_iterations,
            snap.warm_start_hits - after_first.warm_start_hits,
            "every reused iteration is a warm-start hit"
        );
        assert!(snap.warm_start_hits > 0);
        assert_eq!(snap.warm_start_truncations, 0);
        assert_eq!(
            snap.nnls_refits,
            snap.nomp_iterations - snap.warm_start_hits,
            "corrected refit identity"
        );
    }

    #[test]
    fn warm_replay_under_changed_target_matches_cold_start() {
        // Perturb the target between calls: the replay must validate its
        // way to exactly the cold answer, whether the prefix survives or
        // the first atom already disagrees.
        for seed in 1..=8u64 {
            let (a, b) = random_instance(13, 10, seed);
            let mut ws = NompWorkspace::new();
            let mut warm = WarmState::new();
            let _ = warm_path(&a, &b, 5, &mut ws, &mut warm);
            for (scale, shift) in [(1.0, 0.05), (1.0, -0.4), (-1.0, 0.0), (0.5, 0.01)] {
                let b2: Vec<f64> = b
                    .iter()
                    .enumerate()
                    .map(|(i, v)| scale * v + if i % 3 == 0 { shift } else { 0.0 })
                    .collect();
                let cold = cold_path(&a, &b2, opts(5)).unwrap();
                let replayed = warm_path(&a, &b2, 5, &mut ws, &mut warm);
                assert_paths_bit_equal(
                    &cold,
                    &replayed,
                    &format!("seed {seed} scale {scale} shift {shift}"),
                );
            }
        }
    }

    #[test]
    fn warm_state_detects_a_changed_matrix() {
        // Same shape, different matrix: the norm validation must drop the
        // caches instead of replaying a stale trajectory.
        let (a1, b) = random_instance(12, 9, 2);
        let (a2, _) = random_instance(12, 9, 7);
        let metrics = SolverMetrics::new();
        let ctl = SolveCtl::metered(Some(&metrics));
        let mut ws = NompWorkspace::new();
        let mut warm = WarmState::new();
        let _ = nomp_path(&a1, &b, opts(4), &mut ws, Some(&mut warm), ctl).unwrap();
        let cold = cold_path(&a2, &b, opts(4)).unwrap();
        let switched = nomp_path(&a2, &b, opts(4), &mut ws, Some(&mut warm), ctl).unwrap();
        assert_paths_bit_equal(&cold, &switched, "matrix switch");
        // The stale trajectory was invalidated, not truncated mid-replay.
        assert_eq!(metrics.snapshot().warm_start_truncations, 0);
        // And differently-shaped problems reuse the same state safely.
        let (a3, b3) = random_instance(7, 12, 3);
        let cold3 = cold_path(&a3, &b3, opts(4)).unwrap();
        let warm3 = nomp_path(
            &a3,
            &b3,
            opts(4),
            &mut ws,
            Some(&mut warm),
            SolveCtl::default(),
        )
        .unwrap();
        assert_paths_bit_equal(&cold3, &warm3, "shape switch");
    }

    #[test]
    fn cancelled_pursuit_never_populates_the_trajectory_cache() {
        use comparesets_obs::CancelToken;
        let (a, b) = random_instance(12, 9, 4);
        let mut ws = NompWorkspace::new();
        let mut warm = WarmState::new();
        // Fire after one poll: the pursuit stops with a truncated path.
        let token = CancelToken::cancel_after(1);
        let ctl = SolveCtl::new(None, Some(&token));
        let truncated = nomp_path(&a, &b, opts(5), &mut ws, Some(&mut warm), ctl).unwrap();
        assert!(!warm.full_reuse_ready(&b, opts(5)));
        // The next (uncancelled) call must compute the real answer, not
        // echo the truncated state.
        let full = warm_path(&a, &b, 5, &mut ws, &mut warm);
        let cold = cold_path(&a, &b, opts(5)).unwrap();
        assert_paths_bit_equal(&cold, &full, "after cancelled warm-up");
        assert!(truncated[4].support.len() <= full[4].support.len());
    }

    #[test]
    fn warm_engine_errors_match_cold_engine() {
        let mut bad = Matrix::identity(2);
        bad[(0, 0)] = f64::NAN;
        let mut ws = NompWorkspace::new();
        let mut warm = WarmState::new();
        for (matrix, rhs, l) in [
            (&bad, &[1.0, 1.0][..], 1),
            (&Matrix::identity(2), &[1.0, f64::NAN][..], 1),
        ] {
            let r = nomp_path(
                matrix,
                rhs,
                opts(l),
                &mut ws,
                Some(&mut warm),
                SolveCtl::default(),
            );
            assert!(matches!(r, Err(LinalgError::NonFinite { .. })));
        }
        let a = Matrix::identity(2);
        assert!(nomp_path(
            &a,
            &[1.0],
            opts(1),
            &mut ws,
            Some(&mut warm),
            SolveCtl::default()
        )
        .is_err());
        assert!(nomp_path(
            &a,
            &[1.0, 1.0],
            opts(0),
            &mut ws,
            Some(&mut warm),
            SolveCtl::default()
        )
        .is_err());
    }
}
