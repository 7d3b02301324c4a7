//! The Integer-Regression machinery (§2.2, Algorithm 1).
//!
//! Strategy, following Lappas et al. (KDD'12) as generalised by the paper.
//! Each numbered step names the Algorithm 1 lines it implements and the
//! knob that controls it:
//!
//! 1. Build a design matrix `V` with one column per candidate review —
//!    an opinion-indicator block stacked on weighted aspect-indicator
//!    blocks (λ for the Γ block, μ for every other item's φ(Sⱼ) block).
//!    [`RegressionTask::build`] takes the blocks as `(vector, weight)`
//!    pairs, so the same builder serves CRS (no aspect blocks),
//!    CompaReSetS (`[(Γ, λ)]`, Equation 4) and CompaReSetS+
//!    (`[(Γ, λ), (φ(Sⱼ), μ), …]`).
//! 2. Deduplicate identical columns (line 5, [`DedupColumns`]); `cᵢ` caps
//!    how many copies of a deduplicated column may be selected.
//! 3. For every sparsity budget ℓ = 1…m (line 7, the `m` argument of
//!    [`integer_regression`]), solve the continuous relaxation with NOMP —
//!    realised as **one** shared pursuit whose per-ℓ snapshots are
//!    bit-identical to standalone runs (`comparesets_linalg::nomp_path`) —
//!    then round the normalised solution to the closest integer selection
//!    `ν` with `νᵢ ≤ cᵢ`, `‖ν‖₁ ≤ m` (line 8) using largest-remainder
//!    rounding over every total mass `s ≤ min(m, |ℛᵢ|)` (a larger mass
//!    selects every review, as `s = |ℛᵢ|` already does).
//! 4. Keep the candidate minimising the *true* objective (lines 10–12),
//!    evaluated by a caller-supplied closure so CRS, CompaReSetS, and
//!    CompaReSetS+ can share this machinery with their own objectives.
//!
//! ```
//! use comparesets_core::{integer_regression, MatrixBackend, RegressionTask, SolveCtl};
//! use comparesets_core::instance::Item;
//! use comparesets_core::space::{OpinionScheme, VectorSpace};
//! use comparesets_data::{Polarity, ProductId, ReviewId};
//! use comparesets_linalg::{vector::sq_distance, NompWorkspace};
//!
//! // Three reviews over two aspects; τ/Γ are the full-set profiles.
//! let item = Item::from_mentions(
//!     ProductId(0),
//!     vec![
//!         (ReviewId(0), vec![(0, Polarity::Positive)]),
//!         (ReviewId(1), vec![(1, Polarity::Negative)]),
//!         (ReviewId(2), vec![(0, Polarity::Positive), (1, Polarity::Negative)]),
//!     ],
//! );
//! let space = VectorSpace::new(2, OpinionScheme::Binary);
//! let all: Vec<usize> = (0..3).collect();
//! let (tau, gamma) = (space.pi(&item, &all), space.phi(&item, &all));
//!
//! let blocks: &[(&[f64], f64)] = &[(&gamma, 1.0)];
//! let task = RegressionTask::build(&space, &item, &tau, blocks, MatrixBackend::Auto).unwrap();
//! let evaluate = |s: &comparesets_core::Selection| {
//!     sq_distance(&tau, &space.pi(&item, &s.indices))
//!         + sq_distance(&gamma, &space.phi(&item, &s.indices))
//! };
//! let mut ws = NompWorkspace::new();
//! let sel = integer_regression(&task, 2, evaluate, &mut ws, SolveCtl::default()).unwrap();
//! assert!(!sel.is_empty() && sel.len() <= 2);
//! ```

use comparesets_linalg::{
    nomp_path, CscMatrix, DesignMatrix, LinalgError, Matrix, NompOptions, NompWorkspace,
    SolveError, WarmState,
};
use comparesets_obs::{SolveCtl, SolverMetrics};

use crate::error::CoreError;
use crate::instance::{InstanceContext, Item, ReviewFeature, Selection};
use crate::space::VectorSpace;
use crate::SolveOptions;

/// Deduplicated design-matrix columns for one item.
#[derive(Debug, Clone)]
pub struct DedupColumns {
    /// For each group: the indices of the item's reviews sharing one
    /// column signature.
    pub groups: Vec<Vec<usize>>,
}

impl DedupColumns {
    /// Group the reviews of an item by identical annotation signatures.
    /// (Columns are functions of the `ReviewFeature` alone, so equal
    /// features ⇔ equal design columns for any block weights.)
    pub fn build(item: &Item) -> Self {
        let mut index: std::collections::HashMap<&crate::instance::ReviewFeature, usize> =
            std::collections::HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (ri, f) in item.features.iter().enumerate() {
            match index.get(f) {
                Some(&g) => groups[g].push(ri),
                None => {
                    index.insert(f, groups.len());
                    groups.push(vec![ri]);
                }
            }
        }
        DedupColumns { groups }
    }

    /// Number of deduplicated columns q.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when the item has no reviews.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Multiplicity cap cᵢ of each group.
    pub fn caps(&self) -> Vec<usize> {
        self.groups.iter().map(Vec::len).collect()
    }

    /// Expand an integer group-count vector ν̃ into concrete review
    /// indices (Algorithm 1 line 9): the first `ν̃_g` members of group g.
    pub fn expand(&self, nu: &[usize]) -> Selection {
        debug_assert_eq!(nu.len(), self.groups.len());
        let mut indices = Vec::new();
        for (g, &count) in nu.iter().enumerate() {
            let take = count.min(self.groups[g].len());
            indices.extend_from_slice(&self.groups[g][..take]);
        }
        Selection::new(indices)
    }
}

/// Storage backend for the regression design matrix.
///
/// Every backend produces **byte-identical selections**: the NOMP kernels
/// are bit-exact across representations (skipped zero entries are exact
/// no-ops under a `+0.0`-seeded accumulator), so the choice is purely a
/// time/space decision. `Auto` (the default) picks per task by stored
/// density — CSC below [`DENSITY_CROSSOVER`], dense at or above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixBackend {
    /// Choose per task by the density of the assembled columns.
    #[default]
    Auto,
    /// Always materialise the dense row-major matrix.
    Dense,
    /// Always build compressed sparse columns.
    Sparse,
}

/// Density (`nnz / rows·cols`) at or above which [`MatrixBackend::Auto`]
/// materialises the design matrix densely.
///
/// Measured on the `regression_engine/sparse/crossover` bench family
/// (4 000×64 budget-path pursuits swept over stored density, committed
/// in `BENCH_sparse.json`): the sparse backend's per-iteration advantage
/// — correlation scans and Gram builds walk only stored entries — decays
/// from ~5× at 5% density to parity at ~65%, where the dense kernels'
/// contiguous 4-lane chunking catches up (see PERFORMANCE.md). Memory
/// agrees: CSC stores 12 bytes per non-zero against dense's 8 bytes per
/// cell, so CSC is also the smaller representation below 2/3 density.
/// Paper-scale design matrices (z = 500 aspects, a handful of mentions
/// per review) sit around 1–2% density, far below the crossover.
pub const DENSITY_CROSSOVER: f64 = 0.65;

/// The design matrix of a [`RegressionTask`], in whichever storage the
/// [`MatrixBackend`] chose. Implements [`DesignMatrix`] by delegation, so
/// the NOMP engine runs on it directly — no copies, no dispatch above the
/// kernel level.
#[derive(Debug, Clone)]
pub enum TaskMatrix {
    /// Compressed sparse columns (the low-density hot path).
    Sparse(CscMatrix),
    /// Dense row-major storage (the high-density fallback).
    Dense(Matrix),
}

impl TaskMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            TaskMatrix::Sparse(m) => m.rows(),
            TaskMatrix::Dense(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            TaskMatrix::Sparse(m) => m.cols(),
            TaskMatrix::Dense(m) => m.cols(),
        }
    }

    /// Entry accessor.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self {
            TaskMatrix::Sparse(m) => m.get(i, j),
            TaskMatrix::Dense(m) => m[(i, j)],
        }
    }

    /// Whether this task holds the CSC representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self, TaskMatrix::Sparse(_))
    }

    /// Resident bytes of the held representation (capacities, not
    /// lengths). Summed per shard by the serving daemon's `health` op.
    pub fn memory_bytes(&self) -> u64 {
        match self {
            TaskMatrix::Sparse(m) => m.memory_bytes(),
            TaskMatrix::Dense(m) => m.memory_bytes(),
        }
    }
}

impl DesignMatrix for TaskMatrix {
    fn rows(&self) -> usize {
        TaskMatrix::rows(self)
    }
    fn cols(&self) -> usize {
        TaskMatrix::cols(self)
    }
    fn column_into(&self, j: usize, out: &mut [f64]) {
        match self {
            TaskMatrix::Sparse(m) => m.column_into(j, out),
            TaskMatrix::Dense(m) => Matrix::column_into(m, j, out),
        }
    }
    fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        match self {
            TaskMatrix::Sparse(m) => DesignMatrix::matvec(m, x),
            TaskMatrix::Dense(m) => Matrix::matvec(m, x),
        }
    }
    fn tr_matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        match self {
            TaskMatrix::Sparse(m) => DesignMatrix::tr_matvec(m, x),
            TaskMatrix::Dense(m) => Matrix::tr_matvec(m, x),
        }
    }
    fn dense_columns(&self, indices: &[usize]) -> Matrix {
        match self {
            TaskMatrix::Sparse(m) => m.dense_columns(indices),
            TaskMatrix::Dense(m) => m.dense_columns(indices),
        }
    }
    fn column_dot(&self, i: usize, j: usize) -> f64 {
        match self {
            TaskMatrix::Sparse(m) => m.column_dot(i, j),
            TaskMatrix::Dense(m) => m.column_dot(i, j),
        }
    }
    fn column_dot_vec(&self, j: usize, v: &[f64]) -> f64 {
        match self {
            TaskMatrix::Sparse(m) => m.column_dot_vec(j, v),
            TaskMatrix::Dense(m) => m.column_dot_vec(j, v),
        }
    }
    fn is_sparse(&self) -> bool {
        TaskMatrix::is_sparse(self)
    }
    fn tr_scan_simd_blocks(&self, x: &[f64]) -> u64 {
        match self {
            TaskMatrix::Sparse(m) => m.tr_scan_simd_blocks(x),
            TaskMatrix::Dense(m) => m.tr_scan_simd_blocks(x),
        }
    }
}

/// A prepared regression task: deduplicated design matrix plus target.
///
/// The matrix is held behind [`TaskMatrix`], CSC by default at paper
/// scale: with z = 500 aspects the CompaReSetS+ design matrix has
/// `2z + n·z` ≈ 15 000+ rows per item while each review column touches
/// only a handful — sparsity is what keeps Integer-Regression fast at
/// real-corpus scale. Dense-ish tasks (stored density at or above
/// [`DENSITY_CROSSOVER`]) materialise densely under
/// [`MatrixBackend::Auto`] so the chunked dense kernels take over.
#[derive(Debug, Clone)]
pub struct RegressionTask {
    /// Deduplicated design matrix Ṽ (rows = blocks, cols = groups).
    pub matrix: TaskMatrix,
    /// Target vector Υ, pre-weighted to match the matrix blocks.
    pub target: Vec<f64>,
    /// Column groups / caps.
    pub dedup: DedupColumns,
}

impl RegressionTask {
    /// Build the task for one item.
    ///
    /// `aspect_targets` are `(vector, weight)` pairs after the opinion
    /// target τᵢ (weight 1): each is an aspect-space target (Γ or some
    /// φ(Sⱼ)) with its coefficient (λ or μ). The matrix mirrors the
    /// blocks: the opinion-column block then one `weight ×
    /// aspect-indicator` block per aspect target, stored as `backend`
    /// decides.
    ///
    /// The columns are always assembled as sparse `(row, value)` entry
    /// lists first — a dense matrix is only ever materialised after the
    /// backend decision, so low-density tasks never pay `O(rows·cols)`
    /// storage even transiently.
    ///
    /// # Errors
    /// [`CoreError::DimensionMismatch`] when the opinion target does not
    /// have the space's opinion dimension or an aspect target does not
    /// have the aspect dimension.
    pub fn build(
        space: &VectorSpace,
        item: &Item,
        opinion_target: &[f64],
        aspect_targets: &[(&[f64], f64)],
        backend: MatrixBackend,
    ) -> Result<Self, CoreError> {
        let target = Self::try_stack_target(space, opinion_target, aspect_targets)?;
        let dedup = DedupColumns::build(item);
        let matrix = build_matrix(space, item, &dedup, aspect_targets, target.len(), backend)?;
        Ok(RegressionTask {
            matrix,
            target,
            dedup,
        })
    }

    /// Stack the pre-weighted target vector Υ without building the design
    /// matrix — the cheap half of [`RegressionTask::build`] (the
    /// matrix costs `O(q·(od + z·blocks))`, the target only
    /// `O(od + z·blocks)`). The warm re-solve step uses this to test
    /// cache validity before paying for the matrix; the vector is
    /// bit-identical to the `target` field `build` would produce.
    ///
    /// # Errors
    /// [`CoreError::DimensionMismatch`] exactly as
    /// [`RegressionTask::build`] reports it for the target blocks.
    pub fn try_stack_target(
        space: &VectorSpace,
        opinion_target: &[f64],
        aspect_targets: &[(&[f64], f64)],
    ) -> Result<Vec<f64>, CoreError> {
        let z = space.num_aspects();
        let od = space.opinion_dim();
        if opinion_target.len() != od {
            return Err(CoreError::DimensionMismatch {
                context: "RegressionTask opinion target",
                expected: od,
                actual: opinion_target.len(),
            });
        }
        for (t, _) in aspect_targets {
            if t.len() != z {
                return Err(CoreError::DimensionMismatch {
                    context: "RegressionTask aspect target",
                    expected: z,
                    actual: t.len(),
                });
            }
        }
        let mut target = Vec::with_capacity(od + z * aspect_targets.len());
        target.extend_from_slice(opinion_target);
        for &(t, w) in aspect_targets {
            target.extend(t.iter().map(|v| w * v));
        }
        Ok(target)
    }
}

/// The sparse `(row, value)` entries of one design-matrix column: the
/// review's non-zero opinion slots, then its mentioned aspects weighted
/// per target block. Shared by the batch builder and the in-place column
/// growth of the warm-held matrix cache, so grown and rebuilt matrices
/// are entry-for-entry identical.
fn column_entries(
    space: &VectorSpace,
    f: &ReviewFeature,
    aspect_targets: &[(&[f64], f64)],
) -> Vec<(usize, f64)> {
    let z = space.num_aspects();
    let od = space.opinion_dim();
    let mut entries: Vec<(usize, f64)> = Vec::new();
    for (r, v) in space.opinion_column(f).into_iter().enumerate() {
        if v != 0.0 {
            entries.push((r, v));
        }
    }
    let asp = space.aspect_column(f);
    for (b, &(_, w)) in aspect_targets.iter().enumerate() {
        for (a, v) in asp.iter().enumerate() {
            if *v != 0.0 && w != 0.0 {
                entries.push((od + b * z + a, w * v));
            }
        }
    }
    entries
}

/// The design matrix of `item` under `dedup`'s grouping: one column per
/// group, built sparsely (only the mentioned opinion slots and the
/// mentioned aspects of each review are non-zero) and stored as `backend`
/// decides.
fn build_matrix(
    space: &VectorSpace,
    item: &Item,
    dedup: &DedupColumns,
    aspect_targets: &[(&[f64], f64)],
    rows: usize,
    backend: MatrixBackend,
) -> Result<TaskMatrix, CoreError> {
    let columns: Vec<Vec<(usize, f64)>> = dedup
        .groups
        .iter()
        .map(|g| column_entries(space, &item.features[g[0]], aspect_targets))
        .collect();
    assemble_matrix(rows, &columns, backend)
}

/// Materialise the backend's representation from sparse column entry
/// lists. `Auto` compares the stored density against
/// [`DENSITY_CROSSOVER`]; the dense path is only entered here, after the
/// decision, so sparse tasks never allocate `rows·cols` cells.
fn assemble_matrix(
    rows: usize,
    columns: &[Vec<(usize, f64)>],
    backend: MatrixBackend,
) -> Result<TaskMatrix, CoreError> {
    let sparse = match backend {
        MatrixBackend::Sparse => true,
        MatrixBackend::Dense => false,
        MatrixBackend::Auto => {
            let cells = rows * columns.len();
            // Column entries are zero-free by construction, so the entry
            // count is the stored nnz.
            let nnz: usize = columns.iter().map(Vec::len).sum();
            cells == 0 || (nnz as f64) < DENSITY_CROSSOVER * cells as f64
        }
    };
    if sparse {
        let matrix = CscMatrix::try_from_columns(rows, columns).map_err(classify_build_error)?;
        Ok(TaskMatrix::Sparse(matrix))
    } else {
        let mut m = Matrix::zeros(rows, columns.len());
        for (j, entries) in columns.iter().enumerate() {
            for &(r, v) in entries {
                if r >= rows {
                    return Err(CoreError::DimensionMismatch {
                        context: "RegressionTask design matrix rows",
                        expected: rows,
                        actual: r,
                    });
                }
                // `+=`, not `=`: duplicate rows sum, exactly as the CSC
                // normalisation does.
                m[(r, j)] += v;
            }
        }
        Ok(TaskMatrix::Dense(m))
    }
}

/// Map a CSC construction failure onto the core error taxonomy (same
/// classification the original monolithic builder used).
fn classify_build_error(e: SolveError) -> CoreError {
    match e {
        SolveError::DimensionMismatch {
            expected, actual, ..
        } => CoreError::DimensionMismatch {
            context: "RegressionTask design matrix rows",
            expected,
            actual,
        },
        other => CoreError::Solver {
            item: 0,
            source: other,
        },
    }
}

/// Largest-remainder rounding of `s · x̂` to integers under per-entry caps.
/// Returns `None` when `x̂` has no mass.
fn round_with_caps(x_hat: &[f64], s: usize, caps: &[usize]) -> Option<Vec<usize>> {
    let mass: f64 = x_hat.iter().sum();
    if mass <= 0.0 || s == 0 {
        return None;
    }
    let scaled: Vec<f64> = x_hat.iter().map(|v| v * s as f64 / mass).collect();
    let mut nu: Vec<usize> = scaled
        .iter()
        .zip(caps.iter())
        .map(|(&t, &c)| (t.floor() as usize).min(c))
        .collect();
    let mut assigned: usize = nu.iter().sum();
    if assigned < s {
        // Distribute the remainder by descending fractional part among
        // entries with spare cap.
        let mut order: Vec<usize> = (0..x_hat.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = scaled[a] - scaled[a].floor();
            let fb = scaled[b] - scaled[b].floor();
            fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
        });
        // Possibly several rounds if caps bind.
        'outer: loop {
            let mut progressed = false;
            for &i in &order {
                if assigned >= s {
                    break 'outer;
                }
                if nu[i] < caps[i] {
                    nu[i] += 1;
                    assigned += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break; // All caps saturated; ‖ν‖₁ < s is acceptable (≤ m).
            }
        }
    }
    if nu.iter().all(|&v| v == 0) {
        None
    } else {
        Some(nu)
    }
}

/// What a per-item regression does when its continuous relaxation fails
/// (non-finite targets, injected faults). The solvers' one failure
/// policy: [`crate::solve_with`] falls back, [`crate::solve_checked`]
/// reports. On well-posed inputs the two are indistinguishable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnFailure {
    /// Continue into the single-review fallback, so the item still gets
    /// a non-empty selection.
    Fallback,
    /// Return the classified [`SolveError`] so a batch driver can isolate
    /// the item.
    Report,
}

/// Run Integer-Regression for one item (Algorithm 1 lines 6–12) on a
/// prepared task, from a cold start.
///
/// `evaluate` must return the true objective of a candidate selection
/// (lower is better); the best candidate over all ℓ and rounding masses is
/// returned. When no non-trivial candidate emerges (e.g. the item's
/// reviews are entirely uncorrelated with the target), falls back to
/// selecting the single review minimising `evaluate`.
///
/// The ℓ-sweep of Algorithm 1 line 7 runs as **one** shared NOMP pursuit
/// ([`comparesets_linalg::nomp_path`]): the pursuit's state evolution is
/// independent of the budget, so the per-ℓ relaxations are snapshots of a
/// single run instead of `m` runs — identical solutions, ~`m×` less
/// solver work.
///
/// `workspace` is pursuit scratch reused across calls; nothing else is
/// kept between calls (the alternating solvers' warm re-solves carry a
/// [`RegressionWarm`] per item instead, ARCHITECTURE.md §9). `ctl`
/// carries the optional metrics collector and cancellation token: a fired
/// token collapses the relaxation to its entry state, so the answer is the
/// cheap single-review fallback — still feasible, still non-empty.
///
/// # Errors
/// The [`SolveError`] the NOMP relaxation reported.
pub fn integer_regression<F>(
    task: &RegressionTask,
    m: usize,
    evaluate: F,
    workspace: &mut NompWorkspace,
    ctl: SolveCtl<'_>,
) -> Result<Selection, SolveError>
where
    F: FnMut(&Selection) -> f64,
{
    regress(task, m, evaluate, workspace, None, OnFailure::Report, ctl)
}

/// The final answer of a previous warm regression, with the inputs it was
/// produced under. Valid only together with the warm state's own target
/// key: the selection may be returned verbatim when the budget, the caps,
/// *and* the relaxation's full trajectory all still apply.
#[derive(Debug, Clone)]
struct CachedSelection {
    m: usize,
    caps: Vec<usize>,
    selection: Selection,
}

/// Structural identity of a warm-held design matrix: everything the
/// matrix's entries are a function of. Two builds with equal keys produce
/// entry-for-entry identical matrices ([`column_entries`] is a pure
/// function of the space, the representative feature, and the block
/// weights), so a key match licenses reuse without touching a single
/// stored value — and the comparison is exact (cloned features, bitwise
/// weights), never a hash that could collide.
#[derive(Debug, Clone, PartialEq)]
struct MatrixKey {
    rows: usize,
    opinion_dim: usize,
    /// Aspect-block weights in block order, compared bitwise.
    weight_bits: Vec<u64>,
    /// One representative [`ReviewFeature`] per dedup group, in group
    /// order. Prefix-comparable: an append-only item keeps its old groups
    /// as a prefix, which is what licenses in-place column growth.
    reps: Vec<ReviewFeature>,
}

impl MatrixKey {
    fn build(
        space: &VectorSpace,
        item: &Item,
        dedup: &DedupColumns,
        aspect_targets: &[(&[f64], f64)],
    ) -> Self {
        MatrixKey {
            rows: space.opinion_dim() + space.num_aspects() * aspect_targets.len(),
            opinion_dim: space.opinion_dim(),
            weight_bits: aspect_targets.iter().map(|&(_, w)| w.to_bits()).collect(),
            reps: dedup
                .groups
                .iter()
                .map(|g| item.features[g[0]].clone())
                .collect(),
        }
    }

    /// Does `self` describe a strict column-prefix of `new`? True exactly
    /// when the cached matrix can grow to `new` by appending columns.
    fn is_prefix_of(&self, new: &MatrixKey) -> bool {
        self.rows == new.rows
            && self.opinion_dim == new.opinion_dim
            && self.weight_bits == new.weight_bits
            && self.reps.len() < new.reps.len()
            && self.reps[..] == new.reps[..self.reps.len()]
    }
}

/// Cross-round cache for one item's repeated integer regressions.
///
/// Wraps the linalg [`WarmState`] (the relaxation's trajectory cache) with
/// the rounding layer's answer, so a re-solve whose inputs are unchanged —
/// same design matrix, bit-equal target, same budget `m` and dedup caps —
/// skips not only the pursuit but the `O(m²)` rounding-and-evaluate sweep.
/// Alternating solvers hold one per item across sweeps; the state
/// revalidates itself against the matrix on every pursuit that actually
/// runs, while the full-skip fast path relies on the caller re-solving the
/// *same item* (the intended use — both CompaReSetS+ variants and the
/// incremental session thread exactly that).
///
/// The state also parks the item's [`TaskMatrix`] between re-solves,
/// validated by an exact structural key: an unchanged item reuses the
/// matrix outright, an append-only item grows its CSC columns in place
/// ([`CscMatrix::try_push_column`]), and anything else rebuilds. This is
/// what lets alternating sweeps skip the `O(q·rows)` matrix assembly per
/// round and lets the serving daemon's session cache hold one resident CSC
/// instance per item (reported by [`RegressionWarm::matrix_bytes`]).
#[derive(Debug, Clone, Default)]
pub struct RegressionWarm {
    state: WarmState,
    cached: Option<CachedSelection>,
    matrix: Option<(MatrixKey, TaskMatrix)>,
}

impl RegressionWarm {
    /// An empty cache; fills on the first regression it is threaded into.
    pub fn new() -> Self {
        RegressionWarm::default()
    }

    /// Drop the trajectory and answer caches (see
    /// [`WarmState::invalidate`]); call when the item behind this cache
    /// changed. The parked design matrix survives: it is validated by an
    /// exact structural key on every re-solve, so a stale matrix is grown
    /// in place (append-only change) or rebuilt (anything else) rather
    /// than trusted.
    pub fn invalidate(&mut self) {
        self.state.invalidate();
        self.cached = None;
    }

    /// Resident bytes of the parked design matrix; 0 when none is held.
    /// The serving daemon sums this over its session cache to report
    /// per-process resident matrix memory.
    pub fn matrix_bytes(&self) -> u64 {
        self.matrix.as_ref().map_or(0, |(_, m)| m.memory_bytes())
    }

    /// Full-target reuse, decided before any design matrix is built: when
    /// this cache holds the answer of a completed re-solve whose inputs
    /// are unchanged — bit-equal stacked target (see
    /// [`RegressionTask::try_stack_target`]), same budget `m`, same dedup
    /// caps — return it without building the matrix, running the pursuit,
    /// or rounding anything. Counters are recorded as a regression whose
    /// pursuit took the engine's own full-reuse path.
    fn probe_reuse(
        &self,
        dedup: &DedupColumns,
        target: &[f64],
        m: usize,
        metrics: Option<&SolverMetrics>,
    ) -> Option<Selection> {
        let cached = self.cached.as_ref()?;
        if cached.m != m || m == 0 {
            return None;
        }
        let q = dedup.len();
        if q == 0
            || cached.caps.len() != q
            || !cached
                .caps
                .iter()
                .zip(dedup.groups.iter())
                .all(|(&c, g)| c == g.len())
        {
            return None;
        }
        let opts = NompOptions::with_max_atoms(m.min(q));
        if !self.state.full_reuse_ready(target, opts) {
            return None;
        }
        if let Some(mm) = metrics {
            SolverMetrics::incr(&mm.integer_regressions);
            SolverMetrics::incr(&mm.nomp_pursuits);
        }
        self.state.record_full_reuse(metrics);
        Some(cached.selection.clone())
    }

    /// Take the parked design matrix for `item` under `dedup`'s grouping,
    /// reusing it when its structural key licenses that: exact match →
    /// reuse outright (trajectory kept), append-only growth on a CSC
    /// matrix → push the new columns in place (trajectory dropped — it
    /// replays a different candidate set), anything else → rebuild under
    /// `backend` (trajectory dropped). Grown and rebuilt matrices are
    /// entry-for-entry identical ([`column_entries`] is shared), so every
    /// path yields byte-identical selections.
    ///
    /// On an exact key match the held representation wins even if
    /// `backend` changed between calls — representations are
    /// selection-equivalent, so swapping one in costs a rebuild for no
    /// observable difference.
    fn take_matrix(
        &mut self,
        space: &VectorSpace,
        item: &Item,
        dedup: &DedupColumns,
        aspect_targets: &[(&[f64], f64)],
        backend: MatrixBackend,
    ) -> Result<(MatrixKey, TaskMatrix), CoreError> {
        let key = MatrixKey::build(space, item, dedup, aspect_targets);
        let matrix = match self.matrix.take() {
            Some((held_key, held)) if held_key == key => held,
            Some((held_key, TaskMatrix::Sparse(mut csc))) if held_key.is_prefix_of(&key) => {
                for g in held_key.reps.len()..key.reps.len() {
                    let entries =
                        column_entries(space, &item.features[dedup.groups[g][0]], aspect_targets);
                    csc.try_push_column(&entries)
                        .map_err(classify_build_error)?;
                }
                self.invalidate();
                TaskMatrix::Sparse(csc)
            }
            held => {
                // A held matrix that reaches here failed validation (the
                // item was edited, a weight changed, a dense matrix cannot
                // grow); its trajectory describes a dead candidate set.
                if held.is_some() {
                    self.invalidate();
                }
                build_matrix(space, item, dedup, aspect_targets, key.rows, backend)?
            }
        };
        Ok((key, matrix))
    }
}

/// One Algorithm 1 re-solve of item `i` of `ctx` against the stacked
/// target `[τᵢ; aspect_targets]`, scored by `evaluate` — the per-item step
/// shared by the CompaReSetS+ sweeps and [`crate::IncrementalSession`].
/// `dedup` is the item's current column grouping ([`DedupColumns::build`]),
/// which the caller builds once per item version.
///
/// Without a [`RegressionWarm`] the step builds the task and solves cold.
/// With one it first probes for full-target reuse (no matrix built,
/// nothing rounded), then solves on the matrix parked in the state
/// (reused, grown in place, or rebuilt) through the warm pursuit, and
/// parks the matrix back — also when the solve failed, since it is still
/// valid. Selections are identical either way.
///
/// `None` when the target blocks do not fit the space, the matrix cannot
/// be built, or the relaxation fails under [`OnFailure::Report`]; the
/// callers then keep the item's current selection.
#[allow(clippy::too_many_arguments)] // the item, its targets and the regression surface
pub(crate) fn resolve_item<F>(
    ctx: &InstanceContext,
    i: usize,
    dedup: &DedupColumns,
    aspect_targets: &[(&[f64], f64)],
    m: usize,
    evaluate: F,
    workspace: &mut NompWorkspace,
    warm: Option<&mut RegressionWarm>,
    on_failure: OnFailure,
    opts: &SolveOptions,
) -> Option<Selection>
where
    F: FnMut(&Selection) -> f64,
{
    let (space, item) = (ctx.space(), ctx.item(i));
    let target = RegressionTask::try_stack_target(space, ctx.tau(i), aspect_targets).ok()?;
    let ctl = opts.ctl();
    let Some(w) = warm else {
        let matrix = build_matrix(
            space,
            item,
            dedup,
            aspect_targets,
            target.len(),
            opts.backend,
        )
        .ok()?;
        let task = RegressionTask {
            matrix,
            target,
            dedup: dedup.clone(),
        };
        return regress(&task, m, evaluate, workspace, None, on_failure, ctl).ok();
    };
    if let Some(reused) = w.probe_reuse(dedup, &target, m, ctl.metrics) {
        return Some(reused);
    }
    let (key, matrix) = w
        .take_matrix(space, item, dedup, aspect_targets, opts.backend)
        .ok()?;
    let task = RegressionTask {
        matrix,
        target,
        dedup: dedup.clone(),
    };
    let result = regress(
        &task,
        m,
        evaluate,
        workspace,
        Some(&mut *w),
        on_failure,
        ctl,
    );
    w.matrix = Some((key, task.matrix));
    result.ok()
}

/// [`integer_regression`] under either [`OnFailure`] policy, optionally
/// through a [`RegressionWarm`]'s trajectory cache (whose full-target
/// reuse [`resolve_item`] has already ruled out). Under
/// [`OnFailure::Fallback`] this never returns `Err`: a failed relaxation
/// continues into the single-review fallback (kept bit-for-bit for
/// well-posed inputs).
pub(crate) fn regress<F>(
    task: &RegressionTask,
    m: usize,
    mut evaluate: F,
    workspace: &mut NompWorkspace,
    mut warm: Option<&mut RegressionWarm>,
    on_failure: OnFailure,
    ctl: SolveCtl<'_>,
) -> Result<Selection, SolveError>
where
    F: FnMut(&Selection) -> f64,
{
    let metrics = ctl.metrics;
    let caps = task.dedup.caps();
    let q = task.dedup.len();
    if let Some(mm) = metrics {
        SolverMetrics::incr(&mm.integer_regressions);
    }
    let span = tracing::debug_span!("integer_regression", m = m, q = q);
    let _span_guard = span.enter();
    let mut best: Option<(f64, Selection)> = None;
    let consider = |sel: Selection, evaluate: &mut F, best: &mut Option<(f64, Selection)>| {
        if sel.len() > m {
            return;
        }
        let cost = evaluate(&sel);
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            *best = Some((cost, sel));
        }
    };

    if q > 0 && m > 0 {
        // Budgets ℓ > q stop exactly where ℓ = q does (the support can
        // never exceed the q distinct columns), so the path only needs the
        // distinct budgets 1..=min(m, q); duplicates would re-evaluate the
        // same candidates and lose every strict-< comparison anyway.
        let opts = NompOptions::with_max_atoms(m.min(q));
        // Likewise every rounding mass s ≥ Σcᵢ saturates every cap, so
        // masses beyond the item's review count only repeat the "every
        // review" candidate that s = Σcᵢ already considered. Bounding the
        // loop keeps its cost independent of a caller-supplied m.
        let s_max = m.min(caps.iter().sum());
        let state = warm.as_deref_mut().map(|w| &mut w.state);
        match nomp_path(&task.matrix, &task.target, opts, workspace, state, ctl) {
            Ok(path) => {
                for res in &path {
                    if res.support.is_empty() {
                        continue;
                    }
                    for s in 1..=s_max {
                        if let Some(nu) = round_with_caps(&res.x, s, &caps) {
                            let sel = task.dedup.expand(&nu);
                            consider(sel, &mut evaluate, &mut best);
                        }
                    }
                }
            }
            Err(e) if on_failure == OnFailure::Report => return Err(e),
            Err(_) => {}
        }
    }

    // Fallback: best single review (ensures a non-empty selection).
    if best.as_ref().is_none_or(|(_, s)| s.is_empty()) {
        for g in 0..q {
            let mut nu = vec![0usize; q];
            nu[g] = 1;
            let sel = task.dedup.expand(&nu);
            consider(sel, &mut evaluate, &mut best);
        }
    }

    let selection = best.map(|(_, s)| s).unwrap_or_default();
    // Pair the answer with the relaxation trajectory that produced it; the
    // engine declines to store a trajectory for cancelled pursuits, and
    // `full_reuse_ready` is false then, so a truncated anytime answer is
    // never served as a completed one.
    if q > 0 && m > 0 {
        if let Some(w) = warm {
            if w.state
                .full_reuse_ready(&task.target, NompOptions::with_max_atoms(m.min(q)))
            {
                w.cached = Some(CachedSelection {
                    m,
                    caps,
                    selection: selection.clone(),
                });
            } else {
                w.cached = None;
            }
        }
    }
    Ok(selection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Item;
    use crate::space::{OpinionScheme, VectorSpace};
    use comparesets_data::{Polarity, ProductId, ReviewId};
    use comparesets_linalg::vector::sq_distance;

    fn build(
        space: &VectorSpace,
        item: &Item,
        tau: &[f64],
        aspect_targets: &[(&[f64], f64)],
    ) -> RegressionTask {
        RegressionTask::build(space, item, tau, aspect_targets, MatrixBackend::Auto).unwrap()
    }

    /// The regression under the fallback policy, on fresh scratch.
    fn lenient(task: &RegressionTask, m: usize, eval: impl FnMut(&Selection) -> f64) -> Selection {
        let mut ws = NompWorkspace::new();
        regress(
            task,
            m,
            eval,
            &mut ws,
            None,
            OnFailure::Fallback,
            SolveCtl::default(),
        )
        .unwrap()
    }

    /// The public (reporting) regression, on fresh scratch.
    fn strict(
        task: &RegressionTask,
        m: usize,
        eval: impl FnMut(&Selection) -> f64,
    ) -> Result<Selection, SolveError> {
        integer_regression(
            task,
            m,
            eval,
            &mut NompWorkspace::new(),
            SolveCtl::default(),
        )
    }

    fn item_with(reviews: Vec<Vec<(usize, Polarity)>>) -> Item {
        Item::from_mentions(
            ProductId(0),
            reviews
                .into_iter()
                .enumerate()
                .map(|(i, ms)| (ReviewId(i as u32), ms))
                .collect(),
        )
    }

    #[test]
    fn dedup_groups_identical_reviews() {
        use Polarity::Positive;
        let item = item_with(vec![
            vec![(0, Positive)],
            vec![(1, Positive)],
            vec![(0, Positive)],
            vec![(0, Positive)],
        ]);
        let d = DedupColumns::build(&item);
        assert_eq!(d.len(), 2);
        assert_eq!(d.caps(), vec![3, 1]);
        let sel = d.expand(&[2, 1]);
        assert_eq!(sel.indices, vec![0, 1, 2]);
        assert!(!d.is_empty());
    }

    #[test]
    fn round_with_caps_basic() {
        // x̂ = (0.5, 0.5), s = 3, caps (2, 2) → (2,1) or (1,2); largest
        // remainder with equal fractions keeps order stability.
        let nu = round_with_caps(&[0.5, 0.5], 3, &[2, 2]).unwrap();
        assert_eq!(nu.iter().sum::<usize>(), 3);
        assert!(nu.iter().all(|&v| v <= 2));
    }

    #[test]
    fn round_with_caps_respects_caps() {
        let nu = round_with_caps(&[1.0, 0.0], 5, &[2, 3]).unwrap();
        assert_eq!(nu[0], 2);
        // Cap binds; remainder flows to the other entry up to its cap.
        assert!(nu.iter().sum::<usize>() <= 5);
    }

    #[test]
    fn round_with_caps_zero_mass_is_none() {
        assert!(round_with_caps(&[0.0, 0.0], 3, &[1, 1]).is_none());
        assert!(round_with_caps(&[0.5], 0, &[1]).is_none());
    }

    #[test]
    fn task_builder_shapes() {
        use Polarity::{Negative, Positive};
        let item = item_with(vec![vec![(0, Positive)], vec![(1, Negative)]]);
        let space = VectorSpace::new(2, OpinionScheme::Binary);
        let tau = vec![0.5, 0.0, 0.0, 0.5];
        let gamma = vec![1.0, 1.0];
        let phi_other = vec![1.0, 0.0];
        let task = build(&space, &item, &tau, &[(&gamma, 2.0), (&phi_other, 0.5)]);
        // rows = 4 (opinion) + 2 + 2.
        assert_eq!(task.matrix.rows(), 8);
        assert_eq!(task.matrix.cols(), 2);
        // Aspect block of review 0 is weighted by 2.0 then 0.5.
        assert_eq!(task.matrix.get(4, 0), 2.0);
        assert_eq!(task.matrix.get(6, 0), 0.5);
        // Target is [τ; 2Γ; 0.5φ].
        assert_eq!(task.target.len(), 8);
        assert_eq!(task.target[4], 2.0);
        assert_eq!(task.target[6], 0.5);
    }

    /// Working Example 2: Integer-Regression on ℛ₁ with m = 3 and λ = 1
    /// must recover a selection whose π and φ equal τ₁ and Γ exactly.
    #[test]
    fn working_example_2_recovers_optimal_selection() {
        let item = crate::space::fixtures::working_example_item();
        let space = VectorSpace::new(5, OpinionScheme::Binary);
        let all: Vec<usize> = (0..7).collect();
        let tau = space.pi(&item, &all);
        let gamma = space.phi(&item, &all);
        let task = build(&space, &item, &tau, &[(&gamma, 1.0)]);
        let sel = lenient(&task, 3, |s| {
            let pi = space.pi(&item, &s.indices);
            let phi = space.phi(&item, &s.indices);
            sq_distance(&tau, &pi) + sq_distance(&gamma, &phi)
        });
        assert!(sel.len() <= 3);
        let pi = space.pi(&item, &sel.indices);
        let phi = space.phi(&item, &sel.indices);
        assert!(
            sq_distance(&tau, &pi) < 1e-12,
            "pi {pi:?} tau {tau:?} sel {sel:?}"
        );
        assert!(sq_distance(&gamma, &phi) < 1e-12, "phi {phi:?}");
    }

    /// With m ≥ 4 the paper notes {r1,r2,r3,r4} is another optimum; the
    /// solver must still achieve zero objective.
    #[test]
    fn working_example_2_with_larger_budget() {
        let item = crate::space::fixtures::working_example_item();
        let space = VectorSpace::new(5, OpinionScheme::Binary);
        let all: Vec<usize> = (0..7).collect();
        let tau = space.pi(&item, &all);
        let gamma = space.phi(&item, &all);
        let task = build(&space, &item, &tau, &[(&gamma, 1.0)]);
        let sel = lenient(&task, 4, |s| {
            let pi = space.pi(&item, &s.indices);
            let phi = space.phi(&item, &s.indices);
            sq_distance(&tau, &pi) + sq_distance(&gamma, &phi)
        });
        let pi = space.pi(&item, &sel.indices);
        let phi = space.phi(&item, &sel.indices);
        assert!(sq_distance(&tau, &pi) + sq_distance(&gamma, &phi) < 1e-12);
    }

    #[test]
    fn never_exceeds_budget_and_never_empty() {
        use Polarity::{Negative, Positive};
        let item = item_with(vec![
            vec![(0, Positive)],
            vec![(0, Negative)],
            vec![(1, Positive)],
            vec![(2, Negative)],
            vec![(0, Positive), (1, Negative)],
        ]);
        let space = VectorSpace::new(3, OpinionScheme::Binary);
        let all: Vec<usize> = (0..5).collect();
        let tau = space.pi(&item, &all);
        let gamma = space.phi(&item, &all);
        for m in 1..=5 {
            let task = build(&space, &item, &tau, &[(&gamma, 1.0)]);
            let sel = lenient(&task, m, |s| {
                let pi = space.pi(&item, &s.indices);
                sq_distance(&tau, &pi)
            });
            assert!(!sel.is_empty(), "m={m}");
            assert!(sel.len() <= m, "m={m} sel={sel:?}");
        }
    }

    #[test]
    fn rounding_masses_stop_at_the_review_count() {
        // Every mass s ≥ Σcᵢ rounds to "every review", so a budget far
        // beyond the item's review count must cost no more evaluations
        // than a budget equal to it, and select the same reviews.
        let item = crate::space::fixtures::working_example_item();
        let space = VectorSpace::new(5, OpinionScheme::Binary);
        let all: Vec<usize> = (0..item.num_reviews()).collect();
        let tau = space.pi(&item, &all);
        let gamma = space.phi(&item, &all);
        let task = build(&space, &item, &tau, &[(&gamma, 1.0)]);
        let reviews: usize = task.dedup.caps().iter().sum();
        let run = |m: usize| {
            let mut calls = 0usize;
            let sel = strict(&task, m, |s| {
                calls += 1;
                sq_distance(&tau, &space.pi(&item, &s.indices))
                    + sq_distance(&gamma, &space.phi(&item, &s.indices))
            })
            .unwrap();
            (sel, calls)
        };
        let (at_count, calls_at_count) = run(reviews);
        let (beyond, calls_beyond) = run(10_000);
        assert_eq!(at_count, beyond);
        assert_eq!(calls_at_count, calls_beyond);
        assert!(calls_beyond < 10_000, "{calls_beyond} evaluations");
    }

    #[test]
    fn single_review_item() {
        let item = item_with(vec![vec![(0, Polarity::Positive)]]);
        let space = VectorSpace::new(1, OpinionScheme::Binary);
        let tau = vec![1.0, 0.0];
        let gamma = vec![1.0];
        let task = build(&space, &item, &tau, &[(&gamma, 1.0)]);
        let sel = lenient(&task, 3, |s| {
            sq_distance(&tau, &space.pi(&item, &s.indices))
        });
        assert_eq!(sel.indices, vec![0]);
    }

    fn assert_matrices_bit_identical(a: &TaskMatrix, b: &TaskMatrix, what: &str) {
        assert_eq!(a.rows(), b.rows(), "{what}: rows");
        assert_eq!(a.cols(), b.cols(), "{what}: cols");
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                assert_eq!(
                    a.get(r, c).to_bits(),
                    b.get(r, c).to_bits(),
                    "{what}: entry ({r}, {c})"
                );
            }
        }
    }

    /// The parked-matrix step of a warm re-solve, on the CSC backend.
    fn parked(
        warm: &mut RegressionWarm,
        space: &VectorSpace,
        item: &Item,
        targets: &[(&[f64], f64)],
    ) -> (MatrixKey, TaskMatrix) {
        warm.take_matrix(
            space,
            item,
            &DedupColumns::build(item),
            targets,
            MatrixBackend::Sparse,
        )
        .unwrap()
    }

    #[test]
    fn session_grows_parked_csc_in_place_to_match_rebuild() {
        use Polarity::{Negative, Positive};
        let space = VectorSpace::new(3, OpinionScheme::Binary);
        let tau = vec![0.5, 0.0, 0.0, 0.25, 0.25, 0.0];
        let gamma = vec![1.0, 1.0, 1.0];
        let targets: [(&[f64], f64); 1] = [(&gamma, 1.0)];

        let small = item_with(vec![vec![(0, Positive)], vec![(1, Negative)]]);
        let mut warm = RegressionWarm::new();
        let (key, matrix) = parked(&mut warm, &space, &small, &targets);
        assert!(matrix.is_sparse());
        warm.matrix = Some((key, matrix));

        // Appending a structurally new review must extend the parked CSC
        // in place — and land bit-identically on a from-scratch build.
        let grown_item = item_with(vec![
            vec![(0, Positive)],
            vec![(1, Negative)],
            vec![(2, Positive)],
        ]);
        let (key2, grown) = parked(&mut warm, &space, &grown_item, &targets);
        let rebuilt =
            RegressionTask::build(&space, &grown_item, &tau, &targets, MatrixBackend::Sparse)
                .unwrap();
        assert!(grown.is_sparse());
        assert_matrices_bit_identical(&grown, &rebuilt.matrix, "grown vs rebuilt");

        // Exact-key reuse: re-solving the identical item hands the parked
        // matrix straight back.
        warm.matrix = Some((key2, grown));
        let (_, reused) = parked(&mut warm, &space, &grown_item, &targets);
        assert_matrices_bit_identical(&reused, &rebuilt.matrix, "exact-key reuse");
    }

    #[test]
    fn session_rebuilds_on_structural_mismatch() {
        use Polarity::{Negative, Positive};
        let space = VectorSpace::new(3, OpinionScheme::Binary);
        let tau = vec![0.5, 0.0, 0.0, 0.25, 0.25, 0.0];
        let gamma = vec![1.0, 1.0, 1.0];
        let targets: [(&[f64], f64); 1] = [(&gamma, 1.0)];
        let item = item_with(vec![vec![(0, Positive)], vec![(1, Negative)]]);

        let mut warm = RegressionWarm::new();
        let (key, matrix) = parked(&mut warm, &space, &item, &targets);
        warm.matrix = Some((key, matrix));

        // Different target weight → different weight_bits → not a prefix:
        // the session must rebuild, not grow.
        let reweighted: [(&[f64], f64); 1] = [(&gamma, 2.0)];
        let (_, rebuilt_via_session) = parked(&mut warm, &space, &item, &reweighted);
        let fresh =
            RegressionTask::build(&space, &item, &tau, &reweighted, MatrixBackend::Sparse).unwrap();
        assert_matrices_bit_identical(&rebuilt_via_session, &fresh.matrix, "mismatch rebuild");
    }

    #[test]
    fn try_build_classifies_dimension_mismatches() {
        let item = item_with(vec![vec![(0, Polarity::Positive)]]);
        let space = VectorSpace::new(2, OpinionScheme::Binary);
        let short_tau = vec![1.0]; // opinion_dim is 4 for Binary over 2 aspects
        let r = RegressionTask::build(&space, &item, &short_tau, &[], MatrixBackend::Auto);
        assert!(matches!(
            r,
            Err(crate::error::CoreError::DimensionMismatch { .. })
        ));
        let tau = vec![0.0; space.opinion_dim()];
        let short_gamma = vec![1.0];
        let r = RegressionTask::build(
            &space,
            &item,
            &tau,
            &[(&short_gamma, 1.0)],
            MatrixBackend::Auto,
        );
        assert!(matches!(
            r,
            Err(crate::error::CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn strict_variant_matches_legacy_on_well_posed_input() {
        let item = crate::space::fixtures::working_example_item();
        let space = VectorSpace::new(5, OpinionScheme::Binary);
        let all: Vec<usize> = (0..7).collect();
        let tau = space.pi(&item, &all);
        let gamma = space.phi(&item, &all);
        let task = build(&space, &item, &tau, &[(&gamma, 1.0)]);
        let eval = |s: &Selection| {
            sq_distance(&tau, &space.pi(&item, &s.indices))
                + sq_distance(&gamma, &space.phi(&item, &s.indices))
        };
        let legacy = lenient(&task, 3, eval);
        let reported = strict(&task, 3, eval).unwrap();
        assert_eq!(legacy, reported);
    }

    #[test]
    fn strict_variant_propagates_non_finite_targets() {
        let item = item_with(vec![vec![(0, Polarity::Positive)]]);
        let space = VectorSpace::new(1, OpinionScheme::Binary);
        let tau = vec![1.0, 0.0];
        let mut task = build(&space, &item, &tau, &[]);
        task.target[0] = f64::NAN;
        let r = strict(&task, 2, |_| 0.0);
        assert!(matches!(r, Err(SolveError::NonFinite { .. })));
        // The legacy entry point degrades to the single-review fallback
        // instead of failing.
        let sel = lenient(&task, 2, |_| 0.0);
        assert_eq!(sel.indices, vec![0]);
    }
}
