//! CompaReSetS (Problem 1) and CompaReSetS+ (Problem 2, Algorithm 1).
//!
//! * CompaReSetS solves Equation 1: per item, Integer-Regression against
//!   the concatenated target `[τᵢ; λ·Γ]` (Equation 4).
//! * CompaReSetS+ runs Algorithm 1: start from the CompaReSetS solutions,
//!   then for each item rebuild the regression with the extended target
//!   `Υ = [τᵢ; λΓ; μφ(S₁); …; μφ(Sₙ)]` (other items' current selections)
//!   and accept the re-selection only when it lowers the per-item
//!   synchronized objective (lines 10–12).
//!
//! Both run behind [`crate::solve_with`] and [`crate::solve_checked`];
//! the sweep count and caller-held warm states of CompaReSetS+ are exposed
//! through the `solve_comparesets_plus_sweeps_*` functions below. One
//! per-item driver (`solve_items`, shared with CRS) and one Gauss–Seidel
//! alternation loop (`solve_comparesets_plus`) serve the lenient and the
//! checked paths alike; a private failure policy (`OnFailure`) is the
//! only difference between them. Execution is sequential: item `i` of a
//! sweep reads the other items' *current* selections, and every
//! per-item step reuses one solver workspace.

use comparesets_linalg::vector::sq_distance;
use comparesets_linalg::NompWorkspace;

use crate::error::{validate_params, CoreError};
use crate::instance::{InstanceContext, Selection};
use crate::integer_regression::{
    regress, resolve_item, DedupColumns, OnFailure, RegressionTask, RegressionWarm,
};
use crate::{SelectParams, SolveOptions, SolverMetrics};

/// One result per item, in item order: a selection, or the item's
/// classified failure.
pub(crate) type Slots = Vec<Result<Selection, CoreError>>;

/// Post-batch deadline classification shared by the checked solvers: when
/// the options' token fired during the solve, the per-item results are
/// suspect (items may have degraded to their fallback), so the batch is
/// reported as [`CoreError::DeadlineExceeded`] carrying the feasible
/// best-so-far selections (failed slots contribute an empty selection).
pub(crate) fn classify_deadline(slots: Slots, opts: &SolveOptions) -> Result<Slots, CoreError> {
    if !opts.cancel_fired() {
        return Ok(slots);
    }
    if let Some(mm) = opts.metrics_ref() {
        SolverMetrics::incr(&mm.deadline_expirations);
    }
    tracing::warn!("solve observed a fired cancellation token; returning best-so-far selections");
    Err(CoreError::DeadlineExceeded {
        best_so_far: slots.into_iter().map(|r| r.unwrap_or_default()).collect(),
    })
}

/// The lenient answer: every slot's selection. Under
/// [`OnFailure::Fallback`] the regressions never fail, so an `Err` slot
/// can only come from a malformed context whose target blocks do not fit
/// its vector space.
///
/// # Panics
/// On such a malformed context.
pub(crate) fn fallback_selections(slots: Slots) -> Vec<Selection> {
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|e| panic!("malformed instance context: {e}")))
        .collect()
}

/// The per-item driver behind CRS and CompaReSetS: one independent
/// Integer-Regression per item against `[τᵢ; aspect_targets]` (the same
/// aspect blocks for every item), scored by `evaluate(i, selection)`.
/// A failed item lands as `Err` in its slot — its task build reports
/// [`CoreError::DimensionMismatch`], its relaxation [`CoreError::Solver`]
/// under [`OnFailure::Report`] — while every other item still solves.
pub(crate) fn solve_items(
    ctx: &InstanceContext,
    m: usize,
    aspect_targets: &[(&[f64], f64)],
    evaluate: impl Fn(usize, &Selection) -> f64,
    opts: &SolveOptions,
    on_failure: OnFailure,
) -> Slots {
    let ctl = opts.ctl();
    let mut ws = NompWorkspace::new();
    (0..ctx.num_items())
        .map(|i| {
            let task = RegressionTask::build(
                ctx.space(),
                ctx.item(i),
                ctx.tau(i),
                aspect_targets,
                opts.backend,
            )?;
            let evaluate = |sel: &Selection| evaluate(i, sel);
            regress(&task, m, evaluate, &mut ws, None, on_failure, ctl)
                .map_err(|source| CoreError::Solver { item: i, source })
        })
        .collect()
}

/// CompaReSetS (Problem 1): independent Integer-Regression per item with
/// target `[τᵢ; λΓ]`.
pub(crate) fn solve_comparesets(
    ctx: &InstanceContext,
    params: &SelectParams,
    opts: &SolveOptions,
    on_failure: OnFailure,
) -> Slots {
    let lambda = params.lambda;
    solve_items(
        ctx,
        params.m,
        &[(ctx.gamma(), lambda)],
        |i, sel| crate::objective::item_objective(ctx, i, sel, lambda),
        opts,
        on_failure,
    )
}

/// CompaReSetS+ (Problem 2) with `sweeps` alternating Gauss–Seidel sweeps
/// (Algorithm 1 performs one), warm-started from `warm` (one state per
/// item) or solved cold when it is `None`.
///
/// The CompaReSetS seed runs through [`solve_comparesets`]; a failed item
/// keeps its `Err` slot and is **excluded from the coupling**: healthy
/// items synchronise among themselves as if it were absent. A sweep step
/// whose build or solve fails keeps the item's current (valid) selection,
/// matching the accept-only-if-better contract of Algorithm 1. Under
/// [`OnFailure::Report`] a token that fired during the seed ends the
/// solve there, before any sweep.
pub(crate) fn solve_comparesets_plus(
    ctx: &InstanceContext,
    params: &SelectParams,
    sweeps: usize,
    opts: &SolveOptions,
    mut warm: Option<&mut [RegressionWarm]>,
    on_failure: OnFailure,
) -> Slots {
    let (lambda, mu) = (params.lambda, params.mu);
    // Algorithm 1 input: solutions of CompaReSetS.
    let mut slots = solve_comparesets(ctx, params, opts, on_failure);
    let n = ctx.num_items();
    if n <= 1 || mu == 0.0 {
        // Coupling vanishes; CompaReSetS is already optimal for Eq. 5.
        return slots;
    }
    if on_failure == OnFailure::Report && opts.cancel_fired() {
        return slots;
    }

    // One pursuit workspace serves every per-item step of every sweep, and
    // with warm states each item keeps a cache across sweeps: once the
    // other items' selections stop changing, an item's extended target Υ
    // repeats verbatim and the re-solve is served from cache
    // (ARCHITECTURE.md §9).
    let metrics = opts.metrics_ref();
    let ctl = opts.ctl();
    let span = tracing::debug_span!("comparesets_plus_alternation", items = n, sweeps = sweeps);
    let _span_guard = span.enter();
    let mut ws = NompWorkspace::new();
    // The items are immutable for the whole solve, so each one's column
    // grouping is computed once and shared by every per-item step.
    let dedups: Vec<DedupColumns> = (0..n).map(|j| DedupColumns::build(ctx.item(j))).collect();
    // φ(Sⱼ) under each healthy item's current selection (`None` for a
    // failed item), refreshed only when an accept changes the selection —
    // φ is a pure function of the selection, so the cache is bit-identical
    // to recomputing per round.
    let mut phis: Vec<Option<Vec<f64>>> = slots
        .iter()
        .enumerate()
        .map(|(j, slot)| {
            let sel = slot.as_ref().ok()?;
            Some(ctx.space().phi(ctx.item(j), &sel.indices))
        })
        .collect();
    'sweeps: for _ in 0..sweeps {
        for i in 0..n {
            // Cancellation granularity: one poll per alternation round.
            // Stopping here keeps the current selections — each completed
            // round only ever improved them (accept-only-if-better), so
            // the early exit is the anytime iterate.
            if ctl.is_cancelled() {
                break 'sweeps;
            }
            let Ok(current) = &slots[i] else {
                continue;
            };
            if let Some(mm) = metrics {
                SolverMetrics::incr(&mm.alternation_rounds);
            }
            // φ(Sⱼ) of every other healthy item, under its *current*
            // selection; failed items contribute no coupling.
            let other_phis: Vec<&[f64]> = (0..n)
                .filter(|&j| j != i)
                .filter_map(|j| phis[j].as_deref())
                .collect();

            // Per-item synchronized objective used for accept/reject
            // (Algorithm 1 line 10): Eq. 3 plus μ² Σⱼ Δ(φ(Sᵢ), φ(Sⱼ)).
            let item_plus_cost = |sel: &Selection| {
                let base = crate::objective::item_objective(ctx, i, sel, lambda);
                let phi = ctx.space().phi(ctx.item(i), &sel.indices);
                let coupling: f64 = other_phis.iter().map(|p| sq_distance(&phi, p)).sum();
                base + mu * mu * coupling
            };

            // Υ blocks: Γ with weight λ, then each φ(Sⱼ) with weight μ.
            let mut aspect_targets: Vec<(&[f64], f64)> = Vec::with_capacity(1 + other_phis.len());
            aspect_targets.push((ctx.gamma(), lambda));
            for p in &other_phis {
                aspect_targets.push((p, mu));
            }
            // A failed build or solve keeps the current valid selection.
            let candidate = resolve_item(
                ctx,
                i,
                &dedups[i],
                &aspect_targets,
                params.m,
                item_plus_cost,
                &mut ws,
                warm.as_deref_mut().map(|w| &mut w[i]),
                on_failure,
                opts,
            );

            // A candidate equal to the current selection can never win the
            // strict `<` accept test (the objective is a pure function of
            // the selection), so the two cost evaluations are skipped —
            // the accept decision is unchanged.
            if let Some(candidate) = candidate {
                if candidate != *current && item_plus_cost(&candidate) < item_plus_cost(current) {
                    if let Some(mm) = metrics {
                        SolverMetrics::incr(&mm.alternation_accepts);
                    }
                    tracing::trace!("alternation step accepted a better selection for item {i}");
                    phis[i] = Some(ctx.space().phi(ctx.item(i), &candidate.indices));
                    slots[i] = Ok(candidate);
                }
            }
        }
    }
    slots
}

/// [`solve_comparesets_plus`] with warm states the solver owns and drops
/// on return. They are built only when a later sweep can read them — warm
/// starts on and more than one sweep — so a single sweep runs cold.
pub(crate) fn solve_with_own_states(
    ctx: &InstanceContext,
    params: &SelectParams,
    sweeps: usize,
    opts: &SolveOptions,
    on_failure: OnFailure,
) -> Slots {
    let mut warm: Option<Vec<RegressionWarm>> = (opts.warm_start && sweeps > 1).then(|| {
        (0..ctx.num_items())
            .map(|_| RegressionWarm::new())
            .collect()
    });
    solve_comparesets_plus(ctx, params, sweeps, opts, warm.as_deref_mut(), on_failure)
}

/// CompaReSetS+ with a configurable number of alternating sweeps.
/// Algorithm 1 performs a single sweep `i = 1…n` (what
/// [`crate::solve_with`] runs); additional sweeps keep refining while each
/// per-item step can only decrease the objective.
pub fn solve_comparesets_plus_sweeps_with(
    ctx: &InstanceContext,
    params: &SelectParams,
    sweeps: usize,
    opts: &SolveOptions,
) -> Vec<Selection> {
    fallback_selections(solve_with_own_states(
        ctx,
        params,
        sweeps,
        opts,
        OnFailure::Fallback,
    ))
}

/// [`solve_comparesets_plus_sweeps_with`] with caller-held warm states —
/// the extraction/re-injection point for cross-call reuse (the serving
/// session cache, ARCHITECTURE.md §10).
///
/// `warm` must hold one [`RegressionWarm`] per item, in item order. The
/// states are read *and updated in place*: on return each slot carries the
/// trajectory of its item's last re-solve, so a caller holding them across
/// calls lets a repeat or near-repeat solve start from validated reuse
/// instead of from scratch; the states are filled at every sweep count,
/// a single sweep included. Every level of reuse is validated against the
/// live inputs (ARCHITECTURE.md §9), so selections are byte-identical to a
/// cold solve whatever states are passed in — fresh states reproduce
/// [`solve_comparesets_plus_sweeps_with`] exactly, and stale states from a
/// different instance shape simply fail validation and solve cold. With
/// [`SolveOptions::warm_start`] off the states are neither read nor
/// written.
///
/// # Panics
/// Panics when `warm.len() != ctx.num_items()`.
pub fn solve_comparesets_plus_sweeps_warm_with(
    ctx: &InstanceContext,
    params: &SelectParams,
    sweeps: usize,
    opts: &SolveOptions,
    warm: &mut [RegressionWarm],
) -> Vec<Selection> {
    assert_eq!(
        warm.len(),
        ctx.num_items(),
        "one RegressionWarm per item required"
    );
    fallback_selections(solve_comparesets_plus(
        ctx,
        params,
        sweeps,
        opts,
        opts.warm_start.then_some(warm),
        OnFailure::Fallback,
    ))
}

/// Checked variant of [`solve_comparesets_plus_sweeps_with`], with the
/// slot contract of [`crate::solve_checked`]: a degenerate item lands as
/// `Err` in its slot and is excluded from the coupling, while the healthy
/// items synchronise among themselves. On well-posed inputs every slot is
/// `Ok` and bit-identical to the unchecked solver: same seed, same sweeps,
/// same accept decisions.
///
/// # Errors
/// [`CoreError::InvalidParams`] on bad parameters (outer); per-item
/// [`CoreError::Solver`] in the slots (inner);
/// [`CoreError::DeadlineExceeded`] with the feasible best-so-far
/// selections when the options' cancellation token fired mid-solve.
pub fn solve_comparesets_plus_sweeps_checked(
    ctx: &InstanceContext,
    params: &SelectParams,
    sweeps: usize,
    opts: &SolveOptions,
) -> Result<Vec<Result<Selection, CoreError>>, CoreError> {
    validate_params(params)?;
    let slots = solve_with_own_states(ctx, params, sweeps, opts, OnFailure::Report);
    classify_deadline(slots, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceContext, Item};
    use crate::objective::{comparesets_objective, comparesets_plus_objective};
    use crate::space::OpinionScheme;
    use crate::Algorithm;
    use comparesets_data::{CategoryPreset, Polarity, ProductId, ReviewId};

    fn params(m: usize, lambda: f64, mu: f64) -> SelectParams {
        SelectParams { m, lambda, mu }
    }

    fn comparesets(ctx: &InstanceContext, p: &SelectParams) -> Vec<Selection> {
        crate::solve_with(ctx, Algorithm::CompareSets, p, 0, &SolveOptions::default())
    }

    fn plus(ctx: &InstanceContext, p: &SelectParams) -> Vec<Selection> {
        crate::solve_with(
            ctx,
            Algorithm::CompareSetsPlus,
            p,
            0,
            &SolveOptions::default(),
        )
    }

    fn plus_sweeps(ctx: &InstanceContext, p: &SelectParams, sweeps: usize) -> Vec<Selection> {
        solve_comparesets_plus_sweeps_with(ctx, p, sweeps, &SolveOptions::default())
    }

    /// The three-item example of Figure 2: p₁ as in Working Example 1;
    /// p₂/p₃ built so that CompaReSetS+ must pull the selections toward
    /// the shared aspect *quality* (aspect 2).
    fn figure2_ctx() -> InstanceContext {
        use Polarity::{Negative, Positive};
        let p1 = crate::space::fixtures::working_example_item();
        // p2: reviews r8..r17 — two sub-populations: one matching p1's
        // battery/lens profile, one adding quality.
        let p2 = Item::from_mentions(
            ProductId(1),
            vec![
                (ReviewId(8), vec![(0, Positive), (1, Positive)]),
                (ReviewId(9), vec![(0, Negative), (1, Negative)]),
                (ReviewId(10), vec![(0, Negative)]),
                (ReviewId(15), vec![(0, Positive), (2, Positive)]),
                (ReviewId(16), vec![(0, Negative), (2, Negative)]),
                (
                    ReviewId(17),
                    vec![(0, Negative), (1, Positive), (2, Positive)],
                ),
            ],
        );
        // p3: r20, r21 discuss quality (+ price).
        let p3 = Item::from_mentions(
            ProductId(2),
            vec![
                (ReviewId(20), vec![(0, Positive), (2, Positive)]),
                (
                    ReviewId(21),
                    vec![(0, Negative), (2, Negative), (3, Negative)],
                ),
            ],
        );
        InstanceContext::from_items(5, vec![p1, p2, p3], OpinionScheme::Binary)
    }

    #[test]
    fn comparesets_selects_one_set_per_item_within_budget() {
        let ctx = figure2_ctx();
        let sels = comparesets(&ctx, &params(3, 1.0, 0.0));
        assert_eq!(sels.len(), 3);
        for s in &sels {
            assert!(!s.is_empty());
            assert!(s.len() <= 3);
        }
    }

    #[test]
    fn comparesets_achieves_zero_cost_on_target_item() {
        let ctx = figure2_ctx();
        let sels = comparesets(&ctx, &params(3, 1.0, 0.0));
        let cost0 = crate::objective::item_objective(&ctx, 0, &sels[0], 1.0);
        assert!(cost0 < 1e-12, "target item cost {cost0}");
    }

    #[test]
    fn plus_improves_or_matches_the_synchronized_objective() {
        let ctx = figure2_ctx();
        let p = params(3, 1.0, 1.0);
        let base = comparesets(&ctx, &p);
        let plus = plus(&ctx, &p);
        let obj_base = comparesets_plus_objective(&ctx, &base, p.lambda, p.mu);
        let obj_plus = comparesets_plus_objective(&ctx, &plus, p.lambda, p.mu);
        assert!(
            obj_plus <= obj_base + 1e-9,
            "plus {obj_plus} vs base {obj_base}"
        );
    }

    #[test]
    fn plus_with_mu_zero_equals_comparesets() {
        let ctx = figure2_ctx();
        let p = params(3, 1.0, 0.0);
        assert_eq!(plus(&ctx, &p), comparesets(&ctx, &p));
    }

    #[test]
    fn plus_synchronizes_shared_aspects() {
        // With a strong μ, the selections of p2 and p3 must overlap on the
        // aspects they can share with p1's selection profile. We check the
        // coupling term strictly decreases vs. the unsynchronized solution.
        let ctx = figure2_ctx();
        let p = params(3, 1.0, 2.0);
        let base = comparesets(&ctx, &p);
        let plus = plus_sweeps(&ctx, &p, 2);
        let coupling = |sels: &[Selection]| {
            comparesets_plus_objective(&ctx, sels, p.lambda, p.mu)
                - comparesets_objective(&ctx, sels, p.lambda)
        };
        assert!(
            coupling(&plus) <= coupling(&base) + 1e-9,
            "coupling {} vs {}",
            coupling(&plus),
            coupling(&base)
        );
    }

    #[test]
    fn extra_sweeps_never_hurt() {
        let ctx = figure2_ctx();
        let p = params(3, 1.0, 0.5);
        let one = plus_sweeps(&ctx, &p, 1);
        let three = plus_sweeps(&ctx, &p, 3);
        let o1 = comparesets_plus_objective(&ctx, &one, p.lambda, p.mu);
        let o3 = comparesets_plus_objective(&ctx, &three, p.lambda, p.mu);
        assert!(o3 <= o1 + 1e-9);
    }

    #[test]
    fn works_on_generated_instances() {
        let d = CategoryPreset::Toy.config(60, 23).generate();
        let inst = d.instances().into_iter().nth(1).unwrap().truncated(4);
        let ctx = InstanceContext::build(&d, &inst, OpinionScheme::Binary);
        let p = params(5, 1.0, 0.1);
        let sels = plus(&ctx, &p);
        assert_eq!(sels.len(), ctx.num_items());
        for (i, s) in sels.iter().enumerate() {
            assert!(!s.is_empty());
            assert!(s.len() <= 5);
            assert!(s.indices.iter().all(|&r| r < ctx.item(i).num_reviews()));
        }
    }

    #[test]
    fn single_item_instance_reduces_to_comparesets() {
        let p1 = crate::space::fixtures::working_example_item();
        let ctx = InstanceContext::from_items(5, vec![p1], OpinionScheme::Binary);
        let p = params(3, 1.0, 0.7);
        assert_eq!(plus(&ctx, &p), comparesets(&ctx, &p));
    }

    #[test]
    fn checked_solver_matches_unchecked_on_well_posed_input() {
        let ctx = figure2_ctx();
        let p = params(3, 1.0, 0.5);
        let opts = SolveOptions::default();
        let legacy = comparesets(&ctx, &p);
        let checked: Vec<Selection> =
            crate::solve_checked(&ctx, Algorithm::CompareSets, &p, 0, &opts)
                .unwrap()
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
        assert_eq!(legacy, checked);

        let legacy_plus = plus_sweeps(&ctx, &p, 2);
        let checked_plus: Vec<Selection> =
            solve_comparesets_plus_sweeps_checked(&ctx, &p, 2, &opts)
                .unwrap()
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
        assert_eq!(legacy_plus, checked_plus);
    }

    #[test]
    fn checked_solver_rejects_invalid_params_up_front() {
        let ctx = figure2_ctx();
        let opts = SolveOptions::default();
        for bad in [
            params(0, 1.0, 0.1),
            params(3, f64::NAN, 0.1),
            params(3, 1.0, f64::INFINITY),
        ] {
            assert!(matches!(
                crate::solve_checked(&ctx, Algorithm::CompareSets, &bad, 0, &opts),
                Err(CoreError::InvalidParams(_))
            ));
            assert!(solve_comparesets_plus_sweeps_checked(&ctx, &bad, 1, &opts).is_err());
        }
    }
}
