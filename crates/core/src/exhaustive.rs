//! Exhaustive (provably optimal) review selection for small instances.
//!
//! CompaReSetS is NP-complete (§2.2), but Equation 1 decomposes per item
//! (Equation 3), so for an item with `|ℛᵢ|` reviews the optimum over all
//! subsets of size ≤ m can be found by enumerating `Σ_{s≤m} C(|ℛᵢ|, s)`
//! candidates. This is intractable at corpus scale — which is the paper's
//! point — but perfectly feasible for |ℛᵢ| ≲ 20, m ≤ 3, giving us an
//! *oracle* to measure the Integer-Regression approximation gap
//! (`comparesets-eval`'s ablation experiment) and to harden tests.

use crate::instance::{InstanceContext, Selection};
use crate::objective::item_objective;
use crate::SelectParams;

/// Upper bound on enumerated candidates before [`solve_exhaustive`]
/// refuses (combination counts explode fast; callers should fall back to
/// Integer-Regression beyond this).
pub const MAX_CANDIDATES: u128 = 2_000_000;

/// Number of subsets of size ≤ m from n reviews (saturating).
pub fn candidate_count(n: usize, m: usize) -> u128 {
    let mut total: u128 = 0;
    let mut c: u128 = 1; // C(n, 0)
    for s in 0..=m.min(n) {
        if s > 0 {
            c = c.saturating_mul((n - s + 1) as u128) / s as u128;
        }
        total = total.saturating_add(c);
    }
    total
}

/// Exhaustively minimise Equation 3 for every item independently.
/// Returns `None` when any item's candidate count exceeds
/// [`MAX_CANDIDATES`].
pub fn solve_exhaustive(ctx: &InstanceContext, params: &SelectParams) -> Option<Vec<Selection>> {
    let mut out = Vec::with_capacity(ctx.num_items());
    for i in 0..ctx.num_items() {
        out.push(solve_exhaustive_item(ctx, i, params)?);
    }
    Some(out)
}

/// Exhaustive per-item optimum of Equation 3 (single item `i`).
pub fn solve_exhaustive_item(
    ctx: &InstanceContext,
    i: usize,
    params: &SelectParams,
) -> Option<Selection> {
    let n = ctx.item(i).num_reviews();
    let m = params.m.min(n);
    if candidate_count(n, m) > MAX_CANDIDATES {
        return None;
    }
    let mut best: Option<(f64, Selection)> = None;
    let consider = |indices: &[usize], best: &mut Option<(f64, Selection)>| {
        let sel = Selection::new(indices.to_vec());
        let cost = item_objective(ctx, i, &sel, params.lambda);
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            *best = Some((cost, sel));
        }
    };
    // Enumerate subsets of each size 1..=m with a classic index-vector
    // combination walk (the empty set is only competitive when every
    // review hurts, which cannot happen for non-negative targets, but we
    // include it for mathematical completeness).
    consider(&[], &mut best);
    let mut indices: Vec<usize> = Vec::new();
    for size in 1..=m {
        indices.clear();
        indices.extend(0..size);
        loop {
            consider(&indices, &mut best);
            // Advance the combination.
            let mut pos = size;
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                if indices[pos] < n - (size - pos) {
                    indices[pos] += 1;
                    for k in (pos + 1)..size {
                        indices[k] = indices[k - 1] + 1;
                    }
                    break;
                }
                if pos == 0 {
                    pos = usize::MAX;
                    break;
                }
            }
            if pos == usize::MAX {
                break;
            }
        }
    }
    best.map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceContext;
    use crate::space::OpinionScheme;
    use crate::{solve_with, Algorithm, SolveOptions};
    use comparesets_data::CategoryPreset;

    fn params(m: usize) -> SelectParams {
        SelectParams {
            m,
            lambda: 1.0,
            mu: 0.0,
        }
    }

    #[test]
    fn candidate_counts() {
        assert_eq!(candidate_count(4, 2), 1 + 4 + 6);
        assert_eq!(candidate_count(5, 0), 1);
        assert_eq!(candidate_count(3, 5), 8); // all subsets
        assert!(candidate_count(100, 50) > MAX_CANDIDATES);
    }

    #[test]
    fn exhaustive_finds_the_working_example_optimum() {
        let item = crate::space::fixtures::working_example_item();
        let ctx = InstanceContext::from_items(5, vec![item], OpinionScheme::Binary);
        let sel = solve_exhaustive_item(&ctx, 0, &params(3)).unwrap();
        let cost = item_objective(&ctx, 0, &sel, 1.0);
        // The paper names {r5,r6,r7}; the instance admits several
        // zero-cost optima (e.g. {r2,r5,r7}) — any is acceptable.
        assert!(cost < 1e-12, "cost {cost} sel {sel:?}");
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn integer_regression_never_beats_the_oracle() {
        let d = CategoryPreset::Cellphone.config(60, 5).generate();
        let p = params(2);
        let mut checked = 0;
        for inst in d.instances().into_iter().take(6) {
            let inst = inst.truncated(2);
            let ctx = InstanceContext::build(&d, &inst, OpinionScheme::Binary);
            let Some(oracle) = solve_exhaustive(&ctx, &p) else {
                continue;
            };
            let approx = solve_with(
                &ctx,
                Algorithm::CompareSets,
                &p,
                0,
                &SolveOptions::default(),
            );
            for i in 0..ctx.num_items() {
                let oc = item_objective(&ctx, i, &oracle[i], p.lambda);
                let ac = item_objective(&ctx, i, &approx[i], p.lambda);
                assert!(ac >= oc - 1e-9, "approx {ac} below oracle {oc} on item {i}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no instance was small enough to check");
    }

    #[test]
    fn refuses_oversized_enumeration() {
        // Build a context whose item has many reviews, then ask for a huge m.
        let d = CategoryPreset::Toy.config(60, 9).generate();
        let inst = d
            .instances()
            .into_iter()
            .find(|i| i.items.iter().any(|&p| d.reviews_of(p).len() >= 40));
        if let Some(inst) = inst {
            let ctx = InstanceContext::build(&d, &inst.truncated(1), OpinionScheme::Binary);
            let big = SelectParams {
                m: 20,
                lambda: 1.0,
                mu: 0.0,
            };
            // Either some item is too large (None) or all are small enough —
            // both acceptable; just must not hang or panic.
            let _ = solve_exhaustive(&ctx, &big);
        }
    }

    #[test]
    fn oracle_selection_respects_budget() {
        let item = crate::space::fixtures::working_example_item();
        let ctx = InstanceContext::from_items(5, vec![item], OpinionScheme::Binary);
        for m in 1..=4 {
            let sel = solve_exhaustive_item(&ctx, 0, &params(m)).unwrap();
            assert!(sel.len() <= m);
        }
    }
}
