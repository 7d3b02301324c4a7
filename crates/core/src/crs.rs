//! CRS — Characteristic Review Selection (Lappas, Crovella & Terzi,
//! KDD'12), the paper's single-item baseline (§4.1.2).
//!
//! CRS selects, for each item independently, up to `m` reviews whose
//! opinion distribution `π(Sᵢ)` is as close as possible to the item's
//! overall distribution `τᵢ = π(ℛᵢ)` — the special case of CompaReSetS
//! with a single item and λ = 0. It shares the Integer-Regression
//! machinery and the per-item driver of CompaReSetS but regresses on the
//! opinion block only. Run it through [`crate::solve_with`] or
//! [`crate::solve_checked`] with [`crate::Algorithm::Crs`].

use crate::comparesets::{solve_items, Slots};
use crate::instance::InstanceContext;
use crate::integer_regression::OnFailure;
use crate::SolveOptions;
use comparesets_linalg::vector::sq_distance;

/// Run CRS on every item of the instance independently.
pub(crate) fn solve_crs(
    ctx: &InstanceContext,
    m: usize,
    opts: &SolveOptions,
    on_failure: OnFailure,
) -> Slots {
    solve_items(
        ctx,
        m,
        &[],
        |i, sel| sq_distance(ctx.tau(i), &ctx.space().pi(ctx.item(i), &sel.indices)),
        opts,
        on_failure,
    )
}

#[cfg(test)]
mod tests {
    use crate::instance::{InstanceContext, Item, Selection};
    use crate::space::OpinionScheme;
    use crate::{solve_checked, solve_with, Algorithm, CoreError, SelectParams, SolveOptions};
    use comparesets_data::{CategoryPreset, Polarity, ProductId, ReviewId};
    use comparesets_linalg::vector::sq_distance;

    fn budget(m: usize) -> SelectParams {
        SelectParams {
            m,
            ..SelectParams::default()
        }
    }

    fn solve_crs(ctx: &InstanceContext, m: usize) -> Vec<Selection> {
        solve_with(ctx, Algorithm::Crs, &budget(m), 0, &SolveOptions::default())
    }

    #[test]
    fn crs_matches_opinion_distribution_on_working_example() {
        let item = crate::space::fixtures::working_example_item();
        let ctx = InstanceContext::from_items(5, vec![item], OpinionScheme::Binary);
        let sels = solve_crs(&ctx, 3);
        assert_eq!(sels.len(), 1);
        let pi = ctx.space().pi(ctx.item(0), &sels[0].indices);
        assert!(sq_distance(ctx.tau(0), &pi) < 1e-12, "pi {pi:?}");
    }

    #[test]
    fn crs_selects_within_budget_for_every_item() {
        let d = CategoryPreset::Cellphone.config(60, 17).generate();
        let inst = d.instances().into_iter().next().unwrap().truncated(4);
        let ctx = InstanceContext::build(&d, &inst, OpinionScheme::Binary);
        for m in [1, 3, 5] {
            let sels = solve_crs(&ctx, m);
            assert_eq!(sels.len(), ctx.num_items());
            for (i, s) in sels.iter().enumerate() {
                assert!(!s.is_empty(), "item {i} empty at m={m}");
                assert!(s.len() <= m);
                assert!(s.indices.iter().all(|&r| r < ctx.item(i).num_reviews()));
            }
        }
    }

    #[test]
    fn crs_beats_worst_single_review() {
        // CRS's selection cost must be no worse than the best single review
        // (it explicitly falls back to that).
        let item = Item::from_mentions(
            ProductId(0),
            vec![
                (ReviewId(0), vec![(0, Polarity::Positive)]),
                (ReviewId(1), vec![(1, Polarity::Negative)]),
                (
                    ReviewId(2),
                    vec![(0, Polarity::Positive), (1, Polarity::Negative)],
                ),
            ],
        );
        let ctx = InstanceContext::from_items(2, vec![item], OpinionScheme::Binary);
        let sel = &solve_crs(&ctx, 2)[0];
        let cost = sq_distance(ctx.tau(0), &ctx.space().pi(ctx.item(0), &sel.indices));
        for r in 0..3 {
            let single = sq_distance(ctx.tau(0), &ctx.space().pi(ctx.item(0), &[r]));
            assert!(cost <= single + 1e-12);
        }
    }

    #[test]
    fn checked_crs_matches_unchecked_and_validates_m() {
        let item = crate::space::fixtures::working_example_item();
        let ctx = InstanceContext::from_items(5, vec![item], OpinionScheme::Binary);
        let opts = SolveOptions::default();
        let legacy = solve_crs(&ctx, 3);
        let checked: Vec<_> = solve_checked(&ctx, Algorithm::Crs, &budget(3), 0, &opts)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(legacy, checked);
        assert!(matches!(
            solve_checked(&ctx, Algorithm::Crs, &budget(0), 0, &opts),
            Err(CoreError::InvalidParams(_))
        ));
    }
}
