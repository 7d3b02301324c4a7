//! Property-based tests for the selection algorithms.

use comparesets_core::{
    comparesets_objective, comparesets_plus_objective, item_objective, solve_with, Algorithm,
    InstanceContext, Item, OpinionScheme, ReviewFeature, SelectParams, Selection, SolveOptions,
};

fn solve(
    ctx: &InstanceContext,
    alg: Algorithm,
    params: &SelectParams,
    seed: u64,
) -> Vec<Selection> {
    solve_with(ctx, alg, params, seed, &SolveOptions::default())
}
use comparesets_data::{Polarity, ProductId, ReviewId};
use proptest::prelude::*;

/// Random instance generator: 2–4 items, each with 2–8 reviews over
/// z = 4 aspects with random polarities.
fn instance() -> impl Strategy<Value = InstanceContext> {
    let mention = (
        0usize..4,
        prop_oneof![
            Just(Polarity::Positive),
            Just(Polarity::Negative),
            Just(Polarity::Neutral),
        ],
    );
    let review = proptest::collection::vec(mention, 1..4);
    let item_reviews = proptest::collection::vec(review, 2..8);
    proptest::collection::vec(item_reviews, 2..5).prop_map(|items| {
        let items: Vec<Item> = items
            .into_iter()
            .enumerate()
            .map(|(pi, reviews)| {
                let mut rid = 0u32;
                Item {
                    product: ProductId(pi as u32),
                    review_ids: reviews
                        .iter()
                        .map(|_| {
                            rid += 1;
                            ReviewId(pi as u32 * 1000 + rid)
                        })
                        .collect(),
                    features: reviews.into_iter().map(ReviewFeature::new).collect(),
                }
            })
            .collect();
        InstanceContext::from_items(4, items, OpinionScheme::Binary)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_algorithm_produces_valid_selections(
        ctx in instance(),
        m in 1usize..5,
        seed in 0u64..50,
    ) {
        let params = SelectParams { m, lambda: 1.0, mu: 0.1 };
        for alg in Algorithm::ALL {
            let sels = solve(&ctx, alg, &params, seed);
            prop_assert_eq!(sels.len(), ctx.num_items());
            for (i, s) in sels.iter().enumerate() {
                prop_assert!(!s.is_empty(), "{:?} empty on item {}", alg, i);
                prop_assert!(s.len() <= m, "{:?} over budget", alg);
                prop_assert!(s.indices.iter().all(|&r| r < ctx.item(i).num_reviews()));
                // Indices sorted + unique by construction.
                prop_assert!(s.indices.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn objectives_are_nonnegative_and_consistent(
        ctx in instance(),
        m in 1usize..4,
    ) {
        let params = SelectParams { m, lambda: 1.0, mu: 0.5 };
        let sels = solve(&ctx, Algorithm::CompareSets, &params, 0);
        let eq1 = comparesets_objective(&ctx, &sels, params.lambda);
        let eq5 = comparesets_plus_objective(&ctx, &sels, params.lambda, params.mu);
        prop_assert!(eq1 >= 0.0);
        prop_assert!(eq5 >= eq1 - 1e-12, "coupling must be non-negative");
        let per_item: f64 = (0..ctx.num_items())
            .map(|i| item_objective(&ctx, i, &sels[i], params.lambda))
            .sum();
        prop_assert!((per_item - eq1).abs() < 1e-9);
    }

    #[test]
    fn comparesets_plus_never_worse_on_eq5(
        ctx in instance(),
        m in 1usize..4,
    ) {
        let params = SelectParams { m, lambda: 1.0, mu: 1.0 };
        let base = solve(&ctx, Algorithm::CompareSets, &params, 0);
        let plus = solve(&ctx, Algorithm::CompareSetsPlus, &params, 0);
        let ob = comparesets_plus_objective(&ctx, &base, params.lambda, params.mu);
        let op = comparesets_plus_objective(&ctx, &plus, params.lambda, params.mu);
        prop_assert!(op <= ob + 1e-9, "plus {} worse than base {}", op, ob);
    }

    #[test]
    fn full_selection_minimises_item_objective_to_zero_for_target(
        ctx in instance(),
    ) {
        // Selecting all reviews of the target item reproduces τ and Γ by
        // definition, so its Equation-3 cost is exactly zero.
        let full = Selection::new((0..ctx.item(0).num_reviews()).collect());
        let cost = item_objective(&ctx, 0, &full, 1.0);
        prop_assert!(cost < 1e-12, "cost {}", cost);
    }

    #[test]
    fn budget_monotonicity_of_integer_regression(
        ctx in instance(),
    ) {
        // A larger budget can only improve (or tie) the achieved per-item
        // objective for CompaReSetS, since any smaller selection remains
        // feasible and the solver evaluates all rounding masses ≤ m.
        let mut prev = f64::INFINITY;
        for m in 1..=4 {
            let params = SelectParams { m, lambda: 1.0, mu: 0.0 };
            let sels = solve(&ctx, Algorithm::CompareSets, &params, 0);
            let cost = comparesets_objective(&ctx, &sels, params.lambda);
            // Heuristic, so allow a small tolerance for rounding artifacts.
            prop_assert!(cost <= prev + 0.35, "m={} cost {} prev {}", m, cost, prev);
            prev = prev.min(cost);
        }
    }

    #[test]
    fn unary_scale_pi_values_bounded(
        ctx_reviews in proptest::collection::vec(
            proptest::collection::vec((0usize..3, prop_oneof![
                Just(Polarity::Positive), Just(Polarity::Negative)
            ]), 1..3),
            1..6,
        ),
    ) {
        let item = Item {
            product: ProductId(0),
            review_ids: (0..ctx_reviews.len() as u32).map(ReviewId).collect(),
            features: ctx_reviews.into_iter().map(ReviewFeature::new).collect(),
        };
        let ctx = InstanceContext::from_items(3, vec![item], OpinionScheme::UnaryScale);
        let all: Vec<usize> = (0..ctx.item(0).num_reviews()).collect();
        let pi = ctx.space().pi(ctx.item(0), &all);
        for v in pi {
            prop_assert!((0.0..=1.0).contains(&v), "sigmoid output {}", v);
        }
    }
}
