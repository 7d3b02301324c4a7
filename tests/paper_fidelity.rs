//! Fidelity tests against the paper's worked examples, expressed through
//! the public facade API.

use comparesets::core::{
    solve_with, Algorithm, InstanceContext, Item, OpinionScheme, SelectParams, SolveOptions,
};
use comparesets::data::{Polarity, ProductId, ReviewId};
use comparesets::graph::{solve_exact, solve_hks, ExactOptions, SimilarityGraph};
use comparesets::linalg::vector::sq_distance;

/// ℛ₁ of Working Example 1 / Figure 2a: aspects {battery, lens, quality,
/// price, shuttle}; battery appears 6× (2+, 4−), lens 4× (2+, 2−),
/// quality 4× (2+, 2−).
fn working_example_item() -> Item {
    use Polarity::{Negative, Positive};
    let reviews = vec![
        vec![(0, Positive), (1, Positive)],
        vec![(0, Negative), (1, Negative)],
        vec![(0, Negative), (2, Positive)],
        vec![(2, Negative)],
        vec![(0, Positive), (1, Positive), (2, Positive)],
        vec![(0, Negative), (1, Negative)],
        vec![(0, Negative), (2, Negative)],
    ];
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
fn working_example_1_vectors() {
    let ctx = InstanceContext::from_items(5, vec![working_example_item()], OpinionScheme::Binary);
    // τ₁ = (2/6, 4/6, 2/6, 2/6, 2/6, 2/6, 0, 0, 0, 0).
    let expect_tau = [
        2.0 / 6.0,
        4.0 / 6.0,
        2.0 / 6.0,
        2.0 / 6.0,
        2.0 / 6.0,
        2.0 / 6.0,
        0.0,
        0.0,
        0.0,
        0.0,
    ];
    assert!(sq_distance(ctx.tau(0), &expect_tau) < 1e-20);
    // Γ = (6/6, 4/6, 4/6, 0, 0).
    let expect_gamma = [1.0, 4.0 / 6.0, 4.0 / 6.0, 0.0, 0.0];
    assert!(sq_distance(ctx.gamma(), &expect_gamma) < 1e-20);
}

#[test]
fn working_example_2_integer_regression_attains_zero_objective() {
    let opts = SolveOptions::default();
    let ctx = InstanceContext::from_items(5, vec![working_example_item()], OpinionScheme::Binary);
    for m in [3, 4, 5] {
        let params = SelectParams {
            m,
            lambda: 1.0,
            mu: 0.0,
        };
        let sels = solve_with(&ctx, Algorithm::CompareSets, &params, 0, &opts);
        let cost = comparesets::core::item_objective(&ctx, 0, &sels[0], 1.0);
        assert!(cost < 1e-12, "m={m}: cost {cost}");
    }
}

#[test]
fn crs_special_case_matches_opinion_distribution() {
    let opts = SolveOptions::default();
    // CRS = CompaReSetS with a single item and λ = 0 (§2.2).
    let ctx = InstanceContext::from_items(5, vec![working_example_item()], OpinionScheme::Binary);
    let crs = solve_with(
        &ctx,
        Algorithm::Crs,
        &SelectParams {
            m: 3,
            ..SelectParams::default()
        },
        0,
        &opts,
    );
    let pi = ctx.space().pi(ctx.item(0), &crs[0].indices);
    assert!(sq_distance(ctx.tau(0), &pi) < 1e-12);
}

#[test]
fn figure_4_targethks_excludes_globally_heavier_clique() {
    let n = 6;
    let mut w = vec![0.0; n * n];
    let mut set = |i: usize, j: usize, v: f64| {
        w[i * n + j] = v;
        w[j * n + i] = v;
    };
    set(1, 4, 9.0);
    set(1, 5, 8.5);
    set(4, 5, 9.0);
    set(0, 3, 9.0);
    set(0, 5, 8.4);
    set(3, 5, 8.0);
    set(0, 1, 1.0);
    set(0, 2, 2.0);
    set(0, 4, 1.5);
    set(1, 2, 2.0);
    set(1, 3, 1.0);
    set(2, 3, 2.5);
    set(2, 4, 1.0);
    set(2, 5, 0.5);
    set(3, 4, 1.0);
    let g = SimilarityGraph::from_weights(n, w);

    let target = solve_exact(&g, 0, 3, &ExactOptions::default());
    assert_eq!(target.vertices, vec![0, 3, 5]);
    assert!((target.weight - 25.4).abs() < 1e-9);

    let hks = solve_hks(&g, 3, &ExactOptions::default());
    assert_eq!(hks.vertices, vec![1, 4, 5]);
    assert!((hks.weight - 26.5).abs() < 1e-9);
    assert!(!hks.vertices.contains(&0), "HkS drops the target item");
}
