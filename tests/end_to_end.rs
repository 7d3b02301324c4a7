//! Cross-crate integration: generate → select → narrow → score, end to
//! end, with determinism checks.

use comparesets::core::{
    comparesets_plus_objective, solve_with, Algorithm, InstanceContext, OpinionScheme,
    SelectParams, SolveOptions,
};
use comparesets::data::CategoryPreset;
use comparesets::graph::{solve_exact, solve_greedy, ExactOptions, SimilarityGraph, SolveStatus};
use comparesets::text::rouge_l;

fn setup() -> (comparesets::data::Dataset, InstanceContext) {
    let dataset = CategoryPreset::Cellphone.config(100, 77).generate();
    let instance = dataset
        .instances()
        .into_iter()
        .find(|i| i.len() >= 5)
        .expect("instance with enough items")
        .truncated(5);
    let ctx = InstanceContext::build(&dataset, &instance, OpinionScheme::Binary);
    (dataset, ctx)
}

#[test]
fn full_pipeline_runs_and_is_deterministic() {
    let opts = SolveOptions::default();
    let (dataset, ctx) = setup();
    let params = SelectParams::default();

    let sels1 = solve_with(&ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);
    let sels2 = solve_with(&ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);
    assert_eq!(sels1, sels2, "selection must be deterministic");

    let graph = SimilarityGraph::from_selections(&ctx, &sels1, params.lambda, params.mu);
    let exact = solve_exact(&graph, 0, 3, &ExactOptions::default());
    assert_eq!(exact.status, SolveStatus::Optimal);
    assert!(exact.vertices.contains(&0));

    // The selected reviews map back to real dataset reviews of the right
    // products.
    for (i, sel) in sels1.iter().enumerate() {
        for rid in sel.review_ids(ctx.item(i)) {
            assert_eq!(dataset.review(rid).product, ctx.item(i).product);
        }
    }
}

#[test]
fn synchronized_objective_ordering_holds() {
    let opts = SolveOptions::default();
    let (_, ctx) = setup();
    let params = SelectParams {
        m: 3,
        lambda: 1.0,
        mu: 1.0,
    };
    let base = solve_with(&ctx, Algorithm::CompareSets, &params, 0, &opts);
    let plus = solve_with(&ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);
    let ob = comparesets_plus_objective(&ctx, &base, params.lambda, params.mu);
    let op = comparesets_plus_objective(&ctx, &plus, params.lambda, params.mu);
    assert!(
        op <= ob + 1e-9,
        "CompaReSetS+ {op} must not exceed CompaReSetS {ob} on Eq. 5"
    );
}

#[test]
fn all_algorithms_produce_valid_selections() {
    let opts = SolveOptions::default();
    let (_, ctx) = setup();
    for m in [1, 3, 5] {
        let params = SelectParams {
            m,
            lambda: 1.0,
            mu: 0.1,
        };
        for alg in Algorithm::ALL {
            let sels = solve_with(&ctx, alg, &params, 3, &opts);
            assert_eq!(sels.len(), ctx.num_items());
            for (i, s) in sels.iter().enumerate() {
                assert!(!s.is_empty(), "{alg:?} m={m} item {i} empty");
                assert!(s.len() <= m, "{alg:?} m={m} item {i} over budget");
                assert!(s.indices.iter().all(|&r| r < ctx.item(i).num_reviews()));
            }
        }
    }
}

#[test]
fn selected_reviews_share_vocabulary_across_items() {
    let opts = SolveOptions::default();
    // The synchronized selection should produce nonzero cross-item ROUGE
    // on template-generated text.
    let (dataset, ctx) = setup();
    let sels = solve_with(
        &ctx,
        Algorithm::CompareSetsPlus,
        &SelectParams::default(),
        0,
        &opts,
    );
    let mut total = 0.0;
    let mut count = 0;
    for j in 1..ctx.num_items() {
        for &a in &sels[0].indices {
            for &b in &sels[j].indices {
                let ta = &dataset.review(ctx.item(0).review_ids[a]).text;
                let tb = &dataset.review(ctx.item(j).review_ids[b]).text;
                total += rouge_l(ta, tb).f1;
                count += 1;
            }
        }
    }
    assert!(count > 0);
    assert!(
        total / count as f64 > 0.02,
        "mean ROUGE-L {}",
        total / count as f64
    );
}

#[test]
fn greedy_core_list_matches_exact_on_small_instances() {
    let opts = SolveOptions::default();
    let (_, ctx) = setup();
    let params = SelectParams::default();
    let sels = solve_with(&ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);
    let graph = SimilarityGraph::from_selections(&ctx, &sels, params.lambda, params.mu);
    let exact = solve_exact(&graph, 0, 3, &ExactOptions::default());
    let greedy = solve_greedy(&graph, 0, 3);
    let gw = graph.subgraph_weight(&greedy);
    // Greedy is near-optimal on these small graphs (Table 5's finding).
    assert!(
        gw >= exact.weight * 0.9,
        "greedy {gw} vs exact {}",
        exact.weight
    );
}
