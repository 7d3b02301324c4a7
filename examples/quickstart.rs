//! Quickstart: the full CompaReSetS pipeline in ~40 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use comparesets::core::{
    solve_with, Algorithm, InstanceContext, OpinionScheme, SelectParams, SolveOptions,
};
use comparesets::data::CategoryPreset;
use comparesets::graph::{solve_greedy, SimilarityGraph};

fn main() {
    let opts = SolveOptions::default();
    // 1. A corpus. Real deployments load their own reviews (see
    //    `comparesets::data::io`); here we generate a synthetic category.
    let dataset = CategoryPreset::Cellphone.config(120, 7).generate();
    println!(
        "corpus: {} products, {} reviews, {} aspects",
        dataset.products.len(),
        dataset.reviews.len(),
        dataset.num_aspects()
    );

    // 2. A comparison instance: one target product plus its "also bought"
    //    candidates.
    let instance = dataset
        .instances()
        .into_iter()
        .find(|i| i.len() >= 5)
        .expect("generated corpora always contain multi-item instances")
        .truncated(6);
    let ctx = InstanceContext::build(&dataset, &instance, OpinionScheme::Binary);
    println!(
        "instance: target {:?} + {} comparative items",
        ctx.item(0).product,
        ctx.num_items() - 1
    );

    // 3. Select m = 3 comparative reviews per item (Problem 2 of the
    //    paper, solved with alternating Integer-Regression).
    let params = SelectParams::default(); // m = 3, lambda = 1, mu = 0.1
    let selections = solve_with(&ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);
    for (i, sel) in selections.iter().enumerate() {
        println!(
            "item {i}: selected {} of {} reviews -> {:?}",
            sel.len(),
            ctx.item(i).num_reviews(),
            sel.review_ids(ctx.item(i))
        );
    }

    // 4. Narrow the list to the 3 most mutually similar items (TargetHkS).
    let graph = SimilarityGraph::from_selections(&ctx, &selections, params.lambda, params.mu);
    let core_list = solve_greedy(&graph, 0, 3);
    println!("core comparison list (item indices, target first): {core_list:?}");
    for &i in &core_list {
        let title = &dataset.product(ctx.item(i).product).title;
        println!("  - {title}");
        for &r in &selections[i].indices {
            let review = dataset.review(ctx.item(i).review_ids[r]);
            println!("      {}* {}", review.rating, review.text);
        }
    }
}
