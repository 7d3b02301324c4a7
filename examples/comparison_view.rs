//! The full consumer-facing view: select comparative reviews, narrow to a
//! core list, render the Figure-1-style aspect × item comparison table,
//! and compress each product's selected reviews into a two-sentence
//! extractive summary (§4.6.1's future-work suggestion).
//!
//! ```text
//! cargo run --release --example comparison_view
//! ```

use comparesets::core::{
    solve_with, Algorithm, ComparisonTable, InstanceContext, OpinionScheme, SelectParams,
    SolveOptions,
};
use comparesets::data::CategoryPreset;
use comparesets::graph::{solve_exact, ExactOptions, SimilarityGraph};
use comparesets::text::{summarize, SummaryConfig};

fn main() {
    let opts = SolveOptions::default();
    let dataset = CategoryPreset::Cellphone.config(150, 8).generate();
    let instance = dataset
        .instances()
        .into_iter()
        .max_by_key(|i| i.len())
        .unwrap()
        .truncated(8);
    let ctx = InstanceContext::build(&dataset, &instance, OpinionScheme::Binary);
    let params = SelectParams::default();

    // Select + narrow.
    let selections = solve_with(&ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);
    let graph = SimilarityGraph::from_selections(&ctx, &selections, params.lambda, params.mu);
    let core = solve_exact(&graph, 0, 3, &ExactOptions::default()).vertices;

    // Figure-1-style comparison grid over the core items.
    let table = ComparisonTable::build(&ctx, &selections, Some(&core));
    println!(
        "Compare with similar items — {} of {} candidates kept\n",
        core.len() - 1,
        ctx.num_items() - 1
    );
    println!("{}", table.render(&dataset.aspects));
    println!(
        "aspects covered by every core item: {:?}\n",
        table
            .common_aspects()
            .iter()
            .map(|&a| dataset.aspects[a].as_str())
            .collect::<Vec<_>>()
    );

    // Per-product two-sentence summaries of the selected reviews.
    for &i in &core {
        let item = ctx.item(i);
        let texts: Vec<&str> = selections[i]
            .indices
            .iter()
            .map(|&r| dataset.review(item.review_ids[r]).text.as_str())
            .collect();
        let summary = summarize(&texts, SummaryConfig::default());
        println!("{}:", dataset.product(item.product).title);
        for s in summary {
            println!("  > {s}");
        }
    }
}
