//! Camera-shopping scenario: the paper's motivating use case (Figure 1).
//!
//! A shopper views a target camera with a long "compare with similar
//! items" strip. We run all five selection algorithms, score how
//! comparable their review picks are (ROUGE-L between items, as in
//! Table 3), and show why the synchronized CompaReSetS+ wins.
//!
//! ```text
//! cargo run --release --example camera_shopping
//! ```

use comparesets::core::{
    solve_with, Algorithm, InstanceContext, OpinionScheme, SelectParams, SolveOptions,
};
use comparesets::data::CategoryPreset;
use comparesets::text::rouge_l;

fn main() {
    let opts = SolveOptions::default();
    let dataset = CategoryPreset::Cellphone.config(200, 2024).generate();

    // Score one algorithm on one instance: mean pairwise ROUGE-L between
    // the selected reviews of the target and of each comparative item
    // (the paper's Table 3a measure).
    let score = |ctx: &InstanceContext, selections: &[comparesets::core::Selection]| -> f64 {
        let mut total = 0.0;
        let mut count = 0;
        for j in 1..ctx.num_items() {
            for &a in &selections[0].indices {
                for &b in &selections[j].indices {
                    let ta = &dataset.review(ctx.item(0).review_ids[a]).text;
                    let tb = &dataset.review(ctx.item(j).review_ids[b]).text;
                    total += rouge_l(ta, tb).f1;
                    count += 1;
                }
            }
        }
        100.0 * total / count.max(1) as f64
    };

    // Average the scores over a batch of "product pages" — a single page
    // is far too noisy to separate the methods, exactly like the paper
    // averages over thousands of target products.
    let pages: Vec<InstanceContext> = dataset
        .instances()
        .into_iter()
        .filter(|i| i.len() >= 5)
        .take(30)
        .map(|i| InstanceContext::build(&dataset, &i.truncated(8), OpinionScheme::Binary))
        .collect();
    println!("Scoring {} product pages (m = 3)\n", pages.len());

    let params = SelectParams::default();
    println!("{:<22} {:>12}", "Algorithm", "ROUGE-L x100");
    println!("{}", "-".repeat(36));
    let mut best: Option<(f64, Algorithm)> = None;
    for alg in Algorithm::ALL {
        let mean: f64 = pages
            .iter()
            .enumerate()
            .map(|(i, ctx)| score(ctx, &solve_with(ctx, alg, &params, 99 + i as u64, &opts)))
            .sum::<f64>()
            / pages.len() as f64;
        println!("{:<22} {:>12.2}", alg.name(), mean);
        if best.is_none_or(|(b, _)| mean > b) {
            best = Some((mean, alg));
        }
    }
    let (_, winner) = best.unwrap();
    println!(
        "\nMost comparable review sets on average: {}",
        winner.name()
    );

    // Show the winner's picks on the busiest product page.
    let ctx = pages
        .iter()
        .max_by_key(|c| c.num_items())
        .expect("non-empty page batch");
    println!(
        "\nTarget: {} ({} candidates)",
        dataset.product(ctx.item(0).product).title,
        ctx.num_items() - 1
    );
    let selections = solve_with(ctx, winner, &params, 99, &opts);
    for i in [0usize, 1] {
        println!("\n{}:", dataset.product(ctx.item(i).product).title);
        for &r in &selections[i].indices {
            let review = dataset.review(ctx.item(i).review_ids[r]);
            println!("  {}* {}", review.rating, review.text);
        }
    }
}
