//! Opinion definitions beyond positive/negative (§4.2.3, Table 4):
//! run the same selection under binary, 3-polarity, and unary-scale
//! opinion vectors and compare the resulting vectors side by side.
//!
//! ```text
//! cargo run --release --example opinion_schemes
//! ```

use comparesets::core::{
    solve_with, Algorithm, InstanceContext, OpinionScheme, SelectParams, SolveOptions,
};
use comparesets::data::CategoryPreset;

fn main() {
    let opts = SolveOptions::default();
    let dataset = CategoryPreset::Clothing.config(120, 33).generate();
    let instance = dataset
        .instances()
        .into_iter()
        .find(|i| i.len() >= 4)
        .unwrap()
        .truncated(3);
    let params = SelectParams::default();

    for scheme in OpinionScheme::ALL {
        let ctx = InstanceContext::build(&dataset, &instance, scheme);
        let selections = solve_with(&ctx, Algorithm::CompareSets, &params, 0, &opts);
        println!("=== scheme: {} ===", scheme.name());
        println!(
            "opinion-vector dimension: {} (z = {})",
            ctx.space().opinion_dim(),
            ctx.space().num_aspects()
        );
        let item = ctx.item(0);
        let pi = ctx.space().pi(item, &selections[0].indices);
        let nonzero: Vec<(usize, f64)> = pi
            .iter()
            .enumerate()
            .filter(|(_, v)| **v > 0.0)
            .map(|(i, v)| (i, (*v * 1000.0).round() / 1000.0))
            .collect();
        println!(
            "target item pi(S) non-zeros ({} of {} dims): {:?}",
            nonzero.len(),
            pi.len(),
            nonzero
        );
        // Show the aspect names behind the first few slots.
        if let Some(&(slot, _)) = nonzero.first() {
            let aspect_idx = match scheme {
                OpinionScheme::Binary => slot / 2,
                OpinionScheme::ThreePolarity => slot / 3,
                OpinionScheme::UnaryScale => slot,
            };
            println!(
                "first non-zero slot {} corresponds to aspect {:?}",
                slot, dataset.aspects[aspect_idx]
            );
        }
        println!(
            "selected reviews for the target item: {:?}\n",
            selections[0].indices
        );
    }
}
