//! Future-work extension (§4.2.3): drive CompaReSetS with *learned*
//! aspect-level preference vectors from an EFM-style model instead of the
//! empirical opinion distribution.
//!
//! The EFM-lite model factorises user-attention and item-quality matrices
//! with shared aspect factors; its reconstructed item-quality rows give a
//! dense, denoised τ for every item — including aspects the item's own
//! reviews barely mention but similar items discuss.
//!
//! ```text
//! cargo run --release --example learned_targets
//! ```

use comparesets::core::{
    item_objective, solve_with, Algorithm, InstanceContext, Item, OpinionScheme, SelectParams,
    SolveOptions,
};
use comparesets::data::CategoryPreset;
use comparesets::efm::{EfmConfig, EfmModel};

fn main() {
    let opts = SolveOptions::default();
    let dataset = CategoryPreset::Cellphone.config(150, 77).generate();

    // 1. Train the explicit factor model on the whole corpus.
    let model = EfmModel::train(&dataset, EfmConfig::default());
    println!(
        "EFM-lite trained: rank {}, reconstruction RMSE {:.3} (1..5 scale)",
        8,
        model.train_rmse()
    );

    // 2. Pick an instance and build two contexts: empirical targets
    //    (the paper's default) and learned targets (the extension).
    let instance = dataset
        .instances()
        .into_iter()
        .find(|i| i.len() >= 4)
        .unwrap()
        .truncated(3);
    let empirical = InstanceContext::build(&dataset, &instance, OpinionScheme::UnaryScale);

    let items: Vec<Item> = (0..empirical.num_items())
        .map(|i| empirical.item(i).clone())
        .collect();
    let taus: Vec<Vec<f64>> = items
        .iter()
        .map(|item| model.learned_tau(item.product.0 as usize))
        .collect();
    let gamma = empirical.gamma().to_vec();
    let learned = InstanceContext::with_targets(
        dataset.num_aspects(),
        items,
        OpinionScheme::UnaryScale,
        taus,
        gamma,
    );

    // 3. Solve both and compare what gets selected.
    let params = SelectParams {
        m: 3,
        lambda: 1.0,
        mu: 0.0,
    };
    let sel_emp = solve_with(&empirical, Algorithm::CompareSets, &params, 0, &opts);
    let sel_lrn = solve_with(&learned, Algorithm::CompareSets, &params, 0, &opts);

    println!("\nTop predicted aspects for the target item:");
    let target_product = empirical.item(0).product.0 as usize;
    for a in model.top_aspects_for_item(target_product, 5) {
        println!(
            "  {:<14} predicted quality {:.2}",
            dataset.aspects[a],
            model.predict_quality(target_product, a)
        );
    }

    for (label, ctx, sels) in [
        ("empirical targets", &empirical, &sel_emp),
        ("learned targets", &learned, &sel_lrn),
    ] {
        println!("\n=== {label} ===");
        for (i, sel) in sels.iter().enumerate() {
            let cost = item_objective(ctx, i, sel, params.lambda);
            println!(
                "item {i} (product #{}): reviews {:?}, Eq.3 cost {cost:.4}",
                ctx.item(i).product.0,
                sel.indices
            );
        }
    }
    let same = sel_emp == sel_lrn;
    println!(
        "\nselections {}: learned targets {} the picks",
        if same { "identical" } else { "differ" },
        if same { "confirm" } else { "reshape" }
    );
}
