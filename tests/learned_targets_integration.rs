//! Integration: EFM-learned targets flowing into the selection pipeline
//! (the §4.2.3 future-work path, end to end).

use comparesets::core::{
    item_objective, solve_with, Algorithm, InstanceContext, Item, OpinionScheme, SelectParams,
    SolveOptions,
};
use comparesets::data::CategoryPreset;
use comparesets::efm::{EfmConfig, EfmModel};

#[test]
fn efm_targets_drive_selection_end_to_end() {
    let opts = SolveOptions::default();
    let dataset = CategoryPreset::Toy.config(80, 3).generate();
    let model = EfmModel::train(
        &dataset,
        EfmConfig {
            epochs: 30,
            ..EfmConfig::default()
        },
    );
    assert!(model.train_rmse() < 1.0);

    let instance = dataset
        .instances()
        .into_iter()
        .find(|i| i.len() >= 3)
        .expect("multi-item instance")
        .truncated(3);
    let empirical = InstanceContext::build(&dataset, &instance, OpinionScheme::UnaryScale);
    let items: Vec<Item> = (0..empirical.num_items())
        .map(|i| empirical.item(i).clone())
        .collect();
    let taus: Vec<Vec<f64>> = items
        .iter()
        .map(|item| model.learned_tau(item.product.0 as usize))
        .collect();
    let learned = InstanceContext::with_targets(
        dataset.num_aspects(),
        items,
        OpinionScheme::UnaryScale,
        taus.clone(),
        empirical.gamma().to_vec(),
    );

    // Injected targets are visible verbatim.
    for (i, tau) in taus.iter().enumerate() {
        assert_eq!(learned.tau(i), tau.as_slice());
    }

    let params = SelectParams {
        m: 3,
        lambda: 1.0,
        mu: 0.0,
    };
    let sels = solve_with(&learned, Algorithm::CompareSets, &params, 0, &opts);
    for (i, s) in sels.iter().enumerate() {
        assert!(!s.is_empty());
        assert!(s.len() <= 3);
        // The achieved cost is no worse than selecting nothing.
        let empty = comparesets::core::Selection::default();
        assert!(
            item_objective(&learned, i, s, 1.0) <= item_objective(&learned, i, &empty, 1.0) + 1e-9
        );
    }
}

#[test]
#[should_panic(expected = "tau dimension")]
fn mismatched_target_dimension_is_rejected() {
    let dataset = CategoryPreset::Toy.config(30, 1).generate();
    let instance = dataset.instances().into_iter().next().unwrap().truncated(1);
    let ctx = InstanceContext::build(&dataset, &instance, OpinionScheme::Binary);
    let items: Vec<Item> = (0..ctx.num_items()).map(|i| ctx.item(i).clone()).collect();
    let n = items.len();
    let _ = InstanceContext::with_targets(
        dataset.num_aspects(),
        items,
        OpinionScheme::Binary,
        vec![vec![0.0; 3]; n], // wrong dimension (binary needs 2z)
        vec![0.0; dataset.num_aspects()],
    );
}
