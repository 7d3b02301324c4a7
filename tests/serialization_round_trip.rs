//! Corpus serialisation: results must be identical whether an experiment
//! runs on the in-memory corpus or on a JSON round-tripped copy.

use comparesets::core::{
    solve_with, Algorithm, InstanceContext, OpinionScheme, SelectParams, SolveOptions,
};
use comparesets::data::io::{from_json, to_json};
use comparesets::data::CategoryPreset;

#[test]
fn selection_is_invariant_under_json_round_trip() {
    let opts = SolveOptions::default();
    let original = CategoryPreset::Toy.config(60, 123).generate();
    let json = to_json(&original).expect("serialise");
    let restored = from_json(&json).expect("deserialise");

    let inst_a = original
        .instances()
        .into_iter()
        .next()
        .unwrap()
        .truncated(4);
    let inst_b = restored
        .instances()
        .into_iter()
        .next()
        .unwrap()
        .truncated(4);
    assert_eq!(inst_a, inst_b);

    let ctx_a = InstanceContext::build(&original, &inst_a, OpinionScheme::Binary);
    let ctx_b = InstanceContext::build(&restored, &inst_b, OpinionScheme::Binary);
    let params = SelectParams::default();
    assert_eq!(
        solve_with(&ctx_a, Algorithm::CompareSetsPlus, &params, 0, &opts),
        solve_with(&ctx_b, Algorithm::CompareSetsPlus, &params, 0, &opts)
    );
}

#[test]
fn json_is_stable_across_serialisations() {
    let d = CategoryPreset::Clothing.config(30, 5).generate();
    assert_eq!(to_json(&d).unwrap(), to_json(&d).unwrap());
}

#[test]
fn corrupted_json_is_rejected_with_validation_error() {
    let d = CategoryPreset::Toy.config(10, 9).generate();
    let json = to_json(&d).unwrap();
    // Flip a product reference out of range.
    let broken = json.replacen("\"product\":0", "\"product\":99999", 1);
    assert!(from_json(&broken).is_err());
}
