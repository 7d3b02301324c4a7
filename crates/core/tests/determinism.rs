//! Execution options must be a pure wall-clock decision: for every
//! solver and every [`SolveOptions`] value whose token never fires — warm
//! starts on or off, every design-matrix backend — the selections are
//! bit-identical to the default run, on the lenient (`solve_with`) and the
//! checked (`solve_checked`) path alike. These tests pin that guarantee on
//! generated instances of all three categories.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_core::{
    solve_checked, solve_with, Algorithm, InstanceContext, MatrixBackend, OpinionScheme,
    SelectParams, Selection, SolveOptions,
};
use comparesets_data::CategoryPreset;

fn contexts() -> Vec<InstanceContext> {
    [
        (CategoryPreset::Cellphone, 11u64),
        (CategoryPreset::Toy, 22),
        (CategoryPreset::Clothing, 33),
    ]
    .into_iter()
    .flat_map(|(preset, seed)| {
        let d = preset.config(60, seed).generate();
        d.instances()
            .into_iter()
            .take(2)
            .map(|inst| InstanceContext::build(&d, &inst.truncated(5), OpinionScheme::Binary))
            .collect::<Vec<_>>()
    })
    .collect()
}

/// Warm starts on and off × every design-matrix backend.
fn option_grid() -> Vec<SolveOptions> {
    let backends = [
        MatrixBackend::Auto,
        MatrixBackend::Dense,
        MatrixBackend::Sparse,
    ];
    [true, false]
        .into_iter()
        .flat_map(|warm| {
            backends.map(|backend| {
                SolveOptions::default()
                    .with_warm_start(warm)
                    .with_backend(backend)
            })
        })
        .collect()
}

/// Selections compare exactly: same review indices per item.
fn assert_identical(base: &[Selection], other: &[Selection], what: &str) {
    assert_eq!(base.len(), other.len(), "{what}: item count");
    for (i, (s, p)) in base.iter().zip(other.iter()).enumerate() {
        assert_eq!(s.indices, p.indices, "{what}: item {i} indices");
    }
}

#[test]
fn solve_with_honours_options_for_every_algorithm() {
    let params = SelectParams::default();
    let ctx = &contexts()[0];
    for alg in Algorithm::ALL {
        let base = solve_with(ctx, alg, &params, 7, &SolveOptions::sequential());
        for opts in option_grid() {
            let other = solve_with(ctx, alg, &params, 7, &opts);
            assert_identical(&base, &other, &format!("{alg:?} {opts:?}"));
        }
    }
}

/// The fault-tolerant (`_checked`) solve path must not perturb well-posed
/// solves: for every algorithm and every options value, every slot is `Ok`
/// and the selections are bit-identical to the legacy entry point.
#[test]
fn checked_path_is_bit_identical_to_legacy_on_well_posed_inputs() {
    let params = SelectParams::default();
    for (c, ctx) in contexts().iter().enumerate() {
        for alg in Algorithm::ALL {
            let legacy = solve_with(ctx, alg, &params, 7, &SolveOptions::sequential());
            let checked: Vec<Selection> =
                solve_checked(ctx, alg, &params, 7, &SolveOptions::sequential())
                    .expect("valid params")
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| r.unwrap_or_else(|e| panic!("ctx {c} {alg:?} item {i}: {e}")))
                    .collect();
            assert_identical(&legacy, &checked, &format!("checked ctx {c} {alg:?}"));
            for opts in option_grid() {
                let checked: Vec<Selection> = solve_checked(ctx, alg, &params, 7, &opts)
                    .expect("valid params")
                    .into_iter()
                    .map(|r| r.expect("well-posed item"))
                    .collect();
                let what = format!("checked ctx {c} {alg:?} {opts:?}");
                assert_identical(&legacy, &checked, &what);
                let lenient = solve_with(ctx, alg, &params, 7, &opts);
                assert_identical(&lenient, &checked, &what);
            }
        }
    }
}
