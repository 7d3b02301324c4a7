//! Warm-start pinning tests: carrying per-item warm-start caches across
//! alternating sweeps and incremental re-solves must never change a
//! selection. Every solver that threads [`RegressionWarm`] state is
//! compared byte-for-byte against its cold-start twin, and the v3
//! warm-start counters are checked to actually fire on multi-sweep
//! workloads.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use comparesets_core::{
    solve_comparesets_plus_sweeps_checked, solve_comparesets_plus_sweeps_warm_with,
    solve_comparesets_plus_sweeps_with, solve_with, Algorithm, IncrementalSession, InstanceContext,
    OpinionScheme, RegressionWarm, ReviewFeature, SelectParams, Selection, SolveOptions,
    SolverMetrics,
};
use comparesets_data::{CategoryPreset, Polarity, ReviewId};

fn contexts() -> Vec<InstanceContext> {
    let dataset = CategoryPreset::Cellphone.config(120, 29).generate();
    dataset
        .instances()
        .into_iter()
        .take(3)
        .map(|inst| InstanceContext::build(&dataset, &inst.truncated(5), OpinionScheme::Binary))
        .collect()
}

fn cold() -> SolveOptions {
    SolveOptions::default().with_warm_start(false)
}

#[test]
fn warm_start_defaults_on_and_the_builder_flips_it() {
    assert!(SolveOptions::default().warm_start);
    assert!(SolveOptions::sequential().warm_start);
    assert!(!cold().warm_start);
}

#[test]
fn warm_sweeps_select_identically_to_cold_sweeps() {
    let params = SelectParams::default();
    for ctx in &contexts() {
        for sweeps in 1..=4 {
            let opts = SolveOptions::sequential();
            let warm = solve_comparesets_plus_sweeps_with(ctx, &params, sweeps, &opts);
            let coldsel = solve_comparesets_plus_sweeps_with(
                ctx,
                &params,
                sweeps,
                &opts.clone().with_warm_start(false),
            );
            assert_eq!(warm, coldsel, "sweeps={sweeps} drifted under warm starts");
        }
    }
}

#[test]
fn warm_equals_cold_on_every_backend() {
    // The warm==cold identity must hold whether the design matrices are
    // dense, CSC, or auto-selected — the warm engine's sparse-aware
    // correlation downdates and the parked-matrix reuse may change
    // nothing but wall-clock (crates/core/tests/backend_equivalence.rs
    // pins cross-backend identity; this pins warm==cold per backend).
    use comparesets_core::MatrixBackend;
    let params = SelectParams::default();
    for ctx in &contexts() {
        for backend in [MatrixBackend::Dense, MatrixBackend::Sparse] {
            for sweeps in [1, 3] {
                let opts = SolveOptions::default().with_backend(backend);
                let warm = solve_comparesets_plus_sweeps_with(ctx, &params, sweeps, &opts);
                let coldsel = solve_comparesets_plus_sweeps_with(
                    ctx,
                    &params,
                    sweeps,
                    &opts.clone().with_warm_start(false),
                );
                assert_eq!(
                    warm, coldsel,
                    "warm drifted from cold on {backend:?} at sweeps={sweeps}"
                );
            }
        }
    }
}

#[test]
fn checked_warm_sweeps_select_identically_to_cold_sweeps() {
    let params = SelectParams::default();
    for ctx in &contexts() {
        for sweeps in [1, 3] {
            let warm: Vec<Selection> = solve_comparesets_plus_sweeps_checked(
                ctx,
                &params,
                sweeps,
                &SolveOptions::default(),
            )
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
            let coldsel: Vec<Selection> =
                solve_comparesets_plus_sweeps_checked(ctx, &params, sweeps, &cold())
                    .unwrap()
                    .into_iter()
                    .map(|r| r.unwrap())
                    .collect();
            assert_eq!(warm, coldsel, "checked sweeps={sweeps} drifted");
        }
    }
}

#[test]
fn incremental_session_with_warm_starts_matches_cold_session() {
    let ctx = contexts().into_iter().next().unwrap();
    let params = SelectParams::default();
    let mut warm = IncrementalSession::with_options(ctx.clone(), params, SolveOptions::default());
    let mut coldsess = IncrementalSession::with_options(ctx, params, cold());
    assert_eq!(warm.selections(), coldsess.selections());

    for k in 0..6u32 {
        let item = (k % 3) as usize;
        let id = ReviewId(800_000 + k);
        let pol = if k % 2 == 0 {
            Polarity::Positive
        } else {
            Polarity::Negative
        };
        let feature = ReviewFeature::new(vec![((k % 4) as usize, pol)]);
        warm.add_review(item, id, feature.clone());
        coldsess.add_review(item, id, feature);
        assert_eq!(
            warm.selections(),
            coldsess.selections(),
            "selections drifted after ingest #{k}"
        );
    }

    warm.refresh();
    coldsess.refresh();
    assert_eq!(warm.selections(), coldsess.selections());
}

#[test]
fn warm_counters_fire_on_multi_sweep_solves_and_identities_hold() {
    let params = SelectParams::default();
    let metrics = Arc::new(SolverMetrics::new());
    let opts = SolveOptions::default().with_metrics(Arc::clone(&metrics));
    for ctx in &contexts() {
        solve_comparesets_plus_sweeps_with(ctx, &params, 4, &opts);
    }
    let snap = metrics.snapshot();
    assert!(
        snap.warm_start_hits > 0,
        "multi-sweep alternation never reused a warm trajectory"
    );
    assert!(
        snap.corr_incremental_updates > 0,
        "warm pursuits never downdated the correlation vector"
    );
    assert_eq!(
        snap.nnls_refits,
        snap.nomp_iterations - snap.warm_start_hits
    );
    assert_eq!(snap.nomp_pursuits, snap.integer_regressions);
    assert!(snap.gram_cache_hits <= snap.nnls_refits);
}

#[test]
fn cold_solves_never_touch_the_warm_counters() {
    let params = SelectParams::default();
    let metrics = Arc::new(SolverMetrics::new());
    let opts = cold().with_metrics(Arc::clone(&metrics));
    for ctx in &contexts() {
        solve_comparesets_plus_sweeps_with(ctx, &params, 3, &opts);
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.warm_start_hits, 0);
    assert_eq!(snap.warm_start_truncations, 0);
    assert_eq!(snap.corr_incremental_updates, 0);
    assert_eq!(snap.corr_exact_recomputes, 0);
    assert_eq!(snap.nnls_refits, snap.nomp_iterations);
}

#[test]
fn single_sweep_solvers_keep_no_dead_state_but_caller_held_states_fill() {
    // A solver that owns its warm states and drops them on return builds
    // none for one sweep: no later round could read them. States the
    // caller holds are filled anyway, so a repeat call reuses them.
    let params = SelectParams::default();
    for ctx in &contexts() {
        let coldsel = solve_comparesets_plus_sweeps_with(ctx, &params, 1, &cold());
        let metrics = Arc::new(SolverMetrics::new());
        let opts = SolveOptions::default().with_metrics(Arc::clone(&metrics));
        let single = solve_with(ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);
        let one_sweep = solve_comparesets_plus_sweeps_with(ctx, &params, 1, &opts);
        assert_eq!(single, coldsel);
        assert_eq!(one_sweep, coldsel);
        let snap = metrics.snapshot();
        assert_eq!(snap.warm_start_hits, 0);
        assert_eq!(snap.corr_incremental_updates, 0);
        assert_eq!(snap.corr_exact_recomputes, 0);

        let mut states: Vec<RegressionWarm> = (0..ctx.num_items())
            .map(|_| RegressionWarm::new())
            .collect();
        let first = solve_comparesets_plus_sweeps_warm_with(ctx, &params, 1, &opts, &mut states);
        let hits_before = metrics.snapshot().warm_start_hits;
        let second = solve_comparesets_plus_sweeps_warm_with(ctx, &params, 1, &opts, &mut states);
        assert_eq!(first, coldsel);
        assert_eq!(second, coldsel);
        assert!(
            metrics.snapshot().warm_start_hits > hits_before,
            "a repeat single-sweep solve did not reuse the caller's states"
        );
    }
}
