//! Backend invariance pinning for the solver stack: the selections of
//! every solver must be *identical* — not merely equivalent — whether
//! the design matrices materialise densely, as CSC, or under the
//! [`MatrixBackend::Auto`] density rule. The backend is a pure
//! wall-clock/memory decision; this suite is what
//! [`comparesets_core::SolveOptions::backend`] points at for the claim.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_core::{
    solve_comparesets_plus_sweeps_with, solve_with, Algorithm, IncrementalSession, InstanceContext,
    MatrixBackend, OpinionScheme, RegressionTask, ReviewFeature, SelectParams, SolveOptions,
    DENSITY_CROSSOVER,
};
use comparesets_data::{CategoryPreset, Polarity, ReviewId};

const BACKENDS: [MatrixBackend; 3] = [
    MatrixBackend::Auto,
    MatrixBackend::Dense,
    MatrixBackend::Sparse,
];

fn contexts() -> Vec<InstanceContext> {
    let dataset = CategoryPreset::Cellphone.config(140, 31).generate();
    dataset
        .instances()
        .into_iter()
        .take(3)
        .map(|inst| InstanceContext::build(&dataset, &inst.truncated(5), OpinionScheme::Binary))
        .collect()
}

fn opts(backend: MatrixBackend) -> SolveOptions {
    SolveOptions::default().with_backend(backend)
}

#[test]
fn forced_backends_actually_force_the_representation() {
    let item = comparesets_core::Item::from_mentions(
        comparesets_data::ProductId(0),
        vec![
            (ReviewId(0), vec![(0, Polarity::Positive)]),
            (ReviewId(1), vec![(1, Polarity::Negative)]),
        ],
    );
    let ctx = InstanceContext::from_items(2, vec![item], OpinionScheme::Binary);
    let dense = RegressionTask::build(
        ctx.space(),
        ctx.item(0),
        ctx.tau(0),
        &[],
        MatrixBackend::Dense,
    )
    .unwrap();
    let sparse = RegressionTask::build(
        ctx.space(),
        ctx.item(0),
        ctx.tau(0),
        &[],
        MatrixBackend::Sparse,
    )
    .unwrap();
    assert!(!dense.matrix.is_sparse());
    assert!(sparse.matrix.is_sparse());
    // Same numbers either way.
    assert_eq!(dense.matrix.rows(), sparse.matrix.rows());
    assert_eq!(dense.matrix.cols(), sparse.matrix.cols());
    for r in 0..dense.matrix.rows() {
        for c in 0..dense.matrix.cols() {
            assert_eq!(
                dense.matrix.get(r, c).to_bits(),
                sparse.matrix.get(r, c).to_bits()
            );
        }
    }
    // Auto follows the documented density rule.
    let auto = RegressionTask::build(
        ctx.space(),
        ctx.item(0),
        ctx.tau(0),
        &[],
        MatrixBackend::Auto,
    )
    .unwrap();
    let density = {
        let (rows, cols) = (auto.matrix.rows(), auto.matrix.cols());
        let mut nnz = 0usize;
        for r in 0..rows {
            for c in 0..cols {
                if auto.matrix.get(r, c) != 0.0 {
                    nnz += 1;
                }
            }
        }
        nnz as f64 / (rows * cols) as f64
    };
    assert_eq!(auto.matrix.is_sparse(), density < DENSITY_CROSSOVER);
}

#[test]
fn comparesets_selections_are_backend_invariant() {
    let params = SelectParams::default();
    for ctx in &contexts() {
        let baseline = solve_with(
            ctx,
            Algorithm::CompareSets,
            &params,
            0,
            &opts(MatrixBackend::Auto),
        );
        for backend in BACKENDS {
            assert_eq!(
                baseline,
                solve_with(ctx, Algorithm::CompareSets, &params, 0, &opts(backend)),
                "CompaReSetS drifted under {backend:?}"
            );
        }
    }
}

#[test]
fn plus_sweeps_are_backend_invariant_warm_and_cold() {
    let params = SelectParams::default();
    for ctx in &contexts() {
        for sweeps in [1, 3] {
            let baseline = solve_comparesets_plus_sweeps_with(
                ctx,
                &params,
                sweeps,
                &opts(MatrixBackend::Dense),
            );
            for backend in BACKENDS {
                for warm in [true, false] {
                    let o = opts(backend).with_warm_start(warm);
                    assert_eq!(
                        baseline,
                        solve_comparesets_plus_sweeps_with(ctx, &params, sweeps, &o),
                        "plus sweeps={sweeps} drifted under {backend:?} warm={warm}"
                    );
                }
            }
        }
    }
}

#[test]
fn crs_is_backend_invariant() {
    // The default budget is m = 3.
    let params = SelectParams::default();
    for ctx in &contexts() {
        let baseline = solve_with(ctx, Algorithm::Crs, &params, 0, &opts(MatrixBackend::Dense));
        for backend in BACKENDS {
            assert_eq!(
                baseline,
                solve_with(ctx, Algorithm::Crs, &params, 0, &opts(backend))
            );
        }
    }
}

#[test]
fn incremental_sessions_are_backend_invariant_across_ingest() {
    // The sparse session grows CSC columns in place on appends; the dense
    // and forced-sparse rebuild paths must land on identical selections
    // after every event.
    let ctx = contexts().into_iter().next().unwrap();
    let params = SelectParams::default();
    let mut sessions: Vec<IncrementalSession> = BACKENDS
        .iter()
        .map(|&b| IncrementalSession::with_options(ctx.clone(), params, opts(b)))
        .collect();

    let n = ctx.num_items() as u32;
    for k in 0..8u32 {
        let item = (k % n) as usize;
        let id = ReviewId(900_000 + k);
        let pol = if k % 2 == 0 {
            Polarity::Positive
        } else {
            Polarity::Negative
        };
        let feature = ReviewFeature::new(vec![((k % 4) as usize, pol)]);
        for s in sessions.iter_mut() {
            s.add_review(item, id, feature.clone());
        }
        let baseline = sessions[0].selections().to_vec();
        for (s, b) in sessions.iter().zip(BACKENDS.iter()) {
            assert_eq!(
                baseline,
                s.selections(),
                "incremental drifted under {b:?} after ingest #{k}"
            );
        }
    }
    for s in sessions.iter_mut() {
        s.refresh();
    }
    let baseline = sessions[0].selections().to_vec();
    for s in &sessions {
        assert_eq!(baseline, s.selections());
    }
}
