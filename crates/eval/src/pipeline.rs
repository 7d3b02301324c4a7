//! Instance preparation and algorithm execution shared by all experiments.

use comparesets_core::{
    solve_with, Algorithm, InstanceContext, SelectParams, Selection, SolveOptions,
};
use comparesets_data::{CategoryPreset, Dataset};
use comparesets_text::tokenize;

use crate::config::EvalConfig;

/// One comparison instance, prepared for evaluation: the solver context
/// plus the tokenized review texts (per item, per review) for ROUGE.
pub struct PreparedInstance {
    /// Solver-ready context (items, τ, Γ).
    pub ctx: InstanceContext,
    /// `tokens[i][r]` — tokenized text of review `r` of item `i`.
    pub tokens: Vec<Vec<Vec<String>>>,
}

/// Generate the dataset for a category under a config (deterministic:
/// per-category seed derived from the master seed).
pub fn dataset_for(preset: CategoryPreset, cfg: &EvalConfig) -> Dataset {
    let seed_offset = match preset {
        CategoryPreset::Cellphone => 1,
        CategoryPreset::Toy => 2,
        CategoryPreset::Clothing => 3,
    };
    preset
        .config(
            cfg.products_per_category,
            cfg.seed.wrapping_add(seed_offset),
        )
        .generate()
}

/// Prepare up to `cfg.max_instances` instances of a dataset. Instances
/// are truncated to `cfg.max_comparatives` comparative items; only
/// instances with at least one comparative item survive (guaranteed by
/// `Dataset::instances`).
pub fn prepare_instances(dataset: &Dataset, cfg: &EvalConfig) -> Vec<PreparedInstance> {
    dataset
        .instances()
        .into_iter()
        .take(cfg.max_instances)
        .map(|inst| {
            let inst = inst.truncated(cfg.max_comparatives);
            let ctx = InstanceContext::build(dataset, &inst, cfg.scheme);
            let tokens = ctx
                .items()
                .iter()
                .map(|item| {
                    item.review_ids
                        .iter()
                        .map(|&rid| tokenize(&dataset.review(rid).text))
                        .collect()
                })
                .collect();
            PreparedInstance { ctx, tokens }
        })
        .collect()
}

/// Run one algorithm over all prepared instances, in order. The random
/// baseline derives a per-instance seed for reproducibility.
pub fn run_algorithm(
    instances: &[PreparedInstance],
    algorithm: Algorithm,
    params: &SelectParams,
    seed: u64,
) -> Vec<Vec<Selection>> {
    run_algorithm_opts(instances, algorithm, params, seed, &SolveOptions::default())
}

/// [`run_algorithm`] under a config: seed and [`SolveOptions`] (including
/// the per-experiment metrics collector installed by `run_suite`) come
/// from `cfg`. All experiments route their solves through here.
pub fn run_algorithm_cfg(
    instances: &[PreparedInstance],
    algorithm: Algorithm,
    params: &SelectParams,
    cfg: &EvalConfig,
) -> Vec<Vec<Selection>> {
    run_algorithm_opts(instances, algorithm, params, cfg.seed, &cfg.solve_options)
}

/// [`run_algorithm`] with solver execution options. Instances are solved
/// one after another on the calling thread; results are identical for
/// every options value whose token never fires.
pub fn run_algorithm_opts(
    instances: &[PreparedInstance],
    algorithm: Algorithm,
    params: &SelectParams,
    seed: u64,
    opts: &SolveOptions,
) -> Vec<Vec<Selection>> {
    instances
        .iter()
        .enumerate()
        .map(|(idx, inst)| {
            solve_with(
                &inst.ctx,
                algorithm,
                params,
                seed.wrapping_add(idx as u64),
                opts,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_respects_config_caps() {
        let cfg = EvalConfig::tiny();
        let ds = dataset_for(CategoryPreset::Cellphone, &cfg);
        let prepared = prepare_instances(&ds, &cfg);
        assert!(!prepared.is_empty());
        assert!(prepared.len() <= cfg.max_instances);
        for p in &prepared {
            assert!(p.ctx.num_items() <= cfg.max_comparatives + 1);
            assert_eq!(p.tokens.len(), p.ctx.num_items());
            for (i, item_tokens) in p.tokens.iter().enumerate() {
                assert_eq!(item_tokens.len(), p.ctx.item(i).num_reviews());
                // Generated reviews always have text.
                assert!(item_tokens.iter().all(|t| !t.is_empty()));
            }
        }
    }

    #[test]
    fn run_algorithm_is_deterministic() {
        let cfg = EvalConfig::tiny();
        let ds = dataset_for(CategoryPreset::Toy, &cfg);
        let prepared = prepare_instances(&ds, &cfg);
        let params = SelectParams::default();
        let a = run_algorithm(&prepared, Algorithm::Random, &params, 5);
        let b = run_algorithm(&prepared, Algorithm::Random, &params, 5);
        assert_eq!(a, b);
        let c = run_algorithm(&prepared, Algorithm::Crs, &params, 0);
        let d = run_algorithm(&prepared, Algorithm::Crs, &params, 99);
        assert_eq!(c, d, "CRS must ignore the seed");
    }

    #[test]
    fn all_algorithms_respect_budget() {
        let cfg = EvalConfig::tiny();
        let ds = dataset_for(CategoryPreset::Clothing, &cfg);
        let prepared = prepare_instances(&ds, &cfg);
        let params = SelectParams {
            m: 3,
            lambda: 1.0,
            mu: 0.1,
        };
        for alg in Algorithm::ALL {
            let sols = run_algorithm(&prepared, alg, &params, 1);
            for (inst, sels) in prepared.iter().zip(sols.iter()) {
                assert_eq!(sels.len(), inst.ctx.num_items());
                for s in sels {
                    assert!(s.len() <= 3, "{alg:?} exceeded budget");
                    assert!(!s.is_empty(), "{alg:?} selected nothing");
                }
            }
        }
    }

    #[test]
    fn category_datasets_are_deterministic_per_seed() {
        let cfg = EvalConfig::tiny();
        let a = dataset_for(CategoryPreset::Cellphone, &cfg);
        let b = dataset_for(CategoryPreset::Cellphone, &cfg);
        assert_eq!(a.reviews.len(), b.reviews.len());
        // Different categories get different derived seeds.
        let c = dataset_for(CategoryPreset::Toy, &cfg);
        assert_ne!(a.name, c.name);
    }
}
