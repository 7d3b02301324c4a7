//! The offline paper pipeline (Fig. 7's axis): prepare every instance
//! at each comparative count, solve CompaReSetS+ at one and three
//! sweeps, then narrow each instance with TargetHkS (greedy and exact).

use crate::trace::Tracer;
use comparesets_core::{
    solve_comparesets_plus_sweeps_with, solve_with, Algorithm, InstanceContext, SelectParams,
    Selection, SolveOptions,
};
use comparesets_data::wal::crc32;
use comparesets_data::{ComparisonInstance, Dataset};
use comparesets_eval::config::EvalConfig;
use comparesets_eval::pipeline::{prepare_instances, run_algorithm_opts};
use comparesets_graph::{solve_exact, solve_greedy, ExactOptions, SimilarityGraph};

/// Fig. 7's comparative counts.
pub const COUNTS: [usize; 5] = [2, 4, 6, 8, 10];
/// TargetHkS core size.
pub const K: usize = 3;

pub struct Pass {
    pub instances: usize,
    /// CRC-32 over every selection and core, in instance order.
    pub digest: u32,
}

fn push_selections(buf: &mut Vec<u8>, sels: &[Selection]) {
    for s in sels {
        for &i in &s.indices {
            buf.extend_from_slice(&(i as u32).to_le_bytes());
        }
        buf.push(0xff);
    }
}

/// One pass over the batch corpus. `opts` carries the metrics collector
/// (and, for the reference pass, warm starts off); `exact` the graph
/// solver's.
///
/// With tracing on, each count is followed (outside its span) by a
/// per-instance replay of the same solves and context builds, which
/// gives the sequential per-instance time behind
/// `pipeline.parallel_efficiency` and `instance.build_us`.
pub fn pass(ds: &Dataset, opts: &SolveOptions, exact: &ExactOptions, t: &mut Tracer) -> Pass {
    let params = SelectParams::default();
    let mut buf = Vec::new();
    let mut instances = 0;
    for (round, &count) in COUNTS.iter().enumerate() {
        t.set_request(round as u64);
        let root = t.open("batch.count");
        let cfg = EvalConfig {
            max_comparatives: count,
            max_instances: usize::MAX,
            ..EvalConfig::default()
        };
        let prepared = t.time("pipeline.prepare", || prepare_instances(ds, &cfg));
        let one = t.time("pipeline.solve", || {
            run_algorithm_opts(
                &prepared,
                Algorithm::CompareSetsPlus,
                &params,
                cfg.seed,
                opts,
            )
        });
        let three: Vec<Vec<Selection>> = prepared
            .iter()
            .map(|p| {
                t.time("alternation.solve_sweeps3", || {
                    solve_comparesets_plus_sweeps_with(&p.ctx, &params, 3, opts)
                })
            })
            .collect();
        for ((p, s1), s3) in prepared.iter().zip(&one).zip(&three) {
            push_selections(&mut buf, s1);
            push_selections(&mut buf, s3);
            let graph = t.time("graph.build", || {
                SimilarityGraph::from_selections(&p.ctx, s1, params.lambda, params.mu)
            });
            let greedy = t.time("graph.greedy", || solve_greedy(&graph, 0, K));
            let core = t.time("graph.exact", || solve_exact(&graph, 0, K, exact));
            for v in greedy.iter().chain(&core.vertices) {
                buf.extend_from_slice(&(*v as u32).to_le_bytes());
            }
            buf.push(0xfe);
        }
        instances += prepared.len();
        t.close(root);
        if t.enabled() {
            let replay = t.open("batch.replay");
            // Uncounted: the replay must not add to the pass's counters.
            let uncounted = SolveOptions {
                metrics: None,
                ..opts.clone()
            };
            for (i, p) in prepared.iter().enumerate() {
                t.time("pipeline.instance", || {
                    let seed = cfg.seed.wrapping_add(i as u64);
                    solve_with(
                        &p.ctx,
                        Algorithm::CompareSetsPlus,
                        &params,
                        seed,
                        &uncounted,
                    )
                });
                let inst = ComparisonInstance {
                    items: p.ctx.items().iter().map(|item| item.product).collect(),
                };
                t.time("instance.build", || {
                    InstanceContext::build(ds, &inst, cfg.scheme)
                });
            }
            t.close(replay);
        }
    }
    Pass {
        instances,
        digest: crc32(&buf),
    }
}
