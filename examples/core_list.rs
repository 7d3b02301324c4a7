//! Core-list narrowing: TargetHkS exact vs. greedy vs. the baselines
//! (§3 and Table 5 of the paper), on the worked Figure 4 example and on
//! a generated instance.
//!
//! ```text
//! cargo run --release --example core_list
//! ```

use comparesets::core::{
    solve_with, Algorithm, InstanceContext, OpinionScheme, SelectParams, SolveOptions,
};
use comparesets::data::CategoryPreset;
use comparesets::graph::{
    solve_exact, solve_greedy, solve_hks, solve_random_k, solve_top_k_similarity, ExactOptions,
    SimilarityGraph,
};

fn main() {
    figure4_demo();
    corpus_demo();
}

/// The paper's Figure 4 property: the heaviest 3-subgraph overall need
/// not contain the target, so TargetHkS and HkS disagree.
fn figure4_demo() {
    let n = 6;
    let mut w = vec![0.0; n * n];
    let mut set = |i: usize, j: usize, v: f64| {
        w[i * n + j] = v;
        w[j * n + i] = v;
    };
    set(1, 4, 9.0);
    set(1, 5, 8.5);
    set(4, 5, 9.0); // global optimum {p2,p5,p6}
    set(0, 3, 9.0);
    set(0, 5, 8.4);
    set(3, 5, 8.0); // target-anchored optimum {p1,p4,p6}
    set(0, 1, 1.0);
    set(0, 2, 2.0);
    set(0, 4, 1.5);
    set(1, 2, 2.0);
    set(1, 3, 1.0);
    set(2, 3, 2.5);
    set(2, 4, 1.0);
    set(2, 5, 0.5);
    set(3, 4, 1.0);
    let g = SimilarityGraph::from_weights(n, w);

    println!("=== Figure 4 demo (6 items, k = 3) ===");
    let target = solve_exact(&g, 0, 3, &ExactOptions::default());
    println!(
        "TargetHkS (must include p1): {:?}  weight {:.1}",
        pretty(&target.vertices),
        target.weight
    );
    let hks = solve_hks(&g, 3, &ExactOptions::default());
    println!(
        "HkS (any 3 items):           {:?}  weight {:.1}",
        pretty(&hks.vertices),
        hks.weight
    );
    assert!(hks.weight > target.weight);
    println!("The globally heaviest triangle drops the target item — exactly the paper's point.\n");
}

fn pretty(vertices: &[usize]) -> Vec<String> {
    vertices.iter().map(|v| format!("p{}", v + 1)).collect()
}

/// End-to-end narrowing on a generated Toy instance.
fn corpus_demo() {
    let opts = SolveOptions::default();
    let dataset = CategoryPreset::Toy.config(200, 11).generate();
    let instance = dataset
        .instances()
        .into_iter()
        .max_by_key(|i| i.len())
        .unwrap()
        .truncated(10);
    let ctx = InstanceContext::build(&dataset, &instance, OpinionScheme::Binary);
    let params = SelectParams::default();
    let selections = solve_with(&ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);
    let graph = SimilarityGraph::from_selections(&ctx, &selections, params.lambda, params.mu);

    println!(
        "=== Corpus demo: narrowing {} candidates to k = 3 ===",
        ctx.num_items() - 1
    );
    let k = 3;
    let exact = solve_exact(&graph, 0, k, &ExactOptions::default());
    let greedy = solve_greedy(&graph, 0, k);
    let topk = solve_top_k_similarity(&graph, 0, k);
    let random = solve_random_k(&graph, 0, k, 5);
    println!("{:<18} {:>10}  items", "method", "weight");
    for (name, sol) in [
        ("TargetHkS exact", exact.vertices.clone()),
        ("TargetHkS greedy", greedy),
        ("Top-k similarity", topk),
        ("Random", random),
    ] {
        println!(
            "{:<18} {:>10.3}  {:?}",
            name,
            graph.subgraph_weight(&sol),
            sol
        );
    }
    println!("\nCore list product titles:");
    for &i in &exact.vertices {
        println!("  - {}", dataset.product(ctx.item(i).product).title);
    }
}
