//! The item-similarity graph of §3.1.
//!
//! After solving CompaReSetS+, the distance between items `pᵢ` and `pⱼ` is
//! `d_ij = Δ(τᵢ,π(Sᵢ)) + Δ(τⱼ,π(Sⱼ)) + λ²Δ(Γ,φ(Sᵢ)) + λ²Δ(Γ,φ(Sⱼ)) +
//! μ²Δ(φ(Sᵢ),φ(Sⱼ))`, and the complete graph carries similarity weights
//! `w_ij = max_{i'j'} d_{i'j'} − d_ij` — guaranteeing non-negative weights.

use comparesets_core::{pair_distance, InstanceContext, Selection};

/// A complete, undirected, non-negatively weighted item graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityGraph {
    n: usize,
    /// Row-major full n×n symmetric weight matrix with zero diagonal.
    weights: Vec<f64>,
}

impl SimilarityGraph {
    /// Build from a symmetric pairwise *distance* matrix (row-major,
    /// diagonal ignored): `w_ij = max d − d_ij`.
    ///
    /// # Panics
    /// Panics if `distances.len() != n*n` or `n == 0`.
    pub fn from_distances(n: usize, distances: &[f64]) -> Self {
        assert!(n > 0, "graph needs at least one vertex");
        assert_eq!(distances.len(), n * n, "distance matrix shape");
        let mut max_d = f64::NEG_INFINITY;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    max_d = max_d.max(distances[i * n + j]);
                }
            }
        }
        if !max_d.is_finite() {
            max_d = 0.0; // single vertex
        }
        let mut weights = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    // Symmetrise defensively (average of both triangles).
                    let d = 0.5 * (distances[i * n + j] + distances[j * n + i]);
                    weights[i * n + j] = (max_d - d).max(0.0);
                }
            }
        }
        SimilarityGraph { n, weights }
    }

    /// Build from raw similarity weights (already non-negative).
    ///
    /// # Panics
    /// Panics on shape mismatch or negative weights.
    pub fn from_weights(n: usize, weights: Vec<f64>) -> Self {
        assert!(n > 0, "graph needs at least one vertex");
        assert_eq!(weights.len(), n * n, "weight matrix shape");
        for i in 0..n {
            for j in 0..n {
                let w = weights[i * n + j];
                assert!(w >= 0.0, "negative weight at ({i},{j})");
                assert!(
                    (w - weights[j * n + i]).abs() < 1e-9,
                    "asymmetric weight at ({i},{j})"
                );
            }
        }
        SimilarityGraph { n, weights }
    }

    /// Build the graph from a solved instance (vertex `i` = item `i`),
    /// using the §3.1 distance with the given λ and μ.
    pub fn from_selections(
        ctx: &InstanceContext,
        selections: &[Selection],
        lambda: f64,
        mu: f64,
    ) -> Self {
        let n = ctx.num_items();
        let mut distances = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = pair_distance(ctx, selections, i, j, lambda, mu);
                distances[i * n + j] = d;
                distances[j * n + i] = d;
            }
        }
        SimilarityGraph::from_distances(n, &distances)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a zero-vertex graph (never constructed; kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Edge weight `w_ij` (zero on the diagonal).
    #[inline]
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        self.weights[i * self.n + j]
    }

    /// Total weight of the clique induced by `vertices`
    /// (Σ over unordered pairs).
    pub fn subgraph_weight(&self, vertices: &[usize]) -> f64 {
        let mut total = 0.0;
        for (a, &i) in vertices.iter().enumerate() {
            for &j in &vertices[a + 1..] {
                total += self.weight(i, j);
            }
        }
        total
    }

    /// Weight connecting vertex `v` to every vertex in `set`.
    pub fn weight_to_set(&self, v: usize, set: &[usize]) -> f64 {
        set.iter().map(|&u| self.weight(v, u)).sum()
    }
}

#[cfg(test)]
pub(crate) mod fixtures {
    use super::SimilarityGraph;

    /// A 6-vertex graph reproducing the *property* of Figure 4: the
    /// heaviest 3-subgraph overall is {p₂,p₅,p₆} (weight 26.5) but the
    /// heaviest 3-subgraph containing the target p₁ is {p₁,p₄,p₆}
    /// (weight 25.4). Vertices are 0-indexed: p₁ = 0, …, p₆ = 5.
    pub(crate) fn figure4_graph() -> SimilarityGraph {
        let n = 6;
        let mut w = vec![0.0; n * n];
        let mut set = |i: usize, j: usize, v: f64| {
            w[i * n + j] = v;
            w[j * n + i] = v;
        };
        // HkS optimum {1,4,5} (p2,p5,p6): 9.0 + 8.5 + 9.0 = 26.5.
        set(1, 4, 9.0);
        set(1, 5, 8.5);
        set(4, 5, 9.0);
        // TargetHkS optimum {0,3,5} (p1,p4,p6): 9.0 + 8.4 + 8.0 = 25.4.
        set(0, 3, 9.0);
        set(0, 5, 8.4);
        set(3, 5, 8.0);
        // Remaining edges small.
        set(0, 1, 1.0);
        set(0, 2, 2.0);
        set(0, 4, 1.5);
        set(1, 2, 2.0);
        set(1, 3, 1.0);
        set(2, 3, 2.5);
        set(2, 4, 1.0);
        set(2, 5, 0.5);
        set(3, 4, 1.0);
        SimilarityGraph::from_weights(n, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comparesets_core::{
        solve_with, Algorithm, InstanceContext, OpinionScheme, SelectParams, SolveOptions,
    };
    use comparesets_data::CategoryPreset;

    #[test]
    fn from_distances_inverts_scale() {
        let n = 3;
        // d01=1, d02=4, d12=2 → max=4; w01=3, w02=0, w12=2.
        let d = vec![
            0.0, 1.0, 4.0, //
            1.0, 0.0, 2.0, //
            4.0, 2.0, 0.0,
        ];
        let g = SimilarityGraph::from_distances(n, &d);
        assert_eq!(g.weight(0, 1), 3.0);
        assert_eq!(g.weight(0, 2), 0.0);
        assert_eq!(g.weight(1, 2), 2.0);
        assert_eq!(g.weight(1, 1), 0.0);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn closest_pair_gets_heaviest_edge() {
        let d = vec![
            0.0, 0.5, 3.0, //
            0.5, 0.0, 1.0, //
            3.0, 1.0, 0.0,
        ];
        let g = SimilarityGraph::from_distances(3, &d);
        assert!(g.weight(0, 1) > g.weight(1, 2));
        assert!(g.weight(1, 2) > g.weight(0, 2));
    }

    #[test]
    fn subgraph_weight_sums_pairs() {
        let g = fixtures::figure4_graph();
        assert!((g.subgraph_weight(&[1, 4, 5]) - 26.5).abs() < 1e-12);
        assert!((g.subgraph_weight(&[0, 3, 5]) - 25.4).abs() < 1e-12);
        assert_eq!(g.subgraph_weight(&[2]), 0.0);
        assert_eq!(g.subgraph_weight(&[]), 0.0);
    }

    #[test]
    fn weight_to_set() {
        let g = fixtures::figure4_graph();
        assert!((g.weight_to_set(5, &[0, 3]) - (8.4 + 8.0)).abs() < 1e-12);
        assert_eq!(g.weight_to_set(0, &[]), 0.0);
    }

    #[test]
    fn single_vertex_graph() {
        let g = SimilarityGraph::from_distances(1, &[0.0]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.subgraph_weight(&[0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn from_weights_rejects_negative() {
        let _ = SimilarityGraph::from_weights(2, vec![0.0, -1.0, -1.0, 0.0]);
    }

    #[test]
    fn from_selections_produces_nonnegative_symmetric_weights() {
        let ds = CategoryPreset::Cellphone.config(60, 77).generate();
        let inst = ds.instances().into_iter().next().unwrap().truncated(5);
        let ctx = InstanceContext::build(&ds, &inst, OpinionScheme::Binary);
        let params = SelectParams::default();
        let opts = SolveOptions::default();
        let sels = solve_with(&ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);
        let g = SimilarityGraph::from_selections(&ctx, &sels, params.lambda, params.mu);
        assert_eq!(g.len(), ctx.num_items());
        for i in 0..g.len() {
            assert_eq!(g.weight(i, i), 0.0);
            for j in 0..g.len() {
                assert!(g.weight(i, j) >= 0.0);
                assert!((g.weight(i, j) - g.weight(j, i)).abs() < 1e-12);
            }
        }
        // At least one strictly positive weight (the farthest pair is 0).
        let any_pos = (0..g.len()).any(|i| (0..g.len()).any(|j| i != j && g.weight(i, j) > 0.0));
        assert!(any_pos);
    }
}
