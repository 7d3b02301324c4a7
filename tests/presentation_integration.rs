//! Integration: the consumer-facing presentation layer (comparison table
//! + extractive summaries) over a fully solved instance.

use comparesets::core::{
    solve_with, Algorithm, ComparisonTable, InstanceContext, OpinionScheme, SelectParams,
    SolveOptions,
};
use comparesets::data::CategoryPreset;
use comparesets::graph::{solve_exact, ExactOptions, SimilarityGraph};
use comparesets::text::{summarize, SummaryConfig};

#[test]
fn full_pipeline_to_comparison_table_and_summaries() {
    let opts = SolveOptions::default();
    let dataset = CategoryPreset::Cellphone.config(120, 4).generate();
    let instance = dataset
        .instances()
        .into_iter()
        .find(|i| i.len() >= 5)
        .expect("large instance")
        .truncated(6);
    let ctx = InstanceContext::build(&dataset, &instance, OpinionScheme::Binary);
    let params = SelectParams::default();
    let selections = solve_with(&ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);
    let graph = SimilarityGraph::from_selections(&ctx, &selections, params.lambda, params.mu);
    let core = solve_exact(&graph, 0, 3, &ExactOptions::default()).vertices;

    // Comparison table over the core list.
    let table = ComparisonTable::build(&ctx, &selections, Some(&core));
    assert_eq!(table.products.len(), 3);
    assert!(
        !table.rows.is_empty(),
        "selected reviews must mention aspects"
    );
    // Row coverage is within bounds and sorted descending.
    let mut prev = usize::MAX;
    for row in &table.rows {
        assert!(row.coverage >= 1 && row.coverage <= 3);
        assert!(row.coverage <= prev);
        prev = row.coverage;
        assert_eq!(row.cells.len(), 3);
        // Star scores, when present, are within the scale.
        for cell in &row.cells {
            if let Some(s) = cell.stars() {
                assert!((1.0..=5.0).contains(&s));
            }
        }
    }
    // Rendering resolves aspect names without panicking.
    let text = table.render(&dataset.aspects);
    assert!(text.contains("Aspect"));

    // Summaries of each core item's selected reviews.
    for &i in &core {
        let item = ctx.item(i);
        let texts: Vec<&str> = selections[i]
            .indices
            .iter()
            .map(|&r| dataset.review(item.review_ids[r]).text.as_str())
            .collect();
        let summary = summarize(&texts, SummaryConfig::default());
        assert!(
            !summary.is_empty(),
            "non-empty reviews summarise to something"
        );
        assert!(summary.len() <= 2);
        // Extractive: every summary sentence appears in some source text.
        for s in &summary {
            assert!(
                texts.iter().any(|t| t.contains(s.as_str())),
                "summary sentence {s:?} not found in sources"
            );
        }
    }
}

#[test]
fn streaming_session_stays_consistent_over_many_arrivals() {
    use comparesets::core::{IncrementalSession, ReviewFeature};
    use comparesets::data::{Polarity, ReviewId};

    let dataset = CategoryPreset::Toy.config(80, 9).generate();
    let instance = dataset
        .instances()
        .into_iter()
        .find(|i| i.len() >= 3)
        .unwrap()
        .truncated(3);
    let ctx = InstanceContext::build(&dataset, &instance, OpinionScheme::Binary);
    let mut session = IncrementalSession::new(ctx, SelectParams::default());

    let z = session.context().space().num_aspects();
    let mut last_objective = f64::INFINITY;
    for step in 0..12u32 {
        let item = (step as usize) % session.context().num_items();
        let aspect = (step as usize * 7) % z;
        let polarity = if step % 3 == 0 {
            Polarity::Negative
        } else {
            Polarity::Positive
        };
        session.add_review(
            item,
            ReviewId(800_000 + step),
            ReviewFeature::new(vec![(aspect, polarity)]),
        );
        // Invariants hold at every step.
        for (i, sel) in session.selections().iter().enumerate() {
            assert!(!sel.is_empty());
            assert!(sel.len() <= 3);
            assert!(sel
                .indices
                .iter()
                .all(|&r| r < session.context().item(i).num_reviews()));
        }
        let obj = session.objective();
        assert!(obj.is_finite() && obj >= 0.0);
        last_objective = obj;
    }
    // A refresh at the end can only help.
    session.refresh();
    assert!(session.objective() <= last_objective + 1e-9);
}
