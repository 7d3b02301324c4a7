//! End-to-end from *raw text*: discover aspects, annotate reviews with
//! the frequency-based extractor (the §4.1.1 substitute for Microsoft
//! Concepts / Sentires), build an instance by hand, and run CompaReSetS+.
//!
//! ```text
//! cargo run --release --example aspect_extraction
//! ```

use comparesets::core::{
    solve_with, Algorithm, InstanceContext, Item, OpinionScheme, SelectParams, SolveOptions,
};
use comparesets::data::Polarity;
use comparesets::text::{AspectExtractor, Sentiment};

/// Three fictional earbud products with hand-written reviews.
fn products() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "AcmeBuds Pro",
            vec![
                "The battery is excellent and lasts two days. The case feels solid.",
                "Terrible battery after the last update. Sound is still great though.",
                "Great sound and a comfortable fit. The case is nice and small.",
                "The microphone is poor on calls, but the battery is good.",
                "Sound quality is amazing for the price.",
            ],
        ),
        (
            "SoundCore Mini",
            vec![
                "Battery life is good, about a day of listening.",
                "The case is flimsy and the hinge broke in a week.",
                "Great sound, weak battery. You cannot have everything.",
                "The microphone is excellent for meetings.",
            ],
        ),
        (
            "EchoPods Lite",
            vec![
                "Sound is terrible, tinny and harsh at any volume.",
                "The battery is great and the fit is comfortable.",
                "Nice case, mediocre sound, good battery.",
            ],
        ),
    ]
}

fn main() {
    let opts = SolveOptions::default();
    let catalog = products();

    // 1. Discover the aspect vocabulary from the whole corpus.
    let corpus: Vec<&str> = catalog
        .iter()
        .flat_map(|(_, rs)| rs.iter().copied())
        .collect();
    let extractor = AspectExtractor::discover(corpus.iter().copied(), 6, 2);
    println!("discovered aspects: {:?}\n", extractor.vocabulary());

    // 2. Annotate every review and build solver items.
    let items: Vec<Item> = catalog
        .iter()
        .enumerate()
        .map(|(pi, (_, reviews))| {
            let annotated = reviews
                .iter()
                .enumerate()
                .map(|(ri, text)| {
                    let mentions: Vec<(usize, Polarity)> = extractor
                        .extract(text)
                        .into_iter()
                        .filter_map(|op| {
                            let aspect = extractor.aspect_index(&op.aspect)?;
                            let polarity = match op.sentiment {
                                Some(Sentiment::Positive) => Polarity::Positive,
                                Some(Sentiment::Negative) => Polarity::Negative,
                                None => Polarity::Neutral,
                            };
                            Some((aspect, polarity))
                        })
                        .collect();
                    (
                        comparesets::data::ReviewId((pi * 100 + ri) as u32),
                        mentions,
                    )
                })
                .collect();
            Item::from_mentions(comparesets::data::ProductId(pi as u32), annotated)
        })
        .collect();

    // 3. Solve CompaReSetS+ with m = 2 over the extracted annotations.
    let ctx =
        InstanceContext::from_items(extractor.vocabulary().len(), items, OpinionScheme::Binary);
    let params = SelectParams {
        m: 2,
        lambda: 1.0,
        mu: 0.5,
    };
    let selections = solve_with(&ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);

    for (pi, (name, reviews)) in catalog.iter().enumerate() {
        println!("{name}:");
        for &r in &selections[pi].indices {
            println!("  -> {}", reviews[r]);
        }
    }
    println!(
        "\nThe selected reviews share aspects across products \
         (battery/sound/case), enabling direct comparison."
    );
}
