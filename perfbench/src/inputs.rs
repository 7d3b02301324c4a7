//! Everything the program receives is generated here, from the run's
//! seed: the query stream, the ingest events, the restart log tail.
//!
//! The corpora themselves come from fixed generator seeds (like a
//! committed dataset), so every run measures the same corpus size; the
//! run's `--seed` decides which requests are sent, in what order, and
//! which reviews the write paths add, edit and delete.

use crate::util::Rng;
use comparesets_core::{
    comparesets_plus_objective, solve_comparesets_plus_sweeps_with, InstanceContext, OpinionScheme,
    SelectParams, SolveOptions,
};
use comparesets_data::wal::{EventKind, ReviewEvent};
use comparesets_data::{
    AspectId, AspectMention, CategoryPreset, ComparisonInstance, Dataset, Polarity, ProductId,
    ReviewId,
};
use comparesets_serve::{IngestEvent, ItemSelection, Request, Response};

/// Generator seed of the serving / restart corpus.
pub const CORPUS_SEED: u64 = 2;
/// Generator seed of the batch corpus.
pub const BATCH_CORPUS_SEED: u64 = 5;
/// μ of every served query (the server default).
pub const MU: f64 = 0.1;

pub fn corpus(products: usize) -> Dataset {
    CategoryPreset::Cellphone
        .config(products, CORPUS_SEED)
        .generate()
}

pub fn batch_corpus(products: usize) -> Dataset {
    CategoryPreset::Cellphone
        .config(products, BATCH_CORPUS_SEED)
        .generate()
}

/// Products a `solve` can name as its target: reviewed, with at least
/// one reviewed `also_bought` product.
pub fn solvable_targets(ds: &Dataset) -> Vec<u32> {
    (0..ds.products.len() as u32)
        .filter(|&t| {
            let p = ProductId(t);
            !ds.reviews_of(p).is_empty()
                && ds
                    .product(p)
                    .also_bought
                    .iter()
                    .any(|c| !ds.reviews_of(*c).is_empty())
        })
        .collect()
}

/// One served query: target drawn by popularity, and the knobs the
/// paper varies (Fig. 7's comparative count, budget m, sweeps, λ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    pub target: u32,
    pub max_comparatives: usize,
    pub m: usize,
    pub sweeps: usize,
    pub lambda: f64,
}

impl Query {
    pub fn request(&self) -> Request {
        Request {
            target: Some(self.target),
            max_comparatives: Some(self.max_comparatives),
            m: Some(self.m),
            sweeps: Some(self.sweeps),
            lambda: Some(self.lambda),
            ..Request::bare("solve")
        }
    }

    pub fn key(&self) -> (u32, usize, usize, usize, u64) {
        (
            self.target,
            self.max_comparatives,
            self.m,
            self.sweeps,
            self.lambda.to_bits(),
        )
    }

    pub fn params(&self) -> SelectParams {
        SelectParams {
            m: self.m,
            lambda: self.lambda,
            mu: MU,
        }
    }
}

/// Target popularity, worked out from the corpus itself: a product's
/// share of the traffic is proportional to its review count (reviews as
/// the record of past demand). The generator draws review counts from an
/// exponential law with the paper's Cellphone mean (18.64 per product),
/// so a few products carry much of the traffic and the tail stays long.
pub struct Popularity {
    targets: Vec<u32>,
    cumulative: Vec<f64>,
}

impl Popularity {
    pub fn new(ds: &Dataset) -> Popularity {
        let targets = solvable_targets(ds);
        let mut acc = 0.0;
        let cumulative = targets
            .iter()
            .map(|&t| {
                acc += ds.reviews_of(ProductId(t)).len() as f64;
                acc
            })
            .collect();
        Popularity {
            targets,
            cumulative,
        }
    }

    pub fn draw(&self, rng: &mut Rng) -> u32 {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let u = rng.unit() * total;
        let i = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.targets.len() - 1);
        self.targets[i]
    }
}

pub fn queries(pop: &Popularity, rng: &mut Rng, n: usize) -> Vec<Query> {
    (0..n)
        .map(|_| Query {
            target: pop.draw(rng),
            max_comparatives: *rng.pick(&[2, 4, 8, 12]),
            m: *rng.pick(&[3, 5]),
            sweeps: *rng.pick(&[1, 3]),
            lambda: *rng.pick(&[0.5, 1.0]),
        })
        .collect()
}

/// The item set the server derives for a target: the target, then its
/// reviewed `also_bought` products, capped.
pub fn derive_items(ds: &Dataset, target: u32, max_comparatives: usize) -> Vec<ProductId> {
    let mut items = vec![ProductId(target)];
    items.extend(
        ds.product(ProductId(target))
            .also_bought
            .iter()
            .filter(|c| !ds.reviews_of(**c).is_empty())
            .take(max_comparatives)
            .copied(),
    );
    items
}

/// The answer a cold, in-process `solve_comparesets_plus_sweeps_with`
/// gives for `q` on `ds`, in the server's wire shape (cache marker
/// unset; the caller copies the served marker in before comparing).
pub fn cold_answer(ds: &Dataset, q: &Query) -> Response {
    let instance = ComparisonInstance {
        items: derive_items(ds, q.target, q.max_comparatives),
    };
    let ctx = InstanceContext::build(ds, &instance, OpinionScheme::Binary);
    let params = q.params();
    let selections =
        solve_comparesets_plus_sweeps_with(&ctx, &params, q.sweeps, &SolveOptions::sequential());
    let objective = comparesets_plus_objective(&ctx, &selections, params.lambda, params.mu);
    Response {
        selections: selections
            .iter()
            .enumerate()
            .map(|(i, sel)| {
                let item = ctx.item(i);
                ItemSelection {
                    product: item.product.0,
                    indices: sel.indices.clone(),
                    review_ids: sel.review_ids(item).iter().map(|r| r.0).collect(),
                }
            })
            .collect(),
        objective: Some(objective),
        ..Response::ok()
    }
}

/// What the harness keeps of a served answer frame: a 64-bit FNV-1a
/// hash of its bytes and its cache marker. Keeping no payloads keeps the
/// harness's own memory small and the same from seed to seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub hash: u64,
    pub cache: Option<&'static str>,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

pub fn fingerprint(payload: &[u8]) -> Fingerprint {
    let cache = ["full", "warm", "cold"].into_iter().find(|marker| {
        let needle = format!("\"cache\":\"{marker}\"");
        payload
            .windows(needle.len())
            .any(|w| w == needle.as_bytes())
    });
    Fingerprint {
        hash: fnv1a(payload),
        cache,
    }
}

/// Byte-for-byte check (by hash) of a served frame against the cold
/// answer: the served frame must be exactly the cold answer's encoding
/// with the served cache marker.
pub fn answer_matches(expected: &Response, served: &Fingerprint) -> bool {
    let want = Response {
        cache: served.cache.map(str::to_string),
        ..expected.clone()
    };
    serde_json::to_string(&want).is_ok_and(|json| fnv1a(json.as_bytes()) == served.hash)
}

const WORDS: [&str; 12] = [
    "battery", "screen", "latency", "case", "grip", "warranty", "great", "poor", "solid", "fine",
    "after", "weeks",
];

/// Draw the next review mutation against `mirror` (a copy of the
/// server's corpus kept in step with every acknowledged event), apply
/// it to the mirror, and return it in wire form and in log form.
///
/// Products are drawn by the solve stream's popularity. The mix is 50%
/// add, 30% edit, 20% delete. No source gives the mix of a live review
/// stream; this one is an assumption that keeps the corpus growing
/// slowly, so every run's later rounds cost about what its first did. A
/// delete never takes a product below two listed reviews, so every event
/// applies and every target stays solvable.
fn next_event(
    mirror: &mut Dataset,
    seq: u64,
    pop: &Popularity,
    rng: &mut Rng,
) -> (IngestEvent, ReviewEvent) {
    let product = ProductId(pop.draw(rng));
    let listed = mirror.reviews_of(product).to_vec();
    let u = rng.unit();
    let rating = 1 + rng.below(5) as u8;
    let text: Vec<&str> = (0..4 + rng.below(8)).map(|_| *rng.pick(&WORDS)).collect();
    let text = text.join(" ");
    let z = mirror.aspects.len();
    let mut mentions: Vec<AspectMention> = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let aspect = AspectId(rng.below(z) as u32);
        if mentions.iter().all(|m| m.aspect != aspect) {
            mentions.push(AspectMention {
                aspect,
                polarity: *rng.pick(&[Polarity::Positive, Polarity::Negative]),
            });
        }
    }
    let (wire, ev) = if u < 0.5 || listed.is_empty() || (u >= 0.8 && listed.len() <= 2) {
        (
            IngestEvent {
                rating: Some(rating),
                text: Some(text.clone()),
                ..IngestEvent::add(product.0, mentions.clone())
            },
            ReviewEvent {
                seq,
                kind: EventKind::Add,
                product,
                review: ReviewId(mirror.reviews.len() as u32),
                reviewer: mirror.num_reviewers,
                rating,
                text,
                mentions,
            },
        )
    } else if u < 0.8 {
        let review = *rng.pick(&listed);
        (
            IngestEvent {
                rating: Some(rating),
                text: Some(text.clone()),
                ..IngestEvent::edit(product.0, review.0, mentions.clone())
            },
            ReviewEvent {
                seq,
                kind: EventKind::Edit,
                product,
                review,
                reviewer: mirror.review(review).reviewer,
                rating,
                text,
                mentions,
            },
        )
    } else {
        let review = *rng.pick(&listed);
        (
            IngestEvent::delete(product.0, review.0),
            ReviewEvent {
                seq,
                kind: EventKind::Delete,
                product,
                review,
                reviewer: 0,
                rating: 0,
                text: String::new(),
                mentions: Vec::new(),
            },
        )
    };
    mirror
        .apply_event(&ev)
        .expect("generated events apply by construction");
    (wire, ev)
}

/// `n` events from `seq` 1 on, applied to `mirror` as they are drawn.
pub fn events(
    mirror: &mut Dataset,
    pop: &Popularity,
    rng: &mut Rng,
    n: usize,
) -> Vec<(IngestEvent, ReviewEvent)> {
    (1..=n as u64)
        .map(|seq| next_event(mirror, seq, pop, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popularity_follows_review_counts() {
        let ds = corpus(60);
        let pop = Popularity::new(&ds);
        let mut rng = Rng::new(3);
        let mut drawn = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *drawn.entry(pop.draw(&mut rng)).or_insert(0usize) += 1;
        }
        let reviews = |t: u32| ds.reviews_of(ProductId(t)).len();
        let most = *pop.targets.iter().max_by_key(|&&t| reviews(t)).unwrap();
        let least = *pop.targets.iter().min_by_key(|&&t| reviews(t)).unwrap();
        assert!(drawn.keys().all(|t| pop.targets.contains(t)));
        assert!(drawn[&most] > drawn.get(&least).copied().unwrap_or(0));
    }
}
