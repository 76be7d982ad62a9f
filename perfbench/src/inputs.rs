//! Benchmark inputs: the collection, the query pools with their merged
//! cost model, and the seeded random choices of the request streams.
//!
//! The collection, the query pools and each round's make-up are fixed, so
//! every run measures the same work; the run's `--seed` orders it (which
//! query or mutation comes when, on which surface, which element a
//! novel-path insert renames) and draws the side collection's queries.

use approxql_cost::{CostModel, NodeType};
use approxql_gen::{
    DataGenConfig, DataGenerator, GeneratedQuery, QueryGenConfig, QueryGenerator, PATTERN_1,
    PATTERN_2, PATTERN_3,
};
use approxql_index::LabelIndex;
use approxql_query::{parse_query, Surface};
use approxql_tree::{DataTree, DataTreeBuilder};
use approxql_xml::Document;
use std::collections::HashSet;

/// Generator seed of the reference collection (the generator's default).
/// The generator derives its random DTD from this seed, and store size
/// swings widely with it (112–202 MB at 1/100 over seeds 1–5), so runs on
/// different `--seed`s share it.
pub const COLLECTION_SEED: u64 = 20020324;
/// Seed of the query generator for the pools (the generator's default).
/// Query cost spans orders of magnitude, so pools drawn per run would
/// move the medians more than any change worth measuring.
pub const POOL_SEED: u64 = 2287;

/// Scale of the `cold_query` store, as a divisor of the paper's test
/// series (1M elements, 10M words, 100k terms).
pub const COLD_DIV: usize = 50;
/// Scale of the `warm_query` store.
pub const WARM_DIV: usize = 100;
/// Scale of the `mutate` store. Superseded pages stay allocated, so a
/// round of mutations grows the file by more than its initial size (a
/// novel-path insert alone rewrites the whole `sec#` keyspace); at 1/200
/// the largest file a round leaves stays well below the `cold_query`
/// store.
pub const MUTATE_DIV: usize = 200;
/// Scale of the side collection the reference evaluator checks against.
pub const SIDE_DIV: usize = 5000;

/// The paper's three query patterns, numbered 1 to 3.
pub const PATTERNS: [&str; 3] = [PATTERN_1, PATTERN_2, PATTERN_3];

/// A query class: (pattern number 1..=3, renamings per label).
pub type Class = (usize, usize);

/// The Figure-7 classes: patterns 1–3 × 0/5/10 renamings.
pub const FIGURE7_CLASSES: [Class; 9] = [
    (1, 0),
    (1, 5),
    (1, 10),
    (2, 0),
    (2, 5),
    (2, 10),
    (3, 0),
    (3, 5),
    (3, 10),
];

/// The collection generator's settings at `1/div` of the paper's scale.
/// The term vocabulary scales with the collection, as in the reference
/// measurement (`approxql gen --elements 100000 --terms 10000 --words
/// 1000000` at 1/10).
pub fn collection_config(div: usize) -> DataGenConfig {
    let full = DataGenConfig::paper_scale();
    DataGenConfig {
        element_count: full.element_count / div,
        word_occurrences: full.word_occurrences / div,
        vocabulary: full.vocabulary / div,
        seed: COLLECTION_SEED,
        ..full
    }
}

/// The collection's documents as XML text, one string per document.
pub fn collection_texts(div: usize) -> Vec<String> {
    DataGenerator::new(collection_config(div))
        .generate_documents()
        .into_iter()
        .map(|root| Document { root }.to_xml_string())
        .collect()
}

/// A small deterministic generator (SplitMix64): the benchmark's own
/// random choices do not depend on the library's generators.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`tag`) of one run (`seed`).
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// One pool query in all three surfaces.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    /// Index of its class in the pool's class list.
    pub class: usize,
    /// Classic, JSON-IR and XPath-lite text, in [`Surface::ALL`] order.
    pub texts: [String; 3],
}

impl PoolQuery {
    pub fn new(class: usize, classic: String) -> PoolQuery {
        let q = parse_query(&classic).expect("generated queries parse");
        PoolQuery {
            class,
            texts: [classic, q.to_json_ir(), q.to_xpath()],
        }
    }

    /// The query text in `surface`.
    pub fn text(&self, surface: Surface) -> &str {
        let i = Surface::ALL
            .iter()
            .position(|&s| s == surface)
            .expect("surface is listed");
        &self.texts[i]
    }

    /// The classic spelling.
    pub fn classic(&self) -> &str {
        &self.texts[0]
    }
}

/// Builds the data tree and label index the query generator draws labels
/// from. Insert costs default to 1 in every generated cost table, so the
/// tree's encoding equals the one under the merged cost model.
pub fn label_tree(docs: &[Document]) -> (DataTree, LabelIndex) {
    let mut b = DataTreeBuilder::new();
    for d in docs {
        b.add_document(d);
    }
    let tree = b.build(&CostModel::new());
    let index = LabelIndex::build(&tree);
    (tree, index)
}

/// Generates `per_class` queries for each class with the paper's query
/// generator, seeded from `seed`, and merges their cost tables into one
/// store-wide model.
pub fn generate_pool(
    tree: &DataTree,
    index: &LabelIndex,
    seed: u64,
    classes: &[Class],
    per_class: usize,
) -> (Vec<PoolQuery>, CostModel) {
    let mut generated = Vec::new();
    for (ci, &(pattern, renamings)) in classes.iter().enumerate() {
        let mut qgen = QueryGenerator::new(
            tree,
            index,
            QueryGenConfig {
                renamings_per_label: renamings,
                seed: Rng::new(seed, 0x100 + ci as u64).next_u64(),
                ..QueryGenConfig::default()
            },
        );
        for _ in 0..per_class {
            generated.push((ci, qgen.generate(PATTERNS[pattern - 1])));
        }
    }
    let costs = merge_costs(generated.iter().map(|(_, g)| g));
    let pool = generated
        .into_iter()
        .map(|(ci, g)| PoolQuery::new(ci, g.query))
        .collect();
    (pool, costs)
}

/// Merges per-query cost tables in generation order: each label keeps the
/// delete cost and renamings of the first generated query that drew it.
pub fn merge_costs<'a>(queries: impl Iterator<Item = &'a GeneratedQuery>) -> CostModel {
    let mut claimed: HashSet<(u8, String)> = HashSet::new();
    let mut builder = CostModel::builder().insert_default(1);
    for g in queries {
        let mut deletes: Vec<(NodeType, &str, _)> = g.costs.listed_deletes().collect();
        deletes.sort_by(|a, b| (a.0 as u8, a.1).cmp(&(b.0 as u8, b.1)));
        for (ty, label, cost) in deletes {
            if !claimed.insert((ty as u8, label.to_owned())) {
                continue;
            }
            builder = builder.delete(ty, label, cost);
            for (to, c) in g.costs.renamings(ty, label) {
                builder = builder.rename(ty, label, to, *c);
            }
        }
    }
    builder.build()
}

/// One round of query draws, as pool indices: every member of every
/// class, `counts[rank]` times for the member of popularity rank `rank`
/// (its position in generation order), cycled or cut to `len` draws in
/// rank order, then shuffled. Every round thus runs the same multiset of
/// queries; only the order depends on the seed.
pub fn round_plan(classes: usize, counts: &[usize], len: usize, rng: &mut Rng) -> Vec<usize> {
    let per_class = counts.len();
    let base: Vec<usize> = (0..per_class)
        .flat_map(|r| {
            (0..classes).flat_map(move |c| std::iter::repeat_n(c * per_class + r, counts[r]))
        })
        .collect();
    let mut plan: Vec<usize> = base.iter().cycle().take(len).copied().collect();
    rng.shuffle(&mut plan);
    plan
}

/// Draws in one full round of [`round_plan`].
pub fn round_size(classes: usize, counts: &[usize]) -> usize {
    classes * counts.iter().sum::<usize>()
}

/// The surface of the `i`-th draw: classic, JSON-IR and XPath-lite in
/// turn.
pub fn surface_of(i: usize) -> Surface {
    Surface::ALL[i % 3]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(8, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rounds_share_their_multiset_and_differ_in_order() {
        let counts = [4, 2, 1];
        let len = round_size(5, &counts);
        let a = round_plan(5, &counts, len, &mut Rng::new(1, 2));
        let b = round_plan(5, &counts, len, &mut Rng::new(9, 2));
        assert_ne!(a, b);
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
        // Rank 0 of class 2 is pool index 6 and runs 4 times per round.
        assert_eq!(a.iter().filter(|&&q| q == 6).count(), 4);
        // Cut short, the most popular members go first.
        let mut short = round_plan(5, &counts, 7, &mut Rng::new(1, 2));
        short.sort_unstable();
        assert_eq!(short, vec![0, 0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn merge_keeps_the_first_claim() {
        let docs: Vec<Document> = collection_texts(SIDE_DIV)
            .iter()
            .map(|t| approxql_xml::parse_document(t).unwrap())
            .collect();
        let (tree, index) = label_tree(&docs);
        let mut qgen = QueryGenerator::new(
            &tree,
            &index,
            QueryGenConfig {
                renamings_per_label: 3,
                ..QueryGenConfig::default()
            },
        );
        let qs: Vec<GeneratedQuery> = (0..6).map(|_| qgen.generate(PATTERN_2)).collect();
        let merged = merge_costs(qs.iter());
        let mut seen = HashSet::new();
        for g in &qs {
            for (ty, label, cost) in g.costs.listed_deletes() {
                if seen.contains(&(ty as u8, label.to_owned())) {
                    continue;
                }
                assert_eq!(merged.delete_cost(ty, label), cost);
                assert_eq!(merged.renamings(ty, label), g.costs.renamings(ty, label));
            }
            for (ty, label, _) in g.costs.listed_deletes() {
                seen.insert((ty as u8, label.to_owned()));
            }
        }
    }
}
