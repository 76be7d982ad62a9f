//! Result checks. Each compares an answer against a property or an
//! independent computation (the other evaluator, the reference oracle, a
//! batch rebuild, the library behind the CLI), never against stored
//! output. They run untimed.

use crate::inputs::{self, Class, Rng, PATTERNS};
use approxql_core::schema_eval::SchemaEvalConfig;
use approxql_core::{Database, EvalOptions, QueryHit, ReferenceEvaluator};
use approxql_cost::Cost;
use approxql_gen::{QueryGenConfig, QueryGenerator};
use approxql_query::parse_query;
use approxql_xml::Document;
use std::collections::HashMap;

/// A result list as (root preorder, cost) pairs.
pub type Hits = Vec<(u32, Cost)>;

pub fn pairs(hits: &[QueryHit]) -> Hits {
    hits.iter().map(|h| (h.root.0, h.cost)).collect()
}

/// At most `n` results, in nondecreasing cost order, no root twice.
pub fn check_list(hits: &[(u32, Cost)], n: usize) -> Result<(), String> {
    if hits.len() > n {
        return Err(format!("{} results for top-{n}", hits.len()));
    }
    if let Some(w) = hits.windows(2).find(|w| w[0].1 > w[1].1) {
        return Err(format!(
            "not cost-sorted: cost {} before cost {}",
            w[0].1, w[1].1
        ));
    }
    let mut roots: Vec<u32> = hits.iter().map(|h| h.0).collect();
    roots.sort_unstable();
    if roots.windows(2).any(|w| w[0] == w[1]) {
        return Err("a result root appears twice".into());
    }
    Ok(())
}

/// `top` is a best-`n` answer drawn from the complete list `all`: its
/// costs are the first `n` costs of `all`, and each of its hits is in
/// `all` at the same cost (ties at the boundary may be broken either
/// way).
pub fn check_prefix(top: &[(u32, Cost)], all: &[(u32, Cost)], n: usize) -> Result<(), String> {
    check_list(top, n)?;
    let want: Vec<Cost> = all.iter().take(n).map(|h| h.1).collect();
    let got: Vec<Cost> = top.iter().map(|h| h.1).collect();
    if got != want {
        return Err(format!("top-{n} costs {got:?}, expected {want:?}"));
    }
    let by_root: HashMap<u32, Cost> = all.iter().copied().collect();
    for &(root, cost) in top {
        if by_root.get(&root) != Some(&cost) {
            return Err(format!(
                "hit {root} at cost {cost} is not in the full answer"
            ));
        }
    }
    Ok(())
}

/// One draw's answers: each a valid top-`n` list, and the schema-driven
/// costs equal the direct ones.
pub fn check_draw(direct: &[(u32, Cost)], schema: &[(u32, Cost)], n: usize) -> Result<(), String> {
    check_list(direct, n)?;
    check_list(schema, n)?;
    let dc: Vec<Cost> = direct.iter().map(|h| h.1).collect();
    let sc: Vec<Cost> = schema.iter().map(|h| h.1).collect();
    if dc != sc {
        return Err(format!("schema costs {sc:?}, direct costs {dc:?}"));
    }
    Ok(())
}

/// Two answers to the same query are identical, hit for hit.
pub fn check_same(a: &[(u32, Cost)], b: &[(u32, Cost)], what: &str) -> Result<(), String> {
    if a != b {
        return Err(format!("{what}: {a:?} differs from {b:?}"));
    }
    Ok(())
}

/// The CLI's standard output equals the library's answer rendered the
/// way `approxql query --xml` prints it.
pub fn check_cli_output(cli: &[u8], expected: &str) -> Result<(), String> {
    if cli != expected.as_bytes() {
        return Err(format!(
            "CLI printed {} bytes that differ from the library's {}-byte answer",
            cli.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Two multisets of (cost, result subtree) are equal.
pub fn check_multiset(
    mut a: Vec<(Cost, String)>,
    mut b: Vec<(Cost, String)>,
    what: &str,
) -> Result<(), String> {
    a.sort();
    b.sort();
    if a != b {
        return Err(format!(
            "{what}: {} (cost, subtree) pairs differ from {}",
            a.len(),
            b.len()
        ));
    }
    Ok(())
}

/// The (cost, result subtree) multiset of every hit of the complete
/// direct answer costing at most `bound`.
pub fn subtrees_upto(
    db: &Database,
    all: &[QueryHit],
    bound: Cost,
) -> Result<Vec<(Cost, String)>, String> {
    all.iter()
        .filter(|h| h.cost <= bound)
        .map(|h| {
            db.result_element(*h)
                .map(|root| (h.cost, Document { root }.to_xml_string()))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Classes the reference oracle checks on the side collection. It
/// enumerates every combination of deletions and renamings, so pattern 3
/// with renamings and pattern 2 with ten are out of its reach.
pub const REFERENCE_CLASSES: [Class; 6] = [(1, 0), (1, 5), (1, 10), (2, 0), (2, 5), (3, 0)];

/// Direct top-`n` equals the oracle's top-`n` exactly (both break ties by
/// preorder); schema-driven top-`n` is a best-`n` answer of the oracle's
/// complete list.
pub fn check_against_reference(
    direct: &[(u32, Cost)],
    schema: &[(u32, Cost)],
    reference: &[(u32, Cost)],
    n: usize,
) -> Result<(), String> {
    let want: Vec<(u32, Cost)> = reference.iter().take(n).copied().collect();
    check_same(direct, &want, "direct vs reference")?;
    check_prefix(schema, reference, n)
}

/// On a small side collection from the same generator, both evaluators
/// equal the reference evaluator for one query of every class in
/// [`REFERENCE_CLASSES`], each under its own generated cost table.
/// Returns the number of queries checked.
pub fn reference_side_check(seed: u64, n: usize) -> Result<usize, String> {
    let docs: Vec<Document> = inputs::collection_texts(inputs::SIDE_DIV)
        .iter()
        .map(|t| approxql_xml::parse_document(t).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let (tree, index) = inputs::label_tree(&docs);
    let opts = EvalOptions {
        threads: 1,
        ..EvalOptions::default()
    };
    for (ci, &(pattern, renamings)) in REFERENCE_CLASSES.iter().enumerate() {
        let mut qgen = QueryGenerator::new(
            &tree,
            &index,
            QueryGenConfig {
                renamings_per_label: renamings,
                seed: Rng::new(seed, 0x300 + ci as u64).next_u64(),
                ..QueryGenConfig::default()
            },
        );
        let g = qgen.generate(PATTERNS[pattern - 1]);
        let db = Database::from_tree(tree.clone(), g.costs.clone());
        let query = parse_query(&g.query).map_err(|e| e.to_string())?;
        let reference = ReferenceEvaluator::new(db.tree(), db.costs()).best_n(&query, None, true);
        let direct = db
            .query_direct_with(g.query.as_str(), Some(n), opts)
            .map_err(|e| e.to_string())?
            .0;
        let schema = db
            .query_schema_with(g.query.as_str(), n, opts, SchemaEvalConfig::default())
            .map_err(|e| e.to_string())?
            .0;
        check_against_reference(&pairs(&direct), &pairs(&schema), &reference, n)
            .map_err(|e| format!("side collection, {}: {e}", g.query))?;
    }
    Ok(REFERENCE_CLASSES.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: u64) -> Cost {
        Cost::finite(v)
    }

    fn all() -> Hits {
        vec![(5, c(0)), (9, c(1)), (2, c(1)), (7, c(3)), (1, c(4))]
    }

    #[test]
    fn list_check_rejects_unsorted_long_and_duplicate_lists() {
        assert!(check_list(&all(), 5).is_ok());
        assert!(check_list(&all(), 4).is_err());
        let mut unsorted = all();
        unsorted.swap(0, 3);
        assert!(check_list(&unsorted, 5).is_err());
        let mut dup = all();
        dup[1].0 = 5;
        assert!(check_list(&dup, 5).is_err());
    }

    #[test]
    fn prefix_check_allows_boundary_ties_only() {
        let full = all();
        // Either hit of the cost-1 tie may fill the second slot.
        assert!(check_prefix(&[(5, c(0)), (2, c(1))], &full, 2).is_ok());
        assert!(check_prefix(&[(5, c(0)), (9, c(1))], &full, 2).is_ok());
        // A wrong cost, a foreign root and a short list all fail.
        assert!(check_prefix(&[(5, c(0)), (7, c(3))], &full, 2).is_err());
        assert!(check_prefix(&[(5, c(0)), (8, c(1))], &full, 2).is_err());
        assert!(check_prefix(&[(5, c(0))], &full, 2).is_err());
        assert!(check_prefix(&[(5, c(1)), (9, c(1))], &full, 2).is_err());
    }

    #[test]
    fn same_check_rejects_any_difference() {
        assert!(check_same(&all(), &all(), "x").is_ok());
        let mut other = all();
        other[4].1 = c(5);
        assert!(check_same(&all(), &other, "x").is_err());
        assert!(check_same(&all(), &all()[..4], "x").is_err());
    }

    #[test]
    fn reference_check_rejects_corrupted_answers() {
        let reference = all();
        let direct: Hits = reference[..3].to_vec();
        let schema = vec![(5, c(0)), (2, c(1)), (9, c(1))];
        assert!(check_against_reference(&direct, &schema, &reference, 3).is_ok());
        let mut bad_direct = direct.clone();
        bad_direct.swap(1, 2);
        assert!(check_against_reference(&bad_direct, &schema, &reference, 3).is_err());
        let mut bad_schema = schema.clone();
        bad_schema[2] = (7, c(3));
        assert!(check_against_reference(&direct, &bad_schema, &reference, 3).is_err());
    }

    #[test]
    fn cli_and_multiset_checks_reject_corruption() {
        assert!(check_cli_output(b"<a/>\n", "<a/>\n").is_ok());
        assert!(check_cli_output(b"<b/>\n", "<a/>\n").is_err());
        let a = vec![(c(1), "<a/>".to_string()), (c(0), "<b/>".to_string())];
        let mut b = a.clone();
        b.reverse();
        assert!(check_multiset(a.clone(), b, "x").is_ok());
        let corrupted = vec![(c(1), "<a/>".to_string()), (c(1), "<b/>".to_string())];
        assert!(check_multiset(a, corrupted, "x").is_err());
    }

    #[test]
    fn side_collection_agrees_with_the_reference() {
        assert_eq!(reference_side_check(1, 10), Ok(REFERENCE_CLASSES.len()));
    }
}
