//! Metric names, the per-layer summary of a traced run, and the result
//! line.

use crate::trace::Span;
use approxql_metrics::{Metric, TimerMetric};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs), with units. Every workload reports
/// every one; README.md gives each one's meaning per workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("store_bytes_per_input_byte", "ratio"),
    ("request_iqm_ms", "ms"),
    ("direct_iqm_ms", "ms"),
    ("schema_iqm_ms", "ms"),
    ("queries_per_s", "1/s"),
];

/// Per-layer metrics (traced runs), with units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("storage.open_ms", "ms"),
    ("storage.page_reads", "count"),
    ("storage.cache_misses", "count"),
    ("storage.btree_node_reads", "count"),
    ("storage.commit_ms", "ms"),
    ("storage.backend_writes", "count"),
    ("storage.file_growth_bytes", "bytes"),
    ("tree.load_ms", "ms"),
    ("index.label_load_ms", "ms"),
    ("index.secondary_load_ms", "ms"),
    ("index.postings_fetched", "count"),
    ("postings.blocks_decoded", "count"),
    ("postings.blocks_skipped", "count"),
    ("postings.skip_ratio", "ratio"),
    ("schema.assemble_ms", "ms"),
    ("query.compile_ms", "ms"),
    ("plan.lookup_ms", "ms"),
    ("plan.cache_hit_ratio", "ratio"),
    ("plan.invalidations", "count"),
    ("core.direct_eval_ms", "ms"),
    ("list.entries_per_result", "ratio"),
    ("core.schema_eval_ms", "ms"),
    ("eval.schema_rounds", "count"),
    ("eval.second_level_queries", "count"),
    ("topk.entries_produced", "count"),
    ("eval.second_level_per_result", "ratio"),
    ("core.open_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.persist_ms", "ms"),
    ("xml.parse_ms", "ms"),
    ("cli.render_ms", "ms"),
    ("cli.process_ms", "ms"),
];

/// Workload names.
pub const WORKLOADS: [&str; 3] = ["cold_query", "warm_query", "mutate"];

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn median_or_zero(v: &[f64]) -> f64 {
    crate::stats::median(v).unwrap_or(0.0)
}

fn mean_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Self time: duration minus the durations of its direct children.
fn self_ns(spans: &[Span], i: usize) -> f64 {
    let children: u64 = spans
        .iter()
        .filter(|c| c.parent == Some(i))
        .map(Span::duration_ns)
        .sum();
    spans[i].duration_ns().saturating_sub(children) as f64
}

fn is_query_request(s: &Span) -> bool {
    matches!(s.name, "request.direct" | "request.schema")
}

fn is_mutation_request(s: &Span) -> bool {
    matches!(
        s.name,
        "request.insert" | "request.novel_insert" | "request.delete"
    )
}

/// The per-layer metrics of a traced run. Layer times are medians of the
/// layer's spans' self times; work counts are means per request (or per
/// call of the layer named); ratios are sums over sums. Set-up is traced
/// too, so each layer's time has at least one span in every workload.
pub fn per_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let idx = |name: &str| -> Vec<usize> {
        (0..spans.len())
            .filter(|&i| spans[i].name == name)
            .collect()
    };
    let self_median = |name: &str| {
        median_or_zero(
            &idx(name)
                .iter()
                .map(|&i| ms(self_ns(spans, i)))
                .collect::<Vec<_>>(),
        )
    };
    let mean_over = |sel: &dyn Fn(&Span) -> bool, m: Metric| {
        mean_or_zero(
            &spans
                .iter()
                .filter(|s| sel(s))
                .map(|s| s.delta.get(m) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let sum_over = |sel: &dyn Fn(&Span) -> bool, m: Metric| -> f64 {
        spans
            .iter()
            .filter(|s| sel(s))
            .map(|s| s.delta.get(m) as f64)
            .sum()
    };
    let hits_of = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.hits as f64)
            .sum()
    };
    let any_request = |s: &Span| is_query_request(s) || is_mutation_request(s);
    let persist = idx("core.persist");
    let direct_eval = |s: &Span| s.name == "core.direct_eval";
    let schema_eval = |s: &Span| s.name == "core.schema_eval";
    let lookup = |s: &Span| s.name == "plan.lookup";

    let mut out = BTreeMap::new();
    out.insert("storage.open_ms", self_median("storage.open"));
    out.insert(
        "storage.page_reads",
        mean_over(&any_request, Metric::PagerPageReads),
    );
    out.insert(
        "storage.cache_misses",
        mean_over(&any_request, Metric::PagerCacheMisses),
    );
    out.insert(
        "storage.btree_node_reads",
        mean_over(&any_request, Metric::BtreeNodeReads),
    );
    out.insert(
        "storage.commit_ms",
        median_or_zero(
            &persist
                .iter()
                .map(|&i| ms(spans[i].delta.timer(TimerMetric::StoreCommit).total_ns as f64))
                .collect::<Vec<_>>(),
        ),
    );
    out.insert(
        "storage.backend_writes",
        median_or_zero(
            &persist
                .iter()
                .map(|&i| spans[i].delta.get(Metric::PagerBackendWrites) as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.insert(
        "storage.file_growth_bytes",
        median_or_zero(
            &persist
                .iter()
                .map(|&i| spans[i].growth_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.insert("tree.load_ms", self_median("tree.load"));
    out.insert("index.label_load_ms", self_median("index.label_load"));
    out.insert(
        "index.secondary_load_ms",
        self_median("index.secondary_load"),
    );
    out.insert(
        "index.postings_fetched",
        mean_over(&is_query_request, Metric::IndexPostingsFetched),
    );
    let decoded = sum_over(&is_query_request, Metric::PostingsBlocksDecoded);
    let skipped = sum_over(&is_query_request, Metric::PostingsBlocksSkipped);
    out.insert(
        "postings.blocks_decoded",
        mean_over(&is_query_request, Metric::PostingsBlocksDecoded),
    );
    out.insert(
        "postings.blocks_skipped",
        mean_over(&is_query_request, Metric::PostingsBlocksSkipped),
    );
    out.insert("postings.skip_ratio", ratio(skipped, decoded + skipped));
    out.insert("schema.assemble_ms", self_median("schema.assemble"));
    out.insert("query.compile_ms", self_median("query.compile"));
    out.insert("plan.lookup_ms", self_median("plan.lookup"));
    let hits = sum_over(&lookup, Metric::PlanCacheHits);
    let misses = sum_over(&lookup, Metric::PlanCacheMisses);
    out.insert("plan.cache_hit_ratio", ratio(hits, hits + misses));
    out.insert(
        "plan.invalidations",
        mean_over(&is_mutation_request, Metric::PlanCacheInvalidations),
    );
    out.insert("core.direct_eval_ms", self_median("core.direct_eval"));
    out.insert(
        "list.entries_per_result",
        ratio(
            sum_over(&direct_eval, Metric::ListEntriesProduced),
            hits_of("core.direct_eval"),
        ),
    );
    out.insert("core.schema_eval_ms", self_median("core.schema_eval"));
    out.insert(
        "eval.schema_rounds",
        mean_over(&schema_eval, Metric::EvalSchemaRounds),
    );
    out.insert(
        "eval.second_level_queries",
        mean_over(&schema_eval, Metric::EvalSecondLevelQueries),
    );
    out.insert(
        "topk.entries_produced",
        mean_over(&schema_eval, Metric::TopkEntriesProduced),
    );
    out.insert(
        "eval.second_level_per_result",
        ratio(
            sum_over(&schema_eval, Metric::EvalSecondLevelQueries),
            hits_of("core.schema_eval"),
        ),
    );
    out.insert("core.open_ms", self_median("core.open"));
    out.insert("core.apply_ms", self_median("core.apply"));
    out.insert(
        "core.persist_ms",
        median_or_zero(
            &persist
                .iter()
                .map(|&i| ms((self_ns(spans, i) - spans[i].minus_ns as f64).max(0.0)))
                .collect::<Vec<_>>(),
        ),
    );
    out.insert("xml.parse_ms", self_median("xml.parse"));
    out.insert("cli.render_ms", self_median("cli.render"));
    // A request's wall time (the CLI child's when there is one) minus the
    // layer spans inside it: process start-up, argument parsing and
    // output for a CLI request, the loop's own bookkeeping otherwise.
    out.insert(
        "cli.process_ms",
        median_or_zero(
            &(0..spans.len())
                .filter(|&i| is_query_request(&spans[i]))
                .map(|i| {
                    let s = &spans[i];
                    let inner = s.duration_ns() as f64 - self_ns(spans, i);
                    let wall = s.external_ns.unwrap_or(s.duration_ns()) as f64;
                    ms((wall - inner).max(0.0))
                })
                .collect::<Vec<_>>(),
        ),
    );
    out
}

/// The share of `core.open` (the whole `Database::open`) that the
/// layer-by-layer open spans do not account for, from medians.
pub fn open_unattributed_share(layer: &BTreeMap<&'static str, f64>) -> f64 {
    let parts: f64 = [
        "storage.open_ms",
        "tree.load_ms",
        "index.label_load_ms",
        "index.secondary_load_ms",
        "schema.assemble_ms",
    ]
    .iter()
    .map(|k| layer[k])
    .sum();
    ratio(layer["core.open_ms"] - parts, layer["core.open_ms"])
}

/// A finished run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// Prints the notes, one `name value unit` line per metric, and the JSON
/// result line last. Panics if the metric set is not exactly `expected`:
/// that is a bug in the benchmark.
pub fn print(o: &Outcome, expected: &[(&str, &str)]) {
    let names: Vec<&str> = o.metrics.keys().copied().collect();
    let mut want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    want.sort_unstable();
    assert_eq!(
        names, want,
        "the run must report exactly the listed metrics"
    );
    for n in &o.notes {
        println!("# {n}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, unit)) in expected.iter().enumerate() {
        let v = o.metrics[name];
        assert!(v.is_finite(), "{name} is not a finite number");
        println!("{name} {v} {unit}");
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");
    println!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_query::json;

    fn names_in(doc: &json::Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(json::Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(json::Json::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let pairs = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_in(&doc, "end_to_end"), pairs(&END_TO_END));
        assert_eq!(names_in(&doc, "per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<String> = names_in(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
