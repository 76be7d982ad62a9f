//! `warm_query`: one store opened once, then a skewed mix of Figure-7
//! queries, each draw run top-10 by both evaluators back to back and its
//! hits rendered, rotating through the three query surfaces. Every round
//! runs the same 90 draws in a seeded order.

use crate::checks::{self, pairs, Hits};
use crate::inputs::{self, surface_of, Rng};
use crate::path::{self, err, Answer, Evaluator, TOP_N};
use crate::proc;
use crate::report::Outcome;
use crate::setup::{self, Spec};
use crate::stats::{iqm, median, tail};
use crate::trace::Tracer;
use crate::RunArgs;
use approxql_core::{Database, Surface};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// Draws per round of each class's members, by popularity rank: a
/// Zipf-like skew over 6 queries per class, 9 × 6 = 54 queries in all,
/// more than the plan cache's 32 entries. 90 draws per round.
const COUNTS: [usize; 6] = [4, 2, 1, 1, 1, 1];
const PER_CLASS: usize = COUNTS.len();
/// Rounds of a traced run.
const TRACE_ROUNDS: usize = 1;

pub const SPEC: Spec = Spec {
    div: inputs::WARM_DIV,
    classes: &inputs::FIGURE7_CLASSES,
    per_class: PER_CLASS,
    hold_out_every: 0,
};

pub fn run(args: &RunArgs, dir: &Path) -> Result<Outcome, String> {
    let store = setup::store_path(dir);
    let mut tr = Tracer::new(args.trace);
    let (setup_times, (built, db)) = if args.trace {
        let r = tr.span("setup", |tr| -> Result<_, String> {
            let built = setup::build(SPEC, dir, tr)?;
            let db = path::open_database(&store, tr)?;
            Ok((built, db))
        })?;
        (Vec::new(), r)
    } else {
        setup::repeated("warm_query", dir, || {
            let built = setup::read_manifest(dir)?;
            let db = Database::open(&store).map_err(err)?;
            Ok((built, db))
        })?
    };

    let classes = SPEC.classes.len();
    let mut rng = Rng::new(args.seed, 0x200);
    let mut direct_ms = Vec::new();
    let mut schema_ms = Vec::new();
    let mut draw_ms = Vec::new();
    let mut problems = Vec::new();
    // First answer seen per (query, evaluator): every later draw of the
    // query must return the same hits.
    let mut first: HashMap<(usize, Evaluator), Hits> = HashMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut round = 0;
    let mut draw_no = 0;
    loop {
        let done = if args.trace {
            round >= TRACE_ROUNDS
        } else {
            round > 0 && start.elapsed().as_secs_f64() >= args.seconds as f64
        };
        if done {
            break;
        }
        let len = inputs::round_size(classes, &COUNTS);
        for qi in inputs::round_plan(classes, &COUNTS, len, &mut rng) {
            let surface = surface_of(draw_no);
            draw_no += 1;
            let text = built.pool[qi].text(surface);
            let t_draw = Instant::now();
            let answers = path::draw(&db, text, surface, &mut tr);
            draw_ms.push(t_draw.elapsed().as_secs_f64() * 1e3);
            attempted += 2;
            for a in &answers {
                match &a.hits {
                    Ok(got) => {
                        match a.ev {
                            Evaluator::Direct => direct_ms.push(a.ms),
                            Evaluator::Schema => schema_ms.push(a.ms),
                        }
                        let seen = first.entry((qi, a.ev)).or_insert_with(|| got.clone());
                        if let Err(e) = checks::check_same(got, seen, "repeated draws disagree") {
                            problems.push(format!("{text}: {e}"));
                        }
                    }
                    Err(e) => {
                        failed += 1;
                        problems.push(format!("{text}: {e}"));
                    }
                }
            }
            if let [Answer { hits: Ok(d), .. }, Answer { hits: Ok(s), .. }] = &answers {
                if let Err(e) = checks::check_draw(d, s, TOP_N) {
                    problems.push(format!("{text}: {e}"));
                }
            }
        }
        round += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();
    let peak_kib = proc::self_peak_rss_kib();

    // Result checks, untimed: each drawn query on all three surfaces, and
    // its two answers against its complete direct answer.
    let mut drawn: Vec<usize> = first.keys().map(|&(q, _)| q).collect();
    drawn.sort_unstable();
    drawn.dedup();
    let mut quiet = Tracer::new(false);
    for &qi in &drawn {
        for ev in Evaluator::BOTH {
            let answers: Vec<(Surface, Hits)> = Surface::ALL
                .iter()
                .map(|&sf| {
                    let hits = path::query(&db, built.pool[qi].text(sf), sf, ev, &mut quiet)?;
                    Ok((sf, pairs(&hits)))
                })
                .collect::<Result<_, String>>()?;
            let (_, classic) = &answers[0];
            for (sf, hits) in &answers[1..] {
                let what = format!("{ev:?} on {sf:?} vs classic surface");
                if let Err(e) = checks::check_same(hits, classic, &what) {
                    problems.push(format!("{}: {e}", built.pool[qi].classic()));
                }
            }
        }
        let text = built.pool[qi].classic();
        let all = pairs(&path::query_all(&db, text)?);
        if let Some(d) = first.get(&(qi, Evaluator::Direct)) {
            if let Err(e) =
                checks::check_same(d, &all[..all.len().min(TOP_N)], "direct vs complete answer")
            {
                problems.push(format!("{text}: {e}"));
            }
        }
        if let Some(s) = first.get(&(qi, Evaluator::Schema)) {
            if let Err(e) = checks::check_prefix(s, &all, TOP_N) {
                problems.push(format!("{text}: {e}"));
            }
        }
    }
    if let Err(e) = checks::reference_side_check(args.seed, TOP_N) {
        problems.push(e);
    }

    let mut notes = problems.clone();
    let mut metrics = BTreeMap::new();
    if args.trace {
        crate::finish_trace(&tr, args, &store, &mut metrics, &mut notes)?;
    } else {
        metrics.insert("setup_s", median(&setup_times).unwrap_or(0.0));
        metrics.insert("peak_rss_mb", peak_kib as f64 / 1024.0);
        metrics.insert(
            "store_bytes_per_input_byte",
            path::file_len(&store) as f64 / built.input_bytes as f64,
        );
        metrics.insert("request_iqm_ms", iqm(&draw_ms));
        metrics.insert("direct_iqm_ms", iqm(&direct_ms));
        metrics.insert("schema_iqm_ms", iqm(&schema_ms));
        metrics.insert(
            "queries_per_s",
            (direct_ms.len() + schema_ms.len()) as f64 / loop_s,
        );
        for (name, v) in [("direct", &direct_ms), ("schema", &schema_ms)] {
            notes.push(format!("{name}_p50_ms: {:.3}", median(v).unwrap_or(0.0)));
            notes.push(match tail(v) {
                Some(t) => format!(
                    "{name}_tail_ms: p{} = {:.3} ms over {} samples ({} beyond)",
                    t.percentile, t.value, t.samples, t.beyond
                ),
                None => format!("{name}_tail_ms: only {} samples, no tail", v.len()),
            });
        }
        notes.push(format!(
            "{draw_no} draws of {} distinct queries in {loop_s:.1} s; set-ups {setup_times:.3?} s",
            drawn.len()
        ));
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
    })
}
