//! `cold_query`: every request is a fresh `approxql query <store> Q -n 10
//! --xml --threads 1` process, alternating `--direct` and `--schema`, so
//! each one pays for the whole `Database::open`.

use crate::checks::{self, pairs};
use crate::inputs::{self, Class, Rng};
use crate::path::{self, err, Evaluator, TOP_N};
use crate::proc::{self, ChildRun};
use crate::report::Outcome;
use crate::setup::{self, Spec};
use crate::stats::{iqm, median};
use crate::trace::Tracer;
use crate::RunArgs;
use approxql_core::{Database, Surface};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Patterns 1–3 without renamings: evaluation is a small part of such a
/// request, which is nearly all open.
const CLASSES: [Class; 3] = [(1, 0), (2, 0), (3, 0)];

pub const SPEC: Spec = Spec {
    div: inputs::COLD_DIV,
    classes: &CLASSES,
    per_class: 4,
    hold_out_every: 0,
};

/// Rounds (one query, both evaluators) of a traced run.
const TRACE_ROUNDS: usize = 2;

/// The `approxql` binary the build wrapper names.
fn cli_path() -> Result<String, String> {
    std::env::var("PERFBENCH_APPROXQL")
        .map_err(|_| "PERFBENCH_APPROXQL is not set; run through perfbench/run.sh".to_string())
}

fn cli_request(cli: &str, store: &Path, query: &str, ev: Evaluator) -> Result<ChildRun, String> {
    proc::run_measured(Command::new(cli).arg("query").arg(store).arg(query).args([
        "-n",
        &TOP_N.to_string(),
        "--xml",
        "--threads",
        "1",
        ev.flag(),
    ]))
    .map_err(err)
}

/// One finished request.
struct Request {
    query: usize,
    ev: Evaluator,
    run: ChildRun,
}

pub fn run(args: &RunArgs, dir: &Path) -> Result<Outcome, String> {
    let store = setup::store_path(dir);
    let mut tr = Tracer::new(args.trace);
    let (setup_times, built) = if args.trace {
        let built = tr.span("setup", |tr| setup::build(SPEC, dir, tr))?;
        (Vec::new(), built)
    } else {
        setup::repeated("cold_query", dir, || setup::read_manifest(dir))?
    };
    let cli = cli_path()?;
    let mut order: Vec<usize> = (0..built.pool.len()).collect();
    Rng::new(args.seed, 0x400).shuffle(&mut order);

    let mut requests: Vec<Request> = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    loop {
        let done = if args.trace {
            round >= TRACE_ROUNDS
        } else {
            round > 0 && start.elapsed().as_secs_f64() >= args.seconds as f64
        };
        if done {
            break;
        }
        let qi = order[round % order.len()];
        let text = built.pool[qi].classic();
        for ev in Evaluator::BOTH {
            let run = cli_request(&cli, &store, text, ev)?;
            if tr.is_on() {
                replay(&store, text, ev, &run, &mut tr)?;
            }
            requests.push(Request { query: qi, ev, run });
        }
        round += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();

    // Result checks, untimed.
    let failed = requests.iter().filter(|r| r.run.code != Some(0)).count() as u64;
    let mut problems = Vec::new();
    for r in requests.iter().filter(|r| r.run.code != Some(0)) {
        problems.push(format!(
            "CLI request failed: {}",
            String::from_utf8_lossy(&r.run.stderr).trim()
        ));
    }
    let db = Database::open(&store).map_err(err)?;
    let mut expected: HashMap<(usize, Evaluator), String> = HashMap::new();
    let mut quiet = Tracer::new(false);
    for r in requests.iter().filter(|r| r.run.code == Some(0)) {
        let text = built.pool[r.query].classic();
        let want = match expected.entry((r.query, r.ev)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let hits = path::query(&db, text, Surface::Classic, r.ev, &mut quiet)?;
                let all = path::query_all(&db, text)?;
                let verdict = match r.ev {
                    Evaluator::Direct => checks::check_same(
                        &pairs(&hits),
                        &pairs(&all[..all.len().min(TOP_N)]),
                        "direct top-10 vs complete answer",
                    ),
                    Evaluator::Schema => checks::check_prefix(&pairs(&hits), &pairs(&all), TOP_N),
                };
                if let Err(e) = verdict {
                    problems.push(format!("{text}: {e}"));
                }
                e.insert(path::render(&db, &hits, &mut quiet)?)
            }
        };
        if let Err(e) = checks::check_cli_output(&r.run.stdout, want) {
            problems.push(format!("{text}: {e}"));
        }
    }
    drop(db);
    if let Err(e) = checks::reference_side_check(args.seed, TOP_N) {
        problems.push(e);
    }

    let mut notes = problems.clone();
    let mut metrics = BTreeMap::new();
    if args.trace {
        crate::finish_trace(&tr, args, &store, &mut metrics, &mut notes)?;
    } else {
        let walls = |ev: Option<Evaluator>| -> Vec<f64> {
            requests
                .iter()
                .filter(|r| ev.is_none_or(|e| r.ev == e))
                .map(|r| r.run.wall.as_secs_f64() * 1e3)
                .collect()
        };
        let peak_kib = requests
            .iter()
            .map(|r| r.run.max_rss_kib)
            .max()
            .unwrap_or(0);
        metrics.insert("setup_s", median(&setup_times).unwrap_or(0.0));
        metrics.insert("peak_rss_mb", peak_kib as f64 / 1024.0);
        metrics.insert(
            "store_bytes_per_input_byte",
            path::file_len(&store) as f64 / built.input_bytes as f64,
        );
        metrics.insert("request_iqm_ms", iqm(&walls(None)));
        metrics.insert("direct_iqm_ms", iqm(&walls(Some(Evaluator::Direct))));
        metrics.insert("schema_iqm_ms", iqm(&walls(Some(Evaluator::Schema))));
        notes.push(format!(
            "request_p50_ms: {:.3}",
            median(&walls(None)).unwrap_or(0.0)
        ));
        metrics.insert("queries_per_s", requests.len() as f64 / loop_s);
        notes.push(format!(
            "{} CLI requests in {loop_s:.1} s; store {} bytes for {} XML bytes; set-ups {setup_times:.3?} s",
            requests.len(),
            path::file_len(&store),
            built.input_bytes
        ));
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: requests.len() as u64,
        failed,
        metrics,
        notes,
    })
}

/// Repeats a CLI request in process, span by span: the layer-by-layer
/// open, then the request itself (open, query, render), whose output must
/// equal the CLI's.
fn replay(
    store: &Path,
    text: &str,
    ev: Evaluator,
    cli: &ChildRun,
    tr: &mut Tracer,
) -> Result<(), String> {
    tr.next_request();
    let shape = path::open_layers(store, tr)?;
    let (out, id) = tr.span_id(ev.request_span(), |tr| -> Result<_, String> {
        let db = tr
            .span("core.open", |_| Database::open(store))
            .map_err(err)?;
        let hits = path::query(&db, text, Surface::Classic, ev, tr)?;
        Ok((path::render(&db, &hits, tr)?, db))
    });
    tr.annotate(id, |s| {
        s.external_ns = Some(u64::try_from(cli.wall.as_nanos()).unwrap_or(u64::MAX))
    });
    let (out, db) = out?;
    shape.check(&db)?;
    checks::check_cli_output(&cli.stdout, &out)
}
