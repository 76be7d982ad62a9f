//! Set-up: generate the inputs and build the store.
//!
//! Untraced runs build in a child process (`perfbench setup …`), so the
//! process that then serves requests holds only what it opened and its
//! peak resident memory says so; the parent times the child. Traced runs
//! build in process, inside spans.

use crate::inputs::{self, Class, PoolQuery};
use crate::path::{err, file_len};
use crate::trace::Tracer;
use approxql_core::{Database, DbFile};
use approxql_xml::{parse_document, Document};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// What one workload builds.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Scale divisor of the collection.
    pub div: usize,
    /// Query classes of the pool, and queries per class.
    pub classes: &'static [Class],
    pub per_class: usize,
    /// Hold one document in this many out of the store, as the insert
    /// pool (0: store everything).
    pub hold_out_every: usize,
}

/// The set-up's outputs, as the serving side needs them.
pub struct Built {
    pub pool: Vec<PoolQuery>,
    /// XML bytes of the stored documents.
    pub input_bytes: u64,
    /// Stored documents' XML text, in store order (mutate only).
    pub stored: Vec<String>,
    /// Held-out documents' XML text (mutate only).
    pub held: Vec<String>,
}

pub fn store_path(dir: &Path) -> PathBuf {
    dir.join("store.axql")
}

/// Splits the collection: every `every`-th document is held out.
fn split(texts: Vec<String>, every: usize) -> (Vec<String>, Vec<String>) {
    if every == 0 {
        return (texts, Vec::new());
    }
    let mut stored = Vec::new();
    let mut held = Vec::new();
    for (i, t) in texts.into_iter().enumerate() {
        if i % every == every - 1 {
            held.push(t);
        } else {
            stored.push(t);
        }
    }
    (stored, held)
}

/// Generates the collection, parses its XML text, draws the query pool,
/// builds the database under the pool's merged cost model and writes the
/// store file at `dir` with one commit.
pub fn build(spec: Spec, dir: &Path, tr: &mut Tracer) -> Result<Built, String> {
    let (stored, held) = split(inputs::collection_texts(spec.div), spec.hold_out_every);
    let docs: Vec<Document> = stored
        .iter()
        .map(|t| tr.span("xml.parse", |_| parse_document(t)).map_err(err))
        .collect::<Result<_, _>>()?;
    let (tree, index) = inputs::label_tree(&docs);
    let (pool, costs) = inputs::generate_pool(
        &tree,
        &index,
        inputs::POOL_SEED,
        spec.classes,
        spec.per_class,
    );
    drop(index);
    let db = tr.span("core.apply", |_| Database::from_tree(tree, costs));
    let path = store_path(dir);
    let (file, id) = tr.span_id("core.persist", |_| DbFile::create(&path, db));
    file.map_err(err)?;
    let growth = file_len(&path) as i64;
    tr.annotate(id, |s| s.growth_bytes = growth);
    Ok(Built {
        pool,
        input_bytes: stored.iter().map(|t| t.len() as u64).sum(),
        stored,
        held,
    })
}

/// Writes the serving side's inputs next to the store: the pool (one
/// `class<TAB>query` line each, after an `input_bytes` line) and the
/// documents (`s`tored or `h`eld, a tab, the XML text; one per line).
fn write_manifest(built: &Built, dir: &Path) -> Result<(), String> {
    let mut pool = format!("input_bytes\t{}\n", built.input_bytes);
    for q in &built.pool {
        let _ = writeln!(pool, "{}\t{}", q.class, q.classic());
    }
    std::fs::write(dir.join("pool.tsv"), pool).map_err(err)?;
    let mut docs = String::new();
    for (tag, texts) in [("s", &built.stored), ("h", &built.held)] {
        for t in texts {
            debug_assert!(!t.contains('\n'), "serialized documents are one line");
            let _ = writeln!(docs, "{tag}\t{t}");
        }
    }
    std::fs::write(dir.join("docs.tsv"), docs).map_err(err)
}

/// Reads what [`write_manifest`] wrote.
pub fn read_manifest(dir: &Path) -> Result<Built, String> {
    let pool_text = std::fs::read_to_string(dir.join("pool.tsv")).map_err(err)?;
    let mut lines = pool_text.lines();
    let input_bytes = lines
        .next()
        .and_then(|l| l.strip_prefix("input_bytes\t"))
        .and_then(|v| v.parse().ok())
        .ok_or("pool.tsv lacks its input_bytes line")?;
    let pool = lines
        .map(|l| {
            let (class, text) = l.split_once('\t').ok_or("malformed pool line")?;
            let class = class.parse().map_err(err)?;
            Ok(PoolQuery::new(class, text.to_string()))
        })
        .collect::<Result<_, String>>()?;
    let docs_text = std::fs::read_to_string(dir.join("docs.tsv")).map_err(err)?;
    let mut stored = Vec::new();
    let mut held = Vec::new();
    for l in docs_text.lines() {
        match l.split_once('\t') {
            Some(("s", t)) => stored.push(t.to_string()),
            Some(("h", t)) => held.push(t.to_string()),
            _ => return Err("malformed docs line".into()),
        }
    }
    Ok(Built {
        pool,
        input_bytes,
        stored,
        held,
    })
}

/// The `perfbench setup` entry point of the child process.
pub fn child_main(spec: Spec, dir: &Path) -> Result<(), String> {
    let built = build(spec, dir, &mut Tracer::new(false))?;
    write_manifest(&built, dir)
}

/// Runs the set-up in a child process and waits for it.
pub fn run_child(workload: &str, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(err)?;
    let out = Command::new(exe)
        .args(["setup", "--workload", workload, "--dir"])
        .arg(dir)
        .output()
        .map_err(err)?;
    if !out.status.success() {
        return Err(format!(
            "set-up failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Runs the set-up [`SETUP_REPS`] times, each a fresh child process
/// followed by `then` in this process (the first open, where the workload
/// has one), and returns each repetition's seconds and the last result.
pub fn repeated<T>(
    workload: &str,
    dir: &Path,
    mut then: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let _ = std::fs::remove_file(store_path(dir));
        let t = std::time::Instant::now();
        run_child(workload, dir)?;
        last = Some(then()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((times, last.expect("at least one set-up")))
}
