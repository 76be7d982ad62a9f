//! The request path through the library's public entry points, with a
//! span around each layer's call when tracing is on.

use crate::checks::{pairs, Hits};
use crate::trace::Tracer;
use approxql_core::schema_eval::{self, SchemaEvalConfig};
use approxql_core::{direct, Database, DbFile, EvalOptions, QueryHit, QueryInput, Surface};
use approxql_cost::parse_cost_file;
use approxql_index::persist::{load_blob, load_label_index, load_secondary_index};
use approxql_index::LabelIndex;
use approxql_schema::Schema;
use approxql_storage::Store;
use approxql_tree::{decode_doc_segment, decode_docmap, decode_interner, DataTree, NodeId};
use approxql_xml::Document;
use std::fmt::Display;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Results per query: the top 10, as in the paper's experiments.
pub const TOP_N: usize = 10;

/// Error text of any library error.
pub fn err<E: Display>(e: E) -> String {
    e.to_string()
}

/// Evaluation at one thread (the `exec` layer is held fixed).
pub fn opts() -> EvalOptions {
    EvalOptions {
        threads: 1,
        enforce_leaf_match: true,
    }
}

/// The two evaluators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Evaluator {
    Direct,
    Schema,
}

impl Evaluator {
    pub const BOTH: [Evaluator; 2] = [Evaluator::Direct, Evaluator::Schema];

    /// The `approxql query` switch that selects it.
    pub fn flag(self) -> &'static str {
        match self {
            Evaluator::Direct => "--direct",
            Evaluator::Schema => "--schema",
        }
    }

    /// The name of a request span running it.
    pub fn request_span(self) -> &'static str {
        match self {
            Evaluator::Direct => "request.direct",
            Evaluator::Schema => "request.schema",
        }
    }
}

/// Runs one top-[`TOP_N`] query. Untraced it is one `query_direct_with` /
/// `query_schema_with` call; traced, the same steps are taken one public
/// call at a time: compile, plan-cache lookup, evaluation.
pub fn query(
    db: &Database,
    text: &str,
    surface: Surface,
    ev: Evaluator,
    tr: &mut Tracer,
) -> Result<Vec<QueryHit>, String> {
    let input = QueryInput::with_surface(text, surface);
    if !tr.is_on() {
        return match ev {
            Evaluator::Direct => db
                .query_direct_with(input, Some(TOP_N), opts())
                .map(|r| r.0),
            Evaluator::Schema => db
                .query_schema_with(input, TOP_N, opts(), SchemaEvalConfig::default())
                .map(|r| r.0),
        }
        .map_err(err);
    }
    let (q, ex) = tr
        .span("query.compile", |_| db.compile(input))
        .map_err(err)?;
    let plan = tr.span("plan.lookup", |_| db.plan_for(&q, &ex));
    let (pairs, id) = match ev {
        Evaluator::Direct => tr.span_id("core.direct_eval", |_| match &plan {
            Some(p) => {
                direct::best_n_plan(p, db.labels(), db.tree().interner(), Some(TOP_N), opts()).0
            }
            None => Vec::new(),
        }),
        Evaluator::Schema => tr.span_id("core.schema_eval", |_| {
            schema_eval::best_n_schema_with_plan(
                &ex,
                plan,
                db.schema(),
                db.tree().interner(),
                TOP_N,
                opts(),
                SchemaEvalConfig::default(),
            )
            .0
        }),
    };
    tr.annotate(id, |s| s.hits = pairs.len() as u64);
    Ok(pairs
        .into_iter()
        .map(|(pre, cost)| QueryHit {
            root: NodeId(pre),
            cost,
        })
        .collect())
}

/// One evaluator's answer within a draw.
pub struct Answer {
    pub ev: Evaluator,
    /// The hits, or the error the request returned.
    pub hits: Result<Hits, String>,
    /// The query call's wall time in milliseconds (rendering excluded).
    pub ms: f64,
}

/// One draw: `text` top-[`TOP_N`] by both evaluators back to back, each
/// in its own request span, each answer rendered to XML as the CLI
/// renders it.
pub fn draw(db: &Database, text: &str, surface: Surface, tr: &mut Tracer) -> [Answer; 2] {
    Evaluator::BOTH.map(|ev| {
        tr.next_request();
        let t = Instant::now();
        tr.span(ev.request_span(), |tr| {
            let hits = query(db, text, surface, ev, tr);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let hits = hits.and_then(|h| {
                black_box(render(db, &h, tr)?);
                Ok(pairs(&h))
            });
            Answer { ev, hits, ms }
        })
    })
}

/// The complete direct answer (no truncation), for the result checks.
pub fn query_all(db: &Database, text: &str) -> Result<Vec<QueryHit>, String> {
    db.query_direct_with(text, None, opts())
        .map(|r| r.0)
        .map_err(err)
}

/// Renders hits exactly as `approxql query --xml` prints them: each
/// result subtree materialized and serialized after a rank/cost comment.
pub fn render(db: &Database, hits: &[QueryHit], tr: &mut Tracer) -> Result<String, String> {
    tr.span("cli.render", |_| {
        let mut out = String::new();
        for (rank, hit) in hits.iter().enumerate() {
            let root = db.result_element(*hit).map_err(err)?;
            out.push_str(&format!(
                "<!-- rank {rank}, cost {} -->\n{}\n",
                hit.cost,
                Document { root }.to_xml_string()
            ));
        }
        Ok(out)
    })
}

/// The store key of a live document's segment (`doc#` + big-endian start
/// preorder), as the store layout defines it.
fn doc_key(start: u32) -> Vec<u8> {
    let mut k = b"doc#".to_vec();
    k.extend_from_slice(&start.to_be_bytes());
    k
}

/// The sizes of an opened database's structures, to check that the
/// layer-by-layer load built what `Database::open` builds.
#[derive(Debug, PartialEq, Eq)]
pub struct Shape {
    tree_nodes: usize,
    labels: usize,
    label_keys: usize,
    label_entries: usize,
    schema_nodes: usize,
    secondary_keys: usize,
    secondary_entries: usize,
}

impl Shape {
    fn of(tree: &DataTree, labels: &LabelIndex, schema: &Schema) -> Shape {
        Shape {
            tree_nodes: tree.len(),
            labels: tree.interner().len(),
            label_keys: labels.len(),
            label_entries: labels.entry_count(),
            schema_nodes: schema.tree().len(),
            secondary_keys: schema.secondary().len(),
            secondary_entries: schema.secondary().entry_count(),
        }
    }

    fn of_database(db: &Database) -> Shape {
        Shape::of(db.tree(), db.labels(), db.schema())
    }

    /// Fails unless `db` has this shape.
    pub fn check(&self, db: &Database) -> Result<(), String> {
        let whole = Shape::of_database(db);
        if *self != whole {
            return Err(format!(
                "the layer-by-layer open no longer mirrors the library's open: \
                 {self:?} against {whole:?}"
            ));
        }
        Ok(())
    }
}

/// Loads the store's structures one layer at a time, each in its own
/// span: storage open, tree load, label and secondary index loads, schema
/// assembly. These steps mirror today's eager `Database::open` call by
/// call. Only the sizes of the result are kept: [`open_database`] then
/// times the whole `Database::open`, which repeats the same work, so the
/// part of `core.open` that these spans leave unattributed can be read
/// off, and checks that both opens built structures of the same sizes.
pub fn open_layers(path: &Path, tr: &mut Tracer) -> Result<Shape, String> {
    tr.span("open.layers", |tr| {
        let mut store = tr
            .span("storage.open", |_| Store::open_file(path))
            .map_err(err)?;
        let tree = tr.span("tree.load", |_| -> Result<DataTree, String> {
            let costs = load_blob(&mut store, "costs").map_err(err)?;
            let costs = parse_cost_file(&String::from_utf8_lossy(&costs)).map_err(err)?;
            let interner =
                decode_interner(&load_blob(&mut store, "interner").map_err(err)?).map_err(err)?;
            let (total_len, docs) =
                decode_docmap(&load_blob(&mut store, "docmap").map_err(err)?).map_err(err)?;
            let mut segments = Vec::new();
            for &span in docs.iter().filter(|d| d.alive) {
                let bytes = store
                    .get(&doc_key(span.start))
                    .map_err(err)?
                    .ok_or_else(|| format!("document segment {} missing", span.start))?;
                segments.push((
                    span,
                    decode_doc_segment(&bytes, span, interner.len()).map_err(err)?,
                ));
            }
            DataTree::from_doc_segments(interner, total_len, docs, &segments, &costs).map_err(err)
        })?;
        let labels = tr
            .span("index.label_load", |_| {
                load_label_index(&mut store, tree.interner())
            })
            .map_err(err)?;
        let secondary = tr
            .span("index.secondary_load", |_| {
                load_secondary_index(&mut store, tree.interner())
            })
            .map_err(err)?;
        let schema = tr.span("schema.assemble", |_| -> Result<Schema, String> {
            let bytes = load_blob(&mut store, "schema").map_err(err)?;
            let schema_tree = DataTree::from_bytes(&bytes).map_err(err)?;
            Schema::assemble(&tree, schema_tree, secondary).map_err(err)
        })?;
        Ok(Shape::of(&tree, &labels, &schema))
    })
}

/// Opens a database: one `Database::open`, preceded when tracing by the
/// layer-by-layer load.
pub fn open_database(path: &Path, tr: &mut Tracer) -> Result<Database, String> {
    let shape = if tr.is_on() {
        Some(open_layers(path, tr)?)
    } else {
        None
    };
    let db = tr
        .span("core.open", |_| Database::open(path))
        .map_err(err)?;
    if let Some(shape) = shape {
        shape.check(&db)?;
    }
    Ok(db)
}

/// Opens a database for mutation: one `DbFile::open`, preceded when
/// tracing by the layer-by-layer load.
pub fn open_dbfile(path: &Path, tr: &mut Tracer) -> Result<DbFile, String> {
    let shape = if tr.is_on() {
        Some(open_layers(path, tr)?)
    } else {
        None
    };
    let file = tr.span("core.open", |_| DbFile::open(path)).map_err(err)?;
    if let Some(shape) = shape {
        shape.check(file.database())?;
    }
    Ok(file)
}

/// The store's live payload: key and value bytes of every entry, and the
/// entry count.
pub fn payload(path: &Path) -> Result<(u64, u64), String> {
    let mut store = Store::open_file(path).map_err(err)?;
    let mut it = store.iter_all().map_err(err)?;
    let (mut entries, mut bytes) = (0u64, 0u64);
    while let Some((k, v)) = it.next_entry().map_err(err)? {
        entries += 1;
        bytes += (k.len() + v.len()) as u64;
    }
    Ok((entries, bytes))
}

/// Size of the store file in bytes.
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}
