//! `mutate`: a `DbFile` receives a stream of durable mutations (inserts
//! of documents parsed from XML text, deletes of live documents, and now
//! and then a novel-path insert), each followed by top-10 queries that
//! alternate evaluators.
//!
//! Every mutation leaves the pages of the values it rewrites allocated,
//! so the store file only grows. A round is therefore two episodes, and
//! each episode but the run's first starts from a copy of the store as
//! set-up left it (untimed): the file never holds more than one
//! episode's growth.

use crate::checks::{self, pairs};
use crate::inputs::{self, surface_of, Class, Rng};
use crate::path::{self, err, Answer, Evaluator, TOP_N};
use crate::proc;
use crate::report::Outcome;
use crate::setup::{self, Spec};
use crate::stats::{iqm, median, tail};
use crate::trace::Tracer;
use crate::RunArgs;
use approxql_core::{Database, DbFile, Surface};
use approxql_tree::NodeId;
use approxql_xml::{parse_document, Document, Element, XmlNode};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Cheap query classes: the reads check the write path's effect on the
/// plan cache and indexes, and must not drown out the writes.
const CLASSES: [Class; 4] = [(1, 0), (1, 5), (2, 0), (2, 5)];
const PER_CLASS: usize = COUNTS.len();

pub const SPEC: Spec = Spec {
    div: inputs::MUTATE_DIV,
    classes: &CLASSES,
    per_class: PER_CLASS,
    hold_out_every: 6,
};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Insert,
    NovelInsert,
    Delete,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Insert => "request.insert",
            Kind::NovelInsert => "request.novel_insert",
            Kind::Delete => "request.delete",
        }
    }
}

/// A round is two episodes. The first inserts every held-out document
/// [`INSERTS_PER_HELD`] times, in a seeded order, then deletes all of
/// them again in another; the second inserts a novel-path variant of the
/// first held-out document and deletes it. Every round does the same
/// work, and each episode returns the live collection to its initial
/// documents.
///
/// Draws per round of each class's members, by popularity rank, cycled
/// to one draw per mutation.
const COUNTS: [usize; 3] = [2, 1, 1];
/// Known-path inserts per held-out document and round: with 3 held-out
/// documents, 7 inserts (one novel) and 7 deletes per round.
const INSERTS_PER_HELD: usize = 2;
/// Rounds every untraced run completes, however short; the store-size
/// ratio and peak memory are taken at the end of the last of them.
const MIN_ROUNDS: usize = 2;
/// Rounds of a traced run.
const TRACE_ROUNDS: usize = 1;

/// Renames the `target`-th element in preorder (0 is the root).
fn rename_nth(el: &mut Element, target: usize, seen: &mut usize, name: &str) -> bool {
    if *seen == target {
        el.name = name.to_string();
        return true;
    }
    *seen += 1;
    el.children.iter_mut().any(|c| match c {
        XmlNode::Element(e) => rename_nth(e, target, seen, name),
        _ => false,
    })
}

/// A held-out document with one non-root element renamed to `name`.
fn novel_text(held: &str, name: &str, rng: &mut Rng) -> Result<String, String> {
    let mut doc = parse_document(held).map_err(err)?;
    let count = doc.root.element_count();
    let target = if count > 1 {
        1 + rng.below(count - 1)
    } else {
        0
    };
    rename_nth(&mut doc.root, target, &mut 0, name);
    Ok(doc.to_xml_string())
}

/// One mutation of a round.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// Insert this XML text.
    Insert(Kind, String),
    /// Delete the episode's `n`-th insert.
    Delete(usize),
}

impl Step {
    fn kind(&self) -> Kind {
        match self {
            Step::Insert(k, _) => *k,
            Step::Delete(_) => Kind::Delete,
        }
    }
}

/// A round's inputs, prepared before any clock starts (the timed part of
/// a mutation is XML text in, commit durable): its episodes' mutations,
/// and the pool query read after each mutation of the round.
fn plan_round(
    held: &[String],
    seed: u64,
    round: usize,
    rng: &mut Rng,
) -> Result<(Vec<Vec<Step>>, Vec<usize>), String> {
    let novel = novel_text(&held[0], &format!("novel{round}s{seed}"), rng)?;
    let known = held
        .iter()
        .flat_map(|t| std::iter::repeat_n(Step::Insert(Kind::Insert, t.clone()), INSERTS_PER_HELD))
        .collect();
    let episodes = vec![
        episode(known, rng),
        episode(vec![Step::Insert(Kind::NovelInsert, novel)], rng),
    ];
    let mutations = episodes.iter().map(Vec::len).sum();
    let plan = inputs::round_plan(CLASSES.len(), &COUNTS, mutations, rng);
    Ok((episodes, plan))
}

/// The inserts in a seeded order, then a delete of each in another.
fn episode(mut steps: Vec<Step>, rng: &mut Rng) -> Vec<Step> {
    rng.shuffle(&mut steps);
    let mut deletes: Vec<Step> = (0..steps.len()).map(Step::Delete).collect();
    rng.shuffle(&mut deletes);
    steps.extend(deletes);
    steps
}

/// The stream's state: the store, the live documents (root preorder and
/// XML text, in preorder) and, when tracing, an in-memory mirror that
/// times the mutations' in-memory part on its own.
struct State<'a> {
    file: DbFile,
    mirror: Option<Database>,
    live: Vec<(u32, String)>,
    store: &'a Path,
}

impl State<'_> {
    /// Inserts one document; returns its root preorder.
    fn insert(&mut self, text: &str, kind: Kind, tr: &mut Tracer) -> Result<u32, String> {
        let doc = tr
            .span("xml.parse", |_| parse_document(text))
            .map_err(err)?;
        let (mirror_root, apply) = tr.span_id("core.apply", |_| {
            self.mirror
                .as_mut()
                .map(|m| m.insert_document(&doc).span.start)
        });
        let before = path::file_len(self.store);
        let (spans, id) = tr.span_id("core.persist", |_| {
            self.file.insert_documents(std::slice::from_ref(&doc))
        });
        let root = spans.map_err(err)?[0].start;
        if tr.is_on() {
            let minus = tr.duration_ns(apply);
            let growth = path::file_len(self.store) as i64 - before as i64;
            tr.annotate(id, |s| {
                s.minus_ns = minus;
                s.growth_bytes = growth;
            });
            if mirror_root != Some(root) {
                return Err(format!(
                    "{kind:?}: mirror placed the document at {mirror_root:?}, the store at {root}"
                ));
            }
        }
        self.live.push((root, text.to_string()));
        Ok(root)
    }

    fn delete(&mut self, victim: usize, tr: &mut Tracer) -> Result<(), String> {
        let root = self.live[victim].0;
        let (_, apply) = tr.span_id("core.apply", |_| {
            self.mirror
                .as_mut()
                .map(|m| m.delete_document(NodeId(root)))
        });
        let before = path::file_len(self.store);
        let (span, id) = tr.span_id("core.persist", |_| self.file.delete_document(NodeId(root)));
        span.map_err(err)?
            .ok_or_else(|| format!("document {root} was not live"))?;
        if tr.is_on() {
            let minus = tr.duration_ns(apply);
            let growth = path::file_len(self.store) as i64 - before as i64;
            tr.annotate(id, |s| {
                s.minus_ns = minus;
                s.growth_bytes = growth;
            });
        }
        self.live.remove(victim);
        Ok(())
    }

    fn live_bytes(&self) -> u64 {
        self.live.iter().map(|(_, t)| t.len() as u64).sum()
    }

    /// Puts the store back to its state after set-up: closes it, copies
    /// `pristine` over it and reopens it (the mirror too, if any). The
    /// copy holds the documents of `initial` at the same preorders.
    fn restore(self, pristine: &Path, initial: &[(u32, String)]) -> Result<Self, String> {
        let State {
            file,
            mirror,
            store,
            ..
        } = self;
        drop(file);
        let traced = mirror.is_some();
        drop(mirror);
        std::fs::copy(pristine, store).map_err(err)?;
        let file = DbFile::open(store).map_err(err)?;
        let mirror = if traced {
            Some(Database::open(store).map_err(err)?)
        } else {
            None
        };
        if live_roots(&file) != initial.iter().map(|l| l.0).collect::<Vec<_>>() {
            return Err("the restored store does not hold the stored documents".into());
        }
        Ok(State {
            file,
            mirror,
            live: initial.to_vec(),
            store,
        })
    }
}

/// Root preorders of the live documents, in preorder.
fn live_roots(file: &DbFile) -> Vec<u32> {
    file.database()
        .tree()
        .documents()
        .iter()
        .filter(|d| d.alive)
        .map(|d| d.start)
        .collect()
}

pub fn run(args: &RunArgs, dir: &Path) -> Result<Outcome, String> {
    let store = setup::store_path(dir);
    let mut tr = Tracer::new(args.trace);
    let (setup_times, (built, file, mirror)) = if args.trace {
        let r = tr.span("setup", |tr| -> Result<_, String> {
            let built = setup::build(SPEC, dir, tr)?;
            let file = path::open_dbfile(&store, tr)?;
            let mirror = Database::open(&store).map_err(err)?;
            Ok((built, file, Some(mirror)))
        })?;
        (Vec::new(), r)
    } else {
        setup::repeated("mutate", dir, || {
            let built = setup::read_manifest(dir)?;
            let file = DbFile::open(&store).map_err(err)?;
            Ok((built, file, None))
        })?
    };
    let roots = live_roots(&file);
    if roots.len() != built.stored.len() || built.held.is_empty() {
        return Err("the store does not hold the stored documents".into());
    }
    let initial: Vec<(u32, String)> = roots
        .into_iter()
        .zip(built.stored.iter().cloned())
        .collect();
    // The store as set-up left it, for the rounds after the first.
    let pristine = dir.join("pristine.axql");
    std::fs::copy(&store, &pristine).map_err(err)?;
    let mut st = State {
        file,
        mirror,
        live: initial.clone(),
        store: &store,
    };
    let costs = st.file.database().costs().clone();

    let mut rng = Rng::new(args.seed, 0x500);
    let mut lat: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Store size and peak memory are taken at the end of round MIN_ROUNDS,
    // so they do not depend on how many rounds the machine's speed
    // allowed. The store size is the file the round would have left
    // without restores: set-up's file plus every episode's growth.
    let (mut ratio_after_min, mut peak_kib) = (0.0, 0);
    let pristine_len = path::file_len(&pristine);
    let (mut largest_store, mut restore_s) = (0, 0.0);
    let mut query_no = 0;
    let start = Instant::now();
    let mut round = 0;
    loop {
        let done = if args.trace {
            round >= TRACE_ROUNDS
        } else {
            let measured = start.elapsed().as_secs_f64() - restore_s;
            round >= MIN_ROUNDS && measured >= args.seconds as f64
        };
        if done {
            break;
        }
        let (episodes, plan) = plan_round(&built.held, args.seed, round, &mut rng)?;
        let mut reads = plan.into_iter();
        let mut round_growth = 0;
        for (e, steps) in episodes.iter().enumerate() {
            if round > 0 || e > 0 {
                let t = Instant::now();
                st = st.restore(&pristine, &initial)?;
                restore_s += t.elapsed().as_secs_f64();
            }
            // Roots of this episode's inserts, in insert order (`None`: failed).
            let mut inserted: Vec<Option<u32>> = Vec::new();
            for step in steps {
                let qi = reads.next().ok_or("a mutation without its read")?;
                attempted += 1;
                tr.next_request();
                let kind = step.kind();
                let t = Instant::now();
                let res = tr.span(kind.span(), |tr| match step {
                    Step::Insert(kind, text) => st.insert(text, *kind, tr).map(Some),
                    Step::Delete(nth) => {
                        let root = inserted.get(*nth).copied().flatten();
                        match root.and_then(|r| st.live.iter().position(|l| l.0 == r)) {
                            Some(victim) => st.delete(victim, tr).map(|()| None),
                            None => Err(format!("insert {nth} of round {round} is not live")),
                        }
                    }
                });
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if let Step::Insert(..) = step {
                    inserted.push(res.as_ref().ok().copied().flatten());
                }
                match res {
                    Ok(_) => lat.entry(kind.span()).or_default().push(ms),
                    Err(e) => {
                        failed += 1;
                        problems.push(e);
                    }
                }
                // Reads right after the write: one query, both evaluators.
                let surface = surface_of(query_no);
                query_no += 1;
                let qtext = built.pool[qi].text(surface);
                let answers = path::draw(st.file.database(), qtext, surface, &mut tr);
                attempted += 2;
                for a in &answers {
                    match &a.hits {
                        Ok(_) => lat.entry(a.ev.request_span()).or_default().push(a.ms),
                        Err(e) => {
                            failed += 1;
                            problems.push(format!("{qtext}: {e}"));
                        }
                    }
                }
                if let [Answer { hits: Ok(d), .. }, Answer { hits: Ok(s), .. }] = &answers {
                    if let Err(e) = checks::check_draw(d, s, TOP_N) {
                        problems.push(format!("{qtext}: {e}"));
                    }
                }
            }
            let len = path::file_len(&store);
            largest_store = largest_store.max(len);
            round_growth += len.saturating_sub(pristine_len);
        }
        round += 1;
        if round == MIN_ROUNDS {
            ratio_after_min = (pristine_len + round_growth) as f64 / st.live_bytes() as f64;
            peak_kib = proc::self_peak_rss_kib();
        }
    }
    // Timed loop only: the restores between episodes are not measured.
    let loop_s = start.elapsed().as_secs_f64() - restore_s;

    // Result checks, untimed: the reopened store against a batch build
    // of the live documents, then the on-disk integrity check.
    let live = std::mem::take(&mut st.live);
    drop(st);
    if let Err(e) = final_checks(&store, &live, costs, &built.pool) {
        problems.push(e);
    }
    if let Err(e) = Database::check_file(&store) {
        problems.push(format!("check_file: {e}"));
    }
    if let Err(e) = checks::reference_side_check(args.seed, TOP_N) {
        problems.push(e);
    }

    let mut notes = problems.clone();
    let mut metrics = BTreeMap::new();
    if args.trace {
        crate::finish_trace(&tr, args, &store, &mut metrics, &mut notes)?;
    } else {
        let get = |k: &str| lat.get(k).cloned().unwrap_or_default();
        let (direct, schema) = (get("request.direct"), get("request.schema"));
        metrics.insert("setup_s", median(&setup_times).unwrap_or(0.0));
        metrics.insert("peak_rss_mb", peak_kib as f64 / 1024.0);
        metrics.insert("store_bytes_per_input_byte", ratio_after_min);
        // The workload's request is the known-path insert: the commonest
        // write, one kind, where a statistic over mixed kinds would sit on
        // the boundary between inserts and deletes.
        metrics.insert("request_iqm_ms", iqm(&get(Kind::Insert.span())));
        metrics.insert("direct_iqm_ms", iqm(&direct));
        metrics.insert("schema_iqm_ms", iqm(&schema));
        metrics.insert(
            "queries_per_s",
            (direct.len() + schema.len()) as f64 / loop_s,
        );
        for kind in [Kind::Insert, Kind::NovelInsert, Kind::Delete] {
            let v = get(kind.span());
            notes.push(format!(
                "{}_p50_ms: {:.3} over {} samples",
                &kind.span()["request.".len()..],
                median(&v).unwrap_or(0.0),
                v.len()
            ));
        }
        for (name, v) in [("direct", &direct), ("schema", &schema)] {
            notes.push(format!("{name}_p50_ms: {:.3}", median(v).unwrap_or(0.0)));
            if let Some(t) = tail(v) {
                notes.push(format!(
                    "{name}_tail_ms: p{} = {:.3} ms over {} samples",
                    t.percentile, t.value, t.samples
                ));
            }
        }
        notes.push(format!(
            "{round} rounds in {loop_s:.1} s (+ {restore_s:.1} s of restores); \
             largest store {largest_store} bytes; set-ups {setup_times:.3?} s"
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

/// The reopened store and a batch `Database::from_documents` of the live
/// documents return the same top-10 costs for both evaluators, and the
/// same multiset of (cost, result subtree) up to the tenth cost.
fn final_checks(
    store: &Path,
    live: &[(u32, String)],
    costs: approxql_cost::CostModel,
    pool: &[inputs::PoolQuery],
) -> Result<(), String> {
    let reopened = Database::open(store).map_err(err)?;
    let docs: Vec<Document> = live
        .iter()
        .map(|(_, t)| parse_document(t).map_err(err))
        .collect::<Result<_, _>>()?;
    let batch = Database::from_documents(&docs, costs);
    let mut quiet = Tracer::new(false);
    for q in pool {
        let text = q.classic();
        let mut tops = Vec::new();
        let mut subtrees = Vec::new();
        for db in [&reopened, &batch] {
            let all = path::query_all(db, text)?;
            let mut top = Vec::new();
            for ev in Evaluator::BOTH {
                let hits = pairs(&path::query(db, text, Surface::Classic, ev, &mut quiet)?);
                checks::check_prefix(&hits, &pairs(&all), TOP_N)
                    .map_err(|e| format!("{text}: {e}"))?;
                top.push(hits.iter().map(|h| h.1).collect::<Vec<_>>());
            }
            let bound = all
                .get(TOP_N.min(all.len()).saturating_sub(1))
                .map(|h| h.cost);
            subtrees.push(match bound {
                Some(b) => checks::subtrees_upto(db, &all, b)?,
                None => Vec::new(),
            });
            tops.push(top);
        }
        if tops[0] != tops[1] {
            return Err(format!(
                "{text}: reopened costs {:?}, batch costs {:?}",
                tops[0], tops[1]
            ));
        }
        let b = subtrees.pop().expect("two");
        let a = subtrees.pop().expect("two");
        checks::check_multiset(a, b, &format!("{text}: reopened vs batch"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held() -> Vec<String> {
        ["<a><b>x y</b><c><d/></c></a>", "<e><f>z</f></e>"]
            .map(String::from)
            .to_vec()
    }

    fn plan(seed: u64) -> (Vec<Vec<Step>>, Vec<usize>) {
        plan_round(&held(), seed, 0, &mut Rng::new(seed, 0x500)).unwrap()
    }

    #[test]
    fn rounds_repeat_per_seed_and_share_their_make_up() {
        assert_eq!(plan(1), plan(1));
        assert_ne!(plan(1), plan(2));
        for seed in [1, 2, 3] {
            let (episodes, reads) = plan(seed);
            assert_eq!(episodes.len(), 2);
            let mutations: usize = episodes.iter().map(Vec::len).sum();
            assert_eq!(reads.len(), mutations);
            for (steps, (kind, inserts)) in episodes.iter().zip([
                (Kind::Insert, held().len() * INSERTS_PER_HELD),
                (Kind::NovelInsert, 1),
            ]) {
                assert_eq!(steps.len(), 2 * inserts);
                // Inserts of one kind come first; then every insert is
                // deleted once.
                assert!(steps[..inserts].iter().all(|s| s.kind() == kind));
                let mut deleted: Vec<usize> = steps[inserts..]
                    .iter()
                    .map(|s| match s {
                        Step::Delete(n) => *n,
                        other => panic!("{other:?} after the inserts"),
                    })
                    .collect();
                deleted.sort_unstable();
                assert_eq!(deleted, (0..inserts).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn novel_text_renames_one_non_root_element() {
        let text = novel_text(&held()[0], "novel1s1", &mut Rng::new(1, 1)).unwrap();
        let doc = parse_document(&text).unwrap();
        assert_eq!(doc.root.name, "a");
        assert_eq!(text.matches("<novel1s1").count(), 1);
        assert_eq!(doc.root.element_count(), 4);
    }
}
