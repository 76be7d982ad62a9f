//! Request-path benchmark for approxql (see README.md).
//!
//! ```text
//! perfbench --workload cold_query|warm_query|mutate --seed N --seconds S --trace 0|1
//! perfbench steady --workload W --runs N --seconds S
//! ```
//!
//! A run prints notes (`# …`), one `name value unit` line per metric and,
//! last, one JSON result line. Untraced runs report the end-to-end
//! metrics, traced runs the per-layer ones.

mod checks;
mod cold;
mod inputs;
mod mutate;
mod path;
mod proc;
mod report;
mod setup;
mod stats;
mod steady;
mod trace;
mod warm;

use report::Outcome;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where runs keep their stores and write their traces, relative to the
/// directory the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

/// The arguments of one run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// `--name value` options after the subcommand.
struct Options(Vec<(String, String)>);

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{a}`"))?;
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_string(), v.clone()));
        }
        Ok(Options(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, name: &str, default: Option<u64>) -> Result<u64, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: `{v}` is not a number")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    fn workload(&self) -> Result<String, String> {
        let w = self.get("workload").ok_or("--workload is required")?;
        if !report::WORKLOADS.contains(&w) {
            return Err(format!(
                "unknown workload `{w}` (one of {:?})",
                report::WORKLOADS
            ));
        }
        Ok(w.to_string())
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("trace").unwrap_or("0") {
            "0" => Ok(false),
            "1" => Ok(true),
            v => Err(format!("--trace must be 0 or 1, not `{v}`")),
        }
    }
}

fn spec_of(workload: &str) -> setup::Spec {
    match workload {
        "cold_query" => cold::SPEC,
        "warm_query" => warm::SPEC,
        _ => mutate::SPEC,
    }
}

/// Writes a traced run's spans and adds its per-layer metrics.
pub fn finish_trace(
    tr: &trace::Tracer,
    args: &RunArgs,
    store: &Path,
    metrics: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let (entries, bytes) = path::payload(store)?;
    notes.push(format!(
        "store: {} bytes on disk, {entries} entries holding {bytes} bytes of keys and values",
        path::file_len(store)
    ));
    let dir = Path::new(WORK_DIR).join("traces");
    std::fs::create_dir_all(&dir).map_err(path::err)?;
    let file = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&file, tr.to_json_lines()).map_err(path::err)?;
    let layer = report::per_layer(tr.spans());
    notes.push(format!(
        "{} spans written to {}; the layer-by-layer open spans leave {:.1}% of core.open unattributed",
        tr.spans().len(),
        file.display(),
        report::open_unattributed_share(&layer) * 100.0
    ));
    for name in ["request.direct", "request.schema"] {
        let d: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        notes.push(format!(
            "traced {name} p50 {:.3} ms over {} requests",
            stats::median(&d).unwrap_or(0.0),
            d.len()
        ));
    }
    metrics.extend(layer);
    Ok(())
}

/// Removes store directories (`<workload>-<pid>`) left by runs that were
/// killed: a `mutate` store reaches gigabytes.
fn remove_stale_runs() {
    let Ok(entries) = std::fs::read_dir(WORK_DIR) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let pid = name
            .rsplit_once('-')
            .and_then(|(_, p)| p.parse::<u32>().ok());
        if let Some(pid) = pid {
            if !Path::new(&format!("/proc/{pid}")).exists() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    remove_stale_runs();
    let dir: PathBuf =
        Path::new(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(path::err)?;
    let outcome = match args.workload.as_str() {
        "cold_query" => cold::run(args, &dir),
        "warm_query" => warm::run(args, &dir),
        _ => mutate::run(args, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn main_inner(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("setup") => {
            let o = Options::parse(&argv[1..])?;
            let dir = o.get("dir").ok_or("--dir is required")?;
            setup::child_main(spec_of(&o.workload()?), Path::new(dir))
        }
        Some("steady") => {
            let o = Options::parse(&argv[1..])?;
            steady::main(
                &o.workload()?,
                o.num("runs", None)?,
                o.num("seconds", None)?,
            )
        }
        _ => {
            let o = Options::parse(argv)?;
            let args = RunArgs {
                workload: o.workload()?,
                seed: o.num("seed", None)?,
                seconds: o.num("seconds", None)?,
                trace: o.trace()?,
            };
            let outcome = run(&args)?;
            let expected: &[(&str, &str)] = if args.trace {
                &report::PER_LAYER
            } else {
                &report::END_TO_END
            };
            report::print(&outcome, expected);
            Ok(())
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = main_inner(&argv) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-layer counts that depend on the store file's physical layout.
    /// `Database::save` writes label postings in hash-map order, so two
    /// builds of one database lay out, and read back, their pages
    /// differently; these vary slightly between runs of one seed.
    const LAYOUT_DEPENDENT: [&str; 5] = [
        "storage.page_reads",
        "storage.cache_misses",
        "storage.btree_node_reads",
        "storage.backend_writes",
        "storage.file_growth_bytes",
    ];

    fn traced_counts(workload: &str, seed: u64) -> Vec<(&'static str, f64)> {
        let args = RunArgs {
            workload: workload.to_string(),
            seed,
            seconds: 1,
            trace: true,
        };
        let outcome = run(&args).expect("traced run");
        assert!(outcome.correct, "{:?}", outcome.notes);
        assert_eq!(outcome.failed, 0);
        report::PER_LAYER
            .iter()
            .filter(|(name, unit)| *unit != "ms" && !LAYOUT_DEPENDENT.contains(name))
            .map(|(name, _)| (*name, outcome.metrics[name]))
            .collect()
    }

    #[test]
    fn traced_runs_of_one_seed_count_the_same() {
        for workload in ["warm_query", "mutate"] {
            assert_eq!(
                traced_counts(workload, 7),
                traced_counts(workload, 7),
                "{workload}"
            );
        }
    }
}
