//! The steadiness command: runs one workload untraced on seeds 1..=N and
//! prints each metric's median, quartiles and spread.
//!
//! ```text
//! perfbench steady --workload W --runs N --seconds S
//! ```

use crate::path::err;
use crate::stats::{median, quartiles};
use approxql_query::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

/// One run's result line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses the JSON result line a run prints last.
pub fn parse_result(line: &str) -> Result<RunResult, String> {
    let doc = json::parse(line).map_err(err)?;
    let num = |k: &str| doc.get(k).and_then(Json::as_uint).ok_or(format!("no {k}"));
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no metrics")?
        .iter()
        .map(
            |(name, m)| match (m.get("value"), m.get("unit").and_then(Json::as_str)) {
                (Some(Json::Num(v)), Some(u)) => Ok((name.clone(), *v, u.to_string())),
                _ => Err(format!("malformed metric {name}")),
            },
        )
        .collect::<Result<_, String>>()?;
    Ok(RunResult {
        correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

pub fn main(workload: &str, runs: u64, seconds: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(err)?;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut shares = Vec::new();
    for seed in 1..=runs {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .output()
            .map_err(err)?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !out.status.success() {
            return Err(format!(
                "seed {seed}: exit {:?}: {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let r = parse_result(last)?;
        eprintln!(
            "seed {seed}: correct {} attempted {} failed {}",
            r.correct, r.attempted, r.failed
        );
        if !r.correct {
            eprintln!("{stdout}");
        }
        shares.push(r.failed as f64 / r.attempted.max(1) as f64);
        for (name, v, unit) in r.metrics {
            values.entry(name).or_insert((unit, Vec::new())).1.push(v);
        }
    }
    println!("metric\tunit\tmedian\tq1\tq3\tspread\tvalues");
    for (name, (unit, v)) in &values {
        let m = median(v).unwrap_or(0.0);
        let [q1, _, q3] = quartiles(v).unwrap_or([m; 3]);
        let spread = if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
        let all: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!(
            "{name}\t{unit}\t{m:.4}\t{q1:.4}\t{q3:.4}\t{:.2}%\t{}",
            spread * 100.0,
            all.join(",")
        );
    }
    println!("failed_share\t{shares:?}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let r = parse_result(
            r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#,
        )
        .unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(
            r.metrics,
            vec![("setup_s".to_string(), 0.5, "s".to_string())]
        );
    }
}
