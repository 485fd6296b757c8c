//! `pdfbench compare OLD NEW`: per-metric deltas between two sets of
//! runs of one workload, judged against the bounds in `BENCHMARK.json`.
//!
//! OLD and NEW are files of result lines, one run per line (the output
//! of several runs appended to one file; lines that are not result
//! objects are skipped).

use crate::json::{Json, Results};
use crate::stats::{median, spread};

/// How a metric moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Ok,
    /// Worse by more than the bound, with spread within it.
    Regression,
    /// The run-to-run spread is wider than the bound, so the runs
    /// cannot tell, and the new runs do not all beat the old ones.
    Unresolved,
}

/// Judges one metric: `higher` says which direction is better, `bound`
/// is the share of the old median it may worsen by.
pub fn verdict(old: &[f64], new: &[f64], higher: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if higher { a > b } else { a < b };
    let all_new_better = new.iter().all(|&n| old.iter().all(|&o| better(n, o)));
    if spread(old).max(spread(new)) > bound && !all_new_better {
        return Verdict::Unresolved;
    }
    if worsening(median(old), median(new), higher) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// By what share of `old` the value got worse (negative when better).
fn worsening(old: f64, new: f64, higher: bool) -> f64 {
    let delta = (new - old) / old.abs();
    if higher {
        -delta
    } else {
        delta
    }
}

fn read_runs(path: &str) -> Result<Vec<Results>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let runs: Vec<Results> = text
        .lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .filter_map(|l| Results::from_json(l).ok())
        .collect();
    if runs.is_empty() {
        return Err(format!("{path} holds no result lines"));
    }
    Ok(runs)
}

/// `(name, higher is better, bound)` of every metric `BENCHMARK.json`
/// lists; per-layer metrics have no bound.
fn read_bounds(path: &str) -> Result<Vec<(String, bool, Option<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Json::as_arr).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            out.push((
                name.to_string(),
                higher,
                m.get("bound").and_then(Json::as_f64),
            ));
        }
    }
    Ok(out)
}

fn values(runs: &[Results], name: &str) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.metrics.iter().filter(|m| m.name == name))
        .map(|m| m.value)
        .filter(|v| v.is_finite())
        .collect()
}

fn failure_rate(runs: &[Results]) -> f64 {
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare(old_path: &str, new_path: &str, bounds_path: &str) -> Result<bool, String> {
    let old = read_runs(old_path)?;
    let new = read_runs(new_path)?;
    let bounds = read_bounds(bounds_path)?;
    let mut clean = true;
    println!(
        "{:<32} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "metric", "old median", "new median", "delta", "bound", "spread"
    );
    for (name, higher, bound) in &bounds {
        let (o, n) = (values(&old, name), values(&new, name));
        if o.is_empty() || n.is_empty() {
            continue;
        }
        let (mo, mn) = (median(&o), median(&n));
        let verdict = match bound {
            Some(bound) => match verdict(&o, &n, *higher, *bound) {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => {
                    clean = false;
                    "REGRESSION"
                }
            },
            None => "-",
        };
        println!(
            "{name:<32} {mo:>14.6} {mn:>14.6} {:>+7.2}% {:>7} {:>6.2}%  {verdict}",
            (mn - mo) / mo.abs() * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0)),
            spread(&o).max(spread(&n)) * 100.0,
        );
    }
    let (fo, fnew) = (failure_rate(&old), failure_rate(&new));
    println!("failed operations: old {fo:.4}, new {fnew:.4}");
    if fnew > fo || new.iter().any(|r| !r.correct) {
        println!("REGRESSION: the new runs fail more operations or report incorrect output");
        clean = false;
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let old = [100.0, 101.0, 99.0, 100.0];
        // throughput (higher is better), 7% bound
        assert_eq!(
            verdict(&old, &[98.0, 97.0, 99.0, 98.0], true, 0.07),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&old, &[90.0, 91.0, 89.0, 90.0], true, 0.07),
            Verdict::Regression
        );
        // latency (lower is better): the same drop is an improvement
        assert_eq!(
            verdict(&old, &[90.0, 91.0, 89.0, 90.0], false, 0.07),
            Verdict::Ok
        );
        // spread wider than the bound
        let noisy = [60.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&old, &noisy, true, 0.07), Verdict::Unresolved);
        // unless every new run beats every old run
        assert_eq!(verdict(&noisy, &[150.0, 160.0], true, 0.07), Verdict::Ok);
    }
}
