//! `compare A.jsonl B.jsonl`: one verdict per (end-to-end metric,
//! workload) between two sets of runs written with `--out`.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use profserve::{parse_json, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// (workload, metric) -> one value per run.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = parse_json(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{}:{}: no metrics", path.display(), n + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The spread between a side's own runs is wider than the bound.
    Unresolved,
    /// A per-layer metric: shown, never judged.
    Info,
}

fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse than A, as a share of A.
    let worse_by = if metric.higher {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let spread = iqr_share(a).max(iqr_share(b));
    let verdict = match metric.bound {
        None => Verdict::Info,
        Some(bound) if spread > bound => Verdict::Unresolved,
        Some(bound) if worse_by > bound => Verdict::Worse,
        Some(bound) if -worse_by > bound => Verdict::Better,
        Some(_) => Verdict::Unchanged,
    };
    (verdict, worse_by, spread)
}

/// Print the table; the exit code is 1 when any pair is worse, 2 when a
/// set cannot be read.
pub fn run(a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<40} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B worse%", "spread%", "bound%"
    );
    let mut worse = 0;
    for ((workload, name), a_values) in &a {
        let Some(b_values) = b.get(&(workload.clone(), name.clone())) else {
            println!("{workload:<14} {name:<40} only in A");
            continue;
        };
        let Some(metric) = END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name) else {
            println!("{workload:<14} {name:<40} not a metric of this benchmark");
            continue;
        };
        let (v, worse_by, spread) = verdict(metric, a_values, b_values);
        worse += i32::from(v == Verdict::Worse);
        println!(
            "{workload:<14} {name:<40} {:>14.4} {:>14.4} {:>9.2} {:>8.2} {:>6}  {}",
            median(a_values),
            median(b_values),
            100.0 * worse_by,
            100.0 * spread,
            metric
                .bound
                .map_or("-".to_string(), |b| format!("{:.0}", 100.0 * b)),
            match v {
                Verdict::Better => "better",
                Verdict::Worse => "WORSE",
                Verdict::Unchanged => "unchanged",
                Verdict::Unresolved => "unresolved",
                Verdict::Info => "info",
            }
        );
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        println!("{:<14} {:<40} only in B", key.0, key.1);
    }
    i32::from(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> Metric {
        Metric {
            name: "m",
            unit: "u",
            higher,
            bound: Some(0.10),
            what: "",
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |c: f64| vec![c * 0.99, c, c * 1.01, c, c];
        let lower = metric(false);
        assert_eq!(
            verdict(&lower, &steady(100.0), &steady(120.0)).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&lower, &steady(100.0), &steady(80.0)).0,
            Verdict::Better
        );
        assert_eq!(
            verdict(&lower, &steady(100.0), &steady(105.0)).0,
            Verdict::Unchanged
        );
        let higher = metric(true);
        assert_eq!(
            verdict(&higher, &steady(100.0), &steady(80.0)).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&higher, &steady(100.0), &steady(120.0)).0,
            Verdict::Better
        );
        let noisy = vec![60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&lower, &noisy, &steady(200.0)).0,
            Verdict::Unresolved
        );
    }
}
