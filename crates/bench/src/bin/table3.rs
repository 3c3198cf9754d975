//! Table III: exclusive execution times of the `nqueens` regions across
//! thread counts (instrumented, no cut-off).
//!
//! Paper reference: task exclusive time stays ~constant (106–114 s) while
//! taskwait (2.4 s → 102 s), task creation (56 s → 1102 s), and the
//! barrier (0 → 948 s) explode with threads — the signature of task-
//! management contention on too-small tasks.

use bench::{banner, instrumented_time, print_table, Config};
use bots::{AppId, Variant};
use cube::{region_excl_by_name, AggProfile};
use pomp::RegionKind;

fn row_for(label: &str, values: Vec<f64>) -> Vec<String> {
    let mut row = vec![label.to_string()];
    row.extend(values.into_iter().map(|v| format!("{v:.4}s")));
    row
}

fn main() {
    let cfg = Config::from_env();
    banner(
        "Table III — nqueens exclusive times by region (no cut-off)",
        &cfg,
    );
    let mut profiles: Vec<(usize, AggProfile)> = Vec::new();
    for &t in &cfg.threads {
        let (_, prof) =
            instrumented_time(AppId::Nqueens, t, cfg.scale, Variant::NoCutoff, cfg.reps);
        profiles.push((t, prof));
    }
    let excl = |name: &str| -> Vec<f64> {
        profiles
            .iter()
            .map(|(_, p)| region_excl_by_name(p, name) as f64 / 1e9)
            .collect()
    };
    // Exclusive barrier time: stub children (task work executed inside the
    // barrier, the Fig. 5 split) are subtracted by the exclusive-time rule.
    let barrier: Vec<f64> = profiles
        .iter()
        .map(|(_, p)| cube::region_excl_by_kind(p, RegionKind::ImplicitBarrier) as f64 / 1e9)
        .collect();
    let rows = vec![
        row_for("task", excl("nqueens")),
        row_for("taskwait", excl("nqueens!taskwait")),
        row_for("create task", excl("nqueens!create")),
        row_for("barrier", barrier),
    ];
    let mut headers = vec!["region"];
    let labels: Vec<String> = profiles.iter().map(|(t, _)| format!("{t} thr")).collect();
    headers.extend(labels.iter().map(String::as_str));
    print_table(&headers, &rows);
    println!();
    println!("shape check vs paper: 'task' ~flat; taskwait / create / barrier grow with threads");
}
