//! Figure 13: runtime overhead of task profiling, optimized (cut-off)
//! versions, vs. the uninstrumented baseline, for 1/2/4/8 threads.
//!
//! Paper reference (Juropa, GCC 4.6.2, medium inputs): alignment /
//! sparselu / strassen ≈ 0 %; nqueens and sort ≈ 6 %; floorplan 6–11 %;
//! fft 10–17 %; health 6–32 % (shrinking with threads); fib ≈ 310 %
//! (pathological: tasks are a single addition).

use bench::{
    banner, fmt_pct, fmt_secs, instrumented_time, overhead_pct, print_table, uninstrumented_time,
    Config,
};
use bots::{Variant, ALL_APPS};

fn main() {
    let cfg = Config::from_env();
    banner(
        "Fig. 13 — profiling overhead, cut-off versions where available",
        &cfg,
    );
    let mut rows = Vec::new();
    for app in ALL_APPS {
        let variant = if app.has_cutoff() {
            Variant::Cutoff
        } else {
            Variant::NoCutoff
        };
        let mut row = vec![format!(
            "{}{}",
            app.name(),
            if app.has_cutoff() { " (cut-off)" } else { "" }
        )];
        for &t in &cfg.threads {
            let base = uninstrumented_time(app, t, cfg.scale, variant, cfg.reps);
            let (instr, _) = instrumented_time(app, t, cfg.scale, variant, cfg.reps);
            row.push(format!(
                "{} ({}s/{}s)",
                fmt_pct(overhead_pct(instr, base)),
                fmt_secs(instr),
                fmt_secs(base)
            ));
        }
        rows.push(row);
    }
    let mut headers = vec!["code"];
    let labels: Vec<String> = cfg.threads.iter().map(|t| format!("{t} thr")).collect();
    headers.extend(labels.iter().map(String::as_str));
    print_table(&headers, &rows);
    println!();
    println!("cells: overhead% (instrumented s / uninstrumented s), min of reps");
}
