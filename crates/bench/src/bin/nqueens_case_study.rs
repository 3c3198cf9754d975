//! Section VI case study: using the task profile to diagnose and fix the
//! `nqueens` granularity problem.
//!
//! Reproduces the analysis narrative: (1) the uninstrumented no-cut-off
//! runtime does not improve with threads; (2) the profile shows most task
//! time is spent *creating* child tasks and mean task size is below the
//! creation cost; (3) cutting task creation at recursion level 3 yields a
//! large speedup (paper: 187 s → 11.5 s at 4 threads, speedup 16).

use bench::{banner, fmt_secs, instrumented_run, print_table, uninstrumented_time, Config};
use bots::{AppId, RunOpts, Variant};
use cube::{format_ns, region_excl_by_name, task_stats};

fn main() {
    let cfg = Config::from_env();
    banner("Section VI — nqueens case study", &cfg);

    // Step 1: scaling of the uninstrumented versions.
    println!("step 1: kernel time of the uninstrumented versions");
    let mut rows = Vec::new();
    for variant in [Variant::NoCutoff, Variant::Cutoff] {
        let mut row = vec![format!("{variant:?}")];
        for &t in &cfg.threads {
            let d = uninstrumented_time(AppId::Nqueens, t, cfg.scale, variant, cfg.reps);
            row.push(format!("{}s", fmt_secs(d)));
        }
        rows.push(row);
    }
    let mut headers = vec!["variant"];
    let labels: Vec<String> = cfg.threads.iter().map(|t| format!("{t} thr")).collect();
    headers.extend(labels.iter().map(String::as_str));
    print_table(&headers, &rows);

    // Step 2: profile a 4-thread instrumented run and compare mean task
    // execution time with mean creation time (paper: 0.30 µs vs 0.86 µs).
    let threads = cfg.threads.iter().copied().max().unwrap_or(4);
    println!("\nstep 2: profile of the no-cut-off version on {threads} threads");
    let (_, prof) = instrumented_run(
        AppId::Nqueens,
        &RunOpts::new(threads)
            .scale(cfg.scale)
            .variant(Variant::NoCutoff),
    );
    let stats = &task_stats(&prof)[0];
    let create_excl = region_excl_by_name(&prof, "nqueens!create") as f64;
    let task_excl = region_excl_by_name(&prof, "nqueens") as f64;
    let creations = stats.instances.max(1) as f64;
    println!("  completed task instances : {}", stats.instances);
    println!(
        "  mean inclusive task time : {}",
        format_ns(stats.mean_ns as u64)
    );
    println!(
        "  mean EXCLUSIVE task time : {} (useful work per task)",
        format_ns((task_excl / creations) as u64)
    );
    println!(
        "  mean task creation time  : {} (exclusive, per created task)",
        format_ns((create_excl / creations) as u64)
    );
    let frac = create_excl / (task_excl + create_excl).max(1.0);
    println!(
        "  creation share of task-side time: {:.0}% (paper: ~3/4 of task time)",
        frac * 100.0
    );

    // Step 3: the fix — cut-off at level 3.
    println!("\nstep 3: apply the cut-off (stop task creation at level 3)");
    let base = uninstrumented_time(
        AppId::Nqueens,
        threads,
        cfg.scale,
        Variant::NoCutoff,
        cfg.reps,
    );
    let cut = uninstrumented_time(
        AppId::Nqueens,
        threads,
        cfg.scale,
        Variant::Cutoff,
        cfg.reps,
    );
    println!(
        "  {} threads: {}s -> {}s  (speedup {:.1}x; paper: 187s -> 11.5s, 16x)",
        threads,
        fmt_secs(base),
        fmt_secs(cut),
        base.as_secs_f64() / cut.as_secs_f64().max(1e-9)
    );
}
