//! ASCII rendering of call-path profiles (the CUBE view of paper Fig. 5).

use crate::agg::AggProfile;
use pomp::{registry, ParamId, RegionId};
use std::fmt::Write as _;
use taskprof::{NodeKind, SnapNode};

/// Rendering options.
#[derive(Clone, Copy, Debug)]
pub struct RenderOpts {
    /// Show exclusive times next to inclusive.
    pub exclusive: bool,
    /// Show visit counts.
    pub visits: bool,
    /// Show min/mean/max of sampled durations.
    pub stats: bool,
    /// Hide nodes whose inclusive time is below this many ns.
    pub min_time_ns: u64,
}

impl Default for RenderOpts {
    fn default() -> Self {
        Self {
            exclusive: true,
            visits: true,
            stats: false,
            min_time_ns: 0,
        }
    }
}

/// Format nanoseconds with an adaptive unit (`1.49µs`, `113.2s`, ...).
pub fn format_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}µs", v / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn kind_label(kind: NodeKind) -> String {
    let reg = registry();
    match kind {
        NodeKind::Region(r) => {
            let info = reg.info(r);
            format!("{} [{}]", info.name, info.kind.label())
        }
        NodeKind::Stub(r) => format!("task {} (stub)", region_name(r)),
        NodeKind::Param(p, v) => format!("{} = {v}", param_name(p)),
        NodeKind::Truncated => "<truncated below depth limit>".to_string(),
    }
}

fn region_name(r: RegionId) -> String {
    registry().name(r)
}

fn param_name(p: ParamId) -> String {
    registry().param_name(p)
}

fn render_node(out: &mut String, node: &SnapNode, prefix: &str, last: bool, root: bool, o: &RenderOpts) {
    if node.stats.sum_ns < o.min_time_ns && !root {
        return;
    }
    let branch = if root {
        ""
    } else if last {
        "└─ "
    } else {
        "├─ "
    };
    let mut line = format!("{prefix}{branch}{}", kind_label(node.kind));
    let _ = write!(line, "  incl {}", format_ns(node.stats.sum_ns));
    if o.exclusive {
        let e = node.exclusive_ns();
        let _ = if e < 0 {
            write!(line, "  excl -{}", format_ns(e.unsigned_abs()))
        } else {
            write!(line, "  excl {}", format_ns(e as u64))
        };
    }
    if o.visits {
        let _ = write!(line, "  visits {}", node.stats.visits);
    }
    if o.stats && node.stats.samples > 0 {
        let _ = write!(
            line,
            "  min {} mean {} max {}",
            format_ns(node.stats.min().unwrap_or(0)),
            format_ns(node.stats.mean_ns() as u64),
            format_ns(node.stats.max_ns),
        );
    }
    out.push_str(&line);
    out.push('\n');
    let child_prefix = if root {
        String::new()
    } else {
        format!("{prefix}{}", if last { "   " } else { "│  " })
    };
    let visible: Vec<&SnapNode> = node
        .children
        .iter()
        .filter(|c| c.stats.sum_ns >= o.min_time_ns)
        .collect();
    for (i, c) in visible.iter().enumerate() {
        render_node(out, c, &child_prefix, i + 1 == visible.len(), false, o);
    }
}

/// Render one snapshot tree.
pub fn render_tree(tree: &SnapNode, opts: &RenderOpts) -> String {
    let mut out = String::new();
    render_node(&mut out, tree, "", true, true, opts);
    out
}

/// Render a whole aggregated profile: the main tree followed by every task
/// tree (which sit "beside the main tree", paper Section IV-B4).
pub fn render_profile(p: &AggProfile, opts: &RenderOpts) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== main tree (implicit tasks, {} thread{}) ===",
        p.nthreads,
        if p.nthreads == 1 { "" } else { "s" }
    );
    out.push_str(&render_tree(&p.main, opts));
    for t in &p.task_trees {
        let aborted = if t.stats.aborted > 0 {
            format!(", aborted {}", t.stats.aborted)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "=== task tree: {} (instances {}, mean {}{aborted}) ===",
            kind_label(t.kind),
            t.stats.samples,
            format_ns(t.stats.mean_ns() as u64),
        );
        out.push_str(&render_tree(t, opts));
    }
    let _ = writeln!(out, "max concurrent task trees per thread: {}", p.max_live_trees);
    if p.shed_instances > 0 {
        let _ = writeln!(
            out,
            "instances shed to counting-only (live-tree cap): {}",
            p.shed_instances
        );
    }
    if p.aborted_instances > 0 {
        let _ = writeln!(out, "aborted task instances: {}", p.aborted_instances);
    }
    for (tid, d) in &p.diagnostics {
        let _ = writeln!(out, "diagnostic [thread {tid}]: {d}");
    }
    out
}

/// Render a live telemetry snapshot as a compact ASCII dashboard — the
/// observability companion of [`render_profile`]. `elapsed_ns` (when
/// known) turns the perturbation estimate into an overhead percentage.
pub fn render_telemetry(s: &taskprof_telemetry::TelemetrySnapshot, elapsed_ns: Option<u64>) -> String {
    use pomp::EventClass;
    let mut out = String::new();
    let _ = writeln!(out, "=== session telemetry ===");
    let _ = writeln!(
        out,
        "tasks: created {} completed {} aborted {} shed {} in-flight {}",
        s.tasks_created,
        s.tasks_completed,
        s.tasks_aborted,
        s.tasks_shed,
        s.tasks_in_flight()
    );
    let _ = writeln!(
        out,
        "fragments: {} executed, stub time {}",
        s.fragments,
        format_ns(s.stub_time_ns)
    );
    let _ = writeln!(
        out,
        "live instance trees: {} (per-thread high-water mark {})",
        s.live_trees, s.live_trees_hwm
    );
    let _ = writeln!(
        out,
        "threads active: {}  handoff stack depth: {}  spare arenas: {}",
        s.threads_active, s.handoff_depth, s.spare_arenas
    );
    let _ = writeln!(
        out,
        "arenas: {} recycled, {} freshly allocated",
        s.arenas_recycled, s.arenas_allocated
    );
    let _ = writeln!(out, "events ({} total):", s.total_events());
    for class in EventClass::ALL {
        let n = s.events[class.index()];
        if n == 0 {
            continue;
        }
        let cost = match s.per_event_cost_ns(class) {
            Some(c) => format!("  ~{} each ({} sampled)", format_ns(c as u64), s.perturb_samples[class.index()]),
            None => String::new(),
        };
        let _ = writeln!(out, "  {:<12} {n}{cost}", class.label());
    }
    let overhead = s.estimated_overhead_ns();
    match elapsed_ns.and_then(|e| s.estimated_overhead_ratio(e)) {
        Some(ratio) => {
            let _ = writeln!(
                out,
                "estimated measurement perturbation: {} ({:.3}% of {})",
                format_ns(overhead as u64),
                ratio * 100.0,
                format_ns(elapsed_ns.unwrap_or(0)),
            );
        }
        None => {
            let _ = writeln!(
                out,
                "estimated measurement perturbation: {}",
                format_ns(overhead as u64)
            );
        }
    }
    out
}

/// Render a critical-path (work/span) report: headline numbers, per-thread
/// utilization, the per-region table with critical-path shares, and any
/// detrimental-pattern flags.
pub fn render_critpath(r: &critpath::CritPathReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== critical-path analysis ===");
    let _ = writeln!(
        out,
        "work {}  span {}  makespan {}  parallelism {:.2}",
        format_ns(r.work_ns),
        format_ns(r.span_ns),
        format_ns(r.makespan_ns),
        r.parallelism
    );
    let _ = writeln!(
        out,
        "threads {}  tasks {}  fragments {}  steals {}",
        r.threads, r.tasks, r.fragments, r.steals
    );
    if r.makespan_ns > 0 {
        let util: Vec<String> = r
            .thread_work_ns
            .iter()
            .map(|&w| format!("{:.0}%", 100.0 * w as f64 / r.makespan_ns as f64))
            .collect();
        let _ = writeln!(out, "thread utilization: [{}]", util.join(" "));
    }
    if !r.regions.is_empty() {
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>7} {:>10} {:>7}",
            "region", "work", "work%", "span", "span%"
        );
        for row in &r.regions {
            let work_pct = if r.work_ns > 0 {
                100.0 * row.work_ns as f64 / r.work_ns as f64
            } else {
                0.0
            };
            let span_pct = if r.span_ns > 0 {
                100.0 * row.span_ns as f64 / r.span_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>6.1}% {:>10} {:>6.1}%",
                row.name,
                format_ns(row.work_ns),
                work_pct,
                format_ns(row.span_ns),
                span_pct
            );
        }
    }
    for flag in &r.flags {
        let _ = writeln!(out, "WARNING: {flag}");
    }
    out
}

/// Render a what-if prediction: "if `name` were K× faster, the runtime
/// would be …". The caller resolves the region name.
pub fn render_whatif(p: &critpath::WhatIfPrediction, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== what-if: {name} {}x faster ===",
        p.speedup
    );
    let _ = writeln!(out, "baseline makespan:  {}", format_ns(p.baseline_makespan_ns));
    let _ = writeln!(
        out,
        "predicted makespan: {}  ({:.2}x whole-program speedup)",
        format_ns(p.predicted_makespan_ns),
        p.program_speedup()
    );
    let _ = writeln!(
        out,
        "predicted span:     {}  (no schedule can beat this)",
        format_ns(p.predicted_span_ns)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionKind, TaskIdAllocator};
    use taskprof::{replay, AssignPolicy, Event, Profile};

    #[test]
    fn critpath_and_whatif_render() {
        let report = critpath::CritPathReport {
            work_ns: 1000,
            span_ns: 400,
            makespan_ns: 600,
            parallelism: 2.5,
            threads: 2,
            tasks: 8,
            fragments: 9,
            steals: 7,
            thread_work_ns: vec![600, 400],
            regions: vec![critpath::RegionRow {
                region: RegionId(1),
                name: "render-cp-task".into(),
                work_ns: 700,
                span_ns: 300,
            }],
            flags: vec![critpath::DetrimentalFlag::StealStorm {
                steals: 7,
                tasks: 8,
                steal_ratio: 0.875,
            }],
        };
        let text = render_critpath(&report);
        assert!(text.contains("parallelism 2.50"), "{text}");
        assert!(text.contains("render-cp-task"), "{text}");
        assert!(text.contains("WARNING: steal storm"), "{text}");
        assert!(text.contains("thread utilization"), "{text}");

        let p = critpath::WhatIfPrediction {
            region: RegionId(1),
            speedup: 4,
            baseline_makespan_ns: 600,
            predicted_makespan_ns: 450,
            predicted_span_ns: 300,
        };
        let text = render_whatif(&p, "render-cp-task");
        assert!(text.contains("render-cp-task 4x faster"), "{text}");
        assert!(text.contains("predicted makespan"), "{text}");
        assert!(text.contains("1.33x"), "{text}");
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(12), "12ns");
        assert_eq!(format_ns(1490), "1.49µs");
        assert_eq!(format_ns(2_500_000), "2.50ms");
        assert_eq!(format_ns(113_000_000_000), "113.00s");
    }

    #[test]
    fn render_shows_stub_split_like_fig5() {
        let reg = registry();
        let par = reg.register("r-par", RegionKind::Parallel, "t", 0);
        let task = reg.register("r-task0", RegionKind::Task, "t", 0);
        let barrier = reg.register("r-bar", RegionKind::ImplicitBarrier, "t", 0);
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let snap = replay(
            par,
            AssignPolicy::Executing,
            [
                Event::Enter(barrier),
                Event::TaskBegin { region: task, id: t1 },
                Event::Advance(113),
                Event::TaskEnd { region: task, id: t1 },
                Event::Advance(103),
                Event::Exit(barrier),
            ],
        );
        let p = AggProfile::from_profile(&Profile { threads: vec![snap] });
        let s = render_profile(&p, &RenderOpts::default());
        assert!(s.contains("r-bar"), "{s}");
        assert!(s.contains("task r-task0 (stub)"), "{s}");
        assert!(s.contains("=== task tree: r-task0"), "{s}");
        // The barrier line shows inclusive 216 and exclusive 103.
        let bar_line = s.lines().find(|l| l.contains("r-bar")).unwrap();
        assert!(bar_line.contains("incl 216ns"), "{bar_line}");
        assert!(bar_line.contains("excl 103ns"), "{bar_line}");
    }

    #[test]
    fn render_surfaces_faults() {
        let reg = registry();
        let par = reg.register("r3-par", RegionKind::Parallel, "t", 0);
        let task = reg.register("r3-task", RegionKind::Task, "t", 0);
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let snap = replay(
            par,
            AssignPolicy::Executing,
            [
                Event::TaskBegin { region: task, id: t1 },
                Event::Advance(7),
                Event::TaskAbort { region: task, id: t1 },
            ],
        );
        let p = AggProfile::from_profile(&Profile { threads: vec![snap] });
        assert_eq!(p.aborted_instances, 1);
        let s = render_profile(&p, &RenderOpts::default());
        assert!(s.contains("aborted 1"), "{s}");
        assert!(s.contains("aborted task instances: 1"), "{s}");
    }

    #[test]
    fn telemetry_dashboard_renders_key_gauges() {
        use pomp::EventClass;
        let mut s = taskprof_telemetry::TelemetrySnapshot {
            tasks_created: 10,
            tasks_completed: 8,
            live_trees: 2,
            live_trees_hwm: 4,
            fragments: 12,
            stub_time_ns: 2_500_000,
            ..Default::default()
        };
        s.events[EventClass::TaskBegin.index()] = 10;
        s.perturb_samples[EventClass::TaskBegin.index()] = 2;
        s.perturb_ns[EventClass::TaskBegin.index()] = 100;
        let text = render_telemetry(&s, Some(1_000_000));
        assert!(text.contains("created 10 completed 8"), "{text}");
        assert!(text.contains("in-flight 2"), "{text}");
        assert!(text.contains("high-water mark 4"), "{text}");
        assert!(text.contains("task_begin"), "{text}");
        assert!(text.contains("% of"), "{text}");
        // Classes with no events stay out of the dashboard.
        assert!(!text.contains("task_abort"), "{text}");
    }

    #[test]
    fn min_time_filter_prunes() {
        let reg = registry();
        let par = reg.register("r2-par", RegionKind::Parallel, "t", 0);
        let small = reg.register("r2-small", RegionKind::User, "t", 0);
        let snap = replay(
            par,
            AssignPolicy::Executing,
            [
                Event::Enter(small),
                Event::Advance(5),
                Event::Exit(small),
                Event::Advance(1000),
            ],
        );
        let p = AggProfile::from_profile(&Profile { threads: vec![snap] });
        let full = render_profile(&p, &RenderOpts::default());
        assert!(full.contains("r2-small"));
        let pruned = render_profile(
            &p,
            &RenderOpts {
                min_time_ns: 100,
                ..Default::default()
            },
        );
        assert!(!pruned.contains("r2-small"));
    }
}
