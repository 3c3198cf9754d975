//! Flat CSV export of profiles (for spreadsheets / plotting scripts).

use crate::agg::AggProfile;
use pomp::registry;
use taskprof::{NodeKind, SnapNode};

/// One exported row.
#[derive(Clone, Debug, PartialEq)]
pub struct CsvRow {
    /// Slash-separated call path of node labels.
    pub path: String,
    /// Node category: `region`, `stub`, or `param`.
    pub category: &'static str,
    /// Visits.
    pub visits: u64,
    /// Inclusive time, ns.
    pub incl_ns: u64,
    /// Exclusive time, ns (signed; negative only under the creating-node
    /// ablation).
    pub excl_ns: i64,
    /// Recorded samples.
    pub samples: u64,
    /// Min sample, ns (0 when no samples).
    pub min_ns: u64,
    /// Max sample, ns.
    pub max_ns: u64,
}

fn label(kind: NodeKind) -> String {
    let reg = registry();
    match kind {
        NodeKind::Region(r) => reg.name(r),
        NodeKind::Stub(r) => format!("stub:{}", reg.name(r)),
        NodeKind::Param(p, v) => format!("{}={v}", reg.param_name(p)),
        NodeKind::Truncated => "<truncated>".to_string(),
    }
}

fn category(kind: NodeKind) -> &'static str {
    match kind {
        NodeKind::Region(_) => "region",
        NodeKind::Stub(_) => "stub",
        NodeKind::Param(..) => "param",
        NodeKind::Truncated => "truncated",
    }
}

fn rows_of(tree: &SnapNode, prefix: &str, out: &mut Vec<CsvRow>) {
    let path = if prefix.is_empty() {
        label(tree.kind)
    } else {
        format!("{prefix}/{}", label(tree.kind))
    };
    out.push(CsvRow {
        path: path.clone(),
        category: category(tree.kind),
        visits: tree.stats.visits,
        incl_ns: tree.stats.sum_ns,
        excl_ns: tree.exclusive_ns(),
        samples: tree.stats.samples,
        min_ns: tree.stats.min().unwrap_or(0),
        max_ns: tree.stats.max_ns,
    });
    for c in &tree.children {
        rows_of(c, &path, out);
    }
}

/// Flatten an aggregated profile into rows.
pub fn rows(p: &AggProfile) -> Vec<CsvRow> {
    let mut out = Vec::new();
    rows_of(&p.main, "", &mut out);
    for t in &p.task_trees {
        rows_of(t, "<tasks>", &mut out);
    }
    out
}

/// Render an aggregated profile as CSV text (header included). Fields with
/// commas or quotes are quoted per RFC 4180.
pub fn to_csv(p: &AggProfile) -> String {
    let mut s = String::from("path,category,visits,incl_ns,excl_ns,samples,min_ns,max_ns\n");
    for r in rows(p) {
        let path = if r.path.contains(',') || r.path.contains('"') {
            format!("\"{}\"", r.path.replace('"', "\"\""))
        } else {
            r.path.clone()
        };
        s.push_str(&format!(
            "{path},{},{},{},{},{},{},{}\n",
            r.category, r.visits, r.incl_ns, r.excl_ns, r.samples, r.min_ns, r.max_ns
        ));
    }
    s
}

/// Render an aggregated profile as a Graphviz DOT graph: the main tree
/// and every task tree as separate components, stub nodes dashed, node
/// labels carrying inclusive/exclusive times and visits.
pub fn to_dot(p: &AggProfile) -> String {
    use std::fmt::Write;
    let mut out = String::from(
        "digraph profile {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    let mut counter = 0usize;

    fn esc_dot(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }

    fn emit(out: &mut String, node: &SnapNode, counter: &mut usize, parent: Option<usize>) {
        let my = *counter;
        *counter += 1;
        let style = match node.kind {
            NodeKind::Stub(_) => ", style=dashed",
            NodeKind::Param(..) => ", style=dotted",
            NodeKind::Truncated => ", style=dotted",
            NodeKind::Region(_) => "",
        };
        let _ = writeln!(
            out,
            "  n{my} [label=\"{}\\nincl {} excl {} visits {}\"{}];",
            esc_dot(&label(node.kind)),
            crate::format_ns(node.stats.sum_ns),
            node.exclusive_ns(),
            node.stats.visits,
            style
        );
        if let Some(p) = parent {
            let _ = writeln!(out, "  n{p} -> n{my};");
        }
        for c in &node.children {
            emit(out, c, counter, Some(my));
        }
    }

    emit(&mut out, &p.main, &mut counter, None);
    for t in &p.task_trees {
        emit(&mut out, t, &mut counter, None);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionKind, TaskIdAllocator};
    use taskprof::{replay, AssignPolicy, Event, Profile};

    #[test]
    fn dot_export_contains_nodes_edges_and_stub_style() {
        let reg = registry();
        let par = reg.register("dot-par", RegionKind::Parallel, "t", 0);
        let task = reg.register("dot-task", RegionKind::Task, "t", 0);
        let barrier = reg.register("dot-bar", RegionKind::ImplicitBarrier, "t", 0);
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let snap = replay(
            par,
            AssignPolicy::Executing,
            [
                Event::Enter(barrier),
                Event::TaskBegin { region: task, id },
                Event::Advance(10),
                Event::TaskEnd { region: task, id },
                Event::Exit(barrier),
            ],
        );
        let p = crate::AggProfile::from_profile(&Profile {
            threads: vec![snap],
        });
        let dot = to_dot(&p);
        assert!(dot.starts_with("digraph profile {"));
        assert!(dot.contains("dot-par"));
        assert!(dot.contains("stub:dot-task"));
        assert!(dot.contains("style=dashed"), "stub must be dashed");
        assert!(dot.contains("n0 -> n1;"), "tree edges present");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn csv_contains_all_nodes_with_paths() {
        let reg = registry();
        let par = reg.register("e-par", RegionKind::Parallel, "t", 0);
        let task = reg.register("e-task", RegionKind::Task, "t", 0);
        let barrier = reg.register("e-bar", RegionKind::ImplicitBarrier, "t", 0);
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let snap = replay(
            par,
            AssignPolicy::Executing,
            [
                Event::Enter(barrier),
                Event::TaskBegin { region: task, id },
                Event::Advance(10),
                Event::TaskEnd { region: task, id },
                Event::Exit(barrier),
            ],
        );
        let p = crate::AggProfile::from_profile(&Profile {
            threads: vec![snap],
        });
        let csv = to_csv(&p);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "path,category,visits,incl_ns,excl_ns,samples,min_ns,max_ns"
        );
        assert!(csv.contains("e-par/e-bar,region"));
        assert!(csv.contains("e-par/e-bar/stub:e-task,stub"));
        assert!(csv.contains("<tasks>/e-task,region,1,10,10,1,10,10"));
    }

    #[test]
    fn csv_quotes_awkward_names() {
        let reg = registry();
        let par = reg.register("e2,par", RegionKind::Parallel, "t", 0);
        let snap = replay(par, AssignPolicy::Executing, [Event::Advance(1)]);
        let p = crate::AggProfile::from_profile(&Profile {
            threads: vec![snap],
        });
        let csv = to_csv(&p);
        assert!(csv.contains("\"e2,par\""), "{csv}");
    }
}
