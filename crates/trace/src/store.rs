//! Plain-text trace persistence (the OTF2-archive analogue).
//!
//! Traces can be written to disk right after a run and analyzed offline
//! (or diffed, or replayed into the profiler later). The format is
//! line-oriented: one event per line, region/parameter names stored by
//! name+kind and re-interned on load.

use crate::event::{Trace, TraceEvent};
use pomp::{registry, RegionId, RegionKind, TaskId, TaskRef};
use taskprof::Event;

/// Format version tag.
const MAGIC: &str = "taskprof-trace v1";

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token; 0 when the whole line (or
    /// the file as such) is at fault.
    pub column: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.column > 0 {
            write!(
                f,
                "trace parse error at line {}, column {}: {}",
                self.line, self.column, self.message
            )
        } else {
            write!(f, "trace parse error at line {}: {}", self.line, self.message)
        }
    }
}

/// 1-based column of `tok` within `raw` (`tok` must be a sub-slice of
/// `raw`, as produced by `split_whitespace`).
fn col_of(raw: &str, tok: &str) -> usize {
    tok.as_ptr() as usize - raw.as_ptr() as usize + 1
}

impl std::error::Error for ParseError {}

// Region names are percent-escaped so they fit in one whitespace-split
// token.
fn esc(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b' ' | b'%' | b'\n' | b'\t' => out.push_str(&format!("%{b:02X}")),
            _ => out.push(b as char),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let Some(v) = s
                .get(i + 1..i + 3)
                .and_then(|hex| u8::from_str_radix(hex, 16).ok())
            {
                out.push(v);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn region_token(r: RegionId) -> String {
    let reg = registry();
    let info = reg.info(r);
    format!("{}:{}", info.kind.tag(), esc(&info.name))
}

/// Serialize a trace to text.
pub fn write_trace(trace: &Trace) -> String {
    use std::fmt::Write;
    let reg = registry();
    let tok = region_token;
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "threads {}", trace.nthreads());
    for e in trace.events() {
        let body = match e.event {
            Event::Enter(r) => format!("enter {}", tok(r)),
            Event::Exit(r) => format!("exit {}", tok(r)),
            Event::CreateBegin {
                create,
                task_region,
                id,
            } => format!("create-begin {} {} {}", tok(create), tok(task_region), id.get()),
            Event::CreateEnd { create, id } => format!("create-end {} {}", tok(create), id.get()),
            Event::TaskBegin { region, id } => format!("task-begin {} {}", tok(region), id.get()),
            Event::TaskEnd { region, id } => format!("task-end {} {}", tok(region), id.get()),
            Event::TaskAbort { region, id } => format!("task-abort {} {}", tok(region), id.get()),
            Event::Switch(TaskRef::Implicit) => "switch implicit".to_string(),
            Event::Switch(TaskRef::Explicit(id)) => format!("switch {}", id.get()),
            Event::ParamBegin { param, value } => {
                format!("param-begin {} {value}", esc(&reg.param_name(param)))
            }
            Event::ParamEnd { param } => format!("param-end {}", esc(&reg.param_name(param))),
            Event::Advance(_) => unreachable!("Trace never holds an Advance"),
        };
        let _ = writeln!(out, "{} {} {}", e.t, e.tid, body);
    }
    out
}

fn parse_region(line: usize, column: usize, tok: &str) -> Result<RegionId, ParseError> {
    let (ktag, name) = tok.split_once(':').ok_or(ParseError {
        line,
        column,
        message: format!("malformed region token '{tok}'"),
    })?;
    let kind = RegionKind::from_tag(ktag).ok_or(ParseError {
        line,
        column,
        message: format!("unknown region kind '{ktag}'"),
    })?;
    Ok(registry().register(&unesc(name), kind, "loaded-trace", 0))
}

fn parse_task(line: usize, column: usize, tok: &str) -> Result<TaskId, ParseError> {
    tok.parse::<u64>()
        .ok()
        .and_then(TaskId::from_raw)
        .ok_or(ParseError {
            line,
            column,
            message: format!("bad task id '{tok}'"),
        })
}

/// Parse a trace from text.
pub fn read_trace(text: &str) -> Result<Trace, ParseError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == MAGIC => {}
        other => {
            return Err(ParseError {
                line: other.map_or(0, |(n, _)| n + 1),
                column: 0,
                message: "bad magic".into(),
            })
        }
    }
    let nthreads: usize = match lines.next() {
        Some((n, l)) => l
            .trim()
            .strip_prefix("threads ")
            .and_then(|v| v.parse().ok())
            .ok_or(ParseError {
                line: n + 1,
                column: 0,
                message: "expected 'threads <n>'".into(),
            })?,
        None => {
            return Err(ParseError {
                line: 2,
                column: 0,
                message: "missing thread count".into(),
            })
        }
    };
    let reg = registry();
    let mut events = Vec::new();
    for (n, raw) in lines {
        let line = n + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let toks: Vec<&str> = raw.split_whitespace().collect();
        let err = |m: &str| ParseError {
            line,
            column: 0,
            message: m.to_string(),
        };
        let err_at = |tok: &str, m: &str| ParseError {
            line,
            column: col_of(raw, tok),
            message: m.to_string(),
        };
        if toks.len() < 3 {
            return Err(err("truncated event line"));
        }
        let t: u64 = toks[0]
            .parse()
            .map_err(|_| err_at(toks[0], "bad timestamp"))?;
        let tid: usize = toks[1].parse().map_err(|_| err_at(toks[1], "bad tid"))?;
        if tid >= nthreads {
            return Err(err_at(toks[1], "tid outside the declared team"));
        }
        let region = |tok: &str| parse_region(line, col_of(raw, tok), tok);
        let task = |tok: &str| parse_task(line, col_of(raw, tok), tok);
        let param = |tok: &str| reg.register_param(&unesc(tok));
        let event = match (toks[2], &toks[3..]) {
            ("enter", [r]) => Event::Enter(region(r)?),
            ("exit", [r]) => Event::Exit(region(r)?),
            ("create-begin", [c, tr, id]) => Event::CreateBegin {
                create: region(c)?,
                task_region: region(tr)?,
                id: task(id)?,
            },
            ("create-end", [c, id]) => Event::CreateEnd {
                create: region(c)?,
                id: task(id)?,
            },
            ("task-begin", [r, id]) => Event::TaskBegin {
                region: region(r)?,
                id: task(id)?,
            },
            ("task-end", [r, id]) => Event::TaskEnd {
                region: region(r)?,
                id: task(id)?,
            },
            ("task-abort", [r, id]) => Event::TaskAbort {
                region: region(r)?,
                id: task(id)?,
            },
            ("switch", ["implicit"]) => Event::Switch(TaskRef::Implicit),
            ("switch", [id]) => Event::Switch(TaskRef::Explicit(task(id)?)),
            ("param-begin", [p, v]) => Event::ParamBegin {
                param: param(p),
                value: v.parse().map_err(|_| err_at(v, "bad param value"))?,
            },
            ("param-end", [p]) => Event::ParamEnd { param: param(p) },
            _ => return Err(err_at(toks[2], "unknown event")),
        };
        events.push(TraceEvent { t, tid, event });
    }
    Ok(Trace::new(nthreads, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::TaskIdAllocator;

    fn sample() -> Trace {
        let reg = registry();
        let task = reg.register("ts store task", RegionKind::Task, "t", 0);
        let create = reg.register("ts!create", RegionKind::TaskCreate, "t", 0);
        let bar = reg.register("ts!bar", RegionKind::ImplicitBarrier, "t", 0);
        let param = reg.register_param("ts depth");
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let ev = |t, tid, event| TraceEvent { t, tid, event };
        Trace::new(
            2,
            vec![
                ev(
                    0,
                    0,
                    Event::CreateBegin {
                        create,
                        task_region: task,
                        id,
                    },
                ),
                ev(2, 0, Event::CreateEnd { create, id }),
                ev(3, 0, Event::Enter(bar)),
                ev(4, 1, Event::TaskBegin { region: task, id }),
                ev(5, 1, Event::ParamBegin { param, value: -3 }),
                ev(8, 1, Event::ParamEnd { param }),
                ev(9, 1, Event::TaskEnd { region: task, id }),
                ev(9, 1, Event::Switch(TaskRef::Implicit)),
                ev(10, 0, Event::Exit(bar)),
            ],
        )
    }

    #[test]
    fn round_trip_preserves_events() {
        let t = sample();
        let text = write_trace(&t);
        let u = read_trace(&text).expect("parse");
        assert_eq!(u.nthreads(), 2);
        assert_eq!(t.events(), u.events());
        // Stable: second serialization identical.
        assert_eq!(text, write_trace(&u));
    }

    #[test]
    fn analysis_equal_before_and_after_store() {
        let t = sample();
        let u = read_trace(&write_trace(&t)).unwrap();
        let a = crate::analyze(&t);
        let b = crate::analyze(&u);
        assert_eq!(a.total_task_exec_ns, b.total_task_exec_ns);
        assert_eq!(a.total_creation_ns, b.total_creation_ns);
        assert_eq!(a.instances.len(), b.instances.len());
    }

    #[test]
    fn names_with_spaces_survive() {
        let t = sample();
        let text = write_trace(&t);
        assert!(text.contains("ts%20store%20task"));
        let u = read_trace(&text).unwrap();
        let has_name = u.events().iter().any(|e| {
            matches!(e.event, Event::TaskBegin { region, .. }
                if registry().name(region) == "ts store task")
        });
        assert!(has_name);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_trace("").is_err());
        assert!(read_trace("taskprof-trace v1\nthreads nope").is_err());
        assert!(read_trace("taskprof-trace v1\nthreads 1\n5 0 frobnicate x").is_err());
        assert!(read_trace("taskprof-trace v1\nthreads 1\n5 0 enter notakind:x").is_err());
    }

    #[test]
    fn errors_carry_position_context() {
        let e = read_trace("taskprof-trace v1\nthreads 1\n5 0 enter notakind:x").unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.column, 11, "column of the offending region token");
        let shown = e.to_string();
        assert!(shown.contains("line 3"), "{shown}");
        assert!(shown.contains("column 11"), "{shown}");

        let e = read_trace("taskprof-trace v1\nthreads 1\nbogus 0 enter user:x").unwrap_err();
        assert_eq!((e.line, e.column), (3, 1), "bad timestamp at column 1");

        let e = read_trace("taskprof-trace v1\nthreads 1\n5 0 task-end user:x 0").unwrap_err();
        assert_eq!((e.line, e.column), (3, 21), "task id 0 is invalid");
    }
}
