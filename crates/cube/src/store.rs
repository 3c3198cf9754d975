//! Plain-text profile persistence.
//!
//! Score-P writes `.cubex` archives that CUBE reads later; this is the
//! reproduction's equivalent: a line-oriented, diff-friendly text format
//! that round-trips a whole per-thread [`Profile`]. Region and parameter
//! names are stored by name+kind and re-interned on load, so profiles can
//! be compared across processes and machines.

use pomp::{registry, ParamId, RegionId, RegionKind, RegistryView};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use taskprof::{NodeKind, Profile, SnapNode, Stats, ThreadSnapshot};

/// Format version tag.
const MAGIC: &str = "taskprof-profile v1";

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the problem (0 = header).
    pub line: usize,
    /// 1-based column of the problem (0 = whole line / unknown).
    pub column: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.column > 0 {
            write!(
                f,
                "profile parse error at line {}, column {}: {}",
                self.line, self.column, self.message
            )
        } else {
            write!(
                f,
                "profile parse error at line {}: {}",
                self.line, self.message
            )
        }
    }
}

impl std::error::Error for ParseError {}

/// Append `name` with `\\` and `"` backslash-escaped; the clean runs
/// between them go in whole.
fn push_escaped(out: &mut String, name: &str) {
    let mut clean = 0;
    for (i, b) in name.bytes().enumerate() {
        if b == b'\\' || b == b'"' {
            out.push_str(&name[clean..i]);
            out.push('\\');
            clean = i;
        }
    }
    out.push_str(&name[clean..]);
}

/// Inverse of [`push_escaped`]; borrows when there is nothing to undo.
fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('\\') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            if let Some(n) = chars.next() {
                out.push(n);
            }
        } else {
            out.push(c);
        }
    }
    Cow::Owned(out)
}

fn write_node(out: &mut String, reg: &RegistryView<'_>, node: &SnapNode, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    match node.kind {
        NodeKind::Region(r) => {
            let info = reg.info(r);
            out.push_str("region ");
            out.push_str(info.kind.tag());
            out.push_str(" \"");
            push_escaped(out, &info.name);
            out.push('"');
        }
        NodeKind::Stub(r) => {
            out.push_str("stub \"");
            push_escaped(out, &reg.info(r).name);
            out.push('"');
        }
        NodeKind::Param(p, v) => {
            out.push_str("param \"");
            push_escaped(out, reg.param_name(p));
            let _ = write!(out, "\" {v}");
        }
        NodeKind::Truncated => out.push_str("truncated \"\""),
    }
    let s = &node.stats;
    // Serialized min follows the export convention: 0 when no sample
    // landed. The in-memory `u64::MAX` sentinel is an internal detail of
    // `Stats` and must not leak into the text format (it used to, making
    // store and CSV export disagree); the parser restores the sentinel.
    let _ = write!(
        out,
        " visits {} sum {} min {} max {} samples {}",
        s.visits,
        s.sum_ns,
        s.min().unwrap_or(0),
        s.max_ns,
        s.samples
    );
    // Fault-tolerance annotation, omitted when clean so that profiles
    // written by older versions and clean new profiles look identical.
    if s.aborted > 0 {
        let _ = write!(out, " aborted {}", s.aborted);
    }
    out.push('\n');
    for c in &node.children {
        write_node(out, reg, c, depth + 1);
    }
}

/// Serialize a profile to the text format.
pub fn write_profile(p: &Profile) -> String {
    let reg = registry().view();
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "threads {}", p.threads.len());
    for t in &p.threads {
        let _ = write!(
            out,
            "thread {} max_live {} arena {}",
            t.tid, t.max_live_trees, t.arena_capacity
        );
        if t.shed_instances > 0 {
            let _ = write!(out, " shed {}", t.shed_instances);
        }
        out.push('\n');
        for d in &t.diagnostics {
            out.push_str("diag \"");
            push_escaped(&mut out, d);
            out.push_str("\"\n");
        }
        out.push_str("main\n");
        write_node(&mut out, &reg, &t.main, 1);
        for tree in &t.task_trees {
            out.push_str("tasktree\n");
            write_node(&mut out, &reg, tree, 1);
        }
        out.push_str("end\n");
    }
    out
}

/// Serialize a profile to `path` atomically: the text is written to a
/// sibling temp file, flushed, and renamed into place, so a crash mid-save
/// leaves either the previous file or the complete new one — never a torn
/// profile. The temp file name embeds the process id so concurrent savers
/// into the same directory do not collide.
pub fn write_profile_to(path: &std::path::Path, p: &Profile) -> std::io::Result<()> {
    use std::io::Write as _;

    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!(".{file_name}.tmp-{}", std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(write_profile(p).as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// `str::split_whitespace`, token for token, as a bare cursor over the
/// rest of the line: a token of printable ASCII that ends at a space —
/// every token this format writes — is cut on a byte scan, and only one
/// that meets anything else is settled scalar by scalar.
struct Tokens<'a>(&'a str);

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.0.trim_start();
        if rest.is_empty() {
            return None;
        }
        let end = match rest.bytes().position(|b| !b.is_ascii_graphic()) {
            None => rest.len(),
            Some(i) if rest.as_bytes()[i] == b' ' => i,
            Some(_) => rest.find(char::is_whitespace).unwrap_or(rest.len()),
        };
        let (token, rest) = rest.split_at(end);
        self.0 = rest;
        Some(token)
    }
}

struct Parser<'a> {
    lines: std::iter::Peekable<std::iter::Enumerate<std::str::Lines<'a>>>,
    /// Ids of the names this parse has met, keyed by the name as it is
    /// spelled in the text (still escaped): the global registry is asked
    /// once per distinct name, not once per node line.
    regions: HashMap<(&'a str, RegionKind), RegionId>,
    params: HashMap<&'a str, ParamId>,
}

impl<'a> Parser<'a> {
    fn err(line: usize, message: impl Into<String>) -> ParseError {
        Self::err_at(line, 0, message)
    }

    fn err_at(line: usize, column: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            line: line + 1,
            column,
            message: message.into(),
        }
    }

    fn region(&mut self, raw_name: &'a str, kind: RegionKind) -> RegionId {
        *self
            .regions
            .entry((raw_name, kind))
            .or_insert_with(|| registry().register(&unescape(raw_name), kind, "loaded", 0))
    }

    /// Parse one node line: returns (depth, kind, stats).
    fn parse_node_line(
        &mut self,
        lineno: usize,
        raw: &'a str,
    ) -> Result<(usize, NodeKind, Stats), ParseError> {
        let trimmed = raw.trim_start();
        let indent = raw.len() - trimmed.len();
        let depth = indent / 2;
        // Split the quoted name out first.
        let (head, rest) = trimmed
            .split_once('"')
            .ok_or_else(|| Self::err_at(lineno, indent + 1, "missing name quote"))?;
        // Find the closing quote honoring escapes.
        let mut end = None;
        let bytes = rest.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    end = Some(i);
                    break;
                }
                _ => i += 1,
            }
        }
        let end =
            end.ok_or_else(|| Self::err_at(lineno, indent + head.len() + 1, "unterminated name"))?;
        let name = &rest[..end];
        let tail = &rest[end + 1..];
        // 1-based column where the post-name tail of the line starts.
        let tail_col = raw.len() - tail.len() + 1;
        let mut head_tokens = Tokens(head);
        let mut stats_tokens = Tokens(tail);
        let kind = match (head_tokens.next(), head_tokens.next(), head_tokens.next()) {
            (Some("region"), Some(ktag), None) => {
                let k = RegionKind::from_tag(ktag).ok_or_else(|| {
                    Self::err_at(lineno, indent + 1, format!("unknown region kind {ktag}"))
                })?;
                NodeKind::Region(self.region(name, k))
            }
            // Stubs always refer to task constructs.
            (Some("stub"), None, _) => NodeKind::Stub(self.region(name, RegionKind::Task)),
            (Some("truncated"), None, _) => NodeKind::Truncated,
            (Some("param"), None, _) => {
                let v: i64 = stats_tokens
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| Self::err_at(lineno, tail_col, "param missing value"))?;
                let id = *self
                    .params
                    .entry(name)
                    .or_insert_with(|| registry().register_param(&unescape(name)));
                NodeKind::Param(id, v)
            }
            _ => {
                let other: Vec<&str> = head.split_whitespace().collect();
                return Err(Self::err_at(
                    lineno,
                    indent + 1,
                    format!("unknown node head {other:?}"),
                ));
            }
        };
        Ok((
            depth,
            kind,
            Self::parse_stats(lineno, tail_col, stats_tokens)?,
        ))
    }

    fn parse_stats<'t>(
        lineno: usize,
        col: usize,
        mut tokens: impl Iterator<Item = &'t str>,
    ) -> Result<Stats, ParseError> {
        let mut stats = Stats::new();
        let mut grab = |key: &str| match (tokens.next(), tokens.next()) {
            (Some(k), Some(v)) if k == key => v
                .parse::<u64>()
                .map_err(|_| Self::err_at(lineno, col, format!("bad {key} value"))),
            _ => Err(Self::err_at(lineno, col, format!("expected '{key} <n>'"))),
        };
        stats.visits = grab("visits")?;
        stats.sum_ns = grab("sum")?;
        stats.min_ns = grab("min")?;
        stats.max_ns = grab("max")?;
        stats.samples = grab("samples")?;
        if stats.samples == 0 {
            // Restore the internal no-samples sentinel so a re-loaded
            // profile is indistinguishable from a live one (`Stats::min`
            // returns `None`, `record` still folds correctly). Also
            // normalizes legacy files that serialized the raw sentinel.
            stats.min_ns = u64::MAX;
        }
        // Optional fault-tolerance annotation (absent in clean and in
        // older profiles).
        match tokens.next() {
            None => {}
            Some("aborted") => {
                stats.aborted = tokens
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| Self::err_at(lineno, col, "bad aborted value"))?;
            }
            Some(other) => {
                return Err(Self::err_at(
                    lineno,
                    col,
                    format!("unexpected trailing token '{other}'"),
                ))
            }
        }
        if let Some(extra) = tokens.next() {
            return Err(Self::err_at(
                lineno,
                col,
                format!("unexpected trailing token '{extra}'"),
            ));
        }
        Ok(stats)
    }

    /// Parse an indented node block starting at the current position.
    fn parse_tree(&mut self) -> Result<SnapNode, ParseError> {
        let (lineno, first) = self
            .lines
            .next()
            .ok_or_else(|| Self::err(0, "unexpected end of file in tree"))?;
        let (depth, kind, stats) = self.parse_node_line(lineno, first)?;
        let mut root = SnapNode {
            kind,
            stats,
            children: vec![],
        };
        let mut stack: Vec<(usize, SnapNode)> = vec![];
        let base = depth;
        // Collect subsequent deeper lines.
        while let Some(&(lineno, peek)) = self.lines.peek() {
            let trimmed = peek.trim_start();
            if trimmed.is_empty()
                || trimmed.starts_with("main")
                || trimmed.starts_with("tasktree")
                || trimmed.starts_with("thread ")
                || trimmed.starts_with("end")
            {
                break;
            }
            let d = (peek.len() - trimmed.len()) / 2;
            if d <= base {
                break;
            }
            self.lines.next();
            let (_, kind, stats) = self.parse_node_line(lineno, peek)?;
            let node = SnapNode {
                kind,
                stats,
                children: vec![],
            };
            // Pop completed siblings/ancestors.
            while let Some(&(sd, _)) = stack.last() {
                if sd >= d {
                    let (_, done) = stack.pop().expect("non-empty");
                    match stack.last_mut() {
                        Some((_, parent)) => parent.children.push(done),
                        None => root.children.push(done),
                    }
                } else {
                    break;
                }
            }
            stack.push((d, node));
        }
        while let Some((_, done)) = stack.pop() {
            match stack.last_mut() {
                Some((_, parent)) => parent.children.push(done),
                None => root.children.push(done),
            }
        }
        Ok(root)
    }
}

/// Parse a profile from the text format.
pub fn read_profile(text: &str) -> Result<Profile, ParseError> {
    let mut p = Parser {
        lines: text.lines().enumerate().peekable(),
        regions: HashMap::new(),
        params: HashMap::new(),
    };
    match p.lines.next() {
        Some((_, l)) if l.trim() == MAGIC => {}
        Some((n, l)) => return Err(Parser::err(n, format!("bad magic '{l}'"))),
        None => return Err(Parser::err(0, "empty input")),
    }
    let nthreads = match p.lines.next() {
        Some((n, l)) => l
            .trim()
            .strip_prefix("threads ")
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| Parser::err(n, "expected 'threads <n>'"))?,
        None => return Err(Parser::err(1, "missing thread count")),
    };
    let mut threads = Vec::with_capacity(nthreads);
    for _ in 0..nthreads {
        let (n, header) = p
            .lines
            .next()
            .ok_or_else(|| Parser::err(0, "missing thread header"))?;
        let mut toks = Tokens(header);
        let toks: [Option<&str>; 9] = std::array::from_fn(|_| toks.next());
        let (tid, max_live, arena, shed) = match toks {
            [Some("thread"), Some(tid), Some("max_live"), Some(ml), Some("arena"), Some(ar), shed @ ..] => {
                (
                    tid.parse().map_err(|_| Parser::err(n, "bad tid"))?,
                    ml.parse().map_err(|_| Parser::err(n, "bad max_live"))?,
                    ar.parse().map_err(|_| Parser::err(n, "bad arena"))?,
                    match shed {
                        [None, ..] => 0u64,
                        [Some("shed"), Some(sh), None] => {
                            sh.parse().map_err(|_| Parser::err(n, "bad shed count"))?
                        }
                        _ => return Err(Parser::err(n, "malformed thread header")),
                    },
                )
            }
            _ => return Err(Parser::err(n, "malformed thread header")),
        };
        // Optional self-healing diagnostics recorded with the thread.
        let mut diagnostics = Vec::new();
        while let Some(&(dn, l)) = p.lines.peek() {
            let Some(rest) = l.trim().strip_prefix("diag ") else {
                break;
            };
            p.lines.next();
            let inner = rest
                .trim()
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .ok_or_else(|| Parser::err(dn, "malformed diag line"))?;
            diagnostics.push(unescape(inner).into_owned());
        }
        match p.lines.next() {
            Some((_, l)) if l.trim() == "main" => {}
            Some((n, l)) => return Err(Parser::err(n, format!("expected 'main', got '{l}'"))),
            None => return Err(Parser::err(n, "missing main section")),
        }
        let main = p.parse_tree()?;
        let mut task_trees = Vec::new();
        loop {
            match p.lines.peek().copied() {
                Some((_, l)) if l.trim() == "tasktree" => {
                    p.lines.next();
                    task_trees.push(p.parse_tree()?);
                }
                Some((_, l)) if l.trim() == "end" => {
                    p.lines.next();
                    break;
                }
                Some((n, l)) => {
                    return Err(Parser::err(n, format!("expected tasktree/end, got '{l}'")))
                }
                None => return Err(Parser::err(0, "missing 'end'")),
            }
        }
        let parallel_region = match main.kind {
            NodeKind::Region(r) => r,
            _ => RegionId(0),
        };
        threads.push(ThreadSnapshot {
            tid,
            parallel_region,
            main,
            task_trees,
            max_live_trees: max_live,
            arena_capacity: arena,
            shed_instances: shed,
            diagnostics,
        });
    }
    Ok(Profile { threads })
}

/// The parameter-name interning used on load.
#[allow(dead_code)]
fn _assert_param_api(p: ParamId) -> ParamId {
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::TaskIdAllocator;
    use taskprof::{AssignPolicy, Event, TeamReplayer};

    fn sample_profile() -> Profile {
        let reg = registry();
        let par = reg.register("st-par", RegionKind::Parallel, "t", 0);
        let task = reg.register("st-task", RegionKind::Task, "t", 0);
        let barrier = reg.register("st-bar", RegionKind::ImplicitBarrier, "t", 0);
        let depth = reg.register_param("st-depth");
        let ids = TaskIdAllocator::new();
        let mut team = TeamReplayer::new(2, par, AssignPolicy::Executing);
        for tid in 0..2 {
            team.apply(tid, Event::Enter(barrier));
        }
        for k in 0..3 {
            let id = ids.alloc();
            team.apply(0, Event::TaskBegin { region: task, id })
                .apply(
                    0,
                    Event::ParamBegin {
                        param: depth,
                        value: k,
                    },
                )
                .advance(10 + k as u64)
                .apply(0, Event::ParamEnd { param: depth })
                .apply(0, Event::TaskEnd { region: task, id });
        }
        for tid in 0..2 {
            team.apply(tid, Event::Exit(barrier));
        }
        team.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let p = sample_profile();
        let text = write_profile(&p);
        let q = read_profile(&text).expect("parse");
        assert_eq!(p.threads.len(), q.threads.len());
        for (a, b) in p.threads.iter().zip(&q.threads) {
            assert_eq!(a.tid, b.tid);
            assert_eq!(a.max_live_trees, b.max_live_trees);
            assert_eq!(a.arena_capacity, b.arena_capacity);
            assert_eq!(a.shed_instances, b.shed_instances);
            assert_eq!(a.diagnostics, b.diagnostics);
            assert_eq!(a.main, b.main);
            assert_eq!(a.task_trees, b.task_trees);
        }
        // Idempotent: serialize again, identical text.
        assert_eq!(text, write_profile(&q));
    }

    #[test]
    fn atomic_write_round_trips_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!(
            "cube-atomic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("profile.tpf");
        let p = sample_profile();
        write_profile_to(&path, &p).expect("atomic write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, write_profile(&p));
        // Overwrite in place: still atomic, still complete.
        write_profile_to(&path, &p).expect("overwrite");
        // No temp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .expect("read dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trip_preserves_fault_annotations() {
        use pomp::TaskRef;
        let reg = registry();
        let par = reg.register("ft-par", RegionKind::Parallel, "t", 0);
        let task = reg.register("ft-task", RegionKind::Task, "t", 0);
        let barrier = reg.register("ft-bar", RegionKind::ImplicitBarrier, "t", 0);
        let ids = TaskIdAllocator::new();
        let (t1, t2, t3) = (ids.alloc(), ids.alloc(), ids.alloc());
        let mut r = taskprof::Replayer::new(par, AssignPolicy::Executing);
        r.set_max_live_trees(Some(1));
        r.run([
            Event::Enter(barrier),
            Event::TaskBegin {
                region: task,
                id: t1,
            },
            Event::Advance(5),
            Event::Switch(TaskRef::Implicit), // t1 suspended, 1 live tree
            Event::TaskBegin {
                region: task,
                id: t2,
            }, // cap hit: shed
            Event::Advance(3),
            Event::TaskEnd {
                region: task,
                id: t2,
            },
            Event::Switch(TaskRef::Explicit(t1)),
            Event::Advance(2),
            Event::TaskAbort {
                region: task,
                id: t1,
            }, // panicked body
            Event::TaskBegin {
                region: task,
                id: t3,
            },
            Event::Advance(1),
            Event::Switch(TaskRef::Implicit), // t3 left open at finish
            Event::Exit(barrier),
        ]);
        let snap = r.finish(0);
        assert_eq!(snap.shed_instances, 1);
        assert_eq!(snap.diagnostics.len(), 1);
        let p = Profile {
            threads: vec![snap],
        };
        let text = write_profile(&p);
        assert!(text.contains("shed 1"), "{text}");
        assert!(text.contains("aborted 2"), "{text}"); // t1 + force-closed t3
        assert!(text.contains("diag \""), "{text}");
        let q = read_profile(&text).expect("parse");
        assert_eq!(q.threads[0].shed_instances, 1);
        assert_eq!(q.threads[0].diagnostics, p.threads[0].diagnostics);
        assert_eq!(q.threads[0].task_trees, p.threads[0].task_trees);
        assert_eq!(q.aborted_instances(), 2);
        assert_eq!(text, write_profile(&q));
    }

    #[test]
    fn no_samples_min_round_trips_as_zero() {
        // A node with visits but no duration samples (e.g. a region still
        // open at snapshot time, or a pure-visit stub) keeps the internal
        // `u64::MAX` min sentinel. The text format must carry the export
        // convention (0), never the sentinel, and the parser must restore
        // the sentinel so `Stats::min()` stays `None` after a reload.
        let reg = registry();
        let par = reg.register("ms-par", RegionKind::Parallel, "t", 0);
        let snap = taskprof::replay(par, AssignPolicy::Executing, [Event::Advance(5)]);
        let mut p = Profile {
            threads: vec![snap],
        };
        // Forge a visited-but-never-sampled child to pin the convention.
        let mut stats = Stats::new();
        stats.add_visit();
        assert_eq!(stats.samples, 0);
        assert_eq!(stats.min(), None);
        let task = reg.register("ms-task", RegionKind::Task, "t", 0);
        p.threads[0].main.children.push(SnapNode {
            kind: NodeKind::Stub(task),
            stats,
            children: vec![],
        });
        let text = write_profile(&p);
        assert!(
            !text.contains(&u64::MAX.to_string()),
            "sentinel leaked into the text format:\n{text}"
        );
        assert!(text.contains("min 0"), "{text}");
        let q = read_profile(&text).expect("parse");
        let reloaded = &q.threads[0].main.children.last().unwrap().stats;
        assert_eq!(reloaded.min(), None, "sentinel restored on load");
        assert_eq!(reloaded.min_ns, u64::MAX);
        // Store, export-style accessors, and re-serialization all agree.
        assert_eq!(text, write_profile(&q));
        // Legacy files that serialized the raw sentinel still load (and
        // normalize on the next write).
        let legacy = text.replace("min 0", &format!("min {}", u64::MAX));
        let ql = read_profile(&legacy).expect("legacy parse");
        assert_eq!(
            ql.threads[0].main.children.last().unwrap().stats.min(),
            None
        );
        assert_eq!(write_profile(&ql), text);
    }

    #[test]
    fn errors_carry_position_context() {
        // A corrupted stats token reports both line and column.
        let p = sample_profile();
        let text = write_profile(&p);
        let broken = text.replace("sum ", "sum x");
        let err = read_profile(&broken).unwrap_err();
        assert!(err.line > 0);
        assert!(err.column > 0, "column context missing: {err:?}");
        let rendered = err.to_string();
        assert!(rendered.contains("line"), "{rendered}");
        assert!(rendered.contains("column"), "{rendered}");
    }

    #[test]
    fn tokens_are_split_whitespace_tokens() {
        for line in [
            "",
            "   ",
            "region task",
            "  visits 3 sum 33  min 10\tmax 12 samples 3 ",
            "a\u{b}b\u{c}c\rd",
            "nbsp\u{a0}sep em\u{2003}sep  \u{3000} wide",
            "ctl\u{1}in token é\u{e9} 🦀x",
            "\u{a0}\u{a0}",
        ] {
            let expected: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(Tokens(line).collect::<Vec<_>>(), expected, "{line:?}");
        }
    }

    #[test]
    fn names_with_quotes_survive() {
        let reg = registry();
        let par = reg.register("weird \"name\"\\x", RegionKind::Parallel, "t", 0);
        let snap = taskprof::replay(par, AssignPolicy::Executing, [Event::Advance(5)]);
        let p = Profile {
            threads: vec![snap],
        };
        let q = read_profile(&write_profile(&p)).expect("parse");
        assert_eq!(p.threads[0].main, q.threads[0].main);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_profile("").is_err());
        assert!(read_profile("not a profile").is_err());
        assert!(read_profile("taskprof-profile v1\nthreads x").is_err());
        let p = sample_profile();
        let text = write_profile(&p);
        let truncated = &text[..text.len() / 2];
        assert!(read_profile(truncated).is_err());
    }
}
