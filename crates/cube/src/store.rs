//! Plain-text profile persistence.
//!
//! Score-P writes `.cubex` archives that CUBE reads later; this is the
//! reproduction's equivalent: a line-oriented, diff-friendly text format
//! that round-trips a whole per-thread [`Profile`]. Region and parameter
//! names are stored by name+kind, so profiles can be compared across
//! processes and machines.
//!
//! Every reader is one walk of the text grammar, [`walk_profile`], which
//! checks the text line by line and shows what it passes — the thread
//! count, thread headers, diagnostics, and each node with its name
//! borrowed from the text ([`TextNode`], [`Escaped`]) — to a
//! [`TextVisit`]. A node line is read left to right in one pass over
//! its bytes. [`read_profile`] is the walk with a visitor that builds the
//! trees and re-interns the names into the process-wide registry;
//! `profstore::transcode_text` is the walk with a visitor that writes the
//! record body the store appends, and names nothing in the registry.

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

/// A name or diagnostic as the text spells it: `\` escapes still in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Escaped<'a>(&'a str);

impl<'a> Escaped<'a> {
    /// The spelling, escapes and all.
    pub fn raw(self) -> &'a str {
        self.0
    }

    /// The text the spelling stands for; borrowed when there is nothing
    /// to undo. Each `\` takes the character after it as it is, and a
    /// `\` that ends the spelling is dropped.
    pub fn unescape(self) -> Cow<'a, str> {
        if !self.0.contains('\\') {
            return Cow::Borrowed(self.0);
        }
        let mut out = String::with_capacity(self.0.len());
        let mut chars = self.0.chars();
        while let Some(c) = chars.next() {
            out.extend(if c == '\\' { chars.next() } else { Some(c) });
        }
        Cow::Owned(out)
    }
}

/// What a node line stands for, as the text spells it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TextNode<'a> {
    /// A region of this kind and name.
    Region(RegionKind, Escaped<'a>),
    /// The stub of the task region of this name.
    Stub(Escaped<'a>),
    /// A parameter of this name at this value.
    Param(Escaped<'a>, i64),
    /// A truncation marker (whatever name the line spells).
    Truncated,
}

/// What the walk of profile text shows, in text order. Every method has
/// a no-op default, so a visitor takes only the steps it needs.
pub trait TextVisit<'a> {
    /// The thread count the text declares; that many threads follow.
    fn threads(&mut self, _count: usize) {}
    /// A thread's header: tid, max live trees, arena capacity and shed
    /// instances. Its diagnostics, main tree and task trees follow.
    fn thread(&mut self, _header: [u64; 4]) {}
    /// One diagnostic line of the current thread.
    fn diagnostic(&mut self, _text: Escaped<'a>) {}
    /// A node, in pre-order: what it stands for, its statistics (visits,
    /// sum, min, max, samples, aborted; the minimum is 0 on a node
    /// without samples, whatever the line spells), and whether it is a
    /// thread's main root.
    fn node(&mut self, _node: TextNode<'a>, _stats: &[u64; 6], _main_root: bool) {}
    /// The end of the last node not yet ended, after its children.
    fn end(&mut self, _main_root: bool) {}
    /// The end of the current thread, after its last task tree.
    fn thread_end(&mut self) {}
}

impl TextVisit<'_> for () {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    err_at(line, 0, message)
}

/// The error at the 0-based `line`, 1-based `column` (0: the whole line).
fn err_at(line: usize, column: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line: line + 1,
        column,
        message: message.into(),
    }
}

/// The character at byte `i` of `s` (a character boundary): its length
/// in bytes, and whether it is whitespace as `char::is_whitespace` says,
/// decided on the byte alone for ASCII.
fn char_at(s: &str, i: usize) -> (usize, bool) {
    match s.as_bytes()[i] {
        b @ 0..=0x7f => (1, b == b' ' || (b'\t'..=b'\r').contains(&b)),
        _ => {
            let c = s[i..].chars().next().expect("a character boundary");
            (c.len_utf8(), c.is_whitespace())
        }
    }
}

/// Where the run of whitespace (`space`) or of anything else (`!space`)
/// that starts at byte `i` of `s` ends. Spaces, and the printable ASCII
/// of a token, are skipped a byte at a time before anything is decoded.
fn run_end(s: &str, mut i: usize, space: bool) -> usize {
    let bytes = s.as_bytes();
    let plain = |b: u8| {
        if space {
            b == b' '
        } else {
            b.is_ascii_graphic()
        }
    };
    while i < bytes.len() && plain(bytes[i]) {
        i += 1;
    }
    while i < s.len() {
        let (len, is_space) = char_at(s, i);
        if is_space != space {
            break;
        }
        i += len;
    }
    i
}

/// Where the whitespace that starts at byte `i` of `s` ends: the
/// indentation of a line, for `i = 0`, as `str::trim_start` cuts it.
fn skip_spaces(s: &str, i: usize) -> usize {
    run_end(s, i, true)
}

/// `str::split_whitespace`, token for token, as a cursor over `s`.
struct Tokens<'a> {
    s: &'a str,
    at: usize,
}

impl<'a> Tokens<'a> {
    fn new(s: &'a str) -> Self {
        Tokens { s, at: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let start = skip_spaces(self.s, self.at);
        self.at = run_end(self.s, start, false);
        (self.at > start).then(|| &self.s[start..self.at])
    }

    /// What the cursor has not read yet.
    fn rest(&self) -> &'a str {
        &self.s[self.at..]
    }
}

/// `str::parse::<u64>`: an optional `+`, then one or more ASCII digits.
fn parse_u64(token: &str) -> Option<u64> {
    let digits = match token.as_bytes() {
        [b'+', rest @ ..] if !rest.is_empty() => rest,
        digits => digits,
    };
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |v, &b| {
        let d = b.wrapping_sub(b'0');
        (d < 10).then_some(())?;
        v.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// `str::parse::<usize>`.
fn parse_usize(token: &str) -> Option<usize> {
    parse_u64(token).and_then(|v| usize::try_from(v).ok())
}

/// `str::parse::<i64>`: an optional sign, then one or more ASCII digits.
fn parse_i64(token: &str) -> Option<i64> {
    let (negative, digits) = match token.as_bytes() {
        [b'-', rest @ ..] if !rest.is_empty() => (true, rest),
        [b'+', rest @ ..] if !rest.is_empty() => (false, rest),
        digits => (false, digits),
    };
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0i64, |v, &b| {
        let d = b.wrapping_sub(b'0');
        (d < 10).then_some(())?;
        let v = v.checked_mul(10)?;
        if negative {
            v.checked_sub(i64::from(d))
        } else {
            v.checked_add(i64::from(d))
        }
    })
}

/// The statistic keys of a node line, in the order `write_node` spells
/// them.
const STAT_KEYS: [&str; 5] = ["visits", "sum", "min", "max", "samples"];

/// One node line that starts with `indent` bytes of whitespace: what it
/// stands for and its statistics, read left to right in one pass.
fn node_line<'a>(
    lineno: usize,
    raw: &'a str,
    indent: usize,
) -> Result<(TextNode<'a>, [u64; 6]), ParseError> {
    let bytes = raw.as_bytes();
    let quote = bytes[indent..]
        .iter()
        .position(|&b| b == b'"')
        .map(|q| indent + q)
        .ok_or_else(|| err_at(lineno, indent + 1, "missing name quote"))?;
    let head = &raw[indent..quote];
    // The closing quote: a `\` takes the byte after it along.
    let mut close = quote + 1;
    while close < bytes.len() && bytes[close] != b'"' {
        close += if bytes[close] == b'\\' { 2 } else { 1 };
    }
    if close >= bytes.len() {
        return Err(err_at(lineno, quote + 1, "unterminated name"));
    }
    let name = Escaped(&raw[quote + 1..close]);
    // 1-based column where the post-name tail of the line starts.
    let tail_col = close + 2;
    let mut tail = Tokens::new(&raw[close + 1..]);
    let node = match head_words(head) {
        (Some("region"), Some(tag), None) => {
            let kind = RegionKind::from_tag(tag)
                .ok_or_else(|| err_at(lineno, indent + 1, format!("unknown region kind {tag}")))?;
            TextNode::Region(kind, name)
        }
        // Stubs always refer to task constructs.
        (Some("stub"), None, _) => TextNode::Stub(name),
        (Some("truncated"), None, _) => TextNode::Truncated,
        (Some("param"), None, _) => {
            let value = tail
                .next()
                .and_then(parse_i64)
                .ok_or_else(|| err_at(lineno, tail_col, "param missing value"))?;
            TextNode::Param(name, value)
        }
        _ => {
            let other: Vec<&str> = head.split_whitespace().collect();
            return Err(err_at(
                lineno,
                indent + 1,
                format!("unknown node head {other:?}"),
            ));
        }
    };
    let mut stats = match written_stats(tail.rest().as_bytes()) {
        Some(stats) => stats,
        None => stats_tokens(lineno, tail_col, tail)?,
    };
    let [_, _, min, _, samples, _] = &mut stats;
    if *samples == 0 {
        // The export convention: no minimum without samples (this also
        // reads legacy files that spelled the `u64::MAX` sentinel).
        *min = 0;
    }
    Ok((node, stats))
}

/// The first three of `head`'s `str::split_whitespace` words, read
/// straight off the bytes for a head spelled as `write_node` spells it:
/// one or two lowercase words, each followed by one space.
fn head_words(head: &str) -> (Option<&str>, Option<&str>, Option<&str>) {
    let word = |w: &str| !w.is_empty() && w.bytes().all(|b| b.is_ascii_lowercase());
    if let Some(words) = head.strip_suffix(' ') {
        match words.split_once(' ') {
            None if word(words) => return (Some(words), None, None),
            Some((first, second)) if word(first) && word(second) => {
                return (Some(first), Some(second), None)
            }
            _ => {}
        }
    }
    let mut words = Tokens::new(head);
    (words.next(), words.next(), words.next())
}

/// The statistics of the rest of a node line spelled as `write_node`
/// spells them — ` visits V sum S min M max X samples N`, then
/// ` aborted A` or nothing, single spaces, each value plain digits — read
/// in one pass over its bytes. `None` for any other spelling, which
/// [`stats_tokens`] reads (or refuses) instead.
fn written_stats(rest: &[u8]) -> Option<[u64; 6]> {
    const KEYS: [&[u8]; 6] = [
        b" visits ",
        b" sum ",
        b" min ",
        b" max ",
        b" samples ",
        b" aborted ",
    ];
    let mut stats = [0u64; 6];
    let mut at = 0;
    for (i, key) in KEYS.iter().enumerate() {
        if i == 5 && at == rest.len() {
            break;
        }
        if rest.get(at..at + key.len())? != *key {
            return None;
        }
        at += key.len();
        let start = at;
        let mut v = 0u64;
        while let Some(d) = rest
            .get(at)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            v = v.wrapping_mul(10).wrapping_add(u64::from(d));
            at += 1;
        }
        // Up to 19 digits cannot overflow; longer values take the
        // checked path.
        if at == start || at - start > 19 {
            return None;
        }
        stats[i] = v;
    }
    (at == rest.len()).then_some(stats)
}

/// The statistics the rest of a node line spells, token by token: the
/// five [`STAT_KEYS`] each followed by its value, then an optional
/// `aborted` and its value, and nothing after.
fn stats_tokens(
    lineno: usize,
    tail_col: usize,
    mut tail: Tokens<'_>,
) -> Result<[u64; 6], ParseError> {
    let mut stats = [0u64; 6];
    for (key, v) in STAT_KEYS.into_iter().zip(&mut stats) {
        *v = match (tail.next(), tail.next()) {
            (Some(k), Some(n)) if k == key => {
                parse_u64(n).ok_or_else(|| err_at(lineno, tail_col, format!("bad {key} value")))?
            }
            _ => return Err(err_at(lineno, tail_col, format!("expected '{key} <n>'"))),
        };
    }
    // Optional fault-tolerance annotation (absent in clean and in older
    // profiles).
    match tail.next() {
        None => {}
        Some("aborted") => {
            stats[5] = tail
                .next()
                .and_then(parse_u64)
                .ok_or_else(|| err_at(lineno, tail_col, "bad aborted value"))?;
        }
        Some(other) => {
            return Err(err_at(
                lineno,
                tail_col,
                format!("unexpected trailing token '{other}'"),
            ))
        }
    }
    if let Some(extra) = tail.next() {
        return Err(err_at(
            lineno,
            tail_col,
            format!("unexpected trailing token '{extra}'"),
        ));
    }
    Ok(stats)
}

/// The walk's state: the lines not yet read, and the depths of the nodes
/// below the current tree's root begun and not yet ended.
struct Walk<'a> {
    lines: std::iter::Peekable<std::iter::Enumerate<std::str::Lines<'a>>>,
    open: Vec<usize>,
}

impl<'a> Walk<'a> {
    /// One tree: its root line, then every following line indented
    /// deeper than the root, up to a section keyword or a blank line.
    /// A node's parent is the nearest node above it that is indented
    /// less deeply.
    fn tree(&mut self, main_root: bool, visit: &mut impl TextVisit<'a>) -> Result<(), ParseError> {
        let (lineno, first) = self
            .lines
            .next()
            .ok_or_else(|| err(0, "unexpected end of file in tree"))?;
        let indent = skip_spaces(first, 0);
        let (node, stats) = node_line(lineno, first, indent)?;
        visit.node(node, &stats, main_root);
        let base = indent / 2;
        self.open.clear();
        while let Some(&(lineno, line)) = self.lines.peek() {
            let indent = skip_spaces(line, 0);
            let trimmed = &line[indent..];
            let depth = indent / 2;
            if trimmed.is_empty()
                || trimmed.starts_with("main")
                || trimmed.starts_with("tasktree")
                || trimmed.starts_with("thread ")
                || trimmed.starts_with("end")
                || depth <= base
            {
                break;
            }
            self.lines.next();
            let (node, stats) = node_line(lineno, line, indent)?;
            while self.open.last().is_some_and(|&open| open >= depth) {
                self.open.pop();
                visit.end(false);
            }
            visit.node(node, &stats, false);
            self.open.push(depth);
        }
        for _ in self.open.drain(..) {
            visit.end(false);
        }
        visit.end(main_root);
        Ok(())
    }

    /// One thread: its header line, diagnostics, main tree and task
    /// trees, up to its `end`.
    fn thread(&mut self, visit: &mut impl TextVisit<'a>) -> Result<(), ParseError> {
        let (n, header) = self
            .lines
            .next()
            .ok_or_else(|| err(0, "missing thread header"))?;
        let mut tokens = Tokens::new(header);
        let tokens: [Option<&str>; 9] = std::array::from_fn(|_| tokens.next());
        let header = match tokens {
            [Some("thread"), Some(tid), Some("max_live"), Some(ml), Some("arena"), Some(ar), shed @ ..] =>
            {
                let tid = parse_usize(tid).ok_or_else(|| err(n, "bad tid"))?;
                let max_live = parse_usize(ml).ok_or_else(|| err(n, "bad max_live"))?;
                let arena = parse_usize(ar).ok_or_else(|| err(n, "bad arena"))?;
                let shed = match shed {
                    [None, ..] => 0,
                    [Some("shed"), Some(sh), None] => {
                        parse_u64(sh).ok_or_else(|| err(n, "bad shed count"))?
                    }
                    _ => return Err(err(n, "malformed thread header")),
                };
                [tid as u64, max_live as u64, arena as u64, shed]
            }
            _ => return Err(err(n, "malformed thread header")),
        };
        visit.thread(header);
        // Optional self-healing diagnostics recorded with the thread.
        while let Some(&(dn, line)) = self.lines.peek() {
            let Some(rest) = line.trim().strip_prefix("diag ") else {
                break;
            };
            self.lines.next();
            let inner = rest
                .trim()
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .ok_or_else(|| err(dn, "malformed diag line"))?;
            visit.diagnostic(Escaped(inner));
        }
        match self.lines.next() {
            Some((_, line)) if line.trim() == "main" => {}
            Some((m, line)) => return Err(err(m, format!("expected 'main', got '{line}'"))),
            None => return Err(err(n, "missing main section")),
        }
        self.tree(true, visit)?;
        loop {
            match self.lines.next() {
                Some((_, line)) if line.trim() == "tasktree" => self.tree(false, visit)?,
                Some((_, line)) if line.trim() == "end" => break,
                Some((m, line)) => {
                    return Err(err(m, format!("expected tasktree/end, got '{line}'")))
                }
                None => return Err(err(0, "missing 'end'")),
            }
        }
        visit.thread_end();
        Ok(())
    }
}

/// The one walk of the text grammar, behind [`read_profile`] and every
/// other reader of profile text: checks `text` line by line and shows
/// each step to `visit`. What it refuses, it refuses before `visit` sees
/// the step that failed; lines after the last thread's `end` are not
/// read.
pub fn walk_profile<'a>(text: &'a str, visit: &mut impl TextVisit<'a>) -> Result<(), ParseError> {
    let mut walk = Walk {
        lines: text.lines().enumerate().peekable(),
        open: Vec::new(),
    };
    match walk.lines.next() {
        Some((_, line)) if line.trim() == MAGIC => {}
        Some((n, line)) => return Err(err(n, format!("bad magic '{line}'"))),
        None => return Err(err(0, "empty input")),
    }
    let count = match walk.lines.next() {
        Some((n, line)) => line
            .trim()
            .strip_prefix("threads ")
            .and_then(parse_usize)
            .ok_or_else(|| err(n, "expected 'threads <n>'"))?,
        None => return Err(err(1, "missing thread count")),
    };
    visit.threads(count);
    for _ in 0..count {
        walk.thread(visit)?;
    }
    Ok(())
}

/// A [`Profile`] built from a pre-order walk of one: each thread's
/// header, its diagnostics, and each node begun and then ended after its
/// children. The trees grow on a stack of the nodes begun and not yet
/// ended, outermost first. [`read_profile`] and
/// `profstore::decode_record` both build with it.
#[derive(Default)]
pub struct ProfileBuilder {
    threads: Vec<ThreadSnapshot>,
    open: Vec<SnapNode>,
}

impl ProfileBuilder {
    /// Begin a thread: tid, max live trees, arena capacity and shed
    /// instances.
    pub fn thread(&mut self, [tid, max_live_trees, arena_capacity, shed_instances]: [u64; 4]) {
        self.threads.push(ThreadSnapshot {
            tid: tid as usize,
            parallel_region: RegionId(0),
            main: SnapNode {
                kind: NodeKind::Truncated,
                stats: Stats::new(),
                children: Vec::new(),
            },
            task_trees: Vec::new(),
            max_live_trees: max_live_trees as usize,
            arena_capacity: arena_capacity as usize,
            shed_instances,
            diagnostics: Vec::new(),
        });
    }

    /// One diagnostic of the current thread.
    pub fn diagnostic(&mut self, text: String) {
        let thread = self.threads.last_mut().expect("a thread header first");
        thread.diagnostics.push(text);
    }

    /// Begin a node of `kind` with room for `children`. `stats` are
    /// visits, sum, min, max, samples and aborted, the minimum 0 on a
    /// node without samples, as the text and the record spell them.
    pub fn node(&mut self, kind: NodeKind, stats: &[u64; 6], children: usize) {
        let &[visits, sum_ns, min_ns, max_ns, samples, aborted] = stats;
        self.open.push(SnapNode {
            kind,
            stats: Stats {
                visits,
                sum_ns,
                // Restore the internal no-samples sentinel so a re-loaded
                // profile is indistinguishable from a live one.
                min_ns: if samples == 0 { u64::MAX } else { min_ns },
                max_ns,
                samples,
                aborted,
            },
            children: Vec::with_capacity(children),
        });
    }

    /// End the last node begun and not yet ended: a child of the node
    /// below it, or else a tree of the current thread, its main tree when
    /// `main_root`.
    pub fn end(&mut self, main_root: bool) {
        let node = self.open.pop().expect("an end follows its node");
        if let Some(parent) = self.open.last_mut() {
            parent.children.push(node);
            return;
        }
        let thread = self.threads.last_mut().expect("a thread header first");
        if main_root {
            if let NodeKind::Region(id) = node.kind {
                thread.parallel_region = id;
            }
            thread.main = node;
        } else {
            thread.task_trees.push(node);
        }
    }

    /// The profile built.
    pub fn finish(self) -> Profile {
        Profile {
            threads: self.threads,
        }
    }
}

/// The visitor of [`read_profile`]: a [`ProfileBuilder`], with the
/// registry asked once per distinct name as the text spells it.
#[derive(Default)]
struct Build<'a> {
    profile: ProfileBuilder,
    regions: HashMap<(&'a str, RegionKind), RegionId>,
    params: HashMap<&'a str, ParamId>,
}

impl<'a> Build<'a> {
    fn region(&mut self, name: Escaped<'a>, kind: RegionKind) -> RegionId {
        *self
            .regions
            .entry((name.raw(), kind))
            .or_insert_with(|| registry().register(&name.unescape(), kind, "loaded", 0))
    }
}

impl<'a> TextVisit<'a> for Build<'a> {
    fn thread(&mut self, header: [u64; 4]) {
        self.profile.thread(header);
    }

    fn diagnostic(&mut self, text: Escaped<'a>) {
        self.profile.diagnostic(text.unescape().into_owned());
    }

    fn node(&mut self, node: TextNode<'a>, stats: &[u64; 6], _main_root: bool) {
        let kind = match node {
            TextNode::Region(kind, name) => NodeKind::Region(self.region(name, kind)),
            TextNode::Stub(name) => NodeKind::Stub(self.region(name, RegionKind::Task)),
            TextNode::Param(name, value) => {
                let id = *self
                    .params
                    .entry(name.raw())
                    .or_insert_with(|| registry().register_param(&name.unescape()));
                NodeKind::Param(id, value)
            }
            TextNode::Truncated => NodeKind::Truncated,
        };
        self.profile.node(kind, stats, 0);
    }

    fn end(&mut self, main_root: bool) {
        self.profile.end(main_root);
    }
}

/// Parse a profile from the text format: [`walk_profile`] with a visitor
/// that builds the trees and interns their names.
pub fn read_profile(text: &str) -> Result<Profile, ParseError> {
    let mut build = Build::default();
    walk_profile(text, &mut build)?;
    Ok(build.profile.finish())
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
            let mut tokens = Tokens::new(line);
            let got: Vec<&str> = std::iter::from_fn(|| tokens.next()).collect();
            assert_eq!(got, expected, "{line:?}");
            assert_eq!(skip_spaces(line, 0), line.len() - line.trim_start().len());
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
