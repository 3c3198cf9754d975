//! Compact binary encoding of one repository record.
//!
//! A record is `RunMeta` + `Profile`, serialized with LEB128 varints and
//! length-prefixed UTF-8 strings, prefixed by a single version byte.
//! [`crate::frame`] (not this module) frames the payload with a length
//! word and a CRC-32. Region and parameter names are stored by name (+kind),
//! exactly like the text store, so records written by one process are
//! readable by any other; [`decode_record`] re-interns them into the
//! process-wide registry, and it is the only reader that does.
//!
//! Profile text becomes a record without a tree in between:
//! [`transcode_text`] is the walk of the text grammar
//! (`cube::walk_profile`) with a visitor that writes the record body
//! [`encode_record`] would write for `cube::read_profile(text)`, byte for
//! byte, and names nothing in the registry. Both that body and the one
//! [`verify_record`] returns are a [`VerifiedBody`], which a store stamps
//! with a header and appends as it is.
//!
//! Every reader is one walk of the record grammar, which checks the bytes
//! and shows what it passes — thread headers, diagnostics, and each node
//! as a [`NodeRef`] borrowed from the payload — to a visitor.
//! [`decode_record`] is the walk with a visitor that builds the trees.
//! [`check_record`] is the walk with a visitor that does nothing, so it
//! accepts exactly what [`decode_record`] accepts, with the same error.
//! [`verify_record`] is the canonical walk: it accepts exactly the bytes
//! [`encode_record`] writes, so a store can stamp a header on the body and
//! append it as is. [`crate::RunSummary::from_record`] folds a stored run
//! from the walk without building a tree or naming anything in the
//! registry.
//!
//! The `Stats` no-samples minimum keeps the text-format convention: the
//! in-memory `u64::MAX` sentinel is encoded as 0 and restored on decode
//! (which also keeps the varint short).

use cube::{Escaped, ParseError, ProfileBuilder, TextNode, TextVisit};
use pomp::{registry, RegionKind, RegistryView};
use std::borrow::Cow;
use taskprof::{NodeKind, Profile, SnapNode, Stats};

/// Current payload format version (the first payload byte).
pub const CODEC_VERSION: u8 = 1;

/// Hard ceiling on a single record payload; lengths beyond this are
/// treated as corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: usize = 256 << 20;

/// Identity and provenance of one stored run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Store-assigned, strictly increasing run identifier.
    pub run_id: u64,
    /// Benchmark / workload name (e.g. the session name or BOTS code).
    pub benchmark: String,
    /// Team thread count the run was measured with.
    pub threads: u32,
    /// Caller-supplied wall-clock timestamp, nanoseconds. Orders the
    /// streaming merge; deterministic sweeps may pin it for stable logs.
    pub timestamp_ns: u64,
}

/// A record could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the structure was complete.
    Truncated,
    /// The leading version byte is not one this build understands.
    BadVersion(u8),
    /// A structural element was out of range or malformed.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record payload truncated"),
            CodecError::BadVersion(v) => write!(f, "unsupported record version {v}"),
            CodecError::Malformed(what) => write!(f, "malformed record: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// Append a LEB128-encoded unsigned varint.
///
/// Public so sibling layers (the wire protocol in `profserve`) can share
/// one integer encoding with the record codec instead of inventing a
/// second one.
pub fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a length-prefixed UTF-8 string (varint length, then bytes).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uv(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Append a ZigZag-encoded signed varint.
pub fn put_iv(out: &mut Vec<u8>, v: i64) {
    // ZigZag so small negative parameter values stay short.
    put_uv(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Bounds-checked cursor over an encoded payload. Every read returns a
/// typed [`CodecError`] instead of panicking, so arbitrary bytes are safe
/// to feed in. Shared with the `profserve` wire protocol.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Refuse varints longer than their value needs ([`verify_record`]).
    canonical: bool,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            canonical: false,
        }
    }

    /// Read one raw byte.
    pub fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a LEB128 unsigned varint (see [`put_uv`]).
    pub fn uv(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(CodecError::Malformed("varint overflow"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                if self.canonical && b == 0 && shift > 0 {
                    return Err(CodecError::Malformed("overlong varint"));
                }
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::Malformed("varint too long"));
            }
        }
    }

    /// Read a ZigZag signed varint (see [`put_iv`]).
    pub fn iv(&mut self) -> Result<i64, CodecError> {
        let z = self.uv()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read a length-prefixed UTF-8 string (see [`put_str`]).
    pub fn str(&mut self) -> Result<String, CodecError> {
        self.str_ref().map(str::to_owned)
    }

    /// [`Reader::str`], borrowed from the payload.
    fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let len = self.uv()? as usize;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::Malformed("non-utf8 string"))
    }

    /// True when every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read exactly `len` raw bytes.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if len > self.remaining() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }
}

// ---------------------------------------------------------------------
// Tree encode / decode
// ---------------------------------------------------------------------

const TAG_REGION: u8 = 0;
const TAG_STUB: u8 = 1;
const TAG_PARAM: u8 = 2;
const TAG_TRUNCATED: u8 = 3;

/// What a node stands for, as a record spells it: borrowed from the
/// payload on the read side, from a registry view on the write side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRef<'a> {
    /// A region of this kind and name.
    Region(RegionKind, &'a str),
    /// The stub of the task region of this name.
    Stub(&'a str),
    /// A parameter of this name at this value.
    Param(&'a str, i64),
    /// A truncation marker.
    Truncated,
}

impl<'a> NodeRef<'a> {
    /// What [`encode_record`] writes for a node of `kind`.
    pub fn of(kind: NodeKind, reg: &'a RegistryView<'_>) -> Self {
        match kind {
            NodeKind::Region(id) => {
                let info = reg.info(id);
                NodeRef::Region(info.kind, &info.name)
            }
            NodeKind::Stub(id) => NodeRef::Stub(&reg.info(id).name),
            NodeKind::Param(p, v) => NodeRef::Param(reg.param_name(p), v),
            NodeKind::Truncated => NodeRef::Truncated,
        }
    }

    /// The node kind this names, its names interned into the process-wide
    /// registry: the inverse of [`NodeRef::of`].
    fn intern(self) -> NodeKind {
        let reg = registry();
        match self {
            NodeRef::Region(kind, name) => NodeKind::Region(reg.register(name, kind, "loaded", 0)),
            NodeRef::Stub(name) => {
                NodeKind::Stub(reg.register(name, RegionKind::Task, "loaded", 0))
            }
            NodeRef::Param(name, v) => NodeKind::Param(reg.register_param(name), v),
            NodeRef::Truncated => NodeKind::Truncated,
        }
    }
}

/// What the walk of a record shows, in record order. Every method has a
/// no-op default, so a visitor takes only the steps it needs, and the
/// walk behind a check (`()`) compiles to the checks alone.
pub(crate) trait Visit<'a> {
    /// A thread's header: tid, max live trees, arena capacity and shed
    /// instances. Its diagnostics, main tree and task trees follow.
    fn thread(&mut self, _header: [u64; 4]) {}
    /// One diagnostic line of the current thread.
    fn diagnostic(&mut self, _text: &'a str) {}
    /// A node, in pre-order: what it stands for, its statistics in the
    /// order of `put_stats`, how many children follow, and whether it is a
    /// thread's main root.
    fn node(&mut self, _node: NodeRef<'a>, _stats: &[u64; 6], _children: u64, _main_root: bool) {}
    /// The end of the last node not yet ended, after its children.
    fn end(&mut self, _main_root: bool) {}
}

impl Visit<'_> for () {}

fn put_stats(out: &mut Vec<u8>, s: &Stats) {
    put_uv(out, s.visits);
    put_uv(out, s.sum_ns);
    put_uv(out, s.min().unwrap_or(0));
    put_uv(out, s.max_ns);
    put_uv(out, s.samples);
    put_uv(out, s.aborted);
}

fn put_node(out: &mut Vec<u8>, reg: &RegistryView<'_>, node: &SnapNode) {
    match NodeRef::of(node.kind, reg) {
        NodeRef::Region(kind, name) => {
            out.push(TAG_REGION);
            out.push(kind as u8);
            put_str(out, name);
        }
        NodeRef::Stub(name) => {
            out.push(TAG_STUB);
            put_str(out, name);
        }
        NodeRef::Param(name, v) => {
            out.push(TAG_PARAM);
            put_str(out, name);
            put_iv(out, v);
        }
        NodeRef::Truncated => out.push(TAG_TRUNCATED),
    }
    put_stats(out, &node.stats);
    put_uv(out, node.children.len() as u64);
    for c in &node.children {
        put_node(out, reg, c);
    }
}

/// The walk of one node and its subtree, shown to `visit` as a
/// [`Visit::node`], its children's steps and a [`Visit::end`]. On a
/// canonical reader it also refuses the one form [`put_stats`] never
/// writes: a minimum on a node without samples.
fn walk_node<'a>(
    r: &mut Reader<'a>,
    depth: usize,
    main_root: bool,
    visit: &mut impl Visit<'a>,
) -> Result<(), CodecError> {
    if depth > 4096 {
        return Err(CodecError::Malformed("tree deeper than 4096"));
    }
    let node = match r.byte()? {
        TAG_REGION => {
            let kind =
                RegionKind::from_u8(r.byte()?).ok_or(CodecError::Malformed("bad region kind"))?;
            NodeRef::Region(kind, r.str_ref()?)
        }
        TAG_STUB => NodeRef::Stub(r.str_ref()?),
        TAG_PARAM => {
            let name = r.str_ref()?;
            NodeRef::Param(name, r.iv()?)
        }
        TAG_TRUNCATED => NodeRef::Truncated,
        _ => return Err(CodecError::Malformed("unknown node tag")),
    };
    // visits, sum, min, max, samples, aborted: the order of `put_stats`.
    let mut stats = [0u64; 6];
    for v in &mut stats {
        *v = r.uv()?;
    }
    let [_, _, min, _, samples, _] = stats;
    if r.canonical && samples == 0 && min != 0 {
        return Err(CodecError::Malformed("minimum without samples"));
    }
    let children = r.uv()?;
    // Each child costs at least one byte; anything larger is garbage.
    if children > r.remaining() as u64 {
        return Err(CodecError::Truncated);
    }
    visit.node(node, &stats, children, main_root);
    for _ in 0..children {
        walk_node(r, depth + 1, false, visit)?;
    }
    visit.end(main_root);
    Ok(())
}

// ---------------------------------------------------------------------
// Record encode / decode
// ---------------------------------------------------------------------

/// Append a record's header: the version byte and `meta`. Everything
/// after it is the profile body, which does not depend on `meta`.
pub fn put_meta(out: &mut Vec<u8>, meta: &RunMeta) {
    out.push(CODEC_VERSION);
    put_uv(out, meta.run_id);
    put_str(out, &meta.benchmark);
    put_uv(out, u64::from(meta.threads));
    put_uv(out, meta.timestamp_ns);
}

/// Encode one `(meta, profile)` record payload (version byte included,
/// framing excluded). The CRC-32 of the returned bytes is what the
/// segment layer stores alongside.
pub fn encode_record(meta: &RunMeta, profile: &Profile) -> Vec<u8> {
    let reg = registry().view();
    let mut out = Vec::with_capacity(256);
    put_meta(&mut out, meta);
    put_uv(&mut out, profile.threads.len() as u64);
    for t in &profile.threads {
        put_uv(&mut out, t.tid as u64);
        put_uv(&mut out, t.max_live_trees as u64);
        put_uv(&mut out, t.arena_capacity as u64);
        put_uv(&mut out, t.shed_instances);
        put_uv(&mut out, t.diagnostics.len() as u64);
        for d in &t.diagnostics {
            put_str(&mut out, d);
        }
        put_node(&mut out, &reg, &t.main);
        put_uv(&mut out, t.task_trees.len() as u64);
        for tree in &t.task_trees {
            put_node(&mut out, &reg, tree);
        }
    }
    out
}

/// Decode only the [`RunMeta`] header of a record payload — what index
/// rebuilding needs, without materializing the profile.
pub fn decode_meta(payload: &[u8]) -> Result<RunMeta, CodecError> {
    let mut r = Reader::new(payload);
    match r.byte()? {
        CODEC_VERSION => {}
        v => return Err(CodecError::BadVersion(v)),
    }
    Ok(RunMeta {
        run_id: r.uv()?,
        benchmark: r.str()?,
        threads: u32::try_from(r.uv()?).map_err(|_| CodecError::Malformed("threads overflow"))?,
        timestamp_ns: r.uv()?,
    })
}

/// Decode one record payload produced by [`encode_record`]: the walk of
/// [`check_record`], with a visitor that builds each thread's trees and
/// interns their names.
pub fn decode_record(payload: &[u8]) -> Result<(RunMeta, Profile), CodecError> {
    let mut profile = ProfileBuilder::default();
    walk_record(payload, false, &mut profile)?;
    Ok((decode_meta(payload)?, profile.finish()))
}

/// The visitor of [`decode_record`]: each thread's trees built, their
/// names interned.
impl<'a> Visit<'a> for ProfileBuilder {
    fn thread(&mut self, header: [u64; 4]) {
        ProfileBuilder::thread(self, header);
    }

    fn diagnostic(&mut self, text: &'a str) {
        ProfileBuilder::diagnostic(self, text.to_owned());
    }

    fn node(&mut self, node: NodeRef<'a>, stats: &[u64; 6], children: u64, _main_root: bool) {
        ProfileBuilder::node(self, node.intern(), stats, children as usize);
    }

    fn end(&mut self, main_root: bool) {
        ProfileBuilder::end(self, main_root);
    }
}

/// A profile body the store can stamp and append as it is: bytes
/// [`encode_record`] could have written after some header. It is a
/// payload's tail that [`verify_record`] accepted, or the body
/// [`transcode_text`] wrote for profile text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedBody<'a>(Cow<'a, [u8]>);

impl VerifiedBody<'_> {
    /// The record payload `meta` names: [`put_meta`] followed by the
    /// body, byte for byte what `encode_record(meta, profile)` writes for
    /// the profile the body spells.
    pub fn stamp(&self, meta: &RunMeta) -> Vec<u8> {
        // The version byte and the varints around the name take at most
        // 1 + 10 + 10 + 5 + 10 bytes.
        let mut out = Vec::with_capacity(36 + meta.benchmark.len() + self.0.len());
        put_meta(&mut out, meta);
        out.extend_from_slice(&self.0);
        out
    }

    /// False for the body of a profile without threads, which only
    /// [`transcode_text`] hands out: the thread count, its first varint,
    /// is 0.
    pub fn has_threads(&self) -> bool {
        self.0.first() != Some(&0)
    }
}

/// Check that `payload` is a record [`encode_record`] could have written,
/// and return its profile body: everything after the [`RunMeta`] header.
///
/// The walk makes [`decode_record`]'s checks (bounds, tree depth, tags,
/// region kinds, UTF-8, trailing bytes) but allocates nothing and never
/// touches the region registry, so untrusted input costs one pass over
/// its bytes. It refuses more than the decoder: a profile without
/// threads, and every form `encode_record` never emits — a varint longer
/// than its value needs, or a minimum on a node without samples. Every
/// body it accepts is therefore canonical: stamping a new header on it
/// gives exactly the bytes decoding and re-encoding would.
pub fn verify_record(payload: &[u8]) -> Result<VerifiedBody<'_>, CodecError> {
    let body = walk_record(payload, true, &mut ())?;
    Ok(VerifiedBody(Cow::Borrowed(&payload[body..])))
}

/// The record body of profile text: what `encode_record` writes after
/// [`put_meta`] for `cube::read_profile(text)`, byte for byte, written
/// from the walk of the text without building a tree or naming anything
/// in the registry. Refuses exactly what `cube::read_profile` refuses,
/// with its error; a profile without threads is a body all the same
/// ([`VerifiedBody::has_threads`]).
pub fn transcode_text(text: &str) -> Result<VerifiedBody<'static>, ParseError> {
    // A body takes about a third of its text's bytes.
    let mut body = TextBody {
        out: Vec::with_capacity(text.len() / 2),
        ..TextBody::default()
    };
    cube::walk_profile(text, &mut body)?;
    Ok(VerifiedBody(Cow::Owned(body.out)))
}

/// The visitor of [`transcode_text`]. A record spells each node's child
/// count, and each thread's diagnostic and task tree counts, before what
/// they count, and the text tells them only after: so a thread's
/// diagnostics and nodes are written to `diags` and `flat` first, and
/// copied to `out` behind their counts at the thread's end.
#[derive(Default)]
struct TextBody {
    out: Vec<u8>,
    diags: Vec<u8>,
    ndiags: u64,
    /// The encoded nodes of the current thread, in pre-order, without
    /// their child counts.
    flat: Vec<u8>,
    /// Per node of `flat`: where its bytes end and how many children it
    /// has.
    nodes: Vec<(usize, u64)>,
    /// Indices into `nodes` of the nodes begun and not yet ended.
    open: Vec<usize>,
    /// How many of `nodes` are the main tree's.
    main_nodes: usize,
    task_trees: u64,
}

impl TextBody {
    /// Append `nodes[range]` to `out`, each followed by its child count.
    fn flush_nodes(&mut self, range: std::ops::Range<usize>) {
        let mut start = range.start.checked_sub(1).map_or(0, |i| self.nodes[i].0);
        for &(end, children) in &self.nodes[range] {
            self.out.extend_from_slice(&self.flat[start..end]);
            put_uv(&mut self.out, children);
            start = end;
        }
    }
}

impl<'a> TextVisit<'a> for TextBody {
    fn threads(&mut self, count: usize) {
        put_uv(&mut self.out, count as u64);
    }

    fn thread(&mut self, header: [u64; 4]) {
        for v in header {
            put_uv(&mut self.out, v);
        }
        self.diags.clear();
        self.ndiags = 0;
        self.flat.clear();
        self.nodes.clear();
        self.task_trees = 0;
    }

    fn diagnostic(&mut self, text: Escaped<'a>) {
        put_str(&mut self.diags, &text.unescape());
        self.ndiags += 1;
    }

    fn node(&mut self, node: TextNode<'a>, stats: &[u64; 6], _main_root: bool) {
        let flat = &mut self.flat;
        match node {
            TextNode::Region(kind, name) => {
                flat.push(TAG_REGION);
                flat.push(kind as u8);
                put_str(flat, &name.unescape());
            }
            TextNode::Stub(name) => {
                flat.push(TAG_STUB);
                put_str(flat, &name.unescape());
            }
            TextNode::Param(name, value) => {
                flat.push(TAG_PARAM);
                put_str(flat, &name.unescape());
                put_iv(flat, value);
            }
            TextNode::Truncated => flat.push(TAG_TRUNCATED),
        }
        for &v in stats {
            put_uv(flat, v);
        }
        if let Some(&parent) = self.open.last() {
            self.nodes[parent].1 += 1;
        }
        self.open.push(self.nodes.len());
        self.nodes.push((flat.len(), 0));
    }

    fn end(&mut self, main_root: bool) {
        self.open.pop();
        if !self.open.is_empty() {
            return;
        }
        if main_root {
            self.main_nodes = self.nodes.len();
        } else {
            self.task_trees += 1;
        }
    }

    fn thread_end(&mut self) {
        put_uv(&mut self.out, self.ndiags);
        self.out.extend_from_slice(&self.diags);
        self.flush_nodes(0..self.main_nodes);
        put_uv(&mut self.out, self.task_trees);
        self.flush_nodes(self.main_nodes..self.nodes.len());
    }
}

/// Check that [`decode_record`] would accept `payload`, without decoding
/// it: [`verify_record`]'s walk, with the decoder's leniency towards an
/// overlong varint, a profile without threads and a minimum without
/// samples. What it refuses, it refuses with the decoder's error.
pub fn check_record(payload: &[u8]) -> Result<(), CodecError> {
    walk_record(payload, false, &mut ()).map(drop)
}

/// The one walk of the record grammar, behind [`verify_record`]
/// (`canonical`), [`check_record`], [`decode_record`] and
/// [`crate::RunSummary::from_record`]: shows each step to `visit` and
/// returns where the profile body starts.
pub(crate) fn walk_record<'a>(
    payload: &'a [u8],
    canonical: bool,
    visit: &mut impl Visit<'a>,
) -> Result<usize, CodecError> {
    let mut r = Reader {
        canonical,
        ..Reader::new(payload)
    };
    match r.byte()? {
        CODEC_VERSION => {}
        v => return Err(CodecError::BadVersion(v)),
    }
    r.uv()?; // run id
    r.str_ref()?; // benchmark
    u32::try_from(r.uv()?).map_err(|_| CodecError::Malformed("threads overflow"))?;
    r.uv()?; // timestamp
    let body = r.pos;
    let nthreads = r.uv()?;
    if canonical && nthreads == 0 {
        return Err(CodecError::Malformed("no threads"));
    }
    let most = payload.len() as u64;
    if nthreads > most {
        return Err(CodecError::Truncated);
    }
    for _ in 0..nthreads {
        // tid, max live trees, arena capacity, shed instances
        let mut header = [0u64; 4];
        for v in &mut header {
            *v = r.uv()?;
        }
        visit.thread(header);
        let ndiag = r.uv()?;
        if ndiag > most {
            return Err(CodecError::Truncated);
        }
        for _ in 0..ndiag {
            visit.diagnostic(r.str_ref()?);
        }
        walk_node(&mut r, 0, true, visit)?;
        let ntrees = r.uv()?;
        if ntrees > most {
            return Err(CodecError::Truncated);
        }
        for _ in 0..ntrees {
            walk_node(&mut r, 0, false, visit)?;
        }
    }
    if !r.done() {
        return Err(CodecError::Malformed("trailing bytes after profile"));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionKind, TaskIdAllocator};
    use taskprof::{AssignPolicy, Event, TeamReplayer};

    fn sample_profile(tag: &str) -> Profile {
        let reg = registry();
        let par = reg.register(&format!("{tag}-par"), RegionKind::Parallel, "t", 0);
        let task = reg.register(&format!("{tag}-task"), RegionKind::Task, "t", 0);
        let depth = reg.register_param(&format!("{tag}-depth"));
        let ids = TaskIdAllocator::new();
        let mut team = TeamReplayer::new(2, par, AssignPolicy::Executing);
        for k in 0..3 {
            let id = ids.alloc();
            team.apply(0, Event::TaskBegin { region: task, id })
                .apply(
                    0,
                    Event::ParamBegin {
                        param: depth,
                        value: k - 1,
                    },
                )
                .advance(10 + k as u64)
                .apply(0, Event::ParamEnd { param: depth })
                .apply(0, Event::TaskEnd { region: task, id });
        }
        team.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let p = sample_profile("codec-rt");
        let meta = RunMeta {
            run_id: 7,
            benchmark: "fib".into(),
            threads: 2,
            timestamp_ns: 123_456_789,
        };
        let payload = encode_record(&meta, &p);
        let (m2, q) = decode_record(&payload).expect("decode");
        assert_eq!(meta, m2);
        assert_eq!(p.threads.len(), q.threads.len());
        for (a, b) in p.threads.iter().zip(&q.threads) {
            assert_eq!(a.tid, b.tid);
            assert_eq!(a.main, b.main);
            assert_eq!(a.task_trees, b.task_trees);
            assert_eq!(a.max_live_trees, b.max_live_trees);
            assert_eq!(a.arena_capacity, b.arena_capacity);
            assert_eq!(a.shed_instances, b.shed_instances);
            assert_eq!(a.diagnostics, b.diagnostics);
        }
        // Deterministic: same input, same bytes.
        assert_eq!(payload, encode_record(&meta, &q));
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let p = sample_profile("codec-size");
        let meta = RunMeta {
            run_id: 1,
            benchmark: "fib".into(),
            threads: 2,
            timestamp_ns: 0,
        };
        let bin = encode_record(&meta, &p).len();
        let text = cube::write_profile(&p).len();
        assert!(bin < text, "binary {bin} >= text {text}");
    }

    #[test]
    fn no_samples_sentinel_round_trips() {
        let mut p = sample_profile("codec-min");
        let mut stats = Stats::new();
        stats.add_visit();
        p.threads[0].main.children.push(SnapNode {
            kind: NodeKind::Truncated,
            stats,
            children: vec![],
        });
        let meta = RunMeta {
            run_id: 1,
            benchmark: "b".into(),
            threads: 2,
            timestamp_ns: 0,
        };
        let payload = encode_record(&meta, &p);
        let (_, q) = decode_record(&payload).expect("decode");
        let s = &q.threads[0].main.children.last().unwrap().stats;
        assert_eq!(s.min(), None);
        assert_eq!(s.min_ns, u64::MAX);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let p = sample_profile("codec-trunc");
        let meta = RunMeta {
            run_id: 3,
            benchmark: "nqueens".into(),
            threads: 2,
            timestamp_ns: 42,
        };
        let payload = encode_record(&meta, &p);
        for cut in 0..payload.len() {
            assert!(
                decode_record(&payload[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
            assert!(
                verify_record(&payload[..cut]).is_err(),
                "prefix of {cut} bytes verified"
            );
            assert!(
                check_record(&payload[..cut]).is_err(),
                "prefix of {cut} bytes checked"
            );
        }
    }

    #[test]
    fn check_record_accepts_exactly_what_decodes() {
        let meta = RunMeta {
            run_id: 4,
            benchmark: "fib".into(),
            threads: 2,
            timestamp_ns: 7,
        };
        let payload = encode_record(&meta, &sample_profile("codec-check"));
        let truncations =
            (0..payload.len()).map(|cut| (payload[..cut].to_vec(), format!("cut at {cut}")));
        let flips = (0..payload.len() * 8).map(|i| {
            let (at, bit) = (i / 8, i % 8);
            let mut mutated = payload.clone();
            mutated[at] ^= 1 << bit;
            (mutated, format!("bit {bit} of byte {at} flipped"))
        });
        let mut agreed = [0usize; 2];
        for (mutated, how) in truncations.chain(flips) {
            let decoded = decode_record(&mutated).err();
            assert_eq!(check_record(&mutated).err(), decoded, "{how}");
            agreed[usize::from(decoded.is_none())] += 1;
        }
        assert!(
            agreed.iter().all(|&n| n > 0),
            "both verdicts occur: {agreed:?}"
        );
    }

    /// One thread whose main tree is a single truncation marker carrying
    /// `stats` (six varints, spelled out byte by byte).
    fn one_node(stats: &[u8]) -> Vec<u8> {
        let meta = RunMeta {
            run_id: 0,
            benchmark: "b".into(),
            threads: 1,
            timestamp_ns: 0,
        };
        let mut out = Vec::new();
        put_meta(&mut out, &meta);
        out.extend_from_slice(&[1, 0, 0, 0, 0, 0, TAG_TRUNCATED]);
        out.extend_from_slice(stats);
        out.extend_from_slice(&[0, 0]);
        out
    }

    #[test]
    fn a_verified_body_stamped_is_the_encoders_record() {
        let mut p = sample_profile("codec-verify");
        let mut unsampled = Stats::new();
        unsampled.add_visit();
        p.threads[1].main.children.push(SnapNode {
            kind: NodeKind::Truncated,
            stats: unsampled,
            children: vec![],
        });
        let sent = RunMeta {
            run_id: 0,
            benchmark: "client".into(),
            threads: 9,
            timestamp_ns: 1,
        };
        let stored = RunMeta {
            run_id: u64::MAX,
            benchmark: "stored ✓".into(),
            threads: 2,
            timestamp_ns: 77,
        };
        let payload = encode_record(&sent, &p);
        let body = verify_record(&payload).expect("the encoder's bytes verify");
        assert_eq!(body.stamp(&stored), encode_record(&stored, &p));
        let (_, decoded) = decode_record(&payload).expect("decode");
        assert_eq!(body.stamp(&stored), encode_record(&stored, &decoded));
    }

    #[test]
    fn verify_refuses_what_the_encoder_never_writes() {
        let canonical = one_node(&[1, 0, 0, 0, 0, 0]);
        assert!(verify_record(&canonical).is_ok());
        assert!(decode_record(&canonical).is_ok());
        for (stats, why) in [
            (&[1, 0, 5, 0, 0, 0][..], "minimum without samples"),
            (&[0x81, 0x00, 0, 0, 0, 0, 0][..], "overlong varint"),
            (&[1, 0, 0, 0, 0, 0x80, 0x80, 0x00][..], "overlong varint"),
        ] {
            let payload = one_node(stats);
            assert!(
                decode_record(&payload).is_ok(),
                "{why}: the decoder accepts it"
            );
            assert_eq!(check_record(&payload), Ok(()), "{why}: so does check");
            assert_eq!(
                verify_record(&payload),
                Err(CodecError::Malformed(why)),
                "{stats:?}"
            );
        }
        let mut empty = Vec::new();
        put_meta(
            &mut empty,
            &RunMeta {
                run_id: 0,
                benchmark: "b".into(),
                threads: 1,
                timestamp_ns: 0,
            },
        );
        empty.push(0);
        assert!(decode_record(&empty).is_ok());
        assert_eq!(check_record(&empty), Ok(()));
        assert_eq!(
            verify_record(&empty),
            Err(CodecError::Malformed("no threads"))
        );
    }

    #[test]
    fn bad_version_and_garbage_are_rejected() {
        let p = sample_profile("codec-bad");
        let meta = RunMeta {
            run_id: 3,
            benchmark: "x".into(),
            threads: 1,
            timestamp_ns: 0,
        };
        let mut payload = encode_record(&meta, &p);
        payload[0] = 99;
        assert!(matches!(
            decode_record(&payload),
            Err(CodecError::BadVersion(99))
        ));
        assert_eq!(verify_record(&payload), Err(CodecError::BadVersion(99)));
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[CODEC_VERSION, 0xFF]).is_err());
        assert!(verify_record(&[]).is_err());
        assert!(verify_record(&[CODEC_VERSION, 0xFF]).is_err());
    }
}
