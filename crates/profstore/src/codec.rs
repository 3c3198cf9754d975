//! Compact binary encoding of one repository record.
//!
//! A record is `RunMeta` + `Profile`, serialized with LEB128 varints and
//! length-prefixed UTF-8 strings, prefixed by a single version byte.
//! [`crate::frame`] (not this module) frames the payload with a length
//! word and a CRC-32. Region and parameter names are stored by name (+kind),
//! exactly like the text store, so records written by one process are
//! readable by any other; [`decode_record`] re-interns them into the
//! process-wide registry, and it is the only reader that does.
//! [`verify_record`] checks an untrusted record without decoding it: it
//! accepts exactly the bytes [`encode_record`] writes, so a store can stamp
//! a header on the body and append it as is. [`check_record`] is the same
//! walk with the decoder's leniency: it accepts exactly what
//! [`decode_record`] accepts, with the same error. The walk shows each node
//! it passes to a visitor as a [`NodeRef`] borrowed from the payload, which
//! is how [`crate::RunSummary::from_record`] folds a stored run without
//! building a tree or naming anything in the registry.
//!
//! The `Stats` no-samples minimum keeps the text-format convention: the
//! in-memory `u64::MAX` sentinel is encoded as 0 and restored on decode
//! (which also keeps the varint short).

use pomp::{registry, RegionKind, RegistryView};
use taskprof::{NodeKind, Profile, SnapNode, Stats, ThreadSnapshot};

/// Current payload format version (the first payload byte).
pub const CODEC_VERSION: u8 = 1;

/// Hard ceiling on a single record payload; lengths beyond this are
/// treated as corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: usize = 256 << 20;

/// Identity and provenance of one stored run.
#[derive(Clone, Debug, PartialEq, Eq)]
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
}

fn put_stats(out: &mut Vec<u8>, s: &Stats) {
    put_uv(out, s.visits);
    put_uv(out, s.sum_ns);
    put_uv(out, s.min().unwrap_or(0));
    put_uv(out, s.max_ns);
    put_uv(out, s.samples);
    put_uv(out, s.aborted);
}

fn read_stats(r: &mut Reader<'_>) -> Result<Stats, CodecError> {
    let mut s = Stats::new();
    s.visits = r.uv()?;
    s.sum_ns = r.uv()?;
    s.min_ns = r.uv()?;
    s.max_ns = r.uv()?;
    s.samples = r.uv()?;
    s.aborted = r.uv()?;
    if s.samples == 0 {
        s.min_ns = u64::MAX;
    }
    Ok(s)
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

fn read_node(r: &mut Reader<'_>, depth: usize) -> Result<SnapNode, CodecError> {
    if depth > 4096 {
        return Err(CodecError::Malformed("tree deeper than 4096"));
    }
    let reg = registry();
    let kind = match r.byte()? {
        TAG_REGION => {
            let k =
                RegionKind::from_u8(r.byte()?).ok_or(CodecError::Malformed("bad region kind"))?;
            let name = r.str()?;
            NodeKind::Region(reg.register(&name, k, "loaded", 0))
        }
        TAG_STUB => NodeKind::Stub(reg.register(&r.str()?, RegionKind::Task, "loaded", 0)),
        TAG_PARAM => {
            let name = r.str()?;
            let v = r.iv()?;
            NodeKind::Param(reg.register_param(&name), v)
        }
        TAG_TRUNCATED => NodeKind::Truncated,
        _ => return Err(CodecError::Malformed("unknown node tag")),
    };
    let stats = read_stats(r)?;
    let nchildren = r.uv()? as usize;
    if nchildren > r.buf.len() - r.pos {
        // Each child costs at least one byte; anything larger is garbage.
        return Err(CodecError::Truncated);
    }
    let mut children = Vec::with_capacity(nchildren);
    for _ in 0..nchildren {
        children.push(read_node(r, depth + 1)?);
    }
    Ok(SnapNode {
        kind,
        stats,
        children,
    })
}

/// [`read_node`]'s walk without building anything: the same checks, plus,
/// on a canonical reader, the one form [`put_stats`] never writes — a
/// minimum on a node without samples. Each node is shown to `visit`, in
/// pre-order, with its inclusive nanoseconds and whether it is a thread's
/// main root.
fn verify_node<'a>(
    r: &mut Reader<'a>,
    depth: usize,
    main_root: bool,
    visit: &mut impl FnMut(NodeRef<'a>, u64, bool),
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
    let [_, sum_ns, min, _, samples, _] = stats;
    if r.canonical && samples == 0 && min != 0 {
        return Err(CodecError::Malformed("minimum without samples"));
    }
    visit(node, sum_ns, main_root);
    let nchildren = r.uv()?;
    if nchildren > r.remaining() as u64 {
        return Err(CodecError::Truncated);
    }
    for _ in 0..nchildren {
        verify_node(r, depth + 1, false, visit)?;
    }
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

/// Decode one record payload produced by [`encode_record`].
pub fn decode_record(payload: &[u8]) -> Result<(RunMeta, Profile), CodecError> {
    let mut r = Reader::new(payload);
    match r.byte()? {
        CODEC_VERSION => {}
        v => return Err(CodecError::BadVersion(v)),
    }
    let meta = RunMeta {
        run_id: r.uv()?,
        benchmark: r.str()?,
        threads: u32::try_from(r.uv()?).map_err(|_| CodecError::Malformed("threads overflow"))?,
        timestamp_ns: r.uv()?,
    };
    let nthreads = r.uv()? as usize;
    if nthreads > payload.len() {
        return Err(CodecError::Truncated);
    }
    let mut threads = Vec::with_capacity(nthreads);
    for _ in 0..nthreads {
        let tid = r.uv()? as usize;
        let max_live_trees = r.uv()? as usize;
        let arena_capacity = r.uv()? as usize;
        let shed_instances = r.uv()?;
        let ndiag = r.uv()? as usize;
        if ndiag > payload.len() {
            return Err(CodecError::Truncated);
        }
        let mut diagnostics = Vec::with_capacity(ndiag);
        for _ in 0..ndiag {
            diagnostics.push(r.str()?);
        }
        let main = read_node(&mut r, 0)?;
        let ntrees = r.uv()? as usize;
        if ntrees > payload.len() {
            return Err(CodecError::Truncated);
        }
        let mut task_trees = Vec::with_capacity(ntrees);
        for _ in 0..ntrees {
            task_trees.push(read_node(&mut r, 0)?);
        }
        let parallel_region = match main.kind {
            NodeKind::Region(id) => id,
            _ => pomp::RegionId(0),
        };
        threads.push(ThreadSnapshot {
            tid,
            parallel_region,
            main,
            task_trees,
            max_live_trees,
            arena_capacity,
            shed_instances,
            diagnostics,
        });
    }
    if !r.done() {
        return Err(CodecError::Malformed("trailing bytes after profile"));
    }
    Ok((meta, Profile { threads }))
}

/// The profile body of a payload [`verify_record`] accepted: bytes
/// [`encode_record`] could have written after some header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifiedBody<'a>(&'a [u8]);

impl VerifiedBody<'_> {
    /// The record payload `meta` names: [`put_meta`] followed by the
    /// body, byte for byte what `encode_record(meta, profile)` writes for
    /// the profile the body spells.
    pub fn stamp(self, meta: &RunMeta) -> Vec<u8> {
        // The version byte and the varints around the name take at most
        // 1 + 10 + 10 + 5 + 10 bytes.
        let mut out = Vec::with_capacity(36 + meta.benchmark.len() + self.0.len());
        put_meta(&mut out, meta);
        out.extend_from_slice(self.0);
        out
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
    let body = walk_record(payload, true, |_, _, _| {})?;
    Ok(VerifiedBody(&payload[body..]))
}

/// Check that [`decode_record`] would accept `payload`, without decoding
/// it: [`verify_record`]'s walk, with the decoder's leniency towards an
/// overlong varint, a profile without threads and a minimum without
/// samples. What it refuses, it refuses with the decoder's error.
pub fn check_record(payload: &[u8]) -> Result<(), CodecError> {
    walk_record(payload, false, |_, _, _| {}).map(drop)
}

/// The walk of [`verify_record`] (`canonical`), [`check_record`] and
/// [`crate::RunSummary::from_record`]: shows every node to `visit` (see
/// [`verify_node`]) and returns where the profile body starts. A caller
/// that ignores the nodes passes a no-op closure, which compiles away.
pub(crate) fn walk_record<'a>(
    payload: &'a [u8],
    canonical: bool,
    mut visit: impl FnMut(NodeRef<'a>, u64, bool),
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
        for _ in 0..4 {
            r.uv()?;
        }
        let ndiag = r.uv()?;
        if ndiag > most {
            return Err(CodecError::Truncated);
        }
        for _ in 0..ndiag {
            r.str_ref()?;
        }
        verify_node(&mut r, 0, true, &mut visit)?;
        let ntrees = r.uv()?;
        if ntrees > most {
            return Err(CodecError::Truncated);
        }
        for _ in 0..ntrees {
            verify_node(&mut r, 0, false, &mut visit)?;
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
                .apply(0, Event::ParamBegin { param: depth, value: k - 1 })
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
        let truncations = (0..payload.len()).map(|cut| (payload[..cut].to_vec(), format!("cut at {cut}")));
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
