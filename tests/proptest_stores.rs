//! Robustness of the persistence parsers: arbitrary input must never
//! panic, and serialize→parse must round-trip for generated profiles.

use cube::{read_profile, write_profile};
use pomp::TaskIdAllocator;
use taskprof::{
    AssignPolicy, Event, NodeKind, Profile, SnapNode, Stats, TeamReplayer, ThreadSnapshot,
};

use profstore::segment::{SegmentReader, SegmentWriter};
use profstore::{
    decode_meta, decode_record, encode_record, transcode_text, verify_record, BenchAgg, NodeRef,
    ProfileStore, RealIo, RunMeta, RunSummary, ShardedStore,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use test_util::prop::{check, line, Gen};

/// A unique scratch path per property case (cases run concurrently
/// within one process and leftovers from failed cases must not alias).
fn scratch_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "taskprof-proptest-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A valid random profile, made by replay.
fn profile(g: &mut Gen) -> Profile {
    let nthreads = g.u64(1..4) as usize;
    let tasks = g.vec(0..20, |g| (g.u64(1..100), g.u64(0..3) as usize));
    // Register the fixture regions (ids 9700.. may not exist in the
    // global registry yet when this test runs first).
    let reg = pomp::registry();
    let par = reg.register("ps-par", pomp::RegionKind::Parallel, "t", 0);
    let task = reg.register("ps-task", pomp::RegionKind::Task, "t", 0);
    let bar = reg.register("ps-bar", pomp::RegionKind::ImplicitBarrier, "t", 0);
    let ids = TaskIdAllocator::new();
    let mut team = TeamReplayer::new(nthreads, par, AssignPolicy::Executing);
    for tid in 0..nthreads {
        team.apply(tid, Event::Enter(bar));
    }
    for (dur, tid_raw) in tasks {
        let tid = tid_raw % nthreads;
        let id = ids.alloc();
        team.apply(tid, Event::TaskBegin { region: task, id })
            .advance(dur)
            .apply(tid, Event::TaskEnd { region: task, id });
    }
    for tid in 0..nthreads {
        team.apply(tid, Event::Exit(bar));
    }
    team.finish()
}

/// Segment payloads: one to four records of 1 to 59 bytes.
fn payloads(g: &mut Gen) -> Vec<Vec<u8>> {
    g.vec(1..5, |g| g.vec(1..60, |g| g.u64(..=255) as u8))
}

/// A structurally arbitrary `nthreads`-thread profile: every thread's
/// main tree is rooted at the parallel region, and below the roots any
/// node may be a region, a stub, a parameter or a truncation marker — of
/// a few constructs, two of which share one display name — with any
/// inclusive time, repeated siblings included.
fn grown_profile(g: &mut Gen, nthreads: usize) -> Profile {
    let reg = pomp::registry();
    let par = reg.register("ps-sum-par", pomp::RegionKind::Parallel, "t", 0);
    let constructs = [
        reg.register("ps-sum-work", pomp::RegionKind::Task, "t", 0),
        reg.register("ps-sum-work", pomp::RegionKind::Function, "t", 0),
        reg.register("ps-sum-leaf", pomp::RegionKind::Function, "t", 0),
        reg.register("ps-sum-wait", pomp::RegionKind::Taskwait, "t", 0),
    ];
    let param = reg.register_param("ps-sum-depth");
    fn grow(g: &mut Gen, kind: NodeKind, depth: usize, kinds: &[NodeKind]) -> SnapNode {
        let mut stats = Stats::new();
        stats.add_visit();
        stats.record(g.u64(..1_000_000));
        let fanout = if depth >= 3 { 0..1 } else { 0..4 };
        let children = g.vec(fanout, |g| {
            let kind = g.pick(kinds);
            grow(g, kind, depth + 1, kinds)
        });
        SnapNode {
            kind,
            stats,
            children,
        }
    }
    let mut kinds: Vec<NodeKind> = constructs.iter().map(|&id| NodeKind::Region(id)).collect();
    kinds.extend(constructs[..2].iter().map(|&id| NodeKind::Stub(id)));
    kinds.extend([
        NodeKind::Param(param, 0),
        NodeKind::Param(param, 7),
        NodeKind::Truncated,
    ]);
    let threads = (0..nthreads)
        .map(|tid| ThreadSnapshot {
            tid,
            parallel_region: par,
            main: grow(g, NodeKind::Region(par), 0, &kinds),
            task_trees: constructs[..g.below(3) as usize]
                .iter()
                .map(|&c| grow(g, NodeKind::Region(c), 1, &kinds))
                .collect(),
            max_live_trees: 0,
            arena_capacity: 0,
            shed_instances: 0,
            diagnostics: Vec::new(),
        })
        .collect();
    Profile { threads }
}

/// What `RunSummary::from_profile` was defined as before it walked the
/// per-thread trees itself: merge the threads with `cube::AggProfile`,
/// then sum every construct node of the merged trees by display name.
fn summary_of_the_thread_merge(p: &Profile) -> RunSummary {
    let merged = cube::AggProfile::from_profile(p);
    let reg = pomp::registry();
    let mut regions = BTreeMap::new();
    for tree in std::iter::once(&merged.main).chain(&merged.task_trees) {
        tree.walk(&mut |_, node| {
            let key = match node.kind {
                NodeKind::Region(id) => reg.name(id),
                NodeKind::Stub(id) => format!("{} (stub)", reg.name(id)),
                NodeKind::Param(..) | NodeKind::Truncated => return,
            };
            *regions.entry(key).or_insert(0) += node.stats.sum_ns;
        });
    }
    RunSummary {
        total_ns: merged.main.stats.sum_ns,
        regions,
        root: p
            .threads
            .first()
            .map(|t| NodeRef::of(t.main.kind, &reg.view()).into()),
    }
}

/// Sums are linear: reducing the per-thread trees directly gives the
/// totals of the cross-thread merge, on profiles replayed from events
/// and on structurally arbitrary ones.
#[test]
fn run_summary_equals_the_sum_over_the_thread_merge() {
    let gen = |g: &mut Gen| {
        let nthreads = g.u64(1..5) as usize;
        (profile(g), grown_profile(g, nthreads))
    };
    check(
        "run_summary_equals_the_sum_over_the_thread_merge",
        64,
        gen,
        |(replayed, grown)| {
            assert_eq!(
                RunSummary::from_profile(&replayed),
                summary_of_the_thread_merge(&replayed)
            );
            assert_eq!(
                RunSummary::from_profile(&grown),
                summary_of_the_thread_merge(&grown)
            );
        },
    );
}

/// Roots a run's first main tree may have: the parallel regions of both
/// generators, a region of another kind, the stubs of two constructs
/// that share one display name, a parameter at two values and a
/// truncation marker.
fn root_kinds() -> Vec<NodeKind> {
    let reg = pomp::registry();
    let work_task = reg.register("ps-sum-work", pomp::RegionKind::Task, "t", 0);
    let work_fn = reg.register("ps-sum-work", pomp::RegionKind::Function, "t", 0);
    let param = reg.register_param("ps-sum-depth");
    vec![
        NodeKind::Region(reg.register("ps-par", pomp::RegionKind::Parallel, "t", 0)),
        NodeKind::Region(reg.register("ps-sum-par", pomp::RegionKind::Parallel, "t", 0)),
        NodeKind::Region(work_task),
        NodeKind::Region(work_fn),
        NodeKind::Stub(work_task),
        NodeKind::Stub(work_fn),
        NodeKind::Param(param, 0),
        NodeKind::Param(param, 7),
        NodeKind::Truncated,
    ]
}

/// A record reduces to the summary of the profile it spells, and a
/// cross-run aggregate folded from records is the one folded from the
/// profiles — on replayed and grown profiles, over sequences whose
/// roots differ.
#[test]
fn a_record_summarises_and_folds_as_the_profile_it_spells() {
    let gen = |g: &mut Gen| {
        let roots = root_kinds();
        g.vec(1..7, |g| {
            let mut p = if g.bool() {
                profile(g)
            } else {
                let nthreads = g.u64(1..5) as usize;
                grown_profile(g, nthreads)
            };
            if let Some(root) = g.option(|g| g.pick(&roots)) {
                p.threads[0].main.kind = root;
            }
            p
        })
    };
    let mismatched = std::cell::Cell::new(0);
    check(
        "a_record_summarises_and_folds_as_the_profile_it_spells",
        64,
        gen,
        |runs| {
            let mut from_records = BenchAgg::new();
            let mut from_profiles = BenchAgg::new();
            for (i, p) in runs.iter().enumerate() {
                let meta = RunMeta {
                    run_id: i as u64 + 1,
                    benchmark: "proptest".to_string(),
                    threads: p.threads.len() as u32,
                    timestamp_ns: i as u64,
                };
                let summary =
                    RunSummary::from_record(&encode_record(&meta, p)).expect("own record");
                assert_eq!(summary, RunSummary::from_profile(p));
                from_records.fold_summary(summary);
                from_profiles.fold(p);
            }
            assert_eq!(from_records.runs, from_profiles.runs);
            assert_eq!(from_records.total_ns, from_profiles.total_ns);
            assert_eq!(from_records.regions, from_profiles.regions);
            assert_eq!(from_records.tree_mismatches, from_profiles.tree_mismatches);
            mismatched.set(mismatched.get() + usize::from(from_records.tree_mismatches > 0));
        },
    );
    assert!(
        mismatched.get() > 0,
        "no case folded runs whose roots differ"
    );
}

#[test]
fn profile_parser_never_panics() {
    let gen = |g: &mut Gen| line(g, 0..401);
    check("profile_parser_never_panics", 64, gen, |input| {
        let _ = read_profile(&input);
    });
}

#[test]
fn profile_parser_never_panics_on_mutated_valid_input() {
    let gen = |g: &mut Gen| (profile(g), g.unit_f64());
    check(
        "profile_parser_never_panics_on_mutated_valid_input",
        64,
        gen,
        |(p, cut)| {
            let text = write_profile(&p);
            let keep = (text.len() as f64 * cut) as usize;
            let _ = read_profile(&text[..keep.min(text.len())]);
        },
    );
}

#[test]
fn generated_profiles_round_trip() {
    check("generated_profiles_round_trip", 64, profile, |p| {
        let text = write_profile(&p);
        let q = read_profile(&text).expect("own output must parse");
        assert_eq!(p.threads.len(), q.threads.len());
        for (a, b) in p.threads.iter().zip(&q.threads) {
            assert_eq!(&a.main, &b.main);
            assert_eq!(&a.task_trees, &b.task_trees);
        }
    });
}

/// A value of a statistic or header field: small, or one of the edges a
/// varint or the text spells longest.
fn field(g: &mut Gen) -> u64 {
    if g.bool() {
        g.u64(..1_000)
    } else {
        g.pick(&[0, 1, 127, 128, 1 << 63, u64::MAX - 1, u64::MAX])
    }
}

/// A profile of every shape the text and the record can spell: regions of
/// every kind, stubs, parameters at the `i64` edges, truncation markers;
/// statistics at the `u64` edges, with and without samples or aborted
/// instances; shed counts and diagnostics; names and diagnostics with `\`,
/// `"`, tabs and multi-byte characters.
fn spelled_profile(g: &mut Gen) -> Profile {
    use pomp::RegionKind::*;
    let reg = pomp::registry();
    let mut names = vec![
        String::new(),
        "ps-text \"quoted\" \\ back\\".to_string(),
        "ps-text λ🦀".to_string(),
    ];
    names.extend(g.vec(1..4, |g| format!("ps-text {}", line(g, 0..12))));
    let kinds = [
        Function,
        Parallel,
        Task,
        TaskCreate,
        Taskwait,
        ImplicitBarrier,
        ExplicitBarrier,
        Single,
        Workshare,
        Critical,
        User,
    ];
    let node_kind = |g: &mut Gen| {
        let name = g.pick(&names);
        match g.below(4) {
            0 => NodeKind::Region(reg.register(&name, g.pick(&kinds), "t", 0)),
            1 => NodeKind::Stub(reg.register(&name, Task, "t", 0)),
            2 => {
                let value = g.pick(&[i64::MIN, -1, 0, 7, i64::MAX]);
                NodeKind::Param(reg.register_param(&name), value)
            }
            _ => NodeKind::Truncated,
        }
    };
    fn grow(g: &mut Gen, depth: usize, kind: &dyn Fn(&mut Gen) -> NodeKind) -> SnapNode {
        let samples = g.pick(&[0, 1, u64::MAX]);
        let stats = Stats {
            visits: field(g),
            sum_ns: field(g),
            min_ns: if samples == 0 { u64::MAX } else { field(g) },
            max_ns: field(g),
            samples,
            aborted: g.pick(&[0, 0, 1, u64::MAX]),
        };
        let fanout = if depth >= 4 { 0..1 } else { 0..4 };
        SnapNode {
            kind: kind(g),
            stats,
            children: g.vec(fanout, |g| grow(g, depth + 1, kind)),
        }
    }
    let threads = g.vec(1..4, |g| ThreadSnapshot {
        tid: field(g) as usize,
        parallel_region: pomp::RegionId(0),
        main: grow(g, 0, &node_kind),
        task_trees: g.vec(0..3, |g| grow(g, 1, &node_kind)),
        max_live_trees: field(g) as usize,
        arena_capacity: field(g) as usize,
        shed_instances: field(g),
        diagnostics: g.vec(0..3, |g| line(g, 0..20)),
    });
    Profile { threads }
}

/// The body `transcode_text` writes for `text`, stamped with `meta`.
fn transcoded(text: &str, meta: &RunMeta) -> Vec<u8> {
    transcode_text(text)
        .unwrap_or_else(|e| panic!("{e}:\n{text}"))
        .stamp(meta)
}

/// Profile text transcodes to the record the encoder writes for the
/// profile: byte for byte, without building the profile again.
#[test]
fn text_transcodes_to_the_encoders_record() {
    let meta = RunMeta {
        run_id: u64::MAX,
        benchmark: "transcoded".to_string(),
        threads: 3,
        timestamp_ns: 11,
    };
    check(
        "text_transcodes_to_the_encoders_record",
        64,
        spelled_profile,
        |p| {
            let text = write_profile(&p);
            assert_eq!(transcoded(&text, &meta), encode_record(&meta, &p), "{text}");
        },
    );
}

/// So does every golden profile under `tests/golden/`.
#[test]
fn golden_profiles_transcode_to_the_encoders_record() {
    let meta = RunMeta::default();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut goldens = 0;
    for entry in std::fs::read_dir(&dir).expect("golden dir") {
        let text = std::fs::read_to_string(entry.expect("entry").path()).unwrap_or_default();
        if !text.starts_with("taskprof-profile v1\n") {
            continue;
        }
        let p = read_profile(&text).expect("a golden profile reads");
        assert_eq!(transcoded(&text, &meta), encode_record(&meta, &p));
        assert_eq!(
            transcoded(&write_profile(&p), &meta),
            encode_record(&meta, &p)
        );
        goldens += 1;
    }
    assert!(goldens >= 4, "{goldens} golden profiles");
}

/// Every proper prefix of an encoded record (LEB128 varints + length
/// prefixed strings inside) must decode to a typed error — never a
/// panic, never a bogus success.
#[test]
fn record_codec_truncation_is_always_a_typed_error() {
    let gen = |g: &mut Gen| (profile(g), g.unit_f64());
    check(
        "record_codec_truncation_is_always_a_typed_error",
        64,
        gen,
        |(p, cut)| {
            let meta = RunMeta {
                run_id: 7,
                benchmark: "proptest".to_string(),
                threads: p.threads.len() as u32,
                timestamp_ns: 1234,
            };
            let payload = encode_record(&meta, &p);
            let keep = ((payload.len() as f64 * cut) as usize).min(payload.len() - 1);
            assert!(
                decode_record(&payload[..keep]).is_err(),
                "a {keep}-byte prefix of a {}-byte record decoded successfully",
                payload.len()
            );
        },
    );
}

/// A single flipped bit anywhere in a record payload must not panic
/// the decoder (it may still decode when the flip lands in a
/// non-load-bearing byte, e.g. a benchmark-name character — the CRC
/// layer above the codec is what detects those).
#[test]
fn record_codec_bit_flip_never_panics() {
    let gen = |g: &mut Gen| (profile(g), g.unit_f64(), g.below(8));
    check(
        "record_codec_bit_flip_never_panics",
        64,
        gen,
        |(p, pos, bit)| {
            let meta = RunMeta {
                run_id: 1,
                benchmark: "proptest-flip".to_string(),
                threads: p.threads.len() as u32,
                timestamp_ns: 1,
            };
            let mut payload = encode_record(&meta, &p);
            let at = ((payload.len() as f64 * pos) as usize).min(payload.len() - 1);
            payload[at] ^= 1 << bit;
            let _ = decode_record(&payload);
        },
    );
}

/// A verified body stamped with the store's header is byte for byte
/// what decoding the record and encoding it under that header writes,
/// whatever header the sender put on it.
#[test]
fn a_stamped_body_is_the_re_encoded_record() {
    let gen = |g: &mut Gen| {
        let nthreads = g.u64(1..5) as usize;
        let profiles = [profile(g), grown_profile(g, nthreads)];
        (profiles, nthreads, [g.u64(..), g.u64(..)])
    };
    let name = "a_stamped_body_is_the_re_encoded_record";
    check(
        name,
        64,
        gen,
        |(profiles, nthreads, [run_id, timestamp_ns])| {
            let sent = RunMeta {
                run_id: 0,
                benchmark: "sender".to_string(),
                threads: 3,
                timestamp_ns: 0,
            };
            let stored = RunMeta {
                run_id,
                benchmark: "stored".to_string(),
                threads: nthreads as u32,
                timestamp_ns,
            };
            for p in profiles {
                let payload = encode_record(&sent, &p);
                let body = verify_record(&payload).expect("the encoder's bytes verify");
                let (_, decoded) = decode_record(&payload).expect("the encoder's bytes decode");
                assert_eq!(body.stamp(&stored), encode_record(&stored, &decoded));
            }
        },
    );
}

/// Where a payload is damaged and how: a fraction of its length, a bit,
/// a byte to insert, and which of flip, truncate and insert.
fn damage(g: &mut Gen) -> (f64, u64, u8, u64) {
    (g.unit_f64(), g.below(8), g.u64(..=255) as u8, g.below(3))
}

/// Flip bit `bit`, truncate, or insert `byte`, at fraction `pos`.
fn apply_damage(payload: &mut Vec<u8>, (pos, bit, byte, mutation): (f64, u64, u8, u64)) -> usize {
    let at = ((payload.len() as f64 * pos) as usize).min(payload.len() - 1);
    match mutation {
        0 => payload[at] ^= 1 << bit,
        1 => payload.truncate(at),
        _ => payload.insert(at, byte),
    }
    at
}

/// Over flipped bits, truncations and inserted bytes, `verify_record`
/// never panics and accepts a payload exactly when `decode_record`
/// accepts it with threads and re-encoding it gives the same bytes.
#[test]
fn verify_accepts_exactly_the_canonical_records() {
    let gen = |g: &mut Gen| ([profile(g), grown_profile(g, 2)], damage(g));
    check(
        "verify_accepts_exactly_the_canonical_records",
        64,
        gen,
        |(profiles, damage)| {
            let meta = RunMeta {
                run_id: 5,
                benchmark: "proptest-verify".to_string(),
                threads: 2,
                timestamp_ns: 9,
            };
            for p in profiles {
                let mut payload = encode_record(&meta, &p);
                let at = apply_damage(&mut payload, damage);
                let canonical = match decode_record(&payload) {
                    Ok((m, q)) => !q.threads.is_empty() && encode_record(&m, &q) == payload,
                    Err(_) => false,
                };
                let verified = verify_record(&payload);
                assert_eq!(
                    verified.is_ok(),
                    canonical,
                    "mutation {} at {}: verify said {:?}",
                    damage.3,
                    at,
                    verified.err()
                );
            }
        },
    );
}

/// `APPLY` stores a replicated record exactly when `decode_record`
/// accepts it, on a single and on a two-shard store, over flipped
/// bits, truncations and inserted bytes: whatever a follower stores,
/// it can read back. (A record whose mutated header names run 0 is
/// skipped as already applied, before its body is looked at.)
#[test]
fn apply_accepts_exactly_what_decodes() {
    let gen = |g: &mut Gen| (profile(g), damage(g));
    check(
        "apply_accepts_exactly_what_decodes",
        64,
        gen,
        |(p, damage)| {
            let meta = RunMeta {
                run_id: 5,
                benchmark: "proptest-apply".to_string(),
                threads: 2,
                timestamp_ns: 9,
            };
            let mut payload = encode_record(&meta, &p);
            let at = apply_damage(&mut payload, damage);
            let mut frame = Vec::new();
            profstore::frame::encode(&payload, &mut frame);
            let decoded = decode_record(&payload).ok();
            let skipped = matches!(decode_meta(&payload), Ok(m) if m.run_id == 0);
            let dir = scratch_path("apply");
            let mut single = ProfileStore::open(&dir.join("single")).expect("open");
            let sharded = ShardedStore::open(&dir.join("sharded"), 2).expect("open");
            let applied = [single.apply_frame(&frame), sharded.apply_frame(&frame)];
            let stored = decoded.as_ref().filter(|_| !skipped);
            for applied in &applied {
                assert_eq!(
                    matches!(applied, Ok(Some(_))),
                    stored.is_some(),
                    "mutation {} at {}: apply said {:?}",
                    damage.3,
                    at,
                    applied
                );
                assert!(!skipped || matches!(applied, Ok(None)));
            }
            if let Some((m, q)) = stored {
                for (lm, lq) in
                    [single.load(m.run_id), sharded.load(m.run_id)].map(|l| l.expect("load"))
                {
                    assert_eq!(encode_record(&lm, &lq), encode_record(m, q));
                }
            }
            drop((single, sharded));
            let _ = std::fs::remove_dir_all(&dir);
        },
    );
}

/// A single flipped bit in a CRC-framed segment is always detected:
/// the scan stops with a tail defect instead of serving the damaged
/// frame (a flip inside the magic voids the whole file).
#[test]
fn segment_bit_flip_is_always_detected_by_scan() {
    let gen = |g: &mut Gen| (payloads(g), g.unit_f64(), g.below(8));
    check(
        "segment_bit_flip_is_always_detected_by_scan",
        64,
        gen,
        |(payloads, pos, bit)| {
            let path = scratch_path("flip");
            let io = RealIo;
            {
                let mut w = SegmentWriter::create(&io, &path, false).expect("create");
                for p in &payloads {
                    w.append(p).expect("append");
                }
            }
            let mut bytes = std::fs::read(&path).expect("read");
            let at = ((bytes.len() as f64 * pos) as usize).min(bytes.len() - 1);
            bytes[at] ^= 1 << bit;
            std::fs::write(&path, &bytes).expect("rewrite");

            let mut records = 0;
            let scan = SegmentReader::scan(&io, &path, |_, _| records += 1).expect("scan is total");
            assert!(
                scan.tail_defect.is_some(),
                "flipped bit {bit} at byte {at} went undetected \
             ({records} of {} records scanned clean)",
                payloads.len()
            );
            assert!(records < payloads.len() || scan.valid_len == 0);
            let _ = std::fs::remove_file(&path);
        },
    );
}

/// Truncating a segment at any byte never panics the scan, never
/// yields more records than were written, and never claims valid
/// bytes past the truncation point.
#[test]
fn segment_truncation_never_panics_scan() {
    let gen = |g: &mut Gen| (payloads(g), g.unit_f64());
    check(
        "segment_truncation_never_panics_scan",
        64,
        gen,
        |(payloads, cut)| {
            let path = scratch_path("trunc");
            let io = RealIo;
            {
                let mut w = SegmentWriter::create(&io, &path, false).expect("create");
                for p in &payloads {
                    w.append(p).expect("append");
                }
            }
            let bytes = std::fs::read(&path).expect("read");
            let keep = ((bytes.len() as f64 * cut) as usize).min(bytes.len() - 1);
            std::fs::write(&path, &bytes[..keep]).expect("rewrite");

            let mut records = 0;
            let scan = SegmentReader::scan(&io, &path, |_, _| records += 1).expect("scan is total");
            assert!(records < payloads.len());
            assert!(scan.valid_len <= keep as u64);
            assert!(scan.tail_defect.is_some() || scan.valid_len == keep as u64);
            let _ = std::fs::remove_file(&path);
        },
    );
}
