//! Robustness of the persistence parsers: arbitrary input must never
//! panic, and serialize→parse must round-trip for generated profiles.

use cube::{read_profile, write_profile};
use pomp::TaskIdAllocator;
use proptest::prelude::*;
use taskprof::{
    AssignPolicy, Event, NodeKind, Profile, SnapNode, Stats, TeamReplayer, ThreadSnapshot,
};

use profstore::segment::{SegmentReader, SegmentWriter};
use profstore::{
    decode_meta, decode_record, encode_record, verify_record, ProfileStore, RealIo, RunMeta,
    RunSummary, ShardedStore,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch path per proptest case (cases run concurrently
/// within one process and leftovers from failed cases must not alias).
fn scratch_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "taskprof-proptest-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}


/// Generate a valid random profile via replay.
fn arb_profile() -> impl Strategy<Value = Profile> {
    (1usize..4, prop::collection::vec((1u64..100, 0usize..3), 0..20)).prop_map(
        |(nthreads, tasks)| {
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
        },
    )
}

/// A structurally arbitrary multi-thread profile grown from `seed`:
/// every thread's main tree is rooted at the parallel region, and below
/// the roots any node may be a region, a stub, a parameter or a
/// truncation marker — of a few constructs, two of which share one
/// display name — with any inclusive time, repeated siblings included.
fn seeded_profile(seed: u64, nthreads: usize) -> Profile {
    let reg = pomp::registry();
    let par = reg.register("ps-sum-par", pomp::RegionKind::Parallel, "t", 0);
    let constructs = [
        reg.register("ps-sum-work", pomp::RegionKind::Task, "t", 0),
        reg.register("ps-sum-work", pomp::RegionKind::Function, "t", 0),
        reg.register("ps-sum-leaf", pomp::RegionKind::Function, "t", 0),
        reg.register("ps-sum-wait", pomp::RegionKind::Taskwait, "t", 0),
    ];
    let param = reg.register_param("ps-sum-depth");
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    fn grow(
        kind: NodeKind,
        depth: usize,
        kinds: &[NodeKind],
        next: &mut impl FnMut() -> u64,
    ) -> SnapNode {
        let mut stats = Stats::new();
        stats.add_visit();
        stats.record(next() % 1_000_000);
        let fanout = if depth >= 3 { 0 } else { next() % 4 };
        let children = (0..fanout)
            .map(|_| {
                let kind = kinds[(next() % kinds.len() as u64) as usize];
                grow(kind, depth + 1, kinds, next)
            })
            .collect();
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
            main: grow(NodeKind::Region(par), 0, &kinds, &mut next),
            task_trees: (0..next() % 3)
                .map(|k| grow(NodeKind::Region(constructs[k as usize]), 1, &kinds, &mut next))
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sums are linear: reducing the per-thread trees directly gives the
    /// totals of the cross-thread merge, on profiles replayed from events
    /// and on structurally arbitrary ones.
    #[test]
    fn run_summary_equals_the_sum_over_the_thread_merge(
        replayed in arb_profile(),
        seed in any::<u64>(),
        nthreads in 1usize..5,
    ) {
        prop_assert_eq!(
            RunSummary::from_profile(&replayed),
            summary_of_the_thread_merge(&replayed)
        );
        let grown = seeded_profile(seed, nthreads);
        prop_assert_eq!(
            RunSummary::from_profile(&grown),
            summary_of_the_thread_merge(&grown)
        );
    }

    #[test]
    fn profile_parser_never_panics(input in ".{0,400}") {
        let _ = read_profile(&input);
    }

    #[test]
    fn profile_parser_never_panics_on_mutated_valid_input(
        p in arb_profile(),
        cut in 0.0f64..1.0,
    ) {
        let text = write_profile(&p);
        let keep = (text.len() as f64 * cut) as usize;
        let _ = read_profile(&text[..keep.min(text.len())]);
    }

    #[test]
    fn generated_profiles_round_trip(p in arb_profile()) {
        let text = write_profile(&p);
        let q = read_profile(&text).expect("own output must parse");
        prop_assert_eq!(p.threads.len(), q.threads.len());
        for (a, b) in p.threads.iter().zip(&q.threads) {
            prop_assert_eq!(&a.main, &b.main);
            prop_assert_eq!(&a.task_trees, &b.task_trees);
        }
    }

    /// Every proper prefix of an encoded record (LEB128 varints + length
    /// prefixed strings inside) must decode to a typed error — never a
    /// panic, never a bogus success.
    #[test]
    fn record_codec_truncation_is_always_a_typed_error(
        p in arb_profile(),
        cut in 0.0f64..1.0,
    ) {
        let meta = RunMeta {
            run_id: 7,
            benchmark: "proptest".to_string(),
            threads: p.threads.len() as u32,
            timestamp_ns: 1234,
        };
        let payload = encode_record(&meta, &p);
        let keep = ((payload.len() as f64 * cut) as usize).min(payload.len() - 1);
        prop_assert!(
            decode_record(&payload[..keep]).is_err(),
            "a {keep}-byte prefix of a {}-byte record decoded successfully",
            payload.len()
        );
    }

    /// A single flipped bit anywhere in a record payload must not panic
    /// the decoder (it may still decode when the flip lands in a
    /// non-load-bearing byte, e.g. a benchmark-name character — the CRC
    /// layer above the codec is what detects those).
    #[test]
    fn record_codec_bit_flip_never_panics(
        p in arb_profile(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
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
    }

    /// A verified body stamped with the store's header is byte for byte
    /// what decoding the record and encoding it under that header writes,
    /// whatever header the sender put on it.
    #[test]
    fn a_stamped_body_is_the_re_encoded_record(
        replayed in arb_profile(),
        seed in any::<u64>(),
        nthreads in 1usize..5,
        run_id in any::<u64>(),
        timestamp_ns in any::<u64>(),
    ) {
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
        for p in [replayed, seeded_profile(seed, nthreads)] {
            let payload = encode_record(&sent, &p);
            let body = verify_record(&payload).expect("the encoder's bytes verify");
            let (_, decoded) = decode_record(&payload).expect("the encoder's bytes decode");
            prop_assert_eq!(body.stamp(&stored), encode_record(&stored, &decoded));
        }
    }

    /// Over flipped bits, truncations and inserted bytes, `verify_record`
    /// never panics and accepts a payload exactly when `decode_record`
    /// accepts it with threads and re-encoding it gives the same bytes.
    #[test]
    fn verify_accepts_exactly_the_canonical_records(
        p in arb_profile(),
        seed in any::<u64>(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
        byte in any::<u8>(),
        mutation in 0u8..3,
    ) {
        let meta = RunMeta {
            run_id: 5,
            benchmark: "proptest-verify".to_string(),
            threads: 2,
            timestamp_ns: 9,
        };
        for p in [p, seeded_profile(seed, 2)] {
            let mut payload = encode_record(&meta, &p);
            let at = ((payload.len() as f64 * pos) as usize).min(payload.len() - 1);
            match mutation {
                0 => payload[at] ^= 1 << bit,
                1 => payload.truncate(at),
                _ => payload.insert(at, byte),
            }
            let canonical = match decode_record(&payload) {
                Ok((m, q)) => !q.threads.is_empty() && encode_record(&m, &q) == payload,
                Err(_) => false,
            };
            let verified = verify_record(&payload);
            prop_assert_eq!(
                verified.is_ok(),
                canonical,
                "mutation {} at {}: verify said {:?}",
                mutation,
                at,
                verified.err()
            );
        }
    }

    /// `APPLY` stores a replicated record exactly when `decode_record`
    /// accepts it, on a single and on a two-shard store, over flipped
    /// bits, truncations and inserted bytes: whatever a follower stores,
    /// it can read back. (A record whose mutated header names run 0 is
    /// skipped as already applied, before its body is looked at.)
    #[test]
    fn apply_accepts_exactly_what_decodes(
        p in arb_profile(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
        byte in any::<u8>(),
        mutation in 0u8..3,
    ) {
        let meta = RunMeta {
            run_id: 5,
            benchmark: "proptest-apply".to_string(),
            threads: 2,
            timestamp_ns: 9,
        };
        let mut payload = encode_record(&meta, &p);
        let at = ((payload.len() as f64 * pos) as usize).min(payload.len() - 1);
        match mutation {
            0 => payload[at] ^= 1 << bit,
            1 => payload.truncate(at),
            _ => payload.insert(at, byte),
        }
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
            prop_assert_eq!(
                matches!(applied, Ok(Some(_))),
                stored.is_some(),
                "mutation {} at {}: apply said {:?}",
                mutation,
                at,
                applied
            );
            prop_assert!(!skipped || matches!(applied, Ok(None)));
        }
        if let Some((m, q)) = stored {
            for (lm, lq) in [single.load(m.run_id), sharded.load(m.run_id)].map(|l| l.expect("load")) {
                prop_assert_eq!(encode_record(&lm, &lq), encode_record(m, q));
            }
        }
        drop((single, sharded));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A single flipped bit in a CRC-framed segment is always detected:
    /// the scan stops with a tail defect instead of serving the damaged
    /// frame (a flip inside the magic voids the whole file).
    #[test]
    fn segment_bit_flip_is_always_detected_by_scan(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..60), 1..5),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
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
        prop_assert!(
            scan.tail_defect.is_some(),
            "flipped bit {bit} at byte {at} went undetected \
             ({records} of {} records scanned clean)",
            payloads.len()
        );
        prop_assert!(records < payloads.len() || scan.valid_len == 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Truncating a segment at any byte never panics the scan, never
    /// yields more records than were written, and never claims valid
    /// bytes past the truncation point.
    #[test]
    fn segment_truncation_never_panics_scan(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..60), 1..5),
        cut in 0.0f64..1.0,
    ) {
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
        prop_assert!(records < payloads.len());
        prop_assert!(scan.valid_len <= keep as u64);
        prop_assert!(scan.tail_defect.is_some() || scan.valid_len == keep as u64);
        let _ = std::fs::remove_file(&path);
    }
}
