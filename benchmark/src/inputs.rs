//! Seeded input generation for the repository path. The same seed gives
//! byte-identical records; the program under test only ever sees the
//! generated records.

use bots::RunOpts;
use pomp::{registry, RegionId, RegionKind, TaskIdAllocator};
use simsched::SplitMix64;
use std::sync::Arc;
use taskprof::{AssignPolicy, Event, Profile, TeamReplayer};
use taskrt::Team;

/// Distinct profiles records are drawn from.
pub const POOL: usize = 64;
/// (benchmark, threads) groups records are spread over.
pub const GROUPS: usize = 8;
/// Team size recorded with every run.
pub const RECORD_THREADS: u32 = 2;

/// Which records a repository section stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// ~1 KB: a seeded simulated fib/nqueens run at test scale, the
    /// profile `taskprof-cli ingest --app --seed` uploads.
    Small,
    /// ~25 KB: 8 threads x 32 task regions, each with a nested function.
    Large,
}

/// One seeded simulated run, profiled under the seeded scheduler and
/// its virtual clock: byte-reproducible from `(app, seed)`.
fn simulated_profile(nqueens: bool, seed: u64) -> Profile {
    let threads = RECORD_THREADS as usize;
    let sched = Arc::new(simsched::SimScheduler::new(seed));
    let clock = sched.clock().clone();
    let team = Team::new(threads).with_policy(sched);
    let monitor = taskprof::ProfMonitor::builder()
        .clock(clock)
        .build()
        .expect("default profiler limits are valid");
    let opts = RunOpts::new(threads).scale(bots::Scale::Test);
    let out = if nqueens {
        bots::nqueens::run_with_team(&monitor, &team, &opts)
    } else {
        bots::fib::run_with_team(&monitor, &team, &opts)
    };
    assert!(out.verified, "simulated generator run failed verification");
    monitor.take_profile().expect("the region has joined")
}

const LARGE_THREADS: usize = 8;
const LARGE_REGIONS: usize = 32;

struct LargeRegions {
    par: RegionId,
    tasks: Vec<RegionId>,
    funcs: Vec<RegionId>,
}

fn large_regions() -> LargeRegions {
    let reg = registry();
    LargeRegions {
        par: reg.register("bench-large!parallel", RegionKind::Parallel, "benchmark", 0),
        tasks: (0..LARGE_REGIONS)
            .map(|k| {
                reg.register(
                    &format!("bench_large_task_{k:02}"),
                    RegionKind::Task,
                    "benchmark",
                    0,
                )
            })
            .collect(),
        funcs: (0..LARGE_REGIONS)
            .map(|k| {
                reg.register(
                    &format!("bench_large_fn_{k:02}"),
                    RegionKind::Function,
                    "benchmark",
                    0,
                )
            })
            .collect(),
    }
}

/// A wide replayed profile: every thread runs one instance of each of
/// the 32 task constructs, each entering one nested function; durations
/// come from the seed.
fn replayed_profile(regions: &LargeRegions, seed: u64) -> Profile {
    let mut rng = SplitMix64::new(seed);
    let ids = TaskIdAllocator::new();
    let mut team = TeamReplayer::new(LARGE_THREADS, regions.par, AssignPolicy::Executing);
    for tid in 0..LARGE_THREADS {
        for (task, func) in regions.tasks.iter().zip(&regions.funcs) {
            let id = ids.alloc();
            team.apply(tid, Event::TaskBegin { region: *task, id })
                .advance(200 + rng.next_u64() % 4_000)
                .apply(tid, Event::Enter(*func))
                .advance(1_000 + rng.next_u64() % 50_000)
                .apply(tid, Event::Exit(*func))
                .advance(100 + rng.next_u64() % 1_000)
                .apply(tid, Event::TaskEnd { region: *task, id });
        }
    }
    team.finish()
}

/// The pool of distinct profiles for `kind`, from `seed` alone.
pub fn profile_pool(kind: RecordKind, seed: u64) -> Vec<Profile> {
    let mut rng = SplitMix64::new(seed ^ 0x0005_eed0_fb07);
    match kind {
        RecordKind::Small => (0..POOL)
            .map(|k| simulated_profile(k % 2 == 1, rng.next_u64()))
            .collect(),
        RecordKind::Large => {
            let regions = large_regions();
            (0..POOL)
                .map(|_| replayed_profile(&regions, rng.next_u64()))
                .collect()
        }
    }
}

/// The first names `prefix-0, prefix-1, ...` that put `per_shard` names
/// on every shard (routing is by benchmark name).
fn names_covering(prefix: &str, shards: usize, per_shard: usize) -> Vec<String> {
    let shards = shards.max(1);
    let mut taken = vec![0usize; shards];
    let mut names = Vec::with_capacity(shards * per_shard);
    for k in 0u64.. {
        let name = format!("{prefix}-{k}");
        let shard = profstore::ShardedStore::route(&name, 0, shards);
        if taken[shard] < per_shard {
            taken[shard] += 1;
            names.push(name);
            if names.len() == shards * per_shard {
                break;
            }
        }
    }
    names
}

/// The [`GROUPS`] group names, spread evenly over the shards.
pub fn group_names(shards: usize) -> Vec<String> {
    names_covering("bench", shards, GROUPS / shards.max(1))
}

/// One group name per shard, outside the measured groups, for the
/// records that seal each shard's active segment.
pub fn seal_names(shards: usize) -> Vec<String> {
    names_covering("seal", shards, 1)
}

/// The record stream: record `i` belongs to group `i % GROUPS`, carries
/// a pool profile drawn from the seed, and is stamped `i + 1` so
/// timestamp order is ingest order.
pub struct RecordStream {
    rng: SplitMix64,
    next: u64,
}

/// One generated record: which group, which pool profile, which stamp.
#[derive(Clone, Copy, Debug)]
pub struct RecordSpec {
    pub group: usize,
    pub pool: usize,
    pub timestamp_ns: u64,
}

impl RecordStream {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed ^ 0x07ec_04d5),
            next: 0,
        }
    }
}

impl Iterator for RecordStream {
    type Item = RecordSpec;

    fn next(&mut self) -> Option<RecordSpec> {
        let i = self.next;
        self.next += 1;
        Some(RecordSpec {
            group: (i % GROUPS as u64) as usize,
            pool: (self.rng.next_u64() % POOL as u64) as usize,
            timestamp_ns: i + 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_byte_reproducible_from_the_seed() {
        for kind in [RecordKind::Small, RecordKind::Large] {
            let render = |seed| -> Vec<String> {
                profile_pool(kind, seed)
                    .iter()
                    .map(cube::write_profile)
                    .collect()
            };
            let a = render(7);
            assert_eq!(a, render(7), "{kind:?}: same seed, different bytes");
            assert_ne!(a, render(8), "{kind:?}: the seed does not reach the pool");
        }
    }

    #[test]
    fn groups_cover_every_shard_evenly() {
        let names = group_names(4);
        let mut per_shard = [0; 4];
        for n in &names {
            per_shard[profstore::ShardedStore::route(n, 0, 4)] += 1;
        }
        assert_eq!(per_shard, [2, 2, 2, 2]);
        assert_eq!(group_names(0).len(), GROUPS);
        let mut sealed = [0; 4];
        for n in &seal_names(4) {
            sealed[profstore::ShardedStore::route(n, 0, 4)] += 1;
        }
        assert_eq!(sealed, [1, 1, 1, 1]);
        assert_eq!(seal_names(0).len(), 1);
    }
}
