//! Shared test utilities for the taskprof suite.
//!
//! [`prop`] is the property-test runner: generators draw from
//! simsched's recorded choice stream, and [`prop::check`] shrinks a
//! failure by editing the recorded choices.
//!
//! Two generators live here so every property suite draws from the same
//! distribution of task graphs:
//!
//! * [`shape`] — runtime-level task-tree shapes ([`shape::Shape`]): run
//!   them on a real [`taskrt::Team`] (`shape::run_shape`), or convert
//!   them to a [`simsched::TreeWorkload`] (`shape::steps`) for
//!   deterministic schedule exploration.
//! * [`body`] — profiler-level execution plans ([`body::Body`]): emit
//!   them as event streams through [`taskprof::Replayer`].
//!
//! [`fig12`] is the paper's profiling algorithm written the dumbest way,
//! the reference the profiler is checked against node for node.
//!
//! [`sized_profile_text`] is the sized input of the codec scaling and
//! allocation tests, and [`alloc`] the counting allocator every
//! allocation and footprint test counts with.
//!
//! This is a dev-only crate: production crates must not depend on it.

pub mod alloc;
pub mod body;
pub mod fig12;
pub mod prop;
pub mod shape;

/// Text-store-format profile (`cube::read_profile` input) of one thread
/// whose main tree has `nodes` region lines below the root, at depths
/// that rise and fall, over `distinct` region names. Every eighth name
/// carries an escaped quote, so the unescape path is in the mix.
pub fn sized_profile_text(nodes: usize, distinct: usize) -> String {
    use std::fmt::Write as _;
    let mut text = String::from(
        "taskprof-profile v1\nthreads 1\nthread 0 max_live 3 arena 64\nmain\n  \
         region parallel \"sized-par\" visits 1 sum 900 min 900 max 900 samples 1\n",
    );
    for i in 0..nodes {
        let name = i % distinct;
        let quote = if name.is_multiple_of(8) { "\\\"" } else { "" };
        let _ = writeln!(
            text,
            "{:indent$}region function \"sized-{quote}fn{quote}-{name}\" visits {} sum {} min 3 max 17 samples {}",
            "",
            i + 1,
            (i + 1) * 11,
            i + 1,
            indent = 4 + 2 * (i % 3),
        );
    }
    text.push_str("end\n");
    text
}
