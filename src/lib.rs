//! Umbrella crate for the taskprof suite: re-exports the public surface of
//! every crate in the workspace so examples and integration tests can use a
//! single dependency.
//!
//! The suite reproduces "Profiling of OpenMP Tasks with Score-P"
//! (Lorenz et al., ICPP 2012). See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the per-table/figure reproduction record.

pub use bots;
pub use cube;
pub use pomp;
pub use taskprof;
pub use taskprof_session as session;
pub use taskrt;
