//! Compare profiles of runs with different thread counts — the paper's
//! Section VI methodology ("comparison of profiles of instrumented runs
//! with different numbers of threads shows...").
//!
//! ```text
//! cargo run --release --example profile_diff
//! ```

use bots::{run_app, AppId, RunOpts, Scale};
use cube::{diff_profiles, format_ns, AggProfile};
use taskprof_session::MeasurementSession;

fn profile_at(threads: usize) -> AggProfile {
    let session = MeasurementSession::builder("profile-diff")
        .threads(threads)
        .build()
        .expect("default session configuration is valid");
    let out = run_app(
        AppId::Nqueens,
        session.monitor(),
        &RunOpts::new(threads).scale(Scale::Small),
    );
    assert!(out.verified);
    AggProfile::from_profile(&session.finish().profile)
}

fn main() {
    let a = profile_at(1);
    let b = profile_at(4);
    println!("nqueens (no cut-off): 1-thread profile vs 4-thread profile");
    println!("biggest inclusive-time changes (B = 4 threads, A = 1 thread):\n");
    println!("{:>12} {:>12} {:>8}  path", "A incl", "B incl", "ratio");
    for row in diff_profiles(&a, &b).into_iter().take(12) {
        println!(
            "{:>12} {:>12} {:>8}  {}",
            format_ns(row.a_incl_ns),
            format_ns(row.b_incl_ns),
            row.ratio()
                .map(|r| format!("{r:.2}x"))
                .unwrap_or_else(|| "new".into()),
            row.path
        );
    }
    println!();
    println!("the paper's reading: the task region's own time varies little, while");
    println!("creation / taskwait / barrier paths blow up with threads -> the runtime's");
    println!("task management, not the useful work, is what scales badly.");
}
