//! Measurement-system self-calibration: per-event costs on this machine
//! and the predicted overhead per task granularity — the model behind
//! the paper's Figs. 13/14 orderings.

use cube::format_ns;
use taskprof::calibrate;

fn main() {
    println!("== measurement self-calibration ==\n");
    let c = calibrate();
    println!("clock read cost        : {:.1} ns", c.clock_read_ns);
    println!("clock resolution bound : {} ns", c.clock_resolution_ns);
    println!("enter/exit pair cost   : {:.1} ns", c.enter_exit_ns);
    println!(
        "task begin/end cycle   : {:.1} ns (instance tree + stub + merge)",
        c.task_cycle_ns
    );
    println!();
    println!("predicted profiling overhead by mean task size:");
    println!("  {:>12}  {:>10}", "task size", "overhead");
    for &size in &[500.0, 1_490.0, 8_570.0, 50_000.0, 149_000.0, 1_000_000.0] {
        println!(
            "  {:>12}  {:>9.1}%",
            format_ns(size as u64),
            100.0 * c.overhead_fraction(size)
        );
    }
    println!();
    println!("paper's Table I granularities: fib 1.49µs, floorplan 8.57µs, strassen 149µs —");
    println!("the model predicts exactly the Figs. 13/14 ordering (fib pathological,");
    println!("floorplan tens of percent, strassen ~zero).");
}
