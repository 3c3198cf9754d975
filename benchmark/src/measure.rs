//! The measurement path: BOTS kernels on a team of one thread, run
//! uninstrumented, under the default session, and under a session that
//! records task edges — back to back within each repetition, so a
//! dilation is the median of per-repetition ratios and whatever slows
//! the host for longer than a repetition cancels.

use crate::stats::{decile1, geomean, median};
use crate::trace::Tracer;
use crate::Gate;
use bots::{run_app, AppId, RunOpts, Scale, Variant};
use pomp::{CountingMonitor, NullMonitor};
use std::time::Instant;
use taskprof_session::MeasurementSession;

/// Fixed, not derived from `nproc`: a second worker made fib's dilation
/// swing 1.9-2.7x between back-to-back runs on a 2-vCPU guest.
pub const TEAM: usize = 1;

#[derive(Clone, Copy, Debug)]
pub struct Kernel {
    pub label: &'static str,
    pub app: AppId,
    pub scale: Scale,
    pub variant: Variant,
    /// Also run with `.record_task_edges()` and analysed.
    pub causal: bool,
}

impl Kernel {
    pub fn opts(&self, threads: usize) -> RunOpts {
        RunOpts::new(threads)
            .scale(self.scale)
            .variant(self.variant)
    }
}

/// One measurement-path section: its kernels and how many interleaved
/// repetitions one round makes.
#[derive(Clone, Copy, Debug)]
pub struct MeasureShape {
    pub section: &'static str,
    pub kernels: &'static [Kernel],
    /// Repetitions per three rounds, spread as evenly as whole
    /// repetitions allow.
    pub reps_per_3_rounds: usize,
    /// The causal kernels' edge-recording run and report happen on
    /// every this-many-th repetition: a report costs tens of times the
    /// kernel, and the ratios need more repetitions than the report.
    pub causal_every: usize,
}

const fn kernel(
    label: &'static str,
    app: AppId,
    scale: Scale,
    variant: Variant,
    causal: bool,
) -> Kernel {
    Kernel {
        label,
        app,
        scale,
        variant,
        causal,
    }
}

/// Microsecond tasks without cut-off: the per-event hot path (clock read,
/// tree and task-table update) does almost all the work.
pub const FINE_TASKS: MeasureShape = MeasureShape {
    section: "fine_tasks",
    kernels: &[
        kernel("fib", AppId::Fib, Scale::Small, Variant::NoCutoff, true),
        kernel(
            "nqueens",
            AppId::Nqueens,
            Scale::Small,
            Variant::NoCutoff,
            true,
        ),
        kernel(
            "health",
            AppId::Health,
            Scale::Medium,
            Variant::NoCutoff,
            false,
        ),
    ],
    reps_per_3_rounds: 5,
    causal_every: 2,
};

/// Millisecond tasks: the hot path does almost nothing; per-run set-up,
/// thread begin/end hand-off and `finish()` are what is left.
///
/// strassen and fft are left out on purpose. Their power-of-two strides
/// make their speed depend on where the heap puts the matrices, and the
/// instrumented run allocates before the kernel does: strassen's
/// "dilation" read 0.94 with one build of this benchmark and 1.17 with
/// the next, for the same program.
pub const COARSE_TASKS: MeasureShape = MeasureShape {
    section: "coarse_tasks",
    kernels: &[
        kernel("sort", AppId::Sort, Scale::Medium, Variant::NoCutoff, true),
        kernel(
            "sparselu",
            AppId::SparseLu,
            Scale::Medium,
            Variant::NoCutoff,
            true,
        ),
        kernel(
            "alignment",
            AppId::Alignment,
            Scale::Medium,
            Variant::NoCutoff,
            false,
        ),
        kernel(
            "nqueens_cutoff",
            AppId::Nqueens,
            Scale::Medium,
            Variant::Cutoff,
            false,
        ),
    ],
    reps_per_3_rounds: 2,
    causal_every: 1,
};

/// Exact per-kernel counts from one `CountingMonitor` run.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelCounts {
    pub events: u64,
    pub tasks: u64,
}

/// Count each kernel's events (exact, so once is enough) and warm every
/// code path the timed phase takes.
pub fn setup(shape: &MeasureShape, gate: &mut Gate) -> Vec<KernelCounts> {
    shape
        .kernels
        .iter()
        .map(|k| {
            let opts = k.opts(TEAM);
            let counter = CountingMonitor::new();
            let out = run_app(k.app, &counter, &opts);
            gate.check(out.verified, || {
                format!("{}: counting run unverified", k.label)
            });
            let session = MeasurementSession::builder("benchmark-warm")
                .threads(TEAM)
                .build()
                .expect("default session configuration is valid");
            let out = run_app(k.app, session.monitor(), &opts);
            gate.check(out.verified, || {
                format!("{}: warm-up run unverified", k.label)
            });
            drop(session.finish());
            KernelCounts {
                events: counter.counts().total(),
                tasks: counter.counts().snapshot().2,
            }
        })
        .collect()
}

/// Per-kernel samples, one entry per repetition.
#[derive(Clone, Debug, Default)]
pub struct KernelSamples {
    pub base_ns: Vec<f64>,
    pub instr_ns: Vec<f64>,
    pub causal_ns: Vec<f64>,
    /// `base_ns` of the repetitions that also made a causal run.
    pub causal_base_ns: Vec<f64>,
    /// `finish()` + `critpath()` + `render_critpath`.
    pub report_ns: Vec<f64>,
    /// `finish()` of the default session.
    pub finish_ns: Vec<f64>,
    pub profile_nodes: u64,
    pub max_live_trees: u64,
}

impl KernelSamples {
    /// Median over the repetitions of instrumented / uninstrumented.
    pub fn dilation(&self) -> f64 {
        median_ratio(&self.instr_ns, &self.base_ns)
    }

    pub fn causal_dilation(&self) -> f64 {
        median_ratio(&self.causal_ns, &self.causal_base_ns)
    }

    /// Instrumentation time added per event; negative noise is kept so
    /// a coarse kernel reads as "about zero", not as a fake floor.
    pub fn event_ns(&self, events: u64) -> f64 {
        (decile1(&self.instr_ns) - decile1(&self.base_ns)) / events as f64
    }
}

fn median_ratio(over: &[f64], under: &[f64]) -> f64 {
    assert_eq!(
        over.len(),
        under.len(),
        "a ratio needs both sides of every pair"
    );
    median(
        &over
            .iter()
            .zip(under)
            .map(|(a, b)| a / b)
            .collect::<Vec<_>>(),
    )
}

/// The section's samples, appended to round by round.
pub struct MeasureRun {
    shape: MeasureShape,
    pub kernels: Vec<KernelSamples>,
    pub counts: Vec<KernelCounts>,
    rounds_done: usize,
    reps_done: usize,
}

impl MeasureRun {
    pub fn dilation(&self) -> f64 {
        geomean(
            &self
                .kernels
                .iter()
                .map(KernelSamples::dilation)
                .collect::<Vec<_>>(),
        )
    }

    fn causal(&self) -> impl Iterator<Item = &KernelSamples> {
        self.kernels.iter().filter(|k| !k.causal_ns.is_empty())
    }

    pub fn causal_dilation(&self) -> f64 {
        geomean(
            &self
                .causal()
                .map(KernelSamples::causal_dilation)
                .collect::<Vec<_>>(),
        )
    }

    pub fn causal_report_ms(&self) -> f64 {
        self.causal().map(|k| decile1(&k.report_ns)).sum::<f64>() / 1e6
    }

    /// Σ(instrumented − base) / Σ events over the kernels, first deciles.
    pub fn event_ns(&self) -> f64 {
        let added: f64 = self
            .kernels
            .iter()
            .map(|k| decile1(&k.instr_ns) - decile1(&k.base_ns))
            .sum();
        added / self.counts.iter().map(|c| c.events).sum::<u64>() as f64
    }

    /// Uninstrumented kernel time per task: the denominator of dilation.
    pub fn task_ns(&self) -> f64 {
        let base: f64 = self.kernels.iter().map(|k| decile1(&k.base_ns)).sum();
        base / self.counts.iter().map(|c| c.tasks).sum::<u64>() as f64
    }

    pub fn finish_us(&self) -> f64 {
        median(
            &self
                .kernels
                .iter()
                .flat_map(|k| k.finish_ns.iter().copied())
                .collect::<Vec<_>>(),
        ) / 1e3
    }

    pub fn profile_nodes(&self) -> u64 {
        self.kernels.iter().map(|k| k.profile_nodes).sum()
    }

    pub fn max_live_trees(&self) -> u64 {
        self.kernels
            .iter()
            .map(|k| k.max_live_trees)
            .max()
            .unwrap_or(0)
    }
}

fn task_instances(profile: &taskprof::Profile) -> u64 {
    profile
        .threads
        .iter()
        .flat_map(|t| t.task_trees.iter())
        .map(|t| t.stats.samples)
        .sum()
}

fn tree_nodes(profile: &taskprof::Profile) -> u64 {
    profile
        .threads
        .iter()
        .map(|t| t.main.size() + t.task_trees.iter().map(|n| n.size()).sum::<usize>())
        .sum::<usize>() as u64
}

impl MeasureRun {
    pub fn new(shape: &MeasureShape, counts: Vec<KernelCounts>) -> Self {
        Self {
            shape: *shape,
            kernels: vec![KernelSamples::default(); shape.kernels.len()],
            counts,
            rounds_done: 0,
            reps_done: 0,
        }
    }

    /// One round: its share of interleaved repetitions of every kernel,
    /// each uninstrumented, then under the default session, then (causal
    /// kernels, every `causal_every`-th repetition) under an
    /// edge-recording session whose report is rendered.
    pub fn round(&mut self, tracer: &Tracer, gate: &mut Gate) {
        self.rounds_done += 1;
        let due = self.rounds_done * self.shape.reps_per_3_rounds / 3;
        while self.reps_done < due {
            let with_causal = self.reps_done.is_multiple_of(self.shape.causal_every);
            self.reps_done += 1;
            for ((k, samples), counts) in self
                .shape
                .kernels
                .iter()
                .zip(&mut self.kernels)
                .zip(&self.counts)
            {
                repetition(k, samples, counts, with_causal && k.causal, tracer, gate);
            }
        }
    }
}

fn repetition(
    k: &Kernel,
    samples: &mut KernelSamples,
    counts: &KernelCounts,
    with_causal: bool,
    tracer: &Tracer,
    gate: &mut Gate,
) {
    let opts = k.opts(TEAM);

    let out = run_app(k.app, &NullMonitor, &opts);
    tracer.record_ns(
        "bots",
        "kernel_base",
        counts.events,
        out.kernel.as_nanos() as u64,
    );
    gate.check(out.verified, || format!("{}: base run unverified", k.label));
    samples.base_ns.push(out.kernel.as_nanos() as f64);

    let session = MeasurementSession::builder("benchmark")
        .threads(TEAM)
        .build()
        .expect("default session configuration is valid");
    let out = run_app(k.app, session.monitor(), &opts);
    let kernel_ns = out.kernel.as_nanos() as u64;
    tracer.record_ns("bots", "kernel_instrumented", counts.events, kernel_ns);
    samples.instr_ns.push(kernel_ns as f64);
    let t0 = Instant::now();
    let report = tracer.span("session", "finish", 1, 0, || session.finish());
    samples.finish_ns.push(t0.elapsed().as_nanos() as f64);
    let instances = task_instances(&report.profile);
    gate.check(out.verified && instances == counts.tasks, || {
        format!(
            "{}: instrumented run verified={} instances={instances} counted={}",
            k.label, out.verified, counts.tasks
        )
    });
    samples.profile_nodes = tree_nodes(&report.profile);
    samples.max_live_trees = report.profile.max_live_trees() as u64;

    if !with_causal {
        return;
    }
    let session = MeasurementSession::builder("benchmark-causal")
        .threads(TEAM)
        .record_task_edges()
        .build()
        .expect("default session configuration is valid");
    let out = run_app(k.app, session.monitor(), &opts);
    let kernel_ns = out.kernel.as_nanos() as u64;
    tracer.record_ns("bots", "kernel_causal", counts.events, kernel_ns);
    samples.causal_ns.push(kernel_ns as f64);
    samples
        .causal_base_ns
        .push(*samples.base_ns.last().expect("the base run came first"));
    let t0 = Instant::now();
    let (report, text) = tracer.span("session", "causal_report", counts.tasks, 0, || {
        let report = session.finish();
        let text = cube::render_critpath(report.critpath());
        (report, text)
    });
    samples.report_ns.push(t0.elapsed().as_nanos() as f64);
    let cp = report.critpath();
    gate.check(
        out.verified
            && !text.is_empty()
            && cp.span_ns <= cp.makespan_ns
            && cp.makespan_ns <= cp.work_ns
            && cp.tasks == counts.tasks,
        || {
            format!(
                "{}: causal run verified={} span={} makespan={} work={} dag tasks={} counted={}",
                k.label,
                out.verified,
                cp.span_ns,
                cp.makespan_ns,
                cp.work_ns,
                cp.tasks,
                counts.tasks
            )
        },
    );
}
