//! Measurement loops and metric assembly: the untraced run that yields
//! the end-to-end metrics of one workload, and the traced run that
//! yields the per-layer metrics of all five.

use std::fmt::Write as _;
use std::time::Instant;

use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::{host, Failure, Kind, Workload};
use Source::{Counter, SelfMs};

/// Wall and CPU time of the ops of one run, and what they completed.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Host wall time per op, ms.
    pub wall_ms: Vec<f64>,
    /// Process CPU time per op (all threads), ms.
    pub cpu_ms: Vec<f64>,
    /// Units attempted over all ops.
    pub attempted: u64,
    /// Units completed over all ops.
    pub completed: u64,
}

impl Samples {
    fn push(&mut self, workload: &mut dyn Workload, spans: &mut Spans) -> Result<(), Failure> {
        workload.prepare();
        let cpu0 = host::process_cpu_ns();
        let start = Instant::now();
        let outcome = workload.op(spans)?;
        let wall = start.elapsed();
        let cpu = host::process_cpu_ns() - cpu0;
        self.wall_ms.push(wall.as_secs_f64() * 1e3);
        self.cpu_ms.push(cpu as f64 / 1e6);
        self.attempted += outcome.attempted;
        self.completed += outcome.completed;
        Ok(())
    }

    /// Ops measured.
    pub fn ops(&self) -> usize {
        self.wall_ms.len()
    }
}

/// Everything one workload's run measured.
#[derive(Debug, Clone)]
pub struct Run {
    /// Which workload.
    pub kind: Kind,
    /// Timed set-up of every repetition, s.
    pub setup_s: Vec<f64>,
    /// Untraced ops.
    pub plain: Samples,
    /// Traced ops (empty in an untraced run).
    pub traced: Samples,
}

/// Runs one workload for `seconds`: sets it up, runs gated warm-up ops
/// (at least one, for a tenth of the budget up to 1 s), then times ops
/// until the budget is spent. With `spans` recording, untraced and
/// traced ops alternate so both see the same machine. The remaining
/// set-up repetitions are spread evenly over the measured window, so
/// `setup_s` and the op times sample the same machine state; their
/// instances are dropped unused.
///
/// # Errors
///
/// The first gate that fails.
pub fn run(kind: Kind, seed: u64, seconds: f64, spans: &mut Spans) -> Result<Run, Failure> {
    let inputs = kind.inputs(seed)?;
    let reps = kind.setup_reps().max(1);
    let mut setup_s = Vec::with_capacity(reps);
    let mut setup_once = |spans: &mut Spans| -> Result<Box<dyn Workload>, Failure> {
        spans.next_op();
        let (workload, timed) = inputs.setup(spans)?;
        setup_s.push(timed.as_secs_f64());
        Ok(workload)
    };
    let mut workload = setup_once(spans)?;
    let mut off = Spans::disabled();

    let warm = Instant::now();
    loop {
        workload.prepare();
        workload.op(&mut off)?;
        if warm.elapsed().as_secs_f64() >= (seconds / 10.0).min(1.0) {
            break;
        }
    }

    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    let gap = seconds / reps as f64;
    let start = Instant::now();
    let mut next_setup = gap;
    while plain.ops() == 0 || start.elapsed().as_secs_f64() < seconds {
        if start.elapsed().as_secs_f64() >= next_setup {
            drop(setup_once(spans)?);
            next_setup += gap;
        }
        // In a traced run the pair's order alternates, so neither side
        // always runs right after the other.
        let traced_first = spans.enabled() && traced.ops() % 2 == 1;
        if !traced_first {
            plain.push(workload.as_mut(), &mut off)?;
        }
        if spans.enabled() {
            spans.next_op();
            traced.push(workload.as_mut(), spans)?;
        }
        if traced_first {
            plain.push(workload.as_mut(), &mut off)?;
        }
    }
    Ok(Run {
        kind,
        setup_s,
        plain,
        traced,
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics of one workload's untraced run.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let samples = &run.plain;
    vec![
        metric("setup_s", median(&run.setup_s), "s"),
        metric("op_ms_p50", median(&samples.wall_ms), "ms"),
        metric("op_ms_p90", quantile(&samples.wall_ms, 0.9), "ms"),
        metric("cpu_ms_p50", median(&samples.cpu_ms), "ms"),
        metric(
            "completed_frac",
            samples.completed as f64 / samples.attempted.max(1) as f64,
            "frac",
        ),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ]
}

/// Where a per-layer metric comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Median over ops of a layer's self time.
    SelfMs(&'static str),
    /// Median over ops of a counter.
    Counter(&'static str),
}

/// Per-layer metrics read straight from the buffer: `(metric name,
/// source, unit)`. An op's root span gives its unattributed remainder.
const LAYERS: [(&str, Source, &str); 43] = [
    ("rt.new_ms", SelfMs("rt.new"), "ms"),
    ("rt.submit_ms", SelfMs("rt.submit"), "ms"),
    ("rt.drive_ms", SelfMs("rt.drive"), "ms"),
    ("rt.summary_ms", SelfMs("rt.summary"), "ms"),
    ("rt.snapshot_ms", SelfMs("rt.snapshot"), "ms"),
    ("rt.cpu_per_wall", Counter("rt.cpu_per_wall"), "ratio"),
    (
        "rt.reqs_per_session",
        Counter("rt.reqs_per_session"),
        "ratio",
    ),
    ("rt.joins_per_req", Counter("rt.joins_per_req"), "ratio"),
    ("rt.steals_per_req", Counter("rt.steals_per_req"), "ratio"),
    ("rt.max_batch", Counter("rt.max_batch"), "count"),
    ("rt.unattributed_ms", SelfMs("rt.op"), "ms"),
    ("sim.build_ms", SelfMs("sim.build"), "ms"),
    ("sim.submit_ms", SelfMs("sim.submit"), "ms"),
    ("sim.run_ms", SelfMs("sim.run"), "ms"),
    ("sim.summary_ms", SelfMs("sim.summary"), "ms"),
    ("sim.ns_per_req", Counter("sim.ns_per_req"), "ns"),
    ("sim.retry_per_req", Counter("sim.retry_per_req"), "ratio"),
    ("sim.shed_frac", Counter("sim.shed_frac"), "frac"),
    ("sim.deadline_frac", Counter("sim.deadline_frac"), "frac"),
    ("sim.unattributed_ms", SelfMs("sim.op"), "ms"),
    ("model.verify_ms", SelfMs("model.verify"), "ms"),
    ("model.lower_ms", SelfMs("model.lower"), "ms"),
    ("nn.conv1_ms", SelfMs("nn.conv1"), "ms"),
    ("nn.conv2_ms", SelfMs("nn.conv2"), "ms"),
    ("nn.fc_ms", SelfMs("nn.fc"), "ms"),
    ("nn.pool_ms", SelfMs("nn.pool"), "ms"),
    ("nn.act_ms", SelfMs("nn.act"), "ms"),
    ("nn.softmax_ms", SelfMs("nn.softmax"), "ms"),
    (
        "bce.rom_reads_per_inf",
        Counter("bce.rom_reads_per_inf"),
        "count",
    ),
    (
        "bce.lut_reads_per_inf",
        Counter("bce.lut_reads_per_inf"),
        "count",
    ),
    ("nn.unattributed_ms", SelfMs("nn.op"), "ms"),
    ("regen.sdc_ms", SelfMs("regen.sdc"), "ms"),
    ("regen.chaos_ms", SelfMs("regen.chaos"), "ms"),
    ("regen.serving_ms", SelfMs("regen.serving"), "ms"),
    ("regen.model_swap_ms", SelfMs("regen.model_swap"), "ms"),
    ("regen.figures_ms", SelfMs("regen.figures"), "ms"),
    ("regen.attribution_ms", SelfMs("regen.attribution"), "ms"),
    ("regen.unattributed_ms", SelfMs("regen.op"), "ms"),
    ("reload.verify_ms", SelfMs("reload.verify"), "ms"),
    ("reload.lower_ms", SelfMs("reload.lower"), "ms"),
    ("reload.publish_ms", SelfMs("reload.publish"), "ms"),
    ("reload.reverify_ms", SelfMs("reload.reverify"), "ms"),
    ("reload.unattributed_ms", SelfMs("reload.op"), "ms"),
];

/// The metric-name prefix of a workload's layers.
fn prefix(kind: Kind) -> &'static str {
    match kind {
        Kind::ServeRt => "rt",
        Kind::ServeOracle => "sim",
        Kind::LutInfer => "nn",
        Kind::EvalRegen => "regen",
        Kind::ModelReload => "reload",
    }
}

/// Every per-layer metric from the traced runs of all five workloads.
pub fn per_layer(spans: &Spans, runs: &[Run]) -> Vec<Metric> {
    let mut out = Vec::new();
    for &(name, source, unit) in &LAYERS {
        let value = match source {
            SelfMs(span) => median(&spans.self_ms(span)),
            Counter(counter) => median(&spans.counter(counter)),
        };
        out.push(metric(name, value, unit));
    }
    let find = |name: &str| {
        out.iter()
            .find(|m: &&Metric| m.name == name)
            .map(|m| m.value)
    };
    let mut derived = Vec::new();
    if let Some(verify_ms) = find("model.verify_ms") {
        let bytes = median(&spans.counter("model.bytes"));
        derived.push(metric(
            "model.verify_mb_per_s",
            bytes / 1e6 / (verify_ms / 1e3),
            "MB/s",
        ));
    }
    if let (Some(c1), Some(c2), Some(fc)) =
        (find("nn.conv1_ms"), find("nn.conv2_ms"), find("nn.fc_ms"))
    {
        let macs = median(&spans.counter("nn.table_macs"));
        derived.push(metric(
            "nn.macs_per_s",
            macs / ((c1 + c2 + fc) / 1e3),
            "MAC/s",
        ));
    }
    for run in runs {
        derived.push(metric(
            format!("{}.trace_overhead_ms", prefix(run.kind)),
            median(&run.traced.wall_ms) - median(&run.plain.wall_ms),
            "ms",
        ));
    }
    out.extend(derived);
    out
}

/// Formats a number with all its digits (shortest round-trip form).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The final report line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}
