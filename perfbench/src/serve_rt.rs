//! `serve-rt`: one op is a fresh `RealtimeEngine` replaying a fixed
//! open-loop trace at full speed through one worker, with the live
//! telemetry plane on.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bfree_model::OwnedArtifact;
use bfree_serve::{
    Frontend, OpenLoopDriver, RealtimeConfig, RealtimeEngine, RequestTrace, ServeConfig,
    TenantSpec, WorkCounters,
};

use crate::models::{TenantArtifacts, RATES_RPS};
use crate::spans::Spans;
use crate::{gate, host, Failure, Outcome, Setup, Workload};

/// Trace seed when none is given (the perf sentinel's serving seed).
pub const DEFAULT_SEED: u64 = 0xBF_EE;
/// Virtual time the trace spans: ~12.9k requests at the two rates.
pub const HORIZON_NS: u64 = 6_400_000_000;

/// Generated inputs: the tenant artifacts and the request trace.
#[derive(Debug, Clone)]
pub struct Inputs {
    artifacts: TenantArtifacts,
    trace: RequestTrace,
}

impl Inputs {
    /// Inputs for the full workload.
    pub fn generate(seed: u64) -> Self {
        Inputs::with_horizon(seed, HORIZON_NS)
    }

    /// Inputs whose trace spans `horizon_ns` of virtual time.
    pub fn with_horizon(seed: u64, horizon_ns: u64) -> Self {
        let mut trace = RequestTrace::new();
        for (at_ns, tenant) in OpenLoopDriver::new(seed, RATES_RPS.to_vec()).arrivals(horizon_ns) {
            trace.submit(at_ns, tenant);
        }
        Inputs {
            artifacts: TenantArtifacts::generate(),
            trace,
        }
    }

    /// The request trace every op replays.
    pub fn trace(&self) -> &RequestTrace {
        &self.trace
    }
}

/// The engine configuration: one worker, four queue shards, a queue
/// deep enough for the whole trace, no timeout or deadline, so every
/// request completes whatever the feeder/worker interleaving.
///
/// # Panics
///
/// Never: the constants are valid.
pub fn config(queue_capacity: usize) -> RealtimeConfig {
    RealtimeConfig::builder()
        .workers(1)
        .queue_shards(4)
        .replay_rate(0.0)
        .serve(
            ServeConfig::builder()
                .max_batch(8)
                .batch_window_ns(100_000)
                .queue_capacity(queue_capacity.max(1))
                .build()
                .expect("constants are valid"),
        )
        .build()
        .expect("constants are valid")
}

/// The workload after set-up.
#[derive(Debug)]
pub struct ServeRt {
    _models: Vec<OwnedArtifact>,
    specs: Vec<TenantSpec>,
    config: RealtimeConfig,
    trace: RequestTrace,
    first_ledger: Option<WorkCounters>,
}

impl Setup for Inputs {
    /// Loads the tenant artifacts (the timed part) and binds the trace.
    fn setup(&self, spans: &mut Spans) -> Result<(Box<dyn Workload>, Duration), Failure> {
        let (models, specs, timed) = self.artifacts.load(spans)?;
        let workload = ServeRt {
            _models: models,
            specs,
            config: config(self.trace.submissions() as usize),
            trace: self.trace.clone(),
            first_ledger: None,
        };
        Ok((Box::new(workload), timed))
    }
}

fn engine_error(check: &'static str) -> impl Fn(bfree_serve::ServeError) -> Failure {
    move |e| Failure::new(check, e.to_string())
}

impl Workload for ServeRt {
    fn op(&mut self, spans: &mut Spans) -> Result<Outcome, Failure> {
        spans.enter("rt.op");
        let mut engine = spans
            .time("rt.new", || {
                RealtimeEngine::new(self.config.clone(), self.specs.clone())
            })
            .map_err(engine_error("serve-rt.new"))?;
        let submitted = spans
            .time("rt.submit", || engine.submit_trace(&self.trace))
            .map_err(engine_error("serve-rt.submit"))?;
        let (cpu0, wall0) = (host::process_cpu_ns(), Instant::now());
        spans
            .time("rt.drive", || engine.drive_to_idle())
            .map_err(engine_error("serve-rt.drive"))?;
        let (cpu, wall) = (host::process_cpu_ns() - cpu0, wall0.elapsed());
        let summary = spans.time("rt.summary", || engine.serving_telemetry().summary());
        black_box(spans.time("rt.snapshot", || engine.live_snapshot()));
        let stats = engine.stats();
        let total = engine.work_ledger().total();
        drop(engine);
        spans.exit();

        gate(
            submitted == self.trace.submissions()
                && summary.submitted == submitted
                && summary.completed == submitted,
            "serve-rt.completed",
            || {
                format!(
                    "trace {} submitted {submitted} summary {}/{} completed",
                    self.trace.submissions(),
                    summary.completed,
                    summary.submitted
                )
            },
        )?;
        let first = *self.first_ledger.get_or_insert(total);
        gate(first == total, "serve-rt.ledger", || {
            format!("work ledger {total:?} differs from the first op's {first:?}")
        })?;

        let completed = summary.completed as f64;
        spans.count("rt.cpu_per_wall", cpu as f64 / wall.as_nanos() as f64);
        spans.count(
            "rt.reqs_per_session",
            completed / stats.batches.max(1) as f64,
        );
        spans.count("rt.joins_per_req", stats.joins as f64 / completed);
        spans.count("rt.steals_per_req", stats.steals as f64 / completed);
        spans.count("rt.max_batch", stats.max_batch_seen as f64);
        Ok(Outcome {
            attempted: submitted,
            completed: summary.completed,
        })
    }
}
