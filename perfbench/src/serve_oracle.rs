//! `serve-oracle`: one op is a virtual-clock `ServingSim` under the
//! chaos sweep's severity-1 fault plan and its full resilience policy
//! (retry, shedding, deadlines), driven open-loop to idle.

use std::time::{Duration, Instant};

use bfree_fault::{FaultInjector, FaultPlan, RetryPolicy};
use bfree_model::OwnedArtifact;
use bfree_serve::{
    OpenLoopDriver, SchedPolicy, ServeConfig, ServingSim, ServingSummary, TenantSpec,
};

use crate::models::{TenantArtifacts, RATES_RPS};
use crate::spans::Spans;
use crate::{gate, Failure, Outcome, Setup, Workload};

/// Arrival seed when none is given (the chaos sweep's seed).
pub const DEFAULT_SEED: u64 = 42;
/// Seed of the fault realization (which slices fail and straggle, when,
/// and which LUT rows boot corrupted). Pinned, not drawn from `--seed`:
/// it decides how much capacity the pool loses, and with it how many
/// requests are shed, so letting it vary would turn the workload's
/// completed fraction and op time into functions of the seed.
pub const FAULT_SEED: u64 = 42;
/// Virtual time each op simulates: ~16.4k requests at the two rates.
pub const HORIZON_NS: u64 = 8_000_000_000;

/// Generated inputs: the tenant artifacts and the seed the arrival
/// process is drawn from.
#[derive(Debug, Clone)]
pub struct Inputs {
    artifacts: TenantArtifacts,
    seed: u64,
    horizon_ns: u64,
}

impl Inputs {
    /// Inputs for the full workload.
    pub fn generate(seed: u64) -> Self {
        Inputs::with_horizon(seed, HORIZON_NS)
    }

    /// Inputs whose ops simulate `horizon_ns` of virtual time.
    pub fn with_horizon(seed: u64, horizon_ns: u64) -> Self {
        Inputs {
            artifacts: TenantArtifacts::generate(),
            seed,
            horizon_ns,
        }
    }
}

/// Priority dispatch with retry, shedding at 0.8 healthy capacity, a
/// 40 ms deadline and a 50 ms timeout behind a 512-deep queue.
///
/// # Panics
///
/// Never: the constants are valid.
pub fn config() -> ServeConfig {
    ServeConfig::builder()
        .policy(SchedPolicy::Priority)
        .max_batch(8)
        .batch_window_ns(100_000)
        .queue_capacity(512)
        .timeout_ns(Some(50_000_000))
        .retry(RetryPolicy::standard())
        .shed_watermark(0.8)
        .deadline_ns(Some(40_000_000))
        .build()
        .expect("constants are valid")
}

/// Boot-time LUT corruption, ~20% of slices failing within the horizon
/// and recovering a quarter-horizon later, ~15% stragglers at 3x and 3%
/// transient errors.
pub fn fault_plan(horizon_ns: u64) -> FaultPlan {
    FaultPlan::none()
        .with_lut_corruption(0.001, 50)
        .with_slice_failures(0.2, horizon_ns, Some(horizon_ns / 4))
        .with_stragglers(0.15, 3.0)
        .with_transient_errors(0.03)
}

/// The workload after set-up.
#[derive(Debug)]
pub struct ServeOracle {
    _models: Vec<OwnedArtifact>,
    specs: Vec<TenantSpec>,
    config: ServeConfig,
    seed: u64,
    horizon_ns: u64,
    first: Option<ServingSummary>,
}

impl ServeOracle {
    fn injector(&self) -> Result<FaultInjector, Failure> {
        let geometry = &self.config.base.geometry;
        let lut_rows_per_slice = (geometry.subarrays_per_slice()
            * geometry.partitions_per_subarray()
            * geometry.lut_rows_per_partition()) as u32;
        FaultInjector::new(
            fault_plan(self.horizon_ns),
            FAULT_SEED,
            geometry.slices(),
            lut_rows_per_slice,
        )
        .map_err(|e| Failure::new("serve-oracle.build", e.to_string()))
    }
}

impl Setup for Inputs {
    /// Loads the tenant artifacts (the timed part).
    fn setup(&self, spans: &mut Spans) -> Result<(Box<dyn Workload>, Duration), Failure> {
        let (models, specs, timed) = self.artifacts.load(spans)?;
        let workload = ServeOracle {
            _models: models,
            specs,
            config: config(),
            seed: self.seed,
            horizon_ns: self.horizon_ns,
            first: None,
        };
        Ok((Box::new(workload), timed))
    }
}

impl Workload for ServeOracle {
    fn op(&mut self, spans: &mut Spans) -> Result<Outcome, Failure> {
        let start = Instant::now();
        spans.enter("sim.op");
        spans.enter("sim.build");
        let sim = self.injector().and_then(|injector| {
            ServingSim::builder(self.config.clone(), self.specs.clone())
                .injector(injector)
                .build()
                .map_err(|e| Failure::new("serve-oracle.build", e.to_string()))
        });
        spans.exit();
        let mut sim = sim?;
        let submitted = spans.time("sim.submit", || {
            OpenLoopDriver::new(self.seed, RATES_RPS.to_vec()).drive(&mut sim, self.horizon_ns)
        });
        spans.time("sim.run", || {
            sim.run_to_idle();
        });
        let summary = spans.time("sim.summary", || sim.telemetry().summary());
        drop(sim);
        spans.exit();

        gate(
            summary.submitted == submitted && summary.completed + summary.rejected == submitted,
            "serve-oracle.conservation",
            || {
                format!(
                    "{submitted} submitted, summary {} submitted = {} completed + {} rejected",
                    summary.submitted, summary.completed, summary.rejected
                )
            },
        )?;
        let first = self.first.get_or_insert_with(|| summary.clone());
        gate(*first == summary, "serve-oracle.summary", || {
            format!("summary {summary:?} differs from the first op's {first:?}")
        })?;

        let n = submitted.max(1) as f64;
        spans.count("sim.ns_per_req", start.elapsed().as_nanos() as f64 / n);
        spans.count("sim.retry_per_req", summary.retries as f64 / n);
        spans.count("sim.shed_frac", summary.shed as f64 / n);
        spans.count("sim.deadline_frac", summary.deadline_expired as f64 / n);
        Ok(Outcome {
            attempted: submitted,
            completed: summary.completed,
        })
    }
}
