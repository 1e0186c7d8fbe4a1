//! # perfbench
//!
//! The repository's benchmark: five host-time workloads over the BFree
//! workspace, each with correctness gates, plus a traced run that splits
//! every op into the layers that produce it. See `README.md` next to
//! this crate for why each workload exists and what each metric means.

pub mod eval_regen;
pub mod host;
pub mod lut_infer;
pub mod model_reload;
pub mod models;
pub mod runner;
pub mod serve_oracle;
pub mod serve_rt;
pub mod spans;
pub mod stats;

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use spans::Spans;

/// A correctness gate that did not hold.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// The gate's name, e.g. `serve-rt.completed`.
    pub check: &'static str,
    /// What was observed.
    pub detail: String,
}

impl Failure {
    /// A failure of `check`.
    pub fn new(check: &'static str, detail: impl Into<String>) -> Self {
        Failure {
            check,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "check {} failed: {}", self.check, self.detail)
    }
}

/// Returns `Err(Failure)` naming `check` unless `cond` holds.
pub fn gate(
    cond: bool,
    check: &'static str,
    detail: impl FnOnce() -> String,
) -> Result<(), Failure> {
    if cond {
        Ok(())
    } else {
        Err(Failure::new(check, detail()))
    }
}

/// What one op completed out of what it attempted (requests for the
/// serving workloads; the whole op otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Units attempted.
    pub attempted: u64,
    /// Units completed.
    pub completed: u64,
}

impl Outcome {
    /// An op that is all-or-nothing and passed its gates.
    pub const WHOLE: Outcome = Outcome {
        attempted: 1,
        completed: 1,
    };
}

/// A workload after set-up: runs ops, each checked by its gates.
pub trait Workload {
    /// Untimed work before each op, such as staging a fresh copy of
    /// inputs the op consumes.
    fn prepare(&mut self) {}

    /// Runs one op. With `spans` recording, runs the traced variant,
    /// which records a span around each call into a layer.
    ///
    /// # Errors
    ///
    /// The first gate the op fails.
    fn op(&mut self, spans: &mut Spans) -> Result<Outcome, Failure>;
}

/// A workload's generated inputs, from which the program can be set up
/// any number of times.
pub trait Setup {
    /// Sets the workload up once, returning it and the duration of the
    /// timed part (the program's own set-up, not input generation).
    ///
    /// # Errors
    ///
    /// The gate that failed during set-up.
    fn setup(&self, spans: &mut Spans) -> Result<(Box<dyn Workload>, Duration), Failure>;
}

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Realtime serving engine, trace replayed at full speed.
    ServeRt,
    /// Virtual-clock serving oracle under a fault plan.
    ServeOracle,
    /// One LUT-datapath forward pass of a small CNN.
    LutInfer,
    /// Regeneration of the paper's CSVs, byte-compared to the goldens.
    EvalRegen,
    /// Hot reload of both tenants' models into a live registry.
    ModelReload,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 5] = [
        Kind::ServeRt,
        Kind::ServeOracle,
        Kind::LutInfer,
        Kind::EvalRegen,
        Kind::ModelReload,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeRt => "serve-rt",
            Kind::ServeOracle => "serve-oracle",
            Kind::LutInfer => "lut-infer",
            Kind::EvalRegen => "eval-regen",
            Kind::ModelReload => "model-reload",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The seed used when none is given on the command line.
    pub fn default_seed(self) -> u64 {
        match self {
            Kind::ServeRt => serve_rt::DEFAULT_SEED,
            Kind::ServeOracle => serve_oracle::DEFAULT_SEED,
            Kind::LutInfer => lut_infer::DEFAULT_SEED,
            Kind::EvalRegen => 0,
            Kind::ModelReload => model_reload::DEFAULT_SEED,
        }
    }

    /// `bfree::par` worker count the workload is pinned to.
    pub fn jobs(self) -> usize {
        match self {
            Kind::EvalRegen => host::nproc(),
            _ => 1,
        }
    }

    /// Set-up repetitions per run, spread over the measured window so
    /// their median sees the same machine as the ops; `setup_s` is that
    /// median.
    pub fn setup_reps(self) -> usize {
        match self {
            Kind::ServeRt | Kind::ServeOracle | Kind::ModelReload => 7,
            Kind::LutInfer | Kind::EvalRegen => 51,
        }
    }

    /// Generates the workload's inputs from `seed` (untimed) and pins
    /// the `bfree::par` worker count.
    ///
    /// # Errors
    ///
    /// A gate that fails while generating inputs.
    pub fn inputs(self, seed: u64) -> Result<Box<dyn Setup>, Failure> {
        bfree::par::set_max_jobs(self.jobs());
        Ok(match self {
            Kind::ServeRt => Box::new(serve_rt::Inputs::generate(seed)),
            Kind::ServeOracle => Box::new(serve_oracle::Inputs::generate(seed)),
            Kind::LutInfer => Box::new(lut_infer::Inputs::generate(seed)?),
            Kind::EvalRegen => Box::new(eval_regen::Inputs {
                golden_dir: golden_dir(),
                dir: work_dir().join("regen"),
            }),
            Kind::ModelReload => Box::new(model_reload::Inputs::generate(seed)),
        })
    }
}

/// The repository root this benchmark was built in.
pub fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// The committed golden CSVs.
pub fn golden_dir() -> PathBuf {
    repo_root().join("results")
}

/// Where the benchmark writes (temporary CSVs, the span file): under
/// the build directory, inside the checkout.
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| repo_root().join(".bench_build"), PathBuf::from);
    let target = if target.is_absolute() {
        target
    } else {
        repo_root().join(target)
    };
    target.join("perfbench")
}
