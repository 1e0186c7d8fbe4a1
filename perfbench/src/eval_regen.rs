//! `eval-regen`: one op regenerates the paper's CSVs
//! (`bfree_experiments::csv::write_all`) into a fresh directory and
//! byte-compares all 13 against the committed goldens. The traced op
//! calls each experiment runner's public `run()` under its own span.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bfree_experiments::{
    ablations, attribution, chaos, fig12, fig13, fig14, model_swap, sdc, serving, table3,
};
use bfree_experiments::{csv, ExperimentError};

use crate::spans::Spans;
use crate::{gate, Failure, Outcome, Setup, Workload};

/// Every CSV `write_all` emits, each with a golden under `results/`.
pub const CSVS: [&str; 13] = [
    "fig12a_module_runtimes.csv",
    "fig12b_bfree_phases.csv",
    "fig12c_neural_cache_phases.csv",
    "fig12d_cache_energy.csv",
    "fig13_layer_compute.csv",
    "fig14_bandwidth_sweep.csv",
    "table3_runtime_energy.csv",
    "ablation_batch_sweep.csv",
    "serving_load_sweep.csv",
    "model_swap.csv",
    "chaos.csv",
    "sdc.csv",
    "attribution.csv",
];

/// The golden bytes of each CSV, by file name.
pub type Goldens = Vec<(&'static str, Vec<u8>)>;

/// Reads every golden in [`CSVS`] from `dir`.
///
/// # Errors
///
/// `eval-regen.goldens` for a golden that cannot be read.
pub fn load_goldens(dir: &Path) -> Result<Goldens, Failure> {
    CSVS.iter()
        .map(|&name| {
            fs::read(dir.join(name))
                .map(|bytes| (name, bytes))
                .map_err(|e| Failure::new("eval-regen.goldens", format!("{name}: {e}")))
        })
        .collect()
}

/// Byte-compares each of `names` in `dir` against its golden.
///
/// # Errors
///
/// `eval-regen.golden` naming the first file that is missing or differs,
/// and the offset of its first differing byte.
pub fn compare(dir: &Path, goldens: &Goldens, names: &[&str]) -> Result<(), Failure> {
    for &name in names {
        let golden = goldens
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, bytes)| bytes)
            .ok_or_else(|| Failure::new("eval-regen.golden", format!("{name} has no golden")))?;
        let written = fs::read(dir.join(name))
            .map_err(|e| Failure::new("eval-regen.golden", format!("{name}: {e}")))?;
        if written != *golden {
            let at = written
                .iter()
                .zip(golden)
                .position(|(a, b)| a != b)
                .unwrap_or(written.len().min(golden.len()));
            return Err(Failure::new(
                "eval-regen.golden",
                format!(
                    "{name} differs from its golden at byte {at} ({} vs {} bytes)",
                    written.len(),
                    golden.len()
                ),
            ));
        }
    }
    Ok(())
}

/// Where the goldens are and where ops write.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Directory holding the committed goldens.
    pub golden_dir: PathBuf,
    /// Directory each op recreates and writes its CSVs into.
    pub dir: PathBuf,
}

impl Setup for Inputs {
    /// Loads the goldens (the timed part).
    fn setup(&self, _spans: &mut Spans) -> Result<(Box<dyn Workload>, Duration), Failure> {
        let start = Instant::now();
        let goldens = load_goldens(&self.golden_dir)?;
        let timed = start.elapsed();
        let workload = EvalRegen {
            goldens,
            dir: self.dir.clone(),
        };
        Ok((Box::new(workload), timed))
    }
}

/// The workload after set-up.
#[derive(Debug)]
pub struct EvalRegen {
    goldens: Goldens,
    dir: PathBuf,
}

fn experiment(e: ExperimentError) -> Failure {
    Failure::new("eval-regen.run", e.to_string())
}

fn io(e: std::io::Error) -> Failure {
    Failure::new("eval-regen.io", e.to_string())
}

impl EvalRegen {
    fn fresh_dir(&self) -> Result<(), Failure> {
        if self.dir.exists() {
            fs::remove_dir_all(&self.dir).map_err(io)?;
        }
        fs::create_dir_all(&self.dir).map_err(io)
    }

    /// The traced op: each runner's `run()` under its span, then the
    /// runners that expose their CSV rows write them for the golden
    /// check (the figure runners format inside `write_all` only, so the
    /// untraced ops of the same run gate their bytes).
    fn traced(&self, spans: &mut Spans) -> Result<Vec<&'static str>, Failure> {
        spans.time("regen.figures", || -> Result<(), Failure> {
            black_box(fig12::run());
            black_box(fig13::run());
            black_box(fig14::run());
            black_box(table3::run().map_err(experiment)?);
            black_box(ablations::batch_sweep());
            Ok(())
        })?;
        let dir = &self.dir;
        let emit = |name: &str, header: &[&str], rows: Vec<Vec<String>>| {
            csv::write_rows(&dir.join(name), header, &rows).map_err(io)
        };
        spans.time("regen.serving", || {
            let r = serving::run().map_err(experiment)?;
            emit(
                "serving_load_sweep.csv",
                &serving::CSV_HEADER,
                serving::csv_rows(&r),
            )
        })?;
        spans.time("regen.model_swap", || {
            let r = model_swap::run().map_err(experiment)?;
            emit(
                "model_swap.csv",
                &model_swap::CSV_HEADER,
                model_swap::csv_rows(&r),
            )
        })?;
        spans.time("regen.chaos", || {
            let r = chaos::run(chaos::DEFAULT_SEED).map_err(experiment)?;
            emit("chaos.csv", &chaos::CSV_HEADER, chaos::csv_rows(&r))
        })?;
        spans.time("regen.sdc", || {
            let r = sdc::run(sdc::DEFAULT_SEED).map_err(experiment)?;
            emit("sdc.csv", &sdc::CSV_HEADER, sdc::csv_rows(&r))
        })?;
        spans.time("regen.attribution", || {
            let r = attribution::run().map_err(experiment)?;
            emit(
                "attribution.csv",
                &attribution::CSV_HEADER,
                attribution::csv_rows(&r),
            )
        })?;
        Ok(vec![
            "serving_load_sweep.csv",
            "model_swap.csv",
            "chaos.csv",
            "sdc.csv",
            "attribution.csv",
        ])
    }
}

impl Workload for EvalRegen {
    fn op(&mut self, spans: &mut Spans) -> Result<Outcome, Failure> {
        spans.enter("regen.op");
        self.fresh_dir()?;
        let checked = if spans.enabled() {
            self.traced(spans)?
        } else {
            let mut written = csv::write_all(&self.dir).map_err(experiment)?;
            written.sort_unstable();
            let mut expected = CSVS.to_vec();
            expected.sort_unstable();
            gate(written == expected, "eval-regen.files", || {
                format!("write_all wrote {written:?}, expected {expected:?}")
            })?;
            CSVS.to_vec()
        };
        compare(&self.dir, &self.goldens, &checked)?;
        fs::remove_dir_all(&self.dir).map_err(io)?;
        spans.exit();
        Ok(Outcome::WHOLE)
    }
}
