//! The declarative fault model: *what* can go wrong, and how often.
//!
//! A [`FaultPlan`] names rates, not outcomes. Concrete outcomes (which
//! slice fails when, which request attempt errors) are resolved by the
//! [`crate::FaultInjector`] as pure functions of the plan plus an
//! explicit seed — the plan itself carries no randomness and no clock.
//!
//! The taxonomy follows where a commodity-SRAM PIM cache actually
//! breaks (paper §IV, Fig. 4): the decoupled-bitline LUT rows are extra
//! analog machinery inside every subarray (stuck-at cells corrupt
//! entries at boot), a slice is the failure and power domain of the
//! pool (marginal sense amps or a controller fault take out all 320
//! subarrays at once), process variation makes some slices chronically
//! slow, and charge-sharing compute on live bitlines occasionally just
//! reads wrong (a transient, retryable error).

use crate::error::{check_rate, FaultError};

/// Configurable fault rates for one run. All rates are probabilities;
/// [`FaultPlan::none`] — every rate zero — is the fault-free machine
/// and must reproduce it bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability each LUT row is corrupted at boot (stuck-at cells).
    /// Corrupted rows are rewritten from DRAM the first time their
    /// slice is dispatched, costing
    /// [`lut_repair_ns_per_row`](FaultPlan::lut_repair_ns_per_row) each.
    pub lut_corruption_rate: f64,
    /// Service-time penalty per corrupted LUT row on the first dispatch
    /// that touches the slice (one DRAM fill plus a row write).
    pub lut_repair_ns_per_row: u64,
    /// Probability each slice fails outright at some instant inside
    /// [`failure_horizon_ns`](FaultPlan::failure_horizon_ns).
    pub slice_failure_rate: f64,
    /// Virtual-clock window in which slice failures are scheduled.
    pub failure_horizon_ns: u64,
    /// If set, a failed slice recovers (rejoins the pool) this long
    /// after failing; `None` means failures are permanent for the run.
    pub slice_recovery_ns: Option<u64>,
    /// Probability each slice is a chronic straggler (marginal sense
    /// amps / process variation).
    pub straggler_rate: f64,
    /// Latency multiplier a straggler slice imposes on every dispatch
    /// that includes it (>= 1).
    pub straggler_multiplier: f64,
    /// Probability one service attempt of one request hits a transient
    /// compute error and must be retried.
    pub transient_error_rate: f64,
    /// Probability each LUT row takes a soft-error bit flip per scrub
    /// epoch. Two independent draws are made per (row, epoch), so at
    /// high rates a row can accumulate a *double* flip between scrubs —
    /// the case parity detection misses and SECDED detects but cannot
    /// correct.
    pub lut_bitflip_rate: f64,
    /// Probability each model weight payload byte takes a bit flip
    /// while resident (registry re-verification catches these through
    /// the artifact's XXH64 footer checksum).
    pub weight_bitflip_rate: f64,
    /// Probability each in-flight nibble operand takes a bit flip on
    /// its way to the LUT index. Storage ECC cannot see these: a
    /// flipped operand indexes a *valid* row and reads a plausible but
    /// wrong product, so they are accounted as datapath SDC.
    pub operand_bitflip_rate: f64,
}

impl FaultPlan {
    /// The fault-free plan: every rate zero. Running under this plan is
    /// guaranteed byte-identical to running without a fault layer at
    /// all — the zero-fault-equivalence anchor.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            lut_corruption_rate: 0.0,
            lut_repair_ns_per_row: 0,
            slice_failure_rate: 0.0,
            failure_horizon_ns: 0,
            slice_recovery_ns: None,
            straggler_rate: 0.0,
            straggler_multiplier: 1.0,
            transient_error_rate: 0.0,
            lut_bitflip_rate: 0.0,
            weight_bitflip_rate: 0.0,
            operand_bitflip_rate: 0.0,
        }
    }

    /// Whether this plan injects nothing (every rate is zero).
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.lut_corruption_rate == 0.0
            && self.slice_failure_rate == 0.0
            && self.straggler_rate == 0.0
            && self.transient_error_rate == 0.0
            && self.lut_bitflip_rate == 0.0
            && self.weight_bitflip_rate == 0.0
            && self.operand_bitflip_rate == 0.0
    }

    /// Sets the LUT-row corruption rate and per-row repair cost.
    #[must_use]
    pub fn with_lut_corruption(mut self, rate: f64, repair_ns_per_row: u64) -> Self {
        self.lut_corruption_rate = rate;
        self.lut_repair_ns_per_row = repair_ns_per_row;
        self
    }

    /// Sets the slice-failure rate over a scheduling horizon, with an
    /// optional recovery delay.
    #[must_use]
    pub fn with_slice_failures(
        mut self,
        rate: f64,
        horizon_ns: u64,
        recovery_ns: Option<u64>,
    ) -> Self {
        self.slice_failure_rate = rate;
        self.failure_horizon_ns = horizon_ns;
        self.slice_recovery_ns = recovery_ns;
        self
    }

    /// Sets the straggler rate and latency multiplier.
    #[must_use]
    pub fn with_stragglers(mut self, rate: f64, multiplier: f64) -> Self {
        self.straggler_rate = rate;
        self.straggler_multiplier = multiplier;
        self
    }

    /// Sets the per-attempt transient compute-error rate.
    #[must_use]
    pub fn with_transient_errors(mut self, rate: f64) -> Self {
        self.transient_error_rate = rate;
        self
    }

    /// Sets the silent-data-corruption rates: LUT-row flips per scrub
    /// epoch, weight payload flips per byte, and in-flight operand
    /// flips per nibble.
    #[must_use]
    pub fn with_bit_flips(mut self, lut_rate: f64, weight_rate: f64, operand_rate: f64) -> Self {
        self.lut_bitflip_rate = lut_rate;
        self.weight_bitflip_rate = weight_rate;
        self.operand_bitflip_rate = operand_rate;
        self
    }

    /// This plan with every rate multiplied by `severity` (clamped to
    /// probability range) — the knob chaos sweeps turn. Severity 0
    /// yields a plan equivalent to [`FaultPlan::none`].
    #[must_use]
    pub fn scaled(&self, severity: f64) -> Self {
        let scale = |r: f64| (r * severity).clamp(0.0, 1.0);
        FaultPlan {
            lut_corruption_rate: scale(self.lut_corruption_rate),
            slice_failure_rate: scale(self.slice_failure_rate),
            straggler_rate: scale(self.straggler_rate),
            transient_error_rate: scale(self.transient_error_rate),
            lut_bitflip_rate: scale(self.lut_bitflip_rate),
            weight_bitflip_rate: scale(self.weight_bitflip_rate),
            operand_bitflip_rate: scale(self.operand_bitflip_rate),
            ..self.clone()
        }
    }

    /// Checks every parameter.
    ///
    /// # Errors
    ///
    /// [`FaultError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), FaultError> {
        check_rate("lut_corruption_rate", self.lut_corruption_rate)?;
        check_rate("slice_failure_rate", self.slice_failure_rate)?;
        check_rate("straggler_rate", self.straggler_rate)?;
        check_rate("transient_error_rate", self.transient_error_rate)?;
        check_rate("lut_bitflip_rate", self.lut_bitflip_rate)?;
        check_rate("weight_bitflip_rate", self.weight_bitflip_rate)?;
        check_rate("operand_bitflip_rate", self.operand_bitflip_rate)?;
        if !self.straggler_multiplier.is_finite() || self.straggler_multiplier < 1.0 {
            return Err(FaultError::InvalidParameter {
                parameter: "straggler_multiplier",
                reason: format!("must be finite and >= 1, got {}", self.straggler_multiplier),
            });
        }
        if self.slice_failure_rate > 0.0 && self.failure_horizon_ns == 0 {
            return Err(FaultError::InvalidParameter {
                parameter: "failure_horizon_ns",
                reason: "slice failures need a non-zero horizon to be scheduled in".to_string(),
            });
        }
        if self.slice_recovery_ns == Some(0) {
            return Err(FaultError::InvalidParameter {
                parameter: "slice_recovery_ns",
                reason: "zero-delay recovery would be a no-op failure; use None".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_valid_and_empty() {
        let plan = FaultPlan::none();
        assert!(plan.validate().is_ok());
        assert!(plan.is_none());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn builders_compose_and_validate() {
        let plan = FaultPlan::none()
            .with_lut_corruption(0.01, 50)
            .with_slice_failures(0.2, 100_000_000, Some(40_000_000))
            .with_stragglers(0.1, 3.0)
            .with_transient_errors(0.02);
        assert!(plan.validate().is_ok());
        assert!(!plan.is_none());
    }

    #[test]
    fn invalid_parameters_are_named() {
        let bad = FaultPlan::none().with_stragglers(0.1, 0.5);
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("straggler_multiplier"));

        let bad = FaultPlan::none().with_transient_errors(f64::NAN);
        assert!(bad.validate().is_err());

        let bad = FaultPlan {
            slice_failure_rate: 0.5,
            failure_horizon_ns: 0,
            ..FaultPlan::none()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn severity_zero_scales_back_to_none() {
        let base = FaultPlan::none()
            .with_stragglers(0.5, 4.0)
            .with_transient_errors(0.3);
        assert!(base.scaled(0.0).is_none());
        let double = base.scaled(2.0);
        assert!((double.transient_error_rate - 0.6).abs() < 1e-12);
        assert_eq!(base.scaled(10.0).straggler_rate, 1.0, "rates clamp at 1");
    }
}
