//! The two serving tenants as inline-weight `.bfrm` artifacts, and the
//! set-up step the serving and model-reload workloads share: verify each
//! artifact (parse plus checksum) and lower it to a tenant spec.

use std::time::{Duration, Instant};

use bfree::BfreeConfig;
use bfree_model::{encode_kind, ArtifactSpec, OwnedArtifact, WeightPayload, DEFAULT_WEIGHT_SEED};
use bfree_serve::{ModelRegistry, ServeError, TenantSpec};
use pim_nn::request::NetworkKind;

use crate::spans::Spans;
use crate::Failure;

/// `(tenant name, network, priority)` of the two tenants.
const TENANTS: [(&str, NetworkKind, u8); 2] = [
    ("lstm-timit", NetworkKind::LstmTimit, 0),
    ("bert-base", NetworkKind::BertBase, 5),
];

/// Offered load per tenant, requests per second of virtual time.
pub const RATES_RPS: [f64; 2] = [2_000.0, 50.0];

/// Encoded artifact bytes, one per tenant (generated input, untimed).
#[derive(Debug, Clone)]
pub struct TenantArtifacts {
    bytes: Vec<Vec<u8>>,
}

impl TenantArtifacts {
    /// Encodes both tenants with inline weights (version 1, the default
    /// weight seed).
    pub fn generate() -> Self {
        TenantArtifacts::generate_version(1, DEFAULT_WEIGHT_SEED)
    }

    /// Encodes both tenants with inline weights drawn from `weight_seed`,
    /// stamped `model_version`.
    pub fn generate_version(model_version: u64, weight_seed: u64) -> Self {
        let spec = ArtifactSpec {
            model_version,
            payload: WeightPayload::Inline,
            seed: weight_seed,
            ..ArtifactSpec::default()
        };
        let config = BfreeConfig::paper_default();
        TenantArtifacts {
            bytes: TENANTS
                .iter()
                .map(|&(_, kind, _)| encode_kind(kind, &config, &spec))
                .collect(),
        }
    }

    /// The encoded bytes, one artifact per tenant.
    pub fn bytes(&self) -> &[Vec<u8>] {
        &self.bytes
    }

    /// Total artifact size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.bytes.iter().map(Vec::len).sum()
    }

    /// Loads every artifact from a fresh copy of its bytes: the copy is
    /// made outside the timer, then verification (`model.verify`) and
    /// lowering to a tenant spec (`model.lower`) are timed. Returns the
    /// loaded artifacts, the specs and the timed duration.
    ///
    /// # Errors
    ///
    /// `model.verify` or `model.lower` when an artifact is rejected.
    pub fn load(
        &self,
        spans: &mut Spans,
    ) -> Result<(Vec<OwnedArtifact>, Vec<TenantSpec>, Duration), Failure> {
        let copies: Vec<Vec<u8>> = self.bytes.clone();
        spans.count("model.bytes", self.total_bytes() as f64);
        let start = Instant::now();
        let mut owned = Vec::with_capacity(copies.len());
        for bytes in copies {
            spans.enter("model.verify");
            let artifact = OwnedArtifact::new(bytes);
            spans.exit();
            owned.push(artifact.map_err(|e| Failure::new("model.verify", e.to_string()))?);
        }
        let mut specs = Vec::with_capacity(owned.len());
        for (tenant, artifact) in owned.iter().enumerate() {
            let spec = spans.time("model.lower", || tenant_spec(tenant, artifact));
            specs.push(spec.map_err(|e| Failure::new("model.lower", e.to_string()))?);
        }
        Ok((owned, specs, start.elapsed()))
    }
}

/// Lowers tenant `tenant`'s artifact to its spec, with the tenant's
/// name and priority.
///
/// # Errors
///
/// The registry's error when the artifact names an unknown network.
///
/// # Panics
///
/// Panics if `tenant` is not 0 or 1.
pub fn tenant_spec(tenant: usize, artifact: &OwnedArtifact) -> Result<TenantSpec, ServeError> {
    let (name, _, priority) = TENANTS[tenant];
    ModelRegistry::spec_from_artifact(name, &artifact.artifact()).map(|s| s.with_priority(priority))
}
