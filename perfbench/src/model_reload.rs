//! `model-reload`: one op hot-reloads both tenants' models into a live
//! `ModelRegistry` — verify each new `.bfrm` artifact (parse plus
//! FNV-1a checksum), lower it to a tenant spec, publish it — and then
//! runs the registry's integrity sweep over the resident copies.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bfree_model::OwnedArtifact;
use bfree_serve::{ArtifactIntegrity, ModelRegistry};

use crate::models::{tenant_spec, TenantArtifacts};
use crate::spans::Spans;
use crate::{gate, Failure, Outcome, Setup, Workload};

/// Weight seed of the reloaded models when none is given.
pub const DEFAULT_SEED: u64 = 2;

/// Generated inputs: the models the registry starts with (version 1,
/// default weights) and the models every op reloads (version 2, weights
/// drawn from the seed).
#[derive(Debug, Clone)]
pub struct Inputs {
    current: TenantArtifacts,
    next: TenantArtifacts,
}

impl Inputs {
    /// Inputs whose reloaded weights are drawn from `seed`.
    pub fn generate(seed: u64) -> Self {
        Inputs {
            current: TenantArtifacts::generate(),
            next: TenantArtifacts::generate_version(2, seed),
        }
    }

    /// The artifacts every op reloads.
    pub fn next(&self) -> &TenantArtifacts {
        &self.next
    }
}

impl Setup for Inputs {
    /// Loads the version-1 models and binds them in a fresh registry
    /// (the timed part).
    fn setup(&self, spans: &mut Spans) -> Result<(Box<dyn Workload>, Duration), Failure> {
        let (models, specs, loaded) = self.current.load(spans)?;
        let start = Instant::now();
        let registry = ModelRegistry::from_specs(specs.clone());
        for (tenant, (spec, model)) in specs.into_iter().zip(models).enumerate() {
            registry.publish_artifact(tenant, 1, spec, Arc::new(model));
        }
        let timed = loaded + start.elapsed();
        let workload = ModelReload {
            registry,
            next: self.next.bytes().to_vec(),
            staged: Vec::new(),
            version: 1,
            first: None,
        };
        Ok((Box::new(workload), timed))
    }
}

/// The workload after set-up.
#[derive(Debug)]
pub struct ModelReload {
    registry: ModelRegistry,
    /// Artifact bytes every op reloads, one per tenant.
    next: Vec<Vec<u8>>,
    /// A fresh copy of `next` for the coming op, made before the timer.
    staged: Vec<Vec<u8>>,
    /// The registry version the last op published.
    version: u64,
    /// Checksums and specs the first op published, which every later
    /// op must reproduce.
    first: Option<Vec<(u64, String)>>,
}

impl Workload for ModelReload {
    fn prepare(&mut self) {
        if self.staged.is_empty() {
            self.staged = self.next.clone();
        }
    }

    fn op(&mut self, spans: &mut Spans) -> Result<Outcome, Failure> {
        self.prepare();
        spans.enter("reload.op");
        let version = self.version + 1;
        let mut published = Vec::with_capacity(self.staged.len());
        for (tenant, bytes) in std::mem::take(&mut self.staged).into_iter().enumerate() {
            let model = spans
                .time("reload.verify", || OwnedArtifact::new(bytes))
                .map_err(|e| Failure::new("model-reload.verify", e.to_string()))?;
            let spec = spans
                .time("reload.lower", || tenant_spec(tenant, &model))
                .map_err(|e| Failure::new("model-reload.lower", e.to_string()))?;
            published.push((model.artifact().checksum(), format!("{spec:?}")));
            // Dropping the replaced version frees its resident copy.
            spans.time("reload.publish", || {
                drop(
                    self.registry
                        .publish_artifact(tenant, version, spec, Arc::new(model)),
                );
            });
        }
        let reports = spans.time("reload.reverify", || self.registry.reverify_all());
        spans.exit();
        self.version = version;

        gate(
            reports.len() == published.len()
                && reports
                    .iter()
                    .all(|r| r.version == version && r.integrity == ArtifactIntegrity::Verified),
            "model-reload.reverify",
            || format!("integrity sweep after publishing version {version}: {reports:?}"),
        )?;
        let first = self.first.get_or_insert_with(|| published.clone());
        gate(*first == published, "model-reload.published", || {
            format!("published {published:?}, the first op published {first:?}")
        })?;
        Ok(Outcome::WHOLE)
    }
}
