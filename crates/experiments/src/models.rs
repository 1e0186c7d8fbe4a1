//! Model artifact tooling: export, inspect and verify `bfree-model`
//! artifacts for every Table II workload.
//!
//! `experiments models export` writes one `.bfrm` artifact per
//! evaluation network (seeded weight payloads, so even the 324M-param
//! BERT-large artifact stays in the kilobytes); `inspect` prints each
//! artifact's header, section sizes and LUT inventory; `verify`
//! re-parses every file (magic, bounds, footer checksum), re-encodes the
//! workload from the in-repo catalog and demands byte equality — any
//! drift between the checked-in catalog and an exported artifact fails
//! loudly, as does any corrupted byte.

use std::fs;
use std::path::{Path, PathBuf};

use bfree::BfreeConfig;
use bfree_model::{encode_kind, ArtifactSpec, ModelArtifact};
use pim_lut::LutKind;
use pim_nn::networks::CATALOG;
use pim_nn::request::NetworkKind;

use crate::error::ExperimentError;

/// Default artifact directory (build output, not checked in).
pub const DEFAULT_DIR: &str = "target/models";

/// The Table II workloads, in the paper's row order.
pub fn table2_kinds() -> Vec<NetworkKind> {
    CATALOG
        .iter()
        .filter(|e| e.paper.is_some())
        .map(|e| e.kind)
        .collect()
}

/// The artifact file name for a workload (e.g. `bert-base.bfrm`).
pub fn artifact_file_name(kind: NetworkKind) -> String {
    let slug: String = kind
        .label()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    format!("{slug}.bfrm")
}

fn artifact_path(dir: &Path, kind: NetworkKind) -> PathBuf {
    dir.join(artifact_file_name(kind))
}

/// Exports every Table II workload into `dir` and returns
/// `(file name, bytes written)` per artifact.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export(dir: &Path) -> Result<Vec<(String, usize)>, ExperimentError> {
    fs::create_dir_all(dir)?;
    let config = BfreeConfig::paper_default();
    let mut written = Vec::new();
    for kind in table2_kinds() {
        let bytes = encode_kind(kind, &config, &ArtifactSpec::default());
        fs::write(artifact_path(dir, kind), &bytes)?;
        written.push((artifact_file_name(kind), bytes.len()));
    }
    Ok(written)
}

/// One inspected artifact's summary.
#[derive(Debug, Clone)]
pub struct ArtifactSummary {
    /// Artifact file name.
    pub file: String,
    /// The network name stored in the header.
    pub network: String,
    /// Registry model version.
    pub model_version: u64,
    /// Layer record count.
    pub layers: usize,
    /// Total quantized weight bytes (inline or seed-regenerated).
    pub weight_bytes: u64,
    /// LUT segments as (multiply, divide, activation) counts.
    pub lut_segments: (usize, usize, usize),
    /// Artifact file size in bytes.
    pub file_bytes: usize,
    /// The XXH64 footer checksum.
    pub checksum: u64,
}

/// Parses every exported artifact in `dir` into a summary row.
///
/// # Errors
///
/// Filesystem errors, and [`ExperimentError::Model`] if any artifact
/// fails validation.
pub fn inspect(dir: &Path) -> Result<Vec<ArtifactSummary>, ExperimentError> {
    let mut rows = Vec::new();
    for kind in table2_kinds() {
        let bytes = fs::read(artifact_path(dir, kind))?;
        let artifact = ModelArtifact::parse(&bytes)?;
        let mut mult = 0usize;
        let mut div = 0usize;
        let mut act = 0usize;
        for segment in artifact.lut_segments() {
            match segment.kind() {
                LutKind::Multiply => mult += 1,
                LutKind::Divide => div += 1,
                LutKind::Activation => act += 1,
            }
        }
        rows.push(ArtifactSummary {
            file: artifact_file_name(kind),
            network: artifact.network_name().to_string(),
            model_version: artifact.model_version(),
            layers: artifact.layer_count(),
            weight_bytes: artifact.total_weight_bytes(),
            lut_segments: (mult, div, act),
            file_bytes: bytes.len(),
            checksum: artifact.checksum(),
        });
    }
    Ok(rows)
}

/// Verifies every exported artifact in `dir`: full parse (bounds +
/// checksum), then byte-for-byte equality against a fresh encode of the
/// same catalog workload.
///
/// # Errors
///
/// Filesystem errors, [`ExperimentError::Model`] on validation failure,
/// and [`ExperimentError::MissingData`] when an artifact does not match
/// its re-encode.
pub fn verify(dir: &Path) -> Result<(), ExperimentError> {
    let config = BfreeConfig::paper_default();
    for kind in table2_kinds() {
        let bytes = fs::read(artifact_path(dir, kind))?;
        ModelArtifact::parse(&bytes)?;
        let expected = encode_kind(kind, &config, &ArtifactSpec::default());
        if bytes != expected {
            return Err(ExperimentError::MissingData(format!(
                "{} drifted from the catalog: {} bytes on disk vs {} re-encoded",
                artifact_file_name(kind),
                bytes.len(),
                expected.len()
            )));
        }
    }
    Ok(())
}

/// Runs `export`, `inspect`, `verify` or (default) all three, printing
/// a summary table.
///
/// # Errors
///
/// Propagates each stage's errors.
pub fn print(action: &str, dir: &Path) -> Result<(), ExperimentError> {
    let all = action == "all";
    println!("\n== Model artifacts ({}) ==", dir.display());
    if all || action == "export" {
        for (file, size) in export(dir)? {
            println!("exported {file} ({size} bytes)");
        }
    }
    if all || action == "inspect" {
        println!(
            "{:<20} {:<14} {:>3} {:>7} {:>13} {:>12} {:>10} {:>18}",
            "file",
            "network",
            "ver",
            "layers",
            "weight bytes",
            "luts m/d/a",
            "file size",
            "checksum"
        );
        for row in inspect(dir)? {
            println!(
                "{:<20} {:<14} {:>3} {:>7} {:>13} {:>5}/{}/{} {:>12} {:>#18x}",
                row.file,
                row.network,
                row.model_version,
                row.layers,
                row.weight_bytes,
                row.lut_segments.0,
                row.lut_segments.1,
                row.lut_segments.2,
                row.file_bytes,
                row.checksum,
            );
        }
    }
    if all || action == "verify" {
        verify(dir)?;
        println!(
            "verified: all {} artifacts parse, checksum and match a fresh encode",
            table2_kinds().len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bfree_models_{tag}"))
    }

    #[test]
    fn export_inspect_verify_round_trip() {
        let dir = tmp_dir("roundtrip");
        let written = export(&dir).unwrap();
        assert_eq!(written.len(), 5);
        let rows = inspect(&dir).unwrap();
        assert_eq!(rows.len(), 5);
        // Table II order and per-network sanity.
        assert_eq!(rows[0].network, "Inception-v3");
        assert_eq!(rows[4].network, "BERT-large");
        for row in &rows {
            assert!(row.weight_bytes > 0, "{}", row.file);
            assert!(row.lut_segments.0 >= 1, "{}: multiply ROM", row.file);
        }
        verify(&dir).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_rejects_a_corrupted_artifact() {
        let dir = tmp_dir("corrupt");
        export(&dir).unwrap();
        let path = dir.join(artifact_file_name(NetworkKind::Vgg16));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            verify(&dir).unwrap_err(),
            ExperimentError::Model(_)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_names_are_stable_slugs() {
        assert_eq!(artifact_file_name(NetworkKind::BertBase), "bert-base.bfrm");
        assert_eq!(artifact_file_name(NetworkKind::Vgg16), "vgg-16.bfrm");
    }
}
