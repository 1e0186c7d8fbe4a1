//! The artifact writer: serializes any `bfree-nn` workload.
//!
//! [`encode_network`] lowers a [`Network`] plus a [`BfreeConfig`] into
//! the binary layout of [`crate::format`]: per-layer quantization
//! scales, mapping metadata derived with the same [`Mapper`] the
//! simulator and the serving tier use, the LUT segment table the
//! network's operators need, and (optionally) the quantized weight
//! bytes inline.

use bfree::{BfreeConfig, Mapper, PrecisionPolicy};
use pim_bce::{BceMode, Precision};
use pim_lut::{DivLut, LutImage, LutKind, MultLut, PwlFunction, PwlTable};
use pim_nn::layers::Act;
use pim_nn::request::NetworkKind;
use pim_nn::{networks, LayerOp, LayerSpec, Network, PoolKind};

use crate::format::{self, policy_tag};

/// Default synthetic-weight seed for artifacts that do not pin one.
pub const DEFAULT_WEIGHT_SEED: u64 = 0xBFEE_5EED;

/// How an artifact carries its quantized weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightPayload {
    /// The quantized bytes are stored inline in the weights section.
    Inline,
    /// The weights section is empty; the loader regenerates the bytes
    /// from the header's weight seed (same generator, identical bytes).
    /// Keeps multi-hundred-megabyte workloads like BERT-large at
    /// kilobyte artifact sizes.
    Seeded,
}

/// Everything about an artifact that is not derived from the network.
#[derive(Debug, Clone)]
pub struct ArtifactSpec {
    /// Registry-assigned model version stamped into the header.
    pub model_version: u64,
    /// Per-layer precision assignment.
    pub precision: PrecisionPolicy,
    /// Inline or seed-regenerated weights.
    pub payload: WeightPayload,
    /// Synthetic-weight seed.
    pub seed: u64,
}

impl Default for ArtifactSpec {
    fn default() -> Self {
        ArtifactSpec {
            model_version: 1,
            precision: PrecisionPolicy::uniform_int8(),
            payload: WeightPayload::Seeded,
            seed: DEFAULT_WEIGHT_SEED,
        }
    }
}

/// The operator tag for a layer (index into
/// [`crate::artifact::OP_NAMES`]).
pub fn op_tag(op: &LayerOp) -> u8 {
    match op {
        LayerOp::Conv2d { .. } => 0,
        LayerOp::Linear { .. } => 1,
        LayerOp::Pool { .. } => 2,
        LayerOp::GlobalAvgPool => 3,
        LayerOp::Activation(_) => 4,
        LayerOp::Lstm { .. } => 5,
        LayerOp::Gru { .. } => 6,
        LayerOp::Attention { .. } => 7,
        LayerOp::FeedForward { .. } => 8,
        LayerOp::LayerNorm => 9,
        LayerOp::Add => 10,
    }
}

fn policy_to_tag(policy: &PrecisionPolicy) -> u32 {
    match policy {
        PrecisionPolicy::Uniform(Precision::Int4) => policy_tag::UNIFORM_INT4,
        PrecisionPolicy::Uniform(Precision::Int16) => policy_tag::UNIFORM_INT16,
        PrecisionPolicy::Uniform(_) => policy_tag::UNIFORM_INT8,
        PrecisionPolicy::MixedFourEight { .. } => policy_tag::MIXED_FOUR_EIGHT,
    }
}

/// Whether a layer's evaluation needs the LUT division path
/// (§III-C2: average pooling, normalization, softmax).
fn needs_division(layer: &LayerSpec) -> bool {
    matches!(
        layer.op(),
        LayerOp::Pool {
            kind: PoolKind::Avg,
            ..
        } | LayerOp::GlobalAvgPool
            | LayerOp::LayerNorm
            | LayerOp::Activation(Act::Softmax)
            | LayerOp::Attention { .. }
    )
}

/// The PWL tables a layer's non-linearities need, as activation tags
/// (the [`PwlFunction`] order: 0 exp, 1 sigmoid, 2 tanh).
fn pwl_needs(layer: &LayerSpec) -> Vec<u8> {
    match layer.op() {
        LayerOp::Activation(Act::Sigmoid) => vec![1],
        LayerOp::Activation(Act::Tanh) | LayerOp::Activation(Act::Gelu) => vec![2],
        LayerOp::Activation(Act::Softmax) | LayerOp::Attention { .. } => vec![0],
        LayerOp::Lstm { .. } | LayerOp::Gru { .. } => vec![1, 2],
        _ => Vec::new(),
    }
}

fn pwl_table(act_tag: u8) -> PwlTable {
    // 16 segments = 64 bytes, one subarray's LUT-row budget.
    match act_tag {
        0 => PwlTable::new(PwlFunction::Exp, -16.0, 0.0, 16),
        1 => PwlTable::new(PwlFunction::Sigmoid, -8.0, 8.0, 16),
        _ => PwlTable::new(PwlFunction::Tanh, -8.0, 8.0, 16),
    }
    .expect("static PWL ranges are valid")
}

/// Serializes a network into a complete, checksummed artifact.
///
/// Infallible by construction: every workload the catalog can build
/// lowers to a valid artifact, and the output always round-trips
/// through [`crate::ModelArtifact::parse`].
pub fn encode_network(network: &Network, config: &BfreeConfig, spec: &ArtifactSpec) -> Vec<u8> {
    let geometry = &config.geometry;
    let mapper = Mapper::new(geometry.clone());
    let weight_names: Vec<&str> = network.weight_layers().map(|l| l.name()).collect();

    // Names section: network name first, then every layer name.
    let mut names = Vec::new();
    let net_name_off = names.len() as u32;
    names.extend_from_slice(network.name().as_bytes());
    let net_name_len = network.name().len() as u32;

    let layers = network.layers();
    let mut records = vec![0u8; layers.len() * format::LAYER_RECORD_LEN];
    let mut weights = Vec::new();
    let mut weight_cursor = 0u64;
    let mut div_needed = false;
    let mut act_tags: Vec<u8> = Vec::new();

    for (i, layer) in layers.iter().enumerate() {
        let r = &mut records[i * format::LAYER_RECORD_LEN..(i + 1) * format::LAYER_RECORD_LEN];
        let name_off = names.len() as u32;
        names.extend_from_slice(layer.name().as_bytes());
        format::write_u32(r, format::R_NAME_OFF, name_off);
        format::write_u32(r, format::R_NAME_LEN, layer.name().len() as u32);
        r[format::R_OP_TAG] = op_tag(layer.op());

        let precision = spec.precision.layer_precision(layer, &weight_names);
        r[format::R_PRECISION_BITS] = precision.bits() as u8;

        div_needed |= needs_division(layer);
        for tag in pwl_needs(layer) {
            if !act_tags.contains(&tag) {
                act_tags.push(tag);
            }
        }

        format::write_u64(r, format::R_PARAMS, layer.params());
        format::write_u64(r, format::R_MACS, layer.macs());

        if layer.is_weight_layer() {
            // Mode, mapping and quantization metadata follow the exact
            // derivation the serving tier's Tenant::new uses, so a
            // registry built from artifacts prices demand identically.
            let mode = if config.uses_matmul(layer, 1) {
                BceMode::MatMul
            } else {
                BceMode::Conv
            };
            r[format::R_MODE_TAG] = match mode {
                BceMode::MatMul => 1,
                BceMode::Conv => 0,
            };
            let (subarrays, replicas) = match mapper.map_layer(layer, mode, precision) {
                Ok(mapping) => (mapping.subarrays_per_replica, mapping.replicas),
                Err(_) => (geometry.total_subarrays(), 1),
            };
            format::write_u32(r, format::R_SUBARRAYS, subarrays as u32);
            format::write_u32(r, format::R_REPLICAS, replicas as u32);

            let len = layer.weight_bytes(precision.bits());
            format::write_u64(r, format::R_WEIGHT_OFF, weight_cursor);
            format::write_u64(r, format::R_WEIGHT_LEN, len);
            if spec.payload == WeightPayload::Inline {
                weights.extend_from_slice(&format::synth_weight_bytes(spec.seed, i, len as usize));
            }
            weight_cursor += len;

            let scale = format::synth_scale(spec.seed, i, precision.bits() as u8);
            format::write_u64(r, format::R_SCALE, scale.to_bits());
        } else {
            format::write_u64(r, format::R_WEIGHT_OFF, format::NO_WEIGHTS);
            format::write_u64(r, format::R_SCALE, 1.0f64.to_bits());
        }
    }

    // LUT section: the multiply ROM always, the division table when any
    // operator divides, one PWL table per distinct non-linearity.
    let mut segments: Vec<(LutKind, u8, Vec<u8>)> = Vec::new();
    segments.push((
        LutKind::Multiply,
        255,
        LutImage::from_mult_table(&MultLut::new()).bytes().to_vec(),
    ));
    if div_needed {
        let div = DivLut::new(8).expect("m = 8 is the paper's division table");
        let chunks = div.storage_bytes().div_ceil(64);
        for segment in 0..chunks {
            let image = LutImage::from_div_table(&div, segment, 64).expect("segment in range");
            segments.push((LutKind::Divide, 255, image.bytes().to_vec()));
        }
    }
    act_tags.sort_unstable();
    for tag in act_tags {
        let image = LutImage::from_pwl_table(&pwl_table(tag));
        segments.push((LutKind::Activation, tag, image.bytes().to_vec()));
    }

    let mut luts = vec![0u8; 8];
    format::write_u32(&mut luts, 0, segments.len() as u32);
    for (kind, act, bytes) in &segments {
        let mut entry = vec![0u8; 8];
        entry[0] = match kind {
            LutKind::Multiply => 0,
            LutKind::Divide => 1,
            LutKind::Activation => 2,
        };
        entry[1] = *act;
        format::write_u32(&mut entry, 4, bytes.len() as u32);
        luts.extend_from_slice(&entry);
        luts.extend_from_slice(bytes);
        luts.resize(luts.len() + (format::pad8(bytes.len()) - bytes.len()), 0);
    }

    // Assemble: header | names | layer table | weights | luts | footer.
    let names_off = format::HEADER_LEN as u64;
    let layers_off = names_off + names.len() as u64;
    let weights_off = layers_off + records.len() as u64;
    let luts_off = weights_off + weights.len() as u64;
    let total_len = luts_off + luts.len() as u64 + format::FOOTER_LEN as u64;

    let mut out = Vec::with_capacity(total_len as usize);
    let mut header = vec![0u8; format::HEADER_LEN];
    header[format::H_MAGIC..format::H_MAGIC + 4].copy_from_slice(&format::MAGIC);
    format::write_u16(&mut header, format::H_VERSION, format::FORMAT_VERSION);
    let flags = match spec.payload {
        WeightPayload::Inline => format::FLAG_INLINE_WEIGHTS,
        WeightPayload::Seeded => 0,
    };
    format::write_u16(&mut header, format::H_FLAGS, flags);
    format::write_u64(&mut header, format::H_MODEL_VERSION, spec.model_version);
    format::write_u64(&mut header, format::H_WEIGHT_SEED, spec.seed);
    format::write_u32(&mut header, format::H_LAYER_COUNT, layers.len() as u32);
    format::write_u32(
        &mut header,
        format::H_POLICY_TAG,
        policy_to_tag(&spec.precision),
    );
    format::write_u64(&mut header, format::H_NAMES_OFF, names_off);
    format::write_u64(&mut header, format::H_NAMES_LEN, names.len() as u64);
    format::write_u64(&mut header, format::H_LAYERS_OFF, layers_off);
    format::write_u64(&mut header, format::H_WEIGHTS_OFF, weights_off);
    format::write_u64(&mut header, format::H_WEIGHTS_LEN, weights.len() as u64);
    format::write_u64(&mut header, format::H_LUTS_OFF, luts_off);
    format::write_u64(&mut header, format::H_LUTS_LEN, luts.len() as u64);
    format::write_u64(&mut header, format::H_TOTAL_LEN, total_len);
    format::write_u32(&mut header, format::H_NET_NAME_OFF, net_name_off);
    format::write_u32(&mut header, format::H_NET_NAME_LEN, net_name_len);

    out.extend_from_slice(&header);
    out.extend_from_slice(&names);
    out.extend_from_slice(&records);
    out.extend_from_slice(&weights);
    out.extend_from_slice(&luts);
    let checksum = format::xxh64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Serializes a catalog workload (by [`NetworkKind`]) into an artifact.
pub fn encode_kind(kind: NetworkKind, config: &BfreeConfig, spec: &ArtifactSpec) -> Vec<u8> {
    encode_network(&networks::build(kind), config, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ModelArtifact;

    fn config() -> BfreeConfig {
        BfreeConfig::paper_default()
    }

    #[test]
    fn lstm_round_trips_with_inline_weights() {
        let net = networks::build(NetworkKind::LstmTimit);
        let spec = ArtifactSpec {
            payload: WeightPayload::Inline,
            ..ArtifactSpec::default()
        };
        let bytes = encode_network(&net, &config(), &spec);
        let art = ModelArtifact::parse(&bytes).unwrap();
        assert_eq!(art.network_name(), net.name());
        assert_eq!(art.layer_count(), net.layers().len());
        assert!(art.inline_weights());
        assert_eq!(art.model_version(), 1);
        for (view, layer) in art.layers().zip(net.layers()) {
            assert_eq!(view.name(), layer.name());
            assert_eq!(view.params(), layer.params());
            assert_eq!(view.macs(), layer.macs());
            assert_eq!(view.is_weight_layer(), layer.is_weight_layer());
            if layer.is_weight_layer() {
                assert_eq!(view.weight_len(), layer.weight_bytes(8));
                assert_eq!(view.weights().unwrap().len(), view.weight_len() as usize);
            } else {
                assert!(view.weights().is_none());
            }
        }
    }

    #[test]
    fn seeded_and_inline_payloads_describe_identical_weights() {
        let net = networks::build(NetworkKind::LstmTimit);
        let inline = encode_network(
            &net,
            &config(),
            &ArtifactSpec {
                payload: WeightPayload::Inline,
                ..ArtifactSpec::default()
            },
        );
        let seeded = encode_network(&net, &config(), &ArtifactSpec::default());
        assert!(seeded.len() < inline.len());
        let a = ModelArtifact::parse(&inline).unwrap();
        let b = ModelArtifact::parse(&seeded).unwrap();
        for (x, y) in a.layers().zip(b.layers()) {
            assert_eq!(x.materialize_weights(), y.materialize_weights());
            assert_eq!(x.scale(), y.scale());
            assert_eq!(x.subarrays_per_replica(), y.subarrays_per_replica());
        }
    }

    #[test]
    fn every_catalog_workload_encodes_and_parses() {
        let config = config();
        for entry in networks::CATALOG.iter() {
            let bytes = encode_kind(entry.kind, &config, &ArtifactSpec::default());
            let art = ModelArtifact::parse(&bytes).unwrap();
            assert!(art.layer_count() > 0, "{}", entry.kind);
            assert!(art.total_weight_bytes() > 0, "{}", entry.kind);
            // Every artifact carries the multiply ROM as segment 0.
            let first = art.lut_segments().next().unwrap();
            assert_eq!(first.kind(), LutKind::Multiply);
            assert_eq!(first.bytes().len(), 49);
            // Seeded artifacts stay small even for 324M-param BERT-large.
            assert!(
                bytes.len() < 64 * 1024,
                "{}: {} bytes",
                entry.kind,
                bytes.len()
            );
        }
    }

    #[test]
    fn bert_carries_exp_div_and_tanh_tables() {
        let bytes = encode_kind(NetworkKind::BertBase, &config(), &ArtifactSpec::default());
        let art = ModelArtifact::parse(&bytes).unwrap();
        let kinds: Vec<_> = art
            .lut_segments()
            .map(|s| (s.kind(), s.act_tag()))
            .collect();
        assert!(kinds.contains(&(LutKind::Divide, 255)));
        assert!(kinds.contains(&(LutKind::Activation, 0)), "exp for softmax");
        assert!(kinds.contains(&(LutKind::Activation, 2)), "tanh for gelu");
        // Division table: 512 bytes over 64-byte subarray chunks.
        let div_bytes: usize = art
            .lut_segments()
            .filter(|s| s.kind() == LutKind::Divide)
            .map(|s| s.bytes().len())
            .sum();
        assert_eq!(div_bytes, 512);
    }

    #[test]
    fn mixed_policy_round_trips_through_per_layer_bits() {
        let net = networks::build(NetworkKind::Vgg16);
        let spec = ArtifactSpec {
            precision: PrecisionPolicy::MixedFourEight {
                keep_int8: vec!["conv3_2".to_string()],
            },
            ..ArtifactSpec::default()
        };
        let bytes = encode_network(&net, &config(), &spec);
        let art = ModelArtifact::parse(&bytes).unwrap();
        assert_eq!(art.precision_policy(), spec.precision);
    }

    #[test]
    fn mapping_metadata_matches_the_mapper() {
        let net = networks::build(NetworkKind::LstmTimit);
        let config = config();
        let bytes = encode_network(&net, &config, &ArtifactSpec::default());
        let art = ModelArtifact::parse(&bytes).unwrap();
        let mapper = Mapper::new(config.geometry.clone());
        for (view, layer) in art.layers().zip(net.layers()) {
            if !layer.is_weight_layer() {
                continue;
            }
            let mode = if view.is_matmul() {
                BceMode::MatMul
            } else {
                BceMode::Conv
            };
            let mapping = mapper.map_layer(layer, mode, view.precision()).unwrap();
            assert_eq!(
                view.subarrays_per_replica() as usize,
                mapping.subarrays_per_replica
            );
            assert_eq!(view.replicas() as usize, mapping.replicas);
        }
    }
}
