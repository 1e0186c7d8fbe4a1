//! Zero-copy artifact views.
//!
//! [`ModelArtifact::parse`] validates a byte buffer once — magic,
//! version, section bounds, every record, the footer checksum — and
//! hands out borrowing accessor views: no deserialization pass, no
//! allocation proportional to the model. Weight bytes are viewed in
//! place as `&[i8]` (the crate's single `unsafe` expression; `i8` has
//! size and alignment 1, so any byte slice is a valid view); every
//! multi-byte field goes through the copying little-endian readers in
//! [`crate::format`], so a buffer at any alignment — including a slice
//! starting at an odd address — parses identically and safely.

use bfree::PrecisionPolicy;
use pim_bce::Precision;
use pim_lut::LutKind;

use crate::error::ModelError;
use crate::format::{self, policy_tag};

/// Operator-tag names, indexed by tag (mirrors `pim_nn::LayerOp`).
pub const OP_NAMES: [&str; 11] = [
    "conv2d",
    "linear",
    "pool",
    "global_avg_pool",
    "activation",
    "lstm",
    "gru",
    "attention",
    "feed_forward",
    "layer_norm",
    "add",
];

/// Execution-mode tags (record field).
pub mod mode_tag {
    /// Convolution dataflow.
    pub const CONV: u8 = 0;
    /// Mat-mul dataflow.
    pub const MATMUL: u8 = 1;
}

/// A parsed, validated artifact borrowing its byte buffer.
#[derive(Debug, Clone, Copy)]
pub struct ModelArtifact<'a> {
    bytes: &'a [u8],
}

impl<'a> ModelArtifact<'a> {
    /// Parses and fully validates `bytes` as a model artifact.
    ///
    /// Validation is exhaustive up front so the accessors never fail:
    /// magic, format version, declared length, footer checksum, section
    /// bounds, every layer record (name range and UTF-8, tag ranges,
    /// weight range) and every LUT segment entry.
    ///
    /// # Errors
    ///
    /// A typed [`ModelError`] naming the first malformation found; a
    /// truncated, bit-flipped or wrong-version buffer never panics.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, ModelError> {
        if bytes.len() < format::HEADER_LEN + format::FOOTER_LEN {
            return Err(ModelError::Truncated {
                needed: format::HEADER_LEN + format::FOOTER_LEN,
                actual: bytes.len(),
            });
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&bytes[format::H_MAGIC..format::H_MAGIC + 4]);
        if magic != format::MAGIC {
            return Err(ModelError::BadMagic { found: magic });
        }
        let version = format::read_u16(bytes, format::H_VERSION);
        if version != format::FORMAT_VERSION {
            return Err(ModelError::UnsupportedVersion {
                found: version,
                supported: format::FORMAT_VERSION,
            });
        }
        let total_len = format::read_u64(bytes, format::H_TOTAL_LEN);
        if total_len != bytes.len() as u64 {
            return Err(ModelError::Truncated {
                needed: total_len as usize,
                actual: bytes.len(),
            });
        }
        let body = &bytes[..bytes.len() - format::FOOTER_LEN];
        let stored = format::read_u64(bytes, bytes.len() - format::FOOTER_LEN);
        let computed = format::xxh64(body);
        if stored != computed {
            return Err(ModelError::ChecksumMismatch { stored, computed });
        }

        let artifact = ModelArtifact { bytes };
        artifact.validate_sections()?;
        artifact.validate_layers()?;
        artifact.validate_luts()?;
        Ok(artifact)
    }

    /// One section's `(offset, length)` bounds-checked against the body.
    fn section(&self, field: &'static str, off: u64, len: u64) -> Result<(), ModelError> {
        let body_end = (self.bytes.len() - format::FOOTER_LEN) as u64;
        let end = off.checked_add(len).ok_or(ModelError::BadHeader {
            field,
            reason: "offset + length overflows".to_string(),
        })?;
        if off < format::HEADER_LEN as u64 || end > body_end {
            return Err(ModelError::BadHeader {
                field,
                reason: format!(
                    "range {off}..{end} outside body {}..{body_end}",
                    format::HEADER_LEN
                ),
            });
        }
        Ok(())
    }

    fn validate_sections(&self) -> Result<(), ModelError> {
        let b = self.bytes;
        self.section(
            "names",
            format::read_u64(b, format::H_NAMES_OFF),
            format::read_u64(b, format::H_NAMES_LEN),
        )?;
        let layer_count = format::read_u32(b, format::H_LAYER_COUNT) as u64;
        let layers_len = layer_count
            .checked_mul(format::LAYER_RECORD_LEN as u64)
            .ok_or(ModelError::BadHeader {
                field: "layer_count",
                reason: "layer table size overflows".to_string(),
            })?;
        self.section(
            "layers",
            format::read_u64(b, format::H_LAYERS_OFF),
            layers_len,
        )?;
        self.section(
            "weights",
            format::read_u64(b, format::H_WEIGHTS_OFF),
            format::read_u64(b, format::H_WEIGHTS_LEN),
        )?;
        self.section(
            "luts",
            format::read_u64(b, format::H_LUTS_OFF),
            format::read_u64(b, format::H_LUTS_LEN),
        )?;
        let names_len = format::read_u64(b, format::H_NAMES_LEN);
        let net_off = format::read_u32(b, format::H_NET_NAME_OFF) as u64;
        let net_len = format::read_u32(b, format::H_NET_NAME_LEN) as u64;
        if net_off + net_len > names_len {
            return Err(ModelError::BadHeader {
                field: "network_name",
                reason: format!(
                    "range {net_off}..{} outside names section",
                    net_off + net_len
                ),
            });
        }
        std::str::from_utf8(&self.names()[net_off as usize..(net_off + net_len) as usize])
            .map_err(|_| ModelError::BadHeader {
                field: "network_name",
                reason: "not utf-8".to_string(),
            })?;
        match format::read_u32(b, format::H_POLICY_TAG) {
            policy_tag::UNIFORM_INT8
            | policy_tag::UNIFORM_INT4
            | policy_tag::UNIFORM_INT16
            | policy_tag::MIXED_FOUR_EIGHT => Ok(()),
            other => Err(ModelError::BadHeader {
                field: "policy_tag",
                reason: format!("unknown precision policy tag {other}"),
            }),
        }
    }

    fn validate_layers(&self) -> Result<(), ModelError> {
        let names = self.names();
        let weights_len = format::read_u64(self.bytes, format::H_WEIGHTS_LEN);
        let inline = self.inline_weights();
        for i in 0..self.layer_count() {
            let r = self.record(i);
            let bad = |field: &'static str, reason: String| ModelError::BadRecord {
                layer: i,
                field,
                reason,
            };
            let name_off = format::read_u32(r, format::R_NAME_OFF) as usize;
            let name_len = format::read_u32(r, format::R_NAME_LEN) as usize;
            let name_end = name_off
                .checked_add(name_len)
                .ok_or_else(|| bad("name", "offset + length overflows".to_string()))?;
            if name_end > names.len() {
                return Err(bad(
                    "name",
                    format!("range {name_off}..{name_end} outside names section"),
                ));
            }
            std::str::from_utf8(&names[name_off..name_end])
                .map_err(|_| bad("name", "not utf-8".to_string()))?;
            let op = r[format::R_OP_TAG];
            if op as usize >= OP_NAMES.len() {
                return Err(bad("op_tag", format!("unknown operator tag {op}")));
            }
            match r[format::R_PRECISION_BITS] {
                4 | 8 | 16 => {}
                other => return Err(bad("precision_bits", format!("unsupported width {other}"))),
            }
            if r[format::R_MODE_TAG] > mode_tag::MATMUL {
                return Err(bad(
                    "mode_tag",
                    format!("unknown mode tag {}", r[format::R_MODE_TAG]),
                ));
            }
            let scale = format::read_f64(r, format::R_SCALE);
            if !scale.is_finite() || scale < 0.0 {
                return Err(bad(
                    "scale",
                    format!("non-finite or negative scale {scale}"),
                ));
            }
            let w_off = format::read_u64(r, format::R_WEIGHT_OFF);
            let w_len = format::read_u64(r, format::R_WEIGHT_LEN);
            if w_off == format::NO_WEIGHTS {
                if w_len != 0 {
                    return Err(bad(
                        "weight_len",
                        "weightless layer with non-zero length".to_string(),
                    ));
                }
            } else {
                // Seeded payloads record virtual offsets past the (empty)
                // weights section; only inline payloads must stay inside it.
                let end = w_off
                    .checked_add(w_len)
                    .ok_or_else(|| bad("weights", "offset + length overflows".to_string()))?;
                if inline && end > weights_len {
                    return Err(bad(
                        "weights",
                        format!(
                            "range {w_off}..{end} outside weights section ({weights_len} bytes)"
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    fn validate_luts(&self) -> Result<(), ModelError> {
        let luts = self.luts_section();
        if luts.is_empty() {
            return Ok(());
        }
        if luts.len() < 8 {
            return Err(ModelError::BadLutSegment {
                segment: 0,
                reason: format!("section of {} bytes cannot hold its count", luts.len()),
            });
        }
        let count = format::read_u32(luts, 0) as usize;
        let mut off = 8usize;
        for segment in 0..count {
            let bad = |reason: String| ModelError::BadLutSegment { segment, reason };
            if off + 8 > luts.len() {
                return Err(bad("entry header past section end".to_string()));
            }
            let kind = luts[off];
            if kind > 2 {
                return Err(bad(format!("unknown LUT kind tag {kind}")));
            }
            let len = format::read_u32(luts, off + 4) as usize;
            let end = off
                .checked_add(8)
                .and_then(|v| v.checked_add(format::pad8(len)))
                .ok_or_else(|| bad("entry size overflows".to_string()))?;
            if off + 8 + len > luts.len() || end > luts.len() {
                return Err(bad(format!("image of {len} bytes past section end")));
            }
            off = end;
        }
        Ok(())
    }

    /// The raw bytes this view borrows.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The format version (always [`format::FORMAT_VERSION`] once
    /// parsed).
    pub fn format_version(&self) -> u16 {
        format::read_u16(self.bytes, format::H_VERSION)
    }

    /// The registry-assigned model version.
    pub fn model_version(&self) -> u64 {
        format::read_u64(self.bytes, format::H_MODEL_VERSION)
    }

    /// Whether the weights section carries the quantized bytes inline.
    pub fn inline_weights(&self) -> bool {
        format::read_u16(self.bytes, format::H_FLAGS) & format::FLAG_INLINE_WEIGHTS != 0
    }

    /// The synthetic-weight seed (meaningful for seeded payloads).
    pub fn weight_seed(&self) -> u64 {
        format::read_u64(self.bytes, format::H_WEIGHT_SEED)
    }

    /// Number of layer records.
    pub fn layer_count(&self) -> usize {
        format::read_u32(self.bytes, format::H_LAYER_COUNT) as usize
    }

    /// The network's name.
    pub fn network_name(&self) -> &'a str {
        let off = format::read_u32(self.bytes, format::H_NET_NAME_OFF) as usize;
        let len = format::read_u32(self.bytes, format::H_NET_NAME_LEN) as usize;
        std::str::from_utf8(&self.names()[off..off + len]).expect("validated at parse")
    }

    /// The precision-policy tag (see [`policy_tag`]).
    pub fn policy_tag(&self) -> u32 {
        format::read_u32(self.bytes, format::H_POLICY_TAG)
    }

    /// Reconstructs the [`PrecisionPolicy`] the artifact was written
    /// under. For the mixed 4/8 policy the pinned-layer list is
    /// recovered from the per-layer precision bits (interior weight
    /// layers recorded at 8 bits).
    pub fn precision_policy(&self) -> PrecisionPolicy {
        match self.policy_tag() {
            policy_tag::UNIFORM_INT4 => PrecisionPolicy::Uniform(Precision::Int4),
            policy_tag::UNIFORM_INT16 => PrecisionPolicy::Uniform(Precision::Int16),
            policy_tag::MIXED_FOUR_EIGHT => {
                let weight_layers: Vec<LayerView<'a>> =
                    self.layers().filter(|l| l.is_weight_layer()).collect();
                let keep_int8 = weight_layers
                    .iter()
                    .enumerate()
                    .filter(|(i, l)| {
                        // First/last are 8-bit by construction; only
                        // interior pins need recording.
                        *i != 0 && *i != weight_layers.len() - 1 && l.precision() == Precision::Int8
                    })
                    .map(|(_, l)| l.name().to_string())
                    .collect();
                PrecisionPolicy::MixedFourEight { keep_int8 }
            }
            _ => PrecisionPolicy::Uniform(Precision::Int8),
        }
    }

    /// The stored footer checksum.
    pub fn checksum(&self) -> u64 {
        format::read_u64(self.bytes, self.bytes.len() - format::FOOTER_LEN)
    }

    /// Total quantized weight bytes across all layers (inline or
    /// virtual).
    pub fn total_weight_bytes(&self) -> u64 {
        self.layers().map(|l| l.weight_len()).sum()
    }

    fn names(&self) -> &'a [u8] {
        let off = format::read_u64(self.bytes, format::H_NAMES_OFF) as usize;
        let len = format::read_u64(self.bytes, format::H_NAMES_LEN) as usize;
        &self.bytes[off..off + len]
    }

    fn weights_section(&self) -> &'a [u8] {
        let off = format::read_u64(self.bytes, format::H_WEIGHTS_OFF) as usize;
        let len = format::read_u64(self.bytes, format::H_WEIGHTS_LEN) as usize;
        &self.bytes[off..off + len]
    }

    fn luts_section(&self) -> &'a [u8] {
        let off = format::read_u64(self.bytes, format::H_LUTS_OFF) as usize;
        let len = format::read_u64(self.bytes, format::H_LUTS_LEN) as usize;
        &self.bytes[off..off + len]
    }

    fn record(&self, i: usize) -> &'a [u8] {
        let base = format::read_u64(self.bytes, format::H_LAYERS_OFF) as usize
            + i * format::LAYER_RECORD_LEN;
        &self.bytes[base..base + format::LAYER_RECORD_LEN]
    }

    /// The `i`-th layer record view.
    ///
    /// # Panics
    ///
    /// Panics if `i >= layer_count()`.
    pub fn layer(&self, i: usize) -> LayerView<'a> {
        assert!(i < self.layer_count(), "layer index {i} out of range");
        LayerView {
            record: self.record(i),
            names: self.names(),
            weights: self.weights_section(),
            inline: self.inline_weights(),
            seed: self.weight_seed(),
            index: i,
        }
    }

    /// Iterates over all layer records.
    pub fn layers(&self) -> impl Iterator<Item = LayerView<'a>> + '_ {
        let this = *self;
        (0..self.layer_count()).map(move |i| this.layer(i))
    }

    /// Iterates over the LUT segment table.
    pub fn lut_segments(&self) -> LutSegments<'a> {
        let section = self.luts_section();
        let count = if section.len() >= 8 {
            format::read_u32(section, 0) as usize
        } else {
            0
        };
        LutSegments {
            section,
            off: 8,
            remaining: count,
        }
    }
}

/// One layer record, viewed in place.
#[derive(Debug, Clone, Copy)]
pub struct LayerView<'a> {
    record: &'a [u8],
    names: &'a [u8],
    weights: &'a [u8],
    inline: bool,
    seed: u64,
    index: usize,
}

impl<'a> LayerView<'a> {
    /// The record's index in the layer table.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The layer name.
    pub fn name(&self) -> &'a str {
        let off = format::read_u32(self.record, format::R_NAME_OFF) as usize;
        let len = format::read_u32(self.record, format::R_NAME_LEN) as usize;
        std::str::from_utf8(&self.names[off..off + len]).expect("validated at parse")
    }

    /// The operator tag (index into [`OP_NAMES`]).
    pub fn op_tag(&self) -> u8 {
        self.record[format::R_OP_TAG]
    }

    /// The operator tag's name.
    pub fn op_name(&self) -> &'static str {
        OP_NAMES[self.op_tag() as usize]
    }

    /// The layer's operand precision.
    pub fn precision(&self) -> Precision {
        match self.record[format::R_PRECISION_BITS] {
            4 => Precision::Int4,
            16 => Precision::Int16,
            _ => Precision::Int8,
        }
    }

    /// Whether the layer maps onto the mat-mul dataflow.
    pub fn is_matmul(&self) -> bool {
        self.record[format::R_MODE_TAG] == mode_tag::MATMUL
    }

    /// Quantization zero point.
    pub fn zero_point(&self) -> i32 {
        format::read_i32(self.record, format::R_ZERO_POINT)
    }

    /// Quantization scale.
    pub fn scale(&self) -> f64 {
        format::read_f64(self.record, format::R_SCALE)
    }

    /// Trainable parameter count.
    pub fn params(&self) -> u64 {
        format::read_u64(self.record, format::R_PARAMS)
    }

    /// Multiply count for one inference.
    pub fn macs(&self) -> u64 {
        format::read_u64(self.record, format::R_MACS)
    }

    /// Mapping metadata: subarrays one replica of this layer occupies.
    pub fn subarrays_per_replica(&self) -> u32 {
        format::read_u32(self.record, format::R_SUBARRAYS)
    }

    /// Mapping metadata: weight replicas resident.
    pub fn replicas(&self) -> u32 {
        format::read_u32(self.record, format::R_REPLICAS)
    }

    /// Whether the layer carries weights.
    pub fn is_weight_layer(&self) -> bool {
        format::read_u64(self.record, format::R_WEIGHT_OFF) != format::NO_WEIGHTS
    }

    /// Quantized weight storage bytes (0 for weightless layers).
    pub fn weight_len(&self) -> u64 {
        format::read_u64(self.record, format::R_WEIGHT_LEN)
    }

    /// The quantized weight bytes viewed in place as signed values —
    /// `Some` only for weight layers of inline-payload artifacts. For
    /// sub-byte precisions this is the packed storage image, exactly as
    /// staged into the cache.
    pub fn weights(&self) -> Option<&'a [i8]> {
        if !self.inline || !self.is_weight_layer() {
            return None;
        }
        let off = format::read_u64(self.record, format::R_WEIGHT_OFF) as usize;
        let len = self.weight_len() as usize;
        Some(as_i8(&self.weights[off..off + len]))
    }

    /// The quantized weight bytes as an owned vector: copied out of an
    /// inline payload, or regenerated from the weight seed for a seeded
    /// payload. Both modes yield identical bytes for the same artifact
    /// parameters. `None` for weightless layers.
    pub fn materialize_weights(&self) -> Option<Vec<u8>> {
        if !self.is_weight_layer() {
            return None;
        }
        if self.inline {
            let off = format::read_u64(self.record, format::R_WEIGHT_OFF) as usize;
            let len = self.weight_len() as usize;
            Some(self.weights[off..off + len].to_vec())
        } else {
            Some(format::synth_weight_bytes(
                self.seed,
                self.index,
                self.weight_len() as usize,
            ))
        }
    }
}

/// One LUT segment table entry, viewed in place.
#[derive(Debug, Clone, Copy)]
pub struct LutSegmentView<'a> {
    kind_tag: u8,
    act_tag: u8,
    bytes: &'a [u8],
}

impl<'a> LutSegmentView<'a> {
    /// What the segment's image contains.
    pub fn kind(&self) -> LutKind {
        match self.kind_tag {
            0 => LutKind::Multiply,
            1 => LutKind::Divide,
            _ => LutKind::Activation,
        }
    }

    /// The activation tag (index into the writer's activation order;
    /// 255 for non-activation segments).
    pub fn act_tag(&self) -> u8 {
        self.act_tag
    }

    /// The image bytes, in place.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

/// Iterator over an artifact's LUT segment table.
#[derive(Debug, Clone)]
pub struct LutSegments<'a> {
    section: &'a [u8],
    off: usize,
    remaining: usize,
}

impl<'a> Iterator for LutSegments<'a> {
    type Item = LutSegmentView<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let kind_tag = self.section[self.off];
        let act_tag = self.section[self.off + 1];
        let len = format::read_u32(self.section, self.off + 4) as usize;
        let bytes = &self.section[self.off + 8..self.off + 8 + len];
        self.off += 8 + format::pad8(len);
        Some(LutSegmentView {
            kind_tag,
            act_tag,
            bytes,
        })
    }
}

/// An artifact that owns its bytes (validated once at construction).
#[derive(Debug, Clone)]
pub struct OwnedArtifact {
    bytes: Vec<u8>,
}

impl OwnedArtifact {
    /// Validates and takes ownership of `bytes`.
    ///
    /// # Errors
    ///
    /// Same as [`ModelArtifact::parse`].
    pub fn new(bytes: Vec<u8>) -> Result<Self, ModelError> {
        ModelArtifact::parse(&bytes)?;
        Ok(OwnedArtifact { bytes })
    }

    /// A borrowing view (validation already done, so this cannot fail).
    pub fn artifact(&self) -> ModelArtifact<'_> {
        ModelArtifact { bytes: &self.bytes }
    }

    /// The owned bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Re-runs the full structural and checksum validation over the
    /// owned bytes — the registry's periodic integrity re-check. A bit
    /// flip anywhere in the resident copy (header, layer records,
    /// weight payloads, footer) surfaces here as the same typed error
    /// initial parsing would have raised.
    ///
    /// # Errors
    ///
    /// Same as [`ModelArtifact::parse`].
    pub fn reverify(&self) -> Result<(), ModelError> {
        ModelArtifact::parse(&self.bytes).map(|_| ())
    }

    /// The owned bytes with bit `bit` of byte `byte` flipped — the
    /// fault injector's model of a resident-copy upset, returned as a
    /// fresh buffer so the validated original stays untouched.
    #[must_use]
    pub fn with_flipped_bit(&self, byte: usize, bit: u32) -> Vec<u8> {
        let mut bytes = self.bytes.clone();
        bytes[byte % self.bytes.len()] ^= 1u8 << (bit % 8);
        bytes
    }
}

/// Reinterprets quantized weight storage as signed bytes, in place.
#[allow(unsafe_code)]
fn as_i8(bytes: &[u8]) -> &[i8] {
    // SAFETY: `i8` and `u8` have identical size (1) and alignment (1),
    // and every bit pattern is valid for both, so a byte slice of any
    // alignment is a valid `&[i8]` with the same pointer, length,
    // provenance and lifetime. This is the crate's only unsafe code.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<i8>(), bytes.len()) }
}
