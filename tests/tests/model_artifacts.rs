//! Property tests over the `bfree-model` artifact format: encoding any
//! workload must round-trip bit-identically, and *no* corrupted,
//! truncated, misversioned or misaligned buffer may panic, UB or parse
//! — every rejection is a typed [`ModelError`].

use std::sync::OnceLock;

use bfree::{BfreeConfig, PrecisionPolicy};
use bfree_model::{encode_kind, ArtifactSpec, ModelArtifact, ModelError, WeightPayload};
use pim_bce::Precision;
use pim_nn::request::NetworkKind;
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = NetworkKind> {
    prop_oneof![
        Just(NetworkKind::InceptionV3),
        Just(NetworkKind::Vgg16),
        Just(NetworkKind::LstmTimit),
        Just(NetworkKind::BertBase),
        Just(NetworkKind::BertLarge),
    ]
}

fn policy_strategy() -> impl Strategy<Value = PrecisionPolicy> {
    prop_oneof![
        Just(PrecisionPolicy::Uniform(Precision::Int8)),
        Just(PrecisionPolicy::Uniform(Precision::Int4)),
        Just(PrecisionPolicy::Uniform(Precision::Int16)),
        Just(PrecisionPolicy::mixed()),
    ]
}

/// A small seeded artifact, encoded once: the corruption properties
/// mutate copies of it.
fn lstm_seeded() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        encode_kind(
            NetworkKind::LstmTimit,
            &BfreeConfig::paper_default(),
            &ArtifactSpec::default(),
        )
    })
}

/// An inline-weights artifact, encoded once.
fn lstm_inline() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        encode_kind(
            NetworkKind::LstmTimit,
            &BfreeConfig::paper_default(),
            &ArtifactSpec {
                payload: WeightPayload::Inline,
                ..ArtifactSpec::default()
            },
        )
    })
}

proptest! {
    /// Any (workload, precision, version, seed) encodes to an artifact
    /// that parses, reports the same metadata back, and re-encodes from
    /// the *parsed* header byte-for-byte: nothing is lost in the
    /// round trip.
    #[test]
    fn any_spec_round_trips_bit_identically(
        kind in kind_strategy(),
        precision in policy_strategy(),
        model_version in 1u64..1 << 48,
        seed in any::<u64>(),
    ) {
        let config = BfreeConfig::paper_default();
        let spec = ArtifactSpec {
            model_version,
            precision: precision.clone(),
            payload: WeightPayload::Seeded,
            seed,
        };
        let bytes = encode_kind(kind, &config, &spec);
        let artifact = ModelArtifact::parse(&bytes).expect("fresh encode must parse");
        prop_assert_eq!(artifact.model_version(), model_version);
        prop_assert_eq!(artifact.weight_seed(), seed);
        prop_assert!(artifact.layer_count() > 0);
        prop_assert!(!artifact.inline_weights());
        // Re-encode purely from what the artifact reports.
        let rebuilt = encode_kind(
            kind,
            &config,
            &ArtifactSpec {
                model_version: artifact.model_version(),
                precision: artifact.precision_policy(),
                payload: WeightPayload::Seeded,
                seed: artifact.weight_seed(),
            },
        );
        prop_assert_eq!(&bytes, &rebuilt, "re-encode from parsed metadata drifted");
    }

    /// Inline payloads round-trip too, and every weight layer's bytes
    /// are exactly recoverable from the buffer.
    #[test]
    fn inline_weights_are_recoverable(model_version in 1u64..1 << 32) {
        let bytes = encode_kind(
            NetworkKind::LstmTimit,
            &BfreeConfig::paper_default(),
            &ArtifactSpec {
                model_version,
                payload: WeightPayload::Inline,
                ..ArtifactSpec::default()
            },
        );
        let artifact = ModelArtifact::parse(&bytes).expect("inline encode must parse");
        prop_assert!(artifact.inline_weights());
        for layer in artifact.layers() {
            if layer.is_weight_layer() {
                let weights = layer.weights().expect("inline weight layer has bytes");
                prop_assert_eq!(weights.len() as u64, layer.weight_len());
            } else {
                prop_assert!(layer.weights().is_none());
            }
        }
    }

    /// Truncating an artifact at *any* point is a typed error, never a
    /// panic — including cutting inside the header, a layer record, the
    /// LUT section or the footer.
    #[test]
    fn truncation_at_any_length_is_a_typed_error(cut in any::<usize>()) {
        let bytes = lstm_seeded();
        let cut = cut % bytes.len(); // every prefix, 0..len-1
        prop_assert!(ModelArtifact::parse(&bytes[..cut]).is_err());
        // Appending trailing garbage is rejected too: the header's
        // total length must match the buffer exactly.
        let mut padded = bytes.to_vec();
        padded.push(0);
        prop_assert!(matches!(
            ModelArtifact::parse(&padded),
            Err(ModelError::Truncated { .. })
        ));
    }

    /// Flipping any single bit anywhere in the buffer is rejected: the
    /// XXH64 footer (or an earlier structural check) catches it.
    #[test]
    fn any_single_bit_flip_is_rejected(index in any::<usize>(), bit in 0u32..8) {
        let mut bytes = lstm_seeded().to_vec();
        let index = index % bytes.len();
        bytes[index] ^= 1 << bit;
        prop_assert!(
            ModelArtifact::parse(&bytes).is_err(),
            "bit {bit} of byte {index} flipped silently"
        );
    }

    /// Flipping the same bit of the same word in two different 32-byte
    /// stripes lands both flips in one XXH64 lane — the pattern on which
    /// a naive word-wise hash cancels (two bit-63 flips under a
    /// multiply-by-odd chain) — and is still rejected.
    #[test]
    fn same_lane_double_bit_flip_is_rejected(
        first in any::<usize>(),
        second in any::<usize>(),
        word in 0usize..4,
        bit in 0usize..64,
    ) {
        let mut bytes = lstm_inline().to_vec();
        let stripes = (bytes.len() - 8) / 32; // full stripes before the footer
        let first = first % stripes;
        let second = second % stripes;
        prop_assume!(first != second);
        for stripe in [first, second] {
            bytes[stripe * 32 + word * 8 + bit / 8] ^= 1 << (bit % 8);
        }
        prop_assert!(
            ModelArtifact::parse(&bytes).is_err(),
            "bit {bit} of word {word} flipped in stripes {first} and {second} silently"
        );
    }

    /// Any format version other than the supported one is rejected with
    /// [`ModelError::UnsupportedVersion`] naming both versions.
    #[test]
    fn wrong_format_versions_are_rejected(version in any::<u16>()) {
        prop_assume!(version != bfree_model::FORMAT_VERSION);
        let mut bytes = lstm_seeded().to_vec();
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        match ModelArtifact::parse(&bytes) {
            Err(ModelError::UnsupportedVersion { found, supported }) => {
                prop_assert_eq!(found, version);
                prop_assert_eq!(supported, bfree_model::FORMAT_VERSION);
            }
            other => prop_assert!(false, "expected UnsupportedVersion, got {other:?}"),
        }
    }

    /// Parsing is alignment-independent: the same artifact at any byte
    /// offset inside a larger buffer yields identical metadata and
    /// weights (the zero-copy reader never assumes its input is
    /// aligned).
    #[test]
    fn misaligned_buffers_parse_identically(offset in 1usize..8) {
        let bytes = lstm_inline();
        let mut shifted = vec![0u8; offset];
        shifted.extend_from_slice(bytes);
        let aligned = ModelArtifact::parse(bytes).expect("aligned parse");
        let misaligned =
            ModelArtifact::parse(&shifted[offset..]).expect("misaligned parse must succeed");
        prop_assert_eq!(aligned.checksum(), misaligned.checksum());
        prop_assert_eq!(aligned.layer_count(), misaligned.layer_count());
        for (a, b) in aligned.layers().zip(misaligned.layers()) {
            prop_assert_eq!(a.name(), b.name());
            prop_assert_eq!(a.scale(), b.scale());
            prop_assert_eq!(a.weights(), b.weights());
        }
    }
}

#[test]
fn corrupt_magic_and_checksum_report_their_fields() {
    let mut bytes = lstm_seeded().to_vec();
    bytes[0] = b'X';
    assert!(matches!(
        ModelArtifact::parse(&bytes),
        Err(ModelError::BadMagic { .. })
    ));
    let mut bytes = lstm_seeded().to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    match ModelArtifact::parse(&bytes) {
        Err(ModelError::ChecksumMismatch { stored, computed }) => assert_ne!(stored, computed),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}
