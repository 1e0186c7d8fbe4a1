//! # bfree-model — versioned, checksummed model artifacts
//!
//! The binary exchange format between the offline world (quantize a
//! network, derive its cache mapping, bake its LUT images) and the
//! serving tier (bind tenants to model versions, hot-swap them): a
//! single buffer holding a fixed header, fixed-size per-layer records
//! (quantization scale and zero point, precision and mode tags, mapping
//! metadata), the LUT segment table and — inline or seed-regenerated —
//! the quantized weight bytes, closed by an XXH64 footer checksum.
//!
//! Loading is zero-copy: [`ModelArtifact::parse`] validates the buffer
//! once and all accessors are typed views into it. Weight bytes are
//! handed out as `&[i8]` slices of the original buffer; multi-byte
//! fields are read through alignment-safe copies, so buffers at any
//! alignment — memory-mapped, odd-offset, network-received — load
//! identically.
//!
//! ```
//! use bfree_model::{encode_kind, ArtifactSpec, ModelArtifact};
//! use pim_nn::request::NetworkKind;
//!
//! let config = bfree::BfreeConfig::paper_default();
//! let bytes = encode_kind(NetworkKind::LstmTimit, &config, &ArtifactSpec::default());
//! let artifact = ModelArtifact::parse(&bytes).unwrap();
//! assert_eq!(artifact.network_name(), "LSTM");
//! assert_eq!(artifact.layer_count(), artifact.layers().count());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod error;
pub mod format;
pub mod writer;

pub use artifact::{
    LayerView, LutSegmentView, LutSegments, ModelArtifact, OwnedArtifact, OP_NAMES,
};
pub use error::ModelError;
pub use format::{policy_tag, FORMAT_VERSION, MAGIC};
pub use writer::{
    encode_kind, encode_network, op_tag, ArtifactSpec, WeightPayload, DEFAULT_WEIGHT_SEED,
};
