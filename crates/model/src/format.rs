//! The on-disk layout: offsets, tags and the footer checksum.
//!
//! Everything is little-endian and byte-addressed. The header and the
//! per-layer records are fixed-size (`#[repr(C)]`-style layouts spelled
//! out as explicit offsets), so a reader can index any record without a
//! deserialization pass; every multi-byte field is read through
//! `read_u64`-family stack copies, so a buffer at any alignment is safe.
//!
//! ```text
//! offset   size  field
//! header (104 bytes)
//!   0        4   magic "BFRM"
//!   4        2   format version (= 2)
//!   6        2   flags (bit 0: weights inline)
//!   8        8   model version (registry-assigned)
//!   16       8   weight seed (synthetic payload generator)
//!   24       4   layer count
//!   28       4   precision policy tag
//!   32       8   names section offset
//!   40       8   names section length
//!   48       8   layer table offset (layer count x 64-byte records)
//!   56       8   weights section offset
//!   64       8   weights section length
//!   72       8   LUT section offset
//!   80       8   LUT section length
//!   88       8   total artifact length (footer included)
//!   96       4   network name offset (into names section)
//!   100      4   network name length
//! layer record (64 bytes each)
//!   0        4   name offset (into names section)
//!   4        4   name length
//!   8        1   operator tag
//!   9        1   precision bits (4 / 8 / 16)
//!   10       1   mode tag (0 conv, 1 matmul)
//!   11       1   reserved (0)
//!   12       4   quantization zero point (i32)
//!   16       8   parameter count
//!   24       8   multiply count
//!   32       8   weight offset (into weights section; u64::MAX = none)
//!   40       8   weight length (quantized storage bytes)
//!   48       8   quantization scale (f64 bits)
//!   56       4   subarrays per replica (mapping metadata)
//!   60       4   replicas
//! LUT section
//!   0        4   segment count
//!   4        4   reserved (0)
//!   per segment: 1 kind tag, 1 activation tag (255 = none),
//!                2 reserved, 4 length, then the image bytes padded to
//!                an 8-byte boundary
//! footer (8 bytes)
//!   XXH64 (seed 0) checksum of every preceding byte
//! ```

/// The artifact magic.
pub const MAGIC: [u8; 4] = *b"BFRM";
/// The single format version this crate reads and writes. Version 2
/// replaced version 1's FNV-1a footer with XXH64; a version-1 buffer is
/// rejected as unsupported rather than as a checksum mismatch.
pub const FORMAT_VERSION: u16 = 2;
/// Header flag: the weights section carries the quantized bytes inline
/// (clear: the payload is regenerated from the header's weight seed).
pub const FLAG_INLINE_WEIGHTS: u16 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 104;
/// Fixed per-layer record size in bytes.
pub const LAYER_RECORD_LEN: usize = 64;
/// Footer (checksum) size in bytes.
pub const FOOTER_LEN: usize = 8;
/// Sentinel weight offset for layers that carry no weights.
pub const NO_WEIGHTS: u64 = u64::MAX;

// Header field offsets.
pub(crate) const H_MAGIC: usize = 0;
pub(crate) const H_VERSION: usize = 4;
pub(crate) const H_FLAGS: usize = 6;
pub(crate) const H_MODEL_VERSION: usize = 8;
pub(crate) const H_WEIGHT_SEED: usize = 16;
pub(crate) const H_LAYER_COUNT: usize = 24;
pub(crate) const H_POLICY_TAG: usize = 28;
pub(crate) const H_NAMES_OFF: usize = 32;
pub(crate) const H_NAMES_LEN: usize = 40;
pub(crate) const H_LAYERS_OFF: usize = 48;
pub(crate) const H_WEIGHTS_OFF: usize = 56;
pub(crate) const H_WEIGHTS_LEN: usize = 64;
pub(crate) const H_LUTS_OFF: usize = 72;
pub(crate) const H_LUTS_LEN: usize = 80;
pub(crate) const H_TOTAL_LEN: usize = 88;
pub(crate) const H_NET_NAME_OFF: usize = 96;
pub(crate) const H_NET_NAME_LEN: usize = 100;

// Layer record field offsets (relative to the record start).
pub(crate) const R_NAME_OFF: usize = 0;
pub(crate) const R_NAME_LEN: usize = 4;
pub(crate) const R_OP_TAG: usize = 8;
pub(crate) const R_PRECISION_BITS: usize = 9;
pub(crate) const R_MODE_TAG: usize = 10;
pub(crate) const R_ZERO_POINT: usize = 12;
pub(crate) const R_PARAMS: usize = 16;
pub(crate) const R_MACS: usize = 24;
pub(crate) const R_WEIGHT_OFF: usize = 32;
pub(crate) const R_WEIGHT_LEN: usize = 40;
pub(crate) const R_SCALE: usize = 48;
pub(crate) const R_SUBARRAYS: usize = 56;
pub(crate) const R_REPLICAS: usize = 60;

/// Precision-policy tags (header field).
pub mod policy_tag {
    /// Uniform 8-bit.
    pub const UNIFORM_INT8: u32 = 0;
    /// Uniform 4-bit.
    pub const UNIFORM_INT4: u32 = 1;
    /// Uniform 16-bit.
    pub const UNIFORM_INT16: u32 = 2;
    /// The Fig. 14 mixed 4/8-bit policy; the per-layer precision bits
    /// record which layers stayed at 8 bits.
    pub const MIXED_FOUR_EIGHT: u32 = 3;
}

// XXH64 primes (the published constants of the reference definition).
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One XXH64 accumulator step over a little-endian 64-bit word.
fn xxh64_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh64_merge(hash: u64, acc: u64) -> u64 {
    (hash ^ xxh64_round(0, acc))
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

/// XXH64 with seed 0 — a dependency-free integrity hash with a stable,
/// published definition (not a cryptographic signature). Four
/// independent accumulators consume 32-byte stripes, so the hash runs at
/// memory speed instead of one dependent multiply per byte.
pub(crate) fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut hash = if bytes.len() >= 32 {
        let mut acc = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        for stripe in stripes {
            for (i, lane) in acc.iter_mut().enumerate() {
                *lane = xxh64_round(*lane, read_u64(stripe, 8 * i));
            }
        }
        let [a, b, c, d] = acc;
        let hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        acc.iter().fold(hash, |hash, &lane| xxh64_merge(hash, lane))
    } else {
        P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);

    let mut words = tail.chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ xxh64_round(0, read_u64(word, 0)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        hash = (hash ^ (read_u32(rest, 0) as u64).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        hash = (hash ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

// Alignment-safe little-endian field readers: each copies the field
// bytes into a stack array, so a buffer sliced at any offset reads
// correctly with no unaligned-access UB. Callers bounds-check first;
// these only assert.

pub(crate) fn read_u16(buf: &[u8], off: usize) -> u16 {
    let mut b = [0u8; 2];
    b.copy_from_slice(&buf[off..off + 2]);
    u16::from_le_bytes(b)
}

pub(crate) fn read_u32(buf: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[off..off + 4]);
    u32::from_le_bytes(b)
}

pub(crate) fn read_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

pub(crate) fn read_i32(buf: &[u8], off: usize) -> i32 {
    read_u32(buf, off) as i32
}

pub(crate) fn read_f64(buf: &[u8], off: usize) -> f64 {
    f64::from_bits(read_u64(buf, off))
}

pub(crate) fn write_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

pub(crate) fn write_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

pub(crate) fn write_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Rounds `len` up to the next 8-byte boundary.
pub(crate) fn pad8(len: usize) -> usize {
    len.div_ceil(8) * 8
}

/// The deterministic synthetic-weight stream: splitmix64 over a state
/// derived from the artifact's weight seed and the layer index, emitting
/// one byte per step. Writer (inline payloads) and loader (seeded
/// payloads) call the same function, so the two payload modes describe
/// identical weights.
pub fn synth_weight_bytes(seed: u64, layer_index: usize, len: usize) -> Vec<u8> {
    let mut state = seed ^ (layer_index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out.push(z as u8);
    }
    out
}

/// The deterministic per-layer quantization scale for synthetic
/// weights: a seed-and-index-derived absolute maximum in `[0.5, 2.0)`
/// divided by the precision's positive clamp.
pub fn synth_scale(seed: u64, layer_index: usize, bits: u8) -> f64 {
    let mut z = seed
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        .wrapping_add(layer_index as u64);
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    let amax = 0.5 + (z % 1500) as f64 / 1000.0;
    let clamp = ((1u32 << (bits - 1)) - 1) as f64;
    amax / clamp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 (seed 0) values; the sequences exercise every
        // tail branch: bytes only, a 4-byte half word, whole 8-byte
        // words, and the 4-lane stripe loop with each of those tails.
        let seq = |n: usize| (0..n).map(|i| i as u8).collect::<Vec<u8>>();
        assert_eq!(xxh64(b""), 0xef46db3751d8e999);
        assert_eq!(xxh64(b"a"), 0xd24ec4f1a98c6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc2cf5ad770999);
        let vectors: [(usize, u64); 9] = [
            (4, 0xffced8604453cc1e),
            (8, 0x884a173614b81b8d),
            (31, 0xc346d2b59b4d8ee1),
            (32, 0xcbf59c5116ff32b4),
            (33, 0x0c535d1acafb8ead),
            (63, 0xe26aa9e2a95f8e4f),
            (64, 0xf7c67301db6713f0),
            (100, 0x6ac1e58032166597),
            (1000, 0x6ef436b00eba4078),
        ];
        for (n, want) in vectors {
            assert_eq!(xxh64(&seq(n)), want, "seq{n}");
        }
    }

    #[test]
    fn field_readers_are_alignment_safe() {
        // Read the same u64 from an 8-aligned and a deliberately odd
        // offset; both must decode identically.
        let mut buf = vec![0u8; 32];
        write_u64(&mut buf, 0, 0x0123_4567_89ab_cdef);
        buf.copy_within(0..8, 1);
        assert_eq!(read_u64(&buf, 1), 0x0123_4567_89ab_cdef);
        write_u32(&mut buf, 13, 0xdead_beef);
        assert_eq!(read_u32(&buf, 13), 0xdead_beef);
        write_u16(&mut buf, 19, 0xbeef);
        assert_eq!(read_u16(&buf, 19), 0xbeef);
    }

    #[test]
    fn synth_streams_are_deterministic_and_layer_distinct() {
        let a = synth_weight_bytes(7, 0, 64);
        let b = synth_weight_bytes(7, 0, 64);
        let c = synth_weight_bytes(7, 1, 64);
        assert_eq!(a, b);
        assert_ne!(a, c, "layers must draw distinct streams");
        assert_ne!(a, synth_weight_bytes(8, 0, 64));
    }

    #[test]
    fn synth_scale_is_positive_and_shrinks_with_bits() {
        for layer in 0..16 {
            let s8 = synth_scale(42, layer, 8);
            let s4 = synth_scale(42, layer, 4);
            assert!(s8 > 0.0 && s8.is_finite());
            // Same amax over a smaller clamp → int4 scale is larger.
            assert!(s4 > s8);
        }
    }

    #[test]
    fn pad8_rounds_up() {
        assert_eq!(pad8(0), 0);
        assert_eq!(pad8(1), 8);
        assert_eq!(pad8(8), 8);
        assert_eq!(pad8(49), 56);
    }
}
