//! Logical element types and their byte codecs.
//!
//! Tensors always hold `f32` values in memory; the [`DType`] tag records the
//! precision the tensor *represents*. Serialization writes the native bit
//! pattern for the tag (2 bytes for `F16`/`BF16`, 4 for `F32`), so a
//! checkpoint of a bf16 model copy is genuinely half the size of its fp32
//! master — matching the storage behaviour of mixed-precision training that
//! §3.1 of the paper builds on.

use std::mem::MaybeUninit;

use half::{bf16, f16};
use serde::{Deserialize, Serialize};

/// Logical element type of a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 half precision.
    F16,
    /// bfloat16 (truncated single precision).
    BF16,
}

impl DType {
    /// Size in bytes of one serialized element.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 | DType::BF16 => 2,
        }
    }

    /// Round an `f32` value to the nearest value representable in this type.
    pub fn quantize(self, v: f32) -> f32 {
        match self {
            DType::F32 => v,
            DType::F16 => f16::from_f32(v).to_f32(),
            DType::BF16 => bf16::from_f32(v).to_f32(),
        }
    }

    /// Serialize a slice of (already quantized) values, appending to `out`.
    /// `out` grows once to its final size and each element is stored into
    /// its place, so the loop has no per-element capacity check.
    pub fn encode(self, values: &[f32], out: &mut Vec<u8>) {
        let size = self.size_bytes();
        let start = out.len();
        out.resize(start + values.len() * size, 0);
        let slots = out[start..].chunks_exact_mut(size).zip(values);
        match self {
            DType::F32 => slots.for_each(|(dst, v)| dst.copy_from_slice(&v.to_le_bytes())),
            DType::F16 => {
                slots.for_each(|(dst, v)| dst.copy_from_slice(&f16::from_f32(*v).to_le_bytes()))
            }
            DType::BF16 => {
                slots.for_each(|(dst, v)| dst.copy_from_slice(&bf16::from_f32(*v).to_le_bytes()))
            }
        }
    }

    /// Deserialize `count` elements from `bytes` into a fresh buffer
    /// ([`DType::decode_into`] over its spare capacity).
    ///
    /// Returns `None` if `bytes` is shorter than `count * size_bytes`.
    pub fn decode(self, bytes: &[u8], count: usize) -> Option<Vec<f32>> {
        let need = count * self.size_bytes();
        if bytes.len() < need {
            return None;
        }
        let mut out = Vec::with_capacity(count);
        self.decode_into(&bytes[..need], &mut out.spare_capacity_mut()[..count]);
        // SAFETY: `decode_into` wrote every one of the `count` slots it was
        // given, which are the first `count` of the spare capacity.
        unsafe { out.set_len(count) };
        Some(out)
    }

    /// Decode `bytes` — little-endian, in this dtype — into `out`, one
    /// value per slot, writing every slot once: `out` may be memory nothing
    /// has initialised. A little-endian fp32 payload is copied as it lies.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly `out.len()` elements long.
    pub fn decode_into(self, bytes: &[u8], out: &mut [MaybeUninit<f32>]) {
        let size = self.size_bytes();
        assert_eq!(
            bytes.len(),
            out.len() * size,
            "{self} decode: length mismatch"
        );
        let slots = out.iter_mut().zip(bytes.chunks_exact(size));
        match self {
            DType::F32 if cfg!(target_endian = "little") => {
                // SAFETY: `MaybeUninit<u8>` has no validity invariant and
                // alignment 1, and the view covers exactly `out`'s bytes
                // (`f32` has no padding) for as long as it borrows `out`.
                let view = unsafe {
                    std::slice::from_raw_parts_mut(
                        out.as_mut_ptr().cast::<MaybeUninit<u8>>(),
                        bytes.len(),
                    )
                };
                view.write_copy_of_slice(bytes);
            }
            DType::F32 => slots.for_each(|(o, c)| {
                o.write(f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
            }),
            DType::F16 => slots.for_each(|(o, c)| {
                o.write(f16::from_le_bytes([c[0], c[1]]).to_f32());
            }),
            DType::BF16 => slots.for_each(|(o, c)| {
                o.write(bf16::from_le_bytes([c[0], c[1]]).to_f32());
            }),
        }
    }

    /// Stable on-disk identifier.
    pub fn tag(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::F16 => 1,
            DType::BF16 => 2,
        }
    }

    /// Inverse of [`DType::tag`].
    pub fn from_tag(tag: u8) -> Option<DType> {
        match tag {
            0 => Some(DType::F32),
            1 => Some(DType::F16),
            2 => Some(DType::BF16),
            _ => None,
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DType::F32 => write!(f, "fp32"),
            DType::F16 => write!(f, "fp16"),
            DType::BF16 => write!(f, "bf16"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_f32_is_identity() {
        for v in [0.0f32, -1.5, 3.25e7, f32::MIN_POSITIVE] {
            assert_eq!(DType::F32.quantize(v), v);
        }
    }

    #[test]
    fn quantize_bf16_truncates_mantissa() {
        let v = 1.0f32 + f32::EPSILON;
        let q = DType::BF16.quantize(v);
        assert_eq!(q, 1.0, "bf16 has 8 mantissa bits, eps is dropped");
    }

    #[test]
    fn quantize_f16_saturates_range() {
        let q = DType::F16.quantize(1e6);
        assert!(q.is_infinite(), "1e6 overflows fp16 to inf, got {q}");
    }

    #[test]
    fn encode_decode_roundtrip_f32() {
        let vals = vec![0.0f32, 1.5, -2.25, 1e-30, f32::MAX];
        let mut buf = Vec::new();
        DType::F32.encode(&vals, &mut buf);
        assert_eq!(buf.len(), vals.len() * 4);
        let back = DType::F32.decode(&buf, vals.len()).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn encode_decode_roundtrip_half_types() {
        for dt in [DType::F16, DType::BF16] {
            let vals: Vec<f32> = [0.0f32, 1.5, -2.25, 100.0]
                .iter()
                .map(|v| dt.quantize(*v))
                .collect();
            let mut buf = Vec::new();
            dt.encode(&vals, &mut buf);
            assert_eq!(buf.len(), vals.len() * 2);
            let back = dt.decode(&buf, vals.len()).unwrap();
            assert_eq!(back, vals, "{dt} roundtrip");
        }
    }

    /// The pre-sized encoder writes, bit for bit, what one
    /// `extend_from_slice` per element wrote — specials included, appended
    /// after what `out` already held — and decodes back to the same bits.
    #[test]
    fn presized_encode_matches_per_element_reference() {
        let mut vals: Vec<f32> = (0..70_000u32)
            .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
            .collect();
        vals.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-40]);
        for dt in [DType::F32, DType::F16, DType::BF16] {
            let mut reference = vec![0xAB];
            for v in &vals {
                match dt {
                    DType::F32 => reference.extend_from_slice(&v.to_le_bytes()),
                    DType::F16 => reference.extend_from_slice(&f16::from_f32(*v).to_le_bytes()),
                    DType::BF16 => reference.extend_from_slice(&bf16::from_f32(*v).to_le_bytes()),
                }
            }
            let mut buf = vec![0xAB];
            dt.encode(&vals, &mut buf);
            assert_eq!(buf, reference, "{dt}");
            let back = dt.decode(&buf[1..], vals.len()).unwrap();
            for (b, v) in back.iter().zip(&vals) {
                assert_eq!(b.to_bits(), dt.quantize(*v).to_bits(), "{dt} {v}");
            }
        }
    }

    #[test]
    fn decode_short_buffer_is_none() {
        assert!(DType::F32.decode(&[0u8; 7], 2).is_none());
        assert!(DType::BF16.decode(&[0u8; 3], 2).is_none());
    }

    #[test]
    fn tag_roundtrip() {
        for dt in [DType::F32, DType::F16, DType::BF16] {
            assert_eq!(DType::from_tag(dt.tag()), Some(dt));
        }
        assert_eq!(DType::from_tag(9), None);
    }
}
