//! Deterministic, splittable random number generation.
//!
//! Parameter initialization and data sampling must be identical across any
//! parallel layout: a TP=2 run initializes each shard of a weight matrix on
//! a different rank, yet the assembled matrix must equal the TP=1 one.
//! We achieve this with a counter-based generator: every random value is a
//! pure function of `(stream seed, counter)`, so a rank drawing elements
//! `[k, k+n)` of a parameter gets exactly the values the unsharded run
//! draws at those positions.
//!
//! The core mix is SplitMix64, which passes standard statistical tests and
//! is trivially seekable.

/// A deterministic, seekable random stream.
///
/// Cloning produces an independent cursor over the same stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    seed: u64,
    counter: u64,
}

/// SplitMix64 finalizer: maps a 64-bit counter to a well-mixed 64-bit value.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create a stream from a seed.
    pub fn new(seed: u64) -> DetRng {
        DetRng { seed, counter: 0 }
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// Used to give every named parameter and every data shard its own
    /// stream regardless of the order in which they are consumed.
    pub fn derive(&self, label: &str) -> DetRng {
        let mut h = self.seed ^ 0xA076_1D64_78BD_642F;
        for b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(*b));
        }
        DetRng::new(h)
    }

    /// Derive an independent child stream identified by an integer.
    pub fn derive_u64(&self, label: u64) -> DetRng {
        DetRng::new(splitmix64(
            self.seed ^ splitmix64(label ^ 0x5851_F42D_4C95_7F2D),
        ))
    }

    /// Position of the cursor in the stream.
    pub fn position(&self) -> u64 {
        self.counter
    }

    /// Move the cursor to an absolute position.
    pub fn seek(&mut self, position: u64) {
        self.counter = position;
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let v = splitmix64(self.seed.wrapping_add(splitmix64(self.counter)));
        self.counter += 1;
        v
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Simple multiply-shift; bias is negligible for our bounds (< 2^32)
        // and determinism matters more than perfect uniformity here.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Standard normal sample via Box-Muller on two dedicated counter slots.
    ///
    /// Each call consumes exactly two raw values, so element `i` of a
    /// parameter can be generated independently by seeking to `2 * i`.
    pub fn next_normal(&mut self) -> f32 {
        let u1 = self.next_f64().max(1e-300);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Fill `out` with normal samples for element indices
    /// `[start, start + out.len())` of this stream, scaled by `std`.
    pub fn fill_normal_range(&self, start: u64, std: f32, out: &mut [f32]) {
        let mut rng = self.clone();
        rng.seek(2 * start);
        for v in out.iter_mut() {
            *v = rng.next_normal() * std;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn seek_is_equivalent_to_skipping() {
        let mut a = DetRng::new(7);
        for _ in 0..10 {
            a.next_u64();
        }
        let mut b = DetRng::new(7);
        b.seek(10);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derive_is_independent_of_parent_cursor() {
        let mut parent = DetRng::new(9);
        let child1 = parent.derive("w");
        parent.next_u64();
        let child2 = parent.derive("w");
        assert_eq!(child1, child2, "derivation depends only on seed + label");
    }

    #[test]
    fn derive_distinct_labels_distinct_streams() {
        let parent = DetRng::new(9);
        assert_ne!(parent.derive("a").next_u64(), parent.derive("b").next_u64());
        assert_ne!(
            parent.derive_u64(0).next_u64(),
            parent.derive_u64(1).next_u64()
        );
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn bounded_respects_bound() {
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            assert!(rng.next_bounded(17) < 17);
        }
    }

    #[test]
    fn sharded_normal_fill_matches_full_fill() {
        let stream = DetRng::new(11).derive("weight");
        let mut full = vec![0.0f32; 64];
        stream.fill_normal_range(0, 0.02, &mut full);

        // Generate the same 64 elements as four shards of 16.
        let mut sharded = vec![0.0f32; 64];
        for k in 0..4 {
            stream.fill_normal_range(k as u64 * 16, 0.02, &mut sharded[k * 16..(k + 1) * 16]);
        }
        assert_eq!(full, sharded);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = DetRng::new(5);
        let n = 20_000;
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let v = f64::from(rng.next_normal());
            sum += v;
            sumsq += v * v;
        }
        let mean = sum / f64::from(n);
        let var = sumsq / f64::from(n) - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
