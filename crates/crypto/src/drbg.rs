//! Deterministic random byte generation via HMAC-DRBG.
//!
//! A simplified HMAC-DRBG in the style of NIST SP 800-90A: the issuer uses
//! it to mint unique, unpredictable puzzle seeds from a keyed state, and the
//! experiment harness uses it wherever a cryptographically-styled but fully
//! reproducible byte stream is needed.
//!
//! This implementation intentionally omits SP 800-90A's entropy-source
//! bookkeeping (reseed counters against prediction resistance); the
//! workspace uses it as a deterministic expander, not as an OS RNG.

use crate::hmac::HmacSha256;

/// HMAC-DRBG over SHA-256.
///
/// ```
/// use aipow_crypto::drbg::HmacDrbg;
/// let mut a = HmacDrbg::new(b"seed", b"context");
/// let mut b = HmacDrbg::new(b"seed", b"context");
/// assert_eq!(a.generate(16), b.generate(16)); // deterministic
/// ```
#[derive(Clone)]
pub struct HmacDrbg {
    key: [u8; 32],
    value: [u8; 32],
}

impl HmacDrbg {
    /// Instantiates the DRBG from seed material and a personalization string.
    pub fn new(seed: &[u8], personalization: &[u8]) -> Self {
        let mut drbg = HmacDrbg {
            key: [0u8; 32],
            value: [1u8; 32],
        };
        let mut material = Vec::with_capacity(seed.len() + personalization.len());
        material.extend_from_slice(seed);
        material.extend_from_slice(personalization);
        drbg.update(Some(&material));
        drbg
    }

    /// The SP 800-90A `HMAC_DRBG_Update` state transition.
    fn update(&mut self, provided: Option<&[u8]>) {
        let mut m = HmacSha256::new(&self.key);
        m.update(&self.value);
        m.update(&[0x00]);
        if let Some(data) = provided {
            m.update(data);
        }
        self.key = m.finalize().into_bytes();
        self.value = HmacSha256::mac(&self.key, &self.value).into_bytes();

        if let Some(data) = provided {
            let mut m = HmacSha256::new(&self.key);
            m.update(&self.value);
            m.update(&[0x01]);
            m.update(data);
            self.key = m.finalize().into_bytes();
            self.value = HmacSha256::mac(&self.key, &self.value).into_bytes();
        }
    }

    /// Mixes additional entropy or context into the state.
    pub fn reseed(&mut self, data: &[u8]) {
        self.update(Some(data));
    }

    /// Produces `len` pseudorandom bytes and advances the state.
    pub fn generate(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            self.value = HmacSha256::mac(&self.key, &self.value).into_bytes();
            let take = (len - out.len()).min(32);
            out.extend_from_slice(&self.value[..take]);
        }
        self.update(None);
        out
    }

    /// Produces `n` 16-byte seeds, the size used by puzzle challenges,
    /// from a single generate request.
    ///
    /// One HMAC block yields two seeds and the post-request
    /// `HMAC_DRBG_Update` runs once for the whole batch instead of once
    /// per seed, so bulk issuance pays roughly a fifth of the per-seed
    /// hash work of `n` separate one-seed calls. The seeds are distinct
    /// draws of the stream (uniqueness is the same property as
    /// consecutive one-seed draws); the *sequence* differs from `n`
    /// one-seed calls because the state advances once, not `n` times —
    /// callers rely on unpredictability and uniqueness, never on the
    /// sequence itself.
    pub fn generate_seeds16(&mut self, n: usize) -> Vec<[u8; 16]> {
        let bytes = self.generate(16 * n);
        bytes
            .chunks_exact(16)
            .map(|chunk| {
                chunk
                    .try_into()
                    .expect("chunks_exact invariant: every chunk is 16 bytes")
            })
            .collect()
    }
}

impl core::fmt::Debug for HmacDrbg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.write_str("HmacDrbg{..}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_across_instances() {
        let mut a = HmacDrbg::new(b"seed material", b"aipow");
        let mut b = HmacDrbg::new(b"seed material", b"aipow");
        assert_eq!(a.generate(100), b.generate(100));
        assert_eq!(a.generate(7), b.generate(7));
    }

    #[test]
    fn personalization_separates_streams() {
        let mut a = HmacDrbg::new(b"seed", b"ctx-a");
        let mut b = HmacDrbg::new(b"seed", b"ctx-b");
        assert_ne!(a.generate(32), b.generate(32));
    }

    #[test]
    fn sequential_outputs_differ() {
        let mut d = HmacDrbg::new(b"seed", b"");
        let first = d.generate(32);
        let second = d.generate(32);
        assert_ne!(first, second);
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HmacDrbg::new(b"seed", b"");
        let mut b = HmacDrbg::new(b"seed", b"");
        b.reseed(b"extra entropy");
        assert_ne!(a.generate(32), b.generate(32));
    }

    #[test]
    fn request_spanning_blocks() {
        let mut d = HmacDrbg::new(b"seed", b"");
        assert_eq!(d.generate(0).len(), 0);
        assert_eq!(d.generate(31).len(), 31);
        assert_eq!(d.generate(33).len(), 33);
        assert_eq!(d.generate(97).len(), 97);
    }

    #[test]
    fn seeds_are_unique_over_many_draws() {
        let mut d = HmacDrbg::new(b"uniqueness", b"seeds");
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(d.generate_seeds16(1)[0]), "seed collision");
        }
    }

    #[test]
    fn bulk_seeds_are_unique_within_and_across_batches() {
        let mut d = HmacDrbg::new(b"uniqueness", b"bulk");
        let mut seen = HashSet::new();
        for batch_len in [0usize, 1, 2, 3, 32, 128] {
            let seeds = d.generate_seeds16(batch_len);
            assert_eq!(seeds.len(), batch_len);
            for seed in seeds {
                assert!(seen.insert(seed), "seed collision in bulk draw");
            }
        }
        // Interleaving with one-seed draws stays collision-free too.
        for _ in 0..100 {
            assert!(seen.insert(d.generate_seeds16(1)[0]));
        }
    }

    #[test]
    fn bulk_seeds_match_one_generate_request() {
        // A bulk draw is exactly one generate(16n) request, so its bytes
        // are reproducible by an identically-seeded instance.
        let mut a = HmacDrbg::new(b"seed", b"x");
        let mut b = HmacDrbg::new(b"seed", b"x");
        let seeds = a.generate_seeds16(3);
        let raw = b.generate(48);
        for (i, seed) in seeds.iter().enumerate() {
            assert_eq!(&raw[i * 16..(i + 1) * 16], seed);
        }
    }

    #[test]
    fn debug_hides_state() {
        let d = HmacDrbg::new(b"secret", b"");
        assert_eq!(format!("{d:?}"), "HmacDrbg{..}");
    }

    /// A crude sanity check that output bits are balanced — not a randomness
    /// proof, just a regression tripwire against e.g. returning zeros.
    #[test]
    fn output_bit_balance() {
        let mut d = HmacDrbg::new(b"balance", b"");
        let bytes = d.generate(4096);
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        let total = 4096 * 8;
        let ratio = ones as f64 / total as f64;
        assert!((0.47..0.53).contains(&ratio), "bit ratio {ratio}");
    }
}
