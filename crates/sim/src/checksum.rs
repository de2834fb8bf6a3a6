//! Order-sensitive checksums used to verify application state fidelity
//! across checkpoint/restart and across MPI-implementation switches, and
//! the one digest every byte path uses: journal envelopes, delta page
//! digests, CAS page keys, compression-ratio draws and image fingerprints.
//!
//! The algorithm is XXH64 with seed 0: four 64-bit lanes absorb the input
//! in 32-byte stripes (lane `i` takes the `i`-th 8-byte word of every
//! stripe), and the final digest converges the lanes, folds in the total
//! length and the ≤31-byte tail, and avalanches. Digests match the
//! published XXH64 test vectors.
//!
//! Streaming is *segmentation-independent*: any sequence of
//! [`Checksum::update`] calls whose slices concatenate to the same bytes
//! yields the same digest, however the cuts fall (empty slices and cuts
//! inside a stripe included). A partial stripe waits in a tail buffer
//! until the next `update` completes it. That is what lets
//! [`crate::scatter::ScatterBuf::checksum`] stream over arbitrary
//! segment boundaries and still equal [`checksum_bytes`] of the
//! flattened content.

use crate::pod;

const PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME_5: u64 = 0x27d4_eb2f_1656_67c5;

const STRIPE: usize = 32;

/// Streaming XXH64 (seed 0) state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checksum {
    lanes: [u64; 4],
    total_len: u64,
    /// Bytes of a partial stripe (the first `tail_len` are live).
    tail: [u8; STRIPE],
    tail_len: usize,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum {
            lanes: [
                PRIME_1.wrapping_add(PRIME_2),
                PRIME_2,
                0,
                PRIME_1.wrapping_neg(),
            ],
            total_len: 0,
            tail: [0; STRIPE],
            tail_len: 0,
        }
    }
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("an 8-byte slice"))
}

fn read_u32(b: &[u8]) -> u64 {
    u64::from(u32::from_le_bytes(
        b[..4].try_into().expect("a 4-byte slice"),
    ))
}

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

fn absorb_stripes(lanes: &mut [u64; 4], stripes: std::slice::ChunksExact<'_, u8>) {
    let [mut v1, mut v2, mut v3, mut v4] = *lanes;
    for s in stripes {
        v1 = round(v1, read_u64(&s[0..]));
        v2 = round(v2, read_u64(&s[8..]));
        v3 = round(v3, read_u64(&s[16..]));
        v4 = round(v4, read_u64(&s[24..]));
    }
    *lanes = [v1, v2, v3, v4];
}

/// XXH64's tail fold and avalanche over `h`.
fn finish(mut h: u64, tail: &[u8]) -> u64 {
    let mut words = tail.chunks_exact(8);
    for w in words.by_ref() {
        h = (h ^ round(0, read_u64(w)))
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        h = (h ^ read_u32(rest).wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME_3);
    h ^ (h >> 32)
}

impl Checksum {
    /// Fresh checksum state.
    pub fn new() -> Checksum {
        Checksum::default()
    }

    /// Absorb raw bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (STRIPE - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < STRIPE {
                return;
            }
            absorb_stripes(&mut self.lanes, self.tail.chunks_exact(STRIPE));
            self.tail_len = 0;
        }
        let stripes = bytes.chunks_exact(STRIPE);
        let rest = stripes.remainder();
        absorb_stripes(&mut self.lanes, stripes);
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Absorb a `u64` (little-endian).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorb an `f64` by bit pattern (exact, not approximate).
    pub fn update_f64(&mut self, v: f64) {
        self.update_u64(v.to_bits());
    }

    /// Final 64-bit digest (the XXH64 value of everything absorbed).
    pub fn digest(&self) -> u64 {
        self.finalize(self.lanes, 0, PRIME_5)
    }

    /// 128-bit digest: the low half is [`Checksum::digest`]; the high
    /// half is a second finalisation of the same lane state, length and
    /// tail, converging the lanes in reverse order from a different start.
    /// Both halves depend on every input word, so a collision needs both
    /// to collide.
    pub fn digest128(&self) -> u128 {
        let [v1, v2, v3, v4] = self.lanes;
        let hi = self.finalize([v4, v3, v2, v1], PRIME_3, PRIME_4);
        (u128::from(hi) << 64) | u128::from(self.digest())
    }

    /// Converge `lanes` from `start` (inputs shorter than one stripe use
    /// `short` instead), then fold in the length and tail.
    fn finalize(&self, lanes: [u64; 4], start: u64, short: u64) -> u64 {
        let h = if self.total_len >= STRIPE as u64 {
            let h = lanes
                .iter()
                .zip([1, 7, 12, 18])
                .fold(start, |h, (&v, r)| h.wrapping_add(v.rotate_left(r)));
            lanes.iter().fold(h, |h, &v| merge_round(h, v))
        } else {
            short
        };
        finish(h.wrapping_add(self.total_len), &self.tail[..self.tail_len])
    }
}

/// Checksum a byte slice in one call.
pub fn checksum_bytes(bytes: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.update(bytes);
    c.digest()
}

/// Checksum an `f64` slice by bit pattern: one byte-view pass, equal to
/// calling [`Checksum::update_f64`] per value (on little-endian hosts,
/// which [`crate::pod`] assumes).
pub fn checksum_f64s(vals: &[f64]) -> u64 {
    checksum_bytes(pod::slice_bytes(vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;
    use crate::scatter::ScatterBuf;
    use proptest::prelude::*;

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(checksum_bytes(b"abc"), checksum_bytes(b"abc"));
        assert_ne!(checksum_bytes(b"abc"), checksum_bytes(b"abd"));
        assert_ne!(checksum_bytes(b"ab"), checksum_bytes(b"abc"));
        assert_ne!(checksum_bytes(b""), 0);
    }

    #[test]
    fn order_sensitive() {
        let mut a = Checksum::new();
        a.update(b"xy");
        let mut b = Checksum::new();
        b.update(b"yx");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn f64_bit_exact() {
        assert_ne!(checksum_f64s(&[0.0]), checksum_f64s(&[-0.0]));
        assert_eq!(checksum_f64s(&[1.5, 2.5]), checksum_f64s(&[1.5, 2.5]));
    }

    #[test]
    fn f64_slice_view_matches_per_value_updates() {
        for n in [0usize, 1, 3, 4, 5, 9, 64, 101] {
            let vals: Vec<f64> = (0..n).map(|i| i as f64 * -1.25 + 0.5).collect();
            let mut c = Checksum::new();
            for v in &vals {
                c.update_f64(*v);
            }
            assert_eq!(checksum_f64s(&vals), c.digest(), "{n} values");
        }
    }

    #[test]
    fn known_xxh64_vectors() {
        assert_eq!(checksum_bytes(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum_bytes(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    proptest! {
        #[test]
        fn streaming_is_segmentation_independent(
            data in prop::collection::vec(any::<u8>(), 0..301),
            cuts in prop::collection::vec(0usize..301, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut c = Checksum::new();
            let mut scatter = ScatterBuf::new();
            let mut owned = ScatterBuf::new();
            let mut at = 0;
            for (i, &cut) in cuts.iter().chain([&data.len()]).enumerate() {
                // Repeated cuts give empty segments; alternate owned and
                // shared segments like an image rope.
                let seg = &data[at..cut];
                c.update(seg);
                owned.push_owned(seg.to_vec());
                if i % 2 == 0 {
                    scatter.push_owned(seg.to_vec());
                } else {
                    scatter.push_shared(Page::new(seg));
                }
                at = cut;
            }
            let flat = checksum_bytes(&data);
            prop_assert_eq!(c.digest(), flat);
            prop_assert_eq!(scatter.checksum(), flat);
            // With no shared page the content key is the checksum.
            prop_assert_eq!(owned.content_key(), flat);
        }
    }

    #[test]
    fn digest128_low_half_is_digest() {
        for data in [&b""[..], b"abc", &[7u8; 100]] {
            let mut c = Checksum::new();
            c.update(data);
            let k = c.digest128();
            assert_eq!(k as u64, checksum_bytes(data));
            assert_ne!(k as u64, (k >> 64) as u64);
        }
    }
}
