//! A from-scratch SHA-256 (FIPS 180-4) implementation.
//!
//! Used for request digests in CLBFT, reply digests in Perpetual, and as the
//! compression function under HMAC. Verified against the standard
//! known-answer test vectors in the unit tests below.
//!
//! Every block this module hashes goes through one entry point,
//! `compress_blocks`, which takes whole 64-byte blocks: [`Sha256::update`]
//! hands it every run of whole blocks in one call, and padding, HMAC
//! midstates and MAC keys reach it through [`Sha256`]. On x86_64 CPUs that
//! report the SHA extensions (with SSSE3 and SSE4.1) it runs a hardware
//! kernel; everywhere else it runs the portable scalar code. The CPU makes
//! the choice at run time, never a setting. Both compute the same function,
//! so every digest is bit-identical on every machine; the unit tests check
//! the two kernels against each other and against the standard vectors.

use std::fmt;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest32(pub [u8; 32]);

impl Digest32 {
    /// The all-zero digest, used as a placeholder for "no digest".
    pub const ZERO: Digest32 = Digest32([0u8; 32]);

    /// The raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Renders the first 8 bytes as lowercase hex (for logs).
    pub fn short_hex(&self) -> String {
        self.0[..8].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest32({}..)", self.short_hex())
    }
}

impl fmt::Display for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for Digest32 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest32 {
    fn from(v: [u8; 32]) -> Self {
        Digest32(v)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use pws_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize().to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// A hasher that has absorbed exactly one 64-byte block, leaving the
    /// chaining state `state` (see [`Sha256::chaining_state`]).
    pub(crate) fn after_one_block(state: [u32; 8]) -> Self {
        Sha256 {
            state,
            buffer: [0u8; 64],
            buffered: 0,
            length_bits: 512,
        }
    }

    /// The chaining state; only meaningful at a block boundary, where it
    /// and the block count fully describe the hasher.
    pub(crate) fn chaining_state(&self) -> [u32; 8] {
        debug_assert_eq!(self.buffered, 0, "chaining state read mid-block");
        self.state
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        let mut rest = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Absorbs a `u64` in big-endian order (convenience for codecs).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_be_bytes());
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest32 {
        // Padding: 0x80, zeros, 8-byte big-endian bit length; a second block
        // when fewer than 9 bytes are free.
        let used = self.buffered;
        self.buffer[used] = 0x80;
        self.buffer[used + 1..].fill(0);
        if used >= 56 {
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&self.length_bits.to_be_bytes());
        compress_blocks(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        Digest32(out)
    }
}

/// Runs the compression function over `blocks`, a whole number of 64-byte
/// blocks, on the SHA extensions when this CPU has them and on
/// [`compress_portable`] otherwise. Both give identical results.
#[allow(unsafe_code)]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "partial block");
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        // SAFETY: `shani::detected` has just confirmed that this CPU
        // supports every target feature `shani::compress_blocks` is compiled
        // with, which is that function's only requirement.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// The FIPS 180-4 compression function in portable scalar code.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions (Intel, "Intel SHA
/// Extensions", 2013): `sha256rnds2` runs two rounds on the state split
/// into ABEF/CDGH halves, and `sha256msg1`/`sha256msg2` extend the message
/// schedule four words at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every feature [`compress_blocks`] needs; std
    /// caches the CPUID probe, so this is a load and a test.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Message words `4i..4i+4` of `block`, big-endian, lane 0 first.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 64], i: usize) -> __m128i {
        let word = |j: usize| {
            let at = 16 * i + 4 * j;
            u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]) as i32
        };
        _mm_set_epi32(word(3), word(2), word(1), word(0))
    }

    /// Schedule words `4i..4i+4` from the sixteen before them.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_sha256msg1_epu32(w0, w1);
        let t = _mm_add_epi32(t, _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Rounds `4i..4i+4` on schedule words `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = |j: usize| K[4 * i + j] as i32;
        let wk = _mm_add_epi32(w, _mm_set_epi32(k(3), k(2), k(1), k(0)));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    /// Same contract as [`super::compress_portable`]; callable only where
    /// [`detected`] holds.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks.as_chunks::<64>().0 {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let [mut w0, mut w1, mut w2, mut w3] = [0, 1, 2, 3].map(|i| load(block, i));
            for (i, &w) in [w0, w1, w2, w3].iter().enumerate() {
                rounds(&mut abef, &mut cdgh, w, i);
            }
            for i in 4..16 {
                let w4 = schedule(w0, w1, w2, w3);
                rounds(&mut abef, &mut cdgh, w4, i);
                (w0, w1, w2, w3) = (w1, w2, w3, w4);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|w| w as u32);
    }
}

/// One-shot SHA-256.
///
/// # Example
///
/// ```
/// let d = pws_crypto::sha256(b"");
/// assert_eq!(d.to_string(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
/// ```
pub fn sha256(data: &[u8]) -> Digest32 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: &Digest32) -> String {
        d.to_string()
    }

    /// The standard vectors through `Sha256` and, padded whole, through
    /// each kernel.
    #[test]
    fn fips_vectors() {
        let vectors: [(&[u8], &str); 4] = [
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
            ),
        ];
        for (msg, want) in vectors {
            assert_eq!(hex(&sha256(msg)), want);
            assert_eq!(hex(&padded_digest(compress_portable, msg)), want);
            if hardware_kernel() {
                assert_eq!(hex(&padded_digest(compress_blocks, msg)), want);
            }
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn boundary_lengths() {
        // 55/56/63/64/65 bytes cross the padding boundaries.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5au8; len];
            let once = sha256(&data);
            let mut inc = Sha256::new();
            for b in &data {
                inc.update(std::slice::from_ref(b));
            }
            assert_eq!(once, inc.finalize(), "len={len}");
        }
    }

    #[test]
    fn digest_display_and_debug() {
        let d = sha256(b"abc");
        assert_eq!(d.to_string().len(), 64);
        assert!(format!("{d:?}").starts_with("Digest32(ba7816bf8f01cfea"));
        assert_eq!(d.short_hex(), "ba7816bf8f01cfea");
        assert_eq!(Digest32::ZERO.as_bytes(), &[0u8; 32]);
    }

    #[test]
    fn update_u64_matches_bytes() {
        let mut a = Sha256::new();
        a.update_u64(0x0102030405060708);
        let mut b = Sha256::new();
        b.update(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.finalize(), b.finalize());
    }

    /// Which kernel [`compress_blocks`] dispatches to on this CPU.
    fn hardware_kernel() -> bool {
        #[cfg(target_arch = "x86_64")]
        return shani::detected();
        #[cfg(not(target_arch = "x86_64"))]
        return false;
    }

    /// A deterministic stream of test bytes (SplitMix64).
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// SHA-256 of `data` by padding it whole and handing every block to
    /// `kernel` in one call: no buffering, independent of [`Sha256`].
    fn padded_digest(kernel: fn(&mut [u32; 8], &[u8]), data: &[u8]) -> Digest32 {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = H0;
        kernel(&mut state, &msg);
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        Digest32(out)
    }

    #[test]
    fn dispatched_kernel_matches_portable() {
        let hw = hardware_kernel();
        println!(
            "sha256 kernel: {}",
            if hw { "x86 SHA extensions" } else { "portable" }
        );
        for blocks in 1..=40usize {
            let seed = blocks as u64;
            let data = bytes(seed, 64 * blocks);
            let mut start = [0u32; 8];
            for (w, b) in start.iter_mut().zip(bytes(!seed, 32).chunks_exact(4)) {
                *w = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
            }
            let mut want = start;
            compress_portable(&mut want, &data);
            // Block by block must equal all at once.
            let mut stepwise = start;
            for block in data.chunks_exact(64) {
                compress_portable(&mut stepwise, block);
            }
            assert_eq!(stepwise, want, "portable, {blocks} blocks");
            if hw {
                let mut got = start;
                compress_blocks(&mut got, &data);
                assert_eq!(got, want, "hardware, {blocks} blocks");
            }
        }
    }

    #[test]
    fn hasher_matches_portable_reference_at_every_split() {
        let data = bytes(180, 300);
        for len in 0..=data.len() {
            let msg = &data[..len];
            let want = padded_digest(compress_portable, msg);
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                assert_eq!(h.finalize(), want, "len {len}, split {split}");
            }
        }
    }

    proptest! {
        #[test]
        fn incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                      split in 0usize..512) {
            let split = split.min(data.len());
            let once = sha256(&data);
            let mut inc = Sha256::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            prop_assert_eq!(once, inc.finalize());
        }

        #[test]
        fn distinct_inputs_distinct_digests(a in proptest::collection::vec(any::<u8>(), 0..64),
                                            b in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assume!(a != b);
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }
}
