//! HMAC-SHA-256 (RFC 2104), verified against RFC 4231 test vectors.

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// Computes `HMAC-SHA-256(key, msg)`.
///
/// Keys longer than the 64-byte block are hashed first, per RFC 2104.
///
/// # Example
///
/// ```
/// let tag = pws_crypto::hmac::hmac_sha256(b"Jefe", b"what do ya want for nothing?");
/// assert_eq!(tag[0], 0x5b);
/// ```
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let (ipad, opad) = pads(key);
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(inner_digest.as_bytes());
    outer.finalize().0
}

/// The key XORed into the inner and outer pad blocks. Keys longer than the
/// 64-byte block are hashed first, per RFC 2104.
fn pads(key: &[u8]) -> ([u8; BLOCK], [u8; BLOCK]) {
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..32].copy_from_slice(sha256(key).as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    (ipad, opad)
}

/// The SHA-256 chaining states after absorbing a key's inner and outer pad
/// blocks — the part of HMAC that depends on the key alone. Tagging from
/// them skips the two pad compressions [`hmac_sha256`] spends per call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Midstates {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl Midstates {
    /// Absorbs `key`'s pad blocks (two compressions, once per key).
    pub(crate) fn new(key: &[u8]) -> Self {
        let (ipad, opad) = pads(key);
        let absorb = |pad: &[u8; BLOCK]| {
            let mut h = Sha256::new();
            h.update(pad);
            h.chaining_state()
        };
        Midstates {
            inner: absorb(&ipad),
            outer: absorb(&opad),
        }
    }

    /// A hasher positioned just after the inner pad block.
    fn inner(&self) -> Sha256 {
        Sha256::after_one_block(self.inner)
    }

    /// Closes the inner hash and wraps it in the outer one.
    fn finish(&self, inner: Sha256) -> [u8; 32] {
        let mut outer = Sha256::after_one_block(self.outer);
        outer.update(inner.finalize().as_bytes());
        outer.finalize().0
    }

    /// `HMAC-SHA-256(key, msg)` for the key these states were built from.
    pub(crate) fn mac(&self, msg: &[u8]) -> [u8; 32] {
        let mut inner = self.inner();
        inner.update(msg);
        self.finish(inner)
    }
}

/// Incremental HMAC-SHA-256, for MACs over multi-part messages without
/// intermediate copies.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    keyed: Midstates,
}

impl HmacSha256 {
    /// Starts a MAC computation under `key`.
    pub fn new(key: &[u8]) -> Self {
        let keyed = Midstates::new(key);
        HmacSha256 {
            inner: keyed.inner(),
            keyed,
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, msg: &[u8]) {
        self.inner.update(msg);
    }

    /// Finishes and returns the tag.
    pub fn finalize(self) -> [u8; 32] {
        self.keyed.finish(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(t: &[u8; 32]) -> String {
        t.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test cases.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case7_long_key_and_data() {
        let key = [0xaau8; 131];
        let msg: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = hmac_sha256(&key, msg);
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"some key material";
        let mut h = HmacSha256::new(key);
        h.update(b"part one ");
        h.update(b"part two");
        assert_eq!(h.finalize(), hmac_sha256(key, b"part one part two"));
    }

    proptest! {
        #[test]
        fn key_separation(msg in proptest::collection::vec(any::<u8>(), 0..128)) {
            let a = hmac_sha256(b"key-a", &msg);
            let b = hmac_sha256(b"key-b", &msg);
            prop_assert_ne!(a, b);
        }

        #[test]
        fn incremental_equals_oneshot_prop(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            msg in proptest::collection::vec(any::<u8>(), 0..256),
            split in 0usize..256,
        ) {
            let split = split.min(msg.len());
            let mut h = HmacSha256::new(&key);
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            prop_assert_eq!(h.finalize(), hmac_sha256(&key, &msg));
        }
    }
}
