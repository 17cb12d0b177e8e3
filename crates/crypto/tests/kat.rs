//! Known-answer tests for the crypto substrate.
//!
//! SHA-256 vectors come from FIPS 180-4 (via the NIST examples and the
//! classic `abc` / two-block / million-`a` inputs); HMAC-SHA-256 vectors are
//! RFC 4231 test cases 1–7. These pin the primitives bit-for-bit so future
//! refactors of the hot hashing paths cannot silently change semantics.

use pws_crypto::hmac::{hmac_sha256, HmacSha256};
use pws_crypto::sha256::Sha256;
use pws_crypto::{sha256, Authenticator, KeyTable, Mac, MacKey, Principal};

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex literal");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn hex32(bytes: &[u8; 32]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// --- SHA-256, FIPS 180-4 -------------------------------------------------

#[test]
fn sha256_empty_input() {
    assert_eq!(
        hex32(&sha256(b"").0),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
}

#[test]
fn sha256_abc() {
    assert_eq!(
        hex32(&sha256(b"abc").0),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
}

#[test]
fn sha256_two_block_message() {
    assert_eq!(
        hex32(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").0),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

#[test]
fn sha256_four_block_message() {
    let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
    assert_eq!(
        hex32(&sha256(msg).0),
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    );
}

#[test]
fn sha256_one_million_a() {
    let msg = vec![b'a'; 1_000_000];
    assert_eq!(
        hex32(&sha256(&msg).0),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

#[test]
fn sha256_incremental_matches_vectors_across_split_points() {
    let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    for split in [0, 1, 31, 32, 33, 55, msg.len()] {
        let mut h = Sha256::new();
        h.update(&msg[..split]);
        h.update(&msg[split..]);
        assert_eq!(h.finalize(), sha256(msg), "split at {split}");
    }
}

// --- HMAC-SHA-256, RFC 4231 ----------------------------------------------

struct HmacVector {
    key: Vec<u8>,
    data: Vec<u8>,
    /// Expected tag; test case 5 publishes only the first 128 bits.
    expect_prefix: &'static str,
}

fn rfc4231_vectors() -> Vec<HmacVector> {
    vec![
        // Test case 1
        HmacVector {
            key: vec![0x0b; 20],
            data: b"Hi There".to_vec(),
            expect_prefix: "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        },
        // Test case 2: key shorter than block size
        HmacVector {
            key: b"Jefe".to_vec(),
            data: b"what do ya want for nothing?".to_vec(),
            expect_prefix: "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        },
        // Test case 3: combined key/data longer than block size
        HmacVector {
            key: vec![0xaa; 20],
            data: vec![0xdd; 50],
            expect_prefix: "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        },
        // Test case 4
        HmacVector {
            key: unhex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
            data: vec![0xcd; 50],
            expect_prefix: "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        },
        // Test case 5: truncated output (first 128 bits published)
        HmacVector {
            key: vec![0x0c; 20],
            data: b"Test With Truncation".to_vec(),
            expect_prefix: "a3b6167473100ee06e0c796c2955552b",
        },
        // Test case 6: key larger than block size
        HmacVector {
            key: vec![0xaa; 131],
            data: b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            expect_prefix: "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        },
        // Test case 7: key and data larger than block size
        HmacVector {
            key: vec![0xaa; 131],
            data: b"This is a test using a larger than block-size key and a larger \
                    than block-size data. The key needs to be hashed before being \
                    used by the HMAC algorithm."
                .to_vec(),
            expect_prefix: "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        },
    ]
}

#[test]
fn hmac_sha256_rfc4231_vectors() {
    for (i, v) in rfc4231_vectors().iter().enumerate() {
        let tag = hmac_sha256(&v.key, &v.data);
        assert!(
            hex32(&tag).starts_with(v.expect_prefix),
            "RFC 4231 test case {}: got {}, want prefix {}",
            i + 1,
            hex32(&tag),
            v.expect_prefix
        );
    }
}

#[test]
fn hmac_incremental_matches_rfc4231() {
    for v in rfc4231_vectors() {
        let mut h = HmacSha256::new(&v.key);
        let split = v.data.len() / 2;
        h.update(&v.data[..split]);
        h.update(&v.data[split..]);
        assert_eq!(h.finalize(), hmac_sha256(&v.key, &v.data));
    }
}

#[test]
fn mac_key_midstates_match_reference_hmac() {
    // HMAC zero-pads a short key to the block, so a key of at most 32 bytes
    // and its 32-byte zero extension are the same HMAC key; a key longer
    // than the block is replaced by its SHA-256. Either way a `MacKey` over
    // those 32 bytes reproduces the vector.
    for (i, v) in rfc4231_vectors().iter().enumerate() {
        let mut bytes = [0u8; 32];
        if v.key.len() > 64 {
            bytes = sha256(&v.key).0;
        } else {
            assert!(v.key.len() <= 32, "no RFC 4231 key falls in 33..=64 bytes");
            bytes[..v.key.len()].copy_from_slice(&v.key);
        }
        let tag = MacKey::from_bytes(bytes).compute(&v.data);
        assert_eq!(
            *tag.as_bytes(),
            hmac_sha256(&v.key, &v.data),
            "RFC 4231 test case {}",
            i + 1
        );
    }
    // Every length through 200 bytes: crosses the 55/56-byte padding split
    // and the 64-byte block edge of the inner hash several times.
    let key = MacKey::derive_from_label(3, b"replica-0<->replica-1");
    let msg: Vec<u8> = (0..=200u8).map(|b| b.wrapping_mul(37)).collect();
    for len in 0..=msg.len() {
        assert_eq!(
            *key.compute(&msg[..len]).as_bytes(),
            hmac_sha256(key.as_bytes(), &msg[..len]),
            "message of {len} bytes"
        );
    }
}

// --- MAC / authenticator tamper detection --------------------------------

#[test]
fn mac_detects_any_single_bit_flip_in_message() {
    let key = MacKey::derive_from_label(7, b"driver0<->target3");
    let msg = b"PRE-PREPARE v=2 seq=9 digest=...".to_vec();
    let tag = key.compute(&msg);
    assert!(key.verify(&msg, &tag));
    for byte in 0..msg.len() {
        for bit in 0..8 {
            let mut tampered = msg.clone();
            tampered[byte] ^= 1 << bit;
            assert!(
                !key.verify(&tampered, &tag),
                "flip of byte {byte} bit {bit} went undetected"
            );
        }
    }
}

#[test]
fn mac_detects_tag_tampering_and_wrong_key() {
    let key = MacKey::derive_from_label(7, b"link-a");
    let other = MacKey::derive_from_label(7, b"link-b");
    let msg = b"reply bundle share";
    let tag = key.compute(msg);
    // A tag modified in any byte must not verify.
    let raw = *tag.as_bytes();
    for byte in 0..raw.len() {
        let mut bad = raw;
        bad[byte] ^= 0x80;
        assert!(!key.verify(msg, &Mac::from_bytes(bad)));
    }
    // A tag from a different pairwise key must not verify.
    assert!(!other.verify(msg, &tag));
}

#[test]
fn authenticator_rejects_tampered_message_and_foreign_receiver() {
    let mut keys = KeyTable::new(11);
    let sender = Principal::new(1, 0);
    let receivers: Vec<Principal> = (0..4).map(|i| Principal::new(2, i)).collect();
    let outsider = Principal::new(3, 0);
    let msg = b"agree on seq 17";

    let auth = Authenticator::compute(&mut keys, sender, &receivers, msg);
    for &r in &receivers {
        assert!(auth.verify(&mut keys, sender, r, msg));
        assert!(
            !auth.verify(&mut keys, sender, r, b"agree on seq 18"),
            "receiver {r:?} accepted a tampered message"
        );
    }
    // No entry for a principal outside the receiver set.
    assert!(!auth.verify(&mut keys, sender, outsider, msg));
    // An authenticator computed by a different sender must not verify.
    let forged = Authenticator::compute(&mut keys, outsider, &receivers, msg);
    assert!(!forged.verify(&mut keys, sender, receivers[0], msg));
}
