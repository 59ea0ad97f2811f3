//! Known-answer tests against published vectors: AES from FIPS-197's
//! appendices, HMAC-SHA1 from RFC 2202, PBKDF2-HMAC-SHA1 from
//! RFC 6070, CRC-32 check values, and the Michael MIC chain from the
//! 802.11i annex. These pin the primitives to the real algorithms, not
//! just to themselves.

use wn_crypto::hmac::hmac_sha1;
use wn_crypto::michael::michael;
use wn_crypto::pbkdf2::pbkdf2_hmac_sha1;
use wn_crypto::{crc32, Aes, Rc4, Sha1};

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2));
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn aes128_fips197_appendix_b() {
    let aes = Aes::new(&unhex("2b7e151628aed2a6abf7158809cf4f3c"));
    let mut block = [0u8; 16];
    block.copy_from_slice(&unhex("3243f6a8885a308d313198a2e0370734"));
    let ct = aes.encrypt(&block);
    assert_eq!(hex(&ct), "3925841d02dc09fbdc118597196a0b32");
    let mut back = ct;
    aes.decrypt_block(&mut back);
    assert_eq!(back, block);
}

#[test]
fn aes_fips197_appendix_c_all_key_sizes() {
    let pt = unhex("00112233445566778899aabbccddeeff");
    let cases = [
        (
            "000102030405060708090a0b0c0d0e0f",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
        (
            "000102030405060708090a0b0c0d0e0f1011121314151617",
            "dda97ca4864cdfe06eaf70a0ec0d7191",
        ),
        (
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "8ea2b7ca516745bfeafc49904b496089",
        ),
    ];
    for (key, want) in cases {
        let aes = Aes::new(&unhex(key));
        let mut block = [0u8; 16];
        block.copy_from_slice(&pt);
        aes.encrypt_block(&mut block);
        assert_eq!(hex(&block), want, "key {key}");
        aes.decrypt_block(&mut block);
        assert_eq!(block.as_slice(), pt.as_slice(), "key {key}");
    }
}

#[test]
fn hmac_sha1_rfc2202_all_cases() {
    let cases: [(Vec<u8>, Vec<u8>, &str); 7] = [
        (
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b617318655057264e28bc0b6fb378c8ef146be00",
        ),
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
        ),
        (
            vec![0xaa; 20],
            vec![0xdd; 50],
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
        ),
        (
            unhex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
            vec![0xcd; 50],
            "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
        ),
        (
            vec![0x0c; 20],
            b"Test With Truncation".to_vec(),
            "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
        ),
        (
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112",
        ),
        (
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data".to_vec(),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
        ),
    ];
    for (i, (key, msg, want)) in cases.iter().enumerate() {
        assert_eq!(hex(&hmac_sha1(key, msg)), *want, "RFC 2202 case {}", i + 1);
    }
}

#[test]
fn pbkdf2_rfc6070_vectors() {
    // Cases 1–3, 5 and 6 of RFC 6070 (case 4 is the 16M-iteration one,
    // skipped for test-suite runtime).
    let cases: [(&[u8], &[u8], u32, &str); 5] = [
        (
            b"password",
            b"salt",
            1,
            "0c60c80f961f0e71f3a9b524af6012062fe037a6",
        ),
        (
            b"password",
            b"salt",
            2,
            "ea6c014dc72d6f8ccd1ed92ace1d41f0d8de8957",
        ),
        (
            b"password",
            b"salt",
            4096,
            "4b007901b765489abead49d926f721d065a429c1",
        ),
        (
            b"passwordPASSWORDpassword",
            b"saltSALTsaltSALTsaltSALTsaltSALTsalt",
            4096,
            "3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038",
        ),
        (
            b"pass\0word",
            b"sa\0lt",
            4096,
            "56fa6aa75548099dcc37d7f03425e0c3",
        ),
    ];
    for (pw, salt, iters, want) in cases {
        let dk = pbkdf2_hmac_sha1(pw, salt, iters, want.len() / 2);
        assert_eq!(hex(&dk), want, "pw {:?} iters {iters}", pw);
    }
}

#[test]
fn crc32_check_values() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"a"), 0xE8B7_BE43);
}

#[test]
fn michael_mic_test_chain() {
    // The 802.11i Michael annex chains each case's MIC into the next
    // case's key: key_0 = 0, key_{n+1} = michael(key_n, msg_n).
    let msgs: [&[u8]; 6] = [b"", b"M", b"Mi", b"Mic", b"Mich", b"Michael"];
    let want = [
        "82925c1ca1d130b8",
        "434721ca40639b3f",
        "e8f9becae97e5d29",
        "90038fc6cf13c1db",
        "d55e100510128986",
        "0a942b124ecaa546",
    ];
    let mut key = [0u8; 8];
    for (msg, want) in msgs.iter().zip(want) {
        let mic = michael(&key, msg);
        assert_eq!(hex(&mic), want, "msg {:?}", msg);
        key = mic;
    }
}

#[test]
fn rc4_and_sha1_spot_checks() {
    assert_eq!(
        hex(&Rc4::cipher(b"Key", b"Plaintext")),
        "bbf316e8d940af0ad3"
    );
    assert_eq!(
        hex(&Sha1::digest(b"abc")),
        "a9993e364706816aba3e25717850c26c9cd0d89d"
    );
}
