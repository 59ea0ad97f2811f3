//! Property tests for the bit-level frame codec: every valid frame
//! survives `Frame -> bytes -> Frame` unchanged, and malformed bytes
//! come back as errors — never panics, never garbage frames.

use wn_crypto::crc32;
use wn_mac80211::addr::MacAddr;
use wn_mac80211::frame::{Frame, FrameControl, FrameError, SequenceControl, Subtype};
use wn_mac80211::Payload;
use wn_sim::Rng;

const ALL_SUBTYPES: [Subtype; 17] = [
    Subtype::AssocReq,
    Subtype::AssocResp,
    Subtype::ReassocReq,
    Subtype::ReassocResp,
    Subtype::ProbeReq,
    Subtype::ProbeResp,
    Subtype::Beacon,
    Subtype::Atim,
    Subtype::Disassoc,
    Subtype::Auth,
    Subtype::Deauth,
    Subtype::PsPoll,
    Subtype::Rts,
    Subtype::Cts,
    Subtype::Ack,
    Subtype::Data,
    Subtype::NullData,
];

fn random_addr(rng: &mut Rng) -> MacAddr {
    let mut a = [0u8; 6];
    for b in &mut a {
        *b = rng.below(256) as u8;
    }
    MacAddr(a)
}

/// Draws a random frame whose fields are consistent with its subtype —
/// i.e. one the serialiser can represent losslessly on the air.
fn random_valid_frame(rng: &mut Rng) -> Frame {
    let subtype = *rng.choose(&ALL_SUBTYPES);
    let mut fc = FrameControl::new(subtype);
    fc.more_fragments = rng.chance(0.3);
    fc.retry = rng.chance(0.3);
    fc.power_management = rng.chance(0.2);
    fc.more_data = rng.chance(0.2);
    fc.protected = rng.chance(0.2);
    fc.order = rng.chance(0.1);

    let control = matches!(
        subtype,
        Subtype::Rts | Subtype::Cts | Subtype::Ack | Subtype::PsPoll
    );
    if !control {
        fc.to_ds = rng.chance(0.4);
        fc.from_ds = rng.chance(0.4);
    }

    let duration_id = rng.below(0x10000) as u16;
    let addr1 = random_addr(rng);
    match subtype {
        Subtype::Cts | Subtype::Ack => Frame {
            fc,
            duration_id,
            addr1,
            addr2: None,
            addr3: None,
            seq: None,
            addr4: None,
            body: Payload::default(),
        },
        Subtype::Rts | Subtype::PsPoll => Frame {
            fc,
            duration_id,
            addr1,
            addr2: Some(random_addr(rng)),
            addr3: None,
            seq: None,
            addr4: None,
            body: Payload::default(),
        },
        _ => {
            let body_len = rng.below(512) as usize;
            let mut body = vec![0u8; body_len];
            for b in &mut body {
                *b = rng.below(256) as u8;
            }
            Frame {
                fc,
                duration_id,
                addr1,
                addr2: Some(random_addr(rng)),
                addr3: Some(random_addr(rng)),
                seq: Some(SequenceControl {
                    fragment: rng.below(16) as u8,
                    sequence: rng.below(4096) as u16,
                }),
                // The wireless-DS address appears exactly when both DS
                // bits are set.
                addr4: (fc.to_ds && fc.from_ds).then(|| random_addr(rng)),
                body: body.into(),
            }
        }
    }
}

#[test]
fn random_valid_frames_roundtrip_identically() {
    let mut rng = Rng::new(0x5EED_F8A3);
    for i in 0..2_000 {
        let frame = random_valid_frame(&mut rng);
        let bytes = frame.to_bytes();
        assert_eq!(bytes.len(), frame.wire_len(), "iteration {i}");
        let back = Frame::from_bytes(&bytes).unwrap_or_else(|e| {
            panic!("iteration {i}: {e} for {frame:?}");
        });
        assert_eq!(back, frame, "iteration {i}");
    }
}

#[test]
fn truncated_bytes_error_instead_of_panicking() {
    let mut rng = Rng::new(0xDEAD_0001);
    for _ in 0..300 {
        let bytes = random_valid_frame(&mut rng).to_bytes();
        for cut in 0..bytes.len() {
            let err = Frame::from_bytes(&bytes[..cut]).expect_err("truncated frame must fail");
            if cut < 14 {
                assert!(
                    matches!(err, FrameError::TooShort { .. }),
                    "cut {cut}: {err}"
                );
            }
        }
    }
}

#[test]
fn corrupted_bits_are_rejected_by_the_fcs() {
    let mut rng = Rng::new(0xDEAD_0002);
    for _ in 0..300 {
        let bytes = random_valid_frame(&mut rng).to_bytes();
        let mut corrupted = bytes.clone();
        let byte = rng.below(bytes.len() as u64) as usize;
        let bit = rng.below(8) as u8;
        corrupted[byte] ^= 1 << bit;
        assert!(
            matches!(
                Frame::from_bytes(&corrupted),
                Err(FrameError::BadFcs { .. })
            ),
            "flipping byte {byte} bit {bit} went undetected"
        );
    }
}

/// Appends a correct FCS, producing bytes that pass the CRC check and
/// exercise the structural validation behind it.
fn with_fcs(payload: &[u8]) -> Vec<u8> {
    let mut out = payload.to_vec();
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

#[test]
fn structurally_invalid_frames_with_good_fcs_are_rejected() {
    // Protocol version 1.
    let mut fc_v1 = Frame::ack(MacAddr::station(1)).to_bytes();
    fc_v1.truncate(fc_v1.len() - 4);
    fc_v1[0] |= 0b01;
    assert_eq!(
        Frame::from_bytes(&with_fcs(&fc_v1)),
        Err(FrameError::UnsupportedVersion(1))
    );

    // Reserved (type, subtype): control type with subtype 0.
    let mut reserved = Frame::ack(MacAddr::station(1)).to_bytes();
    reserved.truncate(reserved.len() - 4);
    reserved[0] &= 0b0000_1111; // clear the subtype nibble → (1, 0)
    assert_eq!(
        Frame::from_bytes(&with_fcs(&reserved)),
        Err(FrameError::ReservedType { ty: 1, sub: 0 })
    );

    // A data header cut off after addr1 (valid FCS, too few fields).
    let data = Frame::data(
        wn_mac80211::frame::DsBits::Ibss,
        MacAddr::station(1),
        MacAddr::station(2),
        MacAddr::station(3),
        SequenceControl::default(),
        vec![0xAB; 32],
    )
    .to_bytes();
    let short = with_fcs(&data[..12]);
    assert!(matches!(
        Frame::from_bytes(&short),
        Err(FrameError::TooShort { .. })
    ));
}
