//! Airtime and NAV (Duration field) arithmetic.
//!
//! §4.2: the Duration/ID field "indicates the remaining duration
//! needed to receive the next frame transmission". These helpers compute
//! frame airtimes from PHY rates and the NAV values for the
//! RTS→CTS→DATA→ACK and fragment-burst sequences.

use wn_phy::modulation::{MacTiming, PhyStandard, RateStep};
use wn_sim::SimDuration;

/// Length in bytes of an ACK/CTS control frame on the air.
pub const ACK_LEN: usize = 14;
/// Length in bytes of an RTS control frame on the air.
pub const RTS_LEN: usize = 20;
/// Length in bytes of a compressed BlockAck on the air: 16-byte
/// control header + 2-byte SSN + 8-byte bitmap + FCS.
pub const BLOCK_ACK_LEN: usize = 30;
/// Per-MPDU framing overhead inside an A-MPDU aggregate: the 4-byte
/// subframe delimiter (sequence number + length).
pub const AMPDU_DELIMITER_LEN: usize = 4;

/// Airtime of a frame of `wire_len` bytes at `rate`, including the PHY
/// preamble/PLCP overhead.
pub fn airtime(timing: &MacTiming, rate: RateStep, wire_len: usize) -> SimDuration {
    let payload = SimDuration::for_bits(wire_len as u64 * 8, rate.rate.bps());
    SimDuration::from_nanos((timing.preamble_us * 1_000.0) as u64) + payload
}

/// Airtime of an ACK sent at the standard's base rate.
pub fn ack_airtime(std: PhyStandard) -> SimDuration {
    airtime(&std.mac_timing(), std.base_rate(), ACK_LEN)
}

/// Airtime of a CTS at the base rate (same length as an ACK).
pub fn cts_airtime(std: PhyStandard) -> SimDuration {
    ack_airtime(std)
}

/// Airtime of an RTS at the base rate.
pub fn rts_airtime(std: PhyStandard) -> SimDuration {
    airtime(&std.mac_timing(), std.base_rate(), RTS_LEN)
}

/// SIFS as a [`SimDuration`].
pub fn sifs(std: PhyStandard) -> SimDuration {
    SimDuration::from_nanos((std.mac_timing().sifs_us * 1_000.0) as u64)
}

/// DIFS as a [`SimDuration`].
pub fn difs(std: PhyStandard) -> SimDuration {
    SimDuration::from_nanos((std.mac_timing().difs_us() * 1_000.0) as u64)
}

/// One slot as a [`SimDuration`].
pub fn slot(std: PhyStandard) -> SimDuration {
    SimDuration::from_nanos((std.mac_timing().slot_us * 1_000.0) as u64)
}

/// Clamps a duration to the 15-bit µs range of the Duration field.
fn to_duration_field(d: SimDuration) -> u16 {
    (d.as_micros_f64().ceil() as u64).min(0x7FFF) as u16
}

/// NAV value for a unicast data/management frame: SIFS + ACK, plus the
/// remainder of the fragment burst when more fragments follow.
pub fn data_duration(
    std: PhyStandard,
    more_fragments: bool,
    next_fragment_airtime: Option<SimDuration>,
) -> u16 {
    let mut d = sifs(std) + ack_airtime(std);
    if more_fragments {
        // Cover the next fragment and its ACK too (§4.2 More Fragments).
        d += sifs(std)
            + next_fragment_airtime.unwrap_or(SimDuration::ZERO)
            + sifs(std)
            + ack_airtime(std);
    }
    to_duration_field(d)
}

/// NAV value for an RTS: CTS + DATA + ACK + 3×SIFS.
pub fn rts_duration(std: PhyStandard, data_airtime: SimDuration) -> u16 {
    let d = sifs(std) + cts_airtime(std) + sifs(std) + data_airtime + sifs(std) + ack_airtime(std);
    to_duration_field(d)
}

/// NAV value for a CTS, derived from the RTS it answers:
/// `rts_duration − SIFS − CTS_airtime`.
pub fn cts_duration(std: PhyStandard, rts_duration_us: u16) -> u16 {
    let consumed = (sifs(std) + cts_airtime(std)).as_micros_f64().ceil() as u16;
    rts_duration_us.saturating_sub(consumed)
}

// ----- EDCA (802.11e) arbitration + TXOP arithmetic -----

/// Airtime of a compressed BlockAck at the base rate.
pub fn block_ack_airtime(std: PhyStandard) -> SimDuration {
    airtime(&std.mac_timing(), std.base_rate(), BLOCK_ACK_LEN)
}

/// AIFS for an access category: `SIFS + AIFSN × slot` (802.11e §9.2.10
/// equivalent). AIFSN ≥ 2 for stations; AIFSN = 2 with the legacy slot
/// count reproduces DIFS.
pub fn aifs(std: PhyStandard, aifsn: u8) -> SimDuration {
    sifs(std) + slot(std) * aifsn as u64
}

/// NAV value for a QoS data frame / A-MPDU aggregate: SIFS + BlockAck
/// (the implicit-BAR response this model uses).
pub fn ampdu_duration(std: PhyStandard) -> u16 {
    to_duration_field(sifs(std) + block_ack_airtime(std))
}

/// How many MPDUs of `mpdu_wire_len` bytes (delimiter included) fit in
/// a TXOP of `txop_us` microseconds at `rate`, counting the SIFS +
/// BlockAck response into the budget. Always at least 1 — a TXOP too
/// short for a single MPDU degenerates to one, never zero, so a
/// misconfigured limit cannot wedge a queue. A `txop_us` of 0 means
/// "no TXOP limit" and returns `usize::MAX`.
pub fn txop_mpdu_budget(
    std: PhyStandard,
    rate: RateStep,
    txop_us: u64,
    mpdu_wire_len: usize,
) -> usize {
    if txop_us == 0 {
        return usize::MAX;
    }
    let txop = SimDuration::from_micros(txop_us);
    let response = sifs(std) + block_ack_airtime(std);
    if txop <= response {
        return 1;
    }
    let data_budget = txop - response;
    // First MPDU pays the preamble; the rest ride the same PPDU.
    let timing = std.mac_timing();
    let first = airtime(&timing, rate, mpdu_wire_len);
    if first >= data_budget {
        return 1;
    }
    let per_extra = SimDuration::for_bits(mpdu_wire_len as u64 * 8, rate.rate.bps());
    let remaining = data_budget - first;
    let extra = if per_extra == SimDuration::ZERO {
        0
    } else {
        (remaining.as_nanos() / per_extra.as_nanos().max(1)) as usize
    };
    1 + extra
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_includes_preamble() {
        let std = PhyStandard::Dot11b;
        let t = std.mac_timing();
        let base = std.base_rate();
        // 100 bytes at 1 Mbps = 800 µs, plus 192 µs preamble.
        let a = airtime(&t, base, 100);
        assert!((a.as_micros_f64() - 992.0).abs() < 1.0, "{a}");
    }

    #[test]
    fn ack_airtime_reasonable_for_g() {
        // ACK at 6 Mbps: 14 B = 18.7 µs + 20 µs preamble ≈ 39 µs.
        let a = ack_airtime(PhyStandard::Dot11g);
        assert!((a.as_micros_f64() - 38.7).abs() < 1.0, "{a}");
    }

    #[test]
    fn nav_ordering() {
        // RTS reserves the whole exchange, so its NAV exceeds a data
        // frame's NAV, which exceeds zero.
        let std = PhyStandard::Dot11g;
        let data_air = SimDuration::from_micros(300);
        let rts = rts_duration(std, data_air);
        let data = data_duration(std, false, None);
        assert!(rts > data, "rts={rts} data={data}");
        assert!(data > 0);
    }

    #[test]
    fn cts_duration_counts_down() {
        // Each stage of the exchange shortens the NAV by what has been
        // consumed — the countdown §4.2 describes.
        let std = PhyStandard::Dot11g;
        let rts = rts_duration(std, SimDuration::from_micros(300));
        let cts = cts_duration(std, rts);
        assert!(cts < rts);
        // Remaining after CTS: SIFS + DATA + SIFS + ACK ≈ rts − sifs − cts_air.
        let expect = rts - (sifs(std) + cts_airtime(std)).as_micros_f64().ceil() as u16;
        assert_eq!(cts, expect);
    }

    #[test]
    fn fragment_nav_extends_over_next_fragment() {
        let std = PhyStandard::Dot11g;
        let plain = data_duration(std, false, None);
        let frag = data_duration(std, true, Some(SimDuration::from_micros(200)));
        assert!(frag > plain + 200, "frag NAV must cover the next fragment");
    }

    #[test]
    fn duration_field_clamped_to_15_bits() {
        let std = PhyStandard::Dot11;
        // An absurdly long data frame at 1 Mbps.
        let d = rts_duration(std, SimDuration::from_millis(100));
        assert!(d <= 0x7FFF);
    }

    #[test]
    fn sifs_shorter_than_difs() {
        for s in PhyStandard::ALL {
            assert!(sifs(s) < difs(s), "{s:?}");
        }
    }

    #[test]
    fn aifs_reproduces_difs_at_aifsn_2_and_grows_per_slot() {
        // 802.11 DIFS = SIFS + 2×slot, so AIFSN=2 must equal DIFS on
        // every standard, bit for bit — it licenses the DCF queue's
        // AIFSN 2 in the shared access engine, which must reproduce the
        // pre-EDCA timing exactly.
        for s in PhyStandard::ALL {
            assert_eq!(aifs(s, 2), difs(s), "{s:?}");
            assert_eq!(aifs(s, 3) - aifs(s, 2), slot(s), "{s:?}");
            assert_eq!(aifs(s, 7) - aifs(s, 2), slot(s) * 5, "{s:?}");
        }
    }

    #[test]
    fn block_ack_airtime_exceeds_ack_airtime() {
        // A 30-byte BA always outlasts a 14-byte ACK at the same rate.
        for s in PhyStandard::ALL {
            assert!(block_ack_airtime(s) > ack_airtime(s), "{s:?}");
            assert!(ampdu_duration(s) > 0, "{s:?}");
        }
    }

    #[test]
    fn txop_budget_counts_mpdus_not_ppdus() {
        let std = PhyStandard::Dot11g;
        let rate = std.base_rate(); // 6 Mbps
                                    // A 1200-byte MPDU at 6 Mbps is 1.6 ms of payload plus 20 µs
                                    // preamble; SIFS+BA eat ~70 µs. In a 5 ms TXOP the first MPDU
                                    // pays the preamble and the rest pack back to back: 3 fit.
        let n = txop_mpdu_budget(std, rate, 5_000, 1200);
        assert_eq!(n, 3, "5 ms at 6 Mbps fits 3×1200 B MPDUs, got {n}");
        // Doubling the TXOP at least doubles the budget's payload room.
        assert!(txop_mpdu_budget(std, rate, 10_000, 1200) >= 2 * n - 1);
    }

    #[test]
    fn txop_budget_never_starves() {
        let std = PhyStandard::Dot11b;
        let rate = std.base_rate(); // 1 Mbps: one MPDU blows any short TXOP
        assert_eq!(txop_mpdu_budget(std, rate, 32, 1500), 1);
        assert_eq!(txop_mpdu_budget(std, rate, 1, 4), 1);
        // TXOP 0 = unlimited.
        assert_eq!(txop_mpdu_budget(std, rate, 0, 1500), usize::MAX);
    }

    #[test]
    fn txop_budget_monotone_in_txop_and_antitone_in_mpdu_len() {
        let std = PhyStandard::Dot11a;
        let rate = std.base_rate();
        let mut prev = 0;
        for txop_us in [500, 1_000, 2_000, 4_000, 8_000] {
            let n = txop_mpdu_budget(std, rate, txop_us, 400);
            assert!(n >= prev, "budget shrank as TXOP grew");
            prev = n;
        }
        let long = txop_mpdu_budget(std, rate, 4_000, 1600);
        let short = txop_mpdu_budget(std, rate, 4_000, 200);
        assert!(short >= long, "shorter MPDUs must pack at least as many");
    }
}
