//! Modulation schemes, the Fig. 1.13 PHY generations, and their rate
//! ladders.
//!
//! §4.3 of the source text lists, for every 802.11 generation, the top
//! bit rate "in ideal conditions" and the ladder of "slower speeds ...
//! in less than ideal conditions". This module makes that executable: a
//! [`PhyStandard`] carries its [`RateStep`] ladder with per-step minimum
//! SNR, and [`Modulation`] supplies textbook BER curves so frame error
//! probability falls out of the link budget.

use crate::bands::Band;
use crate::units::{DataRate, Db};

/// Abramowitz & Stegun 7.1.26 approximation of erf (|ε| ≤ 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// The Gaussian tail function Q(x) = P(N(0,1) > x).
pub fn q_function(x: f64) -> f64 {
    0.5 * (1.0 - erf(x / std::f64::consts::SQRT_2))
}

/// Physical modulation families used across the text's technologies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary PSK (also stands in for DBPSK at our fidelity).
    Bpsk,
    /// Quaternary PSK / DQPSK / OQPSK (ZigBee).
    Qpsk,
    /// 16-QAM.
    Qam16,
    /// 64-QAM.
    Qam64,
    /// 256-QAM (802.11ac).
    Qam256,
    /// Complementary code keying (802.11b 5.5/11 Mbps).
    Cck,
    /// 2-level GFSK (Bluetooth, 802.11 FHSS).
    Gfsk,
    /// Pulse-position modulation (UWB, IrDA).
    Ppm,
}

impl Modulation {
    /// Bit error rate at the given *linear* SNR (Eb/N0-style textbook
    /// approximations — adequate for relative comparisons).
    pub fn ber(self, snr_linear: f64) -> f64 {
        if snr_linear <= 0.0 {
            return 0.5;
        }
        let ber = match self {
            Modulation::Bpsk => q_function((2.0 * snr_linear).sqrt()),
            Modulation::Qpsk => q_function(snr_linear.sqrt()),
            Modulation::Qam16 => Self::qam_ber(16.0, snr_linear),
            Modulation::Qam64 => Self::qam_ber(64.0, snr_linear),
            Modulation::Qam256 => Self::qam_ber(256.0, snr_linear),
            // CCK behaves roughly like QPSK with ~3 dB processing gain.
            Modulation::Cck => q_function((2.0 * snr_linear).sqrt() * 0.9),
            // Non-coherent binary FSK.
            Modulation::Gfsk => 0.5 * (-snr_linear / 2.0).exp(),
            // Binary PPM ≈ non-coherent orthogonal signalling.
            Modulation::Ppm => 0.5 * (-snr_linear / 2.0).exp(),
        };
        ber.clamp(0.0, 0.5)
    }

    fn qam_ber(m: f64, snr: f64) -> f64 {
        let k = m.log2();
        (4.0 / k) * (1.0 - 1.0 / m.sqrt()) * q_function((3.0 * k * snr / (m - 1.0)).sqrt())
    }

    /// Bits carried per symbol.
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            Modulation::Bpsk | Modulation::Gfsk | Modulation::Ppm => 1,
            Modulation::Qpsk => 2,
            Modulation::Cck => 8,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
            Modulation::Qam256 => 8,
        }
    }
}

/// Frame error probability for `bits` payload bits at a given BER,
/// assuming independent bit errors.
pub fn frame_error_rate(ber: f64, bits: u64) -> f64 {
    if ber <= 0.0 {
        return 0.0;
    }
    1.0 - (1.0 - ber).powi(bits.min(i32::MAX as u64) as i32)
}

/// One rung of a PHY rate ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateStep {
    /// The nominal data rate.
    pub rate: DataRate,
    /// Modulation used at this rate.
    pub modulation: Modulation,
    /// Minimum SNR (dB) at which the receiver can use this rate.
    pub min_snr_db: f64,
}

/// Reference frame length for the calibrated PER model, bits (1500 B).
const PER_REF_BITS: f64 = 12_000.0;
/// Logistic slope of the calibrated PER model, per dB of margin.
const PER_SLOPE: f64 = 2.2;
/// The logistic is centred this many dB below the rung's threshold.
const PER_CENTRE_DB: f64 = 1.0;
/// Floor on the length exponent: frames shorter than 600 bits succeed
/// like 600-bit frames.
const PER_MIN_EXPONENT: f64 = 0.05;

/// Probability band a receiver settles without evaluating
/// [`RateStep::success_prob`]: 2⁻¹⁰. Below
/// [`RateStep::settle_cutoffs_db`]'s low cutoff the success
/// probability is at most this, above the high cutoff at least its
/// complement, so a uniform draw outside the band decides `u < p`
/// without knowing `p`.
pub const SETTLE_BAND: f64 = 1.0 / 1024.0;

/// Widening of both settle cutoffs, dB. It absorbs the float error of
/// the closed-form inverse and of the dB↔mW round trips a caller
/// compares in, all of which are below 1e-12 dB.
const SETTLE_GUARD_DB: f64 = 0.01;

/// The length exponent of the PER model for a `bits`-bit frame.
fn per_exponent(bits: u64) -> f64 {
    (bits.max(1) as f64 / PER_REF_BITS).max(PER_MIN_EXPONENT)
}

impl RateStep {
    /// Calibrated frame-success probability at a given SINR.
    ///
    /// The raw [`Modulation::ber`] curves describe ideal coherent
    /// receivers; real rungs carry coding and implementation losses
    /// already folded into `min_snr_db` (chosen so a 1500-byte frame
    /// succeeds ≳90% right at threshold). This model is anchored to the
    /// threshold: success follows a logistic in the SNR *margin*,
    /// adjusted for frame length, so the ladder, the receiver's rate
    /// choice and the error process stay mutually consistent:
    ///
    /// - margin +3 dB → ≳99% success,
    /// - margin 0 dB → ~90%,
    /// - margin −3 dB → ~2% (the rate is not usable).
    pub fn success_prob(self, sinr_db: f64, bits: u64) -> f64 {
        let margin = sinr_db - self.min_snr_db;
        // Logistic anchored 1 dB below threshold with a 2.2/dB slope.
        let p_ref = 1.0 / (1.0 + (-PER_SLOPE * (margin + PER_CENTRE_DB)).exp());
        // Independent-error length scaling relative to 1500 B.
        p_ref.powf(per_exponent(bits))
    }

    /// Closed-form inverse of [`success_prob`](Self::success_prob): the
    /// SINR (dB) at which a `bits`-bit frame succeeds with probability
    /// `p`, for `0 < p < 1`.
    fn sinr_for_success(self, p: f64, bits: u64) -> f64 {
        // p = p_ref^e, so ln p_ref = ln p / e; the logistic inverts to
        // margin = logit(p_ref) / slope − centre, with
        // logit(p_ref) = ln p_ref − ln(1 − p_ref) taken through
        // `exp_m1` so p_ref near 1 keeps its precision.
        let ln_ref = p.ln() / per_exponent(bits);
        let logit = ln_ref - (-ln_ref.exp_m1()).ln();
        self.min_snr_db + logit / PER_SLOPE - PER_CENTRE_DB
    }

    /// The SINR cutoffs `(s_lo, s_hi)`, dB, that settle a reception of a
    /// `bits`-bit frame without the PER transcendentals: at or below
    /// `s_lo` the success probability is at most [`SETTLE_BAND`], at or
    /// above `s_hi` at least `1 − SETTLE_BAND`. Both are the exact
    /// inverse widened by a fixed 0.01 dB guard.
    pub fn settle_cutoffs_db(self, bits: u64) -> (f64, f64) {
        (
            self.sinr_for_success(SETTLE_BAND, bits) - SETTLE_GUARD_DB,
            self.sinr_for_success(1.0 - SETTLE_BAND, bits) + SETTLE_GUARD_DB,
        )
    }

    /// Calibrated frame-error probability (complement of
    /// [`RateStep::success_prob`]).
    pub fn frame_error_prob(self, sinr_db: f64, bits: u64) -> f64 {
        1.0 - self.success_prob(sinr_db, bits)
    }
}

/// The transmission schemes of §4.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransmissionScheme {
    /// Frequency-hopping spread spectrum (original 802.11).
    Fhss,
    /// Direct-sequence spread spectrum (802.11b).
    Dsss,
    /// Orthogonal frequency-division multiplexing (a/g/n/ac).
    Ofdm,
}

/// MAC-relevant timing constants, which depend on the PHY generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MacTiming {
    /// Slot time, µs.
    pub slot_us: f64,
    /// Short interframe space, µs.
    pub sifs_us: f64,
    /// Minimum contention window (slots − 1, i.e. CW ranges 0..=cw_min).
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// PLCP preamble + header duration, µs, paid by every frame.
    pub preamble_us: f64,
}

impl MacTiming {
    /// DIFS = SIFS + 2 × slot.
    pub fn difs_us(&self) -> f64 {
        self.sifs_us + 2.0 * self.slot_us
    }

    /// EIFS used after an errored frame: SIFS + DIFS + ACK-at-base-rate.
    pub fn eifs_us(&self, ack_at_base_us: f64) -> f64 {
        self.sifs_us + self.difs_us() + ack_at_base_us
    }
}

/// The IEEE 802.11 PHY generations of Fig. 1.13.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhyStandard {
    /// Original 1997 802.11: FHSS, 2.4 GHz, 1–2 Mbps.
    Dot11,
    /// 802.11b: DSSS, 2.4 GHz, up to 11 Mbps.
    Dot11b,
    /// 802.11a: OFDM, 5 GHz, up to 54 Mbps.
    Dot11a,
    /// 802.11g: OFDM, 2.4 GHz, up to 54 Mbps, b-compatible.
    Dot11g,
    /// 802.11n: MIMO OFDM, 2.4/5 GHz, up to 600 Mbps, 250 m.
    Dot11n,
    /// 802.11ac: MU-MIMO OFDM, 5 GHz, up to 1.3 Gbps.
    Dot11ac,
}

impl PhyStandard {
    /// All generations in chronological order.
    pub const ALL: [PhyStandard; 6] = [
        PhyStandard::Dot11,
        PhyStandard::Dot11b,
        PhyStandard::Dot11a,
        PhyStandard::Dot11g,
        PhyStandard::Dot11n,
        PhyStandard::Dot11ac,
    ];

    /// Human-readable name as used in the text.
    pub fn name(self) -> &'static str {
        match self {
            PhyStandard::Dot11 => "802.11",
            PhyStandard::Dot11b => "802.11b",
            PhyStandard::Dot11a => "802.11a",
            PhyStandard::Dot11g => "802.11g",
            PhyStandard::Dot11n => "802.11n",
            PhyStandard::Dot11ac => "802.11ac",
        }
    }

    /// Operating band (for dual-band n we model the 2.4 GHz variant by
    /// default; pass-through users can pick [`Band::Unii5GHz`]).
    pub fn band(self) -> Band {
        match self {
            PhyStandard::Dot11 | PhyStandard::Dot11b | PhyStandard::Dot11g => Band::Ism2_4GHz,
            PhyStandard::Dot11a | PhyStandard::Dot11ac => Band::Unii5GHz,
            PhyStandard::Dot11n => Band::Ism2_4GHz,
        }
    }

    /// Transmission scheme per §4.3.
    pub fn scheme(self) -> TransmissionScheme {
        match self {
            PhyStandard::Dot11 => TransmissionScheme::Fhss,
            PhyStandard::Dot11b => TransmissionScheme::Dsss,
            _ => TransmissionScheme::Ofdm,
        }
    }

    /// Channel bandwidth in MHz used by our model of this generation.
    pub fn bandwidth_mhz(self) -> f64 {
        match self {
            PhyStandard::Dot11 => 1.0,
            PhyStandard::Dot11b | PhyStandard::Dot11a | PhyStandard::Dot11g => 20.0,
            PhyStandard::Dot11n => 40.0,
            PhyStandard::Dot11ac => 80.0,
        }
    }

    /// Number of spatial streams our model assigns (MIMO, §4.3's
    /// "multiple wireless signals and antennas").
    pub fn spatial_streams(self) -> u32 {
        match self {
            PhyStandard::Dot11n => 4,
            PhyStandard::Dot11ac => 3,
            _ => 1,
        }
    }

    /// The nominal range from the closing comparison table, metres.
    pub fn nominal_range_m(self) -> f64 {
        match self {
            PhyStandard::Dot11n | PhyStandard::Dot11ac => 250.0,
            _ => 100.0,
        }
    }

    /// The rate ladder: every rate the text lists for this generation,
    /// slowest first, with the minimum SNR to sustain it.
    pub fn rate_ladder(self) -> Vec<RateStep> {
        use Modulation::*;
        let step = |mbps: f64, m: Modulation, snr: f64| RateStep {
            rate: DataRate::from_mbps(mbps),
            modulation: m,
            min_snr_db: snr,
        };
        match self {
            // "a lower bit rate speed of 1 Mbps" / 2 Mbps FHSS.
            PhyStandard::Dot11 => vec![step(1.0, Gfsk, 4.0), step(2.0, Gfsk, 7.0)],
            // "the slower speeds of 5.5 Mbps, 2 Mbps, and 1 Mbps".
            PhyStandard::Dot11b => vec![
                step(1.0, Bpsk, 2.0),
                step(2.0, Qpsk, 5.0),
                step(5.5, Cck, 8.0),
                step(11.0, Cck, 11.0),
            ],
            // "48, 36, 24, 18, 12, and 6 Mbps" + 9 from the OFDM set.
            PhyStandard::Dot11a | PhyStandard::Dot11g => vec![
                step(6.0, Bpsk, 5.0),
                step(9.0, Bpsk, 6.0),
                step(12.0, Qpsk, 8.0),
                step(18.0, Qpsk, 11.0),
                step(24.0, Qam16, 14.0),
                step(36.0, Qam16, 18.0),
                step(48.0, Qam64, 23.0),
                step(54.0, Qam64, 25.0),
            ],
            // 4 streams × 40 MHz, MCS 0–7 per stream: 600 Mbps peak.
            PhyStandard::Dot11n => vec![
                step(60.0, Bpsk, 5.0),
                step(120.0, Qpsk, 8.0),
                step(180.0, Qpsk, 11.0),
                step(240.0, Qam16, 14.0),
                step(360.0, Qam16, 18.0),
                step(480.0, Qam64, 24.0),
                step(540.0, Qam64, 28.0),
                step(600.0, Qam64, 31.0),
            ],
            // 3 streams × 80 MHz with 256-QAM: 1.3 Gbps peak.
            PhyStandard::Dot11ac => vec![
                step(117.0, Bpsk, 5.0),
                step(234.0, Qpsk, 8.0),
                step(351.0, Qpsk, 11.0),
                step(468.0, Qam16, 14.0),
                step(702.0, Qam16, 18.0),
                step(936.0, Qam64, 24.0),
                step(1170.0, Qam256, 31.0),
                step(1300.0, Qam256, 34.0),
            ],
        }
    }

    /// The fastest rate usable at `snr`, if any.
    pub fn best_rate_for_snr(self, snr: Db) -> Option<RateStep> {
        self.rate_ladder()
            .into_iter()
            .rev()
            .find(|s| snr.value() >= s.min_snr_db)
    }

    /// The base (most robust) rate — used for control frames and beacons.
    pub fn base_rate(self) -> RateStep {
        self.rate_ladder()[0]
    }

    /// Peak rate "under ideal conditions" (§4.3).
    pub fn max_rate(self) -> DataRate {
        self.rate_ladder().last().expect("ladder non-empty").rate
    }

    /// MAC timing constants for this generation.
    pub fn mac_timing(self) -> MacTiming {
        match self {
            PhyStandard::Dot11 => MacTiming {
                slot_us: 50.0,
                sifs_us: 28.0,
                cw_min: 15,
                cw_max: 1023,
                preamble_us: 128.0,
            },
            PhyStandard::Dot11b => MacTiming {
                slot_us: 20.0,
                sifs_us: 10.0,
                cw_min: 31,
                cw_max: 1023,
                preamble_us: 192.0,
            },
            PhyStandard::Dot11a => MacTiming {
                slot_us: 9.0,
                sifs_us: 16.0,
                cw_min: 15,
                cw_max: 1023,
                preamble_us: 20.0,
            },
            PhyStandard::Dot11g => MacTiming {
                slot_us: 9.0,
                sifs_us: 10.0,
                cw_min: 15,
                cw_max: 1023,
                preamble_us: 20.0,
            },
            PhyStandard::Dot11n => MacTiming {
                slot_us: 9.0,
                sifs_us: 10.0,
                cw_min: 15,
                cw_max: 1023,
                preamble_us: 36.0,
            },
            PhyStandard::Dot11ac => MacTiming {
                slot_us: 9.0,
                sifs_us: 16.0,
                cw_min: 15,
                cw_max: 1023,
                preamble_us: 40.0,
            },
        }
    }

    /// §4.3: "802.11g is also backward compatible with 802.11b".
    pub fn interoperates_with(self, other: PhyStandard) -> bool {
        use PhyStandard::*;
        if self == other {
            return true;
        }
        matches!(
            (self, other),
            (Dot11b, Dot11g)
                | (Dot11g, Dot11b)
                | (Dot11n, Dot11g)
                | (Dot11g, Dot11n)
                | (Dot11n, Dot11b)
                | (Dot11b, Dot11n)
                | (Dot11ac, Dot11a)
                | (Dot11a, Dot11ac)
                | (Dot11n, Dot11a)
                | (Dot11a, Dot11n)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_function_reference_points() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.0) - 0.158_655).abs() < 1e-4);
        assert!((q_function(3.0) - 0.001_349_9).abs() < 1e-5);
        assert!(q_function(10.0) < 1e-20);
        assert!((q_function(-1.0) - 0.841_345).abs() < 1e-4);
    }

    #[test]
    fn ber_decreases_with_snr() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
            Modulation::Cck,
            Modulation::Gfsk,
            Modulation::Ppm,
        ] {
            let mut prev = 0.5;
            for snr_db in [-10.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0] {
                let b = m.ber(Db(snr_db).to_linear());
                assert!(b <= prev + 1e-12, "{m:?} BER rose at {snr_db} dB");
                assert!((0.0..=0.5).contains(&b));
                prev = b;
            }
        }
    }

    #[test]
    fn denser_constellations_need_more_snr() {
        let snr = Db(12.0).to_linear();
        assert!(Modulation::Bpsk.ber(snr) < Modulation::Qam16.ber(snr));
        assert!(Modulation::Qam16.ber(snr) < Modulation::Qam64.ber(snr));
        assert!(Modulation::Qam64.ber(snr) < Modulation::Qam256.ber(snr));
    }

    #[test]
    fn bpsk_ber_reference_value() {
        // BPSK at Eb/N0 = 9.6 dB → BER ≈ 1e-5 (textbook landmark).
        let ber = Modulation::Bpsk.ber(Db(9.6).to_linear());
        assert!((5e-6..3e-5).contains(&ber), "ber = {ber}");
    }

    #[test]
    fn frame_error_rate_props() {
        assert_eq!(frame_error_rate(0.0, 12_000), 0.0);
        let fer = frame_error_rate(1e-5, 12_000);
        assert!((fer - 0.113).abs() < 0.01, "fer = {fer}");
        assert!(frame_error_rate(0.5, 10_000) > 0.999_999);
        // Longer frames fail more often.
        assert!(frame_error_rate(1e-5, 12_000) > frame_error_rate(1e-5, 800));
    }

    #[test]
    fn sinr_for_success_inverts_success_prob() {
        for step in PhyStandard::Dot11g.rate_ladder() {
            for bits in [1, 600, 12_000, 524_280] {
                for p in [1e-9, SETTLE_BAND, 0.5, 0.9, 1.0 - SETTLE_BAND] {
                    let s = step.sinr_for_success(p, bits);
                    let back = step.success_prob(s, bits);
                    assert!(
                        (back - p).abs() <= 1e-9 * p.max(1e-3),
                        "{step:?} {bits} {p}: {back}"
                    );
                }
            }
        }
    }

    /// The reception bound's contract, swept over every rung of every
    /// ladder, frame lengths from one bit to the largest A-MPDU
    /// (802.11ac's 1,048,575 bytes) and a fine SINR grid on both sides
    /// of the cutoffs.
    #[test]
    fn settle_cutoffs_bound_success_prob() {
        let mut lengths = vec![1u64, 2, 8, 100, 599, 600, 601, 1_000];
        let mut bits = 1_000u64;
        while bits < 8 * 1_048_575 {
            bits = bits * 5 / 4 + 7;
            lengths.push(bits);
        }
        lengths.push(8 * 1_048_575);
        for std in PhyStandard::ALL {
            for step in std.rate_ladder() {
                for &bits in &lengths {
                    let (s_lo, s_hi) = step.settle_cutoffs_db(bits);
                    assert!(s_lo < s_hi, "{std:?} {step:?} {bits}");
                    // Offsets from 0 to 160 dB, spaced quadratically:
                    // 4e-5 dB apart at the cutoffs, coarser far out.
                    for i in 0..=2_000 {
                        let off = 10.0 * (f64::from(i) * 0.002).powi(2);
                        let lo = step.success_prob(s_lo - off, bits);
                        let hi = step.success_prob(s_hi + off, bits);
                        assert!(
                            lo <= SETTLE_BAND,
                            "{std:?} {step:?} {bits} bits: {lo} at s_lo-{off}"
                        );
                        assert!(
                            hi >= 1.0 - SETTLE_BAND,
                            "{std:?} {step:?} {bits} bits: {hi} at s_hi+{off}"
                        );
                    }
                    // The guard is a guard, not slack: just past either
                    // cutoff the probability leaves the band.
                    assert!(step.success_prob(s_lo + 0.05, bits) > SETTLE_BAND);
                    assert!(step.success_prob(s_hi - 0.05, bits) < 1.0 - SETTLE_BAND);
                }
            }
        }
    }

    #[test]
    fn ladders_match_the_text() {
        assert_eq!(PhyStandard::Dot11.max_rate().mbps(), 2.0);
        assert_eq!(PhyStandard::Dot11b.max_rate().mbps(), 11.0);
        assert_eq!(PhyStandard::Dot11a.max_rate().mbps(), 54.0);
        assert_eq!(PhyStandard::Dot11g.max_rate().mbps(), 54.0);
        assert_eq!(PhyStandard::Dot11n.max_rate().mbps(), 600.0);
        assert!((PhyStandard::Dot11ac.max_rate().bps() - 1.3e9).abs() < 1e6);
    }

    #[test]
    fn ladder_monotone_in_rate_and_snr() {
        for std in PhyStandard::ALL {
            let ladder = std.rate_ladder();
            for pair in ladder.windows(2) {
                assert!(
                    pair[1].rate.bps() > pair[0].rate.bps(),
                    "{std:?} rate order"
                );
                assert!(pair[1].min_snr_db > pair[0].min_snr_db, "{std:?} snr order");
            }
        }
    }

    #[test]
    fn g_fallback_ladder_is_the_texts() {
        // "the slower speeds of 48, 36, 24, 18, 12, and 6 Mbps".
        let rates: Vec<f64> = PhyStandard::Dot11g
            .rate_ladder()
            .iter()
            .map(|s| s.rate.mbps())
            .collect();
        for expected in [6.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0] {
            assert!(rates.contains(&expected), "missing {expected} Mbps");
        }
    }

    #[test]
    fn best_rate_for_snr_walks_the_ladder() {
        let g = PhyStandard::Dot11g;
        assert_eq!(g.best_rate_for_snr(Db(30.0)).unwrap().rate.mbps(), 54.0);
        assert_eq!(g.best_rate_for_snr(Db(24.0)).unwrap().rate.mbps(), 48.0);
        assert_eq!(g.best_rate_for_snr(Db(9.0)).unwrap().rate.mbps(), 12.0);
        assert_eq!(g.best_rate_for_snr(Db(5.5)).unwrap().rate.mbps(), 6.0);
        assert!(g.best_rate_for_snr(Db(1.0)).is_none());
    }

    #[test]
    fn timing_difs_values() {
        // Classic values: b → 50 µs DIFS, a → 34 µs DIFS.
        assert_eq!(PhyStandard::Dot11b.mac_timing().difs_us(), 50.0);
        assert_eq!(PhyStandard::Dot11a.mac_timing().difs_us(), 34.0);
        assert_eq!(PhyStandard::Dot11g.mac_timing().difs_us(), 28.0);
    }

    #[test]
    fn interop_matches_text() {
        use PhyStandard::*;
        // "802.11g wireless network adapters can connect to an 802.11b
        // wireless AP, and 802.11b ... to an 802.11g wireless AP".
        assert!(Dot11g.interoperates_with(Dot11b));
        assert!(Dot11b.interoperates_with(Dot11g));
        // "migrating from 802.11b to 802.11a (... all the network
        // adapters ... must be replaced)" — no interop.
        assert!(!Dot11b.interoperates_with(Dot11a));
        assert!(!Dot11a.interoperates_with(Dot11g));
        assert!(Dot11.interoperates_with(Dot11));
    }

    #[test]
    fn bands_match_text() {
        assert_eq!(PhyStandard::Dot11b.band(), Band::Ism2_4GHz);
        assert_eq!(PhyStandard::Dot11g.band(), Band::Ism2_4GHz);
        assert_eq!(PhyStandard::Dot11a.band(), Band::Unii5GHz);
        assert_eq!(PhyStandard::Dot11ac.band(), Band::Unii5GHz);
    }

    #[test]
    fn nominal_ranges_match_table() {
        assert_eq!(PhyStandard::Dot11b.nominal_range_m(), 100.0);
        assert_eq!(PhyStandard::Dot11n.nominal_range_m(), 250.0);
        assert_eq!(PhyStandard::Dot11ac.nominal_range_m(), 250.0);
    }
}
