//! Link budgets, SINR and reception decisions.
//!
//! This module is where transmit power, antenna gains, path loss, the
//! thermal noise floor and co-channel interference meet to decide
//! whether a frame gets through and at what rate — the machinery behind
//! both the Fig. 1.13 rate-vs-distance experiment and the §6
//! interference experiment.

use crate::modulation::{PhyStandard, RateStep};
use crate::propagation::PathLoss;
use crate::units::{sum_powers, thermal_noise, DataRate, Db, Dbm, Hertz};

/// A radio's RF front-end parameters.
#[derive(Clone, Copy, Debug)]
pub struct Radio {
    /// Transmit power at the antenna port.
    pub tx_power: Dbm,
    /// Transmit antenna gain.
    pub tx_gain: Db,
    /// Receive antenna gain.
    pub rx_gain: Db,
    /// Receiver noise figure.
    pub noise_figure: Db,
}

impl Radio {
    /// A typical consumer Wi-Fi radio: 20 dBm, 2 dBi antennas, 7 dB NF.
    pub fn consumer_wifi() -> Self {
        Radio {
            tx_power: Dbm(20.0),
            tx_gain: Db(2.0),
            rx_gain: Db(2.0),
            noise_figure: Db(7.0),
        }
    }

    /// A low-power WPAN radio (Bluetooth class 2 / ZigBee): 0 dBm.
    pub fn wpan_low_power() -> Self {
        Radio {
            tx_power: Dbm(0.0),
            tx_gain: Db(0.0),
            rx_gain: Db(0.0),
            noise_figure: Db(9.0),
        }
    }

    /// A Bluetooth class 1 radio: 20 dBm.
    pub fn bluetooth_class1() -> Self {
        Radio {
            tx_power: Dbm(20.0),
            tx_gain: Db(0.0),
            rx_gain: Db(0.0),
            noise_figure: Db(9.0),
        }
    }

    /// A WiMAX base-station sector: 43 dBm EIRP-ish with 15 dBi antenna.
    pub fn wimax_base_station() -> Self {
        Radio {
            tx_power: Dbm(43.0),
            tx_gain: Db(15.0),
            rx_gain: Db(15.0),
            noise_figure: Db(5.0),
        }
    }
}

/// Received power over a link whose two ends use different radios:
/// the transmitter's power and antenna gain plus the receiver's
/// antenna gain, minus the path loss. [`LinkBudget::rx_power`] is the
/// symmetric-radio special case of this.
pub fn coupled_rx_power(tx: &Radio, rx: &Radio, path_loss: Db) -> Dbm {
    tx.tx_power + tx.tx_gain + rx.rx_gain - path_loss
}

/// A fully-specified link budget evaluator for one PHY.
#[derive(Clone, Copy, Debug)]
pub struct LinkBudget {
    /// Transmitter/receiver RF parameters.
    pub radio: Radio,
    /// Carrier frequency.
    pub frequency: Hertz,
    /// Receiver bandwidth (sets the noise floor).
    pub bandwidth: Hertz,
}

impl LinkBudget {
    /// Builds the standard budget for an 802.11 generation with the
    /// given radio.
    pub fn for_standard(std: PhyStandard, radio: Radio) -> Self {
        LinkBudget {
            radio,
            frequency: std.band().representative_frequency(),
            bandwidth: Hertz::from_mhz(std.bandwidth_mhz()),
        }
    }

    /// The receiver noise floor.
    pub fn noise_floor(&self) -> Dbm {
        thermal_noise(self.bandwidth, self.radio.noise_figure)
    }

    /// Received power over a path with the given loss.
    pub fn rx_power(&self, path_loss: Db) -> Dbm {
        self.radio.tx_power + self.radio.tx_gain + self.radio.rx_gain - path_loss
    }

    /// SNR over a path with the given loss (no interference).
    pub fn snr(&self, path_loss: Db) -> Db {
        self.rx_power(path_loss) - self.noise_floor()
    }

    /// SINR given the wanted path loss and the received powers of
    /// concurrent co-channel interferers.
    pub fn sinr(&self, path_loss: Db, interferers: &[Dbm]) -> Db {
        let signal = self.rx_power(path_loss);
        let noise = self.noise_floor();
        match sum_powers(interferers) {
            None => signal - noise,
            Some(i) => {
                let denom = sum_powers(&[noise, i]).expect("two terms");
                signal - denom
            }
        }
    }

    /// SNR at a distance under a propagation model.
    pub fn snr_at(&self, model: &dyn PathLoss, distance_m: f64) -> Db {
        self.snr(model.loss(distance_m, self.frequency))
    }

    /// The fastest rate of `std` sustainable at `distance_m` under
    /// `model`, or `None` when even the base rate's SNR is unmet.
    pub fn best_rate_at(
        &self,
        std: PhyStandard,
        model: &dyn PathLoss,
        distance_m: f64,
    ) -> Option<RateStep> {
        std.best_rate_for_snr(self.snr_at(model, distance_m))
    }

    /// Probability that a `bits`-bit frame at `step` survives the link
    /// at the given SINR (threshold-calibrated; see
    /// [`RateStep::success_prob`]).
    pub fn frame_success(&self, step: RateStep, sinr: Db, bits: u64) -> f64 {
        step.success_prob(sinr.value(), bits)
    }

    /// Maximum distance at which `rate` is sustainable, by bisection
    /// over the (monotone) path-loss model. Returns 0 if unreachable at
    /// one metre.
    pub fn max_range_for_rate(
        &self,
        std: PhyStandard,
        model: &dyn PathLoss,
        rate: DataRate,
        search_limit_m: f64,
    ) -> f64 {
        let Some(step) = std
            .rate_ladder()
            .iter()
            .find(|s| (s.rate.bps() - rate.bps()).abs() < 1.0)
        else {
            return 0.0;
        };
        let sustainable = |d: f64| self.snr_at(model, d).value() >= step.min_snr_db;
        if !sustainable(1.0) {
            return 0.0;
        }
        if sustainable(search_limit_m) {
            return search_limit_m;
        }
        let (mut lo, mut hi) = (1.0, search_limit_m);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if sustainable(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Whether a wanted frame *captures* the receiver despite a
    /// collision: true when SINR exceeds `capture_threshold_db`.
    ///
    /// The capture effect is a DESIGN.md ablation: with it off, any
    /// overlap destroys both frames; with it on, the stronger frame can
    /// survive — changing fairness between near and far stations.
    pub fn captures(&self, path_loss: Db, interferers: &[Dbm], capture_threshold_db: f64) -> bool {
        self.sinr(path_loss, interferers).value() >= capture_threshold_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::{FreeSpace, LogDistance};

    fn wifi_g() -> LinkBudget {
        LinkBudget::for_standard(PhyStandard::Dot11g, Radio::consumer_wifi())
    }

    #[test]
    fn noise_floor_20mhz() {
        let nf = wifi_g().noise_floor().value();
        assert!((nf - (-94.0)).abs() < 0.5, "{nf}");
    }

    #[test]
    fn rx_power_chain() {
        let lb = wifi_g();
        // 20 + 2 + 2 - 80 = -56 dBm.
        assert!((lb.rx_power(Db(80.0)).value() - (-56.0)).abs() < 1e-9);
    }

    #[test]
    fn snr_decreases_with_distance() {
        let lb = wifi_g();
        let m = FreeSpace;
        let mut prev = f64::INFINITY;
        for d in [1.0, 10.0, 50.0, 100.0, 500.0] {
            let s = lb.snr_at(&m, d).value();
            assert!(s < prev);
            prev = s;
        }
    }

    #[test]
    fn sinr_with_interference_lower_than_snr() {
        let lb = wifi_g();
        let pl = Db(70.0);
        let snr = lb.sinr(pl, &[]);
        let sinr = lb.sinr(pl, &[Dbm(-70.0)]);
        assert!(sinr.value() < snr.value());
        // A dominating interferer at the same level as the signal drives
        // SINR to ~0 dB.
        let sig = lb.rx_power(pl);
        let jammed = lb.sinr(pl, &[sig]);
        assert!(jammed.value() < 0.5, "{jammed}");
    }

    #[test]
    fn rate_falls_back_with_distance_like_fig_1_13() {
        // "it will automatically back down from 54 Mbps when the radio
        // signal is weak" — the ladder must descend with distance.
        let lb = wifi_g();
        let m = LogDistance::indoor();
        let near = lb.best_rate_at(PhyStandard::Dot11g, &m, 5.0).unwrap();
        assert_eq!(near.rate.mbps(), 54.0);
        let mut last = f64::INFINITY;
        for d in [5.0, 15.0, 30.0, 60.0, 90.0] {
            if let Some(step) = lb.best_rate_at(PhyStandard::Dot11g, &m, d) {
                assert!(step.rate.mbps() <= last, "rate rose at {d} m");
                last = step.rate.mbps();
            }
        }
        // Far out, the link dies entirely.
        assert!(lb.best_rate_at(PhyStandard::Dot11g, &m, 10_000.0).is_none());
    }

    #[test]
    fn frame_success_monotone_in_sinr() {
        let lb = wifi_g();
        let step = PhyStandard::Dot11g.rate_ladder()[7];
        let lo = lb.frame_success(step, Db(20.0), 12_000);
        let hi = lb.frame_success(step, Db(35.0), 12_000);
        assert!(hi > lo);
        assert!(hi > 0.99, "{hi}");
    }

    #[test]
    fn max_range_ordering_across_rates() {
        // Faster rates reach less far (§4.3's entire premise).
        let lb = wifi_g();
        let m = LogDistance::indoor();
        let r54 = lb.max_range_for_rate(PhyStandard::Dot11g, &m, DataRate::from_mbps(54.0), 1e4);
        let r6 = lb.max_range_for_rate(PhyStandard::Dot11g, &m, DataRate::from_mbps(6.0), 1e4);
        assert!(r6 > r54, "r6={r6} r54={r54}");
        assert!(r54 > 5.0, "54 Mbps should work at close range: {r54}");
    }

    #[test]
    fn max_range_unknown_rate_is_zero() {
        let lb = wifi_g();
        let r = lb.max_range_for_rate(
            PhyStandard::Dot11g,
            &FreeSpace,
            DataRate::from_mbps(33.0),
            1e4,
        );
        assert_eq!(r, 0.0);
    }

    #[test]
    fn capture_effect_threshold() {
        let lb = wifi_g();
        let pl = Db(60.0);
        let weak_interferer = lb.rx_power(Db(85.0));
        assert!(lb.captures(pl, &[weak_interferer], 10.0));
        let strong_interferer = lb.rx_power(Db(58.0));
        assert!(!lb.captures(pl, &[strong_interferer], 10.0));
    }

    #[test]
    fn five_ghz_shorter_range_than_2_4() {
        // §4.3: 802.11a (5 GHz) trades range for a cleaner band.
        let g = wifi_g();
        let a = LinkBudget::for_standard(PhyStandard::Dot11a, Radio::consumer_wifi());
        let m = LogDistance::indoor();
        let rg = g.max_range_for_rate(PhyStandard::Dot11g, &m, DataRate::from_mbps(54.0), 1e4);
        let ra = a.max_range_for_rate(PhyStandard::Dot11a, &m, DataRate::from_mbps(54.0), 1e4);
        assert!(rg > ra, "g range {rg} should exceed a range {ra}");
    }
}
