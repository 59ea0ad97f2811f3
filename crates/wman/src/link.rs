//! WiMAX link-level model: adaptive modulation over the two §2.3 bands.
//!
//! "At the 2 to 11GHz frequency range it works by non-line-of-sight …
//! Higher frequency transmissions are used for line-of-sight service."
//! The model reflects that: the low band uses a suburban log-distance
//! exponent and tolerates obstruction; the high band uses free-space
//! loss but *requires* line of sight.

use wn_phy::medium::Radio;
use wn_phy::propagation::{FreeSpace, PathLoss, TwoRayGround};
use wn_phy::units::{thermal_noise, DataRate, Db, Dbm, Hertz};

/// The two §2.3 operating bands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WimaxBand {
    /// 2–11 GHz: non-line-of-sight operation ("a computer inside a
    /// building communicates with a tower/antenna outside").
    NonLineOfSight,
    /// 10–66 GHz: line-of-sight, tower-to-tower backhaul.
    LineOfSight,
}

impl WimaxBand {
    /// Representative carrier.
    pub fn frequency(self) -> Hertz {
        match self {
            WimaxBand::NonLineOfSight => Hertz::from_ghz(3.5),
            WimaxBand::LineOfSight => Hertz::from_ghz(28.0),
        }
    }
}

/// An 802.16 burst profile: modulation + coding → spectral efficiency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstProfile {
    /// Profile name (e.g. "64QAM-3/4").
    pub name: &'static str,
    /// Net bits per second per hertz.
    pub efficiency: f64,
    /// Minimum SINR to use this profile (dB).
    pub min_snr_db: f64,
}

/// The standard 802.16 OFDM burst-profile ladder.
pub const PROFILES: [BurstProfile; 7] = [
    BurstProfile {
        name: "BPSK-1/2",
        efficiency: 0.5,
        min_snr_db: 3.0,
    },
    BurstProfile {
        name: "QPSK-1/2",
        efficiency: 1.0,
        min_snr_db: 6.0,
    },
    BurstProfile {
        name: "QPSK-3/4",
        efficiency: 1.5,
        min_snr_db: 8.5,
    },
    BurstProfile {
        name: "16QAM-1/2",
        efficiency: 2.0,
        min_snr_db: 11.5,
    },
    BurstProfile {
        name: "16QAM-3/4",
        efficiency: 3.0,
        min_snr_db: 15.0,
    },
    BurstProfile {
        name: "64QAM-2/3",
        efficiency: 3.0,
        min_snr_db: 19.0,
    },
    BurstProfile {
        name: "64QAM-3/4",
        efficiency: 3.5,
        min_snr_db: 21.0,
    },
];

/// A BS↔SS link evaluator.
#[derive(Clone, Debug)]
pub struct WimaxLink {
    /// Operating band.
    pub band: WimaxBand,
    /// Channel bandwidth (the model uses 20 MHz → 70 Mbps at top
    /// profile, the text's number).
    pub bandwidth: Hertz,
    /// Base-station radio.
    pub bs_radio: Radio,
    /// Base-station antenna height (drives the two-ray model).
    pub bs_height_m: f64,
    /// Subscriber antenna height.
    pub ss_height_m: f64,
}

impl Default for WimaxLink {
    fn default() -> Self {
        WimaxLink {
            band: WimaxBand::NonLineOfSight,
            bandwidth: Hertz::from_mhz(20.0),
            bs_radio: Radio::wimax_base_station(),
            bs_height_m: 50.0,
            ss_height_m: 10.0,
        }
    }
}

/// A [`WimaxLink`] the model cannot evaluate, from
/// [`WimaxLink::validate`] and [`BaseStation::try_new`](crate::BaseStation::try_new);
/// the message names the offending field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkError(pub String);

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid WimaxLink: {}", self.0)
    }
}

impl std::error::Error for LinkError {}

impl WimaxLink {
    /// Rejects a non-positive or non-finite `bandwidth`, `bs_height_m`
    /// or `ss_height_m`, naming the field. Any of them would turn the
    /// noise floor or the two-ray loss into NaN or infinity.
    pub fn validate(&self) -> Result<(), LinkError> {
        for (field, v) in [
            ("bandwidth", self.bandwidth.0),
            ("bs_height_m", self.bs_height_m),
            ("ss_height_m", self.ss_height_m),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(LinkError(format!(
                    "{field} must be positive and finite, got {v}"
                )));
            }
        }
        Ok(())
    }

    /// SNR at `distance_m`; `obstructed` marks a blocked path.
    ///
    /// In the LOS band an obstructed path yields no signal at all
    /// ("Short frequency transmissions are not easily disrupted by
    /// physical obstructions" — but high ones are).
    pub fn snr_at(&self, distance_m: f64, obstructed: bool) -> Option<Db> {
        let f = self.band.frequency();
        let loss = match self.band {
            WimaxBand::LineOfSight => {
                if obstructed {
                    return None;
                }
                FreeSpace.loss(distance_m, f)
            }
            WimaxBand::NonLineOfSight => {
                let two_ray = TwoRayGround {
                    tx_height_m: self.bs_height_m,
                    rx_height_m: self.ss_height_m,
                };
                let base = two_ray.loss(distance_m, f);
                let penalty = if obstructed {
                    // Building penetration + diffraction margin.
                    Db(15.0)
                } else {
                    Db(0.0)
                };
                base + penalty
            }
        };
        let rx = self.bs_radio.tx_power + self.bs_radio.tx_gain + self.bs_radio.rx_gain - loss;
        let noise = thermal_noise(self.bandwidth, self.bs_radio.noise_figure);
        Some(rx - noise)
    }

    /// The burst profile usable at `distance_m`, if any.
    pub fn profile_at(&self, distance_m: f64, obstructed: bool) -> Option<BurstProfile> {
        let snr = self.snr_at(distance_m, obstructed)?;
        PROFILES
            .iter()
            .rev()
            .find(|p| snr.value() >= p.min_snr_db)
            .copied()
    }

    /// Net data rate at `distance_m`.
    pub fn rate_at(&self, distance_m: f64, obstructed: bool) -> Option<DataRate> {
        let p = self.profile_at(distance_m, obstructed)?;
        Some(DataRate(p.efficiency * self.bandwidth.hz()))
    }

    /// The peak rate of the link (top profile × bandwidth).
    pub fn peak_rate(&self) -> DataRate {
        DataRate(PROFILES[PROFILES.len() - 1].efficiency * self.bandwidth.hz())
    }

    /// Receiver noise floor (useful for reporting).
    pub fn noise_floor(&self) -> Dbm {
        thermal_noise(self.bandwidth, self.bs_radio.noise_figure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rate_is_the_texts_70_mbps() {
        let l = WimaxLink::default();
        assert!((l.peak_rate().mbps() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn profile_ladder_is_ordered() {
        for w in PROFILES.windows(2) {
            assert!(w[1].efficiency >= w[0].efficiency);
            assert!(w[1].min_snr_db > w[0].min_snr_db);
        }
    }

    #[test]
    fn rate_decreases_with_distance() {
        let l = WimaxLink::default();
        let mut last = f64::INFINITY;
        for km in [1.0, 5.0, 10.0, 20.0, 35.0, 50.0] {
            if let Some(r) = l.rate_at(km * 1000.0, false) {
                assert!(r.mbps() <= last, "rate rose at {km} km");
                last = r.mbps();
            }
        }
    }

    #[test]
    fn close_subscribers_get_top_profile() {
        let l = WimaxLink::default();
        let p = l.profile_at(1_000.0, false).unwrap();
        assert_eq!(p.name, "64QAM-3/4");
        assert!((l.rate_at(1_000.0, false).unwrap().mbps() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_reaches_tens_of_km_nlos() {
        // "over a distance of 50 km": the NLOS band with tall masts
        // still closes a low-order link at 50 km.
        let l = WimaxLink::default();
        let r = l.rate_at(50_000.0, false);
        assert!(r.is_some(), "no coverage at 50 km");
        let r = r.unwrap().mbps();
        assert!(r >= 10.0, "only {r} Mbps at 50 km");
    }

    #[test]
    fn los_band_dies_when_obstructed() {
        let l = WimaxLink {
            band: WimaxBand::LineOfSight,
            ..WimaxLink::default()
        };
        assert!(l.rate_at(5_000.0, false).is_some());
        assert!(
            l.rate_at(5_000.0, true).is_none(),
            "LOS band needs line of sight"
        );
        // The NLOS band keeps working through obstructions (at reduced rate).
        let n = WimaxLink::default();
        let clear = n.rate_at(5_000.0, false).unwrap().mbps();
        let blocked = n.rate_at(5_000.0, true).unwrap().mbps();
        assert!(blocked <= clear);
    }

    #[test]
    fn los_band_longer_reach_tower_to_tower() {
        // "Higher frequency transmissions are used for line-of-sight
        // service … communicate with each other over a greater
        // distance" — with clear LOS the high band still closes links
        // far out.
        let l = WimaxLink {
            band: WimaxBand::LineOfSight,
            ..WimaxLink::default()
        };
        assert!(l.rate_at(30_000.0, false).is_some());
    }

    #[test]
    fn snr_none_only_when_obstructed_los() {
        let l = WimaxLink::default();
        assert!(l.snr_at(10_000.0, true).is_some());
        let los = WimaxLink {
            band: WimaxBand::LineOfSight,
            ..WimaxLink::default()
        };
        assert!(los.snr_at(10_000.0, true).is_none());
    }
}
