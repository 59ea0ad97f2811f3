//! Path-loss and shadowing models.
//!
//! These are the standard textbook models (Stallings, the text's
//! reference list): free-space, log-distance with configurable exponent,
//! two-ray ground reflection for long outdoor links, log-normal
//! shadowing for the §6 "black spots" experiment, and a wall-count
//! indoor model.

use crate::geom::{Point, Wall};
use crate::units::{Db, Hertz};

/// A deterministic path-loss model: loss in dB as a function of link
/// geometry and frequency.
pub trait PathLoss {
    /// Path loss over `distance_m` metres at `freq`.
    ///
    /// Implementations must be monotone non-decreasing in distance.
    fn loss(&self, distance_m: f64, freq: Hertz) -> Db;
}

/// Free-space path loss (Friis): `20·log₁₀(4πd/λ)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FreeSpace;

/// Distance floor: below 1 m the far-field formulas are meaningless, so
/// all models clamp (also avoids log(0)).
const MIN_DISTANCE_M: f64 = 1.0;

impl PathLoss for FreeSpace {
    fn loss(&self, distance_m: f64, freq: Hertz) -> Db {
        let d = distance_m.max(MIN_DISTANCE_M);
        let lambda = freq.wavelength_m();
        Db(20.0 * (4.0 * std::f64::consts::PI * d / lambda).log10())
    }
}

/// Log-distance model: free-space up to a reference distance, then a
/// configurable exponent. Exponent 2 = free space; 2.7–3.5 = urban;
/// 4–6 = indoor obstructed.
#[derive(Clone, Copy, Debug)]
pub struct LogDistance {
    /// Reference distance in metres (usually 1 m).
    pub reference_m: f64,
    /// Path-loss exponent beyond the reference distance.
    pub exponent: f64,
}

impl LogDistance {
    /// A typical indoor-office parameterisation (exponent 3.0).
    pub fn indoor() -> Self {
        LogDistance {
            reference_m: 1.0,
            exponent: 3.0,
        }
    }

    /// A typical outdoor-urban parameterisation (exponent 2.9).
    pub fn urban() -> Self {
        LogDistance {
            reference_m: 1.0,
            exponent: 2.9,
        }
    }
}

impl PathLoss for LogDistance {
    fn loss(&self, distance_m: f64, freq: Hertz) -> Db {
        let d = distance_m.max(MIN_DISTANCE_M);
        let ref_loss = FreeSpace.loss(self.reference_m, freq);
        if d <= self.reference_m {
            return ref_loss;
        }
        ref_loss + Db(10.0 * self.exponent * (d / self.reference_m).log10())
    }
}

/// Two-ray ground-reflection model for long outdoor links: beyond the
/// crossover distance the loss grows with d⁴ and becomes independent of
/// frequency; below it, free space applies.
#[derive(Clone, Copy, Debug)]
pub struct TwoRayGround {
    /// Transmitter antenna height, metres.
    pub tx_height_m: f64,
    /// Receiver antenna height, metres.
    pub rx_height_m: f64,
}

impl TwoRayGround {
    /// Crossover distance `4π·ht·hr/λ`.
    pub fn crossover_m(&self, freq: Hertz) -> f64 {
        4.0 * std::f64::consts::PI * self.tx_height_m * self.rx_height_m / freq.wavelength_m()
    }
}

impl PathLoss for TwoRayGround {
    fn loss(&self, distance_m: f64, freq: Hertz) -> Db {
        let d = distance_m.max(MIN_DISTANCE_M);
        let dc = self.crossover_m(freq);
        if d < dc {
            FreeSpace.loss(d, freq)
        } else {
            // PL = 40 log d − 20 log(ht·hr); continuous-enough at dc for
            // simulation purposes.
            Db(40.0 * d.log10() - 20.0 * (self.tx_height_m * self.rx_height_m).log10())
        }
    }
}

/// Indoor model: log-distance plus a fixed loss for every wall the
/// direct ray crosses — the §6 "structures built using steel
/// reinforcing materials" black-spot mechanism.
#[derive(Clone, Debug, Default)]
pub struct IndoorWalls {
    /// The base distance-dependent model.
    pub base: Option<LogDistance>,
    /// The wall layout.
    pub walls: Vec<Wall>,
}

impl IndoorWalls {
    /// Creates an indoor model over the given walls with the standard
    /// indoor exponent.
    pub fn new(walls: Vec<Wall>) -> Self {
        IndoorWalls {
            base: Some(LogDistance::indoor()),
            walls,
        }
    }

    /// The distance-dependent part of the loss: `base`, or free-space
    /// log-distance (exponent 2) when unset.
    pub fn base_model(&self) -> LogDistance {
        self.base.unwrap_or(LogDistance {
            reference_m: 1.0,
            exponent: 2.0,
        })
    }

    /// Total loss between two *positions* (geometry-aware, unlike the
    /// scalar [`PathLoss`] interface).
    pub fn loss_between(&self, from: Point, to: Point, freq: Hertz) -> Db {
        let mut total = self.base_model().loss(from.distance_to(to), freq);
        for w in &self.walls {
            if w.crossed_by(from, to) {
                total = total + Db(w.loss_db);
            }
        }
        total
    }
}

/// Log-normal shadowing: adds a zero-mean Gaussian (in dB) with the
/// given σ to any base model. The draw is *deterministic per link* —
/// hashed from the endpoints — so a given wall/desk arrangement yields
/// a stable shadow map (black spots stay where they are), which is what
/// the §6 coverage experiment needs.
#[derive(Clone, Copy, Debug)]
pub struct Shadowing<M> {
    /// The underlying distance model.
    pub base: M,
    /// Standard deviation of the shadowing term, dB (typically 4–12).
    pub sigma_db: f64,
    /// Seed mixed into the per-link hash (scenario-level).
    pub seed: u64,
}

impl<M> Shadowing<M> {
    /// Deterministic standard-normal draw for a (from, to) link.
    fn unit_normal_for_link(&self, a: Point, b: Point) -> f64 {
        // Hash both endpoints symmetrically so A→B and B→A shadow alike
        // (real shadowing is reciprocal).
        let q = |v: f64| (v * 8.0).round() as i64 as u64;
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for part in [
            q(a.x + b.x),
            q(a.y + b.y),
            q(a.z + b.z),
            q(a.x * b.x + a.y * b.y),
        ] {
            h ^= part.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = h.rotate_left(23).wrapping_mul(0x94D0_49BB_1331_11EB);
        }
        // Two 32-bit halves → Box-Muller.
        let u1 = ((h >> 32) as f64 + 1.0) / (u32::MAX as f64 + 2.0);
        let u2 = ((h & 0xFFFF_FFFF) as f64 + 1.0) / (u32::MAX as f64 + 2.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Loss between two positions including the shadowing term.
    pub fn loss_between(&self, from: Point, to: Point, freq: Hertz) -> Db
    where
        M: PathLoss,
    {
        let base = self.base.loss(from.distance_to(to), freq);
        base + Db(self.sigma_db * self.unit_normal_for_link(from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f24() -> Hertz {
        Hertz::from_ghz(2.4)
    }

    #[test]
    fn free_space_reference_values() {
        // FSPL at 1 m, 2.4 GHz ≈ 40.05 dB.
        let l = FreeSpace.loss(1.0, f24());
        assert!((l.value() - 40.05).abs() < 0.1, "{l}");
        // At 100 m ≈ 80.05 dB (20 dB per decade).
        let l100 = FreeSpace.loss(100.0, f24());
        assert!((l100.value() - 80.05).abs() < 0.1, "{l100}");
    }

    #[test]
    fn free_space_20db_per_decade() {
        let l10 = FreeSpace.loss(10.0, f24()).value();
        let l100 = FreeSpace.loss(100.0, f24()).value();
        assert!((l100 - l10 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn higher_frequency_higher_loss() {
        let l24 = FreeSpace.loss(50.0, Hertz::from_ghz(2.4)).value();
        let l5 = FreeSpace.loss(50.0, Hertz::from_ghz(5.25)).value();
        // 5 GHz loses ~6.8 dB more — why 802.11a has shorter range (§4.3).
        assert!((l5 - l24 - 6.8).abs() < 0.2, "{l5} vs {l24}");
    }

    #[test]
    fn log_distance_exponent() {
        let m = LogDistance {
            reference_m: 1.0,
            exponent: 3.5,
        };
        let l10 = m.loss(10.0, f24()).value();
        let l100 = m.loss(100.0, f24()).value();
        assert!((l100 - l10 - 35.0).abs() < 1e-9);
    }

    #[test]
    fn log_distance_matches_free_space_at_reference() {
        let m = LogDistance::indoor();
        assert!((m.loss(1.0, f24()).value() - FreeSpace.loss(1.0, f24()).value()).abs() < 1e-9);
        assert!((m.loss(0.5, f24()).value() - FreeSpace.loss(1.0, f24()).value()).abs() < 1e-9);
    }

    #[test]
    fn monotonicity_of_all_models() {
        let models: Vec<Box<dyn PathLoss>> = vec![
            Box::new(FreeSpace),
            Box::new(LogDistance::indoor()),
            Box::new(LogDistance::urban()),
            Box::new(TwoRayGround {
                tx_height_m: 10.0,
                rx_height_m: 1.5,
            }),
        ];
        for m in &models {
            let mut prev = f64::NEG_INFINITY;
            for d in [1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 1000.0, 10_000.0, 50_000.0] {
                let l = m.loss(d, f24()).value();
                assert!(l >= prev - 1e-9, "non-monotone at {d}");
                prev = l;
            }
        }
    }

    #[test]
    fn two_ray_crossover_and_d4() {
        let m = TwoRayGround {
            tx_height_m: 30.0,
            rx_height_m: 1.5,
        };
        let dc = m.crossover_m(f24());
        assert!(dc > 1000.0, "dc = {dc}");
        // Below crossover, equals free space.
        assert!((m.loss(100.0, f24()).value() - FreeSpace.loss(100.0, f24()).value()).abs() < 1e-9);
        // Beyond crossover, 40 dB per decade.
        let d1 = dc * 2.0;
        let d2 = dc * 20.0;
        let diff = m.loss(d2, f24()).value() - m.loss(d1, f24()).value();
        assert!((diff - 40.0).abs() < 1e-9, "{diff}");
    }

    #[test]
    fn indoor_walls_add_attenuation() {
        let wall = Wall::new(Point::new(5.0, -10.0), Point::new(5.0, 10.0), 8.0);
        let model = IndoorWalls::new(vec![wall]);
        let a = Point::new(0.0, 0.0);
        let through = Point::new(10.0, 0.0);
        let clear = Point::new(0.0, 10.0);
        let l_through = model.loss_between(a, through, f24()).value();
        let l_clear = model.loss_between(a, clear, f24()).value();
        // Same distance, but one path crosses the wall.
        assert!((l_through - l_clear - 8.0).abs() < 1e-9);
    }

    #[test]
    fn shadowing_is_deterministic_and_reciprocal() {
        let m = Shadowing {
            base: LogDistance::indoor(),
            sigma_db: 8.0,
            seed: 42,
        };
        let a = Point::new(0.0, 0.0);
        let b = Point::new(30.0, 14.0);
        let l1 = m.loss_between(a, b, f24());
        let l2 = m.loss_between(a, b, f24());
        assert_eq!(l1.value(), l2.value());
        let rev = m.loss_between(b, a, f24());
        assert!((l1.value() - rev.value()).abs() < 1e-9, "not reciprocal");
    }

    #[test]
    fn shadowing_varies_across_links_with_right_spread() {
        let m = Shadowing {
            base: FreeSpace,
            sigma_db: 8.0,
            seed: 7,
        };
        let a = Point::new(0.0, 0.0);
        let d = 50.0;
        let base = FreeSpace.loss(d, f24()).value();
        let mut devs = Vec::new();
        for i in 0..500 {
            let angle = i as f64 * 0.02;
            let b = Point::new(d * angle.cos(), d * angle.sin());
            devs.push(m.loss_between(a, b, f24()).value() - base);
        }
        let mean: f64 = devs.iter().sum::<f64>() / devs.len() as f64;
        let sd = (devs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / devs.len() as f64).sqrt();
        assert!(mean.abs() < 1.5, "mean {mean}");
        assert!((sd - 8.0).abs() < 1.5, "sd {sd}");
    }
}
