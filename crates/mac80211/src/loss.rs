//! Propagation descriptions: what a [`WlanWorld`](crate::sim::WlanWorld)
//! knows about its path-loss model, and therefore how it may compute
//! received power.
//!
//! The §6 mechanisms split two ways. Log-distance loss and walls
//! (which only ever *add* loss, the steel-reinforced black spots) are
//! static, and their loss never drops below a distance-only floor —
//! so every station beyond the distance at which the floor alone
//! silences the strongest radio pair is inaudible, and the world can
//! memoize received powers in sparse rows keyed by a spatial grid
//! with that distance as its cell edge. Fading varies in time, and
//! log-normal shadowing has no floor (its Gaussian term is
//! unbounded below), so those worlds evaluate every transmission
//! directly. The world reads the path off the description; callers
//! never choose it.

use wn_phy::geom::Point;
use wn_phy::propagation::{IndoorWalls, PathLoss, Shadowing};
use wn_phy::units::{Db, Hertz};
use wn_sim::SimTime;

/// A static loss between two positions at a carrier frequency.
pub type StaticLoss = Box<dyn Fn(Point, Point, Hertz) -> Db + Send>;

/// A loss that also depends on simulated time (fading).
pub type TimeVaryingLoss = Box<dyn Fn(Point, Point, Hertz, SimTime) -> Db + Send>;

/// How a world computes path loss.
pub enum LossModel {
    /// Loss is a pure function of the link geometry.
    Static {
        /// Loss between two positions.
        loss: StaticLoss,
        /// A distance-only model the real loss never goes below: for
        /// every pair `a`, `b`, `loss(a, b, f) >= floor.loss(|ab|, f)`.
        /// Like every [`PathLoss`], it must be monotone in distance.
        /// `None` declares the loss unbounded below (shadowing).
        floor: Option<Box<dyn PathLoss + Send>>,
    },
    /// Loss varies with simulated time (fading): nothing about it can
    /// be memoized or bounded.
    TimeVarying(TimeVaryingLoss),
}

impl LossModel {
    /// An isotropic distance model, e.g. log-distance: the model is
    /// its own floor.
    pub fn distance<M: PathLoss + Clone + Send + 'static>(model: M) -> Self {
        let floor = Box::new(model.clone());
        LossModel::Static {
            loss: Box::new(move |a, b, f| model.loss(a.distance_to(b), f)),
            floor: Some(floor),
        }
    }

    /// An indoor floor plan. Walls only add loss, so the log-distance
    /// base bounds it — unless a wall carries a negative (or NaN)
    /// loss, which could lift a link above the base; such a plan is
    /// declared unbounded and evaluated directly.
    pub fn walls(plan: IndoorWalls) -> Self {
        let floor: Option<Box<dyn PathLoss + Send>> = plan
            .walls
            .iter()
            .all(|w| w.loss_db >= 0.0)
            .then(|| Box::new(plan.base_model()) as Box<dyn PathLoss + Send>);
        LossModel::Static {
            loss: Box::new(move |a, b, f| plan.loss_between(a, b, f)),
            floor,
        }
    }

    /// Log-normal shadowing over a distance model: static, but its
    /// Gaussian term has no lower bound.
    pub fn shadowing<M: PathLoss + Send + 'static>(model: Shadowing<M>) -> Self {
        LossModel::Static {
            loss: Box::new(move |a, b, f| model.loss_between(a, b, f)),
            floor: None,
        }
    }

    /// A time-varying model (fading).
    pub fn time_varying(
        loss: impl Fn(Point, Point, Hertz, SimTime) -> Db + Send + 'static,
    ) -> Self {
        LossModel::TimeVarying(Box::new(loss))
    }

    /// Loss between `a` and `b` at `freq` and time `now`.
    #[inline]
    pub fn loss(&self, a: Point, b: Point, freq: Hertz, now: SimTime) -> Db {
        match self {
            LossModel::Static { loss, .. } => loss(a, b, freq),
            LossModel::TimeVarying(loss) => loss(a, b, freq, now),
        }
    }

    /// The distance floor, present only for static bounded models —
    /// exactly the models whose received powers the world caches.
    pub fn floor(&self) -> Option<&dyn PathLoss> {
        match self {
            LossModel::Static {
                floor: Some(floor), ..
            } => Some(floor.as_ref()),
            _ => None,
        }
    }
}
