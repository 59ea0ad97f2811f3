//! `wn-wman` — WiMAX / IEEE 802.16 metropolitan-area networks (§2.3).
//!
//! "WiMAX is a communications technology that supports point to
//! multipoint architecture … operates on two frequency bands … from
//! 2 GHz to 11 GHz and from 10 GHz to 66 GHz, and can transfer around
//! 70 Mbps over a distance of 50 km to thousands of users from a single
//! base station."
//!
//! - [`link`] — per-subscriber adaptive modulation from the link
//!   budget, with the NLOS (2–11 GHz) vs LOS (10–66 GHz) split.
//! - [`scheduler`] — the frame-based point-to-multipoint MAC with
//!   802.16 service-flow classes (UGS / rtPS / nrtPS / BE).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod scheduler;

pub use link::{LinkError, WimaxBand, WimaxLink};
pub use scheduler::{BaseStation, ServiceClass, SubscriberId};
