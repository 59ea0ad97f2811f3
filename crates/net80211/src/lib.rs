//! `wn-net80211` — the 802.11 logical architecture of §3.
//!
//! Everything the source text's architecture section defines is a
//! concrete type here:
//!
//! - [`ssid`] — the "32-character (maximum) alphanumeric key identifying
//!   the name of the wireless local area network".
//! - [`ie`] — the information-element bodies carried by management
//!   frames (SSID, TIM, association status/AID, authentication).
//! - [`ds`] — the distribution system: "the mechanism by which APs
//!   exchange frames with one another and with wired networks".
//! - [`ap`] — the access point: "a bridge between the wireless STAs and
//!   the existing network backbone", including power-save buffering.
//! - [`sta`] — the station state machine: scan → authenticate →
//!   associate → data transfer, with ESS roaming ("wireless clients can
//!   freely roam from one access point domain to another").
//! - [`builder`] — one-call construction of infrastructure BSSs, ESSs
//!   and ad hoc IBSSs (Figs. 1.9 / 1.10), plus mobility helpers.
//!
//! Each STA, AP and IBSS node owns its observable state as plain
//! fields and lives in the MAC world as its station's upper layer;
//! callers read it back through the world ([`Ess::sta`], [`Ess::ap`],
//! [`Ibss::node`], or `WlanWorld::upper` directly). The distribution
//! system is the one object several APs share, so [`DsHandle`] is the
//! crate's only lock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ap;
pub mod builder;
pub mod ds;
pub mod ie;
pub mod ssid;
pub mod sta;

pub use ap::{ApConfig, ApLogic};
pub use builder::{Ess, EssBuilder, Ibss, IbssBuilder, IbssNode};
pub use ds::{DistributionSystem, DsHandle};
pub use ssid::Ssid;
pub use sta::{StaConfig, StaLogic, StaState};
