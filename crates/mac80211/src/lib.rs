//! `wn-mac80211` — the IEEE 802.11 MAC sublayer of §4.
//!
//! Three layers of machinery:
//!
//! 1. **Frame codec** ([`frame`], [`addr`], [`payload`]) — the
//!    nine-field MAC frame of Fig. 1.12, bit-exact, with a real CRC-32
//!    FCS and a shared, immutable body.
//! 2. **MAC mechanisms** ([`duration`], [`dedup`], [`arf`]) — NAV
//!    arithmetic, duplicate filtering, and ARF rate fallback.
//! 3. **The medium simulation** ([`sim`]) — DCF/CSMA-CA over a shared
//!    radio channel with hidden terminals, capture, fragmentation
//!    bursts, RTS/CTS protection and power-save hooks. Higher layers
//!    (the BSS/ESS architecture of §3, in `wn-net80211`) plug in via
//!    [`sim::UpperLayer`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod arena;
pub mod arf;
pub mod dedup;
pub mod duration;
pub mod frame;
pub mod grid;
pub mod loss;
pub mod neighbors;
pub mod payload;
pub mod shard;
pub mod sim;

pub use addr::MacAddr;
pub use arena::{FrameArena, FrameId};
pub use frame::{DsBits, Frame, FrameControl, FrameType, SequenceControl, Subtype};
pub use loss::LossModel;
pub use payload::Payload;
pub use sim::{
    add_source, boot, inject_at, qos_inject_at, AccessCategory, Command, ConfigError, MacConfig,
    MacEvent, PerDecisions, Source, StationId, UpperCtx, UpperLayer, WlanWorld,
};
