//! The shared-medium 802.11 MAC simulation.
//!
//! This module binds the frame codec, DCF timing, duplicate detection
//! and ARF together into an event-driven model of one collision domain:
//!
//! - **Physical carrier sense** — a station defers while any
//!   transmission it can hear (above the CS threshold) is in the air.
//! - **Virtual carrier sense (NAV)** — Duration fields of overheard
//!   frames reserve the medium (§4.2), enabling RTS/CTS protection.
//! - **Channel access** — one DCF/EDCA engine (`access.rs`): per-queue
//!   AIFS + binary-exponential-backoff slotted contention,
//!   freeze-and-resume on busy, post-transmission backoff; DCF is the
//!   one-queue case with AIFS = DIFS.
//! - **Reliability** — ACKs after SIFS, retries with the Retry bit,
//!   short/long retry limits, CW doubling and reset.
//! - **Fragmentation** — §4.2 More Fragments / fragment numbers; a
//!   fragment burst holds the medium with SIFS gaps.
//! - **Reception** — SINR-based error sampling over the interferer set,
//!   with the capture effect switchable (a DESIGN.md ablation).
//!
//! Higher layers (association, beacons, the distribution system — the
//! `wn-net80211` crate) plug in through the [`UpperLayer`] trait and
//! drive the MAC with [`Command`]s.
//!
//! This file holds the world, its configuration and events, queueing
//! and the transmit path. Four child modules work on the same private
//! state:
//!
//! - `access.rs` — the DCF/EDCA channel-access engine;
//! - `reception.rs` — the end of a transmission: SINR decisions,
//!   delivery, ACK/CTS handling, retries and response timeouts;
//! - `qos.rs` — the 802.11e A-MPDU exchange and its block ack;
//! - `source.rs` — injections and periodic traffic sources.
//!
//! The propagation glue (received power, the neighbor cache and its
//! spatial grid, mobility) is in [`crate::neighbors`], and the shard
//! planner in [`crate::shard`].

use std::any::Any;
use std::collections::{HashMap, VecDeque};

#[path = "access.rs"]
mod access;
#[path = "qos.rs"]
mod qos;
#[path = "reception.rs"]
mod reception;
#[path = "source.rs"]
mod source;

use crate::addr::MacAddr;
use crate::arena::{FrameArena, FrameId};
use crate::arf::{Arf, ArfParams};
use crate::dedup::DedupCache;
use crate::duration::{airtime, data_duration, rts_duration};
use crate::frame::{Frame, FrameType, SequenceControl, SequenceCounter, Subtype};
use crate::grid::SpatialGrid;
use crate::loss::LossModel;
use crate::neighbors::{AudibleSet, IdBitSet, NeighborCache, RxRow};
use access::TxQueues;
pub use source::{add_source, inject_at, qos_inject_at, Source};
use wn_phy::geom::Point;
use wn_phy::medium::{LinkBudget, Radio};
use wn_phy::modulation::{PhyStandard, RateStep};
use wn_phy::propagation::LogDistance;
use wn_phy::units::Dbm;
use wn_sim::metrics::{MetricsRegistry, MetricsSnapshot};
use wn_sim::stats::{Histogram, Summary, TimeWeighted};
use wn_sim::trace::{DropReason, FrameKind, Level, Trace, TraceEvent};
use wn_sim::{Rng, Scheduler, SimDuration, SimTime, World};

/// Maps an 802.11 frame subtype onto the protocol-agnostic trace
/// [`FrameKind`].
pub fn frame_kind(subtype: Subtype) -> FrameKind {
    match subtype {
        Subtype::AssocReq => FrameKind::AssocReq,
        Subtype::AssocResp => FrameKind::AssocResp,
        Subtype::ReassocReq => FrameKind::ReassocReq,
        Subtype::ReassocResp => FrameKind::ReassocResp,
        Subtype::ProbeReq => FrameKind::ProbeReq,
        Subtype::ProbeResp => FrameKind::ProbeResp,
        Subtype::Beacon => FrameKind::Beacon,
        Subtype::Atim => FrameKind::Atim,
        Subtype::Disassoc => FrameKind::Disassoc,
        Subtype::Auth => FrameKind::Auth,
        Subtype::Deauth => FrameKind::Deauth,
        Subtype::PsPoll => FrameKind::PsPoll,
        Subtype::Rts => FrameKind::Rts,
        Subtype::Cts => FrameKind::Cts,
        Subtype::Ack => FrameKind::Ack,
        Subtype::Data => FrameKind::Data,
        Subtype::NullData => FrameKind::NullData,
        Subtype::QosData => FrameKind::QosData,
        Subtype::BlockAckReq => FrameKind::BlockAckReq,
        Subtype::BlockAck => FrameKind::BlockAck,
    }
}

/// Index of a station within a [`WlanWorld`].
pub type StationId = usize;

/// MAC-level configuration shared by all stations in the world.
#[derive(Clone, Debug)]
pub struct MacConfig {
    /// The PHY generation everyone runs.
    pub standard: PhyStandard,
    /// Frames at least this long (bytes) are protected with RTS/CTS.
    pub rts_threshold: usize,
    /// MSDUs longer than this (bytes) are fragmented.
    pub frag_threshold: usize,
    /// Retry limit for short frames (below the RTS threshold) and RTS.
    pub retry_limit_short: u32,
    /// Retry limit for long frames.
    pub retry_limit_long: u32,
    /// Carrier-sense threshold: transmissions weaker than this at a
    /// receiver are inaudible (and become hidden-terminal interference).
    pub cs_threshold: Dbm,
    /// `true` → SINR-based capture; `false` → any overlap destroys the
    /// frame (the pure collision model).
    pub capture: bool,
    /// Enable ARF rate adaptation (off pins the top rate).
    pub arf: bool,
    /// Use AARF (adaptive probe backoff) instead of classic ARF.
    pub arf_adaptive: bool,
    /// Per-station transmit queue limit (MSDUs); overflow is dropped.
    pub queue_limit: usize,
    /// RNG seed for backoff draws and error sampling.
    pub seed: u64,
    /// Override the PHY's CWmin (binary-exponential-backoff ablation).
    pub cw_min_override: Option<u32>,
    /// Override the PHY's CWmax.
    pub cw_max_override: Option<u32>,
    /// Fault-injection switch for the fuzzer's oracle self-test: when
    /// set, the retry comparison is widened by one, so stations retry
    /// once past the configured limit. Never enabled by normal
    /// scenarios; `wn-check` uses it to prove the retry oracle can
    /// catch an off-by-one accounting bug.
    pub failpoint_retry_overrun: bool,
    /// Enable EDCA (802.11e) channel access: stations get four
    /// access-category queues with per-AC CWmin/CWmax/AIFSN/TXOP and
    /// transmit A-MPDU aggregates answered by compressed block acks.
    /// Off (the default), every station has one DCF queue and sends
    /// legacy frames, byte-identical to pre-EDCA builds.
    pub edca: bool,
    /// Maximum MPDUs aggregated into one A-MPDU (further capped by the
    /// AC's TXOP budget and the 64-bit block-ack window).
    pub ampdu_max_mpdus: usize,
    /// Maximum total payload bytes aggregated into one A-MPDU.
    pub ampdu_max_bytes: usize,
    /// Independent per-MPDU loss probability applied at a receiver
    /// that decoded the aggregate PPDU — models delimiter/CRC failures
    /// inside an otherwise-received burst, and is what makes *partial*
    /// block acks reachable. 0.0 (the default) acks all-or-nothing
    /// with the PPDU.
    pub ampdu_per_mpdu_loss: f64,
    /// Fault-injection switch for the priority-inversion oracle's
    /// self-test: swaps the AC_VO and AC_BK EDCA parameter sets in the
    /// world's queue parameter table, so voice contends like background
    /// traffic and the VO-p50 ≤ BK-p50 bound must trip. Never enabled
    /// by normal scenarios.
    pub failpoint_aifsn_swap: bool,
}

/// An 802.11e access category, highest priority first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessCategory {
    /// Voice.
    Vo,
    /// Video.
    Vi,
    /// Best effort.
    Be,
    /// Background.
    Bk,
}

impl AccessCategory {
    /// All categories, highest priority first.
    pub const ALL: [AccessCategory; 4] = [
        AccessCategory::Vo,
        AccessCategory::Vi,
        AccessCategory::Be,
        AccessCategory::Bk,
    ];

    /// Queue index (0 = VO … 3 = BK).
    pub fn index(self) -> usize {
        match self {
            AccessCategory::Vo => 0,
            AccessCategory::Vi => 1,
            AccessCategory::Be => 2,
            AccessCategory::Bk => 3,
        }
    }

    /// Inverse of [`index`](Self::index).
    pub fn from_index(i: usize) -> Option<AccessCategory> {
        AccessCategory::ALL.get(i).copied()
    }

    /// Short label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            AccessCategory::Vo => "vo",
            AccessCategory::Vi => "vi",
            AccessCategory::Be => "be",
            AccessCategory::Bk => "bk",
        }
    }
}

/// The EDCA contention parameter set of one access category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdcaParams {
    /// CWmin for this category.
    pub cw_min: u32,
    /// CWmax for this category.
    pub cw_max: u32,
    /// AIFSN (slots after SIFS before backoff counts down).
    pub aifsn: u8,
    /// TXOP limit in microseconds; 0 means a single-MPDU-equivalent
    /// "no TXOP" grant with no aggregate duration cap.
    pub txop_us: u64,
}

impl MacConfig {
    /// A sensible default configuration for the given standard.
    pub fn new(standard: PhyStandard) -> Self {
        MacConfig {
            standard,
            rts_threshold: usize::MAX,
            frag_threshold: usize::MAX,
            retry_limit_short: 7,
            retry_limit_long: 4,
            cs_threshold: Dbm(-82.0),
            capture: true,
            arf: true,
            arf_adaptive: false,
            queue_limit: 64,
            seed: 1,
            cw_min_override: None,
            cw_max_override: None,
            failpoint_retry_overrun: false,
            edca: false,
            ampdu_max_mpdus: 16,
            ampdu_max_bytes: 65_535,
            ampdu_per_mpdu_loss: 0.0,
            failpoint_aifsn_swap: false,
        }
    }

    /// The EDCA parameter set of an access category (802.11e defaults:
    /// VO/VI shrink the contention window and VO/VI get TXOP grants;
    /// BE/BK inherit the PHY's CW bounds, BK waits a longer AIFS).
    /// [`WlanWorld::new`] builds its queue parameter table from these,
    /// applying the AIFSN-swap failpoint there.
    pub fn edca_params(&self, ac: AccessCategory) -> EdcaParams {
        match ac {
            AccessCategory::Vo => EdcaParams {
                cw_min: 3,
                cw_max: 7,
                aifsn: 2,
                txop_us: 1_504,
            },
            AccessCategory::Vi => EdcaParams {
                cw_min: 7,
                cw_max: 15,
                aifsn: 2,
                txop_us: 3_008,
            },
            AccessCategory::Be => EdcaParams {
                cw_min: self.cw_min(),
                cw_max: self.cw_max(),
                aifsn: 3,
                txop_us: 0,
            },
            AccessCategory::Bk => EdcaParams {
                cw_min: self.cw_min(),
                cw_max: self.cw_max(),
                aifsn: 7,
                txop_us: 0,
            },
        }
    }

    /// Checks the fields the MAC cannot run with; the error names the
    /// offending field. [`WlanWorld::try_new`] returns a configuration
    /// that fails here as a [`ConfigError`], and [`WlanWorld::new`]
    /// panics with it — a zero fragmentation threshold, for one, would
    /// otherwise split every MSDU into empty fragments forever.
    pub fn validate(&self) -> Result<(), String> {
        if self.frag_threshold == 0 {
            return Err("frag_threshold must be >= 1".into());
        }
        if self.queue_limit == 0 {
            return Err("queue_limit must be >= 1".into());
        }
        if self.ampdu_max_mpdus == 0 {
            return Err("ampdu_max_mpdus must be >= 1".into());
        }
        if self.ampdu_max_bytes == 0 {
            return Err("ampdu_max_bytes must be >= 1".into());
        }
        if self.cw_min() > self.cw_max() {
            return Err(format!(
                "cw_min_override/cw_max_override: CWmin {} exceeds CWmax {}",
                self.cw_min(),
                self.cw_max()
            ));
        }
        if !(0.0..=1.0).contains(&self.ampdu_per_mpdu_loss) {
            return Err(format!(
                "ampdu_per_mpdu_loss must be in [0, 1], got {}",
                self.ampdu_per_mpdu_loss
            ));
        }
        if !self.cs_threshold.value().is_finite() {
            return Err(format!(
                "cs_threshold must be finite, got {:?}",
                self.cs_threshold
            ));
        }
        Ok(())
    }

    /// The effective CWmin after overrides.
    pub fn cw_min(&self) -> u32 {
        self.cw_min_override
            .unwrap_or(self.standard.mac_timing().cw_min)
    }

    /// The effective CWmax after overrides.
    pub fn cw_max(&self) -> u32 {
        self.cw_max_override
            .unwrap_or(self.standard.mac_timing().cw_max)
    }
}

/// A [`MacConfig`] the MAC cannot run with, from
/// [`WlanWorld::try_new`]; the message names the offending field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid MacConfig: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Commands an [`UpperLayer`] issues back into the MAC.
#[derive(Debug)]
pub enum Command {
    /// Queue a frame for transmission (the MAC assigns sequence
    /// numbers and handles fragmentation, retries and rate control).
    SendFrame(Frame),
    /// Request an [`UpperLayer::on_timer`] callback after a delay.
    SetTimer {
        /// Delay from now.
        delay: SimDuration,
        /// Opaque tag returned in the callback.
        tag: u64,
    },
    /// Set the Power Management bit on subsequent frames (§4.2).
    SetPowerManagement(bool),
    /// Doze or wake the radio: a dozing station neither receives nor
    /// carrier-senses.
    SetAwake(bool),
    /// Switch to another channel (1–14 at 2.4 GHz); transmissions on
    /// other channels are neither heard nor interfering.
    SetChannel(u8),
    /// Deliver an [`UpperLayer::on_timer`] callback to *another*
    /// station after `delay` — the out-of-band signalling path of a
    /// wired distribution system (§3.1: "In nearly all commercial
    /// products, wired Ethernet is used as the backbone").
    SignalStation {
        /// Target station.
        station: StationId,
        /// Opaque tag delivered to the target.
        tag: u64,
        /// Wire latency.
        delay: SimDuration,
    },
    /// Record a typed trace event in the world's trace — the
    /// instrumentation path for upper layers (association, roaming,
    /// power save live in `wn-net80211`, above the MAC).
    Trace {
        /// Record importance.
        level: Level,
        /// The event payload.
        event: TraceEvent,
    },
}

/// Context handed to [`UpperLayer`] callbacks.
pub struct UpperCtx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// This station's MAC address.
    pub addr: MacAddr,
    /// This station's id.
    pub id: StationId,
    commands: &'a mut Vec<Command>,
}

impl UpperCtx<'_> {
    /// Queues a frame for transmission.
    pub fn send(&mut self, frame: Frame) {
        self.commands.push(Command::SendFrame(frame));
    }

    /// Requests a timer callback.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.commands.push(Command::SetTimer { delay, tag });
    }

    /// Issues any other command.
    pub fn command(&mut self, cmd: Command) {
        self.commands.push(cmd);
    }

    /// Records a typed trace event attributed to this station.
    pub fn emit(&mut self, level: Level, event: TraceEvent) {
        self.commands.push(Command::Trace { level, event });
    }
}

/// The interface the architecture layer implements on top of the MAC.
///
/// An upper layer owns its state as plain fields; callers read it back
/// (or queue work into it) through [`WlanWorld::upper`] /
/// [`WlanWorld::upper_mut`], which the `Any` supertrait makes a
/// downcast. `Send` is a supertrait so whole worlds can migrate onto
/// shard executor threads (DESIGN.md §15).
pub trait UpperLayer: Any + Send {
    /// Called once when the simulation boots.
    fn on_start(&mut self, ctx: &mut UpperCtx) {
        let _ = ctx;
    }

    /// A decoded, deduplicated frame addressed to this station (or
    /// broadcast), with its received signal strength. Control
    /// ACK/RTS/CTS are consumed by the MAC and not delivered; PS-Poll
    /// *is* delivered (the AP must react).
    fn on_frame(&mut self, ctx: &mut UpperCtx, frame: &Frame, rssi: Dbm) {
        let _ = (ctx, frame, rssi);
    }

    /// Final outcome of a queued frame: delivered (ACKed / broadcast
    /// sent) or dropped after the retry limit.
    fn on_tx_result(&mut self, ctx: &mut UpperCtx, frame: &Frame, success: bool) {
        let _ = (ctx, frame, success);
    }

    /// A timer requested via [`Command::SetTimer`] fired.
    fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
        let _ = (ctx, tag);
    }
}

/// A do-nothing upper layer for raw-MAC experiments.
#[derive(Default)]
pub struct NullUpper;

impl UpperLayer for NullUpper {}

/// Per-station counters exposed to experiments.
#[derive(Clone, Debug, Default)]
pub struct StationStats {
    /// Data/management MSDUs queued.
    pub queued: u64,
    /// MSDUs refused at enqueue: queue overflow, or on an EDCA world
    /// a body too long for an A-MPDU subframe's 16-bit length.
    pub queue_drops: u64,
    /// Frames put on the air (including control and retries).
    pub tx_frames: u64,
    /// Retransmissions.
    pub retries: u64,
    /// MSDUs abandoned at the retry limit.
    pub tx_failures: u64,
    /// MSDUs successfully completed (ACKed, or broadcast sent).
    pub tx_completions: u64,
    /// Frames decoded and accepted (addressed to us, not duplicate).
    pub rx_accepted: u64,
    /// Duplicates discarded.
    pub rx_duplicates: u64,
    /// Frames destroyed by collision/noise at this receiver.
    pub rx_errors: u64,
    /// Payload bytes delivered up the stack.
    pub rx_payload_bytes: u64,
    /// Microseconds this station spent transmitting (all frame kinds,
    /// retries included) — the airtime-fairness numerator.
    pub tx_airtime_us: u64,
    /// MAC access delay (µs) of each completed MSDU.
    pub access_delay_us: Summary,
}

/// One MSDU queued for transmission. The frame itself lives in the
/// world's [`FrameArena`]; a queue entry is two words.
struct Msdu {
    frame: FrameId,
    enqueued: SimTime,
}

/// The in-flight attempt for the head-of-line MSDU.
struct Attempt {
    msdu: Msdu,
    /// Remaining fragment byte ranges of the MSDU's body (index 0 =
    /// next to send). A fragment's body is a window onto the MSDU's,
    /// sliced out at build time.
    frag_ranges: VecDeque<(usize, usize)>,
    frag_number: u8,
    short_retries: u32,
    long_retries: u32,
    use_rts: bool,
    cts_received: bool,
    rate: RateStep,
    is_retry: bool,
    /// The fully-built wire frame for the pending fragment (arena id,
    /// one reference held here), cached so retries of the same fragment
    /// do not re-clone header and body. Released and cleared whenever a
    /// field that feeds the build changes (fragment advance, retry-bit
    /// flip).
    built: Option<FrameId>,
}

/// What the station is currently waiting for after transmitting.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Expecting {
    Cts,
    Ack,
    BlockAck,
}

/// A scheduled SIFS response (ACK/CTS) or follow-on fragment.
enum PendingTx {
    Control(Frame),
    NextFragment,
    DataAfterCts,
}

pub(crate) struct Station {
    addr: MacAddr,
    pub(crate) pos: Point,
    pub(crate) radio: Radio,
    power_mgmt: bool,
    upper: Option<Box<dyn UpperLayer>>,
    /// The legacy exchange in progress (the DCF queue's head MSDU).
    current: Option<Attempt>,
    seq: SequenceCounter,
    dedup: DedupCache,
    arf: Arf,
    reassembly: HashMap<(MacAddr, u16), Vec<u8>>,
    pending: Option<(PendingTx, u64)>,
    stats: StationStats,
    /// Which queue's A-MPDU is on the air / awaiting its block ack
    /// (EDCA worlds only).
    tx_ac: Option<usize>,
}

/// Per-station carrier-sense and timer state, flattened into parallel
/// vectors (struct-of-arrays), indexed by [`StationId`]. The per-queue
/// backoff columns live in [`TxQueues`].
///
/// These are exactly the fields the per-event hot path touches for
/// stations *other* than the event's own — busy/idle edges, NAV
/// updates, audibility bookkeeping, contender re-arms. Packing each
/// field contiguously keeps those cross-station sweeps on a handful
/// of cache lines instead of striding across whole [`Station`]
/// structs (queues, dedup tables, reassembly maps, stats) hundreds of
/// bytes apart.
#[derive(Default)]
struct DcfState {
    /// Virtual carrier sense: the NAV reservation horizon.
    nav_until: Vec<SimTime>,
    /// In-flight transmissions this station can hear (physical CS).
    audible: Vec<AudibleSet>,
    /// The record id of this station's own in-flight transmission.
    transmitting: Vec<Option<u64>>,
    /// When the currently-armed access timer started counting.
    access_armed_at: Vec<Option<SimTime>>,
    /// Generation guard invalidating stale scheduled timers.
    timer_gen: Vec<u64>,
    /// The response (CTS/ACK) this station is waiting for, if any.
    expecting: Vec<Option<(Expecting, u64)>>,
    /// The channel the station's radio is tuned to.
    channel: Vec<u8>,
    /// Whether the radio is awake (power save puts it to sleep).
    awake: Vec<bool>,
}

impl DcfState {
    /// Appends one station's worth of initial state.
    fn push(&mut self) {
        self.nav_until.push(SimTime::ZERO);
        self.audible.push(AudibleSet::default());
        self.transmitting.push(None);
        self.access_armed_at.push(None);
        self.timer_gen.push(0);
        self.expecting.push(None);
        self.channel.push(1);
        self.awake.push(true);
    }

    /// Pre-sizes every column for `additional` more stations.
    fn reserve(&mut self, additional: usize) {
        self.nav_until.reserve(additional);
        self.audible.reserve(additional);
        self.transmitting.reserve(additional);
        self.access_armed_at.reserve(additional);
        self.timer_gen.reserve(additional);
        self.expecting.reserve(additional);
        self.channel.reserve(additional);
        self.awake.reserve(additional);
    }
}

/// A transmission on the medium (possibly already finished, retained
/// until no frame still on the air can overlap it).
struct TxRecord {
    id: u64,
    src: StationId,
    channel: u8,
    /// The wire frame (arena id; this record holds one reference) —
    /// shared with every successful receiver and with the sender's
    /// build cache instead of deep-cloned per reception.
    frame: FrameId,
    rate: RateStep,
    start: SimTime,
    end: SimTime,
    /// Received power per station (with the bit-exact linear-milliwatt
    /// mirror inside) — a start-time snapshot shared with the neighbor
    /// cache (copy-on-write: mobility after tx start patches the
    /// cache, not this row). Sparse grid-backed rows answer −∞ for
    /// stations beyond the transmitter's cell neighborhood, which are
    /// below the carrier-sense floor by construction. Its entries at or
    /// above the CS threshold ([`RxRow::audible`]) are the only
    /// stations busy-edge delivery and reception decisions visit.
    rx_power: RxRow,
    done: bool,
}

/// Events driving the MAC world.
pub enum MacEvent {
    /// Deliver `UpperLayer::on_start` to every station.
    Boot,
    /// A transmission finished; receivers decide reception.
    TxEnd {
        /// Record id.
        tx_id: u64,
    },
    /// A station's earliest queue finished AIFS + backoff; the winning
    /// queue transmits if the timer is still valid.
    AccessTimer {
        /// Station whose timer fired.
        station: StationId,
        /// Generation guard against stale timers.
        gen: u64,
    },
    /// CTS/ACK did not arrive in time.
    ResponseTimeout {
        /// Waiting station.
        station: StationId,
        /// Generation guard.
        gen: u64,
    },
    /// A SIFS-spaced response or burst continuation is due.
    SifsAction {
        /// Responding station.
        station: StationId,
        /// Generation guard.
        gen: u64,
    },
    /// The NAV reservation expired; re-evaluate channel access.
    NavExpired {
        /// Station whose NAV ended.
        station: StationId,
    },
    /// An upper-layer timer fired.
    UpperTimer {
        /// Target station.
        station: StationId,
        /// Opaque tag.
        tag: u64,
    },
    /// Move a station (mobility models schedule these).
    SetPosition {
        /// Target station.
        station: StationId,
        /// New position.
        pos: Point,
    },
    /// Inject an application frame into one of a station's queues. The
    /// frame was staged into the world's arena
    /// ([`WlanWorld::stage_frame`], or the [`inject_at`] /
    /// [`qos_inject_at`] one-call forms); the event carries only its
    /// id, so scheduler entries stay a few words regardless of payload.
    Inject {
        /// Sending station.
        station: StationId,
        /// The staged frame to queue.
        frame: FrameId,
        /// Target EDCA access category; a legacy (non-EDCA) world has
        /// one DCF queue and ignores it.
        ac: AccessCategory,
    },
    /// Arrival `k` of the world's periodic [`Source`] `source` (see
    /// [`add_source`]): a reference to the template's arena slot
    /// enters the station's queue, and arrival `k + 1` is scheduled.
    Arrival {
        /// Index into [`WlanWorld::sources`].
        source: u32,
        /// Arrival number within the source.
        k: u32,
    },
    /// Deliver the failure confirmation for an MSDU dropped on queue
    /// overflow. Scheduled (at the drop instant) rather than called
    /// inline so an upper layer that reacts by sending again cannot
    /// recurse unboundedly through the MAC.
    TxDropped {
        /// Station whose queue overflowed.
        station: StationId,
        /// The dropped MSDU (arena id, parked on this event).
        frame: FrameId,
    },
}

/// How the reception loop settled its PER decisions (see
/// [`WlanWorld::per_decisions`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerDecisions {
    /// Decisions settled from the linear SINR bound and the draw alone.
    pub settled: u64,
    /// Decisions that evaluated [`RateStep::success_prob`].
    pub exact: u64,
}

/// The shared-medium world; drive it with [`wn_sim::Simulation`].
pub struct WlanWorld {
    cfg: MacConfig,
    /// Per-station ARF controllers clone this template — a refcount
    /// bump on the shared rate ladder instead of a rebuild per station.
    arf_template: Arf,
    pub(crate) budget: LinkBudget,
    /// The propagation description; its floor decides between the
    /// cached grid path and direct evaluation.
    pub(crate) loss: LossModel,
    pub(crate) stations: Vec<Station>,
    /// Per-station DCF state, flattened column-wise ([`DcfState`]).
    dcf: DcfState,
    /// Per-queue backoff state, MSDU queues and A-MPDU flights, with
    /// the world's queue parameter table ([`TxQueues`]).
    queues: TxQueues,
    records: Vec<TxRecord>,
    /// Every frame in flight anywhere in the MAC — queues, attempts,
    /// transmission records, parked injection events — addressed by
    /// copyable [`FrameId`]s instead of `Rc` pointers.
    frames: FrameArena,
    /// Arena references parked on scheduled `Inject`/`TxDropped`
    /// events (a term of the [`frame_ledger`](Self::frame_ledger)).
    staged: u64,
    /// Periodic arrival sources ([`add_source`]); each holds one
    /// reference on its template's arena slot and at most one pending
    /// arrival.
    sources: Vec<Source>,
    /// Sparse pairwise rx-power / audibility rows (built lazily at
    /// the first transmission under a bounded static loss model).
    pub(crate) neighbors: NeighborCache,
    /// The spatial hash grid keying the sparse rows; alive exactly
    /// while they are built, kept in sync with station positions by
    /// [`set_position`](Self::set_position).
    pub(crate) grid: Option<SpatialGrid>,
    /// Reused scratch for grid neighborhood queries during mobility
    /// patches.
    pub(crate) hood_scratch: Vec<StationId>,
    /// Contender wait-list: stations with an armed backoff whose
    /// access timer is not running — the only ones an idle edge can
    /// affect.
    contenders: IdBitSet,
    /// Reused scratch for iterating `contenders` while re-arming.
    rearm_scratch: Vec<StationId>,
    /// Reused scratch for the half-duplex source bitset in
    /// [`handle_tx_end`](Self::handle_tx_end).
    txsrc_scratch: IdBitSet,
    /// Reused scratch for the column-wise interference accumulator in
    /// [`handle_tx_end`](Self::handle_tx_end).
    intf_scratch: Vec<f64>,
    /// Reused scratch for the receivers that decoded the completing
    /// frame in [`handle_tx_end`](Self::handle_tx_end).
    decoded_scratch: Vec<(StationId, Dbm)>,
    /// Reused scratch for the time-overlapping record indices in
    /// [`handle_tx_end`](Self::handle_tx_end).
    overlap_scratch: Vec<usize>,
    /// Reused scratch for upper-layer command batches in
    /// [`with_upper`](Self::with_upper).
    cmd_scratch: Vec<Command>,
    /// PER decision counts of the reception loop.
    per_decisions: PerDecisions,
    next_tx_id: u64,
    rng: Rng,
    /// Protocol trace for tests and debugging.
    pub trace: Trace,
    /// World-level access delay distribution (µs) over completions.
    access_delay_hist: Histogram,
    /// Per-access-category access-delay distributions (µs), recorded
    /// only by EDCA completions; all four stay empty on legacy worlds.
    ac_delay_hist: [Histogram; 4],
    /// MSDUs waiting in transmit queues across all stations.
    queue_gauge: TimeWeighted,
    sifs: SimDuration,
    slot: SimDuration,
    booted: bool,
}

impl WlanWorld {
    /// Creates a world with the default consumer radio and indoor
    /// log-distance propagation.
    ///
    /// # Panics
    ///
    /// On a configuration [`MacConfig::validate`] rejects, naming the
    /// offending field; [`WlanWorld::try_new`] returns the error
    /// instead.
    pub fn new(cfg: MacConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(w) => w,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`WlanWorld::new`] for a configuration that may be invalid: the
    /// error names the field [`MacConfig::validate`] rejected.
    pub fn try_new(cfg: MacConfig) -> Result<Self, ConfigError> {
        cfg.validate().map_err(ConfigError)?;
        let std = cfg.standard;
        let budget = LinkBudget::for_standard(std, Radio::consumer_wifi());
        let rng = Rng::new(cfg.seed);
        let arf_template = Arf::new(
            std,
            if cfg.arf_adaptive {
                ArfParams::aarf()
            } else {
                ArfParams::default()
            },
            cfg.arf,
        );
        Ok(WlanWorld {
            arf_template,
            budget,
            loss: LossModel::distance(LogDistance::indoor()),
            stations: Vec::new(),
            dcf: DcfState::default(),
            queues: TxQueues::new(&cfg),
            records: Vec::new(),
            frames: FrameArena::new(),
            staged: 0,
            sources: Vec::new(),
            neighbors: NeighborCache::new(),
            grid: None,
            hood_scratch: Vec::new(),
            contenders: IdBitSet::new(),
            rearm_scratch: Vec::new(),
            txsrc_scratch: IdBitSet::new(),
            intf_scratch: Vec::new(),
            decoded_scratch: Vec::new(),
            overlap_scratch: Vec::new(),
            cmd_scratch: Vec::new(),
            per_decisions: PerDecisions::default(),
            next_tx_id: 0,
            rng,
            trace: Trace::new(8192),
            access_delay_hist: Histogram::new(),
            ac_delay_hist: [
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
            ],
            queue_gauge: TimeWeighted::new(SimTime::ZERO, 0.0),
            sifs: crate::duration::sifs(std),
            slot: crate::duration::slot(std),
            booted: false,
            cfg,
        })
    }

    /// Replaces the propagation model. The world derives its received
    /// power path from the description: bounded static models get the
    /// grid-backed sparse cache, time-varying and unbounded ones are
    /// evaluated per transmission.
    pub fn set_loss_model(&mut self, model: LossModel) {
        self.loss = model;
        self.invalidate_neighbors();
    }

    /// The live spatial grid (present only while the neighbor cache is
    /// built). Test and oracle hook.
    pub fn spatial_grid(&self) -> Option<&SpatialGrid> {
        self.grid.as_ref()
    }

    /// The propagation neighbor cache (empty until primed or first
    /// used). Exposed read-only so partition property tests can check
    /// shard assignments against who hears whom on the cached rows.
    pub fn neighbor_cache(&self) -> &NeighborCache {
        &self.neighbors
    }

    /// Adds a station; returns its id. All stations must be added
    /// before the `Boot` event runs.
    pub fn add_station(
        &mut self,
        addr: MacAddr,
        pos: Point,
        upper: Box<dyn UpperLayer>,
    ) -> StationId {
        self.invalidate_neighbors(); // Stale matrix shape; rebuilt on first tx.
        self.push_station(addr, pos, upper)
    }

    /// Appends one station without touching the neighbor cache; the
    /// caller has already invalidated it (once per batch, not per
    /// station).
    fn push_station(&mut self, addr: MacAddr, pos: Point, upper: Box<dyn UpperLayer>) -> StationId {
        let id = self.stations.len();
        self.stations.push(Station {
            addr,
            pos,
            radio: Radio::consumer_wifi(),
            power_mgmt: false,
            upper: Some(upper),
            current: None,
            seq: SequenceCounter::default(),
            dedup: DedupCache::new(),
            arf: self.arf_template.clone(),
            reassembly: HashMap::new(),
            pending: None,
            stats: StationStats::default(),
            tx_ac: None,
        });
        self.dcf.push();
        self.queues.push_station();
        id
    }

    /// Pre-sizes the station table for `additional` more stations.
    pub fn reserve_stations(&mut self, additional: usize) {
        self.stations.reserve(additional);
        self.dcf.reserve(additional);
        self.queues.reserve(additional);
    }

    /// Bulk station boot fast path: adds `n` stations with the
    /// canonical `MacAddr::station(id)` addressing, positions from
    /// `pos(i)` and upper layers from `upper(i)`; returns their id
    /// range.
    ///
    /// One table reservation up front plus the shared-ladder ARF
    /// template make each added station allocation-free — the setup
    /// cost that dominates a 1000-station SCALE-DCF world otherwise.
    /// The neighbor cache and spatial grid are invalidated **once**
    /// for the whole batch and rebuilt lazily at the first
    /// transmission, so batched adds never pay per-station O(n·k)
    /// rebuild work.
    pub fn add_stations(
        &mut self,
        n: usize,
        mut pos: impl FnMut(usize) -> Point,
        mut upper: impl FnMut(usize) -> Box<dyn UpperLayer>,
    ) -> std::ops::Range<StationId> {
        let start = self.stations.len();
        self.reserve_stations(n);
        self.invalidate_neighbors();
        for i in 0..n {
            let id = start + i;
            self.push_station(MacAddr::station(id as u32), pos(i), upper(i));
        }
        start..self.stations.len()
    }

    /// Station id by MAC address.
    pub fn station_by_addr(&self, addr: MacAddr) -> Option<StationId> {
        self.stations.iter().position(|s| s.addr == addr)
    }

    /// Station `id`'s upper layer as a `T`: `None` for an unknown id or
    /// an upper layer of another type.
    pub fn upper<T: UpperLayer>(&self, id: StationId) -> Option<&T> {
        let upper: &dyn Any = self.stations.get(id)?.upper.as_deref()?;
        upper.downcast_ref()
    }

    /// [`upper`](Self::upper), mutably: a scenario queues work into a
    /// station's upper layer here and wakes it with a
    /// [`MacEvent::UpperTimer`].
    pub fn upper_mut<T: UpperLayer>(&mut self, id: StationId) -> Option<&mut T> {
        let upper: &mut dyn Any = self.stations.get_mut(id)?.upper.as_deref_mut()?;
        upper.downcast_mut()
    }

    /// A station's statistics.
    pub fn stats(&self, id: StationId) -> &StationStats {
        &self.stations[id].stats
    }

    /// A station's MAC address.
    pub fn addr(&self, id: StationId) -> MacAddr {
        self.stations[id].addr
    }

    /// A station's current position.
    pub fn position(&self, id: StationId) -> Point {
        self.stations[id].pos
    }

    /// Sets a station's radio parameters (before boot).
    pub fn set_radio(&mut self, id: StationId, radio: Radio) {
        self.stations[id].radio = radio;
        self.invalidate_neighbors();
    }

    /// Sets a station's channel directly (scenario setup).
    pub fn set_channel(&mut self, id: StationId, channel: u8) {
        self.dcf.channel[id] = channel;
    }

    /// Every station's channel, indexed by [`StationId`].
    pub(crate) fn channels(&self) -> &[u8] {
        &self.dcf.channel
    }

    /// Number of stations.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// The shared MAC configuration (the bounds invariant oracles
    /// check trace events against).
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// MSDUs accepted for `id` but not yet completed: queued plus the
    /// one currently being attempted. Together with [`StationStats`]
    /// this closes the frame-conservation ledger
    /// `queued == tx_completions + tx_failures + queue_drops + pending`.
    pub fn pending_msdus(&self, id: StationId) -> u64 {
        let queued: usize = self.queues.msdus[self.queues.range(id)]
            .iter()
            .map(VecDeque::len)
            .sum();
        let aggregated: usize = self
            .queues
            .flights_of(id)
            .iter()
            .flatten()
            .map(|f| f.mpdus.len())
            .sum();
        queued as u64 + u64::from(self.stations[id].current.is_some()) + aggregated as u64
    }

    /// Stages a frame into the world's arena for a later
    /// [`MacEvent::Inject`] delivery; the returned id is what the
    /// event carries. Traffic generators and scenario set-up go
    /// through this (or the [`inject_at`] convenience wrapper) so a
    /// scheduler entry is a handful of words, not a full frame.
    pub fn stage_frame(&mut self, frame: Frame) -> FrameId {
        self.staged += 1;
        self.frames.insert(frame)
    }

    /// The frame arena (oracle/test hook).
    pub fn frame_arena(&self) -> &FrameArena {
        &self.frames
    }

    /// The frame-conservation ledger: total outstanding arena
    /// references on the left, the sum over every holder the MAC knows
    /// about on the right — references parked on scheduled
    /// `Inject`/`TxDropped` events, queued MSDUs, the in-progress
    /// attempt (its MSDU plus its cached wire frame), transmission
    /// records and periodic [`Source`]s (one reference each on the
    /// template slot their queued arrivals share). The fuzzer asserts
    /// the two sides stay equal between events; a leaked or
    /// double-released frame id shows up as drift.
    pub fn frame_ledger(&self) -> (u64, u64) {
        let held = self.staged
            + self.sources.len() as u64
            + self
                .stations
                .iter()
                .map(|s| {
                    s.current
                        .as_ref()
                        .map_or(0, |at| 1 + u64::from(at.built.is_some()))
                })
                .sum::<u64>()
            + self
                .queues
                .msdus
                .iter()
                .map(|q| q.len() as u64)
                .sum::<u64>()
            + self
                .queues
                .flights
                .iter()
                .flatten()
                .map(|f| f.mpdus.len() as u64 + u64::from(f.built.is_some()))
                .sum::<u64>()
            + self.records.len() as u64;
        (self.frames.total_refs(), held)
    }

    /// How many reception decisions the SINR bound settled and how
    /// many evaluated the PER model. Deterministic, and deliberately
    /// outside [`metrics_snapshot`](Self::metrics_snapshot).
    pub fn per_decisions(&self) -> PerDecisions {
        self.per_decisions
    }

    /// A quantile (e.g. 0.5, 0.99) of the world-level access-delay
    /// distribution, in microseconds; `None` before any completion.
    pub fn access_delay_quantile(&self, q: f64) -> Option<u64> {
        self.access_delay_hist.quantile(q)
    }

    /// A quantile of one access category's access-delay distribution
    /// (µs); `None` before any EDCA completion in that category.
    pub fn ac_delay_quantile(&self, ac: AccessCategory, q: f64) -> Option<u64> {
        self.ac_delay_hist[ac.index()].quantile(q)
    }

    /// Number of completions recorded in one access category's
    /// access-delay distribution (the sample count behind
    /// [`Self::ac_delay_quantile`]).
    pub fn ac_delay_samples(&self, ac: AccessCategory) -> u64 {
        self.ac_delay_hist[ac.index()].count()
    }

    /// Microseconds station `id` has spent transmitting.
    pub fn station_airtime_us(&self, id: StationId) -> u64 {
        self.stations[id].stats.tx_airtime_us
    }

    /// Aggregate delivered payload bytes across all stations.
    pub fn total_delivered_bytes(&self) -> u64 {
        self.stations.iter().map(|s| s.stats.rx_payload_bytes).sum()
    }

    /// Exports the MAC's per-station counters and the world-level
    /// instruments into a named registry and snapshots it at `now`.
    ///
    /// Hot-path accounting stays in plain [`StationStats`] fields; this
    /// names them (`layer="mac"`) only when a snapshot is requested.
    pub fn metrics_snapshot(&self, now: SimTime) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        for (id, s) in self.stations.iter().enumerate() {
            let sid = Some(id as u32);
            reg.counter("mac", "queued", sid).add(s.stats.queued);
            reg.counter("mac", "queue_drops", sid)
                .add(s.stats.queue_drops);
            reg.counter("mac", "tx_frames", sid).add(s.stats.tx_frames);
            reg.counter("mac", "retries", sid).add(s.stats.retries);
            reg.counter("mac", "tx_failures", sid)
                .add(s.stats.tx_failures);
            reg.counter("mac", "tx_completions", sid)
                .add(s.stats.tx_completions);
            reg.counter("mac", "rx_accepted", sid)
                .add(s.stats.rx_accepted);
            reg.counter("mac", "rx_duplicates", sid)
                .add(s.stats.rx_duplicates);
            reg.counter("mac", "rx_errors", sid).add(s.stats.rx_errors);
            reg.counter("mac", "rx_payload_bytes", sid)
                .add(s.stats.rx_payload_bytes);
            *reg.summary("mac", "access_delay_us", sid) = s.stats.access_delay_us.clone();
        }
        *reg.histogram("mac", "access_delay_us_hist", None) = self.access_delay_hist.clone();
        *reg.gauge("mac", "queued_msdus", None, SimTime::ZERO, 0.0) = self.queue_gauge.clone();
        if self.cfg.edca {
            // QoS observables exist only on EDCA worlds, so a legacy
            // world's snapshot (and its digest) is untouched.
            const AC_HIST: [&str; 4] = [
                "access_delay_us_ac_vo",
                "access_delay_us_ac_vi",
                "access_delay_us_ac_be",
                "access_delay_us_ac_bk",
            ];
            for (name, hist) in AC_HIST.iter().zip(self.ac_delay_hist.iter()) {
                *reg.histogram("mac", name, None) = hist.clone();
            }
            for (id, s) in self.stations.iter().enumerate() {
                reg.counter("mac", "tx_airtime_us", Some(id as u32))
                    .add(s.stats.tx_airtime_us);
            }
        }
        reg.snapshot(now)
    }

    // ----- internals -----

    /// Whether `power` meets the carrier-sense threshold.
    pub(crate) fn audible_at(&self, power: Dbm) -> bool {
        power.value() >= self.cfg.cs_threshold.value()
    }

    /// Spectral overlap between two 2.4 GHz channels (1.0 co-channel,
    /// 0.0 orthogonal) — adjacent channels leak energy into each other,
    /// the §6 interference mechanism behind the 1/6/11 channel plan.
    pub(crate) fn channel_overlap(a: u8, b: u8) -> f64 {
        if a == b {
            return 1.0;
        }
        match (
            wn_phy::bands::Channel::ism24(a),
            wn_phy::bands::Channel::ism24(b),
        ) {
            (Ok(ca), Ok(cb)) => ca.overlap_with(cb),
            _ => 0.0,
        }
    }

    /// Received power of a cross-channel emission after the spectral
    /// mask discount; `None` when fully orthogonal.
    fn leaked_power(power: Dbm, overlap: f64) -> Option<Dbm> {
        if overlap >= 1.0 {
            Some(power)
        } else if overlap <= 0.0 {
            None
        } else {
            Some(Dbm(power.value() + 10.0 * overlap.log10()))
        }
    }

    fn medium_idle(&self, id: StationId, now: SimTime) -> bool {
        self.dcf.audible[id].is_empty()
            && self.dcf.transmitting[id].is_none()
            && self.dcf.nav_until[id] <= now
    }

    fn with_upper<F>(&mut self, id: StationId, now: SimTime, sched: &mut Scheduler<MacEvent>, f: F)
    where
        F: FnOnce(&mut dyn UpperLayer, &mut UpperCtx),
    {
        let Some(mut upper) = self.stations[id].upper.take() else {
            return;
        };
        // Reused batch buffer; `mem::take` leaves an empty Vec behind,
        // so a nested `with_upper` downstream of `apply_command` simply
        // allocates its own batch instead of aliasing this one.
        let mut commands = std::mem::take(&mut self.cmd_scratch);
        {
            let mut ctx = UpperCtx {
                now,
                addr: self.stations[id].addr,
                id,
                commands: &mut commands,
            };
            f(upper.as_mut(), &mut ctx);
        }
        self.stations[id].upper = Some(upper);
        for cmd in commands.drain(..) {
            self.apply_command(id, now, sched, cmd);
        }
        self.cmd_scratch = commands;
    }

    fn apply_command(
        &mut self,
        id: StationId,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
        cmd: Command,
    ) {
        match cmd {
            Command::SendFrame(frame) => self.enqueue(id, frame, now, sched),
            Command::SetTimer { delay, tag } => {
                sched.schedule_in(delay, MacEvent::UpperTimer { station: id, tag });
            }
            Command::SetPowerManagement(on) => self.stations[id].power_mgmt = on,
            Command::SetAwake(awake) => {
                let was = self.dcf.awake[id];
                self.dcf.awake[id] = awake;
                if !awake {
                    // A dozing radio hears nothing.
                    self.dcf.audible[id].clear();
                } else if !was {
                    // Waking mid-frame: re-hear what is still in the
                    // air from the records' start-time power snapshots.
                    // Without this the medium looks spuriously idle and
                    // the station can arm backoff (and collide) under
                    // an ongoing audible transmission.
                    let channel = self.dcf.channel[id];
                    let mut heard_any = false;
                    for i in 0..self.records.len() {
                        let rec = &self.records[i];
                        if rec.done || rec.src == id {
                            continue;
                        }
                        let ov = Self::channel_overlap(rec.channel, channel);
                        let heard = Self::leaked_power(rec.rx_power.get(id), ov)
                            .map(|p| self.audible_at(p))
                            .unwrap_or(false);
                        if heard {
                            let tx_id = rec.id;
                            self.dcf.audible[id].insert(tx_id);
                            heard_any = true;
                        }
                    }
                    if heard_any {
                        self.freeze_access(id, now);
                    }
                }
            }
            Command::SetChannel(ch) => {
                self.dcf.channel[id] = ch;
                self.dcf.audible[id].clear();
                self.dcf.nav_until[id] = now;
            }
            Command::SignalStation {
                station,
                tag,
                delay,
            } => {
                sched.schedule_in(delay, MacEvent::UpperTimer { station, tag });
            }
            Command::Trace { level, event } => self.trace.event(now, level, "net", event),
        }
    }

    /// Queues a frame for transmission from `id` (best effort on an
    /// EDCA world).
    pub fn enqueue(
        &mut self,
        id: StationId,
        frame: Frame,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let fid = self.frames.insert(frame);
        self.enqueue_id(id, fid, AccessCategory::Be, now, sched);
    }

    /// Queues an arena-resident frame into the queue serving `ac`: its
    /// own on an EDCA world, the one DCF queue on a legacy world. The
    /// caller's reference on `fid` transfers to the queue — or back out
    /// through a `TxDropped` event on overflow, or on an EDCA world
    /// when the body does not fit an A-MPDU subframe's 16-bit length.
    /// The frame is stamped with the station's Power Management bit,
    /// copied out of a shared slot only when the bit differs.
    fn enqueue_id(
        &mut self,
        id: StationId,
        mut fid: FrameId,
        ac: AccessCategory,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let q = if self.cfg.edca { ac.index() } else { 0 };
        let k = self.queues.index(id, q);
        let pm = self.stations[id].power_mgmt;
        if self.frames.get(fid).fc.power_management != pm {
            self.frames.make_mut(&mut fid).fc.power_management = pm;
        }
        let frame = self.frames.get(fid);
        let refused = if self.cfg.edca && frame.body.len() > usize::from(u16::MAX) {
            Some(DropReason::Oversize)
        } else if self.queues.msdus[k].len() >= self.cfg.queue_limit {
            Some(DropReason::QueueFull)
        } else {
            None
        };
        let s = &mut self.stations[id];
        s.stats.queued += 1;
        if let Some(reason) = refused {
            s.stats.queue_drops += 1;
            let kind = frame_kind(self.frames.get(fid).fc.subtype);
            self.trace.event(
                now,
                Level::Warn,
                "mac",
                TraceEvent::Drop {
                    station: id as u32,
                    kind,
                    reason,
                },
            );
            // The sender must still learn the MSDU's fate: deliver the
            // failure confirmation. Scheduled at `now` instead of
            // calling the upper layer inline so a layer that reacts by
            // immediately re-sending into a still-full queue turns into
            // event-loop iterations, not unbounded recursion.
            self.staged += 1;
            sched.schedule_at(
                now,
                MacEvent::TxDropped {
                    station: id,
                    frame: fid,
                },
            );
            return;
        }
        self.queues.msdus[k].push_back(Msdu {
            frame: fid,
            enqueued: now,
        });
        self.queue_gauge.add(now, 1.0);
        if !self.cfg.edca {
            self.maybe_start_next(id, now, sched);
        } else if self.queues.flights[k].is_none() && self.queues.slots[k].is_none() {
            // An idle queue joins contention; a busy one picks the MSDU
            // up when it next wins.
            self.begin_access(id, q, now, sched);
        }
    }

    fn maybe_start_next(&mut self, id: StationId, now: SimTime, sched: &mut Scheduler<MacEvent>) {
        if self.stations[id].current.is_some() {
            return;
        }
        let k = self.queues.index(id, 0);
        let Some(mut msdu) = self.queues.msdus[k].pop_front() else {
            return;
        };
        self.queue_gauge.add(now, -1.0);
        // Assign a sequence number (on the attempt's own copy when the
        // queued frame is a source's shared slot) and split into
        // fragments: byte ranges of the frame's body, sliced out at
        // build time.
        let seq_no = self.stations[id].seq.next();
        let frag_threshold = self.cfg.frag_threshold;
        let frame = self.frames.make_mut(&mut msdu.frame);
        let body_len = frame.body.len();
        let can_fragment =
            frame.fc.subtype.frame_type() == FrameType::Data && !frame.receiver().is_group();
        let mut frag_ranges: VecDeque<(usize, usize)> = VecDeque::new();
        if can_fragment && body_len > frag_threshold {
            let mut start = 0;
            while body_len - start > frag_threshold {
                frag_ranges.push_back((start, start + frag_threshold));
                start += frag_threshold;
            }
            frag_ranges.push_back((start, body_len));
        } else {
            frag_ranges.push_back((0, body_len));
        }
        frame.seq = Some(SequenceControl {
            fragment: 0,
            sequence: seq_no,
        });
        let peer = frame.receiver();
        let use_rts = !peer.is_group()
            && frag_ranges.front().map_or(0, |&(a, b)| b - a) + 28 >= self.cfg.rts_threshold;
        let rate = if peer.is_group() {
            self.cfg.standard.base_rate()
        } else {
            self.stations[id].arf.current_rate(peer)
        };
        self.stations[id].current = Some(Attempt {
            msdu,
            frag_ranges,
            frag_number: 0,
            short_retries: 0,
            long_retries: 0,
            use_rts,
            cts_received: false,
            rate,
            is_retry: false,
            built: None,
        });
        self.begin_access(id, 0, now, sched);
    }

    /// Puts a frame on the air. Consumes one arena reference on
    /// `frame` — it becomes the new [`TxRecord`]'s, released when the
    /// record is retired.
    fn start_transmission(
        &mut self,
        id: StationId,
        frame: FrameId,
        rate: RateStep,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) -> u64 {
        let timing = self.cfg.standard.mac_timing();
        let (wire_len, kind) = {
            let f = self.frames.get(frame);
            (f.wire_len(), frame_kind(f.fc.subtype))
        };
        let dur = airtime(&timing, rate, wire_len);
        let tx_id = self.next_tx_id;
        self.next_tx_id += 1;
        let rx_power = self.tx_powers(id, now);
        let channel = self.dcf.channel[id];
        self.trace.event(
            now,
            Level::Debug,
            "mac",
            TraceEvent::Tx {
                station: id as u32,
                kind,
                len: wire_len as u32,
                rate_mbps: rate.rate.mbps(),
            },
        );
        self.records.push(TxRecord {
            id: tx_id,
            src: id,
            channel,
            frame,
            rate,
            start: now,
            end: now + dur,
            rx_power: rx_power.clone(),
            done: false,
        });
        self.dcf.transmitting[id] = Some(tx_id);
        self.stations[id].stats.tx_frames += 1;
        self.stations[id].stats.tx_airtime_us += dur.as_nanos() / 1_000;
        // Busy edges at every audible same-channel station — only the
        // row's entries at or above CS can qualify, since leaked
        // cross-channel power never exceeds raw power. That is a
        // superset of anything any receiver configuration can hear;
        // the per-station awake/channel/leak checks stay here.
        for (r, power, _) in rx_power.audible(id, self.cfg.cs_threshold) {
            let overlap = Self::channel_overlap(channel, self.dcf.channel[r]);
            let heard = Self::leaked_power(power, overlap)
                .map(|p| self.audible_at(p))
                .unwrap_or(false);
            if self.dcf.awake[r] && heard && self.dcf.audible[r].insert(tx_id) == 1 {
                self.freeze_access(r, now);
            }
        }
        sched.schedule_in(dur, MacEvent::TxEnd { tx_id });
        tx_id
    }

    /// Transmits the next protocol unit of the current attempt (RTS or
    /// the pending fragment).
    fn transmit_current(&mut self, id: StationId, now: SimTime, sched: &mut Scheduler<MacEvent>) {
        let std = self.cfg.standard;
        let timing = std.mac_timing();
        let addr = self.stations[id].addr;
        let (frame, rate, expect) = {
            let Some(at) = self.stations[id].current.as_mut() else {
                return;
            };
            if at.use_rts && !at.cts_received {
                // RTS first. Its NAV covers the whole exchange.
                let body_len = at.frag_ranges.front().map_or(0, |&(a, b)| b - a);
                let base = self.frames.get(at.msdu.frame);
                let data_len = base.header_len() + body_len + 4;
                let data_air = airtime(&timing, at.rate, data_len);
                let ra = base.receiver();
                let rts = Frame::rts(ra, addr, rts_duration(std, data_air));
                // The fresh reference goes straight to the record.
                (
                    self.frames.insert(rts),
                    std.base_rate(),
                    Some(Expecting::Cts),
                )
            } else {
                // Reuse the cached wire frame on retries of the same
                // fragment; rebuild only when the inputs changed.
                let fid = match at.built {
                    Some(fid) => fid,
                    None => {
                        let base = self.frames.get(at.msdu.frame);
                        let mut f = base.clone();
                        let header_len = base.header_len();
                        f.body = at
                            .frag_ranges
                            .front()
                            .map(|&(a, b)| base.body.slice(a..b))
                            .unwrap_or_default();
                        let more = at.frag_ranges.len() > 1;
                        f.fc.more_fragments = more;
                        f.fc.retry = at.is_retry;
                        let sequence = f.seq.expect("assigned at queue").sequence;
                        f.seq = Some(SequenceControl {
                            fragment: at.frag_number,
                            sequence,
                        });
                        let next_air = at
                            .frag_ranges
                            .get(1)
                            .map(|&(a, b)| airtime(&timing, at.rate, header_len + (b - a) + 4));
                        f.duration_id = if f.receiver().is_group() {
                            0
                        } else {
                            data_duration(std, more, next_air)
                        };
                        let fid = self.frames.insert(f);
                        at.built = Some(fid);
                        fid
                    }
                };
                // One reference for the record on top of the attempt's
                // cached one.
                self.frames.retain(fid);
                let expect =
                    (!self.frames.get(fid).receiver().is_group()).then_some(Expecting::Ack);
                (fid, at.rate, expect)
            }
        };
        self.start_transmission(id, frame, rate, now, sched);
        self.expect_response(id, expect);
    }

    /// Remembers the response a transmission just started solicits,
    /// under a fresh timer generation; its timeout is armed when the
    /// transmission ends (`continue_after_own_tx`).
    fn expect_response(&mut self, id: StationId, expect: Option<Expecting>) {
        self.dcf.expecting[id] = expect.map(|e| {
            self.dcf.timer_gen[id] += 1;
            (e, self.dcf.timer_gen[id])
        });
    }

    fn schedule_sifs(&mut self, id: StationId, action: PendingTx, sched: &mut Scheduler<MacEvent>) {
        self.dcf.timer_gen[id] += 1;
        let gen = self.dcf.timer_gen[id];
        self.stations[id].pending = Some((action, gen));
        sched.schedule_in(self.sifs, MacEvent::SifsAction { station: id, gen });
    }
}

impl World for WlanWorld {
    type Event = MacEvent;

    fn handle(&mut self, now: SimTime, event: MacEvent, sched: &mut Scheduler<MacEvent>) {
        match event {
            MacEvent::Boot => {
                if !self.booted {
                    self.booted = true;
                    for id in 0..self.stations.len() {
                        self.with_upper(id, now, sched, |u, ctx| u.on_start(ctx));
                    }
                }
            }
            MacEvent::TxEnd { tx_id } => self.handle_tx_end(tx_id, now, sched),
            MacEvent::AccessTimer { station, gen } => {
                if self.dcf.timer_gen[station] == gen {
                    self.access_fire(station, now, sched);
                }
            }
            MacEvent::ResponseTimeout { station, gen } => {
                self.handle_response_timeout(station, gen, now, sched);
            }
            MacEvent::SifsAction { station, gen } => {
                self.handle_sifs_action(station, gen, now, sched);
            }
            MacEvent::NavExpired { station } => {
                if self.queues.contending(station) && self.medium_idle(station, now) {
                    self.try_arm_access(station, now, sched);
                }
            }
            MacEvent::UpperTimer { station, tag } => {
                self.with_upper(station, now, sched, |u, ctx| u.on_timer(ctx, tag));
            }
            MacEvent::SetPosition { station, pos } => {
                self.set_position(station, pos, now);
            }
            MacEvent::Inject { station, frame, ac } => {
                self.staged -= 1;
                self.enqueue_id(station, frame, ac, now, sched);
            }
            MacEvent::Arrival { source, k } => self.handle_arrival(source, k, now, sched),
            MacEvent::TxDropped { station, frame } => {
                self.staged -= 1;
                let frame = self.frames.unwrap_or_clone(frame);
                self.with_upper(station, now, sched, |u, ctx| {
                    u.on_tx_result(ctx, &frame, false)
                });
            }
        }
    }
}

/// Schedules the boot event; call once after building the world.
pub fn boot(sim: &mut wn_sim::Simulation<WlanWorld>) {
    sim.scheduler_mut()
        .schedule_at(SimTime::ZERO, MacEvent::Boot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DsBits;
    use wn_sim::Simulation;

    /// Predicate for a transmission of the given frame kind — the typed
    /// replacement for substring-matching the trace.
    fn tx_of(kind: FrameKind) -> impl Fn(&TraceEvent) -> bool {
        move |e| matches!(e, TraceEvent::Tx { kind: k, .. } if *k == kind)
    }

    fn world(n: usize, spacing_m: f64) -> Simulation<WlanWorld> {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = 7;
        let mut w = WlanWorld::new(cfg);
        for i in 0..n {
            w.add_station(
                MacAddr::station(i as u32),
                Point::new(spacing_m * i as f64, 0.0),
                Box::new(NullUpper),
            );
        }
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        sim
    }

    fn data_frame(from: u32, to: u32, len: usize) -> Frame {
        Frame::data(
            DsBits::Ibss,
            MacAddr::station(to),
            MacAddr::station(from),
            MacAddr::random_ibss_bssid(1),
            SequenceControl::default(),
            vec![0xAA; len],
        )
    }

    fn inject(sim: &mut Simulation<WlanWorld>, at_ms: u64, station: StationId, frame: Frame) {
        inject_at(sim, SimTime::from_millis(at_ms), station, frame);
    }

    #[test]
    fn single_frame_delivered_and_acked() {
        let mut sim = world(2, 10.0);
        inject(&mut sim, 1, 0, data_frame(0, 1, 500));
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions, 1);
        assert_eq!(w.stats(0).tx_failures, 0);
        assert_eq!(w.stats(1).rx_accepted, 1);
        assert_eq!(w.stats(1).rx_payload_bytes, 500);
        // Two frames on the air: data + ACK.
        assert_eq!(w.stats(0).tx_frames, 1);
        assert_eq!(w.stats(1).tx_frames, 1);
    }

    #[test]
    fn broadcast_needs_no_ack() {
        let mut sim = world(3, 10.0);
        let f = Frame::data(
            DsBits::Ibss,
            MacAddr::BROADCAST,
            MacAddr::station(0),
            MacAddr::random_ibss_bssid(1),
            SequenceControl::default(),
            vec![1; 100],
        );
        inject(&mut sim, 1, 0, f);
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions, 1);
        assert_eq!(w.stats(1).rx_accepted, 1);
        assert_eq!(w.stats(2).rx_accepted, 1);
        // No ACK came back.
        assert_eq!(w.stats(1).tx_frames, 0);
        assert_eq!(w.stats(2).tx_frames, 0);
    }

    #[test]
    fn out_of_range_peer_fails_after_retries() {
        let mut sim = world(2, 50_000.0);
        inject(&mut sim, 1, 0, data_frame(0, 1, 500));
        sim.run_until(SimTime::from_secs(2));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions, 0);
        assert_eq!(w.stats(0).tx_failures, 1);
        // Initial + 7 short retries.
        assert_eq!(w.stats(0).tx_frames, 8);
        assert_eq!(w.stats(1).rx_accepted, 0);
    }

    #[test]
    fn many_frames_all_delivered() {
        let mut sim = world(2, 10.0);
        for i in 0..50 {
            inject(&mut sim, 1 + i, 0, data_frame(0, 1, 1000));
        }
        sim.run_until(SimTime::from_secs(5));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions, 50);
        assert_eq!(w.stats(1).rx_accepted, 50);
        assert_eq!(w.stats(1).rx_payload_bytes, 50_000);
    }

    #[test]
    fn two_contending_senders_both_finish() {
        let mut sim = world(3, 10.0);
        // Stations 0 and 2 both flood station 1 starting simultaneously.
        for i in 0..30 {
            inject(&mut sim, 1 + i, 0, data_frame(0, 1, 800));
            inject(&mut sim, 1 + i, 2, data_frame(2, 1, 800));
        }
        sim.run_until(SimTime::from_secs(10));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions + w.stats(0).tx_failures, 30);
        assert_eq!(w.stats(2).tx_completions + w.stats(2).tx_failures, 30);
        assert_eq!(
            w.stats(0).tx_completions,
            30,
            "close range: all should succeed"
        );
        assert_eq!(w.stats(2).tx_completions, 30);
        assert_eq!(w.stats(1).rx_accepted, 60);
    }

    #[test]
    fn fragmentation_reassembles() {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.frag_threshold = 400;
        cfg.seed = 3;
        let mut w = WlanWorld::new(cfg);
        w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        inject(&mut sim, 1, 0, data_frame(0, 1, 1000));
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        // 1000 B splits into 400+400+200: three fragments, three ACKs.
        assert_eq!(w.stats(0).tx_frames, 3);
        assert_eq!(w.stats(1).tx_frames, 3);
        assert_eq!(w.stats(0).tx_completions, 1);
        // Receiver sees ONE reassembled MSDU of the full kilobyte.
        assert_eq!(w.stats(1).rx_accepted, 1);
        assert_eq!(w.stats(1).rx_payload_bytes, 1000);
    }

    #[test]
    fn rts_cts_exchange_happens_below_threshold() {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.rts_threshold = 100;
        cfg.seed = 5;
        let mut w = WlanWorld::new(cfg);
        w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        inject(&mut sim, 1, 0, data_frame(0, 1, 600));
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions, 1);
        // Sender: RTS + DATA; receiver: CTS + ACK.
        assert_eq!(w.stats(0).tx_frames, 2);
        assert_eq!(w.stats(1).tx_frames, 2);
        // Protocol order asserted on typed event variants, not substrings.
        assert!(w
            .trace
            .happened_before_events(tx_of(FrameKind::Rts), tx_of(FrameKind::Cts)));
        assert!(w
            .trace
            .happened_before_events(tx_of(FrameKind::Cts), tx_of(FrameKind::Data)));
    }

    #[test]
    fn hidden_terminal_collisions_without_rts() {
        // A --- R --- B: A and B hear R but not each other.
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = 11;
        cfg.capture = false;
        let mut w = WlanWorld::new(cfg);
        let a = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let r = w.add_station(
            MacAddr::station(1),
            Point::new(120.0, 0.0),
            Box::new(NullUpper),
        );
        let b = w.add_station(
            MacAddr::station(2),
            Point::new(240.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        for i in 0..40 {
            inject(&mut sim, 1 + i * 3, a, data_frame(0, 1, 1400));
            inject(&mut sim, 1 + i * 3, b, data_frame(2, 1, 1400));
        }
        sim.run_until(SimTime::from_secs(20));
        let w = sim.world();
        let retries = w.stats(a).retries + w.stats(b).retries;
        assert!(
            retries > 10,
            "hidden terminals should collide repeatedly, got {retries} retries"
        );
        let _ = r;
    }

    #[test]
    fn rts_cts_rescues_hidden_terminals() {
        let run = |rts: usize| -> (u64, u64) {
            let mut cfg = MacConfig::new(PhyStandard::Dot11g);
            cfg.seed = 11;
            cfg.capture = false;
            cfg.rts_threshold = rts;
            let mut w = WlanWorld::new(cfg);
            let a = w.add_station(
                MacAddr::station(0),
                Point::new(0.0, 0.0),
                Box::new(NullUpper),
            );
            let _r = w.add_station(
                MacAddr::station(1),
                Point::new(120.0, 0.0),
                Box::new(NullUpper),
            );
            let b = w.add_station(
                MacAddr::station(2),
                Point::new(240.0, 0.0),
                Box::new(NullUpper),
            );
            let mut sim = Simulation::new(w);
            boot(&mut sim);
            for i in 0..40 {
                inject(&mut sim, 1 + i * 3, a, data_frame(0, 1, 1400));
                inject(&mut sim, 1 + i * 3, b, data_frame(2, 1, 1400));
            }
            sim.run_until(SimTime::from_secs(30));
            let w = sim.world();
            (
                w.stats(a).tx_completions + w.stats(b).tx_completions,
                w.stats(a).tx_failures + w.stats(b).tx_failures,
            )
        };
        let (no_rts_ok, no_rts_fail) = run(usize::MAX);
        let (rts_ok, rts_fail) = run(0);
        // With RTS/CTS the exchange is protected; deliveries rise and/or
        // failures fall versus the unprotected run.
        assert!(
            rts_ok > no_rts_ok || rts_fail < no_rts_fail,
            "rts: ok={rts_ok} fail={rts_fail}; bare: ok={no_rts_ok} fail={no_rts_fail}"
        );
        assert_eq!(rts_ok + rts_fail, 80);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = world(3, 20.0);
            for i in 0..20 {
                inject(&mut sim, 1 + i, 0, data_frame(0, 1, 700));
                inject(&mut sim, 1 + i, 2, data_frame(2, 1, 700));
            }
            sim.run_until(SimTime::from_secs(5));
            let w = sim.world();
            (
                w.stats(0).tx_frames,
                w.stats(2).tx_frames,
                w.stats(1).rx_accepted,
                w.stats(0).retries,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn queue_overflow_drops() {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.queue_limit = 4;
        let mut w = WlanWorld::new(cfg);
        w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        // All at the same instant: 1 goes in-flight, 4 queue, rest drop.
        for _ in 0..10 {
            inject(&mut sim, 1, 0, data_frame(0, 1, 8000));
        }
        sim.run_until(SimTime::from_secs(2));
        let w = sim.world();
        assert!(
            w.stats(0).queue_drops >= 5,
            "drops = {}",
            w.stats(0).queue_drops
        );
        assert_eq!(w.stats(0).tx_completions + w.stats(0).queue_drops, 10);
    }

    #[test]
    fn channels_isolate_traffic() {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = 13;
        let mut w = WlanWorld::new(cfg);
        let a = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let b = w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        w.set_channel(a, 1);
        w.set_channel(b, 6);
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        inject(&mut sim, 1, a, data_frame(0, 1, 500));
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        // Different channels: B never hears A.
        assert_eq!(w.stats(b).rx_accepted, 0);
        assert_eq!(w.stats(a).tx_failures, 1);
    }

    #[test]
    fn retry_bit_set_on_retransmission() {
        // Receiver exists but is just out of decodable range often
        // enough to force retries — instead, force it determinstically:
        // the peer is on another channel so nothing is ever ACKed.
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = 17;
        let mut w = WlanWorld::new(cfg);
        let a = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let b = w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        w.set_channel(b, 6);
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        inject(&mut sim, 1, a, data_frame(0, 1, 300));
        sim.run_until(SimTime::from_secs(2));
        let w = sim.world();
        assert_eq!(w.stats(a).retries, 7);
        assert_eq!(w.stats(a).tx_failures, 1);
    }

    #[test]
    fn power_save_station_misses_frames_while_dozing() {
        struct Doze;
        impl UpperLayer for Doze {
            fn on_start(&mut self, ctx: &mut UpperCtx) {
                ctx.command(Command::SetAwake(false));
            }
        }
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        let mut w = WlanWorld::new(cfg.clone());
        let a = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let b = w.add_station(MacAddr::station(1), Point::new(5.0, 0.0), Box::new(Doze));
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        inject(&mut sim, 1, a, data_frame(0, 1, 300));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(
            sim.world().stats(b).rx_accepted,
            0,
            "dozing STA must not receive"
        );
        assert_eq!(sim.world().stats(a).tx_failures, 1);
        let _ = &mut cfg;
    }

    #[test]
    fn wake_during_audible_tx_defers_backoff() {
        // Regression: a station that dozes, then wakes in the middle of
        // an audible transmission, must re-hear it and defer — not see
        // a spuriously idle medium, arm DIFS+backoff early and collide
        // with the ongoing frame.
        struct DozeWindow;
        impl UpperLayer for DozeWindow {
            fn on_start(&mut self, ctx: &mut UpperCtx) {
                ctx.set_timer(SimDuration::from_micros(500), 1);
                ctx.set_timer(SimDuration::from_millis(2), 2);
            }
            fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
                ctx.command(Command::SetAwake(tag == 2));
            }
        }
        // 11b timing: a 4000 B frame at 11 Mb/s is ~3 ms of air —
        // station A (injected at 1 ms) is guaranteed to still be on the
        // air when B wakes at 2 ms and queues its own frame. No capture:
        // any overlap at the sink destroys both, so an early B shows up
        // as retries/errors.
        let mut cfg = MacConfig::new(PhyStandard::Dot11b);
        cfg.seed = 9;
        cfg.capture = false;
        cfg.arf = false;
        let mut w = WlanWorld::new(cfg);
        let a = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let b = w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(DozeWindow),
        );
        let sink = w.add_station(
            MacAddr::station(2),
            Point::new(10.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        inject(&mut sim, 1, a, data_frame(0, 2, 4000));
        inject_at(
            &mut sim,
            SimTime::from_micros(2_100),
            b,
            data_frame(1, 2, 400),
        );
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        assert_eq!(w.stats(a).tx_completions, 1, "A's frame must survive");
        assert_eq!(w.stats(b).tx_completions, 1, "B's frame must survive");
        assert_eq!(
            w.stats(a).retries + w.stats(b).retries,
            0,
            "waking mid-frame must defer, not collide"
        );
        assert_eq!(w.stats(sink).rx_errors, 0);
        assert_eq!(w.stats(sink).rx_accepted, 2);
    }

    #[test]
    fn overlapping_transmissions_clean_up_audible_sets() {
        // Hidden terminals A and B overlap on the air at the middle
        // station; each tx-end must remove exactly its own id from the
        // audible bookkeeping, leaving every set empty at quiescence.
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = 11;
        cfg.capture = false;
        let mut w = WlanWorld::new(cfg);
        let a = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let r = w.add_station(
            MacAddr::station(1),
            Point::new(120.0, 0.0),
            Box::new(NullUpper),
        );
        let b = w.add_station(
            MacAddr::station(2),
            Point::new(240.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        for i in 0..20 {
            inject(&mut sim, 1 + i * 3, a, data_frame(0, 1, 1400));
            inject(&mut sim, 1 + i * 3, b, data_frame(2, 1, 1400));
        }
        sim.run_until(SimTime::from_secs(30));
        let w = sim.world();
        assert!(
            w.stats(a).retries + w.stats(b).retries > 0,
            "hidden terminals should have overlapped at least once"
        );
        for id in [a, r, b] {
            assert!(
                w.dcf.audible[id].is_empty(),
                "station {id} still hears a finished transmission"
            );
            assert!(w.dcf.transmitting[id].is_none());
        }
    }

    #[test]
    fn nav_defers_third_station() {
        // With RTS/CTS on, a third station in range must not transmit
        // during the protected exchange; its access is NAV-deferred.
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.rts_threshold = 0;
        cfg.seed = 23;
        let mut w = WlanWorld::new(cfg);
        let a = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let b = w.add_station(
            MacAddr::station(1),
            Point::new(10.0, 0.0),
            Box::new(NullUpper),
        );
        let c = w.add_station(
            MacAddr::station(2),
            Point::new(5.0, 5.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        for i in 0..10 {
            inject(&mut sim, 1 + i * 2, a, data_frame(0, 1, 1200));
            inject(&mut sim, 1 + i * 2, c, data_frame(2, 1, 1200));
        }
        sim.run_until(SimTime::from_secs(5));
        let w = sim.world();
        // Everyone close together + NAV ⇒ essentially no losses.
        assert_eq!(w.stats(a).tx_completions, 10);
        assert_eq!(w.stats(c).tx_completions, 10);
        assert_eq!(w.stats(b).rx_accepted, 20);
    }

    #[test]
    fn upper_layer_timer_and_tx_result_callbacks() {
        #[derive(Default)]
        struct App {
            timers: u32,
            results: Vec<bool>,
        }
        impl UpperLayer for App {
            fn on_start(&mut self, ctx: &mut UpperCtx) {
                ctx.set_timer(SimDuration::from_millis(5), 42);
            }
            fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
                assert_eq!(tag, 42);
                self.timers += 1;
                let f = Frame::data(
                    DsBits::Ibss,
                    MacAddr::station(1),
                    ctx.addr,
                    MacAddr::random_ibss_bssid(1),
                    SequenceControl::default(),
                    vec![7; 128],
                );
                ctx.send(f);
            }
            fn on_tx_result(&mut self, _ctx: &mut UpperCtx, _f: &Frame, ok: bool) {
                self.results.push(ok);
            }
        }
        let mut w = WlanWorld::new(MacConfig::new(PhyStandard::Dot11g));
        w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(App::default()),
        );
        w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        sim.run_until(SimTime::from_secs(1));
        let app = sim.world().upper::<App>(0).expect("station 0 runs App");
        assert_eq!(app.timers, 1);
        assert_eq!(app.results, vec![true]);
    }

    /// An upper layer that logs each timer tag with the value `mark`
    /// held when it fired.
    struct Marker {
        mark: u32,
        fired: Vec<(u64, u32)>,
    }

    impl UpperLayer for Marker {
        fn on_timer(&mut self, _ctx: &mut UpperCtx, tag: u64) {
            self.fired.push((tag, self.mark));
        }
    }

    /// Stations 0 and 1 run `Marker` with marks 10 and 11; station 2
    /// runs `NullUpper`.
    fn marker_world() -> Simulation<WlanWorld> {
        let mut w = WlanWorld::new(MacConfig::new(PhyStandard::Dot11g));
        for i in 0..2u32 {
            let marker = Marker {
                mark: 10 + i,
                fired: Vec::new(),
            };
            w.add_station(
                MacAddr::station(i),
                Point::new(f64::from(i), 0.0),
                Box::new(marker),
            );
        }
        w.add_station(
            MacAddr::station(2),
            Point::new(2.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        sim
    }

    fn upper_timer_at(sim: &mut Simulation<WlanWorld>, at_us: u64, station: StationId, tag: u64) {
        sim.scheduler_mut().schedule_at(
            SimTime::from_micros(at_us),
            MacEvent::UpperTimer { station, tag },
        );
    }

    #[test]
    fn upper_returns_the_stations_own_state() {
        let mut sim = marker_world();
        upper_timer_at(&mut sim, 5, 1, 7);
        sim.run_until(SimTime::from_millis(1));
        let w = sim.world();
        let zero = w.upper::<Marker>(0).expect("station 0 runs Marker");
        assert_eq!((zero.mark, zero.fired.as_slice()), (10, &[][..]));
        let one = w.upper::<Marker>(1).expect("station 1 runs Marker");
        assert_eq!((one.mark, one.fired.as_slice()), (11, &[(7, 11)][..]));
    }

    #[test]
    fn upper_is_none_for_the_wrong_type_or_an_unknown_station() {
        let mut sim = marker_world();
        let w = sim.world();
        assert!(w.upper::<NullUpper>(0).is_none());
        assert!(w.upper::<Marker>(2).is_none());
        assert!(w.upper::<NullUpper>(2).is_some());
        assert!(w.upper::<Marker>(3).is_none());
        assert!(sim.world_mut().upper_mut::<NullUpper>(1).is_none());
        assert!(sim.world_mut().upper_mut::<Marker>(3).is_none());
    }

    #[test]
    fn a_write_through_upper_mut_is_seen_by_the_next_callback() {
        let mut sim = marker_world();
        upper_timer_at(&mut sim, 10, 0, 1);
        upper_timer_at(&mut sim, 30, 0, 2);
        sim.run_until(SimTime::from_micros(20));
        sim.world_mut()
            .upper_mut::<Marker>(0)
            .expect("station 0 runs Marker")
            .mark = 99;
        sim.run_until(SimTime::from_millis(1));
        let fired = &sim.world().upper::<Marker>(0).expect("Marker").fired;
        assert_eq!(fired, &[(1, 10), (2, 99)]);
    }

    #[test]
    fn rts_and_fragmentation_combine() {
        // A large MSDU still RTS-protects the burst start, then
        // SIFS-chains the fragments.
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.rts_threshold = 100;
        cfg.frag_threshold = 500;
        cfg.seed = 41;
        let mut w = WlanWorld::new(cfg);
        w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        inject(&mut sim, 1, 0, data_frame(0, 1, 1200));
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions, 1);
        // RTS + 3 fragments from the sender; CTS + 3 ACKs back.
        assert_eq!(w.stats(0).tx_frames, 4);
        assert_eq!(w.stats(1).tx_frames, 4);
        assert_eq!(w.stats(1).rx_payload_bytes, 1200);
        assert!(w
            .trace
            .happened_before_events(tx_of(FrameKind::Rts), tx_of(FrameKind::Cts)));
        assert!(w
            .trace
            .happened_before_events(tx_of(FrameKind::Cts), tx_of(FrameKind::Data)));
    }

    #[test]
    fn arf_falls_back_on_marginal_link() {
        // At ~72 m the 54 Mbps rung is marginal; ARF must settle lower
        // and keep the link productive.
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = 43;
        let mut w = WlanWorld::new(cfg);
        w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        w.add_station(
            MacAddr::station(1),
            Point::new(72.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        for i in 0..100 {
            inject(&mut sim, 1 + i * 5, 0, data_frame(0, 1, 1000));
        }
        sim.run_until(SimTime::from_secs(5));
        let w = sim.world();
        assert!(
            w.stats(0).tx_completions >= 95,
            "ARF should keep the marginal link productive: {} done, {} failed",
            w.stats(0).tx_completions,
            w.stats(0).tx_failures
        );
        // The trace shows data transmissions below the top rate.
        let fallback_txs = w.trace.count_events(|e| {
            matches!(
                e,
                TraceEvent::Tx {
                    kind: FrameKind::Data,
                    rate_mbps,
                    ..
                } if *rate_mbps < 54.0
            )
        });
        assert!(fallback_txs > 0, "no fallback rates ever used");
    }

    #[test]
    fn signal_station_crosses_the_backbone() {
        // Station 0 signals station 1 out-of-band (the DS mechanism).
        struct Sender;
        impl UpperLayer for Sender {
            fn on_start(&mut self, ctx: &mut UpperCtx) {
                ctx.command(Command::SignalStation {
                    station: 1,
                    tag: 99,
                    delay: SimDuration::from_micros(150),
                });
            }
        }
        #[derive(Default)]
        struct Receiver(Vec<(u64, SimTime)>);
        impl UpperLayer for Receiver {
            fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
                self.0.push((tag, ctx.now));
            }
        }
        let mut w = WlanWorld::new(MacConfig::new(PhyStandard::Dot11g));
        w.add_station(MacAddr::station(0), Point::new(0.0, 0.0), Box::new(Sender));
        w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(Receiver::default()),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        sim.run_until(SimTime::from_secs(1));
        let got = &sim.world().upper::<Receiver>(1).expect("Receiver").0;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 99);
        assert_eq!(got[0].1, SimTime::from_micros(150), "wire latency honoured");
    }

    #[test]
    fn same_slot_commitment_collides() {
        // Two stations arming at the same idle edge with CW 0 must both
        // transmit (the CSMA vulnerable window) and collide.
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = 47;
        cfg.capture = false;
        cfg.cw_min_override = Some(0);
        cfg.cw_max_override = Some(0);
        cfg.retry_limit_short = 1;
        let mut w = WlanWorld::new(cfg);
        let rx = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let a = w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        let b = w.add_station(
            MacAddr::station(2),
            Point::new(0.0, 5.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        // Same instant, same CW=0: same fire time, guaranteed collision.
        inject(&mut sim, 5, a, data_frame(1, 0, 800));
        inject(&mut sim, 5, b, data_frame(2, 0, 800));
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        assert!(
            w.stats(rx).rx_errors >= 2,
            "collisions expected: {}",
            w.stats(rx).rx_errors
        );
        // With CW pinned to 0, retries collide again: both MSDUs die.
        assert_eq!(w.stats(a).tx_failures + w.stats(b).tx_failures, 2);
    }

    /// Regression: `complete_attempt` used to hand `on_tx_result` a
    /// frame whose body had been emptied by `mem::take` in
    /// `maybe_start_next` and whose More Fragments bit was forced to
    /// `total_frags > 1` — upper layers saw a zero-length MSDU flagged
    /// as fragmented. The callback frame must carry the original body
    /// with MF clear.
    #[test]
    fn tx_result_preserves_body_and_clears_mf_bit() {
        #[derive(Default)]
        struct Seen(Vec<(usize, bool, bool)>);
        impl UpperLayer for Seen {
            fn on_tx_result(&mut self, _ctx: &mut UpperCtx, f: &Frame, ok: bool) {
                self.0.push((f.body.len(), f.fc.more_fragments, ok));
            }
        }
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.frag_threshold = 400; // 1000 B -> 3 fragments.
        cfg.seed = 3;
        let mut w = WlanWorld::new(cfg);
        w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(Seen::default()),
        );
        w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        inject(&mut sim, 1, 0, data_frame(0, 1, 1000));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.world().upper::<Seen>(0).expect("Seen").0,
            vec![(1000, false, true)],
            "callback frame must carry the full original body, MF clear"
        );
    }

    /// Regression: `enqueue` used to drop an MSDU on queue overflow
    /// without ever invoking `on_tx_result(..., false)`, so upper-layer
    /// state machines waited forever on a confirmation that could not
    /// arrive. Every queued MSDU must get exactly one outcome callback.
    #[test]
    fn queue_overflow_reports_failure_to_upper_layer() {
        #[derive(Default)]
        struct Outcomes(Vec<bool>);
        impl UpperLayer for Outcomes {
            fn on_tx_result(&mut self, _ctx: &mut UpperCtx, _f: &Frame, ok: bool) {
                self.0.push(ok);
            }
        }
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.queue_limit = 4;
        let mut w = WlanWorld::new(cfg);
        w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(Outcomes::default()),
        );
        w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        // All at the same instant: 1 goes in-flight, 4 queue, 5 drop.
        for _ in 0..10 {
            inject(&mut sim, 1, 0, data_frame(0, 1, 8000));
        }
        sim.run_until(SimTime::from_secs(2));
        let w = sim.world();
        let got = &w.upper::<Outcomes>(0).expect("Outcomes").0;
        assert_eq!(
            got.len(),
            10,
            "every queued MSDU needs exactly one outcome callback"
        );
        let failures = got.iter().filter(|ok| !**ok).count() as u64;
        assert_eq!(failures, w.stats(0).queue_drops);
        assert!(failures >= 5, "failures = {failures}");
        // The drop is also visible as a Warn trace event.
        assert_eq!(
            w.trace.count_events(|e| matches!(
                e,
                TraceEvent::Drop {
                    reason: DropReason::QueueFull,
                    ..
                }
            )) as u64,
            w.stats(0).queue_drops
        );
    }

    #[test]
    fn saturation_throughput_in_plausible_band() {
        // One saturated 802.11g sender, 1500-B MSDUs: theory (no RTS,
        // ideal channel) gives ~25-30 Mbps MAC throughput at 54 Mbps PHY.
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = 31;
        let mut w = WlanWorld::new(cfg);
        let a = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let b = w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        for i in 0..2000u64 {
            // Keep the queue fed.
            inject_at(
                &mut sim,
                SimTime::from_micros(i * 400),
                a,
                data_frame(0, 1, 1500),
            );
        }
        sim.run_until(SimTime::from_secs(1));
        let bytes = sim.world().stats(b).rx_payload_bytes;
        let elapsed = 1.0;
        let mbps = bytes as f64 * 8.0 / elapsed / 1e6;
        assert!(
            (15.0..40.0).contains(&mbps),
            "802.11g saturation throughput {mbps} Mbps outside plausible band"
        );
    }

    /// MSDUs the MAC is done with: delivered, abandoned or never queued.
    fn settled(s: &StationStats) -> u64 {
        s.tx_completions + s.tx_failures + s.queue_drops
    }

    /// Six saturated senders in one collision domain, then a drain:
    /// once nothing is on the air the last `TxEnd` retires every
    /// record, so no record and no arena reference outlives the run.
    #[test]
    fn drained_legacy_run_retires_every_record() {
        let mut sim = world(6, 10.0);
        for k in 0..100u64 {
            for s in 0..6usize {
                let to = ((s + 1) % 6) as u32;
                inject_at(
                    &mut sim,
                    SimTime::from_micros(k * 300),
                    s,
                    data_frame(s as u32, to, 1000),
                );
            }
        }
        let mut max_records = 0;
        while sim.now() < SimTime::from_secs(10) && sim.step() {
            max_records = max_records.max(sim.world().records.len());
        }
        let w = sim.world();
        let done: u64 = (0..6).map(|s| settled(w.stats(s))).sum();
        assert_eq!(done, 600, "run did not drain");
        assert!(max_records <= 6, "{max_records} records retained at once");
        assert!(w.records.is_empty(), "{} records left", w.records.len());
        assert_eq!(w.frame_ledger(), (0, 0));
    }

    /// An RTS or data frame without a transmitter address (only a
    /// caller-built frame lacks one) cannot be answered: the receiver
    /// counts a reception error instead of panicking, and the sender's
    /// retry ladder reports the failure.
    #[test]
    fn frame_without_transmitter_fails_at_its_sender() {
        let mut data = data_frame(0, 1, 500);
        data.addr2 = None;
        let mut rts = Frame::rts(MacAddr::station(1), MacAddr::station(0), 0);
        rts.addr2 = None;
        for frame in [data, rts] {
            let mut sim = world(2, 10.0);
            inject(&mut sim, 1, 0, frame);
            sim.run_until(SimTime::from_millis(100));
            let w = sim.world();
            assert_eq!(w.stats(0).tx_failures, 1);
            assert_eq!(w.stats(0).tx_completions, 0);
            // Initial + 7 short retries, each heard and refused.
            assert_eq!(w.stats(1).rx_errors, 8);
            assert_eq!(w.stats(1).rx_accepted, 0);
            assert!(w.records.is_empty(), "run did not drain");
            assert_eq!(w.frame_ledger(), (0, 0));
        }
    }

    /// A caller-built QoS data frame on a legacy world rides the DCF
    /// attempt: its response timeout is armed and a group-addressed one
    /// completes at once, so neither leaves the sender waiting forever.
    #[test]
    fn qos_data_on_a_legacy_world_never_wedges_the_sender() {
        for to in [MacAddr::station(1), MacAddr::BROADCAST] {
            let mut sim = world(2, 10.0);
            let mut frame = data_frame(0, 1, 100);
            frame.addr1 = to;
            frame.fc.subtype = Subtype::QosData;
            inject(&mut sim, 1, 0, frame.clone());
            inject(&mut sim, 2, 0, frame);
            sim.run_until(SimTime::from_secs(1));
            let w = sim.world();
            assert_eq!(w.pending_msdus(0), 0, "to {to}: sender wedged");
            assert_eq!(settled(w.stats(0)), 2, "to {to}");
            assert_eq!(w.frame_ledger(), (0, 0));
        }
    }

    // ----- EDCA / A-MPDU -----

    fn qos_world(n: usize, spacing_m: f64) -> Simulation<WlanWorld> {
        qos_world_seeded(n, spacing_m, 7)
    }

    fn qos_world_seeded(n: usize, spacing_m: f64, seed: u64) -> Simulation<WlanWorld> {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed;
        cfg.edca = true;
        let mut w = WlanWorld::new(cfg);
        for i in 0..n {
            w.add_station(
                MacAddr::station(i as u32),
                Point::new(spacing_m * i as f64, 0.0),
                Box::new(NullUpper),
            );
        }
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        sim
    }

    fn qinject(
        sim: &mut Simulation<WlanWorld>,
        at_us: u64,
        station: StationId,
        frame: Frame,
        ac: AccessCategory,
    ) {
        qos_inject_at(sim, SimTime::from_micros(at_us), station, frame, ac);
    }

    /// Station 0's aggregates as `(time, ac)`, in trace order.
    fn ampdu_txs(w: &WlanWorld) -> Vec<(SimTime, u8)> {
        w.trace
            .events()
            .filter_map(|(t, e)| match e {
                TraceEvent::AmpduTx { station: 0, ac, .. } => Some((t, *ac)),
                _ => None,
            })
            .collect()
    }

    /// Internal collision: VO (CW 3) and VI (CW 7) both wait AIFSN 2,
    /// so equal slot draws expire in the same slot. VO wins the
    /// station's access and goes on the air; VI doubles its CW to 15
    /// and redraws at that instant without transmitting.
    #[test]
    fn internal_collision_sends_vo_and_redraws_vi() {
        let mut hits = 0;
        for seed in 0..64 {
            let mut sim = qos_world_seeded(2, 10.0, seed);
            let t0 = 1_000;
            qinject(&mut sim, t0, 0, data_frame(0, 1, 200), AccessCategory::Vo);
            qinject(&mut sim, t0, 0, data_frame(0, 1, 200), AccessCategory::Vi);
            sim.run_until(SimTime::from_millis(50));
            let w = sim.world();
            let draws: Vec<(SimTime, u8, u32, u32)> = w
                .trace
                .events()
                .filter_map(|(t, e)| match e {
                    TraceEvent::EdcaBackoff {
                        station: 0,
                        ac,
                        slots,
                        cw,
                    } => Some((t, *ac, *slots, *cw)),
                    _ => None,
                })
                .collect();
            let (vo, vi) = (draws[0], draws[1]);
            assert_eq!((vo.1, vo.3, vi.1, vi.3), (0, 3, 1, 7), "seed {seed}");
            if vo.2 != vi.2 {
                continue;
            }
            hits += 1;
            let txs = ampdu_txs(w);
            let (at, ac) = txs[0];
            assert_eq!(ac, 0, "seed {seed}: VO must win the internal collision");
            assert!(
                draws
                    .iter()
                    .any(|&(t, ac, _, cw)| t == at && ac == 1 && cw == 15),
                "seed {seed}: VI must redraw with CW 15 as VO transmits"
            );
            assert!(
                txs.iter().all(|&(t, ac)| ac != 1 || t > at),
                "seed {seed}: VI transmitted in the colliding slot"
            );
            assert_eq!(w.stats(0).tx_completions, 2, "seed {seed}");
        }
        assert!(hits > 0, "no seed in 0..64 drew equal VO and VI slots");
    }

    /// A queue joining a running countdown re-arms the shared timer.
    /// 802.11g: BK (AIFS 73 µs) is queued at t0, VO (AIFS 28 µs, CW 3)
    /// at t0 + 10 µs. VO expires by t0 + 10 + 28 + 27 = t0 + 65 µs and
    /// BK no earlier than t0 + 73 µs, so VO goes on the air first and
    /// on time on every seed — which needs the timer armed for BK alone
    /// to be frozen and re-armed over both queues.
    #[test]
    fn queue_joining_mid_countdown_rearms_the_timer() {
        let std = PhyStandard::Dot11g;
        let slot = crate::duration::slot(std);
        assert_eq!(crate::duration::aifs(std, 2), SimDuration::from_micros(28));
        assert_eq!(crate::duration::aifs(std, 7), SimDuration::from_micros(73));
        assert_eq!(slot, SimDuration::from_micros(9));
        for seed in 0..32 {
            let mut sim = qos_world_seeded(2, 10.0, seed);
            let t0 = 1_000;
            qinject(&mut sim, t0, 0, data_frame(0, 1, 200), AccessCategory::Bk);
            qinject(
                &mut sim,
                t0 + 10,
                0,
                data_frame(0, 1, 200),
                AccessCategory::Vo,
            );
            sim.run_until(SimTime::from_millis(50));
            let w = sim.world();
            let txs = ampdu_txs(w);
            let (at, ac) = txs[0];
            assert_eq!(ac, 0, "seed {seed}: BK transmitted before VO");
            assert!(
                at <= SimTime::from_micros(t0 + 65),
                "seed {seed}: VO fired at {at:?}, past t0 + 65 µs"
            );
            assert_eq!(w.stats(0).tx_completions, 2, "seed {seed}");
        }
    }

    #[test]
    fn edca_single_frame_rides_qos_data_and_block_ack() {
        let mut sim = qos_world(2, 10.0);
        qinject(
            &mut sim,
            1_000,
            0,
            data_frame(0, 1, 500),
            AccessCategory::Be,
        );
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions, 1);
        assert_eq!(w.stats(0).tx_failures, 0);
        assert_eq!(w.stats(1).rx_accepted, 1);
        assert_eq!(w.stats(1).rx_payload_bytes, 500);
        assert_eq!(w.trace.count_events(tx_of(FrameKind::QosData)), 1);
        assert_eq!(w.trace.count_events(tx_of(FrameKind::BlockAck)), 1);
        assert_eq!(w.trace.count_events(tx_of(FrameKind::Ack)), 0);
        assert!(w
            .trace
            .happened_before_events(tx_of(FrameKind::QosData), tx_of(FrameKind::BlockAck)));
    }

    #[test]
    fn ampdu_aggregates_a_backlog_into_few_ppdus() {
        let mut sim = qos_world(2, 10.0);
        // 32 MSDUs land before the first access completes: with
        // ampdu_max_mpdus = 16 they must ride at most a handful of
        // PPDUs, not 32.
        for i in 0..32u64 {
            qinject(
                &mut sim,
                1_000 + i,
                0,
                data_frame(0, 1, 300),
                AccessCategory::Be,
            );
        }
        sim.run_until(SimTime::from_secs(2));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions, 32);
        assert_eq!(w.stats(1).rx_accepted, 32);
        let ppdus = w.trace.count_events(tx_of(FrameKind::QosData));
        assert!(
            (2..=6).contains(&ppdus),
            "32 MSDUs should aggregate into a few PPDUs, saw {ppdus}"
        );
        // Conservation: every A-MPDU got a matching BA.
        assert_eq!(
            w.trace.count_events(tx_of(FrameKind::BlockAck)),
            ppdus,
            "one BA per aggregate"
        );
    }

    /// The EDCA/A-MPDU counterpart of
    /// `drained_legacy_run_retires_every_record`: four stations, one
    /// per access category, aggregate their backlogs, and the drained
    /// world holds no record and no arena reference.
    #[test]
    fn drained_ampdu_run_retires_every_record() {
        let mut sim = qos_world(4, 10.0);
        for i in 0..40u64 {
            for s in 0..4usize {
                let to = ((s + 1) % 4) as u32;
                let ac = AccessCategory::ALL[s];
                qinject(
                    &mut sim,
                    1_000 + i * 50,
                    s,
                    data_frame(s as u32, to, 400),
                    ac,
                );
            }
        }
        sim.run_until(SimTime::from_secs(10));
        let w = sim.world();
        let done: u64 = (0..4).map(|s| settled(w.stats(s))).sum();
        assert_eq!(done, 160, "run did not drain");
        assert!(
            w.trace
                .count_events(|e| matches!(e, TraceEvent::AmpduTx { .. }))
                > 0
        );
        assert!(w.records.is_empty(), "{} records left", w.records.len());
        assert_eq!(w.frame_ledger(), (0, 0));
    }

    #[test]
    fn ampdu_partial_loss_retries_only_missing_mpdus() {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = 11;
        cfg.edca = true;
        cfg.ampdu_per_mpdu_loss = 0.3;
        let mut w = WlanWorld::new(cfg);
        for i in 0..2 {
            w.add_station(
                MacAddr::station(i),
                Point::new(10.0 * i as f64, 0.0),
                Box::new(NullUpper),
            );
        }
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        for i in 0..40u64 {
            qinject(
                &mut sim,
                1_000 + i,
                0,
                data_frame(0, 1, 300),
                AccessCategory::Vi,
            );
        }
        sim.run_until(SimTime::from_secs(5));
        let w = sim.world();
        // 30% per-MPDU loss is far below the retry budget: everything
        // completes, but only after per-MPDU retries.
        assert_eq!(w.stats(0).tx_completions, 40);
        assert_eq!(w.stats(0).tx_failures, 0);
        assert!(w.stats(0).retries > 0, "partial BAs must trigger retries");
        assert_eq!(w.stats(1).rx_accepted, 40);
        assert!(w.stats(1).rx_errors > 0);
        // No MPDU resolved twice: BlockAckRx acked-bit total == 40.
        let mut acked = 0u32;
        for (_, e) in w.trace.events() {
            if let TraceEvent::BlockAckRx { bitmap, .. } = e {
                acked += bitmap.count_ones();
            }
        }
        assert_eq!(acked, 40, "each MPDU acked exactly once across BAs");
    }

    #[test]
    fn ampdu_retry_exhaustion_drops_each_mpdu_once() {
        let mut sim = qos_world(2, 50_000.0); // peer far out of range
        for i in 0..8u64 {
            qinject(
                &mut sim,
                1_000 + i,
                0,
                data_frame(0, 1, 200),
                AccessCategory::Be,
            );
        }
        sim.run_until(SimTime::from_secs(5));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions, 0);
        assert_eq!(w.stats(0).tx_failures, 8);
        let drops = w
            .trace
            .count_events(|e| matches!(e, TraceEvent::MpduDrop { .. }));
        assert_eq!(drops, 8, "one MpduDrop per exhausted MPDU");
        assert_eq!(w.pending_msdus(0), 0);
    }

    #[test]
    fn qos_broadcast_completes_without_block_ack() {
        let mut sim = qos_world(3, 10.0);
        let f = Frame::data(
            DsBits::Ibss,
            MacAddr::BROADCAST,
            MacAddr::station(0),
            MacAddr::random_ibss_bssid(1),
            SequenceControl::default(),
            vec![1; 100],
        );
        qinject(&mut sim, 1_000, 0, f, AccessCategory::Vo);
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions, 1);
        assert_eq!(w.stats(1).rx_accepted, 1);
        assert_eq!(w.stats(2).rx_accepted, 1);
        assert_eq!(w.trace.count_events(tx_of(FrameKind::BlockAck)), 0);
    }

    #[test]
    fn edca_vo_median_beats_bk_under_saturation() {
        let mut sim = qos_world(2, 10.0);
        for i in 0..60u64 {
            qinject(
                &mut sim,
                1_000 + i,
                0,
                data_frame(0, 1, 400),
                AccessCategory::Vo,
            );
            qinject(
                &mut sim,
                1_000 + i,
                0,
                data_frame(0, 1, 400),
                AccessCategory::Bk,
            );
        }
        sim.run_until(SimTime::from_secs(10));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions, 120);
        let vo = w.ac_delay_quantile(AccessCategory::Vo, 0.5).unwrap();
        let bk = w.ac_delay_quantile(AccessCategory::Bk, 0.5).unwrap();
        assert!(
            vo < bk,
            "AC_VO p50 ({vo} µs) must beat AC_BK p50 ({bk} µs) under saturation"
        );
        // Internal collisions surfaced as EDCA backoff redraws.
        assert!(
            w.trace
                .count_events(|e| matches!(e, TraceEvent::EdcaBackoff { .. }))
                > 0
        );
    }

    #[test]
    fn aifsn_swap_failpoint_inverts_priority() {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = 7;
        cfg.edca = true;
        cfg.failpoint_aifsn_swap = true;
        let mut w = WlanWorld::new(cfg);
        for i in 0..2 {
            w.add_station(
                MacAddr::station(i),
                Point::new(10.0 * i as f64, 0.0),
                Box::new(NullUpper),
            );
        }
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        for i in 0..60u64 {
            qinject(
                &mut sim,
                1_000 + i,
                0,
                data_frame(0, 1, 400),
                AccessCategory::Vo,
            );
            qinject(
                &mut sim,
                1_000 + i,
                0,
                data_frame(0, 1, 400),
                AccessCategory::Bk,
            );
        }
        sim.run_until(SimTime::from_secs(10));
        let w = sim.world();
        let vo = w.ac_delay_quantile(AccessCategory::Vo, 0.5).unwrap();
        let bk = w.ac_delay_quantile(AccessCategory::Bk, 0.5).unwrap();
        assert!(
            bk < vo,
            "with swapped AIFSN sets BK ({bk} µs) must beat VO ({vo} µs)"
        );
    }

    #[test]
    fn qos_ampdu_to_distinct_receivers_does_not_merge() {
        let mut sim = qos_world(3, 10.0);
        // Alternating receivers: the same-receiver head-run rule must
        // split the backlog instead of aggregating across peers.
        for i in 0..10u64 {
            let to = 1 + (i % 2) as u32;
            qinject(
                &mut sim,
                1_000 + i,
                0,
                data_frame(0, to, 300),
                AccessCategory::Be,
            );
        }
        sim.run_until(SimTime::from_secs(2));
        let w = sim.world();
        assert_eq!(w.stats(0).tx_completions, 10);
        assert_eq!(w.stats(1).rx_accepted, 5);
        assert_eq!(w.stats(2).rx_accepted, 5);
        // Alternation forces 10 singleton aggregates.
        assert_eq!(w.trace.count_events(tx_of(FrameKind::QosData)), 10);
    }

    #[test]
    fn edca_and_legacy_stations_interoperate() {
        // A QoS sender talking to a legacy receiver: the BA response
        // path uses the plain control-frame scheduler, so mixed worlds
        // must still converse.
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = 5;
        cfg.edca = true;
        let mut w = WlanWorld::new(cfg);
        w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        for i in 0..5u64 {
            qinject(
                &mut sim,
                1_000 + i,
                0,
                data_frame(0, 0, 100),
                AccessCategory::Vi,
            );
        }
        sim.run_until(SimTime::from_secs(1));
        // Self-addressed traffic never completes, but must not wedge
        // or panic the EDCA machinery either.
        let _ = sim.world().stats(0);
    }

    #[test]
    fn qos_off_worlds_have_no_edca_state() {
        let sim = world(2, 10.0);
        assert_eq!(sim.world().station_airtime_us(0), 0);
        assert!(sim
            .world()
            .ac_delay_quantile(AccessCategory::Vo, 0.5)
            .is_none());
    }

    #[test]
    fn validate_rejects_each_invalid_field_by_name() {
        let base = MacConfig::new(PhyStandard::Dot11g);
        assert_eq!(base.validate(), Ok(()));
        type Breaker = fn(&mut MacConfig);
        let cases: [(&str, Breaker); 9] = [
            ("frag_threshold", |c| c.frag_threshold = 0),
            ("queue_limit", |c| c.queue_limit = 0),
            ("ampdu_max_mpdus", |c| c.ampdu_max_mpdus = 0),
            ("ampdu_max_bytes", |c| c.ampdu_max_bytes = 0),
            ("cw_min_override", |c| {
                c.cw_min_override = Some(63);
                c.cw_max_override = Some(31);
            }),
            ("ampdu_per_mpdu_loss", |c| c.ampdu_per_mpdu_loss = -0.1),
            ("ampdu_per_mpdu_loss", |c| c.ampdu_per_mpdu_loss = 1.5),
            ("ampdu_per_mpdu_loss", |c| c.ampdu_per_mpdu_loss = f64::NAN),
            ("cs_threshold", |c| c.cs_threshold = Dbm(f64::NAN)),
        ];
        for (field, break_it) in cases {
            let mut cfg = base.clone();
            break_it(&mut cfg);
            let err = cfg.validate().expect_err(field);
            assert!(
                err.contains(field),
                "{field}: error {err:?} names another field"
            );
        }
        // The boundary values stay valid.
        let mut edge = base.clone();
        edge.frag_threshold = 1;
        edge.queue_limit = 1;
        edge.ampdu_max_mpdus = 1;
        edge.ampdu_max_bytes = 1;
        edge.cw_min_override = Some(0);
        edge.cw_max_override = Some(0);
        edge.ampdu_per_mpdu_loss = 1.0;
        assert_eq!(edge.validate(), Ok(()));
        for std in [
            PhyStandard::Dot11b,
            PhyStandard::Dot11a,
            PhyStandard::Dot11g,
            PhyStandard::Dot11n,
        ] {
            assert_eq!(MacConfig::new(std).validate(), Ok(()));
        }
    }

    /// Every configuration `validate` rejects comes back from
    /// `try_new` as an error naming its field, never as a panic.
    #[test]
    fn try_new_returns_each_rejection_as_an_error() {
        type Breaker = fn(&mut MacConfig);
        let cases: [(&str, Breaker); 9] = [
            ("frag_threshold", |c| c.frag_threshold = 0),
            ("queue_limit", |c| c.queue_limit = 0),
            ("ampdu_max_mpdus", |c| c.ampdu_max_mpdus = 0),
            ("ampdu_max_bytes", |c| c.ampdu_max_bytes = 0),
            ("cw_min_override", |c| {
                c.cw_min_override = Some(63);
                c.cw_max_override = Some(31);
            }),
            ("ampdu_per_mpdu_loss", |c| c.ampdu_per_mpdu_loss = -0.1),
            ("ampdu_per_mpdu_loss", |c| c.ampdu_per_mpdu_loss = 1.5),
            ("cs_threshold", |c| c.cs_threshold = Dbm(f64::NAN)),
            ("cs_threshold", |c| c.cs_threshold = Dbm(f64::INFINITY)),
        ];
        for (field, break_it) in cases {
            let mut cfg = MacConfig::new(PhyStandard::Dot11g);
            cfg.edca = true;
            break_it(&mut cfg);
            match WlanWorld::try_new(cfg) {
                Ok(_) => panic!("{field}: accepted"),
                Err(e) => assert!(e.to_string().contains(field), "{field}: {e}"),
            }
        }
        assert!(WlanWorld::try_new(MacConfig::new(PhyStandard::Dot11g)).is_ok());
    }

    #[test]
    #[should_panic(expected = "frag_threshold")]
    fn zero_frag_threshold_fails_at_construction() {
        // Once ran out of memory: every MSDU split into empty
        // fragments forever.
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.frag_threshold = 0;
        let _ = WlanWorld::new(cfg);
    }
}
