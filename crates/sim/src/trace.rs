//! Bounded event tracing.
//!
//! A [`Trace`] is a ring buffer of timestamped records. Each record
//! carries either a human-readable message or, when emitted through
//! [`Trace::event`], a typed [`TraceEvent`] that tests and exporters can
//! match on structurally instead of by substring. A typed record's text
//! is rendered from the event only when it is read
//! ([`Record::message`]), so the records the ring evicts unread cost no
//! formatting.
//!
//! The buffer exists for three reasons: interactive debugging of
//! protocol exchanges (print the last N MAC events), test assertions
//! about *ordering* ("the CTS was sent after the RTS", "no data frame
//! preceded association"), and machine-readable JSONL export
//! ([`Trace::to_jsonl`]) for offline analysis of campaign runs.
//!
//! # Eviction contract
//!
//! The buffer is bounded: once `capacity` records are retained, each new
//! record evicts the oldest and increments [`Trace::dropped`]. All query
//! methods operate on the *retained window only*. Ordering queries
//! ([`Trace::happened_before`], [`Trace::happened_before_events`])
//! **panic** when any record has been evicted, because the first
//! occurrence of either needle may have been lost and the answer would
//! be arbitrary. Use [`Trace::happened_before_retained`] when
//! window-relative ordering is genuinely what you want, or size the
//! buffer so nothing is evicted ([`Trace::new`] with a larger capacity).
//! [`Trace::lookup_containing`] reports eviction explicitly via
//! [`Lookup::Evicted`].
//!
//! # Process-global kill switch
//!
//! [`set_observability`] disables record retention process-wide so the
//! cost of the layer can be measured (`perfsuite` runs the campaign once
//! with tracing on and once with it off). Simulation results never
//! depend on trace contents, so toggling it cannot change figures.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::json;
use crate::time::SimTime;

static OBSERVABILITY: AtomicBool = AtomicBool::new(true);

/// Enables or disables all trace retention in this process.
///
/// Used by `perfsuite` to measure the overhead of the observability
/// layer. Defaults to enabled.
pub fn set_observability(enabled: bool) {
    OBSERVABILITY.store(enabled, Ordering::Relaxed);
}

/// `true` when trace retention is enabled (the default).
pub fn observability_enabled() -> bool {
    OBSERVABILITY.load(Ordering::Relaxed)
}

/// Importance of a trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// High-volume per-frame detail.
    Debug,
    /// Normal protocol milestones (association, handoff, crack success).
    Info,
    /// Abnormal but recoverable conditions (retry limit, CRC failure).
    Warn,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// Frame class carried by tx/rx/drop events.
///
/// Mirrors the 802.11 subtype lattice but is protocol-agnostic: other
/// MACs map their frame classes onto the nearest variant (or
/// [`FrameKind::Other`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Association request.
    AssocReq,
    /// Association response.
    AssocResp,
    /// Reassociation request.
    ReassocReq,
    /// Reassociation response.
    ReassocResp,
    /// Probe request.
    ProbeReq,
    /// Probe response.
    ProbeResp,
    /// Beacon.
    Beacon,
    /// Announcement traffic indication message.
    Atim,
    /// Disassociation notice.
    Disassoc,
    /// Authentication frame.
    Auth,
    /// Deauthentication notice.
    Deauth,
    /// Power-save poll.
    PsPoll,
    /// Request-to-send.
    Rts,
    /// Clear-to-send.
    Cts,
    /// Acknowledgement.
    Ack,
    /// Data frame.
    Data,
    /// Data frame with empty body (power-management signalling).
    NullData,
    /// QoS data frame / A-MPDU aggregate (802.11e/n).
    QosData,
    /// Block Ack Request.
    BlockAckReq,
    /// Compressed Block Ack.
    BlockAck,
    /// Anything a particular MAC cannot map onto the variants above.
    Other,
}

/// Why a frame or MSDU was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Transmit queue was at its configured limit.
    QueueFull,
    /// Retry limit exhausted without an acknowledgement.
    RetryLimit,
    /// No route / next hop available.
    NoRoute,
    /// Lost to collision or channel error.
    Collision,
    /// Hop / TTL budget exhausted in a mesh.
    HopLimit,
    /// Refused at enqueue: the body is longer than the frame format
    /// can carry (an A-MPDU subframe's 16-bit length field).
    Oversize,
}

/// A structured trace event.
///
/// Station identifiers are world-local indices (the same `usize` ids the
/// simulation worlds use, narrowed to `u32`). The enum deliberately
/// spans every protocol family in the workspace so one exporter and one
/// set of test helpers serve all crates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A frame was put on the air.
    Tx {
        /// Transmitting station.
        station: u32,
        /// Frame class.
        kind: FrameKind,
        /// On-air length in bytes.
        len: u32,
        /// PHY data rate in Mb/s.
        rate_mbps: f64,
    },
    /// A frame was received and accepted.
    Rx {
        /// Receiving station.
        station: u32,
        /// Frame class.
        kind: FrameKind,
        /// On-air length in bytes.
        len: u32,
        /// Received signal strength in dBm.
        rssi_dbm: f64,
    },
    /// A frame or MSDU was discarded.
    Drop {
        /// Station discarding the frame.
        station: u32,
        /// Frame class.
        kind: FrameKind,
        /// Why it was discarded.
        reason: DropReason,
    },
    /// Contention backoff armed.
    Backoff {
        /// Station deferring.
        station: u32,
        /// Slots drawn from the contention window.
        slots: u32,
        /// Current contention window size.
        cw: u32,
    },
    /// Virtual carrier-sense (NAV) reservation observed.
    Nav {
        /// Station honouring the reservation.
        station: u32,
        /// Reservation end, microseconds of virtual time.
        until_us: u64,
    },
    /// A transmission attempt is being retried.
    Retry {
        /// Retrying station.
        station: u32,
        /// Short retry counter after the increment.
        short: u32,
        /// Long retry counter after the increment.
        long: u32,
    },
    /// Final outcome of an MSDU handed to the MAC.
    TxOutcome {
        /// Originating station.
        station: u32,
        /// `true` on acknowledged delivery, `false` on failure.
        ok: bool,
    },
    /// Association (or reassociation) completed.
    Assoc {
        /// Station that associated (STA side) or granted (AP side).
        station: u32,
        /// Association identifier assigned by the AP.
        aid: u16,
    },
    /// Station moved to a different point of attachment.
    Handoff {
        /// Roaming station.
        station: u32,
    },
    /// Power-save state transition.
    PowerSave {
        /// Station changing state.
        station: u32,
        /// `true` when entering doze, `false` when waking.
        doze: bool,
    },
    /// A node joined a network/piconet under a parent/master.
    Join {
        /// Joining node.
        station: u32,
        /// Parent, coordinator or piconet master.
        parent: u32,
    },
    /// Piconet master polled a slave (TDD slot pair).
    Poll {
        /// Polling master.
        station: u32,
        /// Polled slave.
        peer: u32,
        /// Slot pairs exchanged.
        slots: u32,
    },
    /// Scheduler granted capacity to a subscriber for one frame.
    Grant {
        /// Subscriber station.
        station: u32,
        /// Bytes moved under the grant.
        bytes: u64,
        /// `true` for an uplink grant, `false` for downlink.
        uplink: bool,
    },
    /// End-to-end delivery in a multi-hop network.
    Deliver {
        /// Destination node.
        station: u32,
        /// Payload bytes delivered.
        bytes: u64,
        /// Hops traversed.
        hops: u32,
    },
    /// One forwarding hop in a multi-hop network.
    Forward {
        /// Node doing the forwarding.
        station: u32,
        /// Final destination node.
        dst: u32,
        /// Hops traversed so far.
        hops: u32,
    },
    /// Key-recovery progress in a security experiment.
    Crack {
        /// Attacking station.
        station: u32,
        /// Attack method label.
        method: &'static str,
        /// Whether the key was recovered.
        ok: bool,
    },
    /// EDCA per-access-category contention backoff armed (802.11e).
    EdcaBackoff {
        /// Station deferring.
        station: u32,
        /// Access category (0 = AC_VO … 3 = AC_BK).
        ac: u8,
        /// Slots drawn from the category's contention window.
        slots: u32,
        /// The category's current contention window size.
        cw: u32,
    },
    /// An A-MPDU aggregate was put on the air. Bit `k` of `bitmap` set
    /// means an MPDU with sequence number `ssn + k` rode the aggregate.
    AmpduTx {
        /// Transmitting station.
        station: u32,
        /// Access category of the aggregate.
        ac: u8,
        /// Starting sequence number of the block-ack window.
        ssn: u16,
        /// MPDU presence bitmap relative to `ssn`.
        bitmap: u64,
    },
    /// A block ack was processed by the originator. Bit `k` of `bitmap`
    /// set means the MPDU with sequence `ssn + k` was acknowledged and
    /// completed by this block ack (already-completed sequences are
    /// masked out, so each sequence number completes at most once).
    BlockAckRx {
        /// Originating (data-sending) station processing the BA.
        station: u32,
        /// Access category of the acknowledged aggregate.
        ac: u8,
        /// Starting sequence number of the block-ack window.
        ssn: u16,
        /// Acknowledged-MPDU bitmap relative to `ssn`.
        bitmap: u64,
    },
    /// An MPDU exhausted its retry budget and left the block-ack
    /// window unacknowledged.
    MpduDrop {
        /// Originating station dropping the MPDU.
        station: u32,
        /// Access category of the dropped MPDU.
        ac: u8,
        /// Sequence number of the dropped MPDU.
        seq: u16,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::Tx {
                station,
                kind,
                len,
                rate_mbps,
            } => write!(f, "tx {kind:?} sta={station} len={len} rate={rate_mbps:.1}"),
            TraceEvent::Rx {
                station,
                kind,
                len,
                rssi_dbm,
            } => write!(f, "rx {kind:?} sta={station} len={len} rssi={rssi_dbm:.1}"),
            TraceEvent::Drop {
                station,
                kind,
                reason,
            } => write!(f, "drop {kind:?} sta={station} reason={reason:?}"),
            TraceEvent::Backoff { station, slots, cw } => {
                write!(f, "backoff sta={station} slots={slots} cw={cw}")
            }
            TraceEvent::Nav { station, until_us } => {
                write!(f, "nav sta={station} until={until_us}us")
            }
            TraceEvent::Retry {
                station,
                short,
                long,
            } => write!(f, "retry sta={station} short={short} long={long}"),
            TraceEvent::TxOutcome { station, ok } => {
                write!(f, "tx-outcome sta={station} ok={ok}")
            }
            TraceEvent::Assoc { station, aid } => write!(f, "assoc sta={station} aid={aid}"),
            TraceEvent::Handoff { station } => write!(f, "handoff sta={station}"),
            TraceEvent::PowerSave { station, doze } => {
                write!(f, "power-save sta={station} doze={doze}")
            }
            TraceEvent::Join { station, parent } => {
                write!(f, "join sta={station} parent={parent}")
            }
            TraceEvent::Poll {
                station,
                peer,
                slots,
            } => write!(f, "poll master={station} slave={peer} slots={slots}"),
            TraceEvent::Grant {
                station,
                bytes,
                uplink,
            } => write!(f, "grant ss={station} bytes={bytes} uplink={uplink}"),
            TraceEvent::Deliver {
                station,
                bytes,
                hops,
            } => write!(f, "deliver sta={station} bytes={bytes} hops={hops}"),
            TraceEvent::Forward { station, dst, hops } => {
                write!(f, "forward sta={station} dst={dst} hops={hops}")
            }
            TraceEvent::Crack {
                station,
                method,
                ok,
            } => write!(f, "crack sta={station} method={method} ok={ok}"),
            TraceEvent::EdcaBackoff {
                station,
                ac,
                slots,
                cw,
            } => write!(
                f,
                "edca-backoff sta={station} ac={ac} slots={slots} cw={cw}"
            ),
            TraceEvent::AmpduTx {
                station,
                ac,
                ssn,
                bitmap,
            } => write!(
                f,
                "ampdu-tx sta={station} ac={ac} ssn={ssn} bitmap={bitmap:#x}"
            ),
            TraceEvent::BlockAckRx {
                station,
                ac,
                ssn,
                bitmap,
            } => write!(
                f,
                "block-ack-rx sta={station} ac={ac} ssn={ssn} bitmap={bitmap:#x}"
            ),
            TraceEvent::MpduDrop { station, ac, seq } => {
                write!(f, "mpdu-drop sta={station} ac={ac} seq={seq}")
            }
        }
    }
}

impl TraceEvent {
    /// Stable discriminant used as the JSON `type` field.
    pub fn type_tag(&self) -> &'static str {
        match self {
            TraceEvent::Tx { .. } => "tx",
            TraceEvent::Rx { .. } => "rx",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Backoff { .. } => "backoff",
            TraceEvent::Nav { .. } => "nav",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::TxOutcome { .. } => "tx_outcome",
            TraceEvent::Assoc { .. } => "assoc",
            TraceEvent::Handoff { .. } => "handoff",
            TraceEvent::PowerSave { .. } => "power_save",
            TraceEvent::Join { .. } => "join",
            TraceEvent::Poll { .. } => "poll",
            TraceEvent::Grant { .. } => "grant",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::Forward { .. } => "forward",
            TraceEvent::Crack { .. } => "crack",
            TraceEvent::EdcaBackoff { .. } => "edca_backoff",
            TraceEvent::AmpduTx { .. } => "ampdu_tx",
            TraceEvent::BlockAckRx { .. } => "block_ack_rx",
            TraceEvent::MpduDrop { .. } => "mpdu_drop",
        }
    }

    /// Station the event is attributed to.
    pub fn station(&self) -> u32 {
        match *self {
            TraceEvent::Tx { station, .. }
            | TraceEvent::Rx { station, .. }
            | TraceEvent::Drop { station, .. }
            | TraceEvent::Backoff { station, .. }
            | TraceEvent::Nav { station, .. }
            | TraceEvent::Retry { station, .. }
            | TraceEvent::TxOutcome { station, .. }
            | TraceEvent::Assoc { station, .. }
            | TraceEvent::Handoff { station }
            | TraceEvent::PowerSave { station, .. }
            | TraceEvent::Join { station, .. }
            | TraceEvent::Poll { station, .. }
            | TraceEvent::Grant { station, .. }
            | TraceEvent::Deliver { station, .. }
            | TraceEvent::Forward { station, .. }
            | TraceEvent::Crack { station, .. }
            | TraceEvent::EdcaBackoff { station, .. }
            | TraceEvent::AmpduTx { station, .. }
            | TraceEvent::BlockAckRx { station, .. }
            | TraceEvent::MpduDrop { station, .. } => station,
        }
    }

    /// Appends the event's JSON fields (starting with `"type"`) to `out`.
    fn write_json_fields(&self, out: &mut String) {
        out.push_str("\"type\":\"");
        out.push_str(self.type_tag());
        out.push('"');
        out.push_str(",\"station\":");
        out.push_str(&self.station().to_string());
        match *self {
            TraceEvent::Tx {
                kind,
                len,
                rate_mbps,
                ..
            } => {
                json::push_str_field(out, "kind", &format!("{kind:?}"));
                json::push_u64_field(out, "len", u64::from(len));
                json::push_f64_field(out, "rate_mbps", rate_mbps);
            }
            TraceEvent::Rx {
                kind,
                len,
                rssi_dbm,
                ..
            } => {
                json::push_str_field(out, "kind", &format!("{kind:?}"));
                json::push_u64_field(out, "len", u64::from(len));
                json::push_f64_field(out, "rssi_dbm", rssi_dbm);
            }
            TraceEvent::Drop { kind, reason, .. } => {
                json::push_str_field(out, "kind", &format!("{kind:?}"));
                json::push_str_field(out, "reason", &format!("{reason:?}"));
            }
            TraceEvent::Backoff { slots, cw, .. } => {
                json::push_u64_field(out, "slots", u64::from(slots));
                json::push_u64_field(out, "cw", u64::from(cw));
            }
            TraceEvent::Nav { until_us, .. } => {
                json::push_u64_field(out, "until_us", until_us);
            }
            TraceEvent::Retry { short, long, .. } => {
                json::push_u64_field(out, "short", u64::from(short));
                json::push_u64_field(out, "long", u64::from(long));
            }
            TraceEvent::TxOutcome { ok, .. } => {
                json::push_bool_field(out, "ok", ok);
            }
            TraceEvent::Assoc { aid, .. } => {
                json::push_u64_field(out, "aid", u64::from(aid));
            }
            TraceEvent::Handoff { .. } => {}
            TraceEvent::PowerSave { doze, .. } => {
                json::push_bool_field(out, "doze", doze);
            }
            TraceEvent::Join { parent, .. } => {
                json::push_u64_field(out, "parent", u64::from(parent));
            }
            TraceEvent::Poll { peer, slots, .. } => {
                json::push_u64_field(out, "peer", u64::from(peer));
                json::push_u64_field(out, "slots", u64::from(slots));
            }
            TraceEvent::Grant { bytes, uplink, .. } => {
                json::push_u64_field(out, "bytes", bytes);
                json::push_bool_field(out, "uplink", uplink);
            }
            TraceEvent::Deliver { bytes, hops, .. } => {
                json::push_u64_field(out, "bytes", bytes);
                json::push_u64_field(out, "hops", u64::from(hops));
            }
            TraceEvent::Forward { dst, hops, .. } => {
                json::push_u64_field(out, "dst", u64::from(dst));
                json::push_u64_field(out, "hops", u64::from(hops));
            }
            TraceEvent::Crack { method, ok, .. } => {
                json::push_str_field(out, "method", method);
                json::push_bool_field(out, "ok", ok);
            }
            TraceEvent::EdcaBackoff { ac, slots, cw, .. } => {
                json::push_u64_field(out, "ac", u64::from(ac));
                json::push_u64_field(out, "slots", u64::from(slots));
                json::push_u64_field(out, "cw", u64::from(cw));
            }
            TraceEvent::AmpduTx {
                ac, ssn, bitmap, ..
            }
            | TraceEvent::BlockAckRx {
                ac, ssn, bitmap, ..
            } => {
                json::push_u64_field(out, "ac", u64::from(ac));
                json::push_u64_field(out, "ssn", u64::from(ssn));
                json::push_u64_field(out, "bitmap", bitmap);
            }
            TraceEvent::MpduDrop { ac, seq, .. } => {
                json::push_u64_field(out, "ac", u64::from(ac));
                json::push_u64_field(out, "seq", u64::from(seq));
            }
        }
    }
}

/// One trace record.
#[derive(Clone, Debug)]
pub struct Record {
    /// Virtual time of the record.
    pub at: SimTime,
    /// Importance.
    pub level: Level,
    /// Short category tag, e.g. `"mac"`, `"phy"`, `"sec"`.
    pub tag: &'static str,
    /// Message text of a string-API record; empty for typed events.
    text: String,
    /// Structured payload when emitted through [`Trace::event`].
    pub event: Option<TraceEvent>,
}

impl Record {
    /// Human-readable message: a typed event rendered through its
    /// `Display` impl, or the text given to the string API.
    pub fn message(&self) -> Cow<'_, str> {
        match &self.event {
            Some(e) => Cow::Owned(e.to_string()),
            None => Cow::Borrowed(&self.text),
        }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {:?} {}] ", self.at, self.level, self.tag)?;
        match &self.event {
            Some(e) => write!(f, "{e}"),
            None => f.write_str(&self.text),
        }
    }
}

/// Result of an eviction-aware lookup ([`Trace::lookup_containing`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Found at this index within the retained window.
    Found(usize),
    /// Not present, and nothing was ever evicted — a definitive miss.
    Absent,
    /// Not present in the retained window, but records were evicted, so
    /// a match may have been lost. The answer is unknowable.
    Evicted,
}

/// A bounded ring buffer of trace records.
#[derive(Clone, Debug)]
pub struct Trace {
    records: VecDeque<Record>,
    capacity: usize,
    min_level: Level,
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl Trace {
    /// Creates a trace retaining at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            records: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            min_level: Level::Debug,
            dropped: 0,
        }
    }

    /// Sets the minimum level retained; lower-level records are ignored.
    pub fn set_min_level(&mut self, level: Level) {
        self.min_level = level;
    }

    fn push(&mut self, record: Record) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// Appends a record, evicting the oldest when full.
    pub fn emit(&mut self, at: SimTime, level: Level, tag: &'static str, message: String) {
        if level < self.min_level || !observability_enabled() {
            return;
        }
        self.push(Record {
            at,
            level,
            tag,
            text: message,
            event: None,
        });
    }

    /// Appends a typed event, evicting the oldest record when full.
    ///
    /// Only the event is stored; its human-readable message is rendered
    /// through the `Display` impl when read ([`Record::message`]), so
    /// recording costs no formatting or allocation.
    pub fn event(&mut self, at: SimTime, level: Level, tag: &'static str, event: TraceEvent) {
        if level < self.min_level || !observability_enabled() {
            return;
        }
        self.push(Record {
            at,
            level,
            tag,
            text: String::new(),
            event: Some(event),
        });
    }

    /// Convenience: emit at [`Level::Debug`].
    pub fn debug(&mut self, at: SimTime, tag: &'static str, message: impl Into<String>) {
        self.emit(at, Level::Debug, tag, message.into());
    }

    /// Convenience: emit at [`Level::Info`].
    pub fn info(&mut self, at: SimTime, tag: &'static str, message: impl Into<String>) {
        self.emit(at, Level::Info, tag, message.into());
    }

    /// Convenience: emit at [`Level::Warn`].
    pub fn warn(&mut self, at: SimTime, tag: &'static str, message: impl Into<String>) {
        self.emit(at, Level::Warn, tag, message.into());
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }

    /// Typed events currently retained, oldest first, with timestamps.
    ///
    /// Records emitted through the string API are skipped.
    pub fn events(&self) -> impl Iterator<Item = (SimTime, &TraceEvent)> {
        self.records
            .iter()
            .filter_map(|r| r.event.as_ref().map(|e| (r.at, e)))
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Eviction-aware lookup of the first retained record whose message
    /// contains `needle`.
    ///
    /// Unlike [`Trace::position_containing`] this never panics: a miss
    /// is reported as [`Lookup::Absent`] when the buffer has never
    /// evicted (definitive) and as [`Lookup::Evicted`] when records have
    /// been lost (unknowable).
    pub fn lookup_containing(&self, needle: &str) -> Lookup {
        match self
            .records
            .iter()
            .position(|r| r.message().contains(needle))
        {
            Some(i) => Lookup::Found(i),
            None if self.dropped == 0 => Lookup::Absent,
            None => Lookup::Evicted,
        }
    }

    /// Index of the first retained record whose message contains
    /// `needle`.
    ///
    /// The index is relative to the retained window (what [`Trace::records`]
    /// iterates), not to the full emission history.
    ///
    /// # Panics
    ///
    /// Panics when `needle` is not found *and* records have been
    /// evicted: the match may have been lost, so `None` would be a lie.
    /// Use [`Trace::lookup_containing`] for a non-panicking,
    /// eviction-aware answer.
    pub fn position_containing(&self, needle: &str) -> Option<usize> {
        match self.lookup_containing(needle) {
            Lookup::Found(i) => Some(i),
            Lookup::Absent => None,
            Lookup::Evicted => panic!(
                "Trace::position_containing({needle:?}): no retained match, but {} record(s) \
                 were evicted — the answer is unknowable; use lookup_containing() or a larger \
                 trace capacity",
                self.dropped
            ),
        }
    }

    /// `true` if a record containing `a` precedes one containing `b`.
    ///
    /// The canonical ordering assertion for protocol tests.
    ///
    /// # Panics
    ///
    /// Panics when any record has been evicted, because the *first*
    /// occurrence of either needle may have been lost and the observed
    /// order of the survivors is not evidence of the true order. Use
    /// [`Trace::happened_before_retained`] for window-relative ordering,
    /// or a trace capacity large enough that nothing is evicted.
    pub fn happened_before(&self, a: &str, b: &str) -> bool {
        assert!(
            self.dropped == 0,
            "Trace::happened_before({a:?}, {b:?}): {} record(s) were evicted, so first \
             occurrences may be lost and the ordering is unknowable; use \
             happened_before_retained() or a larger trace capacity",
            self.dropped
        );
        self.happened_before_retained(a, b)
    }

    /// `true` if, *within the retained window*, a record containing `a`
    /// precedes one containing `b`.
    ///
    /// Unlike [`Trace::happened_before`] this does not panic on
    /// eviction; it answers the weaker, always-well-defined question
    /// about the surviving records.
    pub fn happened_before_retained(&self, a: &str, b: &str) -> bool {
        let ia = self.records.iter().position(|r| r.message().contains(a));
        let ib = self.records.iter().position(|r| r.message().contains(b));
        match (ia, ib) {
            (Some(ia), Some(ib)) => ia < ib,
            _ => false,
        }
    }

    /// `true` if an event matching `a` precedes one matching `b`.
    ///
    /// The typed counterpart of [`Trace::happened_before`]: predicates
    /// match on [`TraceEvent`] variants, so tests assert protocol
    /// orderings structurally instead of by substring.
    ///
    /// # Panics
    ///
    /// Panics when any record has been evicted, for the same reason as
    /// [`Trace::happened_before`].
    pub fn happened_before_events(
        &self,
        a: impl Fn(&TraceEvent) -> bool,
        b: impl Fn(&TraceEvent) -> bool,
    ) -> bool {
        assert!(
            self.dropped == 0,
            "Trace::happened_before_events: {} record(s) were evicted, so first occurrences \
             may be lost and the ordering is unknowable; use a larger trace capacity",
            self.dropped
        );
        let ia = self.events().position(|(_, e)| a(e));
        let ib = self.events().position(|(_, e)| b(e));
        match (ia, ib) {
            (Some(ia), Some(ib)) => ia < ib,
            _ => false,
        }
    }

    /// Counts retained records whose message contains `needle`.
    pub fn count_containing(&self, needle: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.message().contains(needle))
            .count()
    }

    /// Counts retained typed events matching `pred`.
    pub fn count_events(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events().filter(|(_, e)| pred(e)).count()
    }

    /// Typed events attributed to `station`, oldest first.
    ///
    /// The per-station view invariant oracles reason over: events
    /// whose [`TraceEvent::station`] does not match are skipped.
    pub fn events_for(&self, station: u32) -> impl Iterator<Item = (SimTime, &TraceEvent)> {
        self.events().filter(move |(_, e)| e.station() == station)
    }

    /// The most recent retained event strictly before `at` matching
    /// `pred`, if any.
    ///
    /// Oracles use this to find the *governing* event for a later
    /// observation — e.g. the NAV reservation in force when a station
    /// started transmitting.
    pub fn last_event_before(
        &self,
        at: SimTime,
        pred: impl Fn(&TraceEvent) -> bool,
    ) -> Option<(SimTime, &TraceEvent)> {
        self.events()
            .take_while(|&(t, _)| t < at)
            .filter(|(_, e)| pred(e))
            .last()
    }

    /// Serialises every retained record as one JSON object per line.
    ///
    /// `exp` tags each line with the experiment id so per-experiment
    /// dumps can be concatenated into one campaign artifact. Key order
    /// and number formatting are fixed, so equal traces produce
    /// byte-identical output.
    pub fn to_jsonl(&self, exp: &str) -> String {
        let mut out = String::with_capacity(self.records.len() * 96);
        for r in &self.records {
            out.push_str("{\"exp\":");
            json::push_str(&mut out, exp);
            out.push_str(",\"at_ns\":");
            out.push_str(&r.at.as_nanos().to_string());
            out.push_str(",\"level\":\"");
            out.push_str(r.level.as_str());
            out.push_str("\",\"tag\":");
            json::push_str(&mut out, r.tag);
            out.push(',');
            match &r.event {
                Some(e) => e.write_json_fields(&mut out),
                None => {
                    out.push_str("\"type\":\"msg\",\"message\":");
                    json::push_str(&mut out, &r.text);
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn emits_and_reads_back() {
        let mut tr = Trace::new(10);
        tr.info(t(1), "mac", "rts sent");
        tr.info(t(2), "mac", "cts sent");
        assert_eq!(tr.len(), 2);
        let msgs: Vec<String> = tr.records().map(|r| r.message().into_owned()).collect();
        assert_eq!(msgs, vec!["rts sent", "cts sent"]);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut tr = Trace::new(3);
        for i in 0..5 {
            tr.info(t(i), "x", format!("m{i}"));
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 2);
        let msgs: Vec<String> = tr.records().map(|r| r.message().into_owned()).collect();
        assert_eq!(msgs, vec!["m2", "m3", "m4"]);
    }

    #[test]
    fn level_filter_drops_below_min() {
        let mut tr = Trace::new(10);
        tr.set_min_level(Level::Info);
        tr.debug(t(0), "x", "noise");
        tr.info(t(1), "x", "signal");
        tr.warn(t(2), "x", "alarm");
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn happened_before_orders_correctly() {
        let mut tr = Trace::new(10);
        tr.info(t(1), "mac", "rts to ap");
        tr.info(t(2), "mac", "cts from ap");
        tr.info(t(3), "mac", "data to ap");
        assert!(tr.happened_before("rts", "cts"));
        assert!(tr.happened_before("cts", "data"));
        assert!(!tr.happened_before("data", "rts"));
        assert!(!tr.happened_before("missing", "rts"));
    }

    #[test]
    fn count_containing_counts() {
        let mut tr = Trace::new(10);
        tr.info(t(1), "mac", "retry 1");
        tr.info(t(2), "mac", "retry 2");
        tr.info(t(3), "mac", "ack");
        assert_eq!(tr.count_containing("retry"), 2);
        assert_eq!(tr.count_containing("nak"), 0);
    }

    #[test]
    fn display_includes_time_and_tag() {
        let mut tr = Trace::new(4);
        tr.warn(t(5), "phy", "crc failure");
        let s = tr.records().next().unwrap().to_string();
        assert!(s.contains("phy"), "{s}");
        assert!(s.contains("crc failure"), "{s}");
        assert!(s.contains("5.000ms"), "{s}");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Trace::new(0);
    }

    #[test]
    fn typed_events_round_trip() {
        let mut tr = Trace::new(10);
        tr.event(
            t(1),
            Level::Debug,
            "mac",
            TraceEvent::Tx {
                station: 3,
                kind: FrameKind::Rts,
                len: 20,
                rate_mbps: 6.0,
            },
        );
        tr.event(
            t(2),
            Level::Debug,
            "mac",
            TraceEvent::Tx {
                station: 0,
                kind: FrameKind::Cts,
                len: 14,
                rate_mbps: 6.0,
            },
        );
        assert_eq!(tr.events().count(), 2);
        assert!(tr.happened_before_events(
            |e| matches!(
                e,
                TraceEvent::Tx {
                    kind: FrameKind::Rts,
                    ..
                }
            ),
            |e| matches!(
                e,
                TraceEvent::Tx {
                    kind: FrameKind::Cts,
                    ..
                }
            ),
        ));
        assert_eq!(
            tr.count_events(|e| matches!(e, TraceEvent::Tx { station: 3, .. })),
            1
        );
        // The rendered message matches the Display impl.
        let first = tr.records().next().unwrap();
        assert_eq!(first.message(), "tx Rts sta=3 len=20 rate=6.0");
    }

    #[test]
    fn events_for_and_last_event_before_query_by_station_and_time() {
        let mut tr = Trace::new(10);
        for (ms, sta, slots) in [(1u64, 0u32, 3u32), (2, 1, 7), (3, 0, 15)] {
            tr.event(
                t(ms),
                Level::Debug,
                "mac",
                TraceEvent::Backoff {
                    station: sta,
                    slots,
                    cw: 31,
                },
            );
        }
        assert_eq!(tr.events_for(0).count(), 2);
        assert_eq!(tr.events_for(1).count(), 1);
        assert_eq!(tr.events_for(9).count(), 0);
        // Strictly-before: the event at t=3 is excluded when at == t(3).
        let (when, ev) = tr
            .last_event_before(t(3), |e| e.station() == 0)
            .expect("governing event");
        assert_eq!(when, t(1));
        assert!(matches!(ev, TraceEvent::Backoff { slots: 3, .. }));
        assert!(tr.last_event_before(t(1), |_| true).is_none());
    }

    #[test]
    fn lookup_is_eviction_aware() {
        let mut tr = Trace::new(2);
        tr.info(t(0), "x", "alpha");
        assert_eq!(tr.lookup_containing("alpha"), Lookup::Found(0));
        assert_eq!(tr.lookup_containing("beta"), Lookup::Absent);
        tr.info(t(1), "x", "bravo");
        tr.info(t(2), "x", "charlie"); // evicts "alpha"
        assert_eq!(tr.dropped(), 1);
        assert_eq!(tr.lookup_containing("alpha"), Lookup::Evicted);
        assert_eq!(tr.lookup_containing("charlie"), Lookup::Found(1));
    }

    /// Regression: pre-fix, a miss after eviction silently returned
    /// `None`, so ordering assertions in long runs could pass or fail
    /// arbitrarily depending on buffer size.
    #[test]
    #[should_panic(expected = "unknowable")]
    fn position_containing_panics_on_evicted_miss() {
        let mut tr = Trace::new(2);
        tr.info(t(0), "x", "alpha");
        tr.info(t(1), "x", "bravo");
        tr.info(t(2), "x", "charlie"); // evicts "alpha"
        let _ = tr.position_containing("alpha");
    }

    /// Regression: pre-fix, `happened_before` silently returned `false`
    /// once the ring had evicted either needle's first occurrence.
    #[test]
    #[should_panic(expected = "unknowable")]
    fn happened_before_panics_after_eviction() {
        let mut tr = Trace::new(2);
        tr.info(t(0), "x", "rts");
        tr.info(t(1), "x", "cts");
        tr.info(t(2), "x", "data"); // evicts "rts"
        let _ = tr.happened_before("rts", "cts");
    }

    #[test]
    fn happened_before_retained_answers_window_question() {
        let mut tr = Trace::new(2);
        tr.info(t(0), "x", "rts");
        tr.info(t(1), "x", "cts");
        tr.info(t(2), "x", "data"); // evicts "rts"
        assert!(tr.happened_before_retained("cts", "data"));
        assert!(!tr.happened_before_retained("rts", "cts"));
    }

    /// One instance of every [`TraceEvent`] variant.
    fn every_variant() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Tx {
                station: 1,
                kind: FrameKind::Rts,
                len: 20,
                rate_mbps: 6.0,
            },
            TraceEvent::Rx {
                station: 2,
                kind: FrameKind::Data,
                len: 1534,
                rssi_dbm: -61.25,
            },
            TraceEvent::Drop {
                station: 3,
                kind: FrameKind::QosData,
                reason: DropReason::QueueFull,
            },
            TraceEvent::Backoff {
                station: 4,
                slots: 7,
                cw: 31,
            },
            TraceEvent::Nav {
                station: 5,
                until_us: 1234,
            },
            TraceEvent::Retry {
                station: 6,
                short: 2,
                long: 0,
            },
            TraceEvent::TxOutcome {
                station: 7,
                ok: false,
            },
            TraceEvent::Assoc { station: 8, aid: 3 },
            TraceEvent::Handoff { station: 9 },
            TraceEvent::PowerSave {
                station: 10,
                doze: true,
            },
            TraceEvent::Join {
                station: 11,
                parent: 0,
            },
            TraceEvent::Poll {
                station: 12,
                peer: 13,
                slots: 2,
            },
            TraceEvent::Grant {
                station: 14,
                bytes: 4096,
                uplink: true,
            },
            TraceEvent::Deliver {
                station: 15,
                bytes: 512,
                hops: 3,
            },
            TraceEvent::Forward {
                station: 16,
                dst: 17,
                hops: 1,
            },
            TraceEvent::Crack {
                station: 18,
                method: "fms",
                ok: true,
            },
            TraceEvent::EdcaBackoff {
                station: 19,
                ac: 1,
                slots: 5,
                cw: 15,
            },
            TraceEvent::AmpduTx {
                station: 20,
                ac: 2,
                ssn: 4095,
                bitmap: 0xff,
            },
            TraceEvent::BlockAckRx {
                station: 21,
                ac: 0,
                ssn: 7,
                bitmap: 0x5,
            },
            TraceEvent::MpduDrop {
                station: 22,
                ac: 3,
                seq: 9,
            },
        ]
    }

    /// Typed records keep only the event; their text is rendered on
    /// read, equals the `Display` output, and the JSONL export is
    /// written from the fields exactly as before.
    #[test]
    fn typed_records_render_their_message_on_read() {
        let events = every_variant();
        let mut tr = Trace::new(64);
        for (i, e) in events.iter().enumerate() {
            tr.event(t(i as u64), Level::Debug, "mac", *e);
        }
        assert_eq!(tr.len(), events.len());
        for (r, e) in tr.records().zip(&events) {
            assert_eq!(r.event, Some(*e));
            assert_eq!(r.message(), e.to_string());
            assert_eq!(r.to_string(), format!("[{} Debug mac] {e}", r.at));
        }
        let expected = [
            r#""type":"tx","station":1,"kind":"Rts","len":20,"rate_mbps":6"#,
            r#""type":"rx","station":2,"kind":"Data","len":1534,"rssi_dbm":-61.25"#,
            r#""type":"drop","station":3,"kind":"QosData","reason":"QueueFull""#,
            r#""type":"backoff","station":4,"slots":7,"cw":31"#,
            r#""type":"nav","station":5,"until_us":1234"#,
            r#""type":"retry","station":6,"short":2,"long":0"#,
            r#""type":"tx_outcome","station":7,"ok":false"#,
            r#""type":"assoc","station":8,"aid":3"#,
            r#""type":"handoff","station":9"#,
            r#""type":"power_save","station":10,"doze":true"#,
            r#""type":"join","station":11,"parent":0"#,
            r#""type":"poll","station":12,"peer":13,"slots":2"#,
            r#""type":"grant","station":14,"bytes":4096,"uplink":true"#,
            r#""type":"deliver","station":15,"bytes":512,"hops":3"#,
            r#""type":"forward","station":16,"dst":17,"hops":1"#,
            r#""type":"crack","station":18,"method":"fms","ok":true"#,
            r#""type":"edca_backoff","station":19,"ac":1,"slots":5,"cw":15"#,
            r#""type":"ampdu_tx","station":20,"ac":2,"ssn":4095,"bitmap":255"#,
            r#""type":"block_ack_rx","station":21,"ac":0,"ssn":7,"bitmap":5"#,
            r#""type":"mpdu_drop","station":22,"ac":3,"seq":9"#,
        ];
        let jsonl = tr.to_jsonl("X");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), expected.len());
        for (i, (line, fields)) in lines.iter().zip(expected).enumerate() {
            let at_ns = i as u64 * 1_000_000;
            assert_eq!(
                *line,
                format!(
                    "{{\"exp\":\"X\",\"at_ns\":{at_ns},\"level\":\"debug\",\"tag\":\"mac\",{fields}}}"
                )
            );
        }
    }

    /// The substring queries see typed records through their rendered
    /// text, alongside string-API records.
    #[test]
    fn substring_queries_match_typed_records() {
        let mut tr = Trace::new(64);
        tr.info(t(0), "mac", "association started");
        for (i, e) in every_variant().into_iter().enumerate() {
            tr.event(t(i as u64 + 1), Level::Debug, "mac", e);
        }
        tr.info(t(30), "mac", "association finished");
        assert_eq!(tr.count_containing("sta=1 "), 1);
        assert_eq!(tr.count_containing("tx Rts"), 1);
        assert_eq!(tr.count_containing("bitmap=0xff"), 1);
        assert_eq!(tr.count_containing("association"), 2);
        assert_eq!(tr.count_containing("tx"), 3); // tx, tx-outcome, ampdu-tx
        assert_eq!(tr.lookup_containing("handoff sta=9"), Lookup::Found(9));
        assert_eq!(tr.lookup_containing("teardown"), Lookup::Absent);
        assert_eq!(tr.position_containing("mpdu-drop"), Some(20));
        assert!(tr.happened_before("association started", "tx Rts"));
        assert!(tr.happened_before("tx Rts", "rx Data"));
        assert!(tr.happened_before("mpdu-drop", "association finished"));
        assert!(!tr.happened_before("rx Data", "tx Rts"));
        assert!(tr.happened_before_retained("crack", "edca-backoff"));
    }

    #[test]
    fn jsonl_serialises_typed_and_string_records() {
        let mut tr = Trace::new(8);
        tr.event(
            t(1),
            Level::Debug,
            "mac",
            TraceEvent::Tx {
                station: 1,
                kind: FrameKind::Data,
                len: 1534,
                rate_mbps: 54.0,
            },
        );
        tr.warn(t(2), "phy", "crc \"failure\"\n".to_string());
        let jsonl = tr.to_jsonl("FIG-0.0");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"exp\":\"FIG-0.0\",\"at_ns\":1000000,\"level\":\"debug\",\"tag\":\"mac\",\
             \"type\":\"tx\",\"station\":1,\"kind\":\"Data\",\"len\":1534,\"rate_mbps\":54}"
        );
        assert_eq!(
            lines[1],
            "{\"exp\":\"FIG-0.0\",\"at_ns\":2000000,\"level\":\"warn\",\"tag\":\"phy\",\
             \"type\":\"msg\",\"message\":\"crc \\\"failure\\\"\\n\"}"
        );
    }
}
