//! Bounded event tracing.
//!
//! A [`Trace`] is a ring buffer of timestamped records, each holding
//! exactly one typed [`TraceEvent`]. Every producer in the workspace
//! records through [`Trace::event`]; recording copies the event and
//! formats nothing. `Debug` is the only text rendering, for interactive
//! inspection.
//!
//! The buffer exists for three reasons: test assertions about
//! *ordering* ("the CTS was sent after the RTS", "no data frame preceded
//! association") through [`Trace::happened_before_events`], the
//! invariant oracles that walk [`Trace::events`], and machine-readable
//! JSONL export ([`Trace::to_jsonl`]) for offline analysis of campaign
//! runs. Each record exports as one fixed-field line.
//!
//! # Eviction contract
//!
//! The buffer is bounded: once `capacity` records are retained, each new
//! record evicts the oldest and increments [`Trace::dropped`]. The
//! queries see the *retained window only*. The ordering query
//! [`Trace::happened_before_events`] **panics** when any record has been
//! evicted, because the first occurrence of either event may have been
//! lost and the answer would be arbitrary; size the buffer so nothing is
//! evicted ([`Trace::new`] with a larger capacity).
//!
//! # Process-global kill switch
//!
//! [`set_observability`] disables record retention process-wide so the
//! cost of the layer can be measured (perfbench's
//! `observability.overhead`; `perfsuite` re-renders the campaign with
//! it off). Simulation results never depend on trace contents, so
//! toggling it cannot change figures.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::json;
use crate::time::SimTime;

static OBSERVABILITY: AtomicBool = AtomicBool::new(true);

/// Enables or disables all trace retention in this process.
///
/// Used by perfbench to measure the overhead of the observability
/// layer, and by `perfsuite` to show the figures never read the trace.
/// Defaults to enabled.
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
    /// Normal protocol milestones (association, handoff).
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

impl FrameKind {
    /// The variant name, as `Debug` prints it.
    fn as_str(self) -> &'static str {
        match self {
            FrameKind::AssocReq => "AssocReq",
            FrameKind::AssocResp => "AssocResp",
            FrameKind::ReassocReq => "ReassocReq",
            FrameKind::ReassocResp => "ReassocResp",
            FrameKind::ProbeReq => "ProbeReq",
            FrameKind::ProbeResp => "ProbeResp",
            FrameKind::Beacon => "Beacon",
            FrameKind::Atim => "Atim",
            FrameKind::Disassoc => "Disassoc",
            FrameKind::Auth => "Auth",
            FrameKind::Deauth => "Deauth",
            FrameKind::PsPoll => "PsPoll",
            FrameKind::Rts => "Rts",
            FrameKind::Cts => "Cts",
            FrameKind::Ack => "Ack",
            FrameKind::Data => "Data",
            FrameKind::NullData => "NullData",
            FrameKind::QosData => "QosData",
            FrameKind::BlockAckReq => "BlockAckReq",
            FrameKind::BlockAck => "BlockAck",
            FrameKind::Other => "Other",
        }
    }
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

impl DropReason {
    /// The variant name, as `Debug` prints it.
    fn as_str(self) -> &'static str {
        match self {
            DropReason::QueueFull => "QueueFull",
            DropReason::RetryLimit => "RetryLimit",
            DropReason::NoRoute => "NoRoute",
            DropReason::Collision => "Collision",
            DropReason::HopLimit => "HopLimit",
            DropReason::Oversize => "Oversize",
        }
    }
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
        json::push_u64(out, u64::from(self.station()));
        match *self {
            TraceEvent::Tx {
                kind,
                len,
                rate_mbps,
                ..
            } => {
                json::push_str_field(out, "kind", kind.as_str());
                json::push_u64_field(out, "len", u64::from(len));
                json::push_f64_field(out, "rate_mbps", rate_mbps);
            }
            TraceEvent::Rx {
                kind,
                len,
                rssi_dbm,
                ..
            } => {
                json::push_str_field(out, "kind", kind.as_str());
                json::push_u64_field(out, "len", u64::from(len));
                json::push_f64_field(out, "rssi_dbm", rssi_dbm);
            }
            TraceEvent::Drop { kind, reason, .. } => {
                json::push_str_field(out, "kind", kind.as_str());
                json::push_str_field(out, "reason", reason.as_str());
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

/// One trace record: a typed event stamped with its time, level and tag.
#[derive(Clone, Debug)]
struct Record {
    at: SimTime,
    level: Level,
    tag: &'static str,
    event: TraceEvent,
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

    /// Appends a typed event, evicting the oldest record when full.
    pub fn event(&mut self, at: SimTime, level: Level, tag: &'static str, event: TraceEvent) {
        if level < self.min_level || !observability_enabled() {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(Record {
            at,
            level,
            tag,
            event,
        });
    }

    /// Events currently retained, oldest first, with timestamps.
    pub fn events(&self) -> impl Iterator<Item = (SimTime, &TraceEvent)> {
        self.records.iter().map(|r| (r.at, &r.event))
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

    /// `true` if an event matching `a` precedes one matching `b`.
    ///
    /// The canonical ordering assertion for protocol tests: predicates
    /// match on [`TraceEvent`] variants, e.g. "the CTS was sent after
    /// the RTS".
    ///
    /// # Panics
    ///
    /// Panics when any record has been evicted, because the *first*
    /// occurrence of either event may have been lost and the observed
    /// order of the survivors is not evidence of the true order. Size
    /// the trace so nothing is evicted.
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

    /// Counts retained events matching `pred`.
    pub fn count_events(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events().filter(|(_, e)| pred(e)).count()
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
            json::push_u64(&mut out, r.at.as_nanos());
            out.push_str(",\"level\":\"");
            out.push_str(r.level.as_str());
            out.push_str("\",\"tag\":");
            json::push_str(&mut out, r.tag);
            out.push(',');
            r.event.write_json_fields(&mut out);
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

    fn backoff(station: u32) -> TraceEvent {
        TraceEvent::Backoff {
            station,
            slots: 7,
            cw: 31,
        }
    }

    fn tx_of(kind: FrameKind) -> impl Fn(&TraceEvent) -> bool {
        move |e| matches!(e, TraceEvent::Tx { kind: k, .. } if *k == kind)
    }

    fn tx(station: u32, kind: FrameKind) -> TraceEvent {
        TraceEvent::Tx {
            station,
            kind,
            len: 20,
            rate_mbps: 6.0,
        }
    }

    /// A field added to every record shows up here: an 802.11 world's
    /// ring holds up to 8,192 of them.
    #[test]
    fn record_and_event_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Record>(), 56);
        assert_eq!(std::mem::size_of::<TraceEvent>(), 24);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut tr = Trace::new(3);
        for i in 0..5 {
            tr.event(t(i), Level::Info, "x", backoff(i as u32));
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 2);
        let kept: Vec<(SimTime, u32)> = tr.events().map(|(at, e)| (at, e.station())).collect();
        assert_eq!(kept, vec![(t(2), 2), (t(3), 3), (t(4), 4)]);
    }

    #[test]
    fn level_filter_drops_below_min() {
        let mut tr = Trace::new(10);
        tr.set_min_level(Level::Info);
        tr.event(t(0), Level::Debug, "x", backoff(0));
        tr.event(t(1), Level::Info, "x", backoff(1));
        tr.event(t(2), Level::Warn, "x", backoff(2));
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 0, "filtered records are not evictions");
        let kept: Vec<u32> = tr.events().map(|(_, e)| e.station()).collect();
        assert_eq!(kept, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Trace::new(0);
    }

    /// An RTS/CTS/DATA exchange, one typed record per frame.
    fn exchange() -> Trace {
        let mut tr = Trace::new(10);
        tr.event(t(1), Level::Debug, "mac", tx(3, FrameKind::Rts));
        tr.event(t(2), Level::Debug, "mac", tx(0, FrameKind::Cts));
        tr.event(t(3), Level::Debug, "mac", tx(3, FrameKind::Data));
        tr
    }

    #[test]
    fn emits_and_reads_back() {
        assert!(Trace::new(4).is_empty());
        let tr = exchange();
        let read: Vec<(SimTime, TraceEvent)> = tr.events().map(|(at, e)| (at, *e)).collect();
        assert_eq!(
            read,
            vec![
                (t(1), tx(3, FrameKind::Rts)),
                (t(2), tx(0, FrameKind::Cts)),
                (t(3), tx(3, FrameKind::Data)),
            ]
        );
    }

    #[test]
    fn happened_before_orders_correctly() {
        let tr = exchange();
        assert!(tr.happened_before_events(tx_of(FrameKind::Rts), tx_of(FrameKind::Cts)));
        assert!(tr.happened_before_events(tx_of(FrameKind::Cts), tx_of(FrameKind::Data)));
        assert!(!tr.happened_before_events(tx_of(FrameKind::Data), tx_of(FrameKind::Rts)));
        assert!(!tr.happened_before_events(tx_of(FrameKind::Ack), tx_of(FrameKind::Rts)));
    }

    #[test]
    fn typed_events_round_trip() {
        let tr = exchange();
        assert_eq!(tr.len(), 3);
        assert_eq!(
            tr.count_events(|e| matches!(e, TraceEvent::Tx { station: 3, .. })),
            2
        );
        assert_eq!(tr.count_events(tx_of(FrameKind::Cts)), 1);
        assert_eq!(tr.count_events(tx_of(FrameKind::Ack)), 0);
    }

    /// Regression: an ordering answer over a ring that has evicted
    /// records would silently depend on the buffer size.
    #[test]
    #[should_panic(expected = "unknowable")]
    fn happened_before_panics_after_eviction() {
        let mut tr = Trace::new(2);
        tr.event(t(0), Level::Debug, "mac", tx(1, FrameKind::Rts));
        tr.event(t(1), Level::Debug, "mac", tx(0, FrameKind::Cts));
        tr.event(t(2), Level::Debug, "mac", tx(1, FrameKind::Data)); // evicts the RTS
        let _ = tr.happened_before_events(tx_of(FrameKind::Cts), tx_of(FrameKind::Data));
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

    /// Each record keeps its event as recorded, and the JSONL export
    /// writes it from the fields as one fixed-field line.
    #[test]
    fn every_variant_exports_one_fixed_field_line() {
        let events = every_variant();
        let mut tr = Trace::new(64);
        for (i, e) in events.iter().enumerate() {
            tr.event(t(i as u64), Level::Debug, "mac", *e);
        }
        assert_eq!(tr.len(), events.len());
        for ((at, r), (i, e)) in tr.events().zip(events.iter().enumerate()) {
            assert_eq!((at, r), (t(i as u64), e));
            assert_eq!(r.station(), e.station());
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
}
