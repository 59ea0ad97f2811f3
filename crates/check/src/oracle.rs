//! Invariant oracles: pure functions from one run's [`Artifacts`] to
//! a list of violations.
//!
//! Each oracle states a property the engines must uphold in *every*
//! scenario the generator can draw, and each is careful about its own
//! soundness preconditions — NAV reasoning is skipped when channels
//! can change mid-run (a channel switch legitimately clears NAV),
//! count-based cross-checks are skipped when the trace ring evicted
//! records, and fairness bounds only apply to symmetric offered load.

use std::collections::HashMap;

use crate::queue::reference_replay_ops;
use crate::run::Artifacts;
use wn_net80211::ap::MAX_AID;
use wn_sim::trace::{DropReason, FrameKind, TraceEvent};
use wn_sim::{replay_ops, SchedulerKind};

/// One oracle failure, tied to the oracle that raised it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Name of the oracle.
    pub oracle: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// A pluggable invariant checked after every run.
pub trait Invariant {
    /// Stable oracle name (shows up in violations and fuzz output).
    fn name(&self) -> &'static str;
    /// Checks the property; returns one violation per breach found.
    fn check(&self, art: &Artifacts) -> Vec<Violation>;
}

/// The full oracle set, in reporting order.
pub fn oracles() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(RetryBound),
        Box::new(CwBounds),
        Box::new(NavRespected),
        Box::new(FrameConservation),
        Box::new(FrameLedgerBalanced),
        Box::new(TraceMetricsConsistent),
        Box::new(NoDuplicateDelivery),
        Box::new(AssocLegal),
        Box::new(AirtimeFairness),
        Box::new(ZigbeeConservation),
        Box::new(BtConservation),
        Box::new(WmanGrantConservation),
        Box::new(ShardCoherence),
        Box::new(GridCoherence),
        Box::new(BlockAckConservation),
        Box::new(EdcaPriorityInversion),
        Box::new(SchedulerOrder),
    ]
}

fn v(oracle: &'static str, detail: String) -> Violation {
    Violation { oracle, detail }
}

/// Retry counters in `Retry` events never exceed the configured
/// limits. A counter *at* the limit is legal (the attempt that would
/// pass it is dropped instead of retried); above it, the MAC retried
/// once too often.
pub struct RetryBound;

impl Invariant for RetryBound {
    fn name(&self) -> &'static str {
        "retry-bound"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wlan else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (t, e) in art.trace.events() {
            if let TraceEvent::Retry {
                station,
                short,
                long,
            } = *e
            {
                if short > w.retry_limit_short || long > w.retry_limit_long {
                    out.push(v(
                        self.name(),
                        format!(
                            "sta {station} retried past the limit at {t}: short {short}/{}, \
                             long {long}/{}",
                            w.retry_limit_short, w.retry_limit_long
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// Every `Backoff` draw respects the configured contention window:
/// `cw_min <= cw <= cw_max` and `slots <= cw`.
pub struct CwBounds;

impl Invariant for CwBounds {
    fn name(&self) -> &'static str {
        "cw-bounds"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wlan else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (t, e) in art.trace.events() {
            if let TraceEvent::Backoff { station, slots, cw } = *e {
                if cw < w.cw_min || cw > w.cw_max || slots > cw {
                    out.push(v(
                        self.name(),
                        format!(
                            "sta {station} drew {slots} slots from cw {cw} at {t} \
                             (bounds [{}, {}])",
                            w.cw_min, w.cw_max
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// A station that observed a NAV reservation does not *start* a
/// contention-won transmission before it expires.
///
/// Soundness carve-outs, straight from the DCF rules the MAC
/// implements: ACK/CTS responses ignore NAV (SIFS precedence);
/// SIFS-spaced continuations (fragment bursts, data after CTS) are
/// identified by the station's preceding own Tx and skipped — only
/// transmissions whose immediately-preceding activity is a `Backoff`
/// are contention-won; and a transmission within ~2 µs of the NAV
/// observation sits in the already-committed slot boundary the MAC
/// deliberately honours, so a 2 µs guard band applies. Scenarios where
/// channels change mid-run are excluded entirely (`nav_checkable`),
/// because a channel switch legitimately resets NAV without a trace
/// event.
pub struct NavRespected;

impl Invariant for NavRespected {
    fn name(&self) -> &'static str {
        "nav-respected"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wlan else {
            return Vec::new();
        };
        if !w.nav_checkable {
            return Vec::new();
        }
        const COMMITTED_NS: u64 = 2_000;
        const BOUNDARY_NS: u64 = 1_000;
        let mut out = Vec::new();
        // Per-station: the last contention-relevant activity and the
        // last observed reservation.
        let mut last_was_backoff: HashMap<u32, bool> = HashMap::new();
        let mut last_nav: HashMap<u32, (u64, u64)> = HashMap::new();
        for (t, e) in art.trace.events() {
            match *e {
                TraceEvent::Tx { station, kind, .. } => {
                    let contention_won = last_was_backoff.get(&station).copied().unwrap_or(false);
                    if contention_won && !matches!(kind, FrameKind::Ack | FrameKind::Cts) {
                        if let Some(&(nav_at_ns, until_us)) = last_nav.get(&station) {
                            let tx_ns = t.as_nanos();
                            let until_ns = until_us.saturating_mul(1_000);
                            if tx_ns + BOUNDARY_NS < until_ns && tx_ns > nav_at_ns + COMMITTED_NS {
                                out.push(v(
                                    self.name(),
                                    format!(
                                        "sta {station} transmitted {kind:?} at {t} inside \
                                         a NAV reservation running to {until_us}us"
                                    ),
                                ));
                            }
                        }
                    }
                    last_was_backoff.insert(station, false);
                }
                TraceEvent::Rx { station, .. } => {
                    last_was_backoff.insert(station, false);
                }
                TraceEvent::Backoff { station, .. } => {
                    last_was_backoff.insert(station, true);
                }
                TraceEvent::Nav { station, until_us } => {
                    last_nav.insert(station, (t.as_nanos(), until_us));
                }
                _ => {}
            }
        }
        out
    }
}

/// Frame conservation: every MSDU the MAC accepted is eventually
/// delivered, failed, dropped on overflow, or still pending — nothing
/// vanishes and nothing is double-counted.
pub struct FrameConservation;

impl Invariant for FrameConservation {
    fn name(&self) -> &'static str {
        "frame-conservation"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wlan else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (i, s) in w.stats.iter().enumerate() {
            let accounted = s.tx_completions + s.tx_failures + s.queue_drops + w.pending[i];
            if s.queued != accounted {
                out.push(v(
                    self.name(),
                    format!(
                        "sta {i}: queued {} != completions {} + failures {} + drops {} + \
                         pending {}",
                        s.queued, s.tx_completions, s.tx_failures, s.queue_drops, w.pending[i]
                    ),
                ));
            }
        }
        out
    }
}

/// The frame arena's reference ledger balances at every sampled
/// instant: the sum of outstanding arena references equals the
/// references the world's holders account for (parked injections,
/// station queues, in-flight exchanges with their cached wire frames,
/// and transmission records). The runner samples the ledger at slice
/// boundaries *during* the run, not just at the end — a drained world
/// balances trivially, but a mid-run leak (an id dropped without
/// release, or a holder double-counted) splits the two sides while
/// traffic is in flight.
pub struct FrameLedgerBalanced;

impl Invariant for FrameLedgerBalanced {
    fn name(&self) -> &'static str {
        "frame-ledger"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wlan else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (i, &(refs, held)) in w.ledger.iter().enumerate() {
            if refs != held {
                out.push(v(
                    self.name(),
                    format!(
                        "ledger sample {i}/{}: arena carries {refs} frame refs but \
                         holders account for {held}",
                        w.ledger.len()
                    ),
                ));
            }
        }
        out
    }
}

/// The interference-shard partition stays sound for the whole run:
/// the runner computes the deployment's shard plan at construction
/// time and re-validates it against the live world at every slice
/// boundary (`WlanWorld::shard_plan_incoherence`) — no coupled pair
/// straddling shards, station set unchanged. Mobility patches
/// land between slices, so a partition invalidated by movement (or a
/// planner bug) surfaces here instead of silently desynchronizing a
/// sharded execution.
pub struct ShardCoherence;

impl Invariant for ShardCoherence {
    fn name(&self) -> &'static str {
        "shard-coherence"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wlan else {
            return Vec::new();
        };
        w.shard_coherence
            .iter()
            .map(|detail| v(self.name(), detail.clone()))
            .collect()
    }
}

/// The spatial grid index stays coherent for the whole run: at every
/// slice boundary the runner checks the grid's structural invariants
/// against the live position table (each station in exactly one cell,
/// the cell its position hashes to, membership sorted) and re-derives
/// every sparse neighbor-row entry from the link budget — including
/// the soundness claim that every pair the grid *omitted* is below
/// the carrier-sense floor (`WlanWorld::grid_incoherence`). A stale
/// cell after a mobility patch, or an audible pair the 27-cell
/// neighborhood missed, surfaces here instead of silently deafening a
/// station. Vacuous on directly evaluated worlds (a loss model without
/// a distance floor builds no grid).
pub struct GridCoherence;

impl Invariant for GridCoherence {
    fn name(&self) -> &'static str {
        "grid-coherence"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wlan else {
            return Vec::new();
        };
        w.grid_coherence
            .iter()
            .map(|detail| v(self.name(), detail.clone()))
            .collect()
    }
}

/// The typed trace and the `MetricsRegistry` snapshot agree: per
/// station, `TxOutcome`/`Retry`/`Drop` event counts equal the
/// corresponding counters, and the counters equal the raw stats they
/// are snapshotted from. Skipped when the trace ring evicted records.
pub struct TraceMetricsConsistent;

impl Invariant for TraceMetricsConsistent {
    fn name(&self) -> &'static str {
        "trace-metrics"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wlan else {
            return Vec::new();
        };
        if art.trace.dropped() > 0 {
            return Vec::new();
        }
        let mut completions: HashMap<u32, u64> = HashMap::new();
        let mut failures: HashMap<u32, u64> = HashMap::new();
        let mut retries: HashMap<u32, u64> = HashMap::new();
        let mut overflow_drops: HashMap<u32, u64> = HashMap::new();
        for (_, e) in art.trace.events() {
            match *e {
                TraceEvent::TxOutcome { station, ok: true } => {
                    *completions.entry(station).or_default() += 1;
                }
                TraceEvent::TxOutcome { station, ok: false } => {
                    *failures.entry(station).or_default() += 1;
                }
                TraceEvent::Retry { station, .. } => {
                    *retries.entry(station).or_default() += 1;
                }
                TraceEvent::Drop {
                    station,
                    reason: DropReason::QueueFull,
                    ..
                } => {
                    *overflow_drops.entry(station).or_default() += 1;
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        type StatOf = fn(&super::run::WlanFacts, usize) -> u64;
        let checks: [(&'static str, &HashMap<u32, u64>, StatOf); 4] = [
            ("tx_completions", &completions, |w, i| {
                w.stats[i].tx_completions
            }),
            ("tx_failures", &failures, |w, i| w.stats[i].tx_failures),
            ("retries", &retries, |w, i| w.stats[i].retries),
            ("queue_drops", &overflow_drops, |w, i| {
                w.stats[i].queue_drops
            }),
        ];
        for i in 0..w.stats.len() {
            let sid = i as u32;
            for (name, trace_counts, stat) in &checks {
                let from_trace = trace_counts.get(&sid).copied().unwrap_or(0);
                let from_stats = stat(w, i);
                let from_metrics = w.counters.get(&(*name, sid)).copied().unwrap_or(0);
                if from_trace != from_metrics || from_stats != from_metrics {
                    out.push(v(
                        self.name(),
                        format!(
                            "sta {i} {name}: trace {from_trace}, stats {from_stats}, \
                             metrics {from_metrics}"
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// No unicast data MSDU is delivered to an upper layer twice: the
/// dedup cache must swallow every retransmission whose original
/// already arrived. Keyed `(receiver, transmitter, sequence)`; sound
/// because sequence counters cannot wrap within a generated scenario.
pub struct NoDuplicateDelivery;

impl Invariant for NoDuplicateDelivery {
    fn name(&self) -> &'static str {
        "no-duplicate-delivery"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wlan else {
            return Vec::new();
        };
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for &(rx, tx, seq) in &w.delivered {
            if !seen.insert((rx, tx, seq)) {
                out.push(v(
                    self.name(),
                    format!("sta {rx} accepted seq {seq} from {tx:02x?} twice"),
                ));
            }
        }
        out
    }
}

/// Association state machines only take legal transitions: a station
/// never roams or changes power-save state before it has associated,
/// and every granted AID is within the standard's 1..=2007 range.
pub struct AssocLegal;

impl Invariant for AssocLegal {
    fn name(&self) -> &'static str {
        "assoc-legal"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        if art.wlan.is_none() {
            return Vec::new();
        }
        let mut associated: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (t, e) in art.trace.events() {
            match *e {
                TraceEvent::Assoc { station, aid } => {
                    if aid == 0 || aid > MAX_AID {
                        out.push(v(
                            self.name(),
                            format!("sta {station} granted illegal aid {aid} at {t}"),
                        ));
                    }
                    associated.insert(station);
                }
                TraceEvent::Handoff { station } if !associated.contains(&station) => {
                    out.push(v(
                        self.name(),
                        format!("sta {station} roamed at {t} without ever associating"),
                    ));
                }
                TraceEvent::PowerSave { station, doze } if !associated.contains(&station) => {
                    out.push(v(
                        self.name(),
                        format!(
                            "sta {station} changed power-save (doze={doze}) at {t} \
                             without ever associating"
                        ),
                    ));
                }
                _ => {}
            }
        }
        out
    }
}

/// Symmetric saturating senders get airtime shares of the same order:
/// DCF is long-run fair, so with identical offered load and identical
/// distances no sender's completion count may dwarf another's. The
/// bound is deliberately loose (8×) and gated on enough completions to
/// be statistically meaningful.
pub struct AirtimeFairness;

impl Invariant for AirtimeFairness {
    fn name(&self) -> &'static str {
        "airtime-fairness"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wlan else {
            return Vec::new();
        };
        if !w.symmetric || w.stats.len() < 3 {
            return Vec::new();
        }
        let senders: Vec<u64> = w.stats[1..].iter().map(|s| s.tx_completions).collect();
        let min = *senders.iter().min().expect("non-empty");
        let max = *senders.iter().max().expect("non-empty");
        if min < 20 {
            return Vec::new();
        }
        if max > min * 8 {
            return vec![v(
                self.name(),
                format!(
                    "symmetric senders finished between {min} and {max} MSDUs \
                     (ratio > 8x): {senders:?}"
                ),
            )];
        }
        Vec::new()
    }
}

/// ZigBee packet conservation: every offered packet is delivered,
/// dropped, or still queued — and no delivery exceeds the hop budget.
pub struct ZigbeeConservation;

impl Invariant for ZigbeeConservation {
    fn name(&self) -> &'static str {
        "zigbee-conservation"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(z) = &art.zigbee else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let accounted = z.delivered + z.dropped + z.queued;
        if z.offered != accounted {
            out.push(v(
                self.name(),
                format!(
                    "offered {} != delivered {} + dropped {} + queued {}",
                    z.offered, z.delivered, z.dropped, z.queued
                ),
            ));
        }
        for (t, e) in art.trace.events() {
            if let TraceEvent::Deliver { station, hops, .. } = *e {
                if u64::from(hops) > z.hop_limit {
                    out.push(v(
                        self.name(),
                        format!(
                            "delivery to node {station} at {t} took {hops} hops \
                             (budget {})",
                            z.hop_limit
                        ),
                    ));
                }
            }
        }
        if art.trace.dropped() == 0 {
            let deliver_events = art
                .trace
                .count_events(|e| matches!(e, TraceEvent::Deliver { .. }))
                as u64;
            if deliver_events != z.delivered {
                out.push(v(
                    self.name(),
                    format!(
                        "{} Deliver events but {} deliveries counted",
                        deliver_events, z.delivered
                    ),
                ));
            }
        }
        out
    }
}

/// Bluetooth byte conservation: application bytes injected equal bytes
/// delivered plus bytes still queued (including unroutable transfers,
/// which park rather than vanish).
pub struct BtConservation;

impl Invariant for BtConservation {
    fn name(&self) -> &'static str {
        "bt-conservation"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(b) = &art.bt else {
            return Vec::new();
        };
        if b.injected != b.delivered + b.pending {
            return vec![v(
                self.name(),
                format!(
                    "injected {} != delivered {} + pending {}",
                    b.injected, b.delivered, b.pending
                ),
            )];
        }
        Vec::new()
    }
}

/// Block-ack window conservation (QoS corpus): every MPDU sequence
/// number a station put on the air inside an A-MPDU is resolved
/// *exactly once* — acknowledged by a `BlockAckRx` bit or dropped with
/// an `MpduDrop` (retry budget exhausted) — never both, never twice,
/// and never resolved without a prior `AmpduTx` carrying it. A
/// sequence must not reappear in a later aggregate once resolved
/// (retransmission after completion), and the per-station totals must
/// close against the MAC counters: acknowledged sequences are exactly
/// `tx_completions`, dropped ones exactly `tx_failures`. Sequences
/// still in flight at the horizon are the tolerated tail (they sit in
/// `pending`, which the frame-conservation oracle already balances).
/// Sound because a generated scenario cannot wrap the 4096-sequence
/// space; skipped when the trace ring evicted records.
pub struct BlockAckConservation;

/// Per-sequence lifecycle inside one station+AC block-ack scoreboard.
#[derive(Clone, Copy, PartialEq)]
enum MpduState {
    InFlight,
    Acked,
    Dropped,
}

impl Invariant for BlockAckConservation {
    fn name(&self) -> &'static str {
        "block-ack-window"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wlan else {
            return Vec::new();
        };
        if !w.edca || art.trace.dropped() > 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        // (station, ac, seq) → lifecycle state.
        let mut board: HashMap<(u32, u8, u16), MpduState> = HashMap::new();
        let mut acked: HashMap<u32, u64> = HashMap::new();
        let mut dropped: HashMap<u32, u64> = HashMap::new();
        for (t, e) in art.trace.events() {
            match *e {
                TraceEvent::AmpduTx {
                    station,
                    ac,
                    ssn,
                    bitmap,
                } => {
                    for k in 0..64u16 {
                        if bitmap >> k & 1 == 0 {
                            continue;
                        }
                        let seq = ssn.wrapping_add(k) & 0x0FFF;
                        match board.insert((station, ac, seq), MpduState::InFlight) {
                            Some(MpduState::Acked) | Some(MpduState::Dropped) => out.push(v(
                                self.name(),
                                format!(
                                    "sta {station} ac {ac} retransmitted seq {seq} at {t} \
                                     after it was already resolved"
                                ),
                            )),
                            _ => {}
                        }
                    }
                }
                TraceEvent::BlockAckRx {
                    station,
                    ac,
                    ssn,
                    bitmap,
                } => {
                    for k in 0..64u16 {
                        if bitmap >> k & 1 == 0 {
                            continue;
                        }
                        let seq = ssn.wrapping_add(k) & 0x0FFF;
                        match board.insert((station, ac, seq), MpduState::Acked) {
                            Some(MpduState::InFlight) => {
                                *acked.entry(station).or_default() += 1;
                            }
                            prior => out.push(v(
                                self.name(),
                                format!(
                                    "sta {station} ac {ac} seq {seq} acknowledged at {t} \
                                     {}",
                                    if prior.is_none() {
                                        "without ever being transmitted"
                                    } else {
                                        "twice (or after being dropped)"
                                    }
                                ),
                            )),
                        }
                    }
                }
                TraceEvent::MpduDrop { station, ac, seq } => {
                    match board.insert((station, ac, seq), MpduState::Dropped) {
                        Some(MpduState::InFlight) => {
                            *dropped.entry(station).or_default() += 1;
                        }
                        prior => out.push(v(
                            self.name(),
                            format!(
                                "sta {station} ac {ac} seq {seq} dropped at {t} {}",
                                if prior.is_none() {
                                    "without ever being transmitted"
                                } else {
                                    "after it was already resolved"
                                }
                            ),
                        )),
                    }
                }
                _ => {}
            }
        }
        for (i, s) in w.stats.iter().enumerate() {
            let sid = i as u32;
            let a = acked.get(&sid).copied().unwrap_or(0);
            let d = dropped.get(&sid).copied().unwrap_or(0);
            if a != s.tx_completions {
                out.push(v(
                    self.name(),
                    format!(
                        "sta {i}: {a} block-acked MPDUs but {} completions counted",
                        s.tx_completions
                    ),
                ));
            }
            if d != s.tx_failures {
                out.push(v(
                    self.name(),
                    format!(
                        "sta {i}: {d} dropped MPDUs but {} failures counted",
                        s.tx_failures
                    ),
                ));
            }
        }
        out
    }
}

/// EDCA priority inversion (QoS corpus): in a fully drained run — no
/// MSDUs pending at the horizon and no queue overflows, so the per-AC
/// delay populations are complete rather than survivor-censored —
/// voice must not wait fundamentally longer than background. The bound
/// is deliberately loose (AC_VO median at most 2× AC_BK's, with a
/// sample-count gate on both categories); legitimate EDCA clears it
/// easily since AC_VO contends with AIFSN 2 and CW 3–7 against
/// AC_BK's AIFSN 7 and CW 15–1023, while the planted AIFSN-swap
/// fail-point (which hands AC_VO the background parameters and vice
/// versa) inverts the ladder far past 2× under contention.
pub struct EdcaPriorityInversion;

impl Invariant for EdcaPriorityInversion {
    fn name(&self) -> &'static str {
        "edca-priority"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wlan else {
            return Vec::new();
        };
        if !w.edca {
            return Vec::new();
        }
        // Censoring guard: a starved category completes only its
        // early, cheap frames, which *shrinks* its observed median —
        // comparing quantiles is only sound over complete populations.
        let drained =
            w.pending.iter().all(|&p| p == 0) && w.stats.iter().all(|s| s.queue_drops == 0);
        if !drained {
            return Vec::new();
        }
        const VO: usize = 0;
        const BK: usize = 3;
        const MIN_SAMPLES: u64 = 20;
        if w.ac_samples[VO] < MIN_SAMPLES || w.ac_samples[BK] < MIN_SAMPLES {
            return Vec::new();
        }
        let (Some(vo), Some(bk)) = (w.ac_p50_us[VO], w.ac_p50_us[BK]) else {
            return Vec::new();
        };
        if vo > bk.saturating_mul(2) {
            return vec![v(
                self.name(),
                format!(
                    "AC_VO median access delay {vo} µs exceeds 2x AC_BK's {bk} µs \
                     ({} vs {} samples) — the priority ladder is inverted",
                    w.ac_samples[VO], w.ac_samples[BK]
                ),
            )];
        }
        Vec::new()
    }
}

/// WiMAX grant conservation: the bytes moved under `Grant` trace
/// events exactly equal the delivered-byte counters, per subscriber
/// and direction. Skipped when the trace ring evicted records.
pub struct WmanGrantConservation;

impl Invariant for WmanGrantConservation {
    fn name(&self) -> &'static str {
        "wman-grants"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let Some(w) = &art.wman else {
            return Vec::new();
        };
        if art.trace.dropped() > 0 {
            return Vec::new();
        }
        let mut dl: HashMap<u32, u64> = HashMap::new();
        let mut ul: HashMap<u32, u64> = HashMap::new();
        for (_, e) in art.trace.events() {
            if let TraceEvent::Grant {
                station,
                bytes,
                uplink,
            } = *e
            {
                let bucket = if uplink { &mut ul } else { &mut dl };
                *bucket.entry(station).or_default() += bytes;
            }
        }
        let mut out = Vec::new();
        for (ss, &delivered) in w.dl_delivered.iter().enumerate() {
            let granted = dl.get(&(ss as u32)).copied().unwrap_or(0);
            if granted != delivered {
                out.push(v(
                    self.name(),
                    format!("ss {ss} downlink: granted {granted} but delivered {delivered}"),
                ));
            }
        }
        for (ss, &delivered) in w.ul_delivered.iter().enumerate() {
            let granted = ul.get(&(ss as u32)).copied().unwrap_or(0);
            if granted != delivered {
                out.push(v(
                    self.name(),
                    format!("ss {ss} uplink: granted {granted} but delivered {delivered}"),
                ));
            }
        }
        out
    }
}

/// The timer wheel drains the run's recorded op stream in exactly the
/// order of the reference binary heap ([`crate::queue`]): the same
/// number of pops and the same pop-order FNV.
pub struct SchedulerOrder;

impl Invariant for SchedulerOrder {
    fn name(&self) -> &'static str {
        "scheduler-order"
    }

    fn check(&self, art: &Artifacts) -> Vec<Violation> {
        let popped = replay_ops(SchedulerKind::TimerWheel, &art.ops);
        scheduler_order_violation(&art.ops, popped)
            .into_iter()
            .collect()
    }
}

/// Compares a queue's `(pops, pop-order FNV)` over `ops` with the
/// reference heap's; `Some` names both when they differ.
fn scheduler_order_violation(ops: &[u128], popped: (u64, u64)) -> Option<Violation> {
    let reference = reference_replay_ops(ops);
    (popped != reference).then(|| {
        v(
            SchedulerOrder.name(),
            format!(
                "over {} ops the wheel popped {} events (pop-order fnv {:016x}), \
                 the reference heap {} ({:016x})",
                ops.len(),
                popped.0,
                popped.1,
                reference.0,
                reference.1
            ),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wn_sim::stats::FNV1A_OFFSET;
    use wn_sim::{event_key, pop_order_fnv, SimTime, OP_POP};

    /// The oracle can fail: a pop stream that differs from the
    /// reference only in the order of two same-instant keys — a broken
    /// FIFO tie — is reported, while the reference order itself is not.
    #[test]
    fn swapped_fifo_tie_is_a_scheduler_order_violation() {
        let t = SimTime::from_micros(9);
        let (early, first, second) = (
            event_key(SimTime::from_micros(2), 2),
            event_key(t, 0),
            event_key(t, 1),
        );
        let ops = [first, second, early, OP_POP, OP_POP, OP_POP];
        let digest = |keys: &[u128]| {
            let fnv = keys.iter().fold(FNV1A_OFFSET, |h, &k| pop_order_fnv(h, k));
            (keys.len() as u64, fnv)
        };

        assert!(scheduler_order_violation(&ops, digest(&[early, first, second])).is_none());
        assert!(
            scheduler_order_violation(&ops, replay_ops(SchedulerKind::TimerWheel, &ops)).is_none()
        );
        let swapped = scheduler_order_violation(&ops, digest(&[early, second, first]))
            .expect("a swapped FIFO tie must be reported");
        assert_eq!(swapped.oracle, "scheduler-order");
    }
}
