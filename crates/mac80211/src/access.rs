//! The channel-access engine: one DCF/EDCA contention procedure for
//! every station (802.11 §9.2.5, 802.11e EDCA).
//!
//! A station owns `Q` transmit queues and one shared access timer.
//! `Q = 1` on a legacy world and `Q = 4` (the access categories,
//! highest priority first) on an EDCA world, fixed by
//! [`MacConfig::edca`]. DCF is EDCA with one queue: DIFS is AIFS at
//! AIFSN 2, and the queue's contention window runs between the PHY's
//! CWmin and CWmax. Every queue counts its backoff down past its own
//! AIFS. The timer fires at the earliest expiry, the highest-priority
//! expired queue wins, and any other queue expiring in the same slot
//! loses the internal collision: its CW doubles and it redraws. Only
//! the exchange differs: a legacy winner sends its `Attempt`, an EDCA
//! winner its A-MPDU flight.
//!
//! This file is a child module of `sim`, so the engine works on the
//! world's private state directly.

use std::collections::VecDeque;
use std::ops::Range;

use super::qos::AmpduFlight;
use super::{AccessCategory, MacConfig, MacEvent, Msdu, StationId, WlanWorld};
use wn_sim::trace::{Level, TraceEvent};
use wn_sim::{Scheduler, SimDuration, SimTime};

/// One transmit queue's contention parameters.
pub(super) struct QueueParams {
    /// SIFS + AIFSN slots before the backoff counts down (DIFS on the
    /// DCF queue).
    pub(super) aifs: SimDuration,
    pub(super) cw_min: u32,
    pub(super) cw_max: u32,
    /// TXOP limit in microseconds; 0 grants one MPDU-equivalent.
    pub(super) txop_us: u64,
}

/// Every station's transmit queues, column-wise: entry `id * Q + q` is
/// station `id`'s queue `q`, with `Q = params.len()`. For `Q = 1` the
/// `slots` and `cw` columns are plain per-station columns, so the
/// cross-station freeze sweep touches as few cache lines as DCF alone.
pub(super) struct TxQueues {
    /// The world's parameter table, one row per queue (the AIFSN-swap
    /// failpoint already applied).
    pub(super) params: Box<[QueueParams]>,
    /// Remaining backoff slots; `None` when the queue is not contending.
    pub(super) slots: Vec<Option<u32>>,
    /// Contention window (doubles on failure, resets on success).
    pub(super) cw: Vec<u32>,
    /// Queued MSDUs.
    pub(super) msdus: Vec<VecDeque<Msdu>>,
    /// Each queue's in-flight A-MPDU. Empty on a legacy world, whose
    /// exchange is the station's `Attempt`.
    pub(super) flights: Vec<Option<AmpduFlight>>,
}

impl TxQueues {
    /// The queues of a world without stations: one DCF queue, or the
    /// four EDCA access categories.
    pub(super) fn new(cfg: &MacConfig) -> Self {
        let std = cfg.standard;
        let params: Box<[QueueParams]> = if cfg.edca {
            AccessCategory::ALL
                .iter()
                .map(|&ac| {
                    // The failpoint trades the full VO and BK sets.
                    let ac = match ac {
                        AccessCategory::Vo if cfg.failpoint_aifsn_swap => AccessCategory::Bk,
                        AccessCategory::Bk if cfg.failpoint_aifsn_swap => AccessCategory::Vo,
                        other => other,
                    };
                    let p = cfg.edca_params(ac);
                    QueueParams {
                        aifs: crate::duration::aifs(std, p.aifsn),
                        cw_min: p.cw_min,
                        cw_max: p.cw_max,
                        txop_us: p.txop_us,
                    }
                })
                .collect()
        } else {
            Box::new([QueueParams {
                aifs: crate::duration::aifs(std, 2),
                cw_min: cfg.cw_min(),
                cw_max: cfg.cw_max(),
                txop_us: 0,
            }])
        };
        TxQueues {
            params,
            slots: Vec::new(),
            cw: Vec::new(),
            msdus: Vec::new(),
            flights: Vec::new(),
        }
    }

    /// Whether queue winners send A-MPDU flights (an EDCA world).
    fn ampdu(&self) -> bool {
        self.params.len() > 1
    }

    /// Appends one station's idle queues.
    pub(super) fn push_station(&mut self) {
        for p in self.params.iter() {
            self.slots.push(None);
            self.cw.push(p.cw_min);
            self.msdus.push(VecDeque::new());
        }
        if self.ampdu() {
            self.flights.extend(self.params.iter().map(|_| None));
        }
    }

    /// Pre-sizes every column for `stations` more stations.
    pub(super) fn reserve(&mut self, stations: usize) {
        let n = stations * self.params.len();
        self.slots.reserve(n);
        self.cw.reserve(n);
        self.msdus.reserve(n);
        if self.ampdu() {
            self.flights.reserve(n);
        }
    }

    /// Column index of station `id`'s queue `q`.
    pub(super) fn index(&self, id: StationId, q: usize) -> usize {
        id * self.params.len() + q
    }

    /// Column range of station `id`'s queues.
    pub(super) fn range(&self, id: StationId) -> Range<usize> {
        let q = self.params.len();
        id * q..id * q + q
    }

    /// Station `id`'s A-MPDU flights (none on a legacy world).
    pub(super) fn flights_of(&self, id: StationId) -> &[Option<AmpduFlight>] {
        self.flights.get(self.range(id)).unwrap_or(&[])
    }

    /// Whether any of the station's queues holds a backoff (armed or
    /// frozen).
    pub(super) fn contending(&self, id: StationId) -> bool {
        self.slots[self.range(id)].iter().any(Option::is_some)
    }

    /// Resets a queue's CW after a success.
    pub(super) fn reset_cw(&mut self, id: StationId, q: usize) {
        let k = self.index(id, q);
        self.cw[k] = self.params[q].cw_min;
    }

    /// Doubles a queue's CW after a failure (binary exponential
    /// backoff), capped at CWmax.
    pub(super) fn widen_cw(&mut self, id: StationId, q: usize) {
        let k = self.index(id, q);
        self.cw[k] = ((self.cw[k] + 1) * 2 - 1).min(self.params[q].cw_max);
    }
}

/// Whole slots a queue has counted down `elapsed` after arming: the
/// idle time past its own AIFS.
fn consumed(elapsed: SimDuration, aifs: SimDuration, slot: SimDuration) -> u32 {
    (elapsed.saturating_sub(aifs).as_nanos() / slot.as_nanos().max(1)) as u32
}

impl WlanWorld {
    /// Draws a fresh backoff for queue `q` from its CW and traces it.
    fn draw_backoff(&mut self, id: StationId, q: usize, now: SimTime) {
        let k = self.queues.index(id, q);
        let cw = self.queues.cw[k];
        let slots = self.rng.below(cw as u64 + 1) as u32;
        self.queues.slots[k] = Some(slots);
        let station = id as u32;
        let event = if self.cfg.edca {
            TraceEvent::EdcaBackoff {
                station,
                ac: q as u8,
                slots,
                cw,
            }
        } else {
            TraceEvent::Backoff { station, slots, cw }
        };
        self.trace.event(now, Level::Debug, "mac", event);
    }

    /// Queue `q` joins contention with a fresh backoff.
    pub(super) fn begin_access(
        &mut self,
        id: StationId,
        q: usize,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        self.draw_backoff(id, q, now);
        self.contenders.insert(id);
        if self.dcf.access_armed_at[id].is_some() {
            // The running timer was armed for the station's other
            // queues; this one may expire earlier. Freeze (keeping the
            // slots they consumed) and re-arm over all of them.
            self.freeze_access(id, now);
        }
        self.try_arm_access(id, now, sched);
    }

    /// The delay from arming to the earliest queue's expiry.
    fn min_delay(&self, id: StationId) -> Option<SimDuration> {
        let slots = &self.queues.slots[self.queues.range(id)];
        let mut best: Option<SimDuration> = None;
        for (p, s) in self.queues.params.iter().zip(slots) {
            if let Some(s) = *s {
                let d = p.aifs + self.slot * s as u64;
                if best.is_none_or(|b| d < b) {
                    best = Some(d);
                }
            }
        }
        best
    }

    /// Arms the shared access timer at the earliest queue's expiry,
    /// unless the medium is busy or the timer already runs.
    pub(super) fn try_arm_access(
        &mut self,
        id: StationId,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let Some(delay) = self.min_delay(id) else {
            self.contenders.remove(id);
            return;
        };
        if !self.medium_idle(id, now) {
            // Will re-arm on the idle edge / NAV expiry.
            if self.dcf.nav_until[id] > now {
                sched.schedule_at(self.dcf.nav_until[id], MacEvent::NavExpired { station: id });
            }
            return;
        }
        if self.dcf.access_armed_at[id].is_some() {
            return;
        }
        let gen = self.next_gen(id);
        self.dcf.access_armed_at[id] = Some(now);
        // The timer is counting down; idle edges can't affect it until
        // a busy edge freezes it again.
        self.contenders.remove(id);
        sched.schedule_in(delay, MacEvent::AccessTimer { station: id, gen });
    }

    /// A busy edge interrupts a counting-down access timer; each queue
    /// keeps the slots it already burned past its own AIFS.
    pub(super) fn freeze_access(&mut self, id: StationId, now: SimTime) {
        let Some(armed_at) = self.dcf.access_armed_at[id] else {
            return;
        };
        let contending = match self.min_delay(id) {
            // CSMA vulnerable window: a station whose backoff expires
            // within the CCA detection time of the busy edge has already
            // committed to transmit and cannot react — so two stations
            // whose counters reach zero in the same slot genuinely
            // collide. The window is ~1 µs (energy-detect turnaround),
            // far below a slot, so sub-slot grid offsets still defer.
            Some(d) if armed_at + d <= now + SimDuration::from_micros(1) => return,
            Some(_) => true,
            None => false,
        };
        let elapsed = now.saturating_duration_since(armed_at);
        let range = self.queues.range(id);
        for (p, s) in self.queues.params.iter().zip(&mut self.queues.slots[range]) {
            if let Some(left) = s {
                *left = left.saturating_sub(consumed(elapsed, p.aifs, self.slot));
            }
        }
        self.dcf.access_armed_at[id] = None;
        self.dcf.timer_gen[id] += 1; // Invalidate the pending AccessTimer.
        if contending {
            // Frozen with slots left: back on the contender wait-list.
            self.contenders.insert(id);
        }
    }

    /// The shared access timer fired: the highest-priority expired
    /// queue wins and starts its exchange. Another queue expiring in
    /// the same slot loses the internal collision and redraws from a
    /// doubled CW, as if the medium had eaten its frame; the rest keep
    /// the slots they burned.
    pub(super) fn access_fire(
        &mut self,
        id: StationId,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let Some(armed_at) = self.dcf.access_armed_at[id].take() else {
            return;
        };
        let elapsed = now.saturating_duration_since(armed_at);
        let slot = self.slot;
        let base = self.queues.index(id, 0);
        let n = self.queues.params.len();
        let expired = |queues: &TxQueues, q: usize| {
            queues.slots[base + q]
                .is_some_and(|s| queues.params[q].aifs + slot * s as u64 <= elapsed)
        };
        let Some(win) = (0..n).find(|&q| expired(&self.queues, q)) else {
            // Stale fire (should be generation-guarded); re-contend.
            self.contenders.insert(id);
            return;
        };
        // Queues before the winner have not expired; after it, only
        // same-slot losers have.
        for q in (0..n).filter(|&q| q != win) {
            let k = base + q;
            let Some(s) = self.queues.slots[k] else {
                continue;
            };
            if expired(&self.queues, q) {
                self.queues.widen_cw(id, q);
                self.draw_backoff(id, q, now);
            } else {
                let burned = consumed(elapsed, self.queues.params[q].aifs, slot);
                self.queues.slots[k] = Some(s.saturating_sub(burned));
            }
        }
        self.queues.slots[base + win] = None;
        if self.queues.contending(id) {
            self.contenders.insert(id);
        } else {
            self.contenders.remove(id);
        }
        if self.cfg.edca {
            self.edca_transmit(id, win, now, sched);
        } else if self.stations[id].current.is_some() {
            self.transmit_current(id, true, now, sched);
        }
    }
}
