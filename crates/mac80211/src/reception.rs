//! The receive side of the MAC: what happens when a transmission ends.
//!
//! [`WlanWorld::handle_tx_end`] decides reception at every station the
//! transmission's start-time power row puts at or above carrier sense
//! (half duplex, then SINR over the time-overlapping interferers through
//! the PER model, with the capture effect switchable), then continues
//! the sender's exchange and hands each decoded frame to its receiver:
//! NAV updates for overheard frames, ACK and CTS responses after SIFS,
//! duplicate filtering, fragment reassembly and delivery to the upper
//! layer. The sender side of the legacy exchange ends here too: ACK
//! and CTS receipt, response timeouts with the short/long retry
//! ladder, and the completion that reports an MSDU's fate upstream.
//! The QoS aggregate's receive and block-ack handling is in `qos.rs`.
//!
//! This file is a child module of `sim`, so the reception path works on
//! the world's private state directly.

use super::qos::BaResult;
use super::{frame_kind, Exchange, MacEvent, PendingTx, StationId, WlanWorld};
use crate::duration::{ack_airtime, block_ack_airtime, cts_airtime};
use crate::frame::{Frame, Subtype};
use crate::neighbors::{interference_mw, Interferer};
use wn_phy::modulation::RateStep;
use wn_phy::units::Dbm;
use wn_sim::trace::{DropReason, Level, TraceEvent};
use wn_sim::{Scheduler, SimDuration, SimTime};

/// The exact reception probability: SINR in dB over `noise` plus
/// `intf_mw` of interference (none when zero), through the PER
/// model. The two-term dB↔mW round trip is byte-for-byte
/// `sum_powers(&[noise, from_mw(intf)])` with the noise conversion
/// hoisted to `noise_mw`.
fn reception_prob(
    rate: RateStep,
    power: Dbm,
    noise: Dbm,
    noise_mw: f64,
    intf_mw: f64,
    bits: u64,
) -> f64 {
    let denom = if intf_mw == 0.0 {
        noise
    } else {
        Dbm::from_milliwatts(noise_mw + Dbm::from_milliwatts(intf_mw).to_milliwatts())
    };
    rate.success_prob((power - denom).value(), bits)
}

impl WlanWorld {
    /// A transmission ended: decide reception at every station the
    /// start-time row puts at or above carrier sense, continue the
    /// sender's exchange, hand decoded frames to their receivers,
    /// resume frozen contenders and retire records nothing can overlap.
    pub(super) fn handle_tx_end(
        &mut self,
        tx_id: u64,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        // Records are pushed with ascending ids and retired in place, so
        // the lookup can bisect instead of scanning.
        let Ok(idx) = self.records.binary_search_by_key(&tx_id, |r| r.id) else {
            return;
        };
        self.records[idx].done = true;
        let src = self.records[idx].src;
        let channel = self.records[idx].channel;
        let frame_id = self.records[idx].frame;
        let rate = self.records[idx].rate;
        self.dcf.transmitting[src] = None;
        let (subtype, wire_bits) = {
            let f = self.frames.get(frame_id);
            (f.fc.subtype, f.wire_len() as u64 * 8)
        };

        // Decide reception — only at the stations the start-time row
        // puts at or above CS, in ascending order: the order the start
        // sweep pushed the frame's `heard` list in, so one cursor
        // compare tells whether a visited station was counting it.
        let mut heard = std::mem::take(&mut self.records[idx].heard);
        let mut heard_at = 0;
        let mut decoded = std::mem::take(&mut self.decoded_scratch);
        decoded.clear();
        // Only records overlapping this frame in time can trip the
        // half-duplex or interference checks — pre-filter them once
        // instead of rescanning every retained record for every
        // station (O(records·n) → O(records + n·concurrent)). Indices
        // stay ascending so the linear-domain interference sum keeps
        // its float accumulation order.
        let (rec_start, rec_end) = (self.records[idx].start, self.records[idx].end);
        let mut overlapping = std::mem::take(&mut self.overlap_scratch);
        overlapping.clear();
        overlapping.extend(
            (0..self.records.len())
                .filter(|&o| self.records[o].start < rec_end && self.records[o].end > rec_start),
        );
        let rx_power = self.records[idx].rx_power.clone();
        // Half-duplex sources among the overlapping records, collected
        // once into a bitset so the per-receiver check is O(1) instead
        // of a rescan of the overlap list.
        let mut tx_srcs = std::mem::take(&mut self.txsrc_scratch);
        tx_srcs.clear();
        for &o in &overlapping {
            tx_srcs.insert(self.records[o].src);
        }
        let (noise, noise_mw) = self.noise;
        // The interferers: every overlapping record but this one that
        // leaks into its channel, in ascending record order. Every
        // receiver that reaches the SINR decision shares this set —
        // the per-receiver `src == r` exclusion is vacuous because
        // those receivers already failed the half-duplex check — and
        // sums it in this order, so its float rounding is that of a
        // column-wise accumulation of the same rows.
        let mut intf = std::mem::take(&mut self.interferer_scratch);
        intf.clear();
        for &o in &overlapping {
            let rec_o = &self.records[o];
            let ov = Self::channel_overlap(rec_o.channel, channel);
            if rec_o.id != tx_id && ov > 0.0 {
                intf.push(Interferer::new(o, ov));
            }
        }
        // The settle table for this frame's rate and length: per bin of
        // the draw, the linear SINR cutoffs that decide it. The handles
        // are taken out of `self` for the loop, which reads the table
        // while it updates the stations.
        let mut tables = std::mem::take(&mut self.settle_tables);
        let table = tables
            .entry((rate.min_snr_db.to_bits(), wire_bits))
            .or_insert_with(|| rate.settle_table(wire_bits));
        let row = |o: usize| &self.records[o].rx_power;
        for (r, power, power_mw) in rx_power.audible(src, self.cfg.cs_threshold) {
            if heard.get(heard_at) == Some(&(r as u32)) {
                heard_at += 1;
                self.dcf.hearing[r] -= 1;
            }
            if !self.dcf.awake[r] || self.dcf.channel[r] != channel {
                continue;
            }
            // Half-duplex: a station that transmitted during any part
            // of the frame cannot receive it.
            if tx_srcs.contains(r) {
                self.stations[r].stats.rx_errors += 1;
                continue;
            }
            let success = if !self.cfg.capture && !intf.is_empty() {
                false
            } else {
                // Draw first: `chance(p)` is `f64() < p`, so `p` only
                // matters when the linear SINR falls between the cutoffs
                // of the draw's bin (`SettleTable`).
                let u = self.rng.f64();
                let (lin_lo, lin_hi) = table.cutoffs(u);
                // A draw that would settle a low SINR as lost lets the
                // interference sum stop as soon as its partial sum
                // settles it (exact: see `interference_mw`). A
                // receiver outside every interferer's sparse row sums
                // to zero and gets the noise-only denominator.
                let lost = |intf_mw: f64| power_mw <= lin_lo * (noise_mw + intf_mw);
                let (mut intf_mw, stopped) = interference_mw(&mut intf, 0.0, r, row, lost);
                if let (Some(next), true) = (stopped, cfg!(debug_assertions)) {
                    // Debug builds finish the sum, so the cross-check
                    // below sees it whole.
                    intf_mw = interference_mw(&mut intf[next..], intf_mw, r, row, |_| false).0;
                }
                let settled = if stopped.is_some() || lost(intf_mw) {
                    Some(false)
                } else if power_mw >= lin_hi * (noise_mw + intf_mw) {
                    Some(true)
                } else {
                    None
                };
                let exact = || u < reception_prob(rate, power, noise, noise_mw, intf_mw, wire_bits);
                match settled {
                    Some(ok) => {
                        self.per_decisions.settled += 1;
                        debug_assert_eq!(ok, exact(), "settle table disagrees at station {r}");
                        ok
                    }
                    None => {
                        self.per_decisions.exact += 1;
                        exact()
                    }
                }
            };
            if success {
                decoded.push((r, power));
            } else {
                self.stations[r].stats.rx_errors += 1;
            }
        }
        debug_assert_eq!(heard_at, heard.len(), "a heard station was not visited");
        heard.clear();
        self.heard_pool.push(heard);
        self.settle_tables = tables;
        self.txsrc_scratch = tx_srcs;
        self.interferer_scratch = intf;
        self.overlap_scratch = overlapping;

        // Source-side continuation: arm response timeout or complete.
        self.continue_after_own_tx(src, subtype, now, sched);

        // Receiver-side processing. The wire frame is checked out of
        // its slot for the duration — delivery needs `&Frame` alongside
        // arbitrary `&mut` world mutation, and every receiver shares
        // the same wire image. Nothing below can release the record's
        // reference (retirement runs at the end of this function), so the
        // slot stays allocated throughout.
        if !decoded.is_empty() {
            let frame = self.frames.take(frame_id);
            for &(r, power) in &decoded {
                self.process_decoded(r, &frame, power, now, sched);
            }
            self.frames.restore(frame_id, frame);
        }
        self.decoded_scratch = decoded;

        // Idle edges: resume frozen access procedures. Only contenders
        // (a queue holds backoff slots, timer not counting) can react;
        // the wait-list yields them in the ascending order the old
        // full-table scan visited them in. Stations whose timer is
        // already counting were no-ops in that scan, and they are
        // exactly the ones the wait-list omits.
        let mut scratch = std::mem::take(&mut self.rearm_scratch);
        scratch.clear();
        self.contenders.collect_into(&mut scratch);
        for &r in &scratch {
            if self.medium_idle(r, now) {
                self.try_arm_access(r, now, sched);
            }
        }
        self.rearm_scratch = scratch;

        // Retire every finished record no live frame can overlap,
        // returning its frame reference to the arena. Records are
        // pushed in start order, so the first one still on the air is
        // the oldest; a frame completing later started at or after it
        // (or after `now`), and overlap needs `end > start`.
        let cutoff = self
            .records
            .iter()
            .find(|rec| !rec.done)
            .map_or(now, |rec| rec.start);
        let frames = &mut self.frames;
        self.records.retain(|rec| {
            let keep = !rec.done || rec.end > cutoff;
            if !keep {
                frames.release(rec.frame);
            }
            keep
        });
    }

    fn continue_after_own_tx(
        &mut self,
        src: StationId,
        subtype: Subtype,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        if matches!(
            subtype,
            Subtype::Ack | Subtype::Cts | Subtype::BlockAck | Subtype::BlockAckReq
        ) {
            // Control responses need no follow-up from us.
            return;
        }
        // The exchange the frame opened at its tx start says what comes
        // next. A group frame awaits nothing and completes at once: an
        // EDCA station's frame is its A-MPDU flight, anything else (a
        // QoS data frame on a legacy world too) is its attempt.
        let std = self.cfg.standard;
        let (resp_air, gen) = match self.stations[src].exchange {
            Exchange::Idle => return self.complete_attempt(src, true, now, sched),
            Exchange::Flight { ac, ba: None } => {
                self.end_exchange(src, |_| true);
                return self.qos_resolve_flight(src, ac, BaResult::Broadcast, now, sched);
            }
            Exchange::AwaitCts(gen) => (cts_airtime(std), gen),
            Exchange::AwaitAck(gen) => (ack_airtime(std), gen),
            Exchange::Flight { ba: Some(gen), .. } => (block_ack_airtime(std), gen),
        };
        // Arm the CTS/ACK/block-ack timeout.
        let timeout = self.sifs + resp_air + self.slot * 2;
        sched.schedule_in(timeout, MacEvent::ResponseTimeout { station: src, gen });
    }

    fn process_decoded(
        &mut self,
        r: StationId,
        frame: &Frame,
        rssi: Dbm,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let my_addr = self.stations[r].addr;
        let for_me = frame.receiver() == my_addr || frame.receiver().is_group();
        if !for_me {
            // Virtual carrier sense: honour the Duration field (§4.2).
            if frame.duration_id & 0x8000 == 0 && frame.duration_id > 0 {
                let nav = now + SimDuration::from_micros(frame.duration_id as u64);
                if nav > self.dcf.nav_until[r] {
                    self.dcf.nav_until[r] = nav;
                    self.trace.event(
                        now,
                        Level::Debug,
                        "mac",
                        TraceEvent::Nav {
                            station: r as u32,
                            until_us: nav.as_nanos() / 1_000,
                        },
                    );
                    self.freeze_access(r, now);
                    sched.schedule_at(nav, MacEvent::NavExpired { station: r });
                }
            }
            return;
        }
        match frame.fc.subtype {
            Subtype::Ack => self.on_ack(r, now, sched),
            Subtype::Cts => self.on_cts(r, sched),
            // An A-MPDU only on an EDCA world; a legacy world takes a QoS
            // data frame as plain data (ACKed, deduplicated, delivered).
            Subtype::QosData if self.cfg.edca => self.on_qos_data(r, frame, rssi, now, sched),
            Subtype::BlockAck => self.on_block_ack(r, frame, now, sched),
            Subtype::BlockAckReq => {
                // This model uses implicit block-ack requests — the
                // aggregate itself solicits the BA (DESIGN.md §16); an
                // explicit BAR on the air is codec-exercised only.
            }
            Subtype::Rts => {
                // An RTS, data or management frame without a transmitter
                // address (only a caller-built frame lacks one) cannot be
                // answered: a reception error, and its sender's retry
                // ladder reports the failure.
                let Some(ta) = frame.transmitter() else {
                    self.stations[r].stats.rx_errors += 1;
                    return;
                };
                // Respond with CTS after SIFS if our NAV permits.
                if self.dcf.nav_until[r] <= now {
                    let std = self.cfg.standard;
                    let cts = Frame::cts(ta, crate::duration::cts_duration(std, frame.duration_id));
                    self.schedule_sifs(r, PendingTx::Control(cts), sched);
                }
            }
            Subtype::PsPoll => {
                self.stations[r].stats.rx_accepted += 1;
                self.with_upper(r, now, sched, |u, ctx| u.on_frame(ctx, frame, rssi));
            }
            _ => {
                // Data / management.
                let Some(tx) = frame.transmitter() else {
                    self.stations[r].stats.rx_errors += 1; // As for an RTS.
                    return;
                };
                let unicast = !frame.receiver().is_group();
                if unicast {
                    // ACK after SIFS — even for duplicates (the original
                    // ACK may be the thing that got lost).
                    self.schedule_sifs(r, PendingTx::Control(Frame::ack(tx)), sched);
                }
                let seq = frame.seq.expect("data carries sequence control");
                if unicast && self.stations[r].dedup.check(tx, seq, frame.fc.retry) {
                    self.stations[r].stats.rx_duplicates += 1;
                    return;
                }
                // Fragment reassembly (§4.2 More Fragments).
                if frame.fc.more_fragments || seq.fragment > 0 {
                    let key = (tx, seq.sequence);
                    let buf = self.stations[r].reassembly.entry(key).or_default();
                    buf.extend_from_slice(&frame.body);
                    if frame.fc.more_fragments {
                        return;
                    }
                    let full = self.stations[r].reassembly.remove(&key).unwrap_or_default();
                    // Rare path: reassembly builds its own buffer and
                    // hands it over as the rebuilt body.
                    let mut complete = frame.clone();
                    complete.body = full.into();
                    complete.fc.more_fragments = false;
                    self.deliver(r, &complete, rssi, now, sched);
                } else {
                    self.deliver(r, frame, rssi, now, sched);
                }
            }
        }
    }

    pub(super) fn deliver(
        &mut self,
        r: StationId,
        frame: &Frame,
        rssi: Dbm,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let s = &mut self.stations[r];
        s.stats.rx_accepted += 1;
        s.stats.rx_payload_bytes += frame.body.len() as u64;
        self.trace.event(
            now,
            Level::Debug,
            "mac",
            TraceEvent::Rx {
                station: r as u32,
                kind: frame_kind(frame.fc.subtype),
                len: frame.body.len() as u32,
                rssi_dbm: rssi.value(),
            },
        );
        self.with_upper(r, now, sched, |u, ctx| u.on_frame(ctx, frame, rssi));
    }

    fn on_ack(&mut self, id: StationId, now: SimTime, sched: &mut Scheduler<MacEvent>) {
        let Some(_) = self.end_exchange(id, |e| matches!(e, Exchange::AwaitAck(_))) else {
            return;
        };
        self.dcf.timer_gen[id] += 1; // Cancel the timeout.
        let s = &mut self.stations[id];
        let Some(at) = s.current.as_mut() else {
            return; // Unreachable: only an attempt awaits an ACK.
        };
        s.arf.on_success(self.frames.get(at.msdu.frame).receiver());
        at.frag_ranges.pop_front();
        at.short_retries = 0;
        at.long_retries = 0;
        at.is_retry = false;
        if let Some(b) = at.built.take() {
            // The acknowledged fragment's wire frame is done; only the
            // in-flight record still references it.
            self.frames.release(b);
        }
        if at.frag_ranges.is_empty() {
            self.complete_attempt(id, true, now, sched);
        } else {
            at.frag_number += 1;
            // Continue the burst SIFS-spaced without re-contending.
            self.schedule_sifs(id, PendingTx::Fragment, sched);
        }
    }

    fn on_cts(&mut self, id: StationId, sched: &mut Scheduler<MacEvent>) {
        let Some(_) = self.end_exchange(id, |e| matches!(e, Exchange::AwaitCts(_))) else {
            return;
        };
        self.dcf.timer_gen[id] += 1;
        self.schedule_sifs(id, PendingTx::Fragment, sched);
    }

    /// Books one MSDU's fate at its sender: the completion or failure
    /// count, a completion's access delay (also under its access
    /// category `ac` on an EDCA world), and the `TxOutcome` trace.
    pub(super) fn settle_msdu(
        &mut self,
        id: StationId,
        enqueued: SimTime,
        ok: bool,
        ac: Option<usize>,
        now: SimTime,
    ) {
        let stats = &mut self.stations[id].stats;
        if ok {
            stats.tx_completions += 1;
            let delay_us = now.saturating_duration_since(enqueued).as_micros_f64();
            stats.access_delay_us.record(delay_us);
            self.access_delay_hist.record(delay_us as u64);
            if let Some(aci) = ac {
                self.ac_delay_hist[aci].record(delay_us as u64);
            }
        } else {
            stats.tx_failures += 1;
        }
        self.trace.event(
            now,
            Level::Debug,
            "mac",
            TraceEvent::TxOutcome {
                station: id as u32,
                ok,
            },
        );
    }

    fn complete_attempt(
        &mut self,
        id: StationId,
        success: bool,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let Some(at) = self.stations[id].current.take() else {
            return;
        };
        self.queues.reset_cw(id, 0);
        self.settle_msdu(id, at.msdu.enqueued, success, None, now);
        // Hand the upper layer the MSDU as it queued it: moved out of
        // the arena, its body whole and the More Fragments bit clear —
        // fragmentation is a MAC transfer detail, finished either way
        // by now.
        let mut frame = self.frames.unwrap_or_clone(at.msdu.frame);
        frame.fc.more_fragments = false;
        if let Some(b) = at.built {
            // A failed attempt can still hold a cached wire frame.
            self.frames.release(b);
        }
        if !success {
            self.trace.event(
                now,
                Level::Warn,
                "mac",
                TraceEvent::Drop {
                    station: id as u32,
                    kind: frame_kind(frame.fc.subtype),
                    reason: DropReason::RetryLimit,
                },
            );
        }
        self.with_upper(id, now, sched, |u, ctx| {
            u.on_tx_result(ctx, &frame, success)
        });
        // Post-transmission backoff, then next MSDU.
        self.maybe_start_next(id, now, sched);
    }

    /// The (short, long) retry limits, one higher each while the
    /// planted `failpoint_retry_overrun` is armed (its one site).
    pub(super) fn retry_limits(&self) -> (u32, u32) {
        let c = &self.cfg;
        let overrun = u32::from(c.failpoint_retry_overrun);
        (c.retry_limit_short + overrun, c.retry_limit_long + overrun)
    }

    /// Counts and traces one retry with the attempt's (short, long)
    /// counters. The A-MPDU ladder passes an MPDU's attempt count as
    /// `short`, so the retry-bound and trace-metrics oracles cover both.
    pub(super) fn count_retry(&mut self, id: StationId, short: u32, long: u32, now: SimTime) {
        self.stations[id].stats.retries += 1;
        let station = id as u32;
        let retry = TraceEvent::Retry {
            station,
            short,
            long,
        };
        self.trace.event(now, Level::Debug, "mac", retry);
    }

    pub(super) fn handle_response_timeout(
        &mut self,
        id: StationId,
        gen: u64,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let awaited = |e| match e {
            Exchange::AwaitCts(g) | Exchange::AwaitAck(g) => g == gen,
            Exchange::Flight { ba, .. } => ba == Some(gen),
            Exchange::Idle => false,
        };
        let Some(ended) = self.end_exchange(id, awaited) else {
            return;
        };
        // A lost ACK after RTS/CTS charges the long retry counter; a
        // lost CTS, or the ACK of an unprotected frame, the short one.
        let ack_lost = match ended {
            Exchange::Flight { ac, .. } => {
                // The block ack never came: every MPDU of the aggregate
                // missed this round.
                self.qos_resolve_flight(id, ac, BaResult::Timeout, now, sched);
                return;
            }
            Exchange::AwaitAck(_) => true,
            _ => false,
        };
        let (cfg_short, cfg_long) = self.retry_limits();
        let s = &mut self.stations[id];
        let Some(at) = s.current.as_mut() else {
            return;
        };
        s.arf.on_failure(self.frames.get(at.msdu.frame).receiver());
        if !at.is_retry {
            // The retry bit flips into the wire image; release the cached
            // frame so the next transmit rebuilds it. Later retries of the
            // same fragment reuse that rebuild.
            at.is_retry = true;
            if let Some(b) = at.built.take() {
                self.frames.release(b);
            }
        }
        let exceeded = if ack_lost && at.use_rts {
            at.long_retries += 1;
            at.long_retries > cfg_long
        } else {
            at.short_retries += 1;
            at.short_retries > cfg_short
        };
        let (short, long) = (at.short_retries, at.long_retries);
        if exceeded {
            self.complete_attempt(id, false, now, sched);
        } else {
            self.count_retry(id, short, long, now);
            // Double the contention window and re-contend (BEB).
            self.queues.widen_cw(id, 0);
            self.begin_access(id, 0, now, sched);
        }
    }

    pub(super) fn handle_sifs_action(
        &mut self,
        id: StationId,
        gen: u64,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let Some((action, g)) = self.stations[id].pending.take() else {
            return;
        };
        if g != gen {
            return;
        }
        if self.dcf.transmitting[id].is_some() {
            return; // Half-duplex guard.
        }
        match action {
            PendingTx::Control(frame) => {
                let rate = self.cfg.standard.base_rate();
                let fid = self.frames.insert(frame);
                self.start_transmission(id, fid, rate, now, sched);
            }
            PendingTx::Fragment => self.transmit_current(id, false, now, sched),
        }
    }
}
