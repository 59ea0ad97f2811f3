//! The 802.11e exchange on an EDCA world (DESIGN.md §16).
//!
//! Each station's four access-category queues contend in the shared
//! access engine (`access.rs`). A winning queue does not build a legacy
//! `Attempt`: it sends an A-MPDU flight (its head-of-line run of MSDUs
//! to one receiver) and waits for a compressed block ack. The station's
//! one exchange state (`Exchange::Flight`) names the queue whose
//! flight is on the air or awaits its block ack. The receiver
//! draws per-MPDU losses, filters duplicates, delivers and answers
//! with the block ack; the sender completes the acked MPDUs and
//! retries the rest. Legacy worlds never reach this code.
//!
//! This file is a child module of `sim`, so the exchange works on the
//! world's private state directly.

use super::{Exchange, MacEvent, Msdu, PendingTx, StationId, WlanWorld};
use crate::arena::FrameId;
use crate::frame::{Frame, SequenceControl, Subtype};
use wn_phy::modulation::RateStep;
use wn_phy::units::Dbm;
use wn_sim::trace::{Level, TraceEvent};
use wn_sim::{Scheduler, SimTime};

/// One MPDU riding (or waiting to re-ride) an A-MPDU aggregate.
pub(super) struct AmpduMpdu {
    msdu: Msdu,
    seq: u16,
    retries: u32,
}

/// The in-flight A-MPDU attempt of one access category: the MPDUs not
/// yet block-acked, plus the cached aggregate wire frame.
pub(super) struct AmpduFlight {
    pub(super) mpdus: Vec<AmpduMpdu>,
    rate: RateStep,
    /// Starting sequence number — the first (lowest) MPDU's seq; the
    /// block-ack bitmap is relative to it.
    ssn: u16,
    /// Cached aggregate wire frame (one arena reference), rebuilt when
    /// the MPDU set changes (partial block ack trims it).
    pub(super) built: Option<FrameId>,
}

/// How an in-flight A-MPDU was answered.
pub(super) enum BaResult {
    /// A block ack arrived with this SSN and bitmap.
    Ba(u16, u64),
    /// The block-ack timeout fired; nothing was acked.
    Timeout,
    /// Group-addressed aggregate: complete everything, no response.
    Broadcast,
}

impl WlanWorld {
    /// Builds a fresh [`AmpduFlight`] for one AC from its queue head:
    /// a same-receiver run of MSDUs capped by the aggregation limits,
    /// the AC's TXOP budget and the 64-wide block-ack window. An empty
    /// queue builds none.
    fn edca_build_flight(&mut self, id: StationId, aci: usize, now: SimTime) {
        let std = self.cfg.standard;
        let max_bytes = self.cfg.ampdu_max_bytes;
        let txop_us = self.queues.params[aci].txop_us;
        let k = self.queues.index(id, aci);
        let (peer, head_wire) = {
            let Some(head) = self.queues.msdus[k].front() else {
                return;
            };
            let f = self.frames.get(head.frame);
            (
                f.receiver(),
                f.header_len() + f.body.len() + 4 + crate::duration::AMPDU_DELIMITER_LEN,
            )
        };
        let rate = if peer.is_group() {
            std.base_rate()
        } else {
            self.stations[id].arf.current_rate(peer)
        };
        let budget = crate::duration::txop_mpdu_budget(std, rate, txop_us, head_wire);
        let n_cap = self.cfg.ampdu_max_mpdus.clamp(1, 64).min(budget);
        let mut mpdus: Vec<AmpduMpdu> = Vec::new();
        let mut bytes = 0usize;
        while mpdus.len() < n_cap {
            let take = self.queues.msdus[k].front().is_some_and(|m| {
                let f = self.frames.get(m.frame);
                f.receiver() == peer && (mpdus.is_empty() || bytes + f.body.len() <= max_bytes)
            });
            if !take {
                break;
            }
            let m = self.queues.msdus[k].pop_front().expect("peeked above");
            bytes += self.frames.get(m.frame).body.len();
            self.queue_gauge.add(now, -1.0);
            let seq = self.stations[id].seq.next();
            mpdus.push(AmpduMpdu {
                msdu: m,
                seq,
                retries: 0,
            });
        }
        let Some(ssn) = mpdus.first().map(|m| m.seq) else {
            return;
        };
        self.queues.flights[k] = Some(AmpduFlight {
            mpdus,
            rate,
            ssn,
            built: None,
        });
    }

    /// Puts the AC's aggregate on the air and arms the block-ack wait.
    pub(super) fn edca_transmit(
        &mut self,
        id: StationId,
        aci: usize,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let k = self.queues.index(id, aci);
        if self.queues.flights[k].is_none() {
            self.edca_build_flight(id, aci, now);
        }
        let std = self.cfg.standard;
        // Build (or reuse after a lost BA) the aggregate wire frame:
        // one QosData whose body is a [seq, len, payload] run.
        let (fid, rate, ssn, bits) = {
            let Some(flight) = self.queues.flights[k].as_mut() else {
                return; // Queue drained underneath the access win.
            };
            let ssn = flight.ssn;
            let mut bits = 0u64;
            for m in &flight.mpdus {
                let off = m.seq.wrapping_sub(ssn) & 0x0FFF;
                debug_assert!((off as usize) < 64, "aggregate exceeds BA window");
                bits |= 1 << (off & 63);
            }
            let fid = match flight.built {
                Some(f) => f,
                None => {
                    let mut f = self.frames.get(flight.mpdus[0].msdu.frame).clone();
                    f.fc.subtype = Subtype::QosData;
                    f.fc.retry = flight.mpdus.iter().any(|m| m.retries > 0);
                    f.fc.more_fragments = false;
                    f.seq = Some(SequenceControl {
                        fragment: 0,
                        sequence: ssn,
                    });
                    f.duration_id = if f.receiver().is_group() {
                        0
                    } else {
                        crate::duration::ampdu_duration(std)
                    };
                    let len = flight
                        .mpdus
                        .iter()
                        .map(|m| 4 + self.frames.get(m.msdu.frame).body.len())
                        .sum();
                    let mut body = Vec::with_capacity(len);
                    for m in &flight.mpdus {
                        let mb = &self.frames.get(m.msdu.frame).body;
                        // Enqueue refuses bodies the 16-bit field
                        // cannot carry.
                        let mb_len = u16::try_from(mb.len()).expect("checked at enqueue");
                        body.extend_from_slice(&m.seq.to_le_bytes());
                        body.extend_from_slice(&mb_len.to_le_bytes());
                        body.extend_from_slice(mb);
                    }
                    f.body = body.into();
                    let fid = self.frames.insert(f);
                    flight.built = Some(fid);
                    fid
                }
            };
            (fid, flight.rate, ssn, bits)
        };
        self.trace.event(
            now,
            Level::Debug,
            "mac",
            TraceEvent::AmpduTx {
                station: id as u32,
                ac: aci as u8,
                ssn,
                bitmap: bits,
            },
        );
        let is_group = self.frames.get(fid).receiver().is_group();
        self.frames.retain(fid); // The record's reference.
        self.start_transmission(id, fid, rate, now, sched);
        let ba = (!is_group).then(|| self.next_gen(id));
        // ROADMAP item 1 Step 1: the one transition that replaces an
        // open exchange. While another queue's flight awaits its block
        // ack, this flight takes the station's exchange, so that flight
        // is never resolved and its MSDUs stay queued for good.
        self.open_exchange(id, Exchange::Flight { ac: aci, ba });
    }

    /// Receiver side of a QoS aggregate: per-MPDU loss draws, dedup,
    /// delivery, and the SIFS-spaced compressed block ack.
    pub(super) fn on_qos_data(
        &mut self,
        r: StationId,
        frame: &Frame,
        rssi: Dbm,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let Some(tx) = frame.transmitter() else {
            return;
        };
        let ssn = frame.seq.map_or(0, |s| s.sequence);
        let unicast = !frame.receiver().is_group();
        let loss = self.cfg.ampdu_per_mpdu_loss;
        // One MPDU frame per subframe: the aggregate's header with the
        // subframe's sequence number and a window onto its payload.
        let mut one = frame.clone();
        one.fc.more_fragments = false;
        let mut bitmap = 0u64;
        let body: &[u8] = &frame.body;
        let mut off = 0usize;
        while off + 4 <= body.len() {
            let seq = u16::from_le_bytes([body[off], body[off + 1]]);
            let len = u16::from_le_bytes([body[off + 2], body[off + 3]]) as usize;
            off += 4;
            if off + len > body.len() {
                break; // Truncated delimiter run; stop parsing.
            }
            let mpdu = off..off + len;
            off += len;
            if loss > 0.0 && self.rng.chance(loss) {
                // The delimiter/CRC of this subframe failed even though
                // the PPDU decoded: the BA simply omits its bit.
                self.stations[r].stats.rx_errors += 1;
                continue;
            }
            let bit = seq.wrapping_sub(ssn) & 0x0FFF;
            if (bit as usize) < 64 {
                bitmap |= 1 << bit;
            }
            let sc = SequenceControl {
                fragment: 0,
                sequence: seq,
            };
            // Duplicates still get their BA bit (the lost thing may
            // have been the previous BA), but are not re-delivered.
            if unicast && self.stations[r].dedup.check(tx, sc, frame.fc.retry) {
                self.stations[r].stats.rx_duplicates += 1;
                continue;
            }
            one.body = frame.body.slice(mpdu);
            one.seq = Some(sc);
            self.deliver(r, &one, rssi, now, sched);
        }
        if unicast {
            let my = self.stations[r].addr;
            let ba = Frame::block_ack(tx, my, ssn, bitmap);
            self.schedule_sifs(r, PendingTx::Control(ba), sched);
        }
    }

    /// Sender side of a received block ack.
    pub(super) fn on_block_ack(
        &mut self,
        id: StationId,
        frame: &Frame,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let (Some(ssn), Some(bitmap)) = (frame.ba_ssn(), frame.ba_bitmap()) else {
            return;
        };
        let awaits_ba = |e: Exchange| matches!(e, Exchange::Flight { ba: Some(_), .. });
        let Some(Exchange::Flight { ac, .. }) = self.end_exchange(id, awaits_ba) else {
            return;
        };
        self.dcf.timer_gen[id] += 1; // Cancel the BA timeout.
        self.qos_resolve_flight(id, ac, BaResult::Ba(ssn, bitmap), now, sched);
    }

    /// Settles queue `aci`'s aggregate, whose exchange just ended,
    /// against a block ack (or its absence): acked MPDUs complete, the
    /// rest retry until the limit, and the flight either re-contends
    /// with the survivors or ends.
    pub(super) fn qos_resolve_flight(
        &mut self,
        id: StationId,
        aci: usize,
        ba: BaResult,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let k = self.queues.index(id, aci);
        let Some(mut flight) = self.queues.flights[k].take() else {
            return;
        };
        if let Some(b) = flight.built.take() {
            self.frames.release(b);
        }
        let limit = self.retry_limits().0;
        let peer = self.frames.get(flight.mpdus[0].msdu.frame).receiver();
        let flight_ssn = flight.ssn;
        let mut acked_bits = 0u64;
        let mut any_acked = false;
        let mut remaining: Vec<AmpduMpdu> = Vec::new();
        let mut outcomes: Vec<(Frame, bool)> = Vec::new();
        for mut m in flight.mpdus.drain(..) {
            let acked = match ba {
                BaResult::Ba(ssn, bm) => {
                    let o = m.seq.wrapping_sub(ssn) & 0x0FFF;
                    (o as usize) < 64 && (bm >> o) & 1 == 1
                }
                BaResult::Timeout => false,
                BaResult::Broadcast => true,
            };
            if acked {
                any_acked = true;
                let off = m.seq.wrapping_sub(flight_ssn) & 0x0FFF;
                if (off as usize) < 64 {
                    acked_bits |= 1 << off;
                }
                self.settle_msdu(id, m.msdu.enqueued, true, Some(aci), now);
                outcomes.push((self.frames.unwrap_or_clone(m.msdu.frame), true));
            } else {
                m.retries += 1;
                if m.retries > limit {
                    self.trace.event(
                        now,
                        Level::Warn,
                        "mac",
                        TraceEvent::MpduDrop {
                            station: id as u32,
                            ac: aci as u8,
                            seq: m.seq,
                        },
                    );
                    self.settle_msdu(id, m.msdu.enqueued, false, Some(aci), now);
                    outcomes.push((self.frames.unwrap_or_clone(m.msdu.frame), false));
                } else {
                    // The MPDU's attempt counter, bounded by the short
                    // limit.
                    self.count_retry(id, m.retries, 0, now);
                    remaining.push(m);
                }
            }
        }
        if any_acked {
            // The *effective* completion set: bits are relative to the
            // transmitted aggregate's SSN, and an MPDU leaves the
            // flight the moment it completes, so no seq can ever
            // appear in two BlockAckRx events.
            self.trace.event(
                now,
                Level::Debug,
                "mac",
                TraceEvent::BlockAckRx {
                    station: id as u32,
                    ac: aci as u8,
                    ssn: flight_ssn,
                    bitmap: acked_bits,
                },
            );
            self.stations[id].arf.on_success(peer);
        } else if !matches!(ba, BaResult::Broadcast) {
            self.stations[id].arf.on_failure(peer);
        }
        if remaining.is_empty() {
            self.queues.reset_cw(id, aci);
            if !self.queues.msdus[k].is_empty() {
                // Post-transmission backoff before the next aggregate.
                self.begin_access(id, aci, now, sched);
            }
        } else {
            flight.ssn = remaining[0].seq;
            flight.mpdus = remaining;
            self.queues.flights[k] = Some(flight);
            self.queues.widen_cw(id, aci);
            self.begin_access(id, aci, now, sched);
        }
        for (fr, ok) in outcomes {
            self.with_upper(id, now, sched, |u, ctx| u.on_tx_result(ctx, &fr, ok));
        }
    }
}
