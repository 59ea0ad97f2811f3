//! The station (STA) state machine.
//!
//! §3.1: "A station (STA) might be a PC, a laptop, a PDA, a phone or
//! whatever device having the capability to access the wireless
//! medium." This module implements the full client lifecycle:
//!
//! 1. **Scan** — dwell on each configured channel collecting beacons
//!    (passive scan) for the configured SSID.
//! 2. **Authenticate** — Open System or Shared Key (§5.1).
//! 3. **Associate** — join the BSS, receive an AID.
//! 4. **Transfer** — application payloads ride ToDS data frames via the
//!    AP; downlink FromDS frames are delivered to the application.
//! 5. **Roam** — §3.2: "As a mobile device moves out of the range of
//!    one access point, it moves into the range of another … clients
//!    can freely roam … and still maintain seamless network
//!    connection." Roaming triggers on beacon loss or on hearing a
//!    sufficiently stronger same-SSID beacon.
//! 6. **Power save** (optional) — doze between beacons, wake for the
//!    TIM, PS-Poll buffered frames out of the AP (§4.2).

use std::collections::VecDeque;

use crate::ie::{AssocReqBody, AssocRespBody, AuthAlgorithm, AuthBody, BeaconBody};
use crate::ssid::Ssid;
use wn_mac80211::addr::MacAddr;
use wn_mac80211::frame::{DsBits, Frame, SequenceControl, Subtype};
use wn_mac80211::sim::{Command, UpperCtx, UpperLayer};
use wn_phy::units::Dbm;
use wn_sim::trace::{Level, TraceEvent};
use wn_sim::{SimDuration, SimTime};

/// Timer tag: scan dwell elapsed, hop to the next channel.
pub const TAG_SCAN: u64 = 10;
/// Timer tag: beacon watchdog tick.
pub const TAG_WATCH: u64 = 11;
/// Timer tag: application asked us to drain the outgoing queue.
pub const TAG_APP: u64 = 12;
/// Timer tag: wake from power-save doze for the next beacon.
pub const TAG_PS_WAKE: u64 = 13;
/// Timer tag: association attempt timed out.
pub const TAG_JOIN_TIMEOUT: u64 = 14;

/// STA configuration.
#[derive(Clone, Debug)]
pub struct StaConfig {
    /// The network to join.
    pub ssid: Ssid,
    /// Channels to scan.
    pub channels: Vec<u8>,
    /// Dwell time per scanned channel.
    pub scan_dwell: SimDuration,
    /// Authentication algorithm to attempt.
    pub auth: AuthAlgorithm,
    /// Shared key (Shared Key auth only).
    pub shared_key: Vec<u8>,
    /// Enable §4.2 power-save mode.
    pub power_save: bool,
    /// Active scanning: send a probe request on each scanned channel
    /// instead of waiting a full beacon interval (faster discovery).
    pub active_scan: bool,
    /// Missed-beacon count that declares the link lost.
    pub beacon_loss_limit: u32,
    /// Roam when another AP's beacon is this much stronger (dB).
    pub roam_hysteresis_db: f64,
    /// Preemptive roaming: after three serving-AP beacons weaker than
    /// this, rescan for a better AP before the link dies entirely.
    pub rescan_below_dbm: f64,
}

impl StaConfig {
    /// A default open-auth client of `ssid` scanning the given channels.
    pub fn open(ssid: Ssid, channels: Vec<u8>) -> Self {
        StaConfig {
            ssid,
            channels,
            scan_dwell: SimDuration::from_millis(120),
            auth: AuthAlgorithm::OpenSystem,
            shared_key: Vec::new(),
            power_save: false,
            active_scan: false,
            beacon_loss_limit: 4,
            roam_hysteresis_db: 6.0,
            rescan_below_dbm: -78.0,
        }
    }

    /// Checks the fields a STA cannot run with; the error names the
    /// offending field. [`EssBuilder::try_build`] returns it. An empty
    /// `channels` list would index out of bounds at boot, and a zero
    /// `scan_dwell` would re-arm the scan timer at the same instant
    /// forever.
    ///
    /// [`EssBuilder::try_build`]: crate::builder::EssBuilder::try_build
    pub fn validate(&self) -> Result<(), String> {
        if self.channels.is_empty() {
            return Err("channels must not be empty".into());
        }
        if self.scan_dwell == SimDuration::ZERO {
            return Err("scan_dwell must be > 0".into());
        }
        Ok(())
    }
}

/// The STA lifecycle states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaState {
    /// Not yet started.
    Idle,
    /// Passive-scanning the channel list.
    Scanning,
    /// Authentication exchange in progress.
    Authenticating,
    /// Association exchange in progress.
    Associating,
    /// Member of a BSS, data transfer enabled.
    Associated,
}

#[derive(Debug)]
struct Candidate {
    bssid: MacAddr,
    channel: u8,
    rssi: Dbm,
    interval_ms: u16,
}

/// The STA upper-layer logic. The public fields are its observable
/// state; read them back through the world
/// ([`WlanWorld::upper`](wn_mac80211::sim::WlanWorld::upper), or
/// [`Ess::sta`](crate::builder::Ess::sta)).
#[derive(Debug)]
pub struct StaLogic {
    /// Current lifecycle state.
    pub state: StaState,
    /// Serving BSSID once associated.
    pub bssid: Option<MacAddr>,
    /// Assigned association ID.
    pub aid: u16,
    /// Application payloads awaiting transmission `(destination, data)`.
    pub outgoing: VecDeque<(MacAddr, Vec<u8>)>,
    /// Application payloads received `(time, source, data)`.
    pub delivered: Vec<(SimTime, MacAddr, Vec<u8>)>,
    /// Association history `(time, bssid)` — roaming leaves one entry
    /// per AP, from which handoff gaps are measured.
    pub assoc_events: Vec<(SimTime, MacAddr)>,
    /// MSDUs acknowledged end-to-end by the MAC.
    pub tx_ok: u64,
    /// MSDUs dropped at the retry limit.
    pub tx_fail: u64,
    /// Beacons heard from the serving AP.
    pub beacons_heard: u64,
    /// Times the STA dozed (power save).
    pub dozes: u64,
    /// PS-Polls sent.
    pub ps_polls: u64,
    cfg: StaConfig,
    scan_index: usize,
    best: Option<Candidate>,
    serving: Option<Candidate>,
    beacons_missed: u32,
    beacon_seen_since_watch: bool,
    join_generation: u64,
    current_rssi: f64,
    weak_beacons: u32,
}

impl StaLogic {
    /// Creates a station client.
    pub fn new(cfg: StaConfig) -> Self {
        StaLogic {
            state: StaState::Idle,
            bssid: None,
            aid: 0,
            outgoing: VecDeque::new(),
            delivered: Vec::new(),
            assoc_events: Vec::new(),
            tx_ok: 0,
            tx_fail: 0,
            beacons_heard: 0,
            dozes: 0,
            ps_polls: 0,
            cfg,
            scan_index: 0,
            best: None,
            serving: None,
            beacons_missed: 0,
            beacon_seen_since_watch: false,
            join_generation: 0,
            current_rssi: f64::NEG_INFINITY,
            weak_beacons: 0,
        }
    }

    fn start_scan(&mut self, ctx: &mut UpperCtx) {
        // Leaving an established association to reacquire (beacon loss,
        // weak signal, deauth) is the other half of §3.2 roaming.
        if self.state == StaState::Associated {
            ctx.emit(
                Level::Info,
                TraceEvent::Handoff {
                    station: ctx.id as u32,
                },
            );
        }
        self.state = StaState::Scanning;
        self.bssid = None;
        self.serving = None;
        self.best = None;
        self.scan_index = 0;
        ctx.command(Command::SetAwake(true));
        ctx.command(Command::SetChannel(self.cfg.channels[0]));
        self.maybe_probe(ctx);
        ctx.set_timer(self.cfg.scan_dwell, TAG_SCAN);
    }

    /// Active scanning (§3.2's "probe request"): solicit an immediate
    /// probe response instead of waiting out a beacon interval.
    fn maybe_probe(&mut self, ctx: &mut UpperCtx) {
        if !self.cfg.active_scan {
            return;
        }
        let f = Frame::management(
            Subtype::ProbeReq,
            MacAddr::BROADCAST,
            ctx.addr,
            MacAddr::BROADCAST,
            SequenceControl::default(),
            Vec::new(),
        );
        ctx.send(f);
    }

    fn begin_join(&mut self, ctx: &mut UpperCtx) {
        let Some(best) = self.best.take() else {
            // Nothing found; rescan.
            self.start_scan(ctx);
            return;
        };
        ctx.command(Command::SetChannel(best.channel));
        self.state = StaState::Authenticating;
        let body = AuthBody {
            algorithm: self.cfg.auth,
            transaction: 1,
            status: 0,
            challenge: Vec::new(),
        };
        let f = Frame::management(
            Subtype::Auth,
            best.bssid,
            ctx.addr,
            best.bssid,
            SequenceControl::default(),
            body.encode(),
        );
        ctx.send(f);
        self.serving = Some(best);
        self.join_generation += 1;
        ctx.set_timer(
            SimDuration::from_millis(500),
            TAG_JOIN_TIMEOUT + (self.join_generation << 8),
        );
    }

    fn drain_app_queue(&mut self, ctx: &mut UpperCtx) {
        let (StaState::Associated, Some(bssid)) = (self.state, self.bssid) else {
            return;
        };
        while let Some((da, payload)) = self.outgoing.pop_front() {
            let f = Frame::data(
                DsBits::ToAp,
                da,
                ctx.addr,
                bssid,
                SequenceControl::default(),
                payload,
            );
            ctx.send(f);
        }
    }

    fn doze_until_next_beacon(&mut self, ctx: &mut UpperCtx) {
        let Some(serving) = &self.serving else {
            return;
        };
        let interval = SimDuration::from_millis(serving.interval_ms.max(10) as u64);
        // Wake 2 ms before the expected beacon.
        let sleep = interval.saturating_sub(SimDuration::from_millis(2));
        ctx.command(Command::SetAwake(false));
        ctx.emit(
            Level::Debug,
            TraceEvent::PowerSave {
                station: ctx.id as u32,
                doze: true,
            },
        );
        self.dozes += 1;
        ctx.set_timer(sleep, TAG_PS_WAKE);
    }
}

impl UpperLayer for StaLogic {
    fn on_start(&mut self, ctx: &mut UpperCtx) {
        self.start_scan(ctx);
    }

    fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
        match tag & 0xFF {
            TAG_SCAN => {
                if self.state != StaState::Scanning {
                    return;
                }
                self.scan_index += 1;
                if self.scan_index < self.cfg.channels.len() {
                    ctx.command(Command::SetChannel(self.cfg.channels[self.scan_index]));
                    self.maybe_probe(ctx);
                    ctx.set_timer(self.cfg.scan_dwell, TAG_SCAN);
                } else {
                    self.begin_join(ctx);
                }
            }
            TAG_WATCH => {
                if self.state != StaState::Associated {
                    return;
                }
                if self.beacon_seen_since_watch {
                    self.beacons_missed = 0;
                } else {
                    self.beacons_missed += 1;
                }
                self.beacon_seen_since_watch = false;
                if self.beacons_missed >= self.cfg.beacon_loss_limit {
                    // Link lost — §3.2 roaming by reacquisition.
                    self.start_scan(ctx);
                } else {
                    let interval = self
                        .serving
                        .as_ref()
                        .map(|s| SimDuration::from_millis(s.interval_ms.max(10) as u64))
                        .unwrap_or(SimDuration::from_millis(100));
                    ctx.set_timer(interval, TAG_WATCH);
                }
            }
            TAG_APP => self.drain_app_queue(ctx),
            TAG_PS_WAKE if self.state == StaState::Associated => {
                ctx.command(Command::SetAwake(true));
                ctx.emit(
                    Level::Debug,
                    TraceEvent::PowerSave {
                        station: ctx.id as u32,
                        doze: false,
                    },
                );
            }
            TAG_JOIN_TIMEOUT => {
                let gen = tag >> 8;
                if gen == self.join_generation && self.state != StaState::Associated {
                    self.start_scan(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut UpperCtx, frame: &Frame, rssi: Dbm) {
        match frame.fc.subtype {
            Subtype::Beacon | Subtype::ProbeResp => {
                let Ok(body) = BeaconBody::decode(&frame.body) else {
                    return;
                };
                if body.ssid != self.cfg.ssid {
                    return;
                }
                let bssid = frame
                    .bssid()
                    .unwrap_or(frame.transmitter().unwrap_or(MacAddr::ZERO));
                match self.state {
                    StaState::Scanning => {
                        let better = self
                            .best
                            .as_ref()
                            .is_none_or(|b| rssi.value() > b.rssi.value());
                        if better {
                            self.best = Some(Candidate {
                                bssid,
                                channel: body.channel,
                                rssi,
                                interval_ms: body.interval_ms,
                            });
                        }
                    }
                    StaState::Associated => {
                        if Some(bssid) == self.bssid {
                            self.beacon_seen_since_watch = true;
                            self.beacons_heard += 1;
                            // Exponentially-smoothed serving RSSI.
                            self.current_rssi = if self.current_rssi.is_finite() {
                                0.8 * self.current_rssi + 0.2 * rssi.value()
                            } else {
                                rssi.value()
                            };
                            // Preemptive roaming: a persistently weak
                            // serving AP triggers a rescan while the
                            // link still works.
                            if self.current_rssi < self.cfg.rescan_below_dbm {
                                self.weak_beacons += 1;
                                if self.weak_beacons >= 3 {
                                    self.weak_beacons = 0;
                                    self.start_scan(ctx);
                                    return;
                                }
                            } else {
                                self.weak_beacons = 0;
                            }
                            // Power save: poll if the TIM lists us, else doze.
                            if self.cfg.power_save {
                                let aid = self.aid;
                                if body.tim.contains(&aid) {
                                    self.ps_polls += 1;
                                    ctx.command(Command::SetAwake(true));
                                    ctx.send(Frame::ps_poll(bssid, ctx.addr, aid));
                                } else {
                                    self.doze_until_next_beacon(ctx);
                                }
                            }
                        } else if rssi.value() > self.current_rssi + self.cfg.roam_hysteresis_db {
                            // A clearly stronger same-SSID AP: roam to it.
                            self.best = Some(Candidate {
                                bssid,
                                channel: body.channel,
                                rssi,
                                interval_ms: body.interval_ms,
                            });
                            ctx.emit(
                                Level::Info,
                                TraceEvent::Handoff {
                                    station: ctx.id as u32,
                                },
                            );
                            self.begin_join(ctx);
                        }
                    }
                    _ => {}
                }
            }
            Subtype::Auth => {
                if self.state != StaState::Authenticating {
                    return;
                }
                let Ok(body) = AuthBody::decode(&frame.body) else {
                    return;
                };
                let Some(serving) = &self.serving else {
                    return;
                };
                let bssid = serving.bssid;
                match (body.transaction, body.status) {
                    (2, 0) if body.algorithm == AuthAlgorithm::SharedKey => {
                        // Echo the challenge ("proving possession" §5.1;
                        // the real WEP encryption of the challenge is
                        // exercised in wn-security).
                        let mut expected = self.cfg.shared_key.clone();
                        expected.extend_from_slice(&ctx.addr.0);
                        let resp = AuthBody {
                            algorithm: AuthAlgorithm::SharedKey,
                            transaction: 3,
                            status: 0,
                            challenge: expected,
                        };
                        let f = Frame::management(
                            Subtype::Auth,
                            bssid,
                            ctx.addr,
                            bssid,
                            SequenceControl::default(),
                            resp.encode(),
                        );
                        ctx.send(f);
                    }
                    (2, 0) | (4, 0) => {
                        // Authenticated: associate.
                        self.state = StaState::Associating;
                        let req = AssocReqBody {
                            ssid: self.cfg.ssid.clone(),
                        };
                        let f = Frame::management(
                            Subtype::AssocReq,
                            bssid,
                            ctx.addr,
                            bssid,
                            SequenceControl::default(),
                            req.encode(),
                        );
                        ctx.send(f);
                    }
                    _ => {
                        // Refused — rescan later.
                        self.start_scan(ctx);
                    }
                }
            }
            Subtype::AssocResp | Subtype::ReassocResp => {
                if self.state != StaState::Associating {
                    return;
                }
                let Ok(body) = AssocRespBody::decode(&frame.body) else {
                    return;
                };
                if body.status != 0 {
                    self.start_scan(ctx);
                    return;
                }
                let bssid = self
                    .serving
                    .as_ref()
                    .map(|s| s.bssid)
                    .unwrap_or(MacAddr::ZERO);
                self.state = StaState::Associated;
                self.bssid = Some(bssid);
                self.aid = body.aid;
                self.assoc_events.push((ctx.now, bssid));
                ctx.emit(
                    Level::Info,
                    TraceEvent::Assoc {
                        station: ctx.id as u32,
                        aid: body.aid,
                    },
                );
                self.current_rssi = self
                    .serving
                    .as_ref()
                    .map(|s| s.rssi.value())
                    .unwrap_or(-70.0);
                self.beacons_missed = 0;
                self.beacon_seen_since_watch = true;
                let interval = self
                    .serving
                    .as_ref()
                    .map(|s| SimDuration::from_millis(s.interval_ms.max(10) as u64))
                    .unwrap_or(SimDuration::from_millis(100));
                ctx.set_timer(interval, TAG_WATCH);
                if self.cfg.power_save {
                    ctx.command(Command::SetPowerManagement(true));
                    // Announce power-save entry with a Null-Data frame so
                    // the AP starts buffering (§4.2 Power Management bit).
                    let mut null = Frame::data(
                        DsBits::ToAp,
                        bssid,
                        ctx.addr,
                        bssid,
                        SequenceControl::default(),
                        Vec::new(),
                    );
                    null.fc.subtype = Subtype::NullData;
                    ctx.send(null);
                }
                // Flush anything the application queued while joining.
                self.drain_app_queue(ctx);
            }
            Subtype::Data if frame.fc.from_ds => {
                let sa = frame.source().unwrap_or(MacAddr::ZERO);
                self.delivered.push((ctx.now, sa, frame.body.to_vec()));
                if self.cfg.power_save {
                    if frame.fc.more_data {
                        let bssid = self.bssid.unwrap_or(MacAddr::ZERO);
                        self.ps_polls += 1;
                        ctx.send(Frame::ps_poll(bssid, ctx.addr, self.aid));
                    } else {
                        self.doze_until_next_beacon(ctx);
                    }
                }
            }
            Subtype::Deauth | Subtype::Disassoc if self.state == StaState::Associated => {
                self.start_scan(ctx);
            }
            _ => {}
        }
    }

    fn on_tx_result(&mut self, _ctx: &mut UpperCtx, frame: &Frame, success: bool) {
        if frame.fc.subtype == Subtype::Data {
            if success {
                self.tx_ok += 1;
            } else {
                self.tx_fail += 1;
            }
        }
    }
}
