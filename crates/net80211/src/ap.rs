//! The access point — "a bridge between the wireless STAs and the
//! existing network backbone" (§3.1).
//!
//! The AP [`UpperLayer`] implements:
//!
//! - periodic beacons carrying the SSID, channel and TIM;
//! - Open System and Shared Key authentication (§5.1);
//! - association/reassociation with AID assignment;
//! - bridging: ToDS frames are relayed to local STAs, across the
//!   distribution system to other APs, or out of the portal;
//! - power-save buffering (§4.2): frames for dozing STAs are held,
//!   advertised in the TIM, and released one per PS-Poll with the
//!   More Data bit set while more remain.

use std::collections::{HashMap, VecDeque};

use crate::ds::{DsFrame, DsHandle};
use crate::ie::{AssocReqBody, AssocRespBody, AuthAlgorithm, AuthBody, BeaconBody};
use crate::ssid::Ssid;
use wn_mac80211::addr::MacAddr;
use wn_mac80211::frame::{DsBits, Frame, SequenceControl, Subtype};
use wn_mac80211::sim::{Command, UpperCtx, UpperLayer};
use wn_phy::units::Dbm;
use wn_sim::trace::{Level, TraceEvent};
use wn_sim::{SimDuration, SimTime};

/// Timer tag: emit the next beacon.
pub const TAG_BEACON: u64 = 1;
/// Timer tag: the distribution system has frames for this AP.
pub const TAG_DS: u64 = 2;

/// Highest association ID the standard allows (the TIM partial
/// virtual bitmap addresses 2008 stations, AIDs 1–2007). APs assign
/// AIDs from 1 upward; invariant oracles check every observed
/// [`TraceEvent::Assoc`] falls in `1..=MAX_AID`.
pub const MAX_AID: u16 = 2007;

/// AP configuration.
#[derive(Clone, Debug)]
pub struct ApConfig {
    /// The network name advertised in beacons.
    pub ssid: Ssid,
    /// Operating channel.
    pub channel: u8,
    /// Beacon interval (classically ~100 ms).
    pub beacon_interval: SimDuration,
    /// Per-STA power-save buffer depth.
    pub ps_buffer_limit: usize,
    /// Authentication algorithm required.
    pub auth: AuthAlgorithm,
    /// Shared-key challenge secret (Shared Key auth only).
    pub shared_key: Vec<u8>,
}

impl ApConfig {
    /// A default open-authentication AP on the given channel.
    pub fn open(ssid: Ssid, channel: u8) -> Self {
        ApConfig {
            ssid,
            channel,
            beacon_interval: SimDuration::from_millis(100),
            ps_buffer_limit: 16,
            auth: AuthAlgorithm::OpenSystem,
            shared_key: Vec::new(),
        }
    }

    /// Checks the fields an AP cannot run with; the error names the
    /// offending field. [`EssBuilder::try_build`] returns it. A zero
    /// `beacon_interval` would re-arm the beacon timer at the same
    /// instant forever.
    ///
    /// [`EssBuilder::try_build`]: crate::builder::EssBuilder::try_build
    pub fn validate(&self) -> Result<(), String> {
        if self.beacon_interval == SimDuration::ZERO {
            return Err("beacon_interval must be > 0".into());
        }
        Ok(())
    }
}

#[derive(Debug)]
struct StaEntry {
    aid: u16,
    power_save: bool,
    buffered: VecDeque<(MacAddr, Vec<u8>)>,
}

/// The AP upper-layer logic. The public fields are its observable
/// state; read them back through the world
/// ([`WlanWorld::upper`](wn_mac80211::sim::WlanWorld::upper), or
/// [`Ess::ap`](crate::builder::Ess::ap)).
#[derive(Debug)]
pub struct ApLogic {
    /// (time, STA) association log.
    pub associations: Vec<(SimTime, MacAddr)>,
    /// (time, STA) disassociation log.
    pub disassociations: Vec<(SimTime, MacAddr)>,
    /// Frames bridged STA→STA locally.
    pub bridged_local: u64,
    /// Frames sent into the distribution system.
    pub to_ds: u64,
    /// Frames delivered out of the DS to local STAs.
    pub from_ds: u64,
    /// Frames that left via the portal because no wireless STA matched.
    pub to_portal: u64,
    /// Frames buffered for power-saving STAs.
    pub ps_buffered: u64,
    /// Beacons transmitted.
    pub beacons: u64,
    cfg: ApConfig,
    ds: Option<DsHandle>,
    stas: HashMap<MacAddr, StaEntry>,
    pending_challenges: HashMap<MacAddr, Vec<u8>>,
    next_aid: u16,
}

impl ApLogic {
    /// Creates an AP; `ds` is `None` for a standalone BSS.
    pub fn new(cfg: ApConfig, ds: Option<DsHandle>) -> Self {
        ApLogic {
            associations: Vec::new(),
            disassociations: Vec::new(),
            bridged_local: 0,
            to_ds: 0,
            from_ds: 0,
            to_portal: 0,
            ps_buffered: 0,
            beacons: 0,
            cfg,
            ds,
            stas: HashMap::new(),
            pending_challenges: HashMap::new(),
            next_aid: 1,
        }
    }

    fn beacon_body(&self) -> BeaconBody {
        let tim: Vec<u16> = self
            .stas
            .values()
            .filter(|e| e.power_save && !e.buffered.is_empty())
            .map(|e| e.aid)
            .collect();
        BeaconBody {
            ssid: self.cfg.ssid.clone(),
            interval_ms: self.cfg.beacon_interval.as_millis_f64() as u16,
            channel: self.cfg.channel,
            tim,
        }
    }

    fn send_downlink(&mut self, ctx: &mut UpperCtx, da: MacAddr, sa: MacAddr, payload: Vec<u8>) {
        // Power-save buffering: hold frames for dozing STAs.
        if let Some(entry) = self.stas.get_mut(&da) {
            if entry.power_save {
                if entry.buffered.len() < self.cfg.ps_buffer_limit {
                    entry.buffered.push_back((sa, payload));
                    self.ps_buffered += 1;
                }
                return;
            }
        }
        let f = Frame::data(
            DsBits::FromAp,
            da,
            sa,
            ctx.addr,
            SequenceControl::default(),
            payload,
        );
        ctx.send(f);
    }

    fn handle_to_ds_data(&mut self, ctx: &mut UpperCtx, frame: &Frame) {
        let da = frame.destination();
        let sa = frame.source().unwrap_or(MacAddr::ZERO);
        let payload = frame.body.to_vec();
        if da.is_group() {
            // Rebroadcast locally and flood the backbone.
            let f = Frame::data(
                DsBits::FromAp,
                da,
                sa,
                ctx.addr,
                SequenceControl::default(),
                payload.clone(),
            );
            ctx.send(f);
            if let Some(ds) = &self.ds {
                let (latency, targets) = {
                    let mut ds = ds.lock().expect("DS lock");
                    let targets = ds.route_broadcast(ctx.now, ctx.id, DsFrame { da, sa, payload });
                    (ds.wire_latency, targets)
                };
                self.to_ds += 1;
                for ap in targets {
                    ctx.command(Command::SignalStation {
                        station: ap,
                        tag: TAG_DS,
                        delay: latency,
                    });
                }
            }
            return;
        }
        if self.stas.contains_key(&da) {
            self.bridged_local += 1;
            self.send_downlink(ctx, da, sa, payload);
            return;
        }
        match &self.ds {
            Some(ds) => {
                let (latency, target) = {
                    let mut ds = ds.lock().expect("DS lock");
                    let target = ds.route(ctx.now, ctx.id, DsFrame { da, sa, payload });
                    (ds.wire_latency, target)
                };
                match target {
                    Some(ap) => {
                        self.to_ds += 1;
                        ctx.command(Command::SignalStation {
                            station: ap,
                            tag: TAG_DS,
                            delay: latency,
                        });
                    }
                    None => {
                        self.to_portal += 1;
                    }
                }
            }
            None => {
                // No backbone: unknown destinations "leave" via the
                // AP's own uplink.
                self.to_portal += 1;
            }
        }
    }

    fn update_ps(&mut self, sta: MacAddr, ps: bool) {
        if let Some(e) = self.stas.get_mut(&sta) {
            e.power_save = ps;
        }
    }
}

impl UpperLayer for ApLogic {
    fn on_start(&mut self, ctx: &mut UpperCtx) {
        ctx.command(Command::SetChannel(self.cfg.channel));
        ctx.set_timer(self.cfg.beacon_interval, TAG_BEACON);
    }

    fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
        match tag {
            TAG_BEACON => {
                let body = self.beacon_body().encode();
                let f = Frame::management(
                    Subtype::Beacon,
                    MacAddr::BROADCAST,
                    ctx.addr,
                    ctx.addr,
                    SequenceControl::default(),
                    body,
                );
                ctx.send(f);
                self.beacons += 1;
                ctx.set_timer(self.cfg.beacon_interval, TAG_BEACON);
            }
            TAG_DS => {
                let frames = match &self.ds {
                    Some(ds) => ds.lock().expect("DS lock").drain(ctx.id),
                    None => Vec::new(),
                };
                for df in frames {
                    self.from_ds += 1;
                    if df.da.is_group() {
                        let f = Frame::data(
                            DsBits::FromAp,
                            df.da,
                            df.sa,
                            ctx.addr,
                            SequenceControl::default(),
                            df.payload,
                        );
                        ctx.send(f);
                    } else {
                        self.send_downlink(ctx, df.da, df.sa, df.payload);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut UpperCtx, frame: &Frame, _rssi: Dbm) {
        let from = frame.transmitter().unwrap_or(MacAddr::ZERO);
        // Track the §4.2 Power Management bit on every received frame.
        self.update_ps(from, frame.fc.power_management);

        match frame.fc.subtype {
            Subtype::Auth => {
                let Ok(req) = AuthBody::decode(&frame.body) else {
                    return;
                };
                let reply = |transaction: u16, status: u16, challenge: Vec<u8>| AuthBody {
                    algorithm: req.algorithm,
                    transaction,
                    status,
                    challenge,
                };
                let body = match (req.algorithm, req.transaction, &self.cfg.auth) {
                    (AuthAlgorithm::OpenSystem, 1, AuthAlgorithm::OpenSystem) => {
                        reply(2, 0, Vec::new())
                    }
                    (AuthAlgorithm::OpenSystem, 1, AuthAlgorithm::SharedKey) => {
                        // §5.1: authentication "based on demonstrating
                        // knowledge of a shared secret" — open auth is
                        // refused when a key is required.
                        reply(2, 13, Vec::new())
                    }
                    (AuthAlgorithm::SharedKey, 1, AuthAlgorithm::SharedKey) => {
                        // Issue a challenge derived from our key + STA.
                        let mut ch = self.cfg.shared_key.clone();
                        ch.extend_from_slice(&from.0);
                        self.pending_challenges.insert(from, ch.clone());
                        reply(2, 0, ch)
                    }
                    (AuthAlgorithm::SharedKey, 3, AuthAlgorithm::SharedKey) => {
                        let ok = self.pending_challenges.remove(&from).as_deref()
                            == Some(&req.challenge[..]);
                        reply(4, if ok { 0 } else { 15 }, Vec::new())
                    }
                    _ => reply(2, 13, Vec::new()),
                };
                let f = Frame::management(
                    Subtype::Auth,
                    from,
                    ctx.addr,
                    ctx.addr,
                    SequenceControl::default(),
                    body.encode(),
                );
                ctx.send(f);
            }
            Subtype::AssocReq | Subtype::ReassocReq => {
                let status_aid = match AssocReqBody::decode(&frame.body) {
                    Ok(req) if req.ssid == self.cfg.ssid => {
                        let aid = match self.stas.get(&from) {
                            Some(e) => e.aid,
                            None => {
                                let aid = self.next_aid;
                                self.next_aid += 1;
                                self.stas.insert(
                                    from,
                                    StaEntry {
                                        aid,
                                        power_save: false,
                                        buffered: VecDeque::new(),
                                    },
                                );
                                aid
                            }
                        };
                        if let Some(ds) = &self.ds {
                            ds.lock().expect("DS lock").associate(from, ctx.id);
                        }
                        self.associations.push((ctx.now, from));
                        ctx.emit(
                            Level::Info,
                            TraceEvent::Assoc {
                                station: ctx.id as u32,
                                aid,
                            },
                        );
                        (0u16, aid)
                    }
                    _ => (1u16, 0),
                };
                let resp = AssocRespBody {
                    status: status_aid.0,
                    aid: status_aid.1,
                };
                let sub = if frame.fc.subtype == Subtype::AssocReq {
                    Subtype::AssocResp
                } else {
                    Subtype::ReassocResp
                };
                let f = Frame::management(
                    sub,
                    from,
                    ctx.addr,
                    ctx.addr,
                    SequenceControl::default(),
                    resp.encode(),
                );
                ctx.send(f);
            }
            Subtype::Disassoc | Subtype::Deauth => {
                self.stas.remove(&from);
                if let Some(ds) = &self.ds {
                    ds.lock().expect("DS lock").disassociate(from);
                }
                self.disassociations.push((ctx.now, from));
            }
            Subtype::ProbeReq => {
                let f = Frame::management(
                    Subtype::ProbeResp,
                    from,
                    ctx.addr,
                    ctx.addr,
                    SequenceControl::default(),
                    self.beacon_body().encode(),
                );
                ctx.send(f);
            }
            Subtype::PsPoll => {
                // Release one buffered frame; More Data while more wait.
                let Some(entry) = self.stas.get_mut(&from) else {
                    return;
                };
                if let Some((sa, payload)) = entry.buffered.pop_front() {
                    let more = !entry.buffered.is_empty();
                    let mut f = Frame::data(
                        DsBits::FromAp,
                        from,
                        sa,
                        ctx.addr,
                        SequenceControl::default(),
                        payload,
                    );
                    f.fc.more_data = more;
                    ctx.send(f);
                }
            }
            Subtype::Data if frame.fc.to_ds && self.stas.contains_key(&from) => {
                self.handle_to_ds_data(ctx, frame);
            }
            Subtype::NullData => {
                // Pure power-management signalling; PS bit already noted.
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_body_contains_tim_only_for_buffered_ps_stas() {
        let mut ap = ApLogic::new(ApConfig::open(Ssid::new("N").unwrap(), 1), None);
        ap.stas.insert(
            MacAddr::station(1),
            StaEntry {
                aid: 1,
                power_save: true,
                buffered: VecDeque::new(),
            },
        );
        let mut buffered = VecDeque::new();
        buffered.push_back((MacAddr::station(9), vec![1]));
        ap.stas.insert(
            MacAddr::station(2),
            StaEntry {
                aid: 2,
                power_save: true,
                buffered,
            },
        );
        ap.stas.insert(
            MacAddr::station(3),
            StaEntry {
                aid: 3,
                power_save: false,
                buffered: VecDeque::from([(MacAddr::station(9), vec![2])]),
            },
        );
        let tim = ap.beacon_body().tim;
        assert_eq!(
            tim,
            vec![2],
            "only PS STAs with buffered frames appear in the TIM"
        );
    }
}
