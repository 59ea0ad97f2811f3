//! The distribution system (DS).
//!
//! §3.1: "A distribution system (DS) is the mechanism by which APs
//! exchange frames with one another and with wired networks … In nearly
//! all commercial products, wired Ethernet is used as the backbone
//! network technology." This module models exactly that: a wired
//! mailbox fabric connecting the APs of an ESS, plus a *portal* to the
//! wired LAN (frames whose destination is not any wireless STA leave
//! through the portal, and wired hosts can inject frames back in).

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

use wn_mac80211::addr::MacAddr;
use wn_mac80211::sim::StationId;
use wn_sim::{SimDuration, SimTime};

/// An 802.3-ish frame travelling on the backbone.
#[derive(Clone, Debug, PartialEq)]
pub struct DsFrame {
    /// Final destination.
    pub da: MacAddr,
    /// Original source.
    pub sa: MacAddr,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// The shared state of one ESS's distribution system.
#[derive(Debug, Default)]
pub struct DistributionSystem {
    /// Which AP (by station id) currently serves each STA — updated on
    /// (re)association, which is how the ESS "appears as a single BSS …
    /// at any station" (§3.1).
    association: HashMap<MacAddr, StationId>,
    /// Pending backbone frames per AP.
    mailboxes: HashMap<StationId, Vec<DsFrame>>,
    /// Frames that left the wireless network through the portal.
    portal_out: Vec<(SimTime, DsFrame)>,
    /// Ethernet latency between any two backbone ports.
    pub wire_latency: SimDuration,
}

/// A cheap cloneable handle to a [`DistributionSystem`]. Every AP of an
/// ESS routes through the same one, so it is net80211's only shared
/// state.
pub type DsHandle = Arc<Mutex<DistributionSystem>>;

/// Creates a fresh DS handle with the given wire latency.
pub fn new_ds(wire_latency: SimDuration) -> DsHandle {
    Arc::new(Mutex::new(DistributionSystem {
        wire_latency,
        ..DistributionSystem::default()
    }))
}

impl DistributionSystem {
    /// Registers (or moves) a STA's serving AP. Returns the previous
    /// serving AP if this was a roam.
    pub fn associate(&mut self, sta: MacAddr, ap: StationId) -> Option<StationId> {
        let prev = self.association.insert(sta, ap);
        prev.filter(|&p| p != ap)
    }

    /// Removes a STA (disassociation).
    pub fn disassociate(&mut self, sta: MacAddr) {
        self.association.remove(&sta);
    }

    /// The AP currently serving `sta`, if any.
    pub fn serving_ap(&self, sta: MacAddr) -> Option<StationId> {
        self.association.get(&sta).copied()
    }

    /// Number of STAs registered across the ESS.
    pub fn station_count(&self) -> usize {
        self.association.len()
    }

    /// Routes a frame entering the DS from AP `from`.
    ///
    /// Returns the AP that must be signalled (its mailbox now has the
    /// frame), or `None` when the frame left through the portal or was
    /// consumed. Broadcast fans out to every other AP (all are returned
    /// via the `broadcast_targets` path instead — use
    /// [`DistributionSystem::route_broadcast`]).
    pub fn route(&mut self, now: SimTime, from: StationId, frame: DsFrame) -> Option<StationId> {
        match self.association.get(&frame.da) {
            Some(&ap) if ap != from => {
                self.mailboxes.entry(ap).or_default().push(frame);
                Some(ap)
            }
            Some(_) => None, // Destination is on the originating AP; it handles it locally.
            None => {
                // Unknown wireless destination ⇒ exits via the portal to
                // the wired LAN (§3.2: the AP "convert[s] airwave data
                // into wired Ethernet data").
                self.portal_out.push((now, frame));
                None
            }
        }
    }

    /// Routes a broadcast: copies into every other AP's mailbox and the
    /// portal; returns the APs to signal.
    pub fn route_broadcast(
        &mut self,
        now: SimTime,
        from: StationId,
        frame: DsFrame,
    ) -> Vec<StationId> {
        let mut targets: Vec<StationId> = self
            .association
            .values()
            .copied()
            .filter(|&ap| ap != from)
            .collect();
        targets.sort_unstable();
        targets.dedup();
        for &ap in &targets {
            self.mailboxes.entry(ap).or_default().push(frame.clone());
        }
        self.portal_out.push((now, frame));
        targets
    }

    /// Injects a frame from the wired LAN toward a wireless STA;
    /// returns the serving AP to signal, or `None` if the STA is
    /// unknown.
    pub fn inject_from_portal(&mut self, frame: DsFrame) -> Option<StationId> {
        let ap = self.association.get(&frame.da).copied()?;
        self.mailboxes.entry(ap).or_default().push(frame);
        Some(ap)
    }

    /// Drains the mailbox of `ap`.
    pub fn drain(&mut self, ap: StationId) -> Vec<DsFrame> {
        self.mailboxes.remove(&ap).unwrap_or_default()
    }

    /// Frames delivered to the wired LAN so far.
    pub fn portal_frames(&self) -> &[(SimTime, DsFrame)] {
        &self.portal_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(da: u32, sa: u32) -> DsFrame {
        DsFrame {
            da: MacAddr::station(da),
            sa: MacAddr::station(sa),
            payload: vec![1, 2, 3],
        }
    }

    #[test]
    fn routes_between_aps() {
        let mut ds = DistributionSystem::default();
        ds.associate(MacAddr::station(1), 10);
        ds.associate(MacAddr::station(2), 20);
        // STA1 (on AP10) → STA2 (on AP20).
        let target = ds.route(SimTime::ZERO, 10, f(2, 1));
        assert_eq!(target, Some(20));
        assert_eq!(ds.drain(20), vec![f(2, 1)]);
        assert!(ds.drain(20).is_empty(), "drain empties the mailbox");
    }

    #[test]
    fn same_ap_destination_not_mailboxed() {
        let mut ds = DistributionSystem::default();
        ds.associate(MacAddr::station(1), 10);
        ds.associate(MacAddr::station(2), 10);
        assert_eq!(ds.route(SimTime::ZERO, 10, f(2, 1)), None);
        assert!(ds.drain(10).is_empty());
    }

    #[test]
    fn unknown_destination_exits_portal() {
        let mut ds = DistributionSystem::default();
        ds.associate(MacAddr::station(1), 10);
        let wired_host = DsFrame {
            da: MacAddr([0x00, 0x11, 0x22, 0x33, 0x44, 0x55]),
            sa: MacAddr::station(1),
            payload: b"to the internet".to_vec(),
        };
        assert_eq!(
            ds.route(SimTime::from_secs(1), 10, wired_host.clone()),
            None
        );
        assert_eq!(ds.portal_frames().len(), 1);
        assert_eq!(ds.portal_frames()[0].1, wired_host);
    }

    #[test]
    fn portal_injection_reaches_serving_ap() {
        let mut ds = DistributionSystem::default();
        ds.associate(MacAddr::station(7), 30);
        let down = DsFrame {
            da: MacAddr::station(7),
            sa: MacAddr([0x00, 1, 2, 3, 4, 5]),
            payload: b"web page".to_vec(),
        };
        assert_eq!(ds.inject_from_portal(down.clone()), Some(30));
        assert_eq!(ds.drain(30), vec![down]);
        // Unknown STA: nowhere to go.
        assert_eq!(ds.inject_from_portal(f(99, 1)), None);
    }

    #[test]
    fn roaming_moves_association() {
        // Fig. 1.10: the STA moves from AP A to AP B; the DS must
        // subsequently deliver via B.
        let mut ds = DistributionSystem::default();
        assert_eq!(ds.associate(MacAddr::station(1), 10), None);
        let prev = ds.associate(MacAddr::station(1), 20);
        assert_eq!(prev, Some(10), "roam reports the old AP");
        assert_eq!(ds.serving_ap(MacAddr::station(1)), Some(20));
        assert_eq!(ds.route(SimTime::ZERO, 30, f(1, 9)), Some(20));
    }

    #[test]
    fn reassociation_to_same_ap_is_not_a_roam() {
        let mut ds = DistributionSystem::default();
        ds.associate(MacAddr::station(1), 10);
        assert_eq!(ds.associate(MacAddr::station(1), 10), None);
    }

    #[test]
    fn broadcast_fans_out() {
        let mut ds = DistributionSystem::default();
        ds.associate(MacAddr::station(1), 10);
        ds.associate(MacAddr::station(2), 20);
        ds.associate(MacAddr::station(3), 30);
        ds.associate(MacAddr::station(4), 20);
        let bc = DsFrame {
            da: MacAddr::BROADCAST,
            sa: MacAddr::station(1),
            payload: vec![9],
        };
        let mut targets = ds.route_broadcast(SimTime::ZERO, 10, bc);
        targets.sort_unstable();
        assert_eq!(targets, vec![20, 30], "every other AP exactly once");
        assert_eq!(ds.drain(20).len(), 1);
        assert_eq!(ds.drain(30).len(), 1);
        assert_eq!(
            ds.portal_frames().len(),
            1,
            "broadcast also exits the portal"
        );
    }

    #[test]
    fn disassociate_removes() {
        let mut ds = DistributionSystem::default();
        ds.associate(MacAddr::station(1), 10);
        ds.disassociate(MacAddr::station(1));
        assert_eq!(ds.serving_ap(MacAddr::station(1)), None);
        assert_eq!(ds.station_count(), 0);
    }
}
