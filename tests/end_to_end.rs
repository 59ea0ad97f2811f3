//! Cross-crate integration tests: the full stack from crypto through
//! MAC to architecture, exercised together.

use wireless_networks::core::registry::Technology;
use wireless_networks::core::taxonomy::NetworkClass;
use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::sim::MacConfig;
use wireless_networks::net80211::builder::{EssBuilder, IbssBuilder};
use wireless_networks::net80211::ssid::Ssid;
use wireless_networks::net80211::sta::StaState;
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::security::handshake::{derive_ptk, run_handshake};
use wireless_networks::security::wpa2::CcmpSession;
use wireless_networks::sim::SimTime;

/// WPA2 end-to-end over the air: the 4-way handshake derives a PTK,
/// the application encrypts with CCMP, the ciphertext rides real data
/// frames through the DCF simulation via the AP, and the peer decrypts.
#[test]
fn wpa2_protected_payload_over_the_air() {
    let aa = MacAddr::access_point(0).bytes();
    let spa = MacAddr::station(0).bytes();
    let (ptk, hs) = run_handshake("Str0ng-Passphrase!", "SecureNet", aa, spa, [9; 32], [4; 32]);

    // Both ends derive the same keys from the public transcript + PMK.
    let pmk = wireless_networks::security::handshake::derive_pmk("Str0ng-Passphrase!", "SecureNet");
    let ptk2 = derive_ptk(&pmk, &hs.aa, &hs.spa, &hs.anonce, &hs.snonce);
    assert!(ptk == ptk2);

    // Build the infrastructure network.
    let ssid = Ssid::new("SecureNet").unwrap();
    let mut mac = MacConfig::new(PhyStandard::Dot11g);
    mac.seed = 77;
    let mut ess = EssBuilder::new(mac, ssid)
        .ap(Point::new(0.0, 0.0), 1)
        .sta(Point::new(6.0, 0.0))
        .sta(Point::new(-6.0, 0.0))
        .build();
    ess.sim.run_until(SimTime::from_secs(2));
    assert_eq!(ess.sta(0).state, StaState::Associated);

    // STA0 encrypts for STA1 with the session TK and ships ciphertext.
    let mut tx = CcmpSession::new(ptk.tk, spa);
    let secret = b"the meeting is at noon";
    let pkt = tx.encrypt(b"hdr", secret);
    let mut wire = pkt.pn.to_be_bytes().to_vec();
    wire.extend_from_slice(&pkt.ciphertext);

    ess.send_app_data(0, MacAddr::station(1), wire, SimTime::from_millis(2100));
    ess.sim.run_until(SimTime::from_secs(3));

    // STA1 receives the ciphertext through the AP and decrypts.
    let delivered = ess.sta(1).delivered.clone();
    assert_eq!(delivered.len(), 1);
    let body = &delivered[0].2;
    let pn = u64::from_be_bytes(body[..8].try_into().unwrap());
    let rx_pkt = wireless_networks::security::wpa2::CcmpPacket {
        pn,
        ciphertext: body[8..].to_vec(),
    };
    let mut rx = CcmpSession::new(ptk.tk, spa);
    assert_eq!(rx.decrypt(b"hdr", &rx_pkt).unwrap(), secret);
}

/// WPA/TKIP end-to-end over the air: per-packet keys and Michael MIC
/// protect payloads that ride the DCF simulation, and a replayed
/// capture is rejected by the receiver's TSC check.
#[test]
fn tkip_protected_payload_over_the_air() {
    use wireless_networks::security::wpa::{TkipError, TkipPacket, TkipSession};

    let aa = MacAddr::access_point(0).bytes();
    let spa = MacAddr::station(0).bytes();
    let (ptk, _hs) = run_handshake(
        "Sufficiently-Long-Pass",
        "TkipNet",
        aa,
        spa,
        [1; 32],
        [2; 32],
    );
    let da = MacAddr::station(1).bytes();

    let mut tx = TkipSession::new(ptk.tk, ptk.mic_tx, spa);
    let mut rx = TkipSession::new(ptk.tk, ptk.mic_tx, spa);

    let ssid = Ssid::new("TkipNet").unwrap();
    let mut mac = MacConfig::new(PhyStandard::Dot11g);
    mac.seed = 99;
    let mut ess = EssBuilder::new(mac, ssid)
        .ap(Point::new(0.0, 0.0), 1)
        .sta(Point::new(6.0, 0.0))
        .sta(Point::new(-6.0, 0.0))
        .build();
    ess.sim.run_until(SimTime::from_secs(2));

    // Two protected payloads cross the network.
    for (k, msg) in [b"first secret".as_slice(), b"second secret".as_slice()]
        .iter()
        .enumerate()
    {
        let pkt = tx.encrypt(&da, &spa, msg).expect("countermeasures off");
        let mut wire = pkt.tsc.to_be_bytes().to_vec();
        wire.extend_from_slice(&pkt.ciphertext);
        ess.send_app_data(
            0,
            MacAddr::station(1),
            wire,
            SimTime::from_millis(2100 + k as u64 * 50),
        );
    }
    ess.sim.run_until(SimTime::from_secs(3));

    let delivered = ess.sta(1).delivered.clone();
    assert_eq!(delivered.len(), 2);
    let mut plain = Vec::new();
    let mut packets = Vec::new();
    for (_, _, body) in &delivered {
        let tsc = u64::from_be_bytes(body[..8].try_into().unwrap());
        let pkt = TkipPacket {
            tsc,
            ciphertext: body[8..].to_vec(),
        };
        plain.push(rx.decrypt(&da, &spa, &pkt).expect("valid TKIP"));
        packets.push(pkt);
    }
    assert_eq!(plain[0], b"first secret");
    assert_eq!(plain[1], b"second secret");
    // An attacker replaying the captured first packet is refused.
    assert_eq!(rx.decrypt(&da, &spa, &packets[0]), Err(TkipError::Replay));
}

/// The same stations in ad hoc and infrastructure mode (§3.2): both
/// work, and the infrastructure run shows AP relay frames.
#[test]
fn both_architectures_carry_traffic() {
    let mut mac = MacConfig::new(PhyStandard::Dot11b);
    mac.seed = 3;

    let mut ibss = IbssBuilder::new(mac.clone())
        .node(Point::new(0.0, 0.0))
        .node(Point::new(15.0, 0.0))
        .build();
    ibss.send(
        0,
        MacAddr::station(1),
        b"adhoc".to_vec(),
        SimTime::from_millis(5),
    );
    ibss.sim.run_until(SimTime::from_secs(1));
    assert_eq!(ibss.node(1).delivered.len(), 1);

    let ssid = Ssid::new("Infra").unwrap();
    let mut ess = EssBuilder::new(mac, ssid)
        .ap(Point::new(7.0, 3.0), 1)
        .sta(Point::new(0.0, 0.0))
        .sta(Point::new(15.0, 0.0))
        .build();
    ess.sim.run_until(SimTime::from_secs(2));
    ess.send_app_data(
        0,
        MacAddr::station(1),
        b"infra".to_vec(),
        SimTime::from_millis(2100),
    );
    ess.sim.run_until(SimTime::from_secs(3));
    assert_eq!(ess.sta(1).delivered.len(), 1);
    assert!(
        ess.sim.world().stats(ess.ap_ids[0]).tx_frames > 0,
        "the AP relayed"
    );
}

/// Downlink from the wired LAN: a frame injected at the DS portal
/// reaches the wireless STA through its serving AP (§3.2: the AP
/// "convert[s] airwave data into wired Ethernet data" — and back).
#[test]
fn portal_injection_reaches_wireless_sta() {
    use wireless_networks::mac80211::sim::MacEvent;
    use wireless_networks::net80211::ap::TAG_DS;
    use wireless_networks::net80211::ds::DsFrame;

    let ssid = Ssid::new("Portal").unwrap();
    let mut mac = MacConfig::new(PhyStandard::Dot11g);
    mac.seed = 55;
    let mut ess = EssBuilder::new(mac, ssid)
        .ap(Point::new(0.0, 0.0), 1)
        .sta(Point::new(7.0, 0.0))
        .build();
    ess.sim.run_until(SimTime::from_secs(2));
    assert_eq!(ess.sta(0).state, StaState::Associated);

    // A wired host pushes a frame into the distribution system.
    let wired_host = MacAddr([0x00, 0x50, 0x56, 0x01, 0x02, 0x03]);
    let target_ap = ess
        .ds
        .lock()
        .expect("DS lock")
        .inject_from_portal(DsFrame {
            da: MacAddr::station(0),
            sa: wired_host,
            payload: b"web page bytes".to_vec(),
        })
        .expect("the STA is associated, so it has a serving AP");
    assert_eq!(target_ap, ess.ap_ids[0]);
    // The backbone interrupt wakes the AP's DS handler.
    ess.sim.scheduler_mut().schedule_at(
        SimTime::from_millis(2100),
        MacEvent::UpperTimer {
            station: target_ap,
            tag: TAG_DS,
        },
    );
    ess.sim.run_until(SimTime::from_secs(3));

    let delivered = ess.sta(0).delivered.clone();
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].1, wired_host, "SA preserved end to end");
    assert_eq!(delivered[0].2, b"web page bytes");
}

/// The registry's measured numbers stay consistent with the taxonomy.
#[test]
fn registry_and_taxonomy_agree() {
    for t in Technology::all() {
        let row = t.row();
        // A technology's measured range lands in (or below) its class.
        let class_of_range = NetworkClass::for_distance_m(row.measured_range_m.min(60_000.0));
        assert!(
            class_of_range <= row.class.max(NetworkClass::Wman),
            "{}: measured range {} m vs class {:?}",
            row.name,
            row.measured_range_m,
            row.class
        );
        assert!(row.measured_max_rate.bps() > 0.0);
    }
}

/// Full-stack determinism: two identical ESS runs produce identical
/// association histories and delivery logs.
#[test]
fn whole_stack_deterministic() {
    let run = || {
        let ssid = Ssid::new("Det").unwrap();
        let mut mac = MacConfig::new(PhyStandard::Dot11g);
        mac.seed = 1234;
        let mut ess = EssBuilder::new(mac, ssid)
            .ap(Point::new(0.0, 0.0), 1)
            .sta(Point::new(10.0, 0.0))
            .sta(Point::new(-10.0, 0.0))
            .build();
        ess.sim.run_until(SimTime::from_secs(2));
        for k in 0..10 {
            ess.send_app_data(
                0,
                MacAddr::station(1),
                vec![k as u8; 200],
                SimTime::from_millis(2000 + k * 17),
            );
        }
        ess.sim.run_until(SimTime::from_secs(4));
        let deliveries: Vec<(u64, Vec<u8>)> = ess
            .sta(1)
            .delivered
            .iter()
            .map(|(t, _, b)| (t.as_nanos(), b.clone()))
            .collect();
        let assoc: Vec<u64> = ess
            .sta(0)
            .assoc_events
            .iter()
            .map(|(t, _)| t.as_nanos())
            .collect();
        (deliveries, assoc, ess.sim.processed())
    };
    assert_eq!(run(), run());
}

/// The security stack protects the exact frame bytes the MAC produces:
/// WEP-encrypt a serialised frame body, corrupt it in "flight", and
/// confirm layered failures are distinguishable.
#[test]
fn wep_protected_frame_lifecycle() {
    use wireless_networks::mac80211::frame::{DsBits, Frame, SequenceControl};
    use wireless_networks::security::wep::{decrypt, encrypt, WepKey};

    let key = WepKey::new(b"integ");
    let key = match key {
        Ok(_) => WepKey::new(b"12345").unwrap(),
        Err(_) => WepKey::new(b"12345").unwrap(),
    };
    let mut frame = Frame::data(
        DsBits::ToAp,
        MacAddr::station(2),
        MacAddr::station(1),
        MacAddr::access_point(0),
        SequenceControl::default(),
        b"upper-layer payload".to_vec(),
    );
    // Encrypt the body, set the Protected bit (§4.2 WEP subfield).
    let wep = encrypt(&key, [1, 2, 3], &frame.body);
    let mut body = vec![wep.iv[0], wep.iv[1], wep.iv[2], wep.key_id];
    body.extend_from_slice(&wep.ciphertext);
    frame.body = body.into();
    frame.fc.protected = true;

    // Over the wire (FCS protects the whole MAC frame).
    let wire = frame.to_bytes();
    let parsed = Frame::from_bytes(&wire).expect("clean frame parses");
    assert!(parsed.fc.protected);

    // Receiver strips the WEP header and decrypts.
    let rx = wireless_networks::security::wep::WepFrame {
        iv: [parsed.body[0], parsed.body[1], parsed.body[2]],
        key_id: parsed.body[3],
        ciphertext: parsed.body[4..].to_vec(),
    };
    assert_eq!(decrypt(&key, &rx).unwrap(), b"upper-layer payload");

    // Channel corruption is caught by the FCS before WEP even runs.
    let mut corrupted = wire.clone();
    corrupted[30] ^= 0x40;
    assert!(Frame::from_bytes(&corrupted).is_err());
}
