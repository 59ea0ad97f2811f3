//! Characterization of the JSONL exporters: the exact bytes
//! `Trace::to_jsonl` and `MetricsSnapshot::to_jsonl` write for every
//! trace-event variant, every string escape, the float edge cases and
//! every metric instrument kind. Every trace and metrics digest in the
//! workspace is an FNV-1a over these bytes, so any change to them moves
//! the goldens; these tests say which byte moved.

use wn_sim::trace::{DropReason, FrameKind, Level, Trace, TraceEvent};
use wn_sim::{MetricsRegistry, SimTime};

/// One instance of every `TraceEvent` variant, each with the JSON
/// fields it must render to (after `"exp"`, `"at_ns"`, `"level"` and
/// `"tag"`). The float fields cover a fraction, NaN and both
/// infinities (`null`), negative zero, a value `Display` writes as 22
/// digits and one it writes with leading zeros.
fn every_variant() -> Vec<(TraceEvent, &'static str)> {
    vec![
        (
            TraceEvent::Tx {
                station: 0,
                kind: FrameKind::AssocReq,
                len: 0,
                rate_mbps: 5.5,
            },
            r#""type":"tx","station":0,"kind":"AssocReq","len":0,"rate_mbps":5.5"#,
        ),
        (
            TraceEvent::Tx {
                station: u32::MAX,
                kind: FrameKind::QosData,
                len: u32::MAX,
                rate_mbps: f64::NAN,
            },
            r#""type":"tx","station":4294967295,"kind":"QosData","len":4294967295,"rate_mbps":null"#,
        ),
        (
            TraceEvent::Tx {
                station: 1,
                kind: FrameKind::Beacon,
                len: 60,
                rate_mbps: 1e21,
            },
            r#""type":"tx","station":1,"kind":"Beacon","len":60,"rate_mbps":1000000000000000000000"#,
        ),
        (
            TraceEvent::Rx {
                station: 2,
                kind: FrameKind::Data,
                len: 1534,
                rssi_dbm: -61.25,
            },
            r#""type":"rx","station":2,"kind":"Data","len":1534,"rssi_dbm":-61.25"#,
        ),
        (
            TraceEvent::Rx {
                station: 2,
                kind: FrameKind::Ack,
                len: 14,
                rssi_dbm: -0.0,
            },
            r#""type":"rx","station":2,"kind":"Ack","len":14,"rssi_dbm":-0"#,
        ),
        (
            TraceEvent::Rx {
                station: 2,
                kind: FrameKind::BlockAck,
                len: 32,
                rssi_dbm: f64::NEG_INFINITY,
            },
            r#""type":"rx","station":2,"kind":"BlockAck","len":32,"rssi_dbm":null"#,
        ),
        (
            TraceEvent::Rx {
                station: 2,
                kind: FrameKind::Other,
                len: 1,
                rssi_dbm: f64::INFINITY,
            },
            r#""type":"rx","station":2,"kind":"Other","len":1,"rssi_dbm":null"#,
        ),
        (
            TraceEvent::Rx {
                station: 2,
                kind: FrameKind::ProbeResp,
                len: 99,
                rssi_dbm: -1.5e-7,
            },
            r#""type":"rx","station":2,"kind":"ProbeResp","len":99,"rssi_dbm":-0.00000015"#,
        ),
        (
            TraceEvent::Drop {
                station: 3,
                kind: FrameKind::NullData,
                reason: DropReason::QueueFull,
            },
            r#""type":"drop","station":3,"kind":"NullData","reason":"QueueFull""#,
        ),
        (
            TraceEvent::Drop {
                station: 3,
                kind: FrameKind::Rts,
                reason: DropReason::RetryLimit,
            },
            r#""type":"drop","station":3,"kind":"Rts","reason":"RetryLimit""#,
        ),
        (
            TraceEvent::Drop {
                station: 3,
                kind: FrameKind::Cts,
                reason: DropReason::NoRoute,
            },
            r#""type":"drop","station":3,"kind":"Cts","reason":"NoRoute""#,
        ),
        (
            TraceEvent::Drop {
                station: 3,
                kind: FrameKind::PsPoll,
                reason: DropReason::Collision,
            },
            r#""type":"drop","station":3,"kind":"PsPoll","reason":"Collision""#,
        ),
        (
            TraceEvent::Drop {
                station: 3,
                kind: FrameKind::BlockAckReq,
                reason: DropReason::HopLimit,
            },
            r#""type":"drop","station":3,"kind":"BlockAckReq","reason":"HopLimit""#,
        ),
        (
            TraceEvent::Drop {
                station: 3,
                kind: FrameKind::Atim,
                reason: DropReason::Oversize,
            },
            r#""type":"drop","station":3,"kind":"Atim","reason":"Oversize""#,
        ),
        (
            TraceEvent::Backoff {
                station: 4,
                slots: 7,
                cw: 31,
            },
            r#""type":"backoff","station":4,"slots":7,"cw":31"#,
        ),
        (
            TraceEvent::Nav {
                station: 5,
                until_us: u64::MAX,
            },
            r#""type":"nav","station":5,"until_us":18446744073709551615"#,
        ),
        (
            TraceEvent::Retry {
                station: 6,
                short: 2,
                long: 0,
            },
            r#""type":"retry","station":6,"short":2,"long":0"#,
        ),
        (
            TraceEvent::TxOutcome {
                station: 7,
                ok: false,
            },
            r#""type":"tx_outcome","station":7,"ok":false"#,
        ),
        (
            TraceEvent::Assoc {
                station: 8,
                aid: u16::MAX,
            },
            r#""type":"assoc","station":8,"aid":65535"#,
        ),
        (
            TraceEvent::Handoff { station: 9 },
            r#""type":"handoff","station":9"#,
        ),
        (
            TraceEvent::PowerSave {
                station: 10,
                doze: true,
            },
            r#""type":"power_save","station":10,"doze":true"#,
        ),
        (
            TraceEvent::Join {
                station: 11,
                parent: 0,
            },
            r#""type":"join","station":11,"parent":0"#,
        ),
        (
            TraceEvent::Poll {
                station: 12,
                peer: 13,
                slots: 2,
            },
            r#""type":"poll","station":12,"peer":13,"slots":2"#,
        ),
        (
            TraceEvent::Grant {
                station: 14,
                bytes: 4096,
                uplink: false,
            },
            r#""type":"grant","station":14,"bytes":4096,"uplink":false"#,
        ),
        (
            TraceEvent::Deliver {
                station: 15,
                bytes: 512,
                hops: 3,
            },
            r#""type":"deliver","station":15,"bytes":512,"hops":3"#,
        ),
        (
            TraceEvent::Forward {
                station: 16,
                dst: 17,
                hops: 1,
            },
            r#""type":"forward","station":16,"dst":17,"hops":1"#,
        ),
        (
            TraceEvent::Crack {
                station: 18,
                method: "k\"o\\rek",
                ok: true,
            },
            r#""type":"crack","station":18,"method":"k\"o\\rek","ok":true"#,
        ),
        (
            TraceEvent::EdcaBackoff {
                station: 19,
                ac: 1,
                slots: 5,
                cw: 15,
            },
            r#""type":"edca_backoff","station":19,"ac":1,"slots":5,"cw":15"#,
        ),
        (
            TraceEvent::AmpduTx {
                station: 20,
                ac: 2,
                ssn: 4095,
                bitmap: u64::MAX,
            },
            r#""type":"ampdu_tx","station":20,"ac":2,"ssn":4095,"bitmap":18446744073709551615"#,
        ),
        (
            TraceEvent::BlockAckRx {
                station: 21,
                ac: 0,
                ssn: 7,
                bitmap: 0x5,
            },
            r#""type":"block_ack_rx","station":21,"ac":0,"ssn":7,"bitmap":5"#,
        ),
        (
            TraceEvent::MpduDrop {
                station: 22,
                ac: 3,
                seq: 9,
            },
            r#""type":"mpdu_drop","station":22,"ac":3,"seq":9"#,
        ),
    ]
}

#[test]
fn every_trace_event_variant_renders_its_pinned_bytes() {
    let cases = every_variant();
    let mut tr = Trace::new(cases.len());
    for (i, (e, _)) in cases.iter().enumerate() {
        tr.event(
            SimTime::from_nanos(i as u64 * 1_001),
            Level::Debug,
            "mac",
            *e,
        );
    }
    let want: String = cases
        .iter()
        .enumerate()
        .map(|(i, (_, fields))| {
            format!(
                "{{\"exp\":\"X-1\",\"at_ns\":{},\"level\":\"debug\",\"tag\":\"mac\",{fields}}}\n",
                i as u64 * 1_001
            )
        })
        .collect();
    assert_eq!(tr.to_jsonl("X-1"), want);
}

#[test]
fn every_frame_kind_renders_its_variant_name() {
    let kinds = [
        (FrameKind::AssocReq, "AssocReq"),
        (FrameKind::AssocResp, "AssocResp"),
        (FrameKind::ReassocReq, "ReassocReq"),
        (FrameKind::ReassocResp, "ReassocResp"),
        (FrameKind::ProbeReq, "ProbeReq"),
        (FrameKind::ProbeResp, "ProbeResp"),
        (FrameKind::Beacon, "Beacon"),
        (FrameKind::Atim, "Atim"),
        (FrameKind::Disassoc, "Disassoc"),
        (FrameKind::Auth, "Auth"),
        (FrameKind::Deauth, "Deauth"),
        (FrameKind::PsPoll, "PsPoll"),
        (FrameKind::Rts, "Rts"),
        (FrameKind::Cts, "Cts"),
        (FrameKind::Ack, "Ack"),
        (FrameKind::Data, "Data"),
        (FrameKind::NullData, "NullData"),
        (FrameKind::QosData, "QosData"),
        (FrameKind::BlockAckReq, "BlockAckReq"),
        (FrameKind::BlockAck, "BlockAck"),
        (FrameKind::Other, "Other"),
    ];
    let mut tr = Trace::new(kinds.len());
    for (kind, _) in kinds {
        let e = TraceEvent::Drop {
            station: 0,
            kind,
            reason: DropReason::Collision,
        };
        tr.event(SimTime::ZERO, Level::Warn, "mac", e);
    }
    let want: String = kinds
        .iter()
        .map(|(_, name)| {
            format!(
                "{{\"exp\":\"K\",\"at_ns\":0,\"level\":\"warn\",\"tag\":\"mac\",\
                 \"type\":\"drop\",\"station\":0,\"kind\":\"{name}\",\"reason\":\"Collision\"}}\n"
            )
        })
        .collect();
    assert_eq!(tr.to_jsonl("K"), want);
}

/// String-API records: a message that needs no escaping, one that
/// needs every escape the writer knows, and an empty one, under an
/// experiment id that needs escaping too.
#[test]
fn string_records_escape_every_special_character() {
    let mut tr = Trace::new(4);
    tr.info(SimTime::from_micros(3), "phy", "plain text, no escapes");
    tr.warn(
        SimTime::from_millis(7),
        "sec",
        "q\"b\\n\nr\rt\tu\u{1}e\u{1f} µ\u{7f}",
    );
    tr.debug(SimTime::ZERO, "net", "");
    let want = concat!(
        r#"{"exp":"E\"x\\1","at_ns":3000,"level":"info","tag":"phy","type":"msg","message":"plain text, no escapes"}"#,
        "\n",
        r#"{"exp":"E\"x\\1","at_ns":7000000,"level":"warn","tag":"sec","type":"msg","message":"q\"b\\n\nr\rt\tu\u0001e\u001f µ"#,
        "\u{7f}\"}\n",
        r#"{"exp":"E\"x\\1","at_ns":0,"level":"debug","tag":"net","type":"msg","message":""}"#,
        "\n",
    );
    assert_eq!(tr.to_jsonl("E\"x\\1"), want);
}

/// A snapshot with one instrument of each kind, world-level and
/// per-station, at a capture time past the gauge's last update.
#[test]
fn metrics_snapshot_renders_every_instrument_kind() {
    let mut reg = MetricsRegistry::new();
    reg.counter("mac", "tx_frames", Some(3)).add(42);
    reg.counter("mac", "tx_frames", None)
        .add(u64::from(u32::MAX) + 1);
    let s = reg.summary("mac", "access_delay_us", Some(0));
    for x in [10.0, 20.0, 60.0] {
        s.record(x);
    }
    reg.summary("net", "empty", None);
    let h = reg.histogram("mac", "queue_us", None);
    for v in [1u64, 2, 3, 100] {
        h.record(v);
    }
    let g = reg.gauge("mac", "depth", Some(1), SimTime::ZERO, 0.0);
    g.set(SimTime::from_millis(10), 4.0);
    g.set(SimTime::from_millis(20), 1.0);
    let jsonl = reg.snapshot(SimTime::from_millis(40)).to_jsonl("M\t1");
    let want = concat!(
        r#"{"exp":"M\t1","at_ns":40000000,"layer":"mac","name":"access_delay_us","station":0,"kind":"summary","n":3,"sum":90,"mean":30,"std_dev":21.602468994692867,"min":10,"max":60}"#,
        "\n",
        r#"{"exp":"M\t1","at_ns":40000000,"layer":"mac","name":"depth","station":1,"kind":"gauge","current":1,"max":4,"time_avg":1.5}"#,
        "\n",
        r#"{"exp":"M\t1","at_ns":40000000,"layer":"mac","name":"queue_us","station":null,"kind":"histogram","n":4,"mean":26.5,"p50":2,"p99":102}"#,
        "\n",
        r#"{"exp":"M\t1","at_ns":40000000,"layer":"mac","name":"tx_frames","station":null,"kind":"counter","value":4294967296}"#,
        "\n",
        r#"{"exp":"M\t1","at_ns":40000000,"layer":"mac","name":"tx_frames","station":3,"kind":"counter","value":42}"#,
        "\n",
        r#"{"exp":"M\t1","at_ns":40000000,"layer":"net","name":"empty","station":null,"kind":"summary","n":0,"sum":0,"mean":0,"std_dev":0,"min":0,"max":0}"#,
        "\n",
    );
    assert_eq!(jsonl, want);
}
