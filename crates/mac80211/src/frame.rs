//! The bit-exact IEEE 802.11 MAC frame codec of §4.2 / Fig. 1.12.
//!
//! "The MAC frame format comprises a set of nine fields that occur in a
//! fixed order in all frames": Frame Control, Duration/ID, four Address
//! fields, Sequence Control, Frame Body and FCS. Every subfield the text
//! enumerates — Protocol Version, Type/Subtype, To DS/From DS, More
//! Fragments, Retry, Power Management, More Data, WEP, Order, the
//! fragment/sequence numbers — is represented and serialised here
//! exactly as on the air, and the FCS is a real CRC-32 over header and
//! body.

use crate::addr::MacAddr;
use crate::payload::Payload;
use wn_crypto::crc32;

/// Frame type — "There are three different frame type fields: control,
/// data, and management" (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Management frames (association, beacons, authentication…).
    Management,
    /// Control frames (RTS/CTS/ACK/PS-Poll).
    Control,
    /// Data frames.
    Data,
}

impl FrameType {
    fn code(self) -> u16 {
        match self {
            FrameType::Management => 0,
            FrameType::Control => 1,
            FrameType::Data => 2,
        }
    }
}

/// Frame subtype — "multiple subtype fields for each frame type".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Subtype {
    // Management.
    /// Association request.
    AssocReq,
    /// Association response.
    AssocResp,
    /// Reassociation request (roaming within an ESS).
    ReassocReq,
    /// Reassociation response.
    ReassocResp,
    /// Probe request (active scanning).
    ProbeReq,
    /// Probe response.
    ProbeResp,
    /// Beacon.
    Beacon,
    /// Announcement traffic indication message (IBSS power save).
    Atim,
    /// Disassociation.
    Disassoc,
    /// Authentication.
    Auth,
    /// Deauthentication.
    Deauth,
    // Control.
    /// Power-save poll — the Duration/ID field carries an AID.
    PsPoll,
    /// Request to send.
    Rts,
    /// Clear to send.
    Cts,
    /// Acknowledgement.
    Ack,
    /// Block Ack Request — solicits a block ack for an A-MPDU window
    /// starting at the carried sequence number (802.11e/n).
    BlockAckReq,
    /// Compressed Block Ack — a starting sequence number plus a 64-bit
    /// bitmap acknowledging individual MPDUs of an aggregate.
    BlockAck,
    // Data.
    /// Plain data.
    Data,
    /// Data-less null frame (power-management signalling).
    NullData,
    /// QoS data — an access-category-tagged data frame; in this model
    /// also the carrier of A-MPDU aggregates.
    QosData,
}

impl Subtype {
    /// The `(type, subtype)` code pair on the air.
    pub fn codes(self) -> (FrameType, u16) {
        use Subtype::*;
        match self {
            AssocReq => (FrameType::Management, 0),
            AssocResp => (FrameType::Management, 1),
            ReassocReq => (FrameType::Management, 2),
            ReassocResp => (FrameType::Management, 3),
            ProbeReq => (FrameType::Management, 4),
            ProbeResp => (FrameType::Management, 5),
            Beacon => (FrameType::Management, 8),
            Atim => (FrameType::Management, 9),
            Disassoc => (FrameType::Management, 10),
            Auth => (FrameType::Management, 11),
            Deauth => (FrameType::Management, 12),
            BlockAckReq => (FrameType::Control, 8),
            BlockAck => (FrameType::Control, 9),
            PsPoll => (FrameType::Control, 10),
            Rts => (FrameType::Control, 11),
            Cts => (FrameType::Control, 12),
            Ack => (FrameType::Control, 13),
            Data => (FrameType::Data, 0),
            NullData => (FrameType::Data, 4),
            QosData => (FrameType::Data, 8),
        }
    }

    fn from_codes(ty: u16, sub: u16) -> Option<Subtype> {
        use Subtype::*;
        Some(match (ty, sub) {
            (0, 0) => AssocReq,
            (0, 1) => AssocResp,
            (0, 2) => ReassocReq,
            (0, 3) => ReassocResp,
            (0, 4) => ProbeReq,
            (0, 5) => ProbeResp,
            (0, 8) => Beacon,
            (0, 9) => Atim,
            (0, 10) => Disassoc,
            (0, 11) => Auth,
            (0, 12) => Deauth,
            (1, 8) => BlockAckReq,
            (1, 9) => BlockAck,
            (1, 10) => PsPoll,
            (1, 11) => Rts,
            (1, 12) => Cts,
            (1, 13) => Ack,
            (2, 0) => Data,
            (2, 4) => NullData,
            (2, 8) => QosData,
            _ => return None,
        })
    }

    /// The frame type this subtype belongs to.
    pub fn frame_type(self) -> FrameType {
        self.codes().0
    }

    /// `true` for frames the receiver must acknowledge when unicast.
    pub fn needs_ack(self) -> bool {
        !matches!(
            self,
            Subtype::Rts | Subtype::Cts | Subtype::Ack | Subtype::PsPoll
        ) && self.frame_type() != FrameType::Control
    }
}

/// The 16-bit Frame Control field with all §4.2 subfields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameControl {
    /// "Protocol Version provides the current version of the 802.11
    /// protocol used" — always 0 today.
    pub protocol_version: u8,
    /// Type + subtype, which "determines the function of the frame".
    pub subtype: Subtype,
    /// "indicates whether the frame is going to … the DS".
    pub to_ds: bool,
    /// "… or exiting from the DS".
    pub from_ds: bool,
    /// "indicates whether more fragments of the frame … are to follow".
    pub more_fragments: bool,
    /// "indicates whether or not the frame … is being retransmitted".
    pub retry: bool,
    /// "indicates whether the sending STA is in active mode or
    /// power-save mode".
    pub power_management: bool,
    /// "indicates to a STA in power-save mode that the AP has more
    /// frames to send".
    pub more_data: bool,
    /// "indicates whether or not encryption and authentication are used
    /// in the frame" (the WEP / Protected Frame bit).
    pub protected: bool,
    /// "indicates that all received data frames must be processed in
    /// order".
    pub order: bool,
}

impl FrameControl {
    /// A plain frame control for the given subtype, all flags clear.
    pub fn new(subtype: Subtype) -> Self {
        FrameControl {
            protocol_version: 0,
            subtype,
            to_ds: false,
            from_ds: false,
            more_fragments: false,
            retry: false,
            power_management: false,
            more_data: false,
            protected: false,
            order: false,
        }
    }

    /// Packs into the on-air 16-bit little-endian value.
    pub fn pack(self) -> u16 {
        let (ty, sub) = self.subtype.codes();
        (self.protocol_version as u16 & 0b11)
            | (ty.code() << 2)
            | (sub << 4)
            | ((self.to_ds as u16) << 8)
            | ((self.from_ds as u16) << 9)
            | ((self.more_fragments as u16) << 10)
            | ((self.retry as u16) << 11)
            | ((self.power_management as u16) << 12)
            | ((self.more_data as u16) << 13)
            | ((self.protected as u16) << 14)
            | ((self.order as u16) << 15)
    }

    /// Unpacks from the on-air value.
    pub fn unpack(v: u16) -> Result<Self, FrameError> {
        let version = (v & 0b11) as u8;
        if version != 0 {
            return Err(FrameError::UnsupportedVersion(version));
        }
        let ty = (v >> 2) & 0b11;
        let sub = (v >> 4) & 0b1111;
        let subtype = Subtype::from_codes(ty, sub).ok_or(FrameError::ReservedType { ty, sub })?;
        Ok(FrameControl {
            protocol_version: version,
            subtype,
            to_ds: v & (1 << 8) != 0,
            from_ds: v & (1 << 9) != 0,
            more_fragments: v & (1 << 10) != 0,
            retry: v & (1 << 11) != 0,
            power_management: v & (1 << 12) != 0,
            more_data: v & (1 << 13) != 0,
            protected: v & (1 << 14) != 0,
            order: v & (1 << 15) != 0,
        })
    }
}

/// The Sequence Control field: 4-bit fragment number + 12-bit sequence
/// number (§4.2: wraps "until reaching 4095, when it then begins at
/// zero again").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct SequenceControl {
    /// Fragment number within a fragmented MSDU (0–15).
    pub fragment: u8,
    /// Sequence number (0–4095).
    pub sequence: u16,
}

impl SequenceControl {
    /// Packs into the on-air 16-bit value.
    pub fn pack(self) -> u16 {
        (self.fragment as u16 & 0x0F) | (self.sequence << 4)
    }

    /// Unpacks from the on-air value.
    pub fn unpack(v: u16) -> Self {
        SequenceControl {
            fragment: (v & 0x0F) as u8,
            sequence: v >> 4,
        }
    }
}

/// A 12-bit sequence-number counter with the §4.2 wrap behaviour.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequenceCounter(u16);

impl SequenceCounter {
    /// Returns the current number and advances (wraps at 4095 → 0).
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, never None
    pub fn next(&mut self) -> u16 {
        let v = self.0;
        self.0 = (self.0 + 1) & 0x0FFF;
        v
    }
}

/// Errors decoding a frame from bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the minimal frame of its kind.
    TooShort {
        /// Bytes required.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// FCS mismatch — the frame was corrupted in flight.
    BadFcs {
        /// FCS carried in the frame.
        sent: u32,
        /// FCS computed over the received bits.
        computed: u32,
    },
    /// Protocol version other than zero.
    UnsupportedVersion(u8),
    /// Reserved (type, subtype) combination.
    ReservedType {
        /// Type code.
        ty: u16,
        /// Subtype code.
        sub: u16,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort { need, got } => write!(f, "frame too short: {got} < {need}"),
            FrameError::BadFcs { sent, computed } => {
                write!(
                    f,
                    "FCS mismatch: sent {sent:#010x}, computed {computed:#010x}"
                )
            }
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::ReservedType { ty, sub } => {
                write!(f, "reserved type/subtype {ty}/{sub}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A complete MAC frame (pre-FCS; the FCS is produced on serialisation
/// and checked on parse).
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Frame Control field.
    pub fc: FrameControl,
    /// Duration (µs of NAV reservation) or AID for PS-Poll.
    pub duration_id: u16,
    /// Address 1 — always the receiver address (RA).
    pub addr1: MacAddr,
    /// Address 2 — transmitter address (absent on CTS/ACK).
    pub addr2: Option<MacAddr>,
    /// Address 3 — BSSID/SA/DA depending on DS bits (data/mgmt only).
    pub addr3: Option<MacAddr>,
    /// Sequence Control (data/mgmt only).
    pub seq: Option<SequenceControl>,
    /// Address 4 — only on ToDS+FromDS (wireless DS) frames.
    pub addr4: Option<MacAddr>,
    /// Frame body ("the data or information included in either
    /// management type or data type frames"), shared and immutable:
    /// cloning a frame or slicing its body copies no bytes.
    pub body: Payload,
}

impl Frame {
    // ----- constructors for the frames the simulator exchanges -----

    /// An RTS control frame.
    pub fn rts(ra: MacAddr, ta: MacAddr, duration_us: u16) -> Frame {
        Frame {
            fc: FrameControl::new(Subtype::Rts),
            duration_id: duration_us,
            addr1: ra,
            addr2: Some(ta),
            addr3: None,
            seq: None,
            addr4: None,
            body: Payload::default(),
        }
    }

    /// A CTS control frame.
    pub fn cts(ra: MacAddr, duration_us: u16) -> Frame {
        Frame {
            fc: FrameControl::new(Subtype::Cts),
            duration_id: duration_us,
            addr1: ra,
            addr2: None,
            addr3: None,
            seq: None,
            addr4: None,
            body: Payload::default(),
        }
    }

    /// An ACK control frame.
    pub fn ack(ra: MacAddr) -> Frame {
        Frame {
            fc: FrameControl::new(Subtype::Ack),
            duration_id: 0,
            addr1: ra,
            addr2: None,
            addr3: None,
            seq: None,
            addr4: None,
            body: Payload::default(),
        }
    }

    /// A PS-Poll control frame; §4.2: "the field contains the
    /// association identity (AID) of the transmitting STA".
    pub fn ps_poll(bssid: MacAddr, ta: MacAddr, aid: u16) -> Frame {
        Frame {
            fc: FrameControl::new(Subtype::PsPoll),
            // AIDs are sent with the two MSBs set on the air.
            duration_id: aid | 0xC000,
            addr1: bssid,
            addr2: Some(ta),
            addr3: None,
            seq: None,
            addr4: None,
            body: Payload::default(),
        }
    }

    /// A Block Ack Request control frame soliciting a block ack for
    /// the A-MPDU window starting at `ssn`.
    pub fn block_ack_req(ra: MacAddr, ta: MacAddr, duration_us: u16, ssn: u16) -> Frame {
        Frame {
            fc: FrameControl::new(Subtype::BlockAckReq),
            duration_id: duration_us,
            addr1: ra,
            addr2: Some(ta),
            addr3: None,
            seq: None,
            addr4: None,
            body: Payload::from(&(ssn & 0x0FFF).to_le_bytes()[..]),
        }
    }

    /// A compressed Block Ack control frame: the starting sequence
    /// number plus a 64-bit bitmap where bit `k` acknowledges sequence
    /// `ssn + k`.
    pub fn block_ack(ra: MacAddr, ta: MacAddr, ssn: u16, bitmap: u64) -> Frame {
        let mut body = [0u8; 10];
        body[..2].copy_from_slice(&(ssn & 0x0FFF).to_le_bytes());
        body[2..].copy_from_slice(&bitmap.to_le_bytes());
        Frame {
            fc: FrameControl::new(Subtype::BlockAck),
            duration_id: 0,
            addr1: ra,
            addr2: Some(ta),
            addr3: None,
            seq: None,
            addr4: None,
            body: Payload::from(&body[..]),
        }
    }

    /// A data frame inside a BSS or IBSS, DS bits per §4.2's table.
    pub fn data(
        ds: DsBits,
        da: MacAddr,
        sa: MacAddr,
        bssid: MacAddr,
        seq: SequenceControl,
        body: impl Into<Payload>,
    ) -> Frame {
        let (addr1, addr2, addr3) = match ds {
            DsBits::Ibss => (da, sa, bssid),
            DsBits::ToAp => (bssid, sa, da),
            DsBits::FromAp => (da, bssid, sa),
        };
        let mut fc = FrameControl::new(Subtype::Data);
        fc.to_ds = matches!(ds, DsBits::ToAp);
        fc.from_ds = matches!(ds, DsBits::FromAp);
        Frame {
            fc,
            duration_id: 0,
            addr1,
            addr2: Some(addr2),
            addr3: Some(addr3),
            seq: Some(seq),
            addr4: None,
            body: body.into(),
        }
    }

    /// A management frame (beacon, association, authentication…).
    pub fn management(
        subtype: Subtype,
        ra: MacAddr,
        ta: MacAddr,
        bssid: MacAddr,
        seq: SequenceControl,
        body: impl Into<Payload>,
    ) -> Frame {
        debug_assert_eq!(subtype.frame_type(), FrameType::Management);
        Frame {
            fc: FrameControl::new(subtype),
            duration_id: 0,
            addr1: ra,
            addr2: Some(ta),
            addr3: Some(bssid),
            seq: Some(seq),
            addr4: None,
            body: body.into(),
        }
    }

    // ----- address semantics (§4.2 Address Fields) -----

    /// Receiver address — "the next immediate STA on the wireless
    /// medium to receive the frame".
    pub fn receiver(&self) -> MacAddr {
        self.addr1
    }

    /// Transmitter address — "the STA that transmitted the frame onto
    /// the wireless medium" (absent for CTS/ACK).
    pub fn transmitter(&self) -> Option<MacAddr> {
        self.addr2
    }

    /// Destination address — "the final destination to receive the
    /// frame".
    pub fn destination(&self) -> MacAddr {
        match (self.fc.to_ds, self.fc.from_ds) {
            (false, _) => self.addr1,
            (true, false) => self.addr3.unwrap_or(self.addr1),
            (true, true) => self.addr3.unwrap_or(self.addr1),
        }
    }

    /// Source address — "the original source that initially created and
    /// transmitted the frame".
    pub fn source(&self) -> Option<MacAddr> {
        match (self.fc.to_ds, self.fc.from_ds) {
            (false, false) => self.addr2,
            (true, false) => self.addr2,
            (false, true) => self.addr3,
            (true, true) => self.addr4,
        }
    }

    /// The BSSID for non-WDS frames.
    pub fn bssid(&self) -> Option<MacAddr> {
        match (self.fc.to_ds, self.fc.from_ds) {
            (false, false) => self.addr3,
            (true, false) => Some(self.addr1),
            (false, true) => self.addr2,
            (true, true) => None,
        }
    }

    /// The AID carried in a PS-Poll.
    pub fn ps_poll_aid(&self) -> Option<u16> {
        (self.fc.subtype == Subtype::PsPoll).then_some(self.duration_id & 0x3FFF)
    }

    /// The starting sequence number carried by a BlockAck or
    /// BlockAckReq (`None` for other subtypes or a truncated body).
    pub fn ba_ssn(&self) -> Option<u16> {
        match self.fc.subtype {
            Subtype::BlockAck | Subtype::BlockAckReq if self.body.len() >= 2 => {
                Some(u16::from_le_bytes([self.body[0], self.body[1]]) & 0x0FFF)
            }
            _ => None,
        }
    }

    /// The compressed 64-bit acknowledgement bitmap of a BlockAck
    /// (`None` for other subtypes or a truncated body).
    pub fn ba_bitmap(&self) -> Option<u64> {
        match self.fc.subtype {
            Subtype::BlockAck if self.body.len() >= 10 => Some(u64::from_le_bytes(
                self.body[2..10].try_into().expect("8 bytes"),
            )),
            _ => None,
        }
    }

    // ----- codec -----

    /// Header length in bytes for this frame's kind.
    pub fn header_len(&self) -> usize {
        match self.fc.subtype {
            Subtype::Cts | Subtype::Ack => 10,
            Subtype::Rts | Subtype::PsPoll | Subtype::BlockAckReq | Subtype::BlockAck => 16,
            _ => {
                if self.addr4.is_some() {
                    30
                } else {
                    24
                }
            }
        }
    }

    /// Total on-air length including FCS.
    pub fn wire_len(&self) -> usize {
        self.header_len() + self.body.len() + 4
    }

    /// Serialises to on-air bytes, appending a correct FCS.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_into(&mut out);
        out
    }

    /// Serialises into `out` (appending), including a correct FCS.
    ///
    /// The FCS covers only this frame's bytes, so appending to a
    /// non-empty buffer produces the same wire image as [`to_bytes`]
    /// would at that offset. Lets hot paths reuse one allocation across
    /// many serialisations.
    ///
    /// [`to_bytes`]: Frame::to_bytes
    pub fn write_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.reserve(self.wire_len());
        out.extend_from_slice(&self.fc.pack().to_le_bytes());
        out.extend_from_slice(&self.duration_id.to_le_bytes());
        out.extend_from_slice(&self.addr1.0);
        match self.fc.subtype {
            Subtype::Cts | Subtype::Ack => {}
            Subtype::Rts | Subtype::PsPoll => {
                out.extend_from_slice(&self.addr2.expect("RTS/PS-Poll carry a TA").0);
            }
            Subtype::BlockAckReq | Subtype::BlockAck => {
                out.extend_from_slice(&self.addr2.expect("BAR/BA carry a TA").0);
                out.extend_from_slice(&self.body);
            }
            _ => {
                out.extend_from_slice(&self.addr2.unwrap_or(MacAddr::ZERO).0);
                out.extend_from_slice(&self.addr3.unwrap_or(MacAddr::ZERO).0);
                out.extend_from_slice(&self.seq.unwrap_or_default().pack().to_le_bytes());
                if let Some(a4) = self.addr4 {
                    out.extend_from_slice(&a4.0);
                }
                out.extend_from_slice(&self.body);
            }
        }
        let fcs = crc32(&out[start..]);
        out.extend_from_slice(&fcs.to_le_bytes());
    }

    /// Parses on-air bytes, verifying the FCS — "The receiving STA then
    /// uses the same CRC calculation … to verify whether or not any
    /// errors occurred in the frame during the transmission" (§4.2).
    pub fn from_bytes(bytes: &[u8]) -> Result<Frame, FrameError> {
        if bytes.len() < 14 {
            return Err(FrameError::TooShort {
                need: 14,
                got: bytes.len(),
            });
        }
        let (payload, fcs_bytes) = bytes.split_at(bytes.len() - 4);
        let sent = u32::from_le_bytes(fcs_bytes.try_into().expect("4 bytes"));
        let computed = crc32(payload);
        if sent != computed {
            return Err(FrameError::BadFcs { sent, computed });
        }
        let fc = FrameControl::unpack(u16::from_le_bytes([payload[0], payload[1]]))?;
        let duration_id = u16::from_le_bytes([payload[2], payload[3]]);
        let take_addr = |off: usize| -> Result<MacAddr, FrameError> {
            if payload.len() < off + 6 {
                return Err(FrameError::TooShort {
                    need: off + 6 + 4,
                    got: bytes.len(),
                });
            }
            Ok(MacAddr(payload[off..off + 6].try_into().expect("6 bytes")))
        };
        let addr1 = take_addr(4)?;
        match fc.subtype {
            Subtype::Cts | Subtype::Ack => Ok(Frame {
                fc,
                duration_id,
                addr1,
                addr2: None,
                addr3: None,
                seq: None,
                addr4: None,
                body: Payload::default(),
            }),
            Subtype::Rts | Subtype::PsPoll => Ok(Frame {
                fc,
                duration_id,
                addr1,
                addr2: Some(take_addr(10)?),
                addr3: None,
                seq: None,
                addr4: None,
                body: Payload::default(),
            }),
            Subtype::BlockAckReq | Subtype::BlockAck => Ok(Frame {
                fc,
                duration_id,
                addr1,
                addr2: Some(take_addr(10)?),
                addr3: None,
                seq: None,
                addr4: None,
                body: Payload::from(&payload[16..]),
            }),
            _ => {
                let addr2 = take_addr(10)?;
                let addr3 = take_addr(16)?;
                if payload.len() < 24 {
                    return Err(FrameError::TooShort {
                        need: 28,
                        got: bytes.len(),
                    });
                }
                let seq = SequenceControl::unpack(u16::from_le_bytes([payload[22], payload[23]]));
                let has_a4 = fc.to_ds && fc.from_ds;
                let (addr4, body_off) = if has_a4 {
                    (Some(take_addr(24)?), 30)
                } else {
                    (None, 24)
                };
                Ok(Frame {
                    fc,
                    duration_id,
                    addr1,
                    addr2: Some(addr2),
                    addr3: Some(addr3),
                    seq: Some(seq),
                    addr4,
                    body: Payload::from(&payload[body_off..]),
                })
            }
        }
    }
}

/// The §3.2 / §4.2 DS-bit configurations for data frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DsBits {
    /// Ad hoc, STA↔STA directly (ToDS=0, FromDS=0).
    Ibss,
    /// STA → AP (ToDS=1, FromDS=0).
    ToAp,
    /// AP → STA (ToDS=0, FromDS=1).
    FromAp,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sta(i: u32) -> MacAddr {
        MacAddr::station(i)
    }

    #[test]
    fn frame_control_pack_unpack_all_flags() {
        let mut fc = FrameControl::new(Subtype::Data);
        fc.to_ds = true;
        fc.retry = true;
        fc.power_management = true;
        fc.more_data = true;
        fc.protected = true;
        fc.order = true;
        fc.more_fragments = true;
        let packed = fc.pack();
        let back = FrameControl::unpack(packed).unwrap();
        assert_eq!(back, fc);
    }

    #[test]
    fn frame_control_known_encoding() {
        // Beacon: type 0 subtype 8 → bits 0b1000_00_00 = 0x80.
        assert_eq!(FrameControl::new(Subtype::Beacon).pack(), 0x0080);
        // ACK: type 1 subtype 13 → 0b1101_01_00 = 0xD4.
        assert_eq!(FrameControl::new(Subtype::Ack).pack(), 0x00D4);
        // RTS → 0xB4.
        assert_eq!(FrameControl::new(Subtype::Rts).pack(), 0x00B4);
        // CTS → 0xC4.
        assert_eq!(FrameControl::new(Subtype::Cts).pack(), 0x00C4);
        // Plain data: type 2 → 0x08.
        assert_eq!(FrameControl::new(Subtype::Data).pack(), 0x0008);
    }

    #[test]
    fn bad_version_rejected() {
        assert_eq!(
            FrameControl::unpack(0x0081),
            Err(FrameError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn reserved_subtype_rejected() {
        // Type 3 is reserved entirely.
        let v = 0b11 << 2;
        assert!(matches!(
            FrameControl::unpack(v),
            Err(FrameError::ReservedType { .. })
        ));
    }

    #[test]
    fn sequence_control_pack_unpack() {
        let sc = SequenceControl {
            fragment: 5,
            sequence: 4095,
        };
        assert_eq!(SequenceControl::unpack(sc.pack()), sc);
        assert_eq!(sc.pack() >> 4, 4095);
        assert_eq!(sc.pack() & 0xF, 5);
    }

    #[test]
    fn sequence_counter_wraps_at_4095() {
        let mut c = SequenceCounter::default();
        for expect in 0..=4095u16 {
            assert_eq!(c.next(), expect);
        }
        assert_eq!(c.next(), 0, "§4.2: wraps to zero after 4095");
    }

    #[test]
    fn data_frame_roundtrip() {
        let f = Frame::data(
            DsBits::ToAp,
            sta(9),
            sta(1),
            MacAddr::access_point(0),
            SequenceControl {
                fragment: 0,
                sequence: 77,
            },
            b"hello over the air".to_vec(),
        );
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), 24 + 18 + 4);
        let back = Frame::from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn write_into_matches_to_bytes_and_appends() {
        let f = Frame::data(
            DsBits::ToAp,
            sta(9),
            sta(1),
            MacAddr::access_point(0),
            SequenceControl {
                fragment: 0,
                sequence: 77,
            },
            b"hello over the air".to_vec(),
        );
        let ack = Frame::ack(sta(4));

        let mut buf = Vec::new();
        f.write_into(&mut buf);
        assert_eq!(buf, f.to_bytes());

        // Appending a second frame leaves the first intact and yields
        // exactly the concatenation of the two wire images.
        ack.write_into(&mut buf);
        let mut expect = f.to_bytes();
        expect.extend_from_slice(&ack.to_bytes());
        assert_eq!(buf, expect);
        assert_eq!(
            Frame::from_bytes(&buf[f.wire_len()..]).unwrap(),
            ack,
            "appended frame parses from its own region"
        );
    }

    #[test]
    fn control_frames_roundtrip_and_sizes() {
        let rts = Frame::rts(sta(2), sta(1), 300);
        assert_eq!(rts.to_bytes().len(), 20);
        assert_eq!(Frame::from_bytes(&rts.to_bytes()).unwrap(), rts);

        let cts = Frame::cts(sta(1), 250);
        assert_eq!(cts.to_bytes().len(), 14);
        assert_eq!(Frame::from_bytes(&cts.to_bytes()).unwrap(), cts);

        let ack = Frame::ack(sta(1));
        assert_eq!(ack.to_bytes().len(), 14);
        assert_eq!(Frame::from_bytes(&ack.to_bytes()).unwrap(), ack);

        let poll = Frame::ps_poll(MacAddr::access_point(0), sta(3), 7);
        assert_eq!(poll.to_bytes().len(), 20);
        let back = Frame::from_bytes(&poll.to_bytes()).unwrap();
        assert_eq!(back.ps_poll_aid(), Some(7));
    }

    #[test]
    fn corrupted_bits_fail_fcs() {
        let f = Frame::data(
            DsBits::Ibss,
            sta(2),
            sta(1),
            MacAddr::random_ibss_bssid(1),
            SequenceControl::default(),
            vec![0xAB; 64],
        );
        let mut bytes = f.to_bytes();
        for pos in [0usize, 5, 20, 40, bytes.len() - 5] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x10;
            assert!(
                matches!(
                    Frame::from_bytes(&corrupted),
                    Err(FrameError::BadFcs { .. })
                ),
                "corruption at {pos} not caught"
            );
        }
        // Corrupting the FCS itself is also caught.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            Frame::from_bytes(&bytes),
            Err(FrameError::BadFcs { .. })
        ));
    }

    #[test]
    fn truncated_frames_rejected() {
        let f = Frame::ack(sta(1));
        let bytes = f.to_bytes();
        assert!(matches!(
            Frame::from_bytes(&bytes[..10]),
            Err(FrameError::TooShort { .. }) | Err(FrameError::BadFcs { .. })
        ));
        assert!(matches!(
            Frame::from_bytes(&[]),
            Err(FrameError::TooShort { .. })
        ));
    }

    #[test]
    fn address_semantics_ibss() {
        // §4.2 table: IBSS → addr1=DA, addr2=SA, addr3=BSSID.
        let bssid = MacAddr::random_ibss_bssid(7);
        let f = Frame::data(
            DsBits::Ibss,
            sta(2),
            sta(1),
            bssid,
            SequenceControl::default(),
            vec![],
        );
        assert_eq!(f.destination(), sta(2));
        assert_eq!(f.source(), Some(sta(1)));
        assert_eq!(f.bssid(), Some(bssid));
        assert_eq!(f.receiver(), sta(2));
    }

    #[test]
    fn address_semantics_to_ap() {
        // ToDS: addr1=BSSID(RA), addr2=SA(TA), addr3=DA.
        let ap = MacAddr::access_point(0);
        let f = Frame::data(
            DsBits::ToAp,
            sta(2),
            sta(1),
            ap,
            SequenceControl::default(),
            vec![],
        );
        assert_eq!(f.receiver(), ap);
        assert_eq!(f.destination(), sta(2));
        assert_eq!(f.source(), Some(sta(1)));
        assert_eq!(f.bssid(), Some(ap));
        assert!(f.fc.to_ds && !f.fc.from_ds);
    }

    #[test]
    fn address_semantics_from_ap() {
        // FromDS: addr1=DA(RA), addr2=BSSID(TA), addr3=SA.
        let ap = MacAddr::access_point(0);
        let f = Frame::data(
            DsBits::FromAp,
            sta(2),
            sta(1),
            ap,
            SequenceControl::default(),
            vec![],
        );
        assert_eq!(f.receiver(), sta(2));
        assert_eq!(f.destination(), sta(2));
        assert_eq!(f.source(), Some(sta(1)));
        assert_eq!(f.bssid(), Some(ap));
        assert!(!f.fc.to_ds && f.fc.from_ds);
    }

    #[test]
    fn wds_four_address_roundtrip() {
        let mut f = Frame::data(
            DsBits::ToAp,
            sta(2),
            sta(1),
            MacAddr::access_point(0),
            SequenceControl {
                fragment: 1,
                sequence: 9,
            },
            b"bridged".to_vec(),
        );
        f.fc.from_ds = true;
        f.addr4 = Some(sta(1));
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), 30 + 7 + 4);
        let back = Frame::from_bytes(&bytes).unwrap();
        assert_eq!(back.addr4, Some(sta(1)));
        assert_eq!(back.source(), Some(sta(1)), "WDS SA comes from addr4");
        assert_eq!(back.body, b"bridged");
    }

    #[test]
    fn management_frame_roundtrip() {
        let ap = MacAddr::access_point(3);
        let f = Frame::management(
            Subtype::Beacon,
            MacAddr::BROADCAST,
            ap,
            ap,
            SequenceControl {
                fragment: 0,
                sequence: 1234,
            },
            b"ssid=HomeNet".to_vec(),
        );
        let back = Frame::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.fc.subtype, Subtype::Beacon);
        assert!(back.receiver().is_broadcast());
    }

    #[test]
    fn needs_ack_classification() {
        assert!(Subtype::Data.needs_ack());
        assert!(Subtype::Beacon.needs_ack()); // When unicast (probe resp etc.).
        assert!(!Subtype::Ack.needs_ack());
        assert!(!Subtype::Rts.needs_ack());
        assert!(!Subtype::Cts.needs_ack());
    }

    #[test]
    fn every_management_subtype_roundtrips() {
        use Subtype::*;
        for sub in [
            AssocReq,
            AssocResp,
            ReassocReq,
            ReassocResp,
            ProbeReq,
            ProbeResp,
            Beacon,
            Atim,
            Disassoc,
            Auth,
            Deauth,
        ] {
            let f = Frame::management(
                sub,
                sta(2),
                sta(1),
                MacAddr::access_point(0),
                SequenceControl {
                    fragment: 0,
                    sequence: 42,
                },
                vec![1, 2, 3],
            );
            let back = Frame::from_bytes(&f.to_bytes()).unwrap_or_else(|e| panic!("{sub:?}: {e}"));
            assert_eq!(back, f, "{sub:?}");
            assert_eq!(back.fc.subtype, sub);
        }
    }

    #[test]
    fn subtype_codes_are_invertible() {
        use Subtype::*;
        for sub in [
            AssocReq,
            AssocResp,
            ReassocReq,
            ReassocResp,
            ProbeReq,
            ProbeResp,
            Beacon,
            Atim,
            Disassoc,
            Auth,
            Deauth,
            PsPoll,
            Rts,
            Cts,
            Ack,
            BlockAckReq,
            BlockAck,
            Data,
            NullData,
            QosData,
        ] {
            let (ty, code) = sub.codes();
            assert_eq!(Subtype::from_codes(ty.code(), code), Some(sub));
        }
    }

    #[test]
    fn block_ack_bitmap_roundtrip() {
        let ba = Frame::block_ack(sta(1), sta(2), 0x0ABC, 0xDEAD_BEEF_0BAD_F00D);
        // 16-byte control header + 2-byte SSN + 8-byte bitmap + FCS.
        assert_eq!(ba.to_bytes().len(), 30);
        let back = Frame::from_bytes(&ba.to_bytes()).unwrap();
        assert_eq!(back, ba);
        assert_eq!(back.ba_ssn(), Some(0x0ABC));
        assert_eq!(back.ba_bitmap(), Some(0xDEAD_BEEF_0BAD_F00D));
        assert!(!back.fc.subtype.needs_ack(), "a BA is never acked");

        let bar = Frame::block_ack_req(sta(2), sta(1), 120, 77);
        assert_eq!(bar.to_bytes().len(), 22);
        let back = Frame::from_bytes(&bar.to_bytes()).unwrap();
        assert_eq!(back, bar);
        assert_eq!(back.ba_ssn(), Some(77));
        assert_eq!(back.ba_bitmap(), None, "a BAR carries no bitmap");
        assert!(!back.fc.subtype.needs_ack());
    }

    #[test]
    fn block_ack_ssn_is_twelve_bits() {
        let ba = Frame::block_ack(sta(1), sta(2), 0xFFFF, 1);
        assert_eq!(ba.ba_ssn(), Some(0x0FFF), "SSN wraps into 12 bits");
        assert_eq!(Frame::ack(sta(1)).ba_ssn(), None);
        assert_eq!(Frame::ack(sta(1)).ba_bitmap(), None);
    }

    #[test]
    fn corrupted_block_ack_fails_fcs() {
        let ba = Frame::block_ack(sta(1), sta(2), 42, u64::MAX);
        let bytes = ba.to_bytes();
        // Flip one bit at every byte position, including inside the
        // bitmap and the FCS itself: every corruption must be caught.
        for pos in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x04;
            assert!(
                matches!(
                    Frame::from_bytes(&corrupted),
                    Err(FrameError::BadFcs { .. })
                ),
                "corruption at {pos} not caught"
            );
        }
    }

    #[test]
    fn qos_data_roundtrips_like_data() {
        let mut f = Frame::data(
            DsBits::Ibss,
            sta(2),
            sta(1),
            MacAddr::random_ibss_bssid(1),
            SequenceControl {
                fragment: 0,
                sequence: 99,
            },
            vec![0xAA; 48],
        );
        f.fc.subtype = Subtype::QosData;
        let back = Frame::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.fc.subtype, Subtype::QosData);
        assert!(Subtype::QosData.needs_ack());
    }

    #[test]
    fn null_data_roundtrips_with_empty_body() {
        let mut f = Frame::data(
            DsBits::ToAp,
            MacAddr::access_point(0),
            sta(1),
            MacAddr::access_point(0),
            SequenceControl::default(),
            Vec::new(),
        );
        f.fc.subtype = Subtype::NullData;
        f.fc.power_management = true;
        let back = Frame::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back.fc.subtype, Subtype::NullData);
        assert!(back.fc.power_management, "the PS announcement bit");
        assert!(back.body.is_empty());
    }

    #[test]
    fn protected_bit_survives_roundtrip() {
        let mut f = Frame::data(
            DsBits::ToAp,
            sta(2),
            sta(1),
            MacAddr::access_point(0),
            SequenceControl::default(),
            vec![1, 2, 3],
        );
        f.fc.protected = true;
        let back = Frame::from_bytes(&f.to_bytes()).unwrap();
        assert!(back.fc.protected, "WEP bit must survive");
    }

    #[test]
    fn frame_with_a_sliced_body_roundtrips() {
        let whole = Payload::from((0..=255u8).collect::<Vec<u8>>());
        let f = Frame::data(
            DsBits::Ibss,
            sta(2),
            sta(1),
            MacAddr::random_ibss_bssid(1),
            SequenceControl {
                fragment: 2,
                sequence: 300,
            },
            whole.slice(40..137),
        );
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), 24 + 97 + 4);
        assert_eq!(&bytes[24..24 + 97], &whole[40..137]);
        assert_eq!(Frame::from_bytes(&bytes).unwrap(), f);
    }

    /// The arena stores frames by value; a shared body must not grow
    /// its slots.
    #[test]
    fn frame_fits_in_72_bytes() {
        assert!(std::mem::size_of::<Frame>() <= 72);
    }
}
