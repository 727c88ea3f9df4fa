//! Wire format: a 9-byte frame header (u24 payload length, u8 type,
//! u8 flags, u32 stream id, all big-endian) followed by the payload.
//! Header blocks are length-prefixed name/value lists (u16 field count,
//! then per field u16 name length + name bytes + u16 value length +
//! value bytes). Pseudo-headers `:method` / `:path` / `:status` carry
//! the request/response line.

use bytes::{Bytes, BytesMut};

/// Client connection preface, sent before any frame. Chosen so the first
/// byte can never begin a valid HTTP/1.x method token parse on our
/// servers ("HMUX" is not a known method and the line ends without a
/// version), letting endpoints sniff the protocol family.
pub const PREFACE: &[u8] = b"HMUX/1\r\nSM\r\n";

/// Fixed frame header size in bytes.
pub const FRAME_HEADER_LEN: usize = 9;

/// Largest payload a single frame may carry. DATA above this is chunked
/// by the sender; anything larger on the wire is a framing error.
pub const MAX_FRAME_PAYLOAD: usize = 16 * 1024;

/// Initial per-stream and connection-level flow-control window.
pub const DEFAULT_WINDOW: u32 = 65_535;

/// HEADERS / DATA: no further frames from this direction on the stream.
pub const FLAG_END_STREAM: u8 = 0x1;
/// SETTINGS: acknowledges the peer's settings.
pub const FLAG_ACK: u8 = 0x1;

/// SETTINGS identifier: peer accepts PUSH_PROMISE (value 0 or 1).
pub const SETTING_ENABLE_PUSH: u16 = 0x2;
/// SETTINGS identifier: initial per-stream window for streams the
/// *sender of the setting* receives on.
pub const SETTING_INITIAL_WINDOW: u16 = 0x4;

/// RST_STREAM error codes.
pub const ERR_PROTOCOL: u32 = 0x1;
pub const ERR_FLOW_CONTROL: u32 = 0x3;
pub const ERR_CANCEL: u32 = 0x8;

/// Frame type octet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    Data,
    Headers,
    RstStream,
    Settings,
    PushPromise,
    WindowUpdate,
}

impl FrameType {
    pub fn code(self) -> u8 {
        match self {
            FrameType::Data => 0x0,
            FrameType::Headers => 0x1,
            FrameType::RstStream => 0x3,
            FrameType::Settings => 0x4,
            FrameType::PushPromise => 0x5,
            FrameType::WindowUpdate => 0x8,
        }
    }

    pub fn from_code(code: u8) -> Option<FrameType> {
        match code {
            0x0 => Some(FrameType::Data),
            0x1 => Some(FrameType::Headers),
            0x3 => Some(FrameType::RstStream),
            0x4 => Some(FrameType::Settings),
            0x5 => Some(FrameType::PushPromise),
            0x8 => Some(FrameType::WindowUpdate),
            _ => None,
        }
    }
}

/// A header block: ordered name/value pairs (no HPACK — insertion
/// order is the wire order).
pub type FieldList = Vec<(String, String)>;

/// A decoded frame payload. DATA keeps raw bytes in a pool-recycled
/// [`Bytes`] (one mux DATA frame arrives per TCP segment in steady
/// state, so its buffer rides the same free list as segment payloads);
/// the control frames are decoded into their structured forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramePayload {
    Data(Bytes),
    Headers(Vec<(String, String)>),
    RstStream(u32),
    Settings(Vec<(u16, u32)>),
    PushPromise {
        promised: u32,
        fields: Vec<(String, String)>,
    },
    WindowUpdate(u32),
}

impl FramePayload {
    pub fn frame_type(&self) -> FrameType {
        match self {
            FramePayload::Data(_) => FrameType::Data,
            FramePayload::Headers(_) => FrameType::Headers,
            FramePayload::RstStream(_) => FrameType::RstStream,
            FramePayload::Settings(_) => FrameType::Settings,
            FramePayload::PushPromise { .. } => FrameType::PushPromise,
            FramePayload::WindowUpdate(_) => FrameType::WindowUpdate,
        }
    }
}

/// One mux frame: stream id, flags, decoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub stream: u32,
    pub flags: u8,
    pub payload: FramePayload,
}

impl Frame {
    pub fn frame_type(&self) -> FrameType {
        self.payload.frame_type()
    }

    pub fn end_stream(&self) -> bool {
        matches!(
            self.payload.frame_type(),
            FrameType::Data | FrameType::Headers
        ) && self.flags & FLAG_END_STREAM != 0
    }

    /// Serialize onto `out`. Debug-asserts the payload fits one frame;
    /// callers chunk DATA and keep header blocks small.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let body_start = out.len() + FRAME_HEADER_LEN;
        out.extend_from_slice(&[0, 0, 0]); // length patched below
        out.push(self.frame_type().code());
        out.push(self.flags);
        out.extend_from_slice(&self.stream.to_be_bytes());
        match &self.payload {
            FramePayload::Data(data) => out.extend_from_slice(data),
            FramePayload::Headers(fields) => encode_fields(fields, out),
            FramePayload::RstStream(code) => out.extend_from_slice(&code.to_be_bytes()),
            FramePayload::Settings(items) => {
                for (id, value) in items {
                    out.extend_from_slice(&id.to_be_bytes());
                    out.extend_from_slice(&value.to_be_bytes());
                }
            }
            FramePayload::PushPromise { promised, fields } => {
                out.extend_from_slice(&promised.to_be_bytes());
                encode_fields(fields, out);
            }
            FramePayload::WindowUpdate(increment) => {
                out.extend_from_slice(&increment.to_be_bytes())
            }
        }
        let len = out.len() - body_start;
        debug_assert!(len <= MAX_FRAME_PAYLOAD, "frame payload {len} too large");
        let hdr = body_start - FRAME_HEADER_LEN;
        out[hdr] = (len >> 16) as u8;
        out[hdr + 1] = (len >> 8) as u8;
        out[hdr + 2] = len as u8;
    }

    pub fn encode(&self) -> Vec<u8> {
        // Convenience for tests and the conformance checker; the engine
        // appends with `encode_into`. simlint: allow(hot-path-alloc)
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serialize a DATA frame whose payload is `head` followed by
    /// `tail`, straight onto `out`. This is the scheduler's hot path:
    /// the two slices come from a send queue's `VecDeque::as_slices`,
    /// so no intermediate payload vector is ever materialized.
    pub fn encode_data_into(stream: u32, flags: u8, head: &[u8], tail: &[u8], out: &mut Vec<u8>) {
        let len = head.len() + tail.len();
        debug_assert!(len <= MAX_FRAME_PAYLOAD, "frame payload {len} too large");
        out.extend_from_slice(&[(len >> 16) as u8, (len >> 8) as u8, len as u8]);
        out.push(FrameType::Data.code());
        out.push(flags);
        out.extend_from_slice(&stream.to_be_bytes());
        out.extend_from_slice(head);
        out.extend_from_slice(tail);
    }
}

fn encode_fields(fields: &[(String, String)], out: &mut Vec<u8>) {
    out.extend_from_slice(&(fields.len() as u16).to_be_bytes());
    for (name, value) in fields {
        out.extend_from_slice(&(name.len() as u16).to_be_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(value.len() as u16).to_be_bytes());
        out.extend_from_slice(value.as_bytes());
    }
}

/// Why a byte stream failed to decode as frames. All errors are fatal to
/// the connection: framing has no resync point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Unknown frame type octet.
    UnknownType(u8),
    /// Declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize(usize),
    /// Payload bytes do not decode as the declared type.
    BadPayload(FrameType),
    /// Expected the connection preface and saw something else.
    BadPreface,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::UnknownType(t) => write!(f, "unknown frame type 0x{t:x}"),
            FrameError::Oversize(n) => write!(f, "frame payload {n} exceeds max"),
            FrameError::BadPayload(t) => write!(f, "malformed {t:?} payload"),
            FrameError::BadPreface => write!(f, "bad connection preface"),
        }
    }
}

/// Incremental frame decoder. Feed arbitrary byte chunks, pull complete
/// frames. Never panics on hostile input; the first error is sticky.
#[derive(Debug, Default)]
pub struct FrameParser {
    buf: BytesMut,
    expect_preface: bool,
    failed: bool,
}

impl FrameParser {
    /// Parser that expects raw frames from the first byte.
    pub fn new() -> FrameParser {
        FrameParser::default()
    }

    /// Parser that first consumes (and validates) the client preface.
    pub fn with_preface() -> FrameParser {
        FrameParser {
            expect_preface: true,
            ..FrameParser::default()
        }
    }

    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Next complete frame, `Ok(None)` if more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.failed {
            return Err(FrameError::BadPreface);
        }
        if self.expect_preface {
            let have = self.buf.len().min(PREFACE.len());
            if self.buf[..have] != PREFACE[..have] {
                self.failed = true;
                return Err(FrameError::BadPreface);
            }
            if self.buf.len() < PREFACE.len() {
                return Ok(None);
            }
            self.buf.advance(PREFACE.len());
            self.expect_preface = false;
        }
        if self.buf.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let head = &self.buf[..];
        let len = ((head[0] as usize) << 16) | ((head[1] as usize) << 8) | head[2] as usize;
        if len > MAX_FRAME_PAYLOAD {
            self.failed = true;
            return Err(FrameError::Oversize(len));
        }
        let Some(ftype) = FrameType::from_code(head[3]) else {
            self.failed = true;
            return Err(FrameError::UnknownType(head[3]));
        };
        if self.buf.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let flags = head[4];
        let stream = u32::from_be_bytes([head[5], head[6], head[7], head[8]]);
        let payload = &head[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        let decoded = decode_payload(ftype, payload);
        self.buf.advance(FRAME_HEADER_LEN + len);
        match decoded {
            Some(payload) => Ok(Some(Frame {
                stream,
                flags,
                payload,
            })),
            None => {
                self.failed = true;
                Err(FrameError::BadPayload(ftype))
            }
        }
    }
}

fn decode_payload(ftype: FrameType, payload: &[u8]) -> Option<FramePayload> {
    match ftype {
        FrameType::Data => Some(FramePayload::Data(Bytes::pooled_copy_from_slice(payload))),
        FrameType::Headers => {
            decode_fields(payload).map(|(fields, _)| FramePayload::Headers(fields))
        }
        FrameType::RstStream => {
            let code = exact_u32(payload)?;
            Some(FramePayload::RstStream(code))
        }
        FrameType::Settings => {
            if payload.len() % 6 != 0 {
                return None;
            }
            let mut items = Vec::with_capacity(payload.len() / 6);
            for chunk in payload.chunks_exact(6) {
                let id = u16::from_be_bytes([chunk[0], chunk[1]]);
                let value = u32::from_be_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]);
                items.push((id, value));
            }
            Some(FramePayload::Settings(items))
        }
        FrameType::PushPromise => {
            if payload.len() < 4 {
                return None;
            }
            let promised = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]);
            let (fields, _) = decode_fields(&payload[4..])?;
            Some(FramePayload::PushPromise { promised, fields })
        }
        FrameType::WindowUpdate => {
            let increment = exact_u32(payload)?;
            if increment == 0 {
                return None;
            }
            Some(FramePayload::WindowUpdate(increment))
        }
    }
}

fn exact_u32(payload: &[u8]) -> Option<u32> {
    if payload.len() != 4 {
        return None;
    }
    Some(u32::from_be_bytes([
        payload[0], payload[1], payload[2], payload[3],
    ]))
}

/// Decode a header block; `None` on any length overrun, trailing
/// garbage, or non-UTF-8 field bytes.
fn decode_fields(mut bytes: &[u8]) -> Option<(FieldList, &[u8])> {
    if bytes.len() < 2 {
        return None;
    }
    let count = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
    bytes = &bytes[2..];
    let mut fields = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let (name, rest) = take_str(bytes)?;
        let (value, rest) = take_str(rest)?;
        bytes = rest;
        fields.push((name, value));
    }
    if !bytes.is_empty() {
        return None;
    }
    Some((fields, bytes))
}

fn take_str(bytes: &[u8]) -> Option<(String, &[u8])> {
    if bytes.len() < 2 {
        return None;
    }
    let len = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
    let rest = &bytes[2..];
    if rest.len() < len {
        return None;
    }
    let s = core::str::from_utf8(&rest[..len]).ok()?.to_string();
    Some((s, &rest[len..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut parser = FrameParser::new();
        parser.feed(&frame.encode());
        assert_eq!(parser.next_frame().unwrap().unwrap(), frame);
        assert!(parser.next_frame().unwrap().is_none());
    }

    #[test]
    fn roundtrips_every_frame_type() {
        roundtrip(Frame {
            stream: 1,
            flags: FLAG_END_STREAM,
            payload: FramePayload::Data(Bytes::copy_from_slice(b"hello")),
        });
        roundtrip(Frame {
            stream: 3,
            flags: 0,
            payload: FramePayload::Headers(vec![
                (":method".into(), "GET".into()),
                (":path".into(), "/index.html".into()),
            ]),
        });
        roundtrip(Frame {
            stream: 5,
            flags: 0,
            payload: FramePayload::RstStream(ERR_CANCEL),
        });
        roundtrip(Frame {
            stream: 0,
            flags: 0,
            payload: FramePayload::Settings(vec![
                (SETTING_ENABLE_PUSH, 1),
                (SETTING_INITIAL_WINDOW, 65_535),
            ]),
        });
        roundtrip(Frame {
            stream: 1,
            flags: 0,
            payload: FramePayload::PushPromise {
                promised: 2,
                fields: vec![(":path".into(), "/a.gif".into())],
            },
        });
        roundtrip(Frame {
            stream: 0,
            flags: 0,
            payload: FramePayload::WindowUpdate(32_768),
        });
    }

    #[test]
    fn split_data_encode_matches_whole_frame() {
        let body = b"the quick brown fox";
        for split in [0, 1, body.len() / 2, body.len()] {
            let mut direct = Vec::new();
            Frame::encode_data_into(
                7,
                FLAG_END_STREAM,
                &body[..split],
                &body[split..],
                &mut direct,
            );
            let whole = Frame {
                stream: 7,
                flags: FLAG_END_STREAM,
                payload: FramePayload::Data(Bytes::copy_from_slice(body)),
            }
            .encode();
            assert_eq!(direct, whole, "split at {split}");
        }
    }

    #[test]
    fn preface_is_consumed_then_frames_follow() {
        let mut parser = FrameParser::with_preface();
        let mut wire = PREFACE.to_vec();
        let frame = Frame {
            stream: 0,
            flags: 0,
            payload: FramePayload::Settings(vec![(SETTING_ENABLE_PUSH, 0)]),
        };
        frame.encode_into(&mut wire);
        // Feed one byte at a time: incremental parsing must hold.
        for b in wire {
            parser.feed(&[b]);
        }
        assert_eq!(parser.next_frame().unwrap().unwrap(), frame);
    }

    #[test]
    fn bad_preface_is_sticky() {
        let mut parser = FrameParser::with_preface();
        parser.feed(b"GET / HTTP/1.0\r\n");
        assert_eq!(parser.next_frame(), Err(FrameError::BadPreface));
        assert!(parser.next_frame().is_err());
    }

    #[test]
    fn rejects_unknown_type_oversize_and_bad_payloads() {
        let mut parser = FrameParser::new();
        parser.feed(&[0, 0, 0, 0x7, 0, 0, 0, 0, 1]);
        assert_eq!(parser.next_frame(), Err(FrameError::UnknownType(0x7)));

        let mut parser = FrameParser::new();
        parser.feed(&[0xff, 0xff, 0xff, 0x0, 0, 0, 0, 0, 1]);
        assert!(matches!(parser.next_frame(), Err(FrameError::Oversize(_))));

        // RST_STREAM payload must be exactly 4 bytes.
        let mut parser = FrameParser::new();
        parser.feed(&[0, 0, 2, 0x3, 0, 0, 0, 0, 1, 0xde, 0xad]);
        assert_eq!(
            parser.next_frame(),
            Err(FrameError::BadPayload(FrameType::RstStream))
        );

        // WINDOW_UPDATE increment of zero is meaningless.
        let mut wire = vec![0, 0, 4, 0x8, 0, 0, 0, 0, 0];
        wire.extend_from_slice(&0u32.to_be_bytes());
        let mut parser = FrameParser::new();
        parser.feed(&wire);
        assert_eq!(
            parser.next_frame(),
            Err(FrameError::BadPayload(FrameType::WindowUpdate))
        );
    }

    #[test]
    fn header_block_overrun_is_rejected() {
        // Declares 1 field with a 1000-byte name but supplies 2 bytes.
        let mut wire = vec![0, 0, 6, 0x1, 0, 0, 0, 0, 1];
        wire.extend_from_slice(&1u16.to_be_bytes());
        wire.extend_from_slice(&1000u16.to_be_bytes());
        wire.extend_from_slice(b"ab");
        let mut parser = FrameParser::new();
        parser.feed(&wire);
        assert_eq!(
            parser.next_frame(),
            Err(FrameError::BadPayload(FrameType::Headers))
        );
    }
}
