//! `MuxConn` — one endpoint's view of a multiplexed connection: stream
//! table, flow-control accounting, and the outgoing byte scheduler.
//!
//! The engine is sans-IO: callers `feed()` bytes received from the
//! socket, drain semantic [`MuxEvent`]s with `poll_event()`, enqueue
//! sends through the `send_*` methods, and pull wire bytes with
//! `take_output()`. Control frames (HEADERS, SETTINGS, WINDOW_UPDATE,
//! RST_STREAM, PUSH_PROMISE) are serialized immediately in call order —
//! which is what makes PUSH_PROMISE-before-parent-HEADERS ordering hold
//! — while DATA is queued per stream and drained round-robin in
//! [`MAX_FRAME_PAYLOAD`] chunks as the peer's windows allow.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::frame::{
    Frame, FrameError, FrameParser, FramePayload, DEFAULT_WINDOW, FLAG_ACK, FLAG_END_STREAM,
    MAX_FRAME_PAYLOAD, SETTING_ENABLE_PUSH, SETTING_INITIAL_WINDOW,
};

/// Which side of the connection this engine plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Client,
    Server,
}

/// Fatal connection error surfaced through [`MuxEvent::ProtocolError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxError {
    Frame(FrameError),
    /// Peer violated framing semantics (bad stream id, window overflow).
    Protocol(&'static str),
}

/// Semantic events decoded from peer bytes, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MuxEvent {
    /// Peer settings arrived (already applied to the engine).
    Settings { enable_push: bool },
    /// HEADERS on a stream (request on server, response on client).
    Headers {
        stream: u32,
        fields: Vec<(String, String)>,
        end_stream: bool,
    },
    /// DATA on a live stream. The payload buffer is pool-recycled:
    /// dropping the event returns it to the free list.
    Data {
        stream: u32,
        data: bytes::Bytes,
        end_stream: bool,
    },
    /// DATA that arrived for a stream we already reset (e.g. a cancelled
    /// push): delivered separately so callers can count wasted bytes.
    CancelledData { stream: u32, len: usize },
    /// Peer reserved `promised` for a push tied to our `stream`.
    PushPromise {
        stream: u32,
        promised: u32,
        fields: Vec<(String, String)>,
    },
    /// Peer reset a stream. `data_sent` is how many DATA payload bytes
    /// we had already emitted on it (waste accounting for pushes).
    Reset {
        stream: u32,
        code: u32,
        data_sent: u64,
    },
    /// Unrecoverable connection error; the caller should abort.
    ProtocolError(MuxError),
}

#[derive(Debug, Default)]
struct Stream {
    send_window: i64,
    sendq: VecDeque<u8>,
    /// Caller finished writing; emit END_STREAM with the last chunk.
    send_end: bool,
    /// END_STREAM has gone out in this direction.
    local_done: bool,
    /// Peer signalled END_STREAM.
    remote_done: bool,
    /// DATA payload bytes emitted on this stream so far.
    data_sent: u64,
    /// Received payload bytes not yet returned to the peer's window.
    recv_consumed: u32,
}

/// One multiplexed connection endpoint. See module docs for the I/O
/// contract.
#[derive(Debug)]
pub struct MuxConn {
    role: Role,
    parser: FrameParser,
    events: VecDeque<MuxEvent>,
    streams: BTreeMap<u32, Stream>,
    /// Streams we reset (or saw reset) — arriving DATA becomes
    /// [`MuxEvent::CancelledData`].
    cancelled: BTreeSet<u32>,
    next_local_id: u32,
    /// Highest remote-initiated id seen (for server: client streams).
    highest_remote: u32,
    conn_send_window: i64,
    conn_recv_consumed: u32,
    /// Peer's INITIAL_WINDOW_SIZE for streams we send on.
    peer_initial_window: u32,
    peer_enable_push: bool,
    outbuf: Vec<u8>,
    /// Round-robin cursor: next DATA scheduling pass starts above this id.
    rr_last: u32,
    dead: bool,
}

impl MuxConn {
    /// Client endpoint: queues the connection preface and a SETTINGS
    /// frame advertising whether pushes are welcome.
    pub fn client(accept_push: bool) -> MuxConn {
        let mut conn = MuxConn::new(Role::Client, FrameParser::new());
        conn.outbuf.extend_from_slice(crate::PREFACE);
        conn.queue_frame(&Frame {
            stream: 0,
            flags: 0,
            // Once per connection, off the per-frame path.
            // simlint: allow(hot-path-alloc)
            payload: FramePayload::Settings(vec![
                (SETTING_ENABLE_PUSH, accept_push as u32),
                (SETTING_INITIAL_WINDOW, DEFAULT_WINDOW),
            ]),
        });
        conn
    }

    /// Server endpoint: expects the preface at the head of the first
    /// `feed()` and answers with its own SETTINGS.
    pub fn server() -> MuxConn {
        let mut conn = MuxConn::new(Role::Server, FrameParser::with_preface());
        conn.queue_frame(&Frame {
            stream: 0,
            flags: 0,
            // Once per connection, off the per-frame path.
            // simlint: allow(hot-path-alloc)
            payload: FramePayload::Settings(vec![(SETTING_INITIAL_WINDOW, DEFAULT_WINDOW)]),
        });
        conn
    }

    fn new(role: Role, parser: FrameParser) -> MuxConn {
        MuxConn {
            role,
            parser,
            events: VecDeque::new(),
            streams: BTreeMap::new(),
            cancelled: BTreeSet::new(),
            next_local_id: match role {
                Role::Client => 1,
                Role::Server => 2,
            },
            highest_remote: 0,
            conn_send_window: DEFAULT_WINDOW as i64,
            conn_recv_consumed: 0,
            peer_initial_window: DEFAULT_WINDOW,
            peer_enable_push: false,
            outbuf: Vec::new(), // simlint: allow(hot-path-alloc) — constructor
            rr_last: 0,
            dead: false,
        }
    }

    /// Whether the peer advertised ENABLE_PUSH (meaningful on servers).
    pub fn peer_push_enabled(&self) -> bool {
        self.peer_enable_push
    }

    /// Streams with state still held (open in at least one direction).
    pub fn open_streams(&self) -> usize {
        self.streams.len()
    }

    /// True once every queued byte has been handed out via
    /// `take_output()` and no stream holds undrained DATA.
    pub fn idle(&self) -> bool {
        self.outbuf.is_empty() && self.streams.values().all(|s| s.sendq.is_empty())
    }

    /// DATA bytes queued or in flight that flow control is holding back.
    pub fn pending_send_bytes(&self) -> usize {
        self.streams.values().map(|s| s.sendq.len()).sum()
    }

    /// Wire bytes queued for `take_output()`.
    pub fn output_len(&self) -> usize {
        self.outbuf.len()
    }

    /// Whether a stream has been reset (locally or by the peer).
    pub fn is_cancelled(&self, stream: u32) -> bool {
        self.cancelled.contains(&stream)
    }

    // ---- sending ----------------------------------------------------

    /// Open a new locally-initiated stream with a HEADERS frame and
    /// return its id (odd for clients, even for servers).
    pub fn open_stream(&mut self, fields: &[(String, String)], end_stream: bool) -> u32 {
        let id = self.next_local_id;
        self.next_local_id += 2;
        self.insert_stream(id);
        self.send_headers(id, fields, end_stream);
        id
    }

    /// HEADERS on an existing stream (server response, or trailer-less
    /// pushed response headers).
    pub fn send_headers(&mut self, stream: u32, fields: &[(String, String)], end_stream: bool) {
        if self.cancelled.contains(&stream) {
            return; // stream was reset — don't resurrect it
        }
        if !self.streams.contains_key(&stream) {
            self.insert_stream(stream);
        }
        self.queue_frame(&Frame {
            stream,
            flags: if end_stream { FLAG_END_STREAM } else { 0 },
            payload: FramePayload::Headers(fields.to_vec()),
        });
        if end_stream {
            self.mark_local_done(stream);
        }
    }

    /// Reserve an even stream for a push tied to client stream
    /// `parent`; serialized before any later frames, so callers emit the
    /// promise before the parent response HEADERS.
    pub fn push_promise(&mut self, parent: u32, fields: &[(String, String)]) -> u32 {
        debug_assert_eq!(self.role, Role::Server, "only servers push");
        let promised = self.next_local_id;
        self.next_local_id += 2;
        self.insert_stream(promised);
        self.queue_frame(&Frame {
            stream: parent,
            flags: 0,
            payload: FramePayload::PushPromise {
                promised,
                fields: fields.to_vec(),
            },
        });
        promised
    }

    /// Queue body bytes on a stream; they drain through the round-robin
    /// scheduler as windows allow. `end_stream` closes our direction
    /// after the final queued byte is emitted.
    pub fn send_data(&mut self, stream: u32, data: &[u8], end_stream: bool) {
        let Some(st) = self.streams.get_mut(&stream) else {
            return; // stream already reset — drop silently
        };
        st.sendq.extend(data.iter().copied());
        st.send_end |= end_stream;
        self.pump_data();
    }

    /// Abort a stream. Unsent queued DATA is dropped; returns the DATA
    /// payload bytes that had already been emitted on it.
    pub fn reset_stream(&mut self, stream: u32, code: u32) -> u64 {
        let sent = self
            .streams
            .remove(&stream)
            .map(|s| s.data_sent)
            .unwrap_or(0);
        self.cancelled.insert(stream);
        self.queue_frame(&Frame {
            stream,
            flags: 0,
            payload: FramePayload::RstStream(code),
        });
        sent
    }

    // ---- receiving --------------------------------------------------

    /// Feed bytes received from the socket; semantic events become
    /// available via [`MuxConn::poll_event`].
    pub fn feed(&mut self, data: &[u8]) {
        if self.dead {
            return;
        }
        self.parser.feed(data);
        loop {
            match self.parser.next_frame() {
                Ok(Some(frame)) => self.handle_frame(frame),
                Ok(None) => break,
                Err(e) => {
                    self.dead = true;
                    self.events
                        .push_back(MuxEvent::ProtocolError(MuxError::Frame(e)));
                    break;
                }
            }
            if self.dead {
                break;
            }
        }
        self.pump_data();
    }

    /// Next decoded event, if any.
    pub fn poll_event(&mut self) -> Option<MuxEvent> {
        self.events.pop_front()
    }

    // ---- output -----------------------------------------------------

    /// True if wire bytes are waiting for `take_output()`.
    pub fn has_output(&self) -> bool {
        !self.outbuf.is_empty()
    }

    /// Move up to `max` queued wire bytes onto `out`.
    pub fn take_output(&mut self, max: usize, out: &mut Vec<u8>) -> usize {
        let n = self.outbuf.len().min(max);
        out.extend_from_slice(&self.outbuf[..n]);
        self.outbuf.drain(..n);
        n
    }

    // ---- internals --------------------------------------------------

    fn insert_stream(&mut self, id: u32) {
        self.streams.insert(
            id,
            Stream {
                send_window: self.peer_initial_window as i64,
                ..Stream::default()
            },
        );
    }

    fn queue_frame(&mut self, frame: &Frame) {
        frame.encode_into(&mut self.outbuf);
    }

    fn mark_local_done(&mut self, stream: u32) {
        if let Some(st) = self.streams.get_mut(&stream) {
            st.local_done = true;
            if st.remote_done {
                self.streams.remove(&stream);
            }
        }
    }

    fn mark_remote_done(&mut self, stream: u32) {
        if let Some(st) = self.streams.get_mut(&stream) {
            st.remote_done = true;
            if st.local_done {
                self.streams.remove(&stream);
            }
        }
    }

    fn fatal(&mut self, what: &'static str) {
        self.dead = true;
        self.events
            .push_back(MuxEvent::ProtocolError(MuxError::Protocol(what)));
    }

    fn handle_frame(&mut self, frame: Frame) {
        match frame.payload {
            FramePayload::Settings(ref items) => {
                if frame.flags & FLAG_ACK != 0 {
                    return; // our settings were acknowledged — nothing to do
                }
                for &(id, value) in items {
                    match id {
                        SETTING_ENABLE_PUSH => self.peer_enable_push = value != 0,
                        SETTING_INITIAL_WINDOW => {
                            let delta = value as i64 - self.peer_initial_window as i64;
                            self.peer_initial_window = value;
                            for st in self.streams.values_mut() {
                                st.send_window += delta;
                            }
                        }
                        _ => {} // unknown settings are ignored
                    }
                }
                self.queue_frame(&Frame {
                    stream: 0,
                    flags: FLAG_ACK,
                    // Empty Vec::new() never allocates.
                    // simlint: allow(hot-path-alloc)
                    payload: FramePayload::Settings(Vec::new()),
                });
                self.events.push_back(MuxEvent::Settings {
                    enable_push: self.peer_enable_push,
                });
            }
            FramePayload::Headers(fields) => {
                if frame.stream == 0 || !self.valid_remote_or_local(frame.stream) {
                    return self.fatal("HEADERS on invalid stream id");
                }
                let end = frame.flags & FLAG_END_STREAM != 0;
                if self.cancelled.contains(&frame.stream) {
                    return; // late headers on a stream we reset
                }
                if self.is_remote_initiated(frame.stream)
                    && !self.streams.contains_key(&frame.stream)
                {
                    if frame.stream <= self.highest_remote {
                        return self.fatal("remote stream id not increasing");
                    }
                    self.highest_remote = frame.stream;
                    self.insert_stream(frame.stream);
                }
                if end {
                    self.mark_remote_done(frame.stream);
                }
                self.events.push_back(MuxEvent::Headers {
                    stream: frame.stream,
                    fields,
                    end_stream: end,
                });
            }
            FramePayload::Data(data) => {
                if frame.stream == 0 {
                    return self.fatal("DATA on stream 0");
                }
                let len = data.len();
                // Connection-level receive accounting happens even for
                // cancelled streams — those bytes consumed the window.
                self.account_recv(frame.stream, len);
                if self.cancelled.contains(&frame.stream) {
                    self.events.push_back(MuxEvent::CancelledData {
                        stream: frame.stream,
                        len,
                    });
                    return;
                }
                if !self.streams.contains_key(&frame.stream) {
                    return; // DATA on a fully-closed stream: drop
                }
                let end = frame.flags & FLAG_END_STREAM != 0;
                if end {
                    self.mark_remote_done(frame.stream);
                }
                self.events.push_back(MuxEvent::Data {
                    stream: frame.stream,
                    data,
                    end_stream: end,
                });
            }
            FramePayload::PushPromise { promised, fields } => {
                if self.role != Role::Client {
                    return self.fatal("PUSH_PROMISE sent to server");
                }
                if promised % 2 != 0 || promised <= self.highest_remote {
                    return self.fatal("bad promised stream id");
                }
                self.highest_remote = promised;
                self.insert_stream(promised);
                self.events.push_back(MuxEvent::PushPromise {
                    stream: frame.stream,
                    promised,
                    fields,
                });
            }
            FramePayload::WindowUpdate(increment) => {
                if frame.stream == 0 {
                    self.conn_send_window += increment as i64;
                } else if let Some(st) = self.streams.get_mut(&frame.stream) {
                    st.send_window += increment as i64;
                }
                // Updates for unknown/closed streams are stale — ignore.
            }
            FramePayload::RstStream(code) => {
                let sent = self
                    .streams
                    .remove(&frame.stream)
                    .map(|s| s.data_sent)
                    .unwrap_or(0);
                self.cancelled.insert(frame.stream);
                self.events.push_back(MuxEvent::Reset {
                    stream: frame.stream,
                    code,
                    data_sent: sent,
                });
            }
        }
    }

    fn is_remote_initiated(&self, stream: u32) -> bool {
        match self.role {
            Role::Client => stream % 2 == 0,
            Role::Server => stream % 2 == 1,
        }
    }

    fn valid_remote_or_local(&self, stream: u32) -> bool {
        if self.is_remote_initiated(stream) {
            true
        } else {
            // HEADERS on a locally-initiated stream must reference one
            // we actually opened.
            stream < self.next_local_id
        }
    }

    /// Receiver-side flow control: track consumed bytes and hand the
    /// window back once half of it is used, per stream and connection.
    fn account_recv(&mut self, stream: u32, len: usize) {
        let len = len as u32;
        self.conn_recv_consumed += len;
        if self.conn_recv_consumed >= DEFAULT_WINDOW / 2 {
            let inc = self.conn_recv_consumed;
            self.conn_recv_consumed = 0;
            self.queue_frame(&Frame {
                stream: 0,
                flags: 0,
                payload: FramePayload::WindowUpdate(inc),
            });
        }
        let mut update = None;
        if let Some(st) = self.streams.get_mut(&stream) {
            st.recv_consumed += len;
            if st.recv_consumed >= DEFAULT_WINDOW / 2 && !st.remote_done {
                update = Some(st.recv_consumed);
                st.recv_consumed = 0;
            }
        }
        if let Some(inc) = update {
            self.queue_frame(&Frame {
                stream,
                flags: 0,
                payload: FramePayload::WindowUpdate(inc),
            });
        }
    }

    /// Round-robin DATA scheduler: starting after the last-served
    /// stream, emit one ≤[`MAX_FRAME_PAYLOAD`] frame per eligible stream
    /// per pass while connection and stream windows allow.
    fn pump_data(&mut self) {
        loop {
            let mut progressed = false;
            // One pass: every stream with queued data gets at most one
            // frame, in id order starting above the round-robin cursor.
            let ids: Vec<u32> = self
                .streams
                .iter()
                .filter(|(_, s)| !s.sendq.is_empty() || (s.send_end && !s.local_done))
                .map(|(&id, _)| id)
                .collect();
            if ids.is_empty() || self.conn_send_window <= 0 {
                // Bare END_STREAM frames (empty sendq) don't need window.
                if !self.flush_bare_fins(&ids) {
                    break;
                }
                continue;
            }
            let start = ids.partition_point(|&id| id <= self.rr_last);
            for idx in (start..ids.len()).chain(0..start) {
                let id = ids[idx];
                if self.emit_chunk(id) {
                    progressed = true;
                    self.rr_last = id;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Emit END_STREAM-only DATA frames for streams whose queue drained
    /// but whose fin hasn't gone out; these bypass flow control.
    fn flush_bare_fins(&mut self, ids: &[u32]) -> bool {
        let mut any = false;
        for &id in ids {
            let Some(st) = self.streams.get(&id) else {
                continue;
            };
            if st.sendq.is_empty() && st.send_end && !st.local_done {
                Frame::encode_data_into(id, FLAG_END_STREAM, &[], &[], &mut self.outbuf);
                self.mark_local_done(id);
                any = true;
            }
        }
        any
    }

    /// One scheduler step for `id`: emit up to one DATA frame within
    /// both windows. Returns whether bytes (or a fin) went out.
    fn emit_chunk(&mut self, id: u32) -> bool {
        let conn_window = self.conn_send_window;
        let Some(st) = self.streams.get_mut(&id) else {
            return false;
        };
        if st.sendq.is_empty() {
            if st.send_end && !st.local_done {
                Frame::encode_data_into(id, FLAG_END_STREAM, &[], &[], &mut self.outbuf);
                self.mark_local_done(id);
                return true;
            }
            return false;
        }
        let allow = st
            .sendq
            .len()
            .min(MAX_FRAME_PAYLOAD)
            .min(st.send_window.max(0) as usize)
            .min(conn_window.max(0) as usize);
        if allow == 0 {
            return false;
        }
        st.send_window -= allow as i64;
        st.data_sent += allow as u64;
        self.conn_send_window -= allow as i64;
        let fin = st.sendq.len() == allow && st.send_end;
        // Encode straight out of the send queue's two ring slices: the
        // scheduler emits one DATA frame per pass with zero payload
        // copies beyond the one onto the wire buffer.
        let (head, tail) = st.sendq.as_slices();
        let h = head.len().min(allow);
        Frame::encode_data_into(
            id,
            if fin { FLAG_END_STREAM } else { 0 },
            &head[..h],
            &tail[..allow - h],
            &mut self.outbuf,
        );
        st.sendq.drain(..allow);
        if fin {
            self.mark_local_done(id);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shuttle all pending bytes from `a` to `b`.
    fn pump(a: &mut MuxConn, b: &mut MuxConn) {
        loop {
            let mut wire = Vec::new();
            a.take_output(usize::MAX, &mut wire);
            if wire.is_empty() {
                break;
            }
            b.feed(&wire);
        }
    }

    fn drain(conn: &mut MuxConn) -> Vec<MuxEvent> {
        let mut out = Vec::new();
        while let Some(ev) = conn.poll_event() {
            out.push(ev);
        }
        out
    }

    fn req(path: &str) -> Vec<(String, String)> {
        vec![
            (":method".into(), "GET".into()),
            (":path".into(), path.into()),
        ]
    }

    #[test]
    fn request_response_over_one_stream() {
        let mut client = MuxConn::client(false);
        let mut server = MuxConn::server();
        let s = client.open_stream(&req("/index.html"), true);
        assert_eq!(s, 1);
        pump(&mut client, &mut server);
        let evs = drain(&mut server);
        assert!(matches!(evs[0], MuxEvent::Settings { enable_push: false }));
        assert!(
            matches!(&evs[1], MuxEvent::Headers { stream: 1, end_stream: true, fields } if fields[1].1 == "/index.html")
        );
        server.send_headers(1, &[(":status".into(), "200".into())], false);
        server.send_data(1, b"<html>hi</html>", true);
        pump(&mut server, &mut client);
        let evs = drain(&mut client);
        assert!(matches!(evs[0], MuxEvent::Settings { .. }));
        assert!(matches!(
            &evs[1],
            MuxEvent::Headers {
                stream: 1,
                end_stream: false,
                ..
            }
        ));
        assert!(
            matches!(&evs[2], MuxEvent::Data { stream: 1, data, end_stream: true } if data[..] == b"<html>hi</html>"[..])
        );
        assert_eq!(client.open_streams(), 0);
        assert_eq!(server.open_streams(), 0);
    }

    #[test]
    fn data_interleaves_round_robin_across_streams() {
        let mut client = MuxConn::client(false);
        let mut server = MuxConn::server();
        let a = client.open_stream(&req("/a"), true);
        let b = client.open_stream(&req("/b"), true);
        pump(&mut client, &mut server);
        drain(&mut server);
        server.send_headers(a, &[(":status".into(), "200".into())], false);
        server.send_headers(b, &[(":status".into(), "200".into())], false);
        // Both bodies exceed the 64 KiB connection window, so after the
        // first burst the scheduler serves the two streams round-robin
        // as WINDOW_UPDATEs come back.
        server.send_data(a, &vec![b'a'; 100_000], true);
        server.send_data(b, &vec![b'b'; 100_000], true);
        for _ in 0..16 {
            pump(&mut server, &mut client);
            pump(&mut client, &mut server);
        }
        let order: Vec<u32> = drain(&mut client)
            .iter()
            .filter_map(|e| match e {
                MuxEvent::Data { stream, data, .. } if !data.is_empty() => Some(*stream),
                _ => None,
            })
            .collect();
        let last_a = order.iter().rposition(|&s| s == a).unwrap();
        let last_b = order.iter().rposition(|&s| s == b).unwrap();
        let first_a = order.iter().position(|&s| s == a).unwrap();
        let first_b = order.iter().position(|&s| s == b).unwrap();
        assert!(
            first_b < last_a && first_a < last_b,
            "streams did not interleave: {order:?}"
        );
    }

    #[test]
    fn flow_control_stalls_and_window_update_resumes() {
        let mut client = MuxConn::client(false);
        let mut server = MuxConn::server();
        let s = client.open_stream(&req("/big"), true);
        pump(&mut client, &mut server);
        drain(&mut server);
        let body = vec![0u8; 200_000];
        server.send_headers(s, &[(":status".into(), "200".into())], false);
        server.send_data(s, &body, true);
        // Without feeding the client, the server can emit at most the
        // connection window's worth of DATA.
        let mut wire = Vec::new();
        server.take_output(usize::MAX, &mut wire);
        assert!(
            server.pending_send_bytes() > 0,
            "everything fit in one window?"
        );
        // Deliver to the client; its auto WINDOW_UPDATEs flow back.
        client.feed(&wire);
        pump(&mut client, &mut server);
        pump(&mut server, &mut client);
        // A few more round trips to fully drain.
        for _ in 0..8 {
            pump(&mut client, &mut server);
            pump(&mut server, &mut client);
        }
        let got: usize = drain(&mut client)
            .iter()
            .map(|e| match e {
                MuxEvent::Data { data, .. } => data.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(got, body.len());
        assert!(server.idle());
    }

    #[test]
    fn push_promise_reserves_even_stream_and_cancel_reports_waste() {
        let mut client = MuxConn::client(true);
        let mut server = MuxConn::server();
        let s = client.open_stream(&req("/page"), true);
        pump(&mut client, &mut server);
        drain(&mut server);
        assert!(server.peer_push_enabled());
        let p = server.push_promise(s, &req("/style.css"));
        assert_eq!(p % 2, 0);
        server.send_headers(s, &[(":status".into(), "200".into())], true);
        server.send_headers(p, &[(":status".into(), "200".into())], false);
        server.send_data(p, &vec![b'c'; 5_000], false);
        pump(&mut server, &mut client);
        let evs = drain(&mut client);
        assert!(evs.iter().any(
            |e| matches!(e, MuxEvent::PushPromise { stream, promised, .. } if *stream == s && *promised == p)
        ));
        // Client cancels the push mid-flight.
        client.reset_stream(p, crate::ERR_CANCEL);
        pump(&mut client, &mut server);
        let evs = drain(&mut server);
        let waste = evs
            .iter()
            .find_map(|e| match e {
                MuxEvent::Reset {
                    stream, data_sent, ..
                } if *stream == p => Some(*data_sent),
                _ => None,
            })
            .unwrap();
        assert_eq!(waste, 5_000);
        // Server keeps (pointlessly) sending on the cancelled stream —
        // client reports it as cancelled data, not stream data.
        server.send_data(p, b"late", true);
        pump(&mut server, &mut client);
        let evs = drain(&mut client);
        assert!(
            evs.is_empty()
                || evs
                    .iter()
                    .all(|e| matches!(e, MuxEvent::CancelledData { .. }))
        );
    }

    #[test]
    fn protocol_errors_surface_and_kill_the_connection() {
        let mut server = MuxConn::server();
        server.feed(b"GET / HTTP/1.0\r\n\r\n");
        let evs = drain(&mut server);
        assert!(matches!(
            evs.last(),
            Some(MuxEvent::ProtocolError(MuxError::Frame(
                FrameError::BadPreface
            )))
        ));

        // Client receiving a PUSH_PROMISE with an odd promised id.
        let mut client = MuxConn::client(true);
        let bad = Frame {
            stream: 1,
            flags: 0,
            payload: FramePayload::PushPromise {
                promised: 7,
                fields: vec![],
            },
        };
        client.feed(&bad.encode());
        let evs = drain(&mut client);
        assert!(matches!(
            evs.last(),
            Some(MuxEvent::ProtocolError(MuxError::Protocol(_)))
        ));
    }

    #[test]
    fn deterministic_byte_stream() {
        let run = || {
            let mut client = MuxConn::client(true);
            let mut server = MuxConn::server();
            let s1 = client.open_stream(&req("/x"), true);
            let s2 = client.open_stream(&req("/y"), true);
            let mut wire = Vec::new();
            client.take_output(usize::MAX, &mut wire);
            server.feed(&wire);
            while server.poll_event().is_some() {}
            server.send_headers(s1, &[(":status".into(), "200".into())], false);
            server.send_headers(s2, &[(":status".into(), "200".into())], false);
            server.send_data(s1, &vec![1u8; 30_000], true);
            server.send_data(s2, &vec![2u8; 30_000], true);
            let mut out = wire;
            server.take_output(usize::MAX, &mut out);
            out
        };
        assert_eq!(run(), run());
    }
}
