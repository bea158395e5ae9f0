//! The line protocol both tiers speak: one JSON request per line in, one
//! JSON reply per line out, in order (DESIGN.md §7).
//!
//! [`serve_lines`] is the one connection loop behind `ihtl-serve` and
//! `ihtl-router`: each tier hands it a `dispatch` closure and an idle
//! hook, and acts on the [`Closed`] reason it returns. Every line leaves through [`write_line`]
//! or [`render_line`], which render the whole reply into one buffer first.
//! Writing a [`Json`] straight to a socket would issue one `write` syscall
//! per token (`Display` writes piecewise), and with Nagle's algorithm the
//! small segments stall on the peer's delayed ACK.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown as NetShutdown, TcpStream};
use std::time::Duration;

use crate::json::Json;
use crate::proto::{Op, Request};

/// Default longest request line, newline included, on both tiers. A
/// routed `sweep` request carries the full source vector at about 21
/// bytes per vertex, so this admits graphs of roughly three million
/// vertices.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Why [`serve_lines`] returned. The connection is closed in every case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Closed {
    /// The peer closed its end or went idle, a read or write failed, or a
    /// request line reached the line limit.
    Ended,
    /// A `shutdown` request was answered; the caller stops accepting.
    Shutdown,
}

/// Renders `msg` as one wire line: the JSON text and a trailing `\n`.
pub fn render_line(msg: &Json) -> String {
    let mut line = msg.to_string();
    line.push('\n');
    line
}

/// Writes `msg` as one line with a single `write_all`.
pub fn write_line(w: &mut impl Write, msg: &Json) -> std::io::Result<()> {
    w.write_all(render_line(msg).as_bytes())
}

/// Builds the `{"ok":false,...}` reply.
pub fn error_reply(id: Option<Json>, msg: &str) -> Json {
    let mut pairs = Vec::new();
    if let Some(id) = id {
        pairs.push(("id".to_string(), id));
    }
    pairs.push(("ok".to_string(), Json::Bool(false)));
    pairs.push(("error".to_string(), Json::from(msg)));
    Json::Obj(pairs)
}

/// Builds the `{"ok":true,...}` reply around a body object.
pub fn ok_reply(id: Option<Json>, body: Json) -> Json {
    let mut pairs = Vec::new();
    if let Some(id) = id {
        pairs.push(("id".to_string(), id));
    }
    pairs.push(("ok".to_string(), Json::Bool(true)));
    if let Json::Obj(fields) = body {
        pairs.extend(fields);
    }
    Json::Obj(pairs)
}

/// Answers request lines on `stream` until the peer leaves, goes idle for
/// `idle_timeout`, sends a line of `max_line_bytes` or more (newline
/// excluded), or asks for `shutdown`. Unparseable lines get an error reply
/// and keep the connection open; parsed requests go to `dispatch`. An idle
/// peer is told so and closed; `on_idle` runs before the notice is sent,
/// so a counter it bumps is visible to anyone who saw the notice.
pub fn serve_lines(
    stream: TcpStream,
    max_line_bytes: usize,
    idle_timeout: Option<Duration>,
    mut dispatch: impl FnMut(Request) -> Json,
    on_idle: impl FnOnce(),
) -> Closed {
    // The timeout only governs reads between requests: a job in flight
    // blocks in `dispatch`, not in `read_line`, so slow jobs are unaffected.
    if idle_timeout.is_some() {
        let _ = stream.set_read_timeout(idle_timeout);
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return Closed::Ended,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        // take() bounds the line length; a longer line shows up as a "line"
        // with no terminating newline and non-empty content.
        let mut limited = (&mut reader).take(max_line_bytes as u64);
        match limited.read_line(&mut line) {
            Ok(0) => return Closed::Ended,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Idle expiry (both kinds occur across platforms). Closing
                // frees the connection thread and its file descriptor.
                on_idle();
                let _ = write_line(&mut writer, &error_reply(None, "idle timeout, closing"));
                return Closed::Ended;
            }
            Err(_) => return Closed::Ended,
        }
        if !line.ends_with('\n') && line.len() >= max_line_bytes {
            let _ = write_line(&mut writer, &error_reply(None, "request line too long"));
            return Closed::Ended;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (reply, is_shutdown) = match Request::parse(trimmed) {
            Err(msg) => (error_reply(None, &msg), false),
            Ok(req) => {
                let is_shutdown = req.op == Op::Shutdown;
                (dispatch(req), is_shutdown)
            }
        };
        if is_shutdown {
            let _ = write_line(&mut writer, &reply);
            let _ = writer.shutdown(NetShutdown::Both);
            return Closed::Shutdown;
        }
        if write_line(&mut writer, &reply).is_err() {
            return Closed::Ended;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_is_one_write_ending_in_one_newline() {
        let bits: Vec<Json> = (0..10_000u64).map(|i| Json::from(i.wrapping_mul(0x9e37))).collect();
        let reply = ok_reply(Some(Json::from(7u64)), Json::obj([("ybits", Json::Arr(bits))]));
        let mut w = CountingWriter::default();
        write_line(&mut w, &reply).expect("write to memory");
        assert_eq!(w.writes, 1, "a reply must leave in exactly one write");
        let text = String::from_utf8(w.bytes).expect("utf-8");
        assert!(text.ends_with('\n'));
        assert_eq!(text.matches('\n').count(), 1, "exactly one newline, at the end");
        assert_eq!(text.trim_end(), reply.to_string(), "framing must not change the bytes");
    }

    #[test]
    fn replies_put_id_first_and_ok() {
        let r = ok_reply(Some(Json::Num(4.0)), Json::obj([("x", Json::from(1u64))]));
        assert_eq!(r.to_string(), "{\"id\":4,\"ok\":true,\"x\":1}");
        let e = error_reply(None, "nope");
        assert_eq!(e.to_string(), "{\"ok\":false,\"error\":\"nope\"}");
    }
}
