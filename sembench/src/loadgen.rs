//! Load generation over pipelined (protocol v2) connections.
//!
//! Two shapes, both built on plain sockets and the daemon's public
//! frame codec so the generator adds no retries or reconnects of its
//! own:
//!
//! * [`open_loop`] — one connection, one sender thread that writes each
//!   request at its scheduled due time and one receiver thread. Latency
//!   is measured from the due time, so a stall also charges the
//!   requests that queued behind it; the sender's own lateness is kept
//!   to judge whether the generator kept up.
//! * [`saturate`] — one connection per call, a fixed in-flight window,
//!   one thread: a closed loop that keeps the server busy to measure
//!   capacity.

use sempair_net::proto::{self, PipelinedRequest, Request, Response};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest wait for any one reply before the request counts as timed
/// out (and the connection is abandoned).
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The outcome of one request: when it was sent, and its reply (`None`
/// on timeout or transport failure).
#[derive(Debug, Clone)]
pub struct Exchange {
    pub sent: Instant,
    pub reply: Option<(Instant, Response)>,
}

pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    // Requests are small and independent: do not let Nagle hold one
    // back waiting for the previous one's acknowledgement.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

/// The full v2 frame for `request` under `(session, req_id)`.
pub fn frame(session: u64, req_id: u64, request: Request) -> Vec<u8> {
    proto::encode_pipelined_request(&PipelinedRequest {
        session,
        req_id,
        inner: request,
    })
    .expect("benchmark requests fit in a frame")
}

/// Reads one pipelined reply frame.
fn read_reply(reader: &mut impl Read) -> std::io::Result<(u64, Response)> {
    let mut len = [0u8; 4];
    reader.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > proto::MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "oversized reply",
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    proto::decode_response(&payload)
        .and_then(|outer| proto::decode_pipelined_reply(&outer.body))
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "not a pipelined reply"))
}

/// Result of an open-loop phase: per request, its due time, and the
/// exchange. Request `i` was sent under request id `i + 1`.
pub struct OpenLoop {
    pub due: Vec<Instant>,
    pub exchanges: Vec<Exchange>,
}

/// Sends `frames[i]` at `start + offsets[i]` on one connection and
/// collects every reply. Frames must carry request id `i + 1`.
pub fn open_loop(
    addr: SocketAddr,
    start: Instant,
    offsets: &[Duration],
    frames: &[Vec<u8>],
) -> std::io::Result<OpenLoop> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let due: Vec<Instant> = offsets.iter().map(|o| start + *o).collect();
    let mut sent: Vec<Instant> = Vec::with_capacity(frames.len());
    let mut replies: Vec<Option<(Instant, Response)>> = vec![None; frames.len()];
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            for (due, frame) in due.iter().zip(frames) {
                let now = Instant::now();
                if *due > now {
                    std::thread::sleep(*due - now);
                }
                sent.push(Instant::now());
                if writer.write_all(frame).is_err() {
                    break;
                }
            }
        });
        let mut reader = BufReader::new(&stream);
        let mut received = 0;
        while received < frames.len() {
            let Ok((req_id, response)) = read_reply(&mut reader) else {
                break;
            };
            let at = Instant::now();
            let slot = req_id
                .checked_sub(1)
                .and_then(|i| replies.get_mut(i as usize));
            if let Some(slot @ None) = slot {
                *slot = Some((at, response));
                received += 1;
            }
        }
        sender.join().expect("open-loop sender thread");
    });
    let _ = stream.shutdown(std::net::Shutdown::Both);
    // A sender that stopped early leaves later requests unsent: they
    // count as sent at their due time with no reply.
    let exchanges = due
        .iter()
        .enumerate()
        .map(|(i, due)| Exchange {
            sent: sent.get(i).copied().unwrap_or(*due),
            reply: replies[i].take(),
        })
        .collect();
    Ok(OpenLoop { due, exchanges })
}

/// Result of one saturation connection. Request `i` was sent under
/// request id `i + 1`.
pub struct Saturation {
    pub exchanges: Vec<Exchange>,
}

/// Keeps `window` requests in flight on one connection until `end` or
/// until `next` runs dry, then drains. `next(i)` builds the frame for
/// request `i` (request id `i + 1`).
pub fn saturate(
    addr: SocketAddr,
    window: usize,
    end: Instant,
    mut next: impl FnMut(u64) -> Option<Vec<u8>>,
) -> std::io::Result<Saturation> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(&stream);
    let mut exchanges: Vec<Exchange> = Vec::new();
    let mut outstanding = 0usize;
    // Writes the next request; `false` once there is none.
    let mut submit = |exchanges: &mut Vec<Exchange>| -> std::io::Result<bool> {
        let Some(frame) = next(exchanges.len() as u64) else {
            return Ok(false);
        };
        exchanges.push(Exchange {
            sent: Instant::now(),
            reply: None,
        });
        writer.write_all(&frame)?;
        Ok(true)
    };
    while outstanding < window && Instant::now() < end && submit(&mut exchanges)? {
        outstanding += 1;
    }
    while outstanding > 0 {
        let Ok((req_id, response)) = read_reply(&mut reader) else {
            break;
        };
        let at = Instant::now();
        let slot = req_id
            .checked_sub(1)
            .and_then(|i| exchanges.get_mut(i as usize));
        if let Some(x @ Exchange { reply: None, .. }) = slot {
            x.reply = Some((at, response));
            outstanding -= 1;
        }
        if at < end && submit(&mut exchanges)? {
            outstanding += 1;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    Ok(Saturation { exchanges })
}
