//! The open-loop client: a fixed arrival schedule over at most `conns`
//! connections, one client thread per connection.
//!
//! Requests go out when they are due, whether or not earlier ones have
//! been answered; a request that finds no free connection waits in the
//! generator's backlog, and its latency still counts from its due time.
//! Each frame leaves in a single `write` on a `TCP_NODELAY` socket, and a
//! reply is stamped when the read that delivered its last byte returns,
//! before anything decodes it. (The standard library has no readiness
//! API, so one thread serving several sockets would have to poll them,
//! and polling takes CPU from the server's workers on a small machine.)

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::oracle::{self, Digest};
use crate::workload::{Request, Transport};

/// How long a client thread waits for outstanding replies after the last
/// request went out before it counts them as lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// When the request was due, in ns after the phase started.
    pub due_ns: u64,
    /// When its frame was written.
    pub sent_ns: u64,
    /// When the last byte of its reply arrived.
    pub done_ns: u64,
    /// Reply length in bytes, newline included (0 without a reply).
    pub bytes: usize,
    /// The reply's digest, or why there is no answer. Replies are
    /// digested as they arrive (after the stamp), so a run never holds
    /// their text.
    pub reply: Result<Digest, String>,
}

impl Exchange {
    /// Latency from the due time to the reply's last byte, in ms.
    pub fn latency_ms(&self) -> f64 {
        // CAST: nanosecond spans of one run are far below 2^53.
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// The result of driving one phase.
#[derive(Debug)]
pub struct Phase {
    /// One entry per request, in request order.
    pub exchanges: Vec<Exchange>,
    /// Most requests that were due but still waiting for a connection.
    pub backlog_max: usize,
    /// The instant every offset of the phase is measured from.
    pub start: Instant,
}

/// Sends `frames` one at a time, each after the previous reply, on one
/// connection (a fresh one per frame when `fresh`). Each frame is due
/// when it is sent, so its latency is its round trip.
pub fn sequential(addr: SocketAddr, frames: &[&str], fresh: bool) -> io::Result<Phase> {
    let connect = || -> io::Result<(TcpStream, BufReader<TcpStream>)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DRAIN_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok((stream, reader))
    };
    let start = Instant::now();
    let now_ns = || u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut conn = if fresh { None } else { Some(connect()?) };
    let mut out = Vec::with_capacity(frames.len());
    for frame in frames {
        let sent_ns = now_ns();
        let (stream, reader) = match conn.as_mut() {
            Some(c) => c,
            None => conn.insert(connect()?),
        };
        stream.write_all(frame.as_bytes())?;
        let mut line = String::new();
        let reply = match reader.read_line(&mut line) {
            Ok(0) => Err("eof"),
            Ok(_) => Ok(line),
            Err(_) => Err("reset"),
        };
        out.push(received(sent_ns, sent_ns, now_ns(), reply));
        if fresh {
            conn = None;
        }
    }
    Ok(Phase {
        exchanges: out,
        backlog_max: 0,
        start,
    })
}

/// Drives `reqs` against `addr` on their schedule with `conns` client
/// threads, one connection each, and waits for every reply (or
/// [`DRAIN_TIMEOUT`] after the last due time).
///
/// On persistent connections, request `i` goes out on connection
/// `i % conns`, pipelined behind whatever that connection still has in
/// flight. With fresh connections, whichever thread is free takes the
/// next request, so a request waits for a thread only when all `conns`
/// are busy. Threads block in `read` until a reply arrives or their next
/// request falls due, so driving costs the server's cores almost nothing.
pub fn drive(
    addr: SocketAddr,
    transport: Transport,
    conns: usize,
    reqs: &[Request],
) -> io::Result<Phase> {
    let streams: Vec<TcpStream> = match transport {
        Transport::Persistent => (0..conns)
            .map(|_| connect(addr))
            .collect::<io::Result<_>>()?,
        Transport::Fresh => Vec::new(),
    };
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let per_thread: Vec<Vec<(usize, Exchange)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = match transport {
            Transport::Persistent => streams
                .into_iter()
                .enumerate()
                .map(|(t, stream)| scope.spawn(move || pipelined(stream, reqs, t, conns, start)))
                .collect(),
            Transport::Fresh => (0..conns)
                .map(|_| scope.spawn(|| one_per_connection(addr, reqs, &next, start)))
                .collect(),
        };
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut exchanges: Vec<Option<Exchange>> = vec![None; reqs.len()];
    for (i, x) in per_thread.into_iter().flatten() {
        exchanges[i] = Some(x);
    }
    let exchanges: Vec<Exchange> = exchanges
        .into_iter()
        .map(|x| x.expect("every request is settled by its thread"))
        .collect();
    Ok(Phase {
        backlog_max: backlog_max(&exchanges),
        exchanges,
        start,
    })
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn sleep_until(start: Instant, due_ns: u64) {
    let now = ns_since(start);
    if due_ns > now {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// The most requests that were due but not yet sent, just before a send.
fn backlog_max(exchanges: &[Exchange]) -> usize {
    let mut due: Vec<u64> = exchanges.iter().map(|x| x.due_ns).collect();
    let mut sent: Vec<u64> = exchanges.iter().map(|x| x.sent_ns).collect();
    due.sort_unstable();
    sent.sort_unstable();
    sent.iter()
        .enumerate()
        .map(|(k, &t)| due.partition_point(|&d| d <= t).saturating_sub(k))
        .max()
        .unwrap_or(0)
}

/// One persistent connection: sends its share of the requests when they
/// fall due and reads replies in between.
fn pipelined(
    stream: TcpStream,
    reqs: &[Request],
    thread: usize,
    stride: usize,
    start: Instant,
) -> Vec<(usize, Exchange)> {
    let mine: Vec<usize> = (thread..reqs.len()).step_by(stride).collect();
    let mut out: Vec<(usize, Exchange)> = Vec::with_capacity(mine.len());
    let mut inflight: VecDeque<(usize, u64)> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0_u8; 1 << 16];
    let mut reader = &stream;
    let mut writer = &stream;
    let drain_ns = u64::try_from(DRAIN_TIMEOUT.as_nanos()).unwrap_or(u64::MAX);
    let deadline = mine
        .last()
        .map_or(0, |&i| reqs[i].due_ns)
        .saturating_add(drain_ns);
    let mut sent = 0;
    let failure = loop {
        if sent == mine.len() && inflight.is_empty() {
            break None;
        }
        let now = ns_since(start);
        let next_due = mine.get(sent).map(|&i| reqs[i].due_ns);
        if let Some(due) = next_due.filter(|&d| d <= now) {
            let i = mine[sent];
            sent += 1;
            if writer.write_all(reqs[i].line.as_bytes()).is_err() {
                let now = ns_since(start);
                out.push((i, received(due, now, now, Err("send"))));
                break Some("send");
            }
            inflight.push_back((i, ns_since(start)));
            continue;
        }
        if inflight.is_empty() {
            sleep_until(start, next_due.unwrap_or(now));
            continue;
        }
        if now >= deadline {
            break Some("timeout");
        }
        let wait = next_due.unwrap_or(deadline).saturating_sub(now).max(1_000);
        if reader
            .set_read_timeout(Some(Duration::from_nanos(wait)))
            .is_err()
        {
            break Some("reset");
        }
        match reader.read(&mut chunk) {
            Ok(0) => break Some("eof"),
            Ok(n) => {
                let stamp = ns_since(start);
                buf.extend_from_slice(&chunk[..n]);
                while let Some(end) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=end).collect();
                    let Some((i, sent_ns)) = inflight.pop_front() else {
                        break;
                    };
                    let reply = String::from_utf8(line).map_err(|_| "utf8");
                    out.push((i, received(reqs[i].due_ns, sent_ns, stamp, reply)));
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => break Some("reset"),
        }
    };
    if let Some(reason) = failure {
        let stamp = ns_since(start);
        for (i, sent_ns) in inflight.drain(..) {
            out.push((i, received(reqs[i].due_ns, sent_ns, stamp, Err(reason))));
        }
        for &i in &mine[sent..] {
            out.push((i, received(reqs[i].due_ns, stamp, stamp, Err(reason))));
        }
    }
    out
}

/// Fresh connections: take the next request, wait until it is due,
/// connect, send, read the reply, close.
fn one_per_connection(
    addr: SocketAddr,
    reqs: &[Request],
    next: &AtomicUsize,
    start: Instant,
) -> Vec<(usize, Exchange)> {
    let mut out = Vec::new();
    loop {
        // ORDERING: the counter only hands out distinct indices; it
        // publishes no other data.
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(req) = reqs.get(i) else {
            return out;
        };
        sleep_until(start, req.due_ns);
        let sent_ns = ns_since(start);
        let reply = exchange(addr, &req.line);
        out.push((i, received(req.due_ns, sent_ns, ns_since(start), reply)));
    }
}

/// One request on its own connection; the reply is complete when its
/// newline arrives.
fn exchange(addr: SocketAddr, frame: &str) -> Result<String, &'static str> {
    let stream = connect(addr).map_err(|_| "connect")?;
    stream
        .set_read_timeout(Some(DRAIN_TIMEOUT))
        .map_err(|_| "connect")?;
    (&stream).write_all(frame.as_bytes()).map_err(|_| "send")?;
    let mut line = String::new();
    match BufReader::new(&stream).read_line(&mut line) {
        Ok(0) => Err("eof"),
        Ok(_) => Ok(line),
        Err(_) => Err("reset"),
    }
}

/// Records one request's fate; called after `done_ns` was stamped.
fn received(
    due_ns: u64,
    sent_ns: u64,
    done_ns: u64,
    reply: Result<String, &'static str>,
) -> Exchange {
    Exchange {
        due_ns,
        sent_ns,
        done_ns,
        bytes: reply.as_ref().map_or(0, String::len),
        reply: reply
            .map_err(str::to_owned)
            .and_then(|line| oracle::digest(line.trim_end())),
    }
}
