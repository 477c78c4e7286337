//! R18 fixture: `pump` holds the `buffer` guard across a socket read,
//! `stamp` holds the *protected* `epoch` guard across one — the
//! `// GUARD:` justification on `stamp` is deliberately ignored because
//! `epoch` is on the protected list — and `answer` and `answer_cached`
//! hold `buffer` across a kernel entry.

use std::io::Read;
use std::net::TcpStream;
use std::sync::Mutex;

use nsky_graph::Graph;
use nsky_server::engine::{execute_query, execute_read};
use nsky_server::json::Value;

struct Relay {
    buffer: Mutex<Vec<u8>>,
    epoch: Mutex<u64>,
}

fn pump(r: &Relay, stream: &mut TcpStream) -> usize {
    let mut buf = match r.buffer.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut chunk = [0_u8; 64];
    let n = stream.read(&mut chunk).unwrap_or(0);
    buf.extend_from_slice(&chunk[..n]);
    buf.len()
}

fn stamp(r: &Relay, stream: &mut TcpStream) -> u64 {
    // GUARD: justifications cannot waive a protected lock
    let mut e = match r.epoch.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut probe = [0_u8; 1];
    let _ = stream.read(&mut probe);
    *e = e.wrapping_add(1);
    *e
}

fn answer(r: &Relay, g: &Graph, req: &Value) -> usize {
    let buf = match r.buffer.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let _ = execute_query(g, req);
    buf.len()
}

fn answer_cached(r: &Relay, g: &Graph, req: &Value) -> usize {
    let buf = match r.buffer.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let _ = execute_read(g, None, req);
    buf.len()
}
