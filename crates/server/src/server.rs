//! The daemon: accept loop, bounded queue, worker pool, disconnect
//! monitor, load shedding and drain-on-shutdown.
//!
//! Thread layout: one non-blocking accept loop, `workers` request
//! threads, and one disconnect monitor. Accepted connections flow
//! through a bounded queue; when it is full the accept loop *sheds* —
//! it answers `overloaded` with a `retry_after_ms` hint and closes,
//! instead of queueing unboundedly. A `shutdown` frame (or
//! [`ServerHandle::shutdown_and_drain`]) starts a drain: no new
//! connections are accepted, in-flight requests run to completion, and
//! once the drain deadline passes the drain [`CancelToken`] is raised so
//! still-running kernels degrade to partial answers instead of holding
//! shutdown hostage.

use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{Builder, JoinHandle};
use std::time::{Duration, Instant};

use nsky_graph::Graph;
use nsky_skyline::budget::CancelToken;
use nsky_skyline::obs::{CountingRecorder, RunReport};
use nsky_skyline::MutableSkyline;

use crate::engine::{
    execute_read, parse_update_deltas, update_epoch, EpochCache, EpochSkyline, QueryOutcome,
};
use crate::json::{self, Value};
use crate::protocol::{self, Frame, ProtocolError};

/// Tuning knobs for [`Server::start`]. `Default` is production-shaped;
/// tests shrink the timeouts and the queue to force faults fast.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Number of request worker threads.
    pub workers: usize,
    /// Bounded accept-queue depth; connections beyond it are shed.
    pub queue_capacity: usize,
    /// Per-frame byte cap (see [`protocol::read_frame`]).
    pub max_frame_bytes: usize,
    /// Slow-loris guard: max quiet time mid-frame before teardown.
    pub read_timeout: Duration,
    /// Max time a response write may stall before teardown.
    pub write_timeout: Duration,
    /// How long a drain waits for in-flight requests before raising the
    /// drain token and forcing partial answers.
    pub drain_deadline: Duration,
    /// Backoff hint attached to `overloaded` responses.
    pub retry_after_ms: u64,
    /// Deadline applied to requests that do not carry `timeout_ms`.
    pub default_timeout: Option<Duration>,
    /// Disconnect-monitor polling period.
    pub monitor_poll: Duration,
    /// Enables the `inject_poison` fault op (tests only): a request may
    /// then poison a named shared mutex to drill the recovery path in
    /// [`Shared::lock`]. Off by default; production servers reject the
    /// op like any other unknown one.
    pub fault_injection: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_capacity: 64,
            max_frame_bytes: protocol::DEFAULT_MAX_FRAME_BYTES,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(5),
            retry_after_ms: 100,
            default_timeout: None,
            monitor_poll: Duration::from_millis(10),
            fault_injection: false,
        }
    }
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted (including ones later shed is *not* counted
    /// here — shed connections are counted in `shed` only).
    pub accepted: u64,
    /// Connections refused with an `overloaded` response.
    pub shed: u64,
    /// Requests answered with `"partial": false`.
    pub completed: u64,
    /// Requests answered with `"partial": true`.
    pub partial: u64,
    /// Requests whose cancel token was raised by a disconnect.
    pub cancelled: u64,
    /// Typed protocol errors sent before teardown.
    pub protocol_errors: u64,
    /// Connections currently waiting in the accept queue.
    pub queued: usize,
    /// Requests currently executing a kernel.
    pub active: usize,
}

/// Atomic counter block shared by every server thread.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    partial: AtomicU64,
    cancelled: AtomicU64,
    protocol_errors: AtomicU64,
    active: AtomicUsize,
}

/// One in-flight request registered with the disconnect monitor.
struct MonitorEntry {
    stream: TcpStream,
    token: CancelToken,
    done: Arc<AtomicBool>,
}

/// One published graph version. Queries snapshot the current epoch
/// (one `Arc` clone under a brief lock) and run entirely against it, so
/// a concurrent `update` can never tear a read: every response is
/// computed against exactly one generation, and says which.
struct Epoch {
    /// Monotonic version; bumped by every `update` request.
    generation: u64,
    graph: Graph,
    fingerprint: u64,
    /// What depends on `graph` alone. An update fills the skyline at
    /// publish; the first request that needs a part fills it.
    cache: EpochCache,
}

struct Shared {
    /// The current graph epoch; swapped whole by `publish`.
    epoch: Mutex<Arc<Epoch>>,
    /// The serialized incremental engine behind `update` requests,
    /// created lazily from the epoch graph on the first update.
    /// Holding this lock does not block readers — they keep serving
    /// the previous epoch until the new one is published.
    updater: Mutex<Option<MutableSkyline>>,
    config: ServerConfig,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    draining: AtomicBool,
    stopped: AtomicBool,
    drain_token: CancelToken,
    counters: Counters,
    monitor: Mutex<Vec<MonitorEntry>>,
}

impl Shared {
    /// Locks a mutex, surviving a poisoned lock: a panicking worker must
    /// not wedge every other connection (and the fault suite asserts
    /// zero panics anyway).
    fn lock<'a, T>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        match m.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            partial: self.counters.partial.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            queued: self.lock(&self.queue).len(),
            active: self.counters.active.load(Ordering::Relaxed),
        }
    }

    /// The epoch every read of this request runs against.
    fn current_epoch(&self) -> Arc<Epoch> {
        Arc::clone(&self.lock(&self.epoch))
    }

    /// Publishes `graph`, whose exact skyline is `skyline`, as the next
    /// generation and returns its epoch. Called only by the (serialized)
    /// update path.
    fn publish(&self, graph: Graph, skyline: EpochSkyline) -> Arc<Epoch> {
        let fingerprint = graph.fingerprint();
        let mut slot = self.lock(&self.epoch);
        let next = Arc::new(Epoch {
            generation: slot.generation + 1,
            graph,
            fingerprint,
            cache: EpochCache::from(skyline),
        });
        *slot = Arc::clone(&next);
        next
    }

    fn is_draining(&self) -> bool {
        // ORDERING: Acquire pairs with the Release store in
        // `begin_drain` so a worker that observes the flag also observes
        // everything written before the drain started.
        self.draining.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        // ORDERING: Release pairs with the Acquire in `is_draining`.
        self.draining.store(true, Ordering::Release);
        self.notify_waiters();
    }

    /// Wakes every worker parked on `available`. The queue mutex is
    /// taken (and immediately dropped) around the notify: a worker
    /// between its predicate check and its `wait` holds that mutex, so
    /// notifying under it cannot race into the gap and go unheard.
    fn notify_waiters(&self) {
        let _held = self.lock(&self.queue);
        self.available.notify_all();
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown_and_drain`] (or send a `shutdown`
/// frame and then [`ServerHandle::join`]) to stop it and reap every
/// thread.
pub struct Server;

/// Handle to a running server: its bound address, live stats, and the
/// join/shutdown controls.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Loads `graph` and starts serving on `config.addr`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the listener cannot bind or
    /// a thread cannot spawn.
    pub fn start(graph: Graph, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let fingerprint = graph.fingerprint();
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            epoch: Mutex::new(Arc::new(Epoch {
                generation: 0,
                graph,
                fingerprint,
                cache: EpochCache::default(),
            })),
            updater: Mutex::new(None),
            config,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            drain_token: CancelToken::new(),
            counters: Counters::default(),
            monitor: Mutex::new(Vec::new()),
        });
        let mut threads = Vec::with_capacity(workers + 2);
        let accept_shared = Arc::clone(&shared);
        threads.push(
            Builder::new()
                .name("nsky-accept".to_owned())
                .spawn(move || accept_loop(&accept_shared, &listener))?,
        );
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            threads.push(
                Builder::new()
                    .name(format!("nsky-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared))?,
            );
        }
        let monitor_shared = Arc::clone(&shared);
        threads.push(
            Builder::new()
                .name("nsky-monitor".to_owned())
                .spawn(move || monitor_loop(&monitor_shared))?,
        );
        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the live counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Starts a drain (idempotent) and blocks until every server thread
    /// has exited, returning the final counters. This is the leak
    /// check: a wedged worker would hang the join, not leak silently.
    pub fn shutdown_and_drain(self) -> ServerStats {
        self.shared.begin_drain();
        self.join()
    }

    /// Blocks until the server exits (a `shutdown` frame or a prior
    /// drain), reaping every thread.
    pub fn join(self) -> ServerStats {
        let ServerHandle {
            shared, threads, ..
        } = self;
        for t in threads {
            // A panicked thread is already torn down; joining the rest
            // still reaps every handle.
            let _ = t.join();
        }
        shared.stats()
    }
}

/// Accept loop: admits, sheds, and — once draining — supervises the
/// drain deadline before exiting.
fn accept_loop(shared: &Shared, listener: &TcpListener) {
    while !shared.is_draining() {
        match listener.accept() {
            Ok((stream, _)) => admit(shared, stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    // Drain supervision: give in-flight work `drain_deadline`, then
    // raise the drain token so kernels trip to partial answers.
    let start = Instant::now();
    loop {
        let idle = shared.lock(&shared.queue).is_empty()
            && shared.counters.active.load(Ordering::Relaxed) == 0;
        if idle {
            break;
        }
        if start.elapsed() >= shared.config.drain_deadline {
            shared.drain_token.cancel();
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // ORDERING: Release pairs with the Acquire in `monitor_loop`; the
    // monitor exits only after the accept loop finished supervising.
    shared.stopped.store(true, Ordering::Release);
    shared.notify_waiters();
}

/// Admits one accepted connection, shedding if the queue is full.
fn admit(shared: &Shared, mut stream: TcpStream) {
    {
        let mut queue = shared.lock(&shared.queue);
        if queue.len() < shared.config.queue_capacity {
            queue.push_back(stream);
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            shared.available.notify_one();
            return;
        }
    }
    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
    let mut line = json::obj(vec![
        ("ok", Value::Bool(false)),
        ("error", json::s("overloaded")),
        ("retry_after_ms", json::num(shared.config.retry_after_ms)),
    ])
    .to_string();
    line.push('\n');
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.write_all(line.as_bytes());
    // Dropping the stream closes the shed connection.
}

/// Worker loop: pop a connection, serve it, repeat until drained.
fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = shared.lock(&shared.queue);
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                if shared.is_draining() {
                    break None;
                }
                let pair = shared
                    .available
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                queue = pair.0;
            }
        };
        match conn {
            Some(stream) => serve_connection(shared, stream),
            None => return,
        }
    }
}

/// Serves one connection: pipelined request frames until EOF, fault, or
/// drain.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    if stream
        .set_read_timeout(Some(shared.config.read_timeout))
        .is_err()
        || stream
            .set_write_timeout(Some(shared.config.write_timeout))
            .is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let conn_token = shared.drain_token.child();
    loop {
        match protocol::read_frame(&mut reader, shared.config.max_frame_bytes) {
            Err(_) | Ok(Frame::Eof) => return,
            Ok(Frame::Fault(fault)) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let _ = writer.write_all(fault.to_wire().as_bytes());
                return;
            }
            Ok(Frame::Line(line)) => {
                let keep_alive = handle_frame(shared, &mut writer, &conn_token, &line);
                if !keep_alive || shared.is_draining() {
                    return;
                }
            }
        }
    }
}

/// Handles one frame; returns whether the connection stays open.
fn handle_frame(
    shared: &Shared,
    writer: &mut TcpStream,
    conn_token: &CancelToken,
    line: &str,
) -> bool {
    let req = match protocol::parse_request(line) {
        Ok(req) => req,
        Err(fault) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            let _ = writer.write_all(fault.to_wire().as_bytes());
            return false;
        }
    };
    match req.get("op").and_then(Value::as_str) {
        Some("shutdown") => {
            shared.begin_drain();
            let mut line = json::obj(vec![
                ("ok", Value::Bool(true)),
                ("op", json::s("shutdown")),
                ("draining", Value::Bool(true)),
            ])
            .to_string();
            line.push('\n');
            let _ = writer.write_all(line.as_bytes());
            false
        }
        Some("inject_poison") if shared.config.fault_injection => {
            let target = req.get("target").and_then(Value::as_str).unwrap_or("");
            let hit = match target {
                "epoch" => {
                    poison(&shared.epoch);
                    true
                }
                "queue" => {
                    poison(&shared.queue);
                    true
                }
                "monitor" => {
                    poison(&shared.monitor);
                    true
                }
                "updater" => {
                    poison(&shared.updater);
                    true
                }
                _ => false,
            };
            let mut line = json::obj(vec![
                ("ok", Value::Bool(hit)),
                ("op", json::s("inject_poison")),
                ("target", json::s(target)),
            ])
            .to_string();
            line.push('\n');
            let _ = writer.write_all(line.as_bytes());
            hit
        }
        Some("stats") => {
            let stats = shared.stats();
            let mut line = json::obj(vec![
                ("ok", Value::Bool(true)),
                ("op", json::s("stats")),
                (
                    "result",
                    json::obj(vec![
                        ("accepted", json::num(stats.accepted)),
                        ("shed", json::num(stats.shed)),
                        ("completed", json::num(stats.completed)),
                        ("partial", json::num(stats.partial)),
                        ("cancelled", json::num(stats.cancelled)),
                        ("protocol_errors", json::num(stats.protocol_errors)),
                        ("queued", json::num(stats.queued as u64)),
                        ("active", json::num(stats.active as u64)),
                    ]),
                ),
            ])
            .to_string();
            line.push('\n');
            writer.write_all(line.as_bytes()).is_ok()
        }
        _ => serve_request(shared, writer, conn_token, &req),
    }
}

/// Test-only fault hook behind [`ServerConfig::fault_injection`]:
/// poisons `m` by panicking while its guard is held, inside
/// `catch_unwind` so the serving thread survives its own drill. The
/// panic hook is silenced around the controlled panic so the fault
/// suite's output stays free of backtrace spray, and restored before
/// returning.
fn poison<T>(m: &Mutex<T>) {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _guard = match m.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        // nsky-lint: allow(panic-free) — unwinding past a held guard is the only way to poison a std Mutex
        panic!("injected poison");
    }));
    std::panic::set_hook(hook);
}

/// Runs one query request under its own budget/token/recorder and
/// writes the one-line response. Returns whether the connection stays
/// open.
fn serve_request(
    shared: &Shared,
    writer: &mut TcpStream,
    conn_token: &CancelToken,
    req: &Value,
) -> bool {
    let req_token = conn_token.child();
    let rec = CountingRecorder::new();
    let started = Instant::now();
    shared.counters.active.fetch_add(1, Ordering::Relaxed);
    let registered = register_monitor(shared, writer, &req_token);
    let outcome = if req.get("op").and_then(Value::as_str) == Some("update") {
        run_update(shared, req, &req_token, &rec)
    } else {
        let epoch = shared.current_epoch();
        execute_read(
            &epoch.graph,
            Some(&epoch.cache),
            req,
            shared.config.default_timeout,
            &req_token,
            &rec,
        )
        .map(|o| (o, epoch))
    };
    if let Some(done) = registered {
        done.store(true, Ordering::Release);
        // Restore blocking mode for the response write; the monitor's
        // clone shares the flag and flipped it for non-blocking peeks.
        let _ = writer.set_nonblocking(false);
    }
    shared.counters.active.fetch_sub(1, Ordering::Relaxed);
    match outcome {
        Ok((outcome, epoch)) => {
            let partial = !outcome.completion.is_complete();
            if partial {
                shared.counters.partial.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            }
            let line = render_response(req, outcome, &rec, started, &epoch);
            writer.write_all(line.as_bytes()).is_ok()
        }
        Err(fault) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            let _ = writer.write_all(fault.to_wire().as_bytes());
            false
        }
    }
}

/// Runs one `update` request: validates fully before any mutation,
/// applies the batch on the serialized incremental engine, publishes
/// the resulting graph with its exact skyline as the next epoch, and
/// returns that epoch so the response is stamped with the generation it
/// produced. Reads keep serving the previous epoch until the publish —
/// a malformed batch is rejected with zero mutation and the generation
/// does not move.
fn run_update(
    shared: &Shared,
    req: &Value,
    token: &CancelToken,
    rec: &CountingRecorder,
) -> Result<(QueryOutcome, Arc<Epoch>), ProtocolError> {
    // GUARD: the updater mutex is the update path's serializer — it
    // stays held across the kernel run so two updates can never
    // interleave deltas into the engine; reads are unaffected (they
    // clone the published epoch and never touch this lock).
    let mut updater = shared.lock(&shared.updater);
    let current = shared.current_epoch();
    let deltas = parse_update_deltas(req, current.graph.num_vertices())?;
    let engine = updater.get_or_insert_with(|| MutableSkyline::new(current.graph.clone()));
    let (outcome, skyline) = update_epoch(
        engine,
        &deltas,
        req,
        shared.config.default_timeout,
        token,
        rec,
    )?;
    // A tripped update committed an exact prefix — publish that graph
    // and its skyline; the response's `cursor`/`total` say how far it got.
    let epoch = shared.publish(engine.current_graph(), skyline);
    Ok((outcome, epoch))
}

/// Registers the request with the disconnect monitor; returns the done
/// flag on success. Failure to clone the socket simply skips disconnect
/// detection for this request.
fn register_monitor(
    shared: &Shared,
    stream: &TcpStream,
    token: &CancelToken,
) -> Option<Arc<AtomicBool>> {
    let clone = stream.try_clone().ok()?;
    // The worker does not touch the socket while the kernel runs, so the
    // monitor flips the shared O_NONBLOCK flag for its peeks; the worker
    // restores blocking mode before writing the response.
    clone.set_nonblocking(true).ok()?;
    let done = Arc::new(AtomicBool::new(false));
    shared.lock(&shared.monitor).push(MonitorEntry {
        stream: clone,
        // A *clone* (same flag), not a child: raising it must be
        // observed by the budget linked to this request's token.
        token: token.clone(),
        done: Arc::clone(&done),
    });
    Some(done)
}

/// Disconnect monitor: peeks every registered in-flight socket; EOF or a
/// reset raises that request's token so the kernel trips mid-run.
fn monitor_loop(shared: &Shared) {
    // ORDERING: Acquire pairs with the Release in `accept_loop`.
    while !shared.stopped.load(Ordering::Acquire) {
        std::thread::sleep(shared.config.monitor_poll);
        // Take the registry out and probe without the lock: a stalled
        // peer must not block `register_monitor` on the worker path.
        // Requests registered while we probe just wait one poll tick.
        let mut entries = std::mem::take(&mut *shared.lock(&shared.monitor));
        entries.retain(|entry| {
            // ORDERING: Acquire pairs with the worker's Release store;
            // a done request must not be peeked again.
            if entry.done.load(Ordering::Acquire) {
                return false;
            }
            let mut probe = [0_u8; 1];
            match entry.stream.peek(&mut probe) {
                Ok(0) => {
                    entry.token.cancel();
                    shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    false
                }
                Ok(_) => true,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
                Err(_) => {
                    entry.token.cancel();
                    shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        });
        if !entries.is_empty() {
            // Survivors rejoin whatever was registered meanwhile.
            shared.lock(&shared.monitor).append(&mut entries);
        }
    }
}

/// Renders the success envelope: result + completion + RunReport,
/// stamped with the graph generation the request ran against (for an
/// `update`, the generation it produced).
fn render_response(
    req: &Value,
    outcome: QueryOutcome,
    rec: &CountingRecorder,
    started: Instant,
    epoch: &Epoch,
) -> String {
    let partial = !outcome.completion.is_complete();
    let mut report =
        RunReport::from_recorder(outcome.kernel, epoch.fingerprint, outcome.completion, rec);
    if partial {
        report.push_event(format!("server: partial answer ({})", outcome.completion));
    }
    let op = req.get("op").and_then(Value::as_str).unwrap_or("?");
    // Fractional milliseconds, rounded to the microsecond.
    let elapsed_ms = (started.elapsed().as_secs_f64() * 1e6).round() / 1e3;
    let mut line = json::obj(vec![
        ("ok", Value::Bool(true)),
        ("op", json::s(op)),
        ("partial", Value::Bool(partial)),
        ("completion", json::s(&outcome.completion.to_string())),
        ("generation", json::num(epoch.generation)),
        ("elapsed_ms", Value::Num(elapsed_ms)),
        ("result", outcome.result),
        ("report", json::s(&report.to_json())),
    ])
    .to_string();
    line.push('\n');
    line
}
