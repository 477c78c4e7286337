//! Deterministic fault-injection suite for `nsky-server`, in the spirit
//! of `fault_matrix.rs`: byzantine clients driven against a real
//! in-process server.
//!
//! Asserts, across the full matrix (torn frames, garbage bytes,
//! oversized frames, half-open connects, mid-response disconnects,
//! floods past the shed threshold):
//!
//! - zero panics and zero leaked worker threads — every test ends in
//!   `shutdown_and_drain()`, which joins every server thread;
//! - partial-answer soundness — a deadline-tripped skyline is a subset
//!   of the full skyline computed in-process;
//! - healthy-client latency stays bounded while faulty clients
//!   misbehave, and concurrent healthy clients all answer `ok` while
//!   faulty arrivals interleave with them;
//! - load past the shed threshold yields `overloaded` + `retry_after_ms`
//!   while an in-flight healthy request still completes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use nsky_centrality::measure::{Closeness, GroupMeasure, Harmonic};
use nsky_centrality::neisky::{nei_sky_group_with, NeiSkyGroupInput};
use nsky_clique::{nei_sky_mc_with, NeiSkyMcInput};
use nsky_graph::Graph;
use nsky_server::json::{self, Value};
use nsky_server::{Server, ServerConfig, ServerHandle};
use nsky_skyline::budget::{CancelToken, ExecutionBudget, TripClock};
use nsky_skyline::obs::{CountingRecorder, RunReport};
use nsky_skyline::{filter_refine_sky, ExecutionContext, RefineConfig};

/// Small, aggressive config: faults resolve in milliseconds.
fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 4,
        max_frame_bytes: 4096,
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(300),
        drain_deadline: Duration::from_millis(500),
        retry_after_ms: 25,
        monitor_poll: Duration::from_millis(5),
        ..ServerConfig::default()
    }
}

fn start_karate(config: ServerConfig) -> ServerHandle {
    Server::start(nsky_datasets::karate(), config).expect("server must start")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set client read timeout");
    stream
}

/// One-shot healthy request: fresh connection, one frame, one response.
fn request(addr: SocketAddr, line: &str) -> Value {
    let mut stream = connect(addr);
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    json::parse(response.trim_end()).expect("response must be JSON")
}

/// Polls `stats` until `pred` holds or five seconds pass.
fn wait_for(handle: &ServerHandle, pred: impl Fn(&nsky_server::ServerStats) -> bool) {
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(5) {
        if pred(&handle.stats()) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!(
        "condition not reached within 5s; stats = {:?}",
        handle.stats()
    );
}

fn skyline_ids(resp: &Value) -> Vec<u32> {
    resp.get("result")
        .and_then(|r| r.get("skyline"))
        .and_then(Value::as_array)
        .expect("skyline array")
        .iter()
        .filter_map(Value::as_u64)
        .map(|v| u32::try_from(v).expect("vertex id"))
        .collect()
}

#[test]
fn healthy_round_trip_all_ops_with_valid_reports() {
    let handle = start_karate(test_config());
    let addr = handle.addr();
    let full = filter_refine_sky(&nsky_datasets::karate(), &RefineConfig::default());

    let resp = request(addr, r#"{"op":"skyline"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(resp.get("partial").and_then(Value::as_bool), Some(false));
    assert_eq!(skyline_ids(&resp), full.skyline);

    // The embedded report is a checksum-valid RunReport v1.
    let report_text = resp
        .get("report")
        .and_then(Value::as_str)
        .expect("report field");
    let report = RunReport::from_json(report_text).expect("checksum-valid report");
    assert_eq!(report.kernel, "server/filter_refine_sky");
    assert!(report.counter("candidates_emitted").is_some());

    for (line, field) in [
        (r#"{"op":"skyline","algorithm":"base"}"#, "skyline"),
        (r#"{"op":"dominates","u":33,"v":8}"#, "dominates"),
        (r#"{"op":"clique"}"#, "clique"),
        (r#"{"op":"clique","prune":false}"#, "clique"),
        (r#"{"op":"group","k":2}"#, "group"),
        (r#"{"op":"group","k":2,"measure":"harmonic"}"#, "group"),
    ] {
        let resp = request(addr, line);
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "request {line} failed: {resp}"
        );
        assert!(
            resp.get("result").and_then(|r| r.get(field)).is_some(),
            "request {line} missing result.{field}: {resp}"
        );
    }

    let resp = request(addr, r#"{"op":"ping"}"#);
    assert_eq!(
        resp.get("result").and_then(|r| r.get("pong")),
        Some(&Value::Bool(true))
    );

    // Pipelining: two requests on one connection, two responses.
    let mut stream = connect(addr);
    stream
        .write_all(b"{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n")
        .expect("pipelined send");
    let mut reader = BufReader::new(stream);
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("pipelined response");
        let v = json::parse(line.trim_end()).expect("pipelined JSON");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    }

    let stats = handle.shutdown_and_drain();
    assert!(stats.completed >= 9);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn deadline_partials_are_sound_subsets_never_errors() {
    let handle = start_karate(test_config());
    let addr = handle.addr();
    let full = filter_refine_sky(&nsky_datasets::karate(), &RefineConfig::default());

    // An exact-poll trip: partial, never an error.
    let resp = request(
        addr,
        r#"{"op":"skyline","trip_after":1,"check_interval":1}"#,
    );
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(resp.get("partial").and_then(Value::as_bool), Some(true));
    let partial = skyline_ids(&resp);
    assert!(
        partial.iter().all(|v| full.skyline.contains(v)),
        "partial {partial:?} must be a subset of {:?}",
        full.skyline
    );
    assert!(partial.len() < full.skyline.len());

    // A deadline already expired at entry: still a sound response.
    let resp = request(addr, r#"{"op":"skyline","timeout_ms":0}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(resp.get("partial").and_then(Value::as_bool), Some(true));
    let partial = skyline_ids(&resp);
    assert!(partial.iter().all(|v| full.skyline.contains(v)));

    // The partial's report still decodes and names the trip.
    let report = RunReport::from_json(
        resp.get("report")
            .and_then(Value::as_str)
            .expect("report on partial"),
    )
    .expect("partial report is checksum-valid");
    assert_eq!(report.completion, "DeadlineExceeded");

    let stats = handle.shutdown_and_drain();
    assert_eq!(stats.partial, 2);
    assert_eq!(stats.protocol_errors, 0);
}

/// The filter phase polls the request's budget: a read of an empty
/// cell that trips at its first poll stops inside the filter phase, so
/// its report counts no candidates and closes no phase after `filter`.
#[test]
fn a_first_poll_skyline_trip_lands_inside_the_filter_phase() {
    let handle = start_karate(test_config());
    let addr = handle.addr();
    let resp = request(
        addr,
        r#"{"op":"skyline","trip_after":1,"check_interval":1}"#,
    );
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(resp.get("partial").and_then(Value::as_bool), Some(true));
    assert!(skyline_ids(&resp).is_empty(), "{resp}");
    let report = report_of(&resp);
    assert_eq!(report.kernel, "server/filter_refine_sky");
    assert_eq!(report.completion, "DeadlineExceeded");
    assert_eq!(report.counter("candidates_emitted"), Some(0));
    assert_eq!(report.counter("adjacency_probes"), Some(0));
    let phases: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(phases, ["filter"]);
    let stats = handle.shutdown_and_drain();
    assert_eq!(stats.partial, 1, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
}

#[test]
fn byzantine_clients_get_typed_errors_and_healthy_traffic_survives() {
    let handle = start_karate(test_config());
    let addr = handle.addr();
    let healthy = |label: &str| {
        let started = Instant::now();
        let resp = request(addr, r#"{"op":"skyline"}"#);
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "healthy request after {label} failed: {resp}"
        );
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "healthy latency after {label} unbounded: {elapsed:?}"
        );
    };

    // Torn frame: half a request, then close. The server reads EOF
    // mid-frame and tears down without a response.
    {
        let mut stream = connect(addr);
        stream.write_all(b"{\"op\":\"sky").expect("torn send");
        drop(stream);
    }
    healthy("torn frame");

    // Garbage bytes: typed malformed_frame error, then teardown.
    {
        let mut stream = connect(addr);
        stream
            .write_all(b"\x01\x02 not json at all\n")
            .expect("garbage send");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("error response");
        let v = json::parse(line.trim_end()).expect("typed error is JSON");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("malformed_frame")
        );
        // Teardown: the next read returns EOF, not another frame.
        assert_eq!(reader.read_line(&mut line).expect("EOF after teardown"), 0);
    }
    healthy("garbage bytes");

    // Oversized frame: rejected before the newline ever arrives.
    {
        let mut stream = connect(addr);
        let junk = vec![b'x'; 64 * 1024];
        let _ = stream.write_all(&junk);
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        // The server may close before draining our write; both a typed
        // error line and an empty read are acceptable client views.
        if reader.read_line(&mut line).unwrap_or(0) > 0 {
            let v = json::parse(line.trim_end()).expect("typed error is JSON");
            assert_eq!(
                v.get("error").and_then(Value::as_str),
                Some("oversized_frame")
            );
        }
    }
    healthy("oversized frame");

    // Slow loris / half-open: connect, send half a frame, stall. The
    // read timeout tears it down with a typed error.
    {
        let mut stream = connect(addr);
        stream.write_all(b"{\"op\"").expect("loris send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) > 0 {
            let v = json::parse(line.trim_end()).expect("typed error is JSON");
            assert_eq!(v.get("error").and_then(Value::as_str), Some("read_timeout"));
        }
    }
    healthy("slow loris");

    // Mid-response disconnect: send a request, vanish immediately.
    {
        let mut stream = connect(addr);
        stream
            .write_all(b"{\"op\":\"skyline\"}\n")
            .expect("disconnect send");
        drop(stream);
    }
    healthy("mid-response disconnect");

    // The typed-error counters saw the matrix (torn + garbage +
    // oversized + loris; the mid-response disconnect may complete).
    wait_for(&handle, |s| s.protocol_errors >= 4);

    let stats = handle.shutdown_and_drain();
    assert!(stats.protocol_errors >= 4);
    assert!(stats.completed >= 5, "healthy traffic: {stats:?}");
}

/// One byzantine arrival of the given flavor: a torn frame, garbage
/// bytes, an oversized frame, or a bare connect-and-close.
fn byzantine_arrival(addr: SocketAddr, flavor: usize) {
    let mut stream = connect(addr);
    // The server may tear the connection down mid-write; only its
    // answers to the healthy clients are checked.
    let _ = match flavor {
        0 => stream.write_all(b"{\"op\":\"sky"),
        1 => stream.write_all(b"\x01\x02\x03 not json at all\n"),
        2 => stream.write_all(&[b'x'; 64 * 1024]),
        _ => Ok(()),
    };
}

/// Four client threads, released together, claim 32 arrivals in turn.
/// Every fourth arrival is byzantine, rotating through torn, garbage,
/// oversized and connect-and-close; every healthy skyline read among
/// the rest must answer `ok` while those faults interleave with it.
#[test]
fn concurrent_healthy_clients_stay_ok_amid_faulty_arrivals() {
    const ARRIVALS: usize = 32;
    let handle = start_karate(ServerConfig {
        // Room for every arrival at once: shedding is tested below.
        queue_capacity: ARRIVALS,
        ..test_config()
    });
    let addr = handle.addr();
    let next = AtomicUsize::new(0);
    let start = Barrier::new(4);
    let client = || {
        start.wait();
        let mut healthy = 0;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= ARRIVALS {
                return healthy;
            }
            if i % 4 == 1 {
                byzantine_arrival(addr, i / 4 % 4);
                continue;
            }
            let resp = request(addr, r#"{"op":"skyline"}"#);
            assert_eq!(
                resp.get("ok").and_then(Value::as_bool),
                Some(true),
                "healthy arrival {i} failed: {resp}"
            );
            healthy += 1;
        }
    };
    let healthy: usize = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4).map(|_| scope.spawn(client)).collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .sum()
    });
    assert_eq!(healthy, ARRIVALS - ARRIVALS / 4);

    // Two each of torn, garbage and oversized frames draw typed errors.
    wait_for(&handle, |s| s.protocol_errors >= 6);
    let stats = handle.shutdown_and_drain();
    assert_eq!(stats.shed, 0, "{stats:?}");
    assert!(stats.completed >= 24, "healthy traffic: {stats:?}");
}

#[test]
fn flood_past_shed_threshold_yields_overloaded_with_backoff_hint() {
    // One worker, tiny queue: the shed path is deterministic.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        read_timeout: Duration::from_secs(3),
        ..test_config()
    };
    let retry_hint = config.retry_after_ms;
    let handle = start_karate(config);
    let addr = handle.addr();

    // A healthy in-flight connection claims the only worker (FIFO: it
    // was queued first, so the worker is parked reading from it).
    let mut held = connect(addr);
    wait_for(&handle, |s| s.accepted == 1 && s.queued == 0);

    // Fill the bounded queue with idle connections.
    let parked: Vec<TcpStream> = (0..2).map(|_| connect(addr)).collect();
    wait_for(&handle, |s| s.queued == 2);

    // The next connection must be shed: explicit overloaded response
    // with the configured Retry-After hint, then close.
    let flooded = connect(addr);
    let mut reader = BufReader::new(flooded);
    let mut line = String::new();
    reader.read_line(&mut line).expect("shed response");
    let v = json::parse(line.trim_end()).expect("overloaded is JSON");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(v.get("error").and_then(Value::as_str), Some("overloaded"));
    assert_eq!(
        v.get("retry_after_ms").and_then(Value::as_u64),
        Some(retry_hint)
    );
    let mut rest = String::new();
    assert_eq!(
        reader.read_to_string(&mut rest).expect("shed close"),
        0,
        "shed connection must be closed"
    );
    wait_for(&handle, |s| s.shed >= 1);

    // The held healthy connection still completes within its deadline
    // while the server is shedding.
    let started = Instant::now();
    held.write_all(b"{\"op\":\"skyline\",\"timeout_ms\":2000}\n")
        .expect("held send");
    let mut held_reader = BufReader::new(held);
    let mut response = String::new();
    held_reader.read_line(&mut response).expect("held response");
    let v = json::parse(response.trim_end()).expect("held response JSON");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("partial").and_then(Value::as_bool), Some(false));
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "held request exceeded its deadline"
    );

    drop(parked);
    let stats = handle.shutdown_and_drain();
    assert!(stats.shed >= 1);
}

#[test]
fn client_disconnect_raises_cancel_mid_kernel() {
    // A graph big enough that the group kernel cannot finish before the
    // monitor notices the disconnect (~10ms): the cancel must stop it.
    let g = nsky_graph::generators::leafy_preferential(5_000, 0.9, 1.0, 8, 42);
    let handle = Server::start(g, test_config()).expect("server must start");
    let addr = handle.addr();

    let mut stream = connect(addr);
    stream
        .write_all(b"{\"op\":\"group\",\"k\":4,\"lazy\":false,\"check_interval\":1}\n")
        .expect("send long request");
    // Vanish with the kernel in flight.
    drop(stream);

    wait_for(&handle, |s| s.cancelled >= 1);

    // The server is still healthy for other clients.
    let resp = request(addr, r#"{"op":"ping"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));

    let stats = handle.shutdown_and_drain();
    assert!(stats.cancelled >= 1);
}

/// Replays an update batch client-side (the reference for generation
/// checking below).
fn apply_local(g: &nsky_graph::Graph, lines: &[&str]) -> nsky_graph::Graph {
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let deltas = nsky_graph::io::read_edge_deltas(text.as_bytes()).expect("test batch parses");
    let mut view = nsky_graph::DeltaGraph::from_graph(g.clone());
    for d in deltas {
        view.apply(d);
    }
    view.materialize()
}

fn deltas_json(lines: &[&str]) -> String {
    let quoted: Vec<String> = lines.iter().map(|l| format!("\"{l}\"")).collect();
    format!("[{}]", quoted.join(","))
}

/// Updates interleaved with concurrent skyline reads: every response is
/// stamped with a generation, and its payload must be exactly correct
/// for *that* generation's graph — no torn reads, ever. The reference
/// graphs are replayed client-side from the same batches.
#[test]
fn updates_interleave_with_queries_without_torn_reads() {
    let handle = start_karate(test_config());
    let addr = handle.addr();
    let batches: Vec<Vec<&str>> = vec![
        vec!["+ 0 9", "- 0 1"],
        vec!["- 33 32", "+ 4 33"],
        vec!["+ 0 1", "- 4 33"],
        vec!["- 0 9", "+ 33 32"],
    ];
    // generation g == karate + the first g batches, by construction
    // (updates are serialized; each bumps the generation by one).
    let mut graphs = vec![nsky_datasets::karate()];
    for b in &batches {
        let next = apply_local(graphs.last().unwrap(), b);
        graphs.push(next);
    }
    let skylines: Vec<Vec<u32>> = graphs
        .iter()
        .map(|g| filter_refine_sky(g, &RefineConfig::default()).skyline)
        .collect();

    let reader = {
        let skylines = skylines.clone();
        std::thread::spawn(move || {
            for _ in 0..40 {
                let resp = request(addr, r#"{"op":"skyline"}"#);
                assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
                assert_eq!(resp.get("partial").and_then(Value::as_bool), Some(false));
                let generation = resp
                    .get("generation")
                    .and_then(Value::as_u64)
                    .expect("stamped generation") as usize;
                assert!(generation < skylines.len(), "unknown generation");
                assert_eq!(
                    skyline_ids(&resp),
                    skylines[generation],
                    "torn read: response does not match its own generation {generation}"
                );
            }
        })
    };
    for (i, b) in batches.iter().enumerate() {
        let resp = request(
            addr,
            &format!("{{\"op\":\"update\",\"deltas\":{}}}", deltas_json(b)),
        );
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "{resp}"
        );
        assert_eq!(resp.get("partial").and_then(Value::as_bool), Some(false));
        assert_eq!(
            resp.get("generation").and_then(Value::as_u64),
            Some((i + 1) as u64)
        );
        // The update's own payload is the new generation's exact skyline.
        assert_eq!(skyline_ids(&resp), skylines[i + 1], "update {i}");
        std::thread::sleep(Duration::from_millis(5));
    }
    reader.join().expect("reader thread must not panic");

    // After the last update, reads land on the final generation.
    let resp = request(addr, r#"{"op":"skyline"}"#);
    assert_eq!(
        resp.get("generation").and_then(Value::as_u64),
        Some(batches.len() as u64)
    );
    assert_eq!(skyline_ids(&resp), *skylines.last().unwrap());

    let stats = handle.shutdown_and_drain();
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
}

/// Byzantine update payloads: every malformed shape gets a typed
/// `bad_request` (not a teardown panic, not a partial mutation) and the
/// graph generation never moves — queries keep answering for
/// generation 0 with the original skyline.
#[test]
fn malformed_update_deltas_are_rejected_without_poisoning_the_graph() {
    let handle = start_karate(test_config());
    let addr = handle.addr();
    let full = filter_refine_sky(&nsky_datasets::karate(), &RefineConfig::default());
    for bad in [
        r#"{"op":"update"}"#,                            // missing deltas
        r#"{"op":"update","deltas":"not an array"}"#,    // wrong type
        r#"{"op":"update","deltas":[42]}"#,              // non-string element
        r#"{"op":"update","deltas":["* 1 2"]}"#,         // unknown op token
        r#"{"op":"update","deltas":["+ 1"]}"#,           // missing endpoint
        r#"{"op":"update","deltas":["+ 1 2 3"]}"#,       // trailing junk
        r#"{"op":"update","deltas":["+ 3 3"]}"#,         // self-loop
        r#"{"op":"update","deltas":["+ 0 99"]}"#,        // out of range
        r#"{"op":"update","deltas":["+ 0 1","- 5 5"]}"#, // poison mid-batch
    ] {
        let resp = request(addr, bad);
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(false),
            "{bad} must be rejected: {resp}"
        );
        assert_eq!(
            resp.get("error").and_then(Value::as_str),
            Some("bad_request"),
            "{bad}: {resp}"
        );
    }
    // Zero mutation: still generation 0, still the original skyline.
    let resp = request(addr, r#"{"op":"skyline"}"#);
    assert_eq!(resp.get("generation").and_then(Value::as_u64), Some(0));
    assert_eq!(skyline_ids(&resp), full.skyline);
    // And the update path still works after the abuse.
    let resp = request(addr, r#"{"op":"update","deltas":["- 0 1"]}"#);
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{resp}"
    );
    assert_eq!(resp.get("generation").and_then(Value::as_u64), Some(1));
    let stats = handle.shutdown_and_drain();
    assert!(stats.protocol_errors >= 9, "{stats:?}");
}

/// A deadline-tripped update commits an exact prefix: the response says
/// how far it got (`cursor`/`total`), its skyline is exactly the
/// committed-prefix graph's, and the published generation serves
/// subsequent reads with that same graph.
#[test]
fn tripped_update_publishes_an_exact_prefix_epoch() {
    let handle = start_karate(test_config());
    let addr = handle.addr();
    let lines: Vec<String> = (0..16).map(|i| format!("- {} {}", i % 8, 9 + i)).collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let resp = request(
        addr,
        &format!(
            "{{\"op\":\"update\",\"deltas\":{},\"trip_after\":4,\"check_interval\":1}}",
            deltas_json(&refs)
        ),
    );
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{resp}"
    );
    assert_eq!(resp.get("partial").and_then(Value::as_bool), Some(true));
    let cursor = resp
        .get("result")
        .and_then(|r| r.get("cursor"))
        .and_then(Value::as_u64)
        .expect("cursor") as usize;
    assert!(cursor < refs.len(), "{resp}");
    let prefix_graph = apply_local(&nsky_datasets::karate(), &refs[..cursor]);
    let expect = filter_refine_sky(&prefix_graph, &RefineConfig::default()).skyline;
    assert_eq!(skyline_ids(&resp), expect, "partial not exact for prefix");
    // The prefix epoch is what readers now see.
    let resp = request(addr, r#"{"op":"skyline"}"#);
    assert_eq!(resp.get("generation").and_then(Value::as_u64), Some(1));
    assert_eq!(skyline_ids(&resp), expect);
    let stats = handle.shutdown_and_drain();
    assert_eq!(stats.partial, 1, "{stats:?}");
}

/// One-shot request returning the raw response line.
fn request_line(addr: SocketAddr, line: &str) -> String {
    let mut stream = connect(addr);
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read response");
    response
}

/// The `result` member of a response line, byte for byte.
fn result_text(line: &str) -> &str {
    let (_, rest) = line.split_once(r#""result":"#).expect("result member");
    let (result, _) = rest.split_once(r#","report":"#).expect("report member");
    result
}

fn report_of(resp: &Value) -> RunReport {
    RunReport::from_json(resp.get("report").and_then(Value::as_str).expect("report"))
        .expect("checksum-valid report")
}

/// The epoch's skyline cache: generation 0 starts empty, a tripped read
/// leaves it so, the first complete default read fills it, and later
/// reads are served from it without a kernel run or a budget. `base`
/// still runs its kernel, and an update fills the cache of the
/// generation it publishes.
#[test]
fn skyline_reads_are_served_from_the_epoch_cache() {
    let handle = start_karate(test_config());
    let addr = handle.addr();
    let karate = nsky_datasets::karate();
    let full = filter_refine_sky(&karate, &RefineConfig::default());

    let tripped = request(
        addr,
        r#"{"op":"skyline","trip_after":1,"check_interval":1}"#,
    );
    assert_eq!(tripped.get("partial").and_then(Value::as_bool), Some(true));
    assert_eq!(report_of(&tripped).kernel, "server/filter_refine_sky");

    // The partial answer left the cache empty: this read runs the kernel.
    let miss_line = request_line(addr, r#"{"op":"skyline"}"#);
    let miss = json::parse(miss_line.trim_end()).expect("response must be JSON");
    assert_eq!(miss.get("partial").and_then(Value::as_bool), Some(false));
    assert_eq!(report_of(&miss).kernel, "server/filter_refine_sky");
    assert_eq!(skyline_ids(&miss), full.skyline);

    let hit_line = request_line(addr, r#"{"op":"skyline"}"#);
    let hit = json::parse(hit_line.trim_end()).expect("response must be JSON");
    let report = report_of(&hit);
    assert_eq!(report.kernel, "server/skyline_cache");
    assert!(
        report.counters.iter().all(|&(_, v)| v == 0),
        "a cache hit runs no kernel: {:?}",
        report.counters
    );
    assert!(report.phases.is_empty(), "{:?}", report.phases);
    assert_eq!(result_text(&hit_line), result_text(&miss_line));
    let elapsed = hit.get("elapsed_ms").and_then(Value::as_f64);
    assert!(
        elapsed.is_some_and(|ms| ms > 0.0 && ms < 1000.0),
        "elapsed_ms {elapsed:?} must be fractional milliseconds"
    );

    // Budgets bind kernel runs only: a hit is complete under any budget.
    let resp = request(
        addr,
        r#"{"op":"skyline","trip_after":1,"check_interval":1}"#,
    );
    assert_eq!(resp.get("partial").and_then(Value::as_bool), Some(false));
    assert_eq!(skyline_ids(&resp), full.skyline);

    // `base` is the cross-check and always runs its kernel.
    let base = request(addr, r#"{"op":"skyline","algorithm":"base"}"#);
    assert_eq!(report_of(&base).kernel, "server/base_sky");
    assert_eq!(skyline_ids(&base), full.skyline);

    let batch = ["+ 0 9", "- 33 32"];
    let resp = request(
        addr,
        &format!("{{\"op\":\"update\",\"deltas\":{}}}", deltas_json(&batch)),
    );
    assert_eq!(resp.get("generation").and_then(Value::as_u64), Some(1));
    let after = request(addr, r#"{"op":"skyline"}"#);
    assert_eq!(after.get("generation").and_then(Value::as_u64), Some(1));
    assert_eq!(report_of(&after).kernel, "server/skyline_cache");
    let replayed = apply_local(&karate, &batch);
    assert_eq!(
        skyline_ids(&after),
        filter_refine_sky(&replayed, &RefineConfig::default()).skyline
    );
    assert_ne!(
        skyline_ids(&after),
        full.skyline,
        "the batch moves the skyline"
    );

    let stats = handle.shutdown_and_drain();
    assert_eq!(stats.partial, 1, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
}

/// Budget polls of one complete run, counted by a clock that never
/// trips.
fn polls(run: impl FnOnce(&mut ExecutionContext<'_>)) -> u64 {
    let clock = Arc::new(TripClock::at_poll(u64::MAX));
    let budget = ExecutionBudget::unlimited()
        .deadline(Arc::clone(&clock))
        .check_interval(1);
    run(&mut ExecutionContext::new().budget(&budget));
    clock.polls()
}

/// Polls of a lazy `group` request's two stages on `g` once the
/// skyline `sky` is known: the first-round gains, then the `k` rounds
/// after them.
fn group_polls<M: GroupMeasure>(g: &Graph, measure: M, k: usize, sky: &[u32]) -> (u64, u64) {
    let build = |ctx: &ExecutionContext<'_>| {
        NeiSkyGroupInput::build(g, measure, Some(sky), ctx).expect("an untripped build completes")
    };
    let gains = polls(|ctx| {
        build(ctx);
    });
    let input = build(&ExecutionContext::new());
    let rounds = polls(|ctx| {
        nei_sky_group_with(g, &input, k, true, ctx);
    });
    (gains, rounds)
}

/// Polls of a `clique` request's seed loop on `g` once its input is
/// prepared; building the input from a known skyline polls nothing.
fn search_polls(g: &Graph) -> u64 {
    let sky = filter_refine_sky(g, &RefineConfig::default()).skyline;
    let input = NeiSkyMcInput::new(g, &sky);
    polls(|ctx| {
        nei_sky_mc_with(g, &input, ctx);
    })
}

/// `body` as a request that may take at most `polls` budget polls: the
/// reply is partial exactly when the server's work needs more.
fn with_polls(body: &str, polls: u64) -> String {
    format!(
        r#"{{{body},"trip_after":{},"check_interval":1}}"#,
        polls + 1
    )
}

/// The `result` of `line` run through the cache-less `execute_query`
/// on `g`, rendered as the server renders it.
fn uncached_result(g: &Graph, line: &str) -> String {
    let req = nsky_server::protocol::parse_request(line).expect("a valid request");
    let rec = CountingRecorder::new();
    nsky_server::execute_query(g, &req, None, &CancelToken::new(), &rec)
        .expect("a valid query")
        .result
        .to_string()
}

/// Sends `body` with a budget of `polls` polls and checks the reply's
/// `result` against the cache-less engine on `g`: a complete reply is
/// the unbudgeted answer, and a partial one (computed from empty cells)
/// is where the cache-less run of the same request trips. Returns
/// whether the reply was partial.
fn checked(addr: SocketAddr, g: &Graph, body: &str, polls: u64) -> bool {
    let line = with_polls(body, polls);
    let reply = request_line(addr, &line);
    let partial = partial_reply(&reply);
    let reference = if partial { line } else { format!("{{{body}}}") };
    assert_eq!(
        result_text(&reply),
        uncached_result(g, &reference),
        "{reference}"
    );
    partial
}

/// Sends `body` with a budget of `polls` polls; returns whether the
/// reply was partial.
fn trips(addr: SocketAddr, body: &str, polls: u64) -> bool {
    partial_reply(&request_line(addr, &with_polls(body, polls)))
}

fn partial_reply(line: &str) -> bool {
    let resp = json::parse(line.trim_end()).expect("response must be JSON");
    resp.get("partial")
        .and_then(Value::as_bool)
        .expect("partial flag")
}

/// The epoch's clique and group inputs. Each cell is filled by the
/// first complete build that needs it and by nothing else, so a
/// request's budget polls show what it had to compute: FilterRefineSky
/// when the skyline cell is empty, the first-round gains when its
/// measure's cell is empty. A `k = 1` group polls nothing after its
/// gains, so one poll of budget completes it only on a filled cell and
/// otherwise trips at the first poll of a build, filling nothing. Every
/// complete reply, and every partial one computed from empty cells,
/// matches `execute_query`.
#[test]
fn clique_and_group_inputs_fill_once_per_epoch() {
    let handle = start_karate(test_config());
    let addr = handle.addr();
    let karate = nsky_datasets::karate();
    let sky = filter_refine_sky(&karate, &RefineConfig::default()).skyline;
    let frs = polls(|ctx| {
        nsky_skyline::filter_refine_sky_with(&karate, &RefineConfig::default(), ctx);
    });
    let search = search_polls(&karate);
    let (gains_c, rounds_c) = group_polls(&karate, Closeness, 1, &sky);
    let (gains_h, rounds_h) = group_polls(&karate, Harmonic, 1, &sky);
    let (_, rounds_c4) = group_polls(&karate, Closeness, 4, &sky);
    assert!(search < frs && rounds_c < gains_c && rounds_h < gains_h);
    let clique = r#""op":"clique""#;
    let closeness = r#""op":"group","k":1,"measure":"closeness""#;
    let closeness4 = r#""op":"group","k":4,"measure":"closeness""#;
    let harmonic = r#""op":"group","k":1,"measure":"harmonic""#;

    // A clique tripped in FilterRefineSky and a group tripped in its
    // gains fill nothing: the skyline and the gains are still missing.
    assert!(checked(addr, &karate, clique, 0));
    assert!(checked(addr, &karate, closeness, frs));
    assert!(checked(addr, &karate, clique, search));
    assert!(checked(addr, &karate, closeness, rounds_c));

    // A skyline read fills only the skyline: the gains are still missing.
    let resp = request(addr, r#"{"op":"skyline"}"#);
    assert_eq!(report_of(&resp).kernel, "server/filter_refine_sky");
    assert!(trips(addr, closeness, rounds_c));

    // The next complete group fills its measure's gains, and only those.
    assert!(!checked(addr, &karate, closeness, gains_c + rounds_c));
    assert!(!checked(addr, &karate, closeness, rounds_c));
    assert!(!checked(addr, &karate, closeness4, rounds_c4));
    assert!(trips(addr, harmonic, rounds_h));
    assert!(!checked(addr, &karate, harmonic, gains_h + rounds_h));
    assert!(!checked(addr, &karate, harmonic, rounds_h));

    // On the cached skyline a clique runs only its seed loop; the first
    // such run fills the core order and the heuristic floor.
    for _ in 0..2 {
        assert!(!checked(addr, &karate, clique, search));
    }

    // The first clique after an update takes its skyline from the
    // publish: no FilterRefineSky run, so the seed loop's polls suffice.
    let batch = ["+ 0 9", "- 33 32"];
    let resp = request(
        addr,
        &format!("{{\"op\":\"update\",\"deltas\":{}}}", deltas_json(&batch)),
    );
    assert_eq!(resp.get("generation").and_then(Value::as_u64), Some(1));
    let replayed = apply_local(&karate, &batch);
    assert!(!checked(addr, &replayed, clique, search_polls(&replayed)));
    // Inputs do not outlive their epoch: the gains are computed again.
    let replayed_sky = filter_refine_sky(&replayed, &RefineConfig::default()).skyline;
    let (gains, rounds) = group_polls(&replayed, Closeness, 1, &replayed_sky);
    assert!(trips(addr, closeness, rounds));
    assert!(!checked(addr, &replayed, closeness, gains + rounds));

    let stats = handle.shutdown_and_drain();
    assert_eq!(stats.partial, 7, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");

    // A complete first clique or group also stores the skyline it
    // computed: the other op then skips FilterRefineSky.
    for (first, then, polls) in [
        (clique, closeness, gains_c + rounds_c),
        (harmonic, clique, search),
    ] {
        let handle = start_karate(test_config());
        let addr = handle.addr();
        assert!(!checked(addr, &karate, first, 1 << 40));
        assert!(!checked(addr, &karate, then, polls));
        let stats = handle.shutdown_and_drain();
        assert_eq!(stats.partial, 0, "{stats:?}");
    }
}

#[test]
fn shutdown_frame_drains_inflight_and_reaps_every_thread() {
    let handle = start_karate(test_config());
    let addr = handle.addr();

    // An in-flight request completes before the drain finishes.
    let resp = request(addr, r#"{"op":"skyline"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));

    let resp = request(addr, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(resp.get("draining").and_then(Value::as_bool), Some(true));

    // `join` returns only after every server thread exits: the
    // leak check is that this returns at all.
    let started = Instant::now();
    let stats = handle.join();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain exceeded its deadline"
    );
    assert!(stats.completed >= 1);
}

/// Poisons each shared mutex in turn (via the test-only `inject_poison`
/// op) and asserts the server shrugs: `Shared::lock` recovers through
/// `into_inner`, so reads, updates and the drain all still work after
/// every lock has been poisoned once.
#[test]
fn poisoned_locks_recover_via_shared_lock() {
    let handle = start_karate(ServerConfig {
        fault_injection: true,
        ..test_config()
    });
    let addr = handle.addr();
    let full = filter_refine_sky(&nsky_datasets::karate(), &RefineConfig::default());

    for target in ["epoch", "queue", "monitor", "updater"] {
        let resp = request(
            addr,
            &format!(r#"{{"op":"inject_poison","target":"{target}"}}"#),
        );
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "poisoning {target}: {resp}"
        );
        // The very next read takes the poisoned locks and must recover.
        let resp = request(addr, r#"{"op":"skyline"}"#);
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "read after poisoning {target}: {resp}"
        );
        assert_eq!(skyline_ids(&resp), full.skyline, "after {target}");
    }

    // The serialized update path survives its own poisoned mutex too.
    let resp = request(addr, r#"{"op":"update","deltas":["- 0 1"]}"#);
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{resp}"
    );
    assert_eq!(resp.get("generation").and_then(Value::as_u64), Some(1));

    // An unknown target is refused; the connection logic is unharmed.
    let resp = request(addr, r#"{"op":"inject_poison","target":"nonsense"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));

    // Drain still joins every thread with poison in the system.
    let stats = handle.shutdown_and_drain();
    assert!(stats.completed >= 5, "{stats:?}");
}

/// With `fault_injection` off (the default), `inject_poison` is just an
/// unknown op: rejected like any other, with zero effect on the locks.
#[test]
fn inject_poison_requires_the_fault_injection_flag() {
    let handle = start_karate(test_config());
    let addr = handle.addr();
    let resp = request(addr, r#"{"op":"inject_poison","target":"queue"}"#);
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(false),
        "{resp}"
    );
    let resp = request(addr, r#"{"op":"skyline"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    handle.shutdown_and_drain();
}
