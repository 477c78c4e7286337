//! `nsky-servebench` — the serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload skyline-lj --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run: start `nsky_server::Server` in-process with one worker per
//! core, drive it open-loop at the workload's nominal rate for
//! `--seconds`, then check every answer against the oracle. `--trace 1`
//! runs the same workload and seed, then climbs a rate ladder to find the
//! highest rate that still meets the tail limit, probes the ops the mix
//! does not send and replays requests layer by layer; it prints the
//! per-layer metrics and writes its spans under `out/`. The last line of
//! standard output is one JSON object with the metrics.

mod metrics;
mod openloop;
mod oracle;
mod replay;
mod stats;
mod workload;

use std::net::SocketAddr;
use std::ops::Range;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nsky_graph::Graph;
use nsky_server::{Server, ServerConfig, ServerHandle, ServerStats};

use crate::metrics::Report;
use crate::openloop::{Exchange, Phase};
use crate::workload::{Generator, Op, Request, Transport, Workload};

/// Set-up is repeated this often; `setup_s` is the median.
const SETUP_REPEATS: usize = 15;
/// The nominal window is driven as this many back-to-back repetitions of
/// `--seconds / REPETITIONS` each; `tail_ms` is the median of the
/// repetitions' values, so one stall of the shared machine moves one
/// repetition, not the result. With more, shorter repetitions the
/// apps-notredame tail fell on the median `group` request, which lies
/// between the shared host's quiet and contended modes and flipped
/// between them from run to run.
const REPETITIONS: usize = 3;
/// Length of one rate-ladder step, in seconds (traced run only).
const LADDER_STEP_S: f64 = 1.5;
/// Ratio between neighbouring ladder rates (3 %, finer than the bound).
const LADDER_RATIO: f64 = 1.03;
/// Ladder rungs skipped per coarse step while the ladder climbs.
const COARSE: i32 = 8;
/// Reads replayed per op in the traced run.
const REPLAY_CAP: usize = 48;
/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::find(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: value("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("nsky-servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Set-up timings of one repetition, in ms.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// Building the dataset stand-in.
    pub dataset_ms: f64,
    /// `Server::start`.
    pub server_ms: f64,
    /// Warm-up requests, including the first update's engine build.
    pub warmup_ms: f64,
    /// All of the above.
    pub total_s: f64,
}

/// Pairs each request with what happened to it.
fn settle(reqs: Vec<Request>, phase: Phase) -> Vec<(Request, Exchange)> {
    reqs.into_iter().zip(phase.exchanges).collect()
}

/// A started, warmed-up server and the generator that feeds it.
struct Served {
    handle: ServerHandle,
    base: Graph,
    gen: Generator,
    warm: Vec<(Request, Exchange)>,
    times: SetupTimes,
}

fn set_up(w: &Workload, seed: u64, workers: usize) -> Result<Served, String> {
    let t0 = Instant::now();
    let base = w.build_graph();
    let dataset_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let handle = Server::start(base.clone(), config).map_err(|e| format!("server start: {e}"))?;
    let server_ms = t1.elapsed().as_secs_f64() * 1e3;
    let t2 = Instant::now();
    let mut gen = Generator::new(base.clone(), seed);
    // Two update batches prime the delta stream and pay the lazy engine
    // build; one request per other op in the mix warms its kernel. Not
    // `group`: it has no lazy state to pay, and its 50–80 ms (quiet or
    // contended host) would be most of the set-up and split `setup_s`
    // between two modes from run to run.
    let mut reqs = Vec::new();
    if w.sends(Op::Update) {
        reqs.push(gen.request(Op::Update));
        reqs.push(gen.request(Op::Update));
    }
    for &(op, _) in w.mix.iter().filter(|&&(op, _)| op != Op::Group) {
        reqs.push(gen.request(op));
    }
    let frames: Vec<&str> = reqs.iter().map(|r| r.line.as_str()).collect();
    let phase = openloop::sequential(handle.addr(), &frames, w.transport == Transport::Fresh)
        .map_err(|e| format!("warm-up: {e}"))?;
    let warm = settle(reqs, phase);
    if let Some((_, bad)) = warm.iter().find(|(_, x)| x.reply.is_err()) {
        return Err(format!("warm-up request failed: {:?}", bad.reply));
    }
    let warmup_ms = t2.elapsed().as_secs_f64() * 1e3;
    Ok(Served {
        handle,
        base,
        gen,
        warm,
        times: SetupTimes {
            dataset_ms,
            server_ms,
            warmup_ms,
            total_s: t0.elapsed().as_secs_f64(),
        },
    })
}

/// Whether a ladder step was sustained: every request answered, the tail
/// within the limit, and no backlog building up (the last third of the
/// step no slower than the first third plus a quarter of the limit).
fn sustained(outcomes: &[(Request, Exchange)], limit_ms: f64) -> bool {
    let failed = outcomes.iter().filter(|(_, x)| x.reply.is_err()).count();
    let lat: Vec<f64> = outcomes.iter().map(|(_, x)| x.latency_ms()).collect();
    let tail = stats::tail(&lat, TAIL_BEYOND)
        .map_or_else(|| lat.iter().copied().fold(0.0, f64::max), |(v, _)| v);
    let third = lat.len() / 3;
    let first = stats::median(&lat[..third]).unwrap_or(0.0);
    let last = stats::median(&lat[lat.len() - third..]).unwrap_or(0.0);
    eprintln!(
        "  {} requests, {failed} failed, tail {tail:.1} ms, median of first/last third {first:.1}/{last:.1} ms",
        lat.len()
    );
    failed == 0 && tail <= limit_ms && last <= first + limit_ms / 4.0
}

/// The ladder: rungs `nominal · 1.03^k`, rung 0 being the nominal window
/// itself. The ladder climbs `COARSE` rungs at a time until a step is not
/// sustained, then bisects down to neighbouring rungs. Returns the highest
/// sustained rate (0 when the nominal rate was already too much) and
/// every step's requests and exchanges.
fn ladder(
    w: &Workload,
    addr: SocketAddr,
    workers: usize,
    gen: &mut Generator,
    nominal_ok: bool,
) -> Result<(f64, Vec<(Request, Exchange)>), String> {
    let mut log = Vec::new();
    if !nominal_ok {
        return Ok((0.0, log));
    }
    let mut step = |k: i32, log: &mut Vec<(Request, Exchange)>| -> Result<bool, String> {
        let rate = w.nominal_rate * LADDER_RATIO.powi(k);
        let reqs = gen.schedule(w.mix, rate, LADDER_STEP_S);
        let phase = openloop::drive(addr, w.transport, workers, &reqs)
            .map_err(|e| format!("ladder step {k}: {e}"))?;
        let outcomes = settle(reqs, phase);
        let ok = sustained(&outcomes, w.tail_limit_ms);
        eprintln!(
            "ladder: {rate:.1}/s {}",
            if ok { "sustained" } else { "not sustained" }
        );
        log.extend(outcomes);
        // Let the queue empty before the next rung.
        std::thread::sleep(Duration::from_millis(100));
        Ok(ok)
    };
    let mut lo = 0;
    let mut hi = None;
    for k in (1..=8).map(|i| i * COARSE) {
        if !step(k, &mut log)? {
            hi = Some(k);
            break;
        }
        lo = k;
    }
    if let Some(mut hi) = hi {
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if step(mid, &mut log)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    Ok((w.nominal_rate * LADDER_RATIO.powi(lo), log))
}

/// Peak resident set of this process (server included), in MB.
fn read_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How many requests of an op the traced run probes when the mix does
/// not send it (sized to the op's cost on the 16–20k-vertex graphs).
fn probe_count(op: Op) -> usize {
    match op {
        Op::Dominates => 32,
        Op::Skyline => 8,
        Op::Update => 6,
        Op::Clique => 4,
        Op::Group => 1,
    }
}

/// Everything one run measured, handed to [`metrics`].
pub struct Measured {
    /// Set-up timings of every repetition.
    pub setups: Vec<SetupTimes>,
    /// The nominal window, every repetition in order.
    pub nominal: Vec<(Request, Exchange)>,
    /// Each repetition's start and its slice of `nominal`.
    pub windows: Vec<(Instant, Range<usize>)>,
    /// Generator backlog high-water mark in the nominal window.
    pub backlog_max: usize,
    /// Traced run only: the highest sustained ladder rate.
    pub sustainable_qps: f64,
    /// Peak RSS once the first set-up is done, MB.
    pub peak_rss_mb: f64,
    /// Traced run only: probes of the ops the mix does not send.
    pub probes: Vec<(Request, Exchange)>,
    /// Traced run only: sequential ping round trips, fresh connections, ms.
    pub connect_pings: Vec<f64>,
    /// Traced run only: sequential ping round trips, one connection, ms.
    pub keepalive_pings: Vec<f64>,
    /// Traced run only: the layer replay.
    pub layers: Option<replay::Layers>,
    /// Traced run only: spans recorded.
    pub spans: usize,
    /// Server counters at the end of the run.
    pub server: ServerStats,
    /// Requests attempted (warm-up excluded).
    pub attempted: usize,
    /// Requests failed, refused or answered wrongly.
    pub failed: usize,
    /// Requests answered partially.
    pub partial: usize,
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let workers = std::thread::available_parallelism().map_or(2, usize::from);
    eprintln!(
        "nsky-servebench: {} seed {} for {}s, trace {}, {workers} cores",
        w.name, args.seed, args.seconds, args.trace
    );

    let mut setups = Vec::new();
    let mut served: Option<Served> = None;
    let mut peak_rss_mb = 0.0;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = served.take() {
            old.handle.shutdown_and_drain();
        }
        let s = set_up(w, args.seed, workers)?;
        if setups.is_empty() {
            // Read before later set-ups reuse (and fragment) freed memory.
            peak_rss_mb = read_peak_rss_mb();
        }
        setups.push(s.times);
        served = Some(s);
    }
    let Served {
        handle,
        base,
        mut gen,
        warm,
        ..
    } = served.expect("set up at least once");
    let addr = handle.addr();

    let mut nominal = Vec::new();
    let mut windows = Vec::new();
    let mut backlog_max = 0;
    let mut nominal_ok = true;
    for _ in 0..REPETITIONS {
        // CAST: the repetition count is a small constant.
        let reqs = gen.schedule(w.mix, w.nominal_rate, args.seconds / REPETITIONS as f64);
        let phase = openloop::drive(addr, w.transport, workers, &reqs)
            .map_err(|e| format!("nominal window: {e}"))?;
        backlog_max = backlog_max.max(phase.backlog_max);
        let start = phase.start;
        let window = settle(reqs, phase);
        nominal_ok &= sustained(&window, w.tail_limit_ms);
        windows.push((start, nominal.len()..nominal.len() + window.len()));
        nominal.extend(window);
    }

    let mut sustainable_qps = 0.0;
    let mut ladder_log = Vec::new();
    let mut probes = Vec::new();
    let mut connect_pings = Vec::new();
    let mut keepalive_pings = Vec::new();
    let mut probes_start = Instant::now();
    if args.trace {
        (sustainable_qps, ladder_log) = ladder(w, addr, workers, &mut gen, nominal_ok)?;
        let ping = "{\"op\":\"ping\"}\n";
        let rtts = |fresh: bool, n: usize| -> Result<Vec<f64>, String> {
            let phase = openloop::sequential(addr, &vec![ping; n], fresh)
                .map_err(|e| format!("ping: {e}"))?;
            Ok(phase.exchanges.iter().map(Exchange::latency_ms).collect())
        };
        connect_pings = rtts(true, 40)?;
        // The first ping of the kept-alive connection pays its accept.
        keepalive_pings = rtts(false, 201)?.split_off(1);
        let mut reqs = Vec::new();
        for op in Op::ALL.into_iter().filter(|&op| !w.sends(op)) {
            for _ in 0..probe_count(op) {
                reqs.push(gen.request(op));
            }
        }
        let frames: Vec<&str> = reqs.iter().map(|r| r.line.as_str()).collect();
        let phase =
            openloop::sequential(addr, &frames, false).map_err(|e| format!("probe: {e}"))?;
        probes_start = phase.start;
        probes = settle(reqs, phase);
    }
    let server = handle.shutdown_and_drain();

    // Check every answer.
    let everything: Vec<&(Request, Exchange)> = warm
        .iter()
        .chain(&nominal)
        .chain(&ladder_log)
        .chain(&probes)
        .collect();
    let answers: Vec<oracle::Answer<'_>> = everything
        .iter()
        .filter_map(|(req, x)| {
            x.reply
                .as_ref()
                .ok()
                .map(|digest| oracle::Answer { req, digest })
        })
        .collect();
    let failed = everything.len() - answers.len();
    for (req, x) in &everything {
        if let Err(why) = &x.reply {
            eprintln!("request {} ({}) failed: {why}", req.id, req.op.name());
        }
    }
    let partial = answers.iter().filter(|a| a.digest.partial).count();
    let verdicts = oracle::verify(&base, &answers);
    let wrong = verdicts.iter().flatten().count();
    for (a, why) in answers.iter().zip(&verdicts) {
        if let Some(why) = why {
            eprintln!(
                "wrong answer to request {} ({}): {why}",
                a.req.id,
                a.req.op.name()
            );
        }
    }

    let mut layers = None;
    let mut spans = 0;
    if args.trace {
        let mut tracer = replay::Tracer::new();
        let mut span_of = std::collections::HashMap::new();
        let phases = windows
            .iter()
            .map(|(start, range)| (&nominal[range.clone()], *start))
            .chain([(&probes[..], probes_start)]);
        for (group, start) in phases {
            let origin = tracer.stamp(start);
            for (req, x) in group {
                let root = tracer.push(
                    "request",
                    origin + x.due_ns,
                    origin + x.done_ns,
                    None,
                    req.id,
                );
                tracer.push(
                    "gen.wait",
                    origin + x.due_ns,
                    origin + x.sent_ns,
                    Some(root),
                    req.id,
                );
                tracer.push(
                    "round_trip",
                    origin + x.sent_ns,
                    origin + x.done_ns,
                    Some(root),
                    req.id,
                );
                span_of.insert(req.id, root);
            }
        }
        let items: Vec<replay::Item<'_>> = answers
            .iter()
            .filter(|a| a.req.op == Op::Update || span_of.contains_key(&a.req.id))
            .map(|a| replay::Item {
                req: a.req,
                generation: a.digest.generation,
                span: span_of.get(&a.req.id).copied(),
            })
            .collect();
        layers = Some(replay::replay(&base, &items, REPLAY_CAP, &mut tracer));
        spans = tracer.len();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "nsky-servebench: {spans} spans written to {}",
            path.display()
        );
    }

    let attempted = nominal.len() + ladder_log.len() + probes.len();
    let measured = Measured {
        setups,
        nominal,
        windows,
        backlog_max,
        sustainable_qps,
        peak_rss_mb,
        probes,
        connect_pings,
        keepalive_pings,
        layers,
        spans,
        server,
        attempted,
        failed: failed + wrong,
        partial,
    };
    let report: Report = if args.trace {
        metrics::per_layer(w, &measured)
    } else {
        metrics::end_to_end(&measured)
    };
    Ok(report.to_json(wrong == 0, attempted, failed + wrong))
}
