//! The served workloads: a fresh `c1pd --event-loop --shards 2
//! --threads 1` on loopback, driven by two closed-loop connections.
//!
//! Every request is generated and encoded before the clock starts; the
//! timed loop only writes a frame, reads the reply and keeps its bytes.
//! All decoding and checking happens after the window.

use crate::check::{check_order, check_witness};
use crate::ledger::{median, parse_trace, quantile, self_times, stat, Report, Trace};
use crate::sys::peak_rss_mb;
use crate::{mix, Outcome};
use c1p::core_alg::stats::PHASE_NAMES;
use c1p::engine::proto::{decode_msg, encode_msg, read_frame, Msg};
use c1p::matrix::generate::{
    append_stream, append_stream_reject, mixed_schedule, AppendStream, MixedSchedule,
};
use c1p::matrix::io::{encode_ensemble, WireVerdict};
use c1p::matrix::Ensemble;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop client connections (the 2-core load budget).
const CONNS: usize = 2;
/// Requests each connection keeps outstanding. Four keep both cores
/// busy; with one, each request waits on thread wake-ups that the
/// shared host delays by varying amounts, and throughput moved by ±15%
/// between runs of identical code.
const DEPTH: usize = 4;
/// Server spawns timed for `setup_s`; the last one is measured.
const SETUPS: usize = 41;
/// Requests generated per measured second in `serve`: more than twice
/// the most any run has answered (about 2700 req/s), so the plan
/// outlasts the window. A connection that reaches the end of its share
/// fails the run instead of replaying requests the result cache has
/// seen.
const SERVE_REQS_PER_S: usize = 6_000;
/// Longest traced window. The per-layer figures need no more, and a
/// traced run of `serve` measures three windows in all.
const TRACED_SECONDS: f64 = 15.0;
/// `mixed_schedule` chunk length; each chunk has its own seed.
const CHUNK: usize = 1000;
/// Session streams per `sessions` run; a connection that finishes them
/// all starts again from the first (each stream in a new session).
const STREAMS: usize = 64;
/// Session streams each connection keeps open at once. Opens go to the
/// shards round-robin, so with one stream per connection both streams
/// sometimes sat on one shard while the other idled.
const STREAMS_IN_FLIGHT: usize = 2;
/// Pushes per session stream.
const PUSHES: usize = 32;
/// Independent blocks per session stream.
const BLOCKS: usize = 16;
/// Streams replayed in-process for the `incremental.*` figures.
const REPLAY_STREAMS: usize = 16;
/// Reply frames larger than this are refused (trace dumps are large).
const MAX_REPLY: usize = 1 << 30;

/// A served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One-shot `Solve` requests replaying `mixed_schedule`.
    Serve,
    /// Durable `append_stream` sessions: open, pushes, seal.
    Sessions,
}

/// A running `c1pd`, killed and reaped on drop.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
    /// Where the server's stderr goes.
    log: PathBuf,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    /// Spawns `c1pd` and waits for its first `Pong`; returns the server
    /// and the seconds from spawn to that reply.
    fn start(c1pd: &Path, extra: &[String], log: &Path) -> Result<(Server, f64), String> {
        let stderr = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(c1pd)
            .args(["--addr", "127.0.0.1:0", "--event-loop", "--shards", "2", "--threads", "1"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", c1pd.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server =
            Server { child, _stdout: stdout, addr: String::new(), log: log.to_path_buf() };
        let mut line = String::new();
        server._stdout.read_line(&mut line).map_err(|e| format!("reading c1pd stdout: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("c1pd listening on ")
            .ok_or_else(|| format!("c1pd did not report its address (got {line:?})"))?
            .to_string();
        let mut conn = server.connect()?;
        match conn.call(&Msg::Ping { id: 1 })? {
            Msg::Pong { id: 1, .. } => Ok((server, t0.elapsed().as_secs_f64())),
            other => Err(format!("ping answered with {other:?}")),
        }
    }

    fn connect(&self) -> Result<Conn, String> {
        let s =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
        Ok(Conn { s, buf: Vec::with_capacity(1 << 16) })
    }

    /// After failed operations, shows what the server logged.
    fn report_log(&self, failed: u64) {
        if failed > 0 {
            let log = std::fs::read_to_string(&self.log).unwrap_or_default();
            for line in log.lines().take(20) {
                eprintln!("perfbench: c1pd stderr: {line}");
            }
        }
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// The server's `GetStats` JSON.
    fn stats(&self) -> Result<String, String> {
        match self.connect()?.call(&Msg::GetStats)? {
            Msg::Stats { json } => Ok(json),
            other => Err(format!("GetStats answered with {other:?}")),
        }
    }

    /// The server's retained traces.
    fn traces(&self) -> Result<Vec<Trace>, String> {
        match self.connect()?.call(&Msg::GetTraces)? {
            Msg::Traces { jsonl } => jsonl
                .lines()
                .map(|l| parse_trace(l).ok_or_else(|| format!("unparsable trace line {l:?}")))
                .collect(),
            other => Err(format!("GetTraces answered with {other:?}")),
        }
    }
}

/// Length-prefixes a payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(4 + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

/// One client connection.
struct Conn {
    s: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// One request outside any window: `msg` and its decoded reply.
    fn call(&mut self, msg: &Msg) -> Result<Msg, String> {
        self.s.write_all(&frame(&encode_msg(msg))).map_err(|e| format!("write: {e}"))?;
        decode_msg(&self.recv()?).map_err(|e| format!("undecodable reply: {e}"))
    }

    /// Writes `header ++ body` as one frame, assembled before the clock
    /// starts; returns when its first byte was written.
    fn send(&mut self, header: &[u8], body: &[u8]) -> Result<Instant, String> {
        self.buf.clear();
        self.buf.extend_from_slice(&((header.len() + body.len()) as u32).to_le_bytes());
        self.buf.extend_from_slice(header);
        self.buf.extend_from_slice(body);
        let t0 = Instant::now();
        self.s.write_all(&self.buf).map_err(|e| format!("write: {e}"))?;
        Ok(t0)
    }

    /// Reads one reply frame.
    fn recv(&mut self) -> Result<Vec<u8>, String> {
        read_frame(&mut self.s, MAX_REPLY)
            .map_err(|e| format!("read: {e}"))?
            .ok_or_else(|| "server closed the connection".to_string())
    }
}

/// One completed (or failed) operation, as the timed loop saw it.
struct Done {
    /// Index of the request in the plan (`serve`) or `(stream, step)`.
    at: (usize, usize),
    id: u64,
    latency_us: f64,
    /// Completion time, seconds into the window.
    end_s: f64,
    reply: Result<Vec<u8>, String>,
}

/// A measured window: every operation, its wall length, and the
/// server's peak RSS once `RSS_AFTER_OPS` operations had completed.
struct Window {
    done: Vec<Done>,
    elapsed: Duration,
    rss_mb: Option<f64>,
}

/// Operations completed before the server's peak RSS is read. A fixed
/// count, not the end of the window, so the figure does not grow with
/// throughput as the result cache fills.
const RSS_AFTER_OPS: usize = 4000;

/// The shared clock of one window's client threads.
struct Clock {
    t_start: Instant,
    deadline: Instant,
    completed: AtomicUsize,
    server_pid: String,
    rss_mb: Mutex<Option<f64>>,
}

impl Clock {
    fn running(&self) -> bool {
        Instant::now() < self.deadline
    }

    /// Files a finished operation; the `RSS_AFTER_OPS`-th one reads the
    /// server's peak RSS.
    fn record(&self, done: &mut Vec<Done>, mut d: Done) {
        d.end_s = self.t_start.elapsed().as_secs_f64();
        done.push(d);
        if self.completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_OPS {
            *self.rss_mb.lock().expect("rss lock") = peak_rss_mb(&self.server_pid).ok();
        }
    }
}

/// Runs `client` on `CONNS` connections until `seconds` have passed.
fn drive(
    server: &Server,
    seconds: f64,
    client: impl Fn(usize, &mut Conn, &Clock, &mut Vec<Done>) + Sync,
) -> Result<Window, String> {
    let t_start = Instant::now();
    let clock = Clock {
        t_start,
        deadline: t_start + Duration::from_secs_f64(seconds),
        completed: AtomicUsize::new(0),
        server_pid: server.child.id().to_string(),
        rss_mb: Mutex::new(None),
    };
    let results: Vec<Result<Vec<Done>, String>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let (clock, client) = (&clock, &client);
                sc.spawn(move || -> Result<Vec<Done>, String> {
                    let mut conn = server.connect()?;
                    let mut done = Vec::new();
                    client(c, &mut conn, clock, &mut done);
                    Ok(done)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = t_start.elapsed();
    let mut done = Vec::new();
    for r in results {
        done.extend(r?);
    }
    let rss_mb = clock.rss_mb.into_inner().expect("rss lock");
    Ok(Window { done, elapsed, rss_mb })
}

/// Latency median, latency p99 and throughput of every whole second of
/// the window, each reported as its median over the seconds.
fn per_second(w: &Window) -> [f64; 3] {
    let secs = (w.elapsed.as_secs_f64() as usize).max(1);
    let mut lat: Vec<Vec<f64>> = vec![vec![]; secs];
    for d in &w.done {
        if let Some(v) = lat.get_mut(d.end_s as usize) {
            v.push(d.latency_us);
        }
    }
    let over = |f: fn(&[f64]) -> f64| median(&lat.iter().map(|v| f(v)).collect::<Vec<_>>());
    [over(median), over(|v| quantile(v, 0.99)), over(|v| v.len() as f64)]
}

fn header(tag: u8, id: u64, session: Option<u64>) -> Vec<u8> {
    let mut h = vec![tag];
    h.extend_from_slice(&id.to_le_bytes());
    if let Some(s) = session {
        h.extend_from_slice(&s.to_le_bytes());
    }
    h
}

// Frame tags of the documented `c1pd` protocol (`c1p::engine::proto`);
// `check_framing` confirms them against the program's own encoder.
const TAG_SOLVE: u8 = 0x01;
const TAG_OPEN: u8 = 0x06;
const TAG_PUSH: u8 = 0x07;
const TAG_SEAL: u8 = 0x08;

/// Confirms, before any timing, that hand-assembled frames equal what
/// the program's encoder makes of the same messages.
fn check_framing(ens: &Ensemble) -> Result<(), String> {
    let body = encode_ensemble(ens);
    let cases = [
        (Msg::Solve { id: 7, ens: ens.clone() }, header(TAG_SOLVE, 7, None)),
        (Msg::OpenSession { id: 7, n_atoms: 9 }, {
            let mut h = header(TAG_OPEN, 7, None);
            h.extend_from_slice(&9u64.to_le_bytes());
            h
        }),
        (Msg::PushAtoms { id: 7, session: 3, delta: ens.clone() }, header(TAG_PUSH, 7, Some(3))),
        (Msg::SealSession { id: 7, session: 3 }, header(TAG_SEAL, 7, Some(3))),
    ];
    for (i, (msg, mut h)) in cases.into_iter().enumerate() {
        if matches!(msg, Msg::Solve { .. } | Msg::PushAtoms { .. }) {
            h.extend_from_slice(&body);
        }
        if encode_msg(&msg) != h {
            return Err(format!("hand-built frame {i} differs from the program's encoder"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// serve: one-shot solves

/// The `serve` request plan: chunk `c` is `mixed_schedule` under its own
/// seed (n in [48, 160], every 3rd request a replay of an earlier one,
/// every 4th fresh one a planted reject).
fn schedule_params(seed: u64, chunk: usize) -> MixedSchedule {
    MixedSchedule {
        requests: CHUNK,
        seed: mix(seed, 1_000_000 + chunk as u64),
        dup_every: 3,
        reject_every: 4,
        n_lo: 48,
        n_hi: 160,
    }
}

/// An instance as a map key: its atom count and columns.
type Key<'a> = (usize, &'a [Vec<u32>]);

/// Ground truth of one chunk: whether each request is a planted reject.
/// A replay carries the verdict of the fresh instance it repeats.
fn chunk_truth(p: &MixedSchedule, sched: &[Ensemble]) -> Vec<bool> {
    let mut fresh: HashMap<Key, bool> = HashMap::new();
    let mut out = Vec::with_capacity(sched.len());
    for (i, ens) in sched.iter().enumerate() {
        let is_dup_slot = p.dup_every > 0 && i % p.dup_every == p.dup_every - 1 && i > 0;
        let truth = if is_dup_slot {
            *fresh.get(&(ens.n_atoms(), ens.columns())).expect("a replay repeats a fresh instance")
        } else {
            let reject = p.reject_every > 0 && i % p.reject_every == p.reject_every - 1;
            fresh.entry((ens.n_atoms(), ens.columns())).or_insert(reject);
            reject
        };
        out.push(truth);
    }
    out
}

/// One request of a pipeline: where it sits in the plan, its id, and
/// its frame as header and pre-encoded body.
type Req<'a> = ((usize, usize), u64, Vec<u8>, &'a [u8]);

/// What a pipeline sends: the next request that can go out now, told
/// of each reply as it arrives.
trait Source<'a> {
    fn next(&mut self) -> Option<Req<'a>>;
    fn replied(&mut self, _d: &Done) {}
}

impl<'a, I: Iterator<Item = Req<'a>>> Source<'a> for I {
    fn next(&mut self) -> Option<Req<'a>> {
        Iterator::next(self)
    }
}

/// Sends requests from `src` keeping up to `DEPTH` outstanding, each
/// timed from its first byte written to the last byte of its reply
/// read; stops sending when the window closes and drains what is in
/// flight. Stops early if the connection breaks.
fn pipeline<'a>(conn: &mut Conn, clock: &Clock, done: &mut Vec<Done>, src: &mut impl Source<'a>) {
    let mut inflight = VecDeque::with_capacity(DEPTH);
    loop {
        while inflight.len() < DEPTH && clock.running() {
            let Some((at, id, header, body)) = src.next() else { break };
            match conn.send(&header, body) {
                Ok(t0) => inflight.push_back((at, id, t0)),
                Err(e) => {
                    clock.record(done, Done { at, id, latency_us: 0.0, end_s: 0.0, reply: Err(e) });
                    return;
                }
            }
        }
        let Some((at, id, t0)) = inflight.pop_front() else { return };
        let reply = conn.recv();
        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
        let ok = reply.is_ok();
        let d = Done { at, id, latency_us, end_s: 0.0, reply };
        src.replied(&d);
        clock.record(done, d);
        if !ok {
            return;
        }
    }
}

fn run_serve(server: &Server, bodies: &[Arc<Vec<u8>>], seconds: f64) -> Result<Window, String> {
    let ran_out = AtomicBool::new(false);
    let w = drive(server, seconds, |c, conn, clock, done| {
        let mut reqs = (c..bodies.len()).step_by(CONNS).map(|req| {
            let id = req as u64 + 1;
            ((req, 0), id, header(TAG_SOLVE, id, None), bodies[req].as_slice())
        });
        pipeline(conn, clock, done, &mut reqs);
        if Iterator::next(&mut reqs).is_none() {
            ran_out.store(true, Ordering::Relaxed);
        }
    })?;
    if ran_out.into_inner() {
        return Err(format!(
            "a connection sent its whole share of the {} planned requests before the \
             window closed; raise SERVE_REQS_PER_S",
            bodies.len()
        ));
    }
    Ok(w)
}

/// Checks every `serve` reply after the window. Returns the failures.
fn check_serve(seed: u64, w: &Window) -> u64 {
    let mut by_chunk: HashMap<usize, Vec<&Done>> = HashMap::new();
    for d in &w.done {
        by_chunk.entry(d.at.0 / CHUNK).or_default().push(d);
    }
    let mut failed = 0;
    for (chunk, dones) in by_chunk {
        let p = schedule_params(seed, chunk);
        let sched = mixed_schedule(p);
        let truth = chunk_truth(&p, &sched);
        for d in dones {
            let i = d.at.0 % CHUNK;
            let verdict = match decode_reply(d) {
                Ok((_, v)) => check_verdict(sched[i].n_atoms(), sched[i].columns(), truth[i], &v),
                Err(e) => Err(e),
            };
            if let Err(e) = verdict {
                eprintln!("perfbench: request {} (id {}): {e}", d.at.0, d.id);
                failed += 1;
            }
        }
    }
    failed
}

/// Decodes a reply and checks it answers request `d.id` with a verdict;
/// returns the session handle (0 for `Verdict`) and the verdict.
fn decode_reply(d: &Done) -> Result<(u64, WireVerdict), String> {
    let bytes = d.reply.as_ref().map_err(|e| format!("no reply: {e}"))?;
    match decode_msg(bytes).map_err(|e| format!("protocol error: {e}"))? {
        Msg::Verdict { id, verdict } if id == d.id => Ok((0, verdict)),
        Msg::SessionVerdict { id, session, verdict } if id == d.id => Ok((session, verdict)),
        Msg::Error { id, code, message } => {
            Err(format!("error frame for id {id}: {code:?} {message}"))
        }
        other => Err(format!("reply does not answer id {}: {other:?}", d.id)),
    }
}

/// Checks a verdict for an instance of `n_atoms` atoms and `columns`
/// against the generator's ground truth and the independent checks.
fn check_verdict(
    n_atoms: usize,
    columns: &[Vec<u32>],
    reject: bool,
    v: &WireVerdict,
) -> Result<(), String> {
    match (reject, v) {
        (false, WireVerdict::Accept { order }) => {
            check_order(n_atoms, columns.iter().map(Vec::as_slice), order)
        }
        (true, WireVerdict::Reject { atom_rows, column_ids, .. }) => {
            let cols: Vec<&[u32]> = columns.iter().map(Vec::as_slice).collect();
            check_witness(n_atoms, &cols, atom_rows, column_ids).map(drop)
        }
        (false, _) => Err("planted accept was rejected".into()),
        (true, _) => Err("planted reject was accepted".into()),
    }
}

// ---------------------------------------------------------------------
// sessions: durable incremental streams

/// Stream `s` of the `sessions` plan: about a thousand atoms in 16
/// blocks, 32 pushes; every 4th stream carries one spliced reject push.
fn stream(seed: u64, s: usize) -> (AppendStream, Option<usize>) {
    let ss = mix(seed, 2_000_000 + s as u64);
    let n = 896 + (ss % 257) as usize;
    if s % 4 == 3 {
        let (st, at, _) = append_stream_reject(n, BLOCKS, PUSHES, ss);
        (st, Some(at))
    } else {
        (append_stream(n, BLOCKS, PUSHES, ss), None)
    }
}

/// One stream's requests, encoded: the open's atom count and the pushes.
struct Plan {
    /// The stream's index in the seed's sequence.
    stream: usize,
    open: [u8; 8],
    pushes: Vec<Vec<u8>>,
}

/// A stream on which `IncrementalSolver` fails whatever the seed: it
/// rejects push 10, which one-shot `c1p::solve` accepts, and then panics
/// in `certify_rejection`. The `sessions` workload replays it in-process
/// in every run, so the fault counts in `failed` until it is mended.
const KNOWN_FAULT: (usize, u64) = (1131, 5_881_416_630_520_175_525);

/// How a stream failed in-process: the pushes made, and what went wrong.
type Fault = (u64, String);

/// Replays a stream in-process through `IncrementalSolver::push`; fails
/// at the first push that panics or disagrees with the generator.
fn replay(st: &AppendStream, reject_at: Option<usize>) -> Result<(), Fault> {
    let mut inc = c1p::IncrementalSolver::new(st.n_atoms);
    for k in 0..st.pushes.len() {
        let delta = st.push_ensemble(k);
        let fault = match std::panic::catch_unwind(AssertUnwindSafe(|| inc.push(&delta))) {
            Err(_) => "panicked",
            Ok(Err(_)) if reject_at != Some(k) => "rejected a planted accept",
            Ok(Ok(_)) if reject_at == Some(k) => "accepted the spliced reject",
            Ok(_) => continue,
        };
        return Err((k as u64 + 1, format!("in-process push {k} {fault}")));
    }
    Ok(())
}

/// The session streams of one run, and the pushes made and failed while
/// screening them.
struct Sessions {
    plans: Vec<Plan>,
    attempted: u64,
    failed: u64,
}

/// The first `STREAMS` streams of the seed, encoded, each first replayed
/// in-process (`replay`). A stream that fails there counts its pushes in
/// `attempted` and its failure in `failed`, and stays out of the server
/// window: a shard that panics on it fails whatever else it holds in
/// flight, so the count of failures would differ from run to run. With
/// `known_fault`, the `KNOWN_FAULT` stream is replayed and counted too.
fn screened_plans(seed: u64, known_fault: bool) -> Sessions {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut screened: Vec<(usize, Result<Plan, Fault>)> = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..CONNS)
            .map(|t| {
                sc.spawn(move || {
                    (t..STREAMS)
                        .step_by(CONNS)
                        .map(|s| {
                            let (st, reject_at) = stream(seed, s);
                            let plan = replay(&st, reject_at).map(|()| Plan {
                                stream: s,
                                open: (st.n_atoms as u64).to_le_bytes(),
                                pushes: (0..st.pushes.len())
                                    .map(|k| encode_ensemble(&st.push_ensemble(k)))
                                    .collect(),
                            });
                            (s, plan)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("screening thread panicked")).collect()
    });
    let known = known_fault.then(|| {
        let (n, seed) = KNOWN_FAULT;
        replay(&append_stream(n, BLOCKS, PUSHES, seed), None)
    });
    std::panic::set_hook(hook);
    screened.sort_by_key(|x| x.0);
    let mut out = Sessions { plans: vec![], attempted: 0, failed: 0 };
    let mut faults = vec![];
    for (s, r) in screened {
        match r {
            Ok(plan) => out.plans.push(plan),
            Err(f) => faults.push((format!("stream {s}"), f)),
        }
    }
    if let Some(Err(f)) = known {
        faults.push(("the known-fault stream".to_string(), f));
    }
    for (name, (pushes, e)) in faults {
        eprintln!("perfbench: {name} failed and stays out of the window: {e}");
        out.attempted += pushes;
        out.failed += 1;
    }
    out
}

/// The `sessions` client of one connection: `STREAMS_IN_FLIGHT` streams
/// at a time, their requests interleaved. A stream's pushes wait for
/// its open's reply, which names the session handle.
struct Streams<'a> {
    plans: &'a [Plan],
    /// Per active stream: its index, the next step to send, and its
    /// handle once the open is answered.
    active: Vec<(usize, usize, Option<u64>)>,
    next_stream: usize,
    turn: usize,
    next_id: u64,
}

impl<'a> Source<'a> for Streams<'a> {
    fn next(&mut self) -> Option<Req<'a>> {
        for k in 0..self.active.len() {
            let slot = (self.turn + k) % self.active.len();
            let (s, step, session) = self.active[slot];
            let plan = &self.plans[s % self.plans.len()];
            let id = self.next_id;
            let req = match (step, session) {
                (0, _) => ((s, 0), id, header(TAG_OPEN, id, None), &plan.open[..]),
                (_, None) => continue,
                (step, Some(h)) if step <= plan.pushes.len() => {
                    ((s, step), id, header(TAG_PUSH, id, Some(h)), &plan.pushes[step - 1][..])
                }
                (step, Some(h)) => ((s, step), id, header(TAG_SEAL, id, Some(h)), &[][..]),
            };
            self.next_id += CONNS as u64;
            self.turn = slot + 1;
            self.active[slot].1 += 1;
            if step > plan.pushes.len() {
                // sealed: the slot takes the connection's next stream
                self.active[slot] = (self.next_stream, 0, None);
                self.next_stream += CONNS;
            }
            return Some(req);
        }
        None
    }

    fn replied(&mut self, d: &Done) {
        if d.at.1 == 0 {
            let handle = match d.reply.as_deref().map(decode_msg) {
                Ok(Ok(Msg::SessionVerdict { session, .. })) => session,
                // the reply is checked after the window; a bad one fails
                // the open and every later step of its stream
                _ => 0,
            };
            if let Some(slot) = self.active.iter_mut().find(|a| a.0 == d.at.0) {
                slot.2 = Some(handle);
            }
        }
    }
}

fn run_sessions(server: &Server, plans: &[Plan], seconds: f64) -> Result<Window, String> {
    drive(server, seconds, |c, conn, clock, done| {
        let first = (0..STREAMS_IN_FLIGHT).map(|k| (c + k * CONNS, 0, None)).collect();
        let mut src = Streams {
            plans,
            active: first,
            next_stream: c + STREAMS_IN_FLIGHT * CONNS,
            turn: 0,
            next_id: c as u64 + 1,
        };
        pipeline(conn, clock, done, &mut src);
    })
}

/// Checks every `sessions` reply after the window: the open answers a
/// fresh handle; each push accepts with an order of everything accepted
/// so far, except the spliced push, which rejects with a witness from
/// the extended ensemble; the seal accepts everything accepted. Returns
/// the failures and the accepted pushes.
fn check_sessions(seed: u64, plans: &[Plan], w: &Window) -> (u64, u64) {
    let mut by_stream: HashMap<usize, Vec<&Done>> = HashMap::new();
    for d in &w.done {
        by_stream.entry(d.at.0).or_default().push(d);
    }
    let (mut failed, mut accepted) = (0, 0);
    for (s, mut dones) in by_stream {
        dones.sort_by_key(|d| d.at.1);
        let (st, reject_at) = stream(seed, plans[s % plans.len()].stream);
        let mut cols: Vec<Vec<u32>> = Vec::new();
        let mut handle = 0;
        for d in dones {
            let step = d.at.1;
            let r = decode_reply(d).and_then(|(session, v)| {
                if step == 0 {
                    handle = session;
                    return match v {
                        WireVerdict::Accept { order } if order.is_empty() && session != 0 => Ok(()),
                        _ => Err("open did not answer a fresh empty session".into()),
                    };
                }
                if session != handle {
                    return Err(format!("answered for session {session}, not {handle}"));
                }
                if step > st.pushes.len() {
                    return check_verdict(st.n_atoms, &cols, false, &v);
                }
                let k = step - 1;
                let before = cols.len();
                cols.extend(st.pushes[k].iter().cloned());
                let reject = reject_at == Some(k);
                let r = check_verdict(st.n_atoms, &cols, reject, &v);
                if reject || r.is_err() {
                    cols.truncate(before);
                } else {
                    accepted += 1;
                }
                r
            });
            if let Err(e) = r {
                eprintln!("perfbench: stream {s} step {step} (id {}): {e}", d.id);
                failed += 1;
            }
        }
    }
    (failed, accepted)
}

// ---------------------------------------------------------------------
// running a served workload

/// What a served workload sends, generated and encoded before any clock
/// starts.
enum Load {
    /// The `serve` request bodies, in plan order.
    Serve(Vec<Arc<Vec<u8>>>),
    Sessions(Sessions),
}

impl Load {
    /// The load of `mode` for `seed`; `known_fault` adds the
    /// `KNOWN_FAULT` replay to a sessions load.
    fn new(mode: Mode, seed: u64, seconds: f64, known_fault: bool) -> Result<Load, String> {
        match mode {
            Mode::Serve => {
                let chunks = (SERVE_REQS_PER_S as f64 * seconds / CHUNK as f64).ceil() as usize;
                check_framing(&mixed_schedule(schedule_params(seed, 0))[0])?;
                // chunks are independent: two threads encode half each
                let mut bodies: Vec<(usize, Vec<Arc<Vec<u8>>>)> = std::thread::scope(|sc| {
                    let workers: Vec<_> = (0..CONNS)
                        .map(|t| {
                            sc.spawn(move || {
                                (t..chunks)
                                    .step_by(CONNS)
                                    .map(|c| {
                                        (c, encode_chunk(&mixed_schedule(schedule_params(seed, c))))
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    workers
                        .into_iter()
                        .flat_map(|w| w.join().expect("encoding thread panicked"))
                        .collect()
                });
                bodies.sort_by_key(|b| b.0);
                Ok(Load::Serve(bodies.into_iter().flat_map(|b| b.1).collect()))
            }
            Mode::Sessions => {
                check_framing(&stream(seed, 0).0.push_ensemble(0))?;
                let sessions = screened_plans(seed, known_fault);
                if sessions.plans.is_empty() {
                    return Err("every session stream failed in-process".into());
                }
                Ok(Load::Sessions(sessions))
            }
        }
    }

    fn mode(&self) -> Mode {
        match self {
            Load::Serve(_) => Mode::Serve,
            Load::Sessions(_) => Mode::Sessions,
        }
    }

    /// Runs one window on `server` and checks every reply after it;
    /// returns the window and its failed operations.
    fn measure(&self, server: &Server, seed: u64, seconds: f64) -> Result<(Window, u64), String> {
        let (w, failed) = match self {
            Load::Serve(bodies) => {
                let w = run_serve(server, bodies, seconds)?;
                let failed = check_serve(seed, &w);
                (w, failed)
            }
            Load::Sessions(s) => {
                let w = run_sessions(server, &s.plans, seconds)?;
                let (mut failed, accepted) = check_sessions(seed, &s.plans, &w);
                let fsyncs = stat(&server.stats()?, "wal_fsyncs").unwrap_or(-1.0);
                if fsyncs != accepted as f64 {
                    eprintln!(
                        "perfbench: server made {fsyncs} WAL fsyncs for {accepted} accepted pushes"
                    );
                    failed += 1;
                }
                (w, failed)
            }
        };
        server.report_log(failed);
        Ok((w, failed))
    }
}

/// One `mixed_schedule` chunk's request bodies; a replay shares the
/// body of the instance it repeats.
fn encode_chunk(sched: &[Ensemble]) -> Vec<Arc<Vec<u8>>> {
    let mut seen: HashMap<Key, Arc<Vec<u8>>> = HashMap::new();
    sched
        .iter()
        .map(|ens| {
            let key = (ens.n_atoms(), ens.columns());
            Arc::clone(seen.entry(key).or_insert_with(|| Arc::new(encode_ensemble(ens))))
        })
        .collect()
}

/// Starts fresh servers, each with a directory of its own under `work`
/// for its write-ahead log and its stderr log.
struct Spawner<'a> {
    c1pd: &'a Path,
    work: &'a Path,
    spawns: usize,
}

impl Spawner<'_> {
    fn spawn(&mut self, mode: Mode, trace: bool) -> Result<(Server, f64), String> {
        self.spawns += 1;
        let dir = self.work.join(format!("c1pd-{}", self.spawns));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("wal")).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut f = vec![];
        if mode == Mode::Sessions {
            f.extend(["--wal-dir".to_string(), dir.join("wal").display().to_string()]);
        }
        if trace {
            // every request traced and kept, and an outbox that holds the
            // whole `GetTraces` dump: a window's dump passes the default 8 MB
            let keep = ["--trace-sample", "1", "--trace-ring", "1000000", "--outbox-kb", "1048576"];
            f.extend(keep.map(String::from));
        }
        Server::start(self.c1pd, &f, &dir.join("stderr.log"))
    }

    /// A window on a fresh server that records and keeps every request;
    /// its per-layer figures go into `r`. Returns the window and its
    /// failed operations.
    fn traced(
        &mut self,
        load: &Load,
        seed: u64,
        seconds: f64,
        r: &mut Report,
    ) -> Result<(Window, u64), String> {
        let (server, _) = self.spawn(load.mode(), true)?;
        let (w, failed) = load.measure(&server, seed, seconds)?;
        let traces = server.traces()?;
        let stats = server.stats()?;
        drop(server);
        server_layers(&w, &traces, &stats, r);
        if let Load::Sessions(s) = load {
            incremental_layers(seed, &s.plans, r);
        }
        Ok((w, failed))
    }
}

/// Runs one served workload against the `c1pd` binary at `c1pd`, with
/// write-ahead logs (for `sessions`) under `work`.
pub fn run(
    mode: Mode,
    c1pd: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let load = Load::new(mode, seed, seconds, true)?;
    let (mut attempted, mut failed) = match &load {
        Load::Sessions(s) => (s.attempted, s.failed),
        Load::Serve(_) => (0, 0),
    };
    let mut spawner = Spawner { c1pd, work, spawns: 0 };

    // set-up: spawn to first Pong, several times; the last server is measured
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let (s, secs) = spawner.spawn(mode, false)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    let (plain, plain_failed) = load.measure(&server, seed, seconds)?;
    attempted += plain.done.len() as u64;
    failed += plain_failed;
    let [p50, p99, ops_per_s] = per_second(&plain);
    let mut report = Report::default();
    report.set("setup_s", median(&setups), "s");
    report.set("latency_p50_us", p50, "us");
    report.set("latency_p99_us", p99, "us");
    report.set("throughput_ops", ops_per_s, "1/s");
    let rss = match plain.rss_mb {
        Some(mb) => mb,
        None => server.peak_rss_mb()?,
    };
    report.set("peak_rss_mb", rss, "MB");
    drop(server);
    if !traced {
        return Ok(Outcome { report, attempted, failed });
    }

    let seconds = seconds.min(TRACED_SECONDS);
    let (t, t_failed) = spawner.traced(&load, seed, seconds, &mut report)?;
    attempted += t.done.len() as u64;
    failed += t_failed;
    report.set("trace.overhead_us", per_second(&t)[0] - p50, "us");
    if mode == Mode::Serve {
        // the write path's layers come from a traced sessions window on
        // the same seed; its end-to-end figures are not gated
        let sessions = Load::new(Mode::Sessions, seed, seconds, false)?;
        let mut layers = Report::default();
        let (w, w_failed) = spawner.traced(&sessions, seed, seconds, &mut layers)?;
        report.copy_from(&layers, WRITE_PATH);
        if let Load::Sessions(s) = &sessions {
            attempted += s.attempted + w.done.len() as u64;
            failed += s.failed + w_failed;
        }
    }
    Ok(Outcome { report, attempted, failed })
}

/// Per-layer metrics of the durable write path, which the traced run of
/// `serve` takes from a traced `sessions` window.
const WRITE_PATH: &[&str] = &[
    "engine.wal_us.p50",
    "engine.wal_us.p99",
    "engine.wal_fsyncs",
    "incremental.push_us",
    "incremental.atoms_resolved",
    "incremental.components_resolved",
];

/// Per-stage self times from the server's own spans, matched to the
/// client's latencies by request id, plus the engine's counters.
fn server_layers(w: &Window, traces: &[Trace], stats: &str, r: &mut Report) {
    let client: HashMap<u64, f64> = w.done.iter().map(|d| (d.id, d.latency_us)).collect();
    let stages: [(&str, &[&str]); 8] = [
        ("net.decode_us", &["decode"]),
        ("net.admission_us", &["admission"]),
        ("net.flush_us", &["flush"]),
        ("engine.queue_us", &["queue"]),
        ("engine.mailbox_us", &["mailbox"]),
        ("engine.cache_us", &["cache", "coalesce"]),
        ("engine.solve_us", &["solve"]),
        ("engine.wal_us", &["wal"]),
    ];
    let mut samples: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut phases: Vec<Vec<f64>> = vec![vec![]; PHASE_NAMES.len()];
    let mut wire = vec![];
    let (mut attributed, mut total) = (0u64, 0u64);
    for t in traces.iter().filter(|t| client.contains_key(&t.id) && t.kind != "inline") {
        let own = self_times(t);
        for (metric, names) in stages {
            let v: Option<u64> =
                names.iter().filter_map(|n| own.get(*n)).copied().reduce(|a, b| a + b);
            if let Some(v) = v {
                samples.entry(metric).or_default().push(v as f64);
            }
        }
        for (ph, name) in PHASE_NAMES.iter().enumerate() {
            if let Some(&v) = own.get(&format!("solve/{name}")) {
                phases[ph].push(v as f64);
            }
        }
        attributed += own.iter().filter(|(n, _)| *n != "request").map(|(_, v)| v).sum::<u64>();
        total += t.total_us;
        wire.push(client[&t.id] - t.total_us as f64);
    }
    for (metric, _) in stages {
        r.set_dist(metric, samples.get(metric).map_or(&[][..], Vec::as_slice), "us");
    }
    for (ph, name) in PHASE_NAMES.iter().enumerate() {
        r.set(format!("core.{name}_us"), median(&phases[ph]), "us");
    }
    r.set_dist("net.wire_us", &wire, "us");
    r.set("trace.attributed_share", attributed as f64 / total.max(1) as f64, "ratio");
    let s = |k: &str| stat(stats, k).unwrap_or(0.0);
    let lookups = s("hits") + s("misses") + s("coalesced");
    r.set("engine.hit_ratio", s("hits") / lookups.max(1.0), "ratio");
    r.set("engine.batch_size", s("requests") / s("batches").max(1.0), "count");
    r.set("engine.coalesced", s("coalesced"), "count");
    r.set("engine.wal_fsyncs", s("wal_fsyncs"), "count");
}

/// Replays the first streams of the plan in-process through
/// `IncrementalSolver::push`: per-push time and the differential work.
fn incremental_layers(seed: u64, plans: &[Plan], r: &mut Report) {
    let (mut push_us, mut atoms, mut comps, mut pushes) = (vec![], 0u64, 0u64, 0u64);
    for plan in &plans[..REPLAY_STREAMS.min(plans.len())] {
        let (st, _) = stream(seed, plan.stream);
        let mut inc = c1p::IncrementalSolver::new(st.n_atoms);
        for k in 0..st.pushes.len() {
            let delta = st.push_ensemble(k);
            let t0 = Instant::now();
            std::hint::black_box(inc.push(&delta)).ok();
            push_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let stats = inc.stats();
        atoms += stats.atoms_resolved;
        comps += stats.components_resolved;
        pushes += stats.pushes;
    }
    r.set("incremental.push_us", median(&push_us), "us");
    r.set("incremental.atoms_resolved", atoms as f64 / pushes as f64, "count");
    r.set("incremental.components_resolved", comps as f64 / pushes as f64, "count");
}
