//! The `serve_tcp` workload: `jigsaw-sched serve 16` over TCP, driven by
//! the benchmark's own client, with crash recovery from a journal as its
//! set-up.
//!
//! The client holds one connection and a closed loop of [`WINDOW`]
//! requests in flight. It runs a seeded ALLOC/FREE/STATUS script whose
//! ALLOC sizes are Synth-16 sizes; it sends request `k` right after
//! handling reply `k - WINDOW`, so the script depends only on the seed and
//! on replies, never on timing. A *round* runs the script from an empty
//! machine, then frees every job and checks that STATUS reads empty, so
//! every round must produce the same reply stream.
//!
//! One run: (1) warm up a durable daemon (`--journal`) and SIGKILL it;
//! (2) run rounds for the measured time against an in-memory daemon and,
//! after each round, restart the durable daemon on a copy of the
//! crash-left journal, timing it until it accepts a connection
//! (`setup_s`) and checking the recovered STATUS against the acknowledged
//! jobs; both daemons then get SHUTDOWN, which must exit 0. Rounds run in
//! memory because the journal's fsync latency drifts too much on shared
//! machines for a steady figure (see README.md). The traced run adds a
//! transport probe (STATUS requests sent one at a time) and the same
//! script driven through `Engine` in-process with spans.

use crate::alloc::{Fingerprint, Recorder, RootLog, Timed};
use crate::stats::{median, quantile, ratio};
use crate::trace::{self, Name, Span};
use crate::{peak_rss_mb, Outcome};
use jigsaw_core::{Allocator, Scheme};
use jigsaw_net::{Engine, LineFramer, DEFAULT_MAX_LINE_LEN};
use jigsaw_obs::Registry;
use jigsaw_persist::{PersistentState, JOURNAL_FILE};
use jigsaw_topology::FatTree;
use jigsaw_traces::synth::synth;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const RADIX: u32 = 16;
/// Requests in flight on the one connection. With 32, client and daemon
/// threads woke per handful of requests and throughput swung with the
/// machine's scheduling noise.
const WINDOW: usize = 128;
/// Scripted requests per round (the frees and the final STATUS follow).
const ROUND: usize = 20_000;
/// Scripted requests of the warm-up that leaves jobs behind for recovery.
const WARMUP: usize = 3_000;
/// Live jobs (acknowledged or still in flight) above which the script
/// always frees.
const TARGET_LIVE: usize = 48;
/// Recoveries timed in-process per traced run; `persist.recover_ms` is
/// their median.
const RECOVERIES: usize = 7;
/// Job ids of the warm-up, disjoint from the rounds' ids.
const WARMUP_IDS: u32 = 1_000_000;
/// One-at-a-time STATUS requests of the traced run's transport probe.
const PROBES: usize = 2_000;
/// How long the client waits for any reply before declaring it missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// SplitMix64: a small seeded generator, so the script is fixed by the
/// seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    Alloc { id: u32, size: u32 },
    Free { id: u32 },
    Status,
}

impl Req {
    fn encode(self, out: &mut Vec<u8>) {
        let _ = match self {
            Req::Alloc { id, size } => writeln!(out, "ALLOC {id} {size}"),
            Req::Free { id } => writeln!(out, "FREE {id}"),
            Req::Status => writeln!(out, "STATUS"),
        };
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Script,
    Drain,
    Check,
    Done,
}

/// What one round (or warm-up) produced.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Tally {
    digest: Fingerprint,
    requests: u64,
    allocs: u64,
    granted: u64,
    denied: u64,
    statuses: u64,
    util_sum: f64,
}

/// The scripted client, independent of the transport.
struct Client {
    seed: u64,
    sizes: Vec<u32>,
    rng: Rng,
    script_len: usize,
    id_base: u32,
    drain_at_end: bool,
    sent: usize,
    next_id: u32,
    phase: Phase,
    inflight: VecDeque<Req>,
    allocs_in_flight: usize,
    /// Acknowledged jobs no FREE has been sent for yet.
    free_cands: Vec<u32>,
    drain: Vec<u32>,
    /// Acknowledged live jobs and their node counts: the client's model
    /// of the daemon's state.
    acked: BTreeMap<u32, u64>,
    acked_nodes: u64,
    tally: Tally,
    failures: Vec<String>,
}

impl Client {
    fn new(seed: u64) -> Client {
        let sizes = synth(16, ROUND, seed).jobs.iter().map(|j| j.size).collect();
        Client {
            seed,
            sizes,
            rng: Rng(seed),
            script_len: 0,
            id_base: 0,
            drain_at_end: true,
            sent: 0,
            next_id: 0,
            phase: Phase::Done,
            inflight: VecDeque::new(),
            allocs_in_flight: 0,
            free_cands: Vec::new(),
            drain: Vec::new(),
            acked: BTreeMap::new(),
            acked_nodes: 0,
            tally: Tally::default(),
            failures: Vec::new(),
        }
    }

    /// Start a round: the same script every time, from an empty machine.
    fn start_round(&mut self) {
        self.start(self.seed, ROUND, 0, true);
    }

    /// Start the warm-up: another script, whose jobs stay allocated.
    fn start_warmup(&mut self) {
        self.start(self.seed ^ 0x5eed, WARMUP, WARMUP_IDS, false);
    }

    fn start(&mut self, seed: u64, script_len: usize, id_base: u32, drain_at_end: bool) {
        self.rng = Rng(seed);
        self.script_len = script_len;
        self.id_base = id_base;
        self.drain_at_end = drain_at_end;
        self.sent = 0;
        self.next_id = 0;
        self.phase = Phase::Script;
        self.tally = Tally::default();
    }

    fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    fn generate(&mut self) -> Req {
        let r = self.rng.unit();
        if r < 0.10 {
            return Req::Status;
        }
        let live = self.free_cands.len() + self.allocs_in_flight;
        if !self.free_cands.is_empty() && (live >= TARGET_LIVE || r < 0.5) {
            let i = (self.rng.next() % self.free_cands.len() as u64) as usize;
            return Req::Free {
                id: self.free_cands.swap_remove(i),
            };
        }
        let size = self.sizes[self.next_id as usize % self.sizes.len()];
        let id = self.id_base + self.next_id;
        self.next_id += 1;
        self.allocs_in_flight += 1;
        Req::Alloc { id, size }
    }

    /// The next request to send, if the window and the phase allow one.
    fn next_request(&mut self) -> Option<Req> {
        if self.inflight.len() >= WINDOW {
            return None;
        }
        let req = match self.phase {
            Phase::Script if self.sent < self.script_len => {
                self.sent += 1;
                self.generate()
            }
            Phase::Script if self.inflight.is_empty() => {
                if !self.drain_at_end {
                    self.phase = Phase::Done;
                    return None;
                }
                self.phase = Phase::Drain;
                self.drain = std::mem::take(&mut self.free_cands);
                return self.next_request();
            }
            Phase::Drain => match self.drain.pop() {
                Some(id) => Req::Free { id },
                None if self.inflight.is_empty() => {
                    self.phase = Phase::Check;
                    Req::Status
                }
                None => return None,
            },
            _ => return None,
        };
        self.inflight.push_back(req);
        Some(req)
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < 8 {
            eprintln!("perfbench: serve: {msg}");
        }
        self.failures.push(msg);
    }

    /// Account for the reply to the oldest request in flight.
    fn on_reply(&mut self, line: &str) {
        let Some(req) = self.inflight.pop_front() else {
            self.fail(format!("reply without a request: `{line}`"));
            return;
        };
        let t = &mut self.tally;
        t.digest.add_bytes(line.as_bytes());
        t.requests += 1;
        match req {
            Req::Alloc { id, .. } => {
                self.allocs_in_flight -= 1;
                t.allocs += 1;
                let granted = line
                    .strip_prefix("OK GRANT ")
                    .and_then(|rest| rest.split_once(' '))
                    .filter(|(rid, _)| rid.parse() == Ok(id))
                    .map(|(_, nodes)| nodes.split(',').count() as u64);
                if let Some(nodes) = granted {
                    t.granted += 1;
                    self.acked.insert(id, nodes);
                    self.acked_nodes += nodes;
                    self.free_cands.push(id);
                } else if line.starts_with("ERR denied ") {
                    t.denied += 1;
                } else {
                    self.fail(format!("ALLOC {id}: `{line}`"));
                }
            }
            Req::Free { id } => {
                let ok = line
                    .strip_prefix("OK FREE ")
                    .is_some_and(|rest| rest.split(' ').next() == Some(&id.to_string()));
                match self.acked.remove(&id) {
                    Some(nodes) if ok => self.acked_nodes -= nodes,
                    _ => self.fail(format!("FREE {id}: `{line}`")),
                }
            }
            Req::Status => {
                match parse_status(line) {
                    Some((used, total, jobs))
                        if used == self.acked_nodes && jobs == self.acked.len() as u64 =>
                    {
                        t.statuses += 1;
                        t.util_sum += used as f64 / total as f64;
                    }
                    _ => self.fail(format!(
                        "STATUS `{line}` disagrees with the acknowledged {} job(s) on {} node(s)",
                        self.acked.len(),
                        self.acked_nodes
                    )),
                }
                if self.phase == Phase::Check {
                    self.phase = Phase::Done;
                }
            }
        }
    }

    /// The acknowledged jobs as (used nodes, jobs), forgotten afterwards:
    /// what a daemon killed now must recover.
    fn take_model(&mut self) -> (u64, u64) {
        let model = (self.acked_nodes, self.acked.len() as u64);
        self.acked.clear();
        self.free_cands.clear();
        self.acked_nodes = 0;
        model
    }
}

/// `OK STATUS nodes=<used>/<total> jobs=<n> ...` → (used, total, n).
fn parse_status(line: &str) -> Option<(u64, u64, u64)> {
    let mut used_total = None;
    let mut jobs = None;
    for field in line.strip_prefix("OK STATUS ")?.split(' ') {
        if let Some(v) = field.strip_prefix("nodes=") {
            let (u, t) = v.split_once('/')?;
            used_total = Some((u.parse().ok()?, t.parse().ok()?));
        } else if let Some(v) = field.strip_prefix("jobs=") {
            jobs = v.parse().ok();
        }
    }
    let (u, t) = used_total?;
    Some((u, t, jobs?))
}

/// One TCP connection to the daemon.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    filled: usize,
}

impl Conn {
    fn new(stream: TcpStream) -> Result<Conn, String> {
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            filled: 0,
        })
    }

    /// Read more bytes from the daemon into the buffer.
    fn fill(&mut self) -> Result<(), String> {
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self
            .stream
            .read(&mut self.buf[self.filled..])
            .map_err(|e| format!("no reply: {e}"))?;
        if n == 0 {
            return Err("the daemon closed the connection".into());
        }
        self.filled += n;
        Ok(())
    }

    /// Run the client until its current round is done, recording each
    /// request's latency from send to reply.
    fn drive(&mut self, client: &mut Client, lat_ns: &mut Vec<f64>) -> Result<(), String> {
        let mut out = Vec::with_capacity(4096);
        let mut sent_at: VecDeque<Instant> = VecDeque::new();
        let mut pending = 0;
        while let Some(r) = client.next_request() {
            r.encode(&mut out);
            pending += 1;
        }
        loop {
            if pending > 0 {
                let now = Instant::now();
                sent_at.extend(std::iter::repeat_n(now, pending));
                self.stream
                    .write_all(&out)
                    .map_err(|e| format!("send: {e}"))?;
                out.clear();
                pending = 0;
            }
            if client.done() {
                return Ok(());
            }
            self.fill()?;
            let now = Instant::now();
            let mut start = 0;
            while let Some(pos) = self.buf[start..self.filled]
                .iter()
                .position(|&b| b == b'\n')
            {
                let line = String::from_utf8_lossy(&self.buf[start..start + pos]);
                if let Some(t) = sent_at.pop_front() {
                    lat_ns.push(now.duration_since(t).as_nanos() as f64);
                }
                client.on_reply(&line);
                while let Some(r) = client.next_request() {
                    r.encode(&mut out);
                    pending += 1;
                }
                start += pos + 1;
            }
            self.buf.copy_within(start..self.filled, 0);
            self.filled -= start;
        }
    }

    /// The next reply line, reading from the daemon as needed.
    fn read_line(&mut self) -> Result<String, String> {
        loop {
            if let Some(pos) = self.buf[..self.filled].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[..pos]).into_owned();
                self.buf.copy_within(pos + 1..self.filled, 0);
                self.filled -= pos + 1;
                return Ok(line);
            }
            self.fill()?;
        }
    }

    /// Send one request line and read its reply: one line, or for
    /// `METRICS` the `OK METRICS <n>` line and `n` more.
    fn request(&mut self, line: &str) -> Result<Vec<String>, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send {line}: {e}"))?;
        let first = self.read_line()?;
        let extra = first
            .strip_prefix("OK METRICS ")
            .and_then(|n| n.trim().parse::<usize>().ok())
            .unwrap_or(0);
        let mut lines = vec![first];
        for _ in 0..extra {
            lines.push(self.read_line()?);
        }
        Ok(lines)
    }
}

/// A running `jigsaw-sched serve` process.
struct Daemon {
    child: Child,
    /// Held open so the daemon can always write to its stdout.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Start the daemon (durable on `journal`, else in memory) and
    /// connect; returns the time from spawn until the connection was
    /// accepted.
    fn start(
        sched: &Path,
        journal: Option<&Path>,
        log: &Path,
    ) -> Result<(Daemon, Conn, f64), String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(sched);
        cmd.args(["serve", &RADIX.to_string(), "--listen", "127.0.0.1:0"]);
        if let Some(dir) = journal {
            cmd.arg("--journal").arg(dir);
        }
        let t0 = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("{}: {e}", sched.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "the daemon exited before listening (see {})",
                        log.display()
                    ));
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("LISTENING ") {
                        break a.to_string();
                    }
                }
            }
        };
        let stream = TcpStream::connect(&addr);
        let setup = t0.elapsed().as_secs_f64();
        let daemon = Daemon {
            child,
            _stdout: stdout,
        };
        let conn = Conn::new(stream.map_err(|e| format!("connect {addr}: {e}"))?)?;
        Ok((daemon, conn, setup))
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// SHUTDOWN, then wait for the process; `Ok` only on exit code 0.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let reply = conn.request("SHUTDOWN");
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status))
                    if status.success() && reply.as_ref().is_ok_and(|r| r[0].starts_with("OK")) =>
                {
                    return Ok(())
                }
                Ok(Some(status)) => return Err(format!("SHUTDOWN: {reply:?}, exit {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("the daemon did not exit after SHUTDOWN".into()),
            }
        }
    }
}

impl Drop for Daemon {
    /// SIGKILL (a no-op once the process has exited) and reap.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Results of the daemon phases.
struct DaemonRun {
    setups: Vec<f64>,
    /// Per-round latency quantiles (ns) and the mean over every request.
    round_p50_ns: Vec<f64>,
    round_p99_ns: Vec<f64>,
    lat_mean_ns: f64,
    /// Time spent in rounds; the recovery probes between rounds are not
    /// counted.
    main_seconds: f64,
    rounds: Vec<Tally>,
    /// Traced runs: median round trip (ns) of a STATUS sent alone, with
    /// nothing else in flight.
    probe_rtt_ns: f64,
    rss_mb: f64,
    batch_size_mean: f64,
    /// The crash-left journal directory, kept for the traced run.
    crash_dir: PathBuf,
}

/// Restart the durable daemon on a fresh copy of the crash-left journal
/// and check that it recovered `model` (used nodes, jobs). Returns the
/// daemon, its connection and the time until it accepted the connection.
fn restart(
    sched: &Path,
    crash_dir: &Path,
    dir: &Path,
    model: (u64, u64),
    out: &mut Outcome,
) -> Result<(Daemon, Conn, f64), String> {
    copy_dir(crash_dir, dir)?;
    let (daemon, mut conn, setup) = Daemon::start(sched, Some(dir), &dir.with_extension("log"))?;
    out.attempted += 1;
    let status = conn.request("STATUS")?;
    match parse_status(&status[0]) {
        Some((used, _, jobs)) if (used, jobs) == model => {}
        _ => {
            out.failed += 1;
            out.error(format!(
                "recovered `{}` but {} job(s) on {} node(s) were acknowledged",
                status[0], model.1, model.0
            ));
        }
    }
    Ok((daemon, conn, setup))
}

fn shutdown(daemon: Daemon, conn: &mut Conn, out: &mut Outcome) {
    out.attempted += 1;
    if let Err(e) = daemon.shutdown(conn) {
        out.failed += 1;
        out.error(e);
    }
}

fn run_daemon(
    sched: &Path,
    client: &mut Client,
    seconds: f64,
    work: &Path,
    traced: bool,
    out: &mut Outcome,
) -> Result<DaemonRun, String> {
    let crash_dir = work.join("journal");
    let probe_dir = work.join("probe");
    let _ = std::fs::remove_dir_all(&crash_dir);

    // (1) Warm up a durable daemon on a fresh journal, then SIGKILL it.
    let (daemon, mut conn, _) = Daemon::start(sched, Some(&crash_dir), &work.join("warmup.log"))?;
    client.start_warmup();
    let mut lat_ns = Vec::new();
    let warm = conn.drive(client, &mut lat_ns);
    out.attempted += client.tally.requests + client.inflight.len() as u64;
    drop(daemon);
    warm?;
    let model = client.take_model();

    // (2) Measure whole rounds against an in-memory daemon. After each
    // round, restart the durable daemon on a copy of the crash-left
    // journal (`setup_s`), so set-up samples span the run as rounds do,
    // and shut it down (flush, final snapshot, exit 0).
    let (daemon, mut conn, _) = Daemon::start(sched, None, &work.join("main.log"))?;
    let (mut round_p50_ns, mut round_p99_ns) = (Vec::new(), Vec::new());
    let (mut lat_sum, mut lat_count) = (0.0, 0usize);
    let mut rounds = Vec::new();
    let mut setups = Vec::new();
    let mut main_seconds = 0.0;
    // The phase lasts `seconds` of wall time, recoveries included, so a
    // slow disk costs rounds, not run time.
    let phase = Instant::now();
    while rounds.is_empty() || phase.elapsed().as_secs_f64() < seconds {
        lat_ns.clear();
        client.start_round();
        let t0 = Instant::now();
        let r = conn.drive(client, &mut lat_ns);
        main_seconds += t0.elapsed().as_secs_f64();
        out.attempted += client.tally.requests + client.inflight.len() as u64;
        if let Err(e) = r {
            out.failed += client.inflight.len() as u64;
            return Err(e);
        }
        rounds.push(client.tally);
        lat_sum += lat_ns.iter().sum::<f64>();
        lat_count += lat_ns.len();
        round_p50_ns.push(quantile(&mut lat_ns, 0.50));
        round_p99_ns.push(quantile(&mut lat_ns, 0.99));

        let (probe, mut probe_conn, setup) = restart(sched, &crash_dir, &probe_dir, model, out)?;
        setups.push(setup);
        shutdown(probe, &mut probe_conn, out);
    }
    let rss_mb = daemon.peak_rss_mb();
    let mut probe_rtt_ns = Vec::new();
    if traced {
        // Transport probe: one request in flight, on the empty machine.
        for _ in 0..PROBES {
            out.attempted += 1;
            let t0 = Instant::now();
            let reply = conn.request("STATUS")?;
            probe_rtt_ns.push(t0.elapsed().as_nanos() as f64);
            if !matches!(parse_status(&reply[0]), Some((0, _, 0))) {
                out.failed += 1;
                out.error(format!("probe: `{}` on an empty machine", reply[0]));
            }
        }
    }
    let batch_size_mean = if traced {
        let lines = conn.request("METRICS")?;
        let value = |suffix: &str| -> f64 {
            let key = format!("jigsaw_serve_batch_requests_{suffix} ");
            lines
                .iter()
                .find_map(|l| l.strip_prefix(&key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0.0)
        };
        ratio(value("sum"), value("count"))
    } else {
        0.0
    };
    shutdown(daemon, &mut conn, out);
    Ok(DaemonRun {
        setups,
        round_p50_ns,
        round_p99_ns,
        lat_mean_ns: lat_sum / lat_count as f64,
        main_seconds,
        rounds,
        probe_rtt_ns: median(&mut probe_rtt_ns),
        rss_mb,
        batch_size_mean,
        crash_dir,
    })
}

pub fn run(sched: &Path, seed: u64, seconds: f64, traced: bool, work: &Path) -> Outcome {
    let mut out = Outcome {
        idle_layers: &["sim", "defrag", "traces"],
        ..Outcome::default()
    };
    let mut client = Client::new(seed);
    let daemon_seconds = if traced { seconds / 2.0 } else { seconds };
    let result = run_daemon(sched, &mut client, daemon_seconds, work, traced, &mut out);
    out.failed += client.failures.len() as u64;
    for f in client.failures.iter().take(3) {
        out.error(f.clone());
    }
    let d = match result {
        Ok(d) => d,
        Err(e) => {
            out.error(e);
            return out;
        }
    };
    let first = d.rounds[0];
    if let Some(i) = d.rounds.iter().position(|r| *r != first) {
        out.error(format!("round {i} answered differently from round 0"));
    }
    out.note(format!(
        "{} rounds of {} requests; {} granted, {} denied of {} ALLOCs per round",
        d.rounds.len(),
        first.requests,
        first.granted,
        first.denied,
        first.allocs
    ));
    let requests: u64 = d.rounds.iter().map(|r| r.requests).sum();
    if !traced {
        let (mut p50, mut p99, mut setups) = (d.round_p50_ns, d.round_p99_ns, d.setups);
        out.set("throughput_per_s", requests as f64 / d.main_seconds);
        out.set("latency_p50_ms", median(&mut p50) / 1e6);
        out.set("latency_p99_ms", median(&mut p99) / 1e6);
        out.set("setup_s", median(&mut setups));
        out.set(
            "utilization_pct",
            100.0 * first.util_sum / first.statuses as f64,
        );
        // A serving client has no simulated turnaround; this is its mean
        // latency, about WINDOW / throughput in a closed loop, so it
        // repeats the latency figures (see README.md).
        out.set("turnaround_mean_s", d.lat_mean_ns / 1e9);
        out.set(
            "grant_pct",
            100.0 * ratio(first.granted as f64, first.allocs as f64),
        );
        out.set("peak_rss_mb", d.rss_mb);
        return out;
    }
    if let Err(e) = per_layer(&mut out, &d, seed, seconds / 6.0, work) {
        out.error(e);
    }
    out
}

/// Flush accounting for the in-process arm.
#[derive(Default)]
struct Flushes {
    count: u64,
    records: u64,
    snapshots: u64,
    appended_bytes: u64,
    appended_records: u64,
}

/// One in-process arm: the rounds driven through `Engine::handle_line`
/// and `Engine::flush`, one flush per window of requests.
struct Arm {
    seconds: f64,
    requests: u64,
    allocs: u64,
    rounds: Vec<Tally>,
    spans: Vec<Span>,
    log: RootLog,
    flushes: Flushes,
    /// The first round's request bytes.
    script: Vec<u8>,
}

/// Run rounds in-process for `seconds`: durable on `journal` (a fresh
/// directory), else in memory like the measured daemon.
fn run_arm(seed: u64, seconds: f64, journal: Option<&Path>, traced: bool) -> Result<Arm, String> {
    let tree = FatTree::maximal(RADIX).map_err(|e| e.to_string())?;
    let persist = match journal {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            PersistentState::open(dir, tree)
                .map_err(|e| e.to_string())?
                .0
        }
        None => PersistentState::ephemeral(tree),
    };
    let inner = Scheme::Jigsaw.make(&tree);
    let inner: Box<dyn Allocator> = if traced {
        Box::new(Timed::new(inner, true))
    } else {
        inner
    };
    let (recorder, log) = Recorder::new(inner);
    let mut engine = Engine::new(tree, Box::new(recorder), persist, &Registry::disabled());
    let journal_len = || {
        journal.map_or(0, |d| {
            std::fs::metadata(d.join(JOURNAL_FILE)).map_or(0, |m| m.len())
        })
    };
    let mut client = Client::new(seed);
    let mut flushes = Flushes::default();
    let mut rounds = Vec::new();
    let mut script = Vec::new();
    if traced {
        trace::enable();
    }
    let root = trace::begin(Name::Root);
    let t0 = Instant::now();
    while rounds.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        client.start_round();
        let first_round = rounds.is_empty();
        let mut handle = |req: Req, staged: &mut Vec<String>, engine: &mut Engine| {
            let mut line = Vec::new();
            req.encode(&mut line);
            if first_round {
                script.extend_from_slice(&line);
            }
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            let span = trace::begin(match req {
                Req::Alloc { .. } => Name::HandleAlloc,
                Req::Free { .. } => Name::HandleFree,
                Req::Status => Name::HandleStatus,
            });
            let outcome = engine.handle_line(&line);
            trace::end(span, false);
            staged.push(outcome.map_or_else(String::new, |o| o.reply.to_string()));
        };
        let mut staged = Vec::new();
        while let Some(req) = client.next_request() {
            handle(req, &mut staged, &mut engine);
        }
        while !staged.is_empty() {
            let before = journal_len();
            let span = trace::begin(Name::Flush);
            let flushed = engine.flush();
            trace::end(span, false);
            let records = flushed.map_err(|e| format!("flush: {e}"))? as u64;
            let after = journal_len();
            flushes.count += 1;
            flushes.records += records;
            if after < before {
                flushes.snapshots += 1;
            } else {
                flushes.appended_bytes += after - before;
                flushes.appended_records += records;
            }
            // Replies are released after the flush; each one lets the
            // client send its next request, as over TCP.
            let mut next = Vec::new();
            for reply in staged.drain(..) {
                client.on_reply(&reply);
                while let Some(req) = client.next_request() {
                    handle(req, &mut next, &mut engine);
                }
            }
            staged = next;
        }
        if !client.done() {
            return Err("the in-process client stalled".into());
        }
        rounds.push(client.tally);
    }
    let seconds = t0.elapsed().as_secs_f64();
    trace::end(root, false);
    let spans = trace::take();
    if let Some(f) = client.failures.first() {
        return Err(format!("in-process arm: {f}"));
    }
    engine.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    drop(engine);
    Ok(Arm {
        seconds,
        requests: rounds.iter().map(|r| r.requests).sum(),
        allocs: rounds.iter().map(|r| r.allocs).sum(),
        rounds,
        spans,
        log: Recorder::collect(&log),
        flushes,
        script,
    })
}

/// Durations (µs) of the spans named `name`.
fn durations_us(spans: &[Span], name: Name) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e3)
        .collect()
}

fn per_layer(
    out: &mut Outcome,
    d: &DaemonRun,
    seed: u64,
    arm_seconds: f64,
    work: &Path,
) -> Result<(), String> {
    // persist: open the crash-left journal, as a restart does.
    let tree = FatTree::maximal(RADIX).map_err(|e| e.to_string())?;
    let mut recover_ms = Vec::new();
    let dir = work.join("recover");
    for _ in 0..RECOVERIES {
        copy_dir(&d.crash_dir, &dir)?;
        let t0 = Instant::now();
        let opened = PersistentState::open(&dir, tree);
        recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        opened.map_err(|e| format!("recovery: {e}"))?;
    }

    // In memory, untraced and traced (core, net, overhead); durable and
    // traced (persist).
    let plain = run_arm(seed, arm_seconds, None, false)?;
    let arm = run_arm(seed, arm_seconds, None, true)?;
    let durable = run_arm(seed, arm_seconds, Some(&work.join("arm-journal")), true)?;
    for a in [&plain, &arm, &durable] {
        out.attempted += a.requests;
        out.failed += a.log.audit_errors;
        if a.rounds.iter().any(|r| *r != d.rounds[0]) {
            out.error(
                "the in-process engine answered the script differently from the daemon".into(),
            );
        }
    }

    let spans = &arm.spans;
    let wall = spans[0].duration() as f64;
    let mut decide_us = durations_us(spans, Name::Decide);
    let mut state_clone_us = durations_us(spans, Name::StateClone);
    let mut alloc_us = durations_us(spans, Name::HandleAlloc);
    let mut free_us = durations_us(spans, Name::HandleFree);
    let mut status_us = durations_us(spans, Name::HandleStatus);
    let admits = spans
        .iter()
        .filter(|s| s.name == Name::Decide && s.admitted)
        .count() as f64;
    let clones = durations_us(spans, Name::Clone).len() as f64;
    let alloc_calls = trace::top_level_ns(spans, Name::is_allocator_call) as f64;
    let jobs = arm.allocs as f64;

    out.set("core.decide_calls_per_job", decide_us.len() as f64 / jobs);
    out.set("core.decide_us_p50", quantile(&mut decide_us, 0.50));
    out.set("core.decide_us_p99", quantile(&mut decide_us, 0.99));
    out.set("core.admit_ratio", ratio(admits, arm.log.decides as f64));
    out.set("core.busy_pct", 100.0 * ratio(alloc_calls, wall));
    out.set("core.clone_calls_per_job", clones / jobs);
    out.set(
        "core.search_steps_per_job",
        arm.log.search_steps as f64 / jobs,
    );
    out.set("topology.state_clone_us_p50", median(&mut state_clone_us));

    let f = &durable.flushes;
    let mut flush_us = durations_us(&durable.spans, Name::Flush);
    out.set("persist.flush_us_p50", quantile(&mut flush_us, 0.50));
    out.set("persist.flush_us_p99", quantile(&mut flush_us, 0.99));
    out.set(
        "persist.records_per_flush",
        ratio(f.records as f64, f.count as f64),
    );
    out.set(
        "persist.snapshots_per_krecord",
        1e3 * ratio(f.snapshots as f64, f.records as f64),
    );
    out.set(
        "persist.bytes_per_record",
        ratio(f.appended_bytes as f64, f.appended_records as f64),
    );
    out.set("persist.recover_ms", median(&mut recover_ms));

    out.set("net.frame_ns_per_line", frame_ns_per_line(&arm.script));
    out.set("net.handle_us_p50.alloc", median(&mut alloc_us));
    out.set("net.handle_us_p50.free", median(&mut free_us));
    let status_handle_us = median(&mut status_us);
    out.set("net.handle_us_p50.status", status_handle_us);
    out.set(
        "net.transport_us_per_req",
        d.probe_rtt_ns / 1e3 - status_handle_us,
    );
    out.set("net.batch_size_mean", d.batch_size_mean);
    out.set(
        "trace.overhead_pct",
        100.0
            * ((plain.requests as f64 / plain.seconds) / (arm.requests as f64 / arm.seconds) - 1.0),
    );
    Ok(())
}

/// `LineFramer::push` cost per line over the script's bytes, fed in
/// 1448-byte segments (one TCP segment on Ethernet); median of 15 passes.
fn frame_ns_per_line(script: &[u8]) -> f64 {
    let lines = script.iter().filter(|&&b| b == b'\n').count() as f64;
    let mut per_line = Vec::new();
    for _ in 0..15 {
        let mut framer = LineFramer::new(DEFAULT_MAX_LINE_LEN);
        let t0 = Instant::now();
        let mut framed = 0;
        for chunk in script.chunks(1448) {
            framed += std::hint::black_box(framer.push(chunk)).len();
        }
        per_line.push(t0.elapsed().as_nanos() as f64 / lines);
        debug_assert_eq!(framed as f64, lines);
    }
    median(&mut per_line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse() {
        assert_eq!(
            parse_status("OK STATUS nodes=12/1024 jobs=3 util=1.2%"),
            Some((12, 1024, 3))
        );
        assert_eq!(parse_status("ERR denied x"), None);
    }

    /// Drive the client against an in-process engine with replies
    /// delivered out of phase with generation: the script must not change.
    #[test]
    fn script_depends_only_on_seed_and_replies() {
        let run = |batch: usize| -> Tally {
            let tree = FatTree::maximal(4).unwrap();
            let persist = PersistentState::ephemeral(tree);
            let mut engine = Engine::new(
                tree,
                Scheme::Jigsaw.make(&tree),
                persist,
                &Registry::disabled(),
            );
            let mut client = Client::new(7);
            client.sizes = vec![1, 2, 3, 4, 5];
            client.start(7, 500, 0, true);
            let mut queue: VecDeque<String> = VecDeque::new();
            while !client.done() {
                while let Some(r) = client.next_request() {
                    let mut line = Vec::new();
                    r.encode(&mut line);
                    let line = String::from_utf8(line).unwrap();
                    queue.push_back(engine.handle_line(line.trim()).unwrap().reply.to_string());
                }
                // Deliver up to `batch` replies; generate (and handle)
                // after each one, as both transports do.
                for _ in 0..batch.min(queue.len()) {
                    let reply = queue.pop_front().unwrap();
                    client.on_reply(&reply);
                    while let Some(r) = client.next_request() {
                        let mut line = Vec::new();
                        r.encode(&mut line);
                        let line = String::from_utf8(line).unwrap();
                        queue.push_back(engine.handle_line(line.trim()).unwrap().reply.to_string());
                    }
                }
            }
            assert!(client.failures.is_empty(), "{:?}", client.failures);
            client.tally
        };
        let a = run(1);
        assert_eq!(a, run(5));
        assert_eq!(a, run(WINDOW));
        assert!(a.granted > 0 && a.statuses > 0);
    }
}
