//! The TCP daemon: many concurrent clients, one sequential allocator,
//! group-commit durability.
//!
//! # Architecture
//!
//! ```text
//!   acceptor thread ──spawns──► reader thread (per connection)
//!        │                           │  LineFramer: bytes → lines
//!        │ Busy reject over          ▼
//!        │ the connection cap   bounded mpsc channel  ◄── backpressure
//!        │                           │
//!        ▼                           ▼
//!                          command-loop thread (single writer)
//!                            │  batch up to max_batch events
//!                            │  Engine::handle_line per request,
//!                            │    reply encoded into its connection's
//!                            │    buffer (lines of closing connections
//!                            │    are dropped unapplied)
//!                            │  Engine::flush — ONE fsync per batch
//!                            ▼
//!                          ONE write per connection with held replies,
//!                          each connection's replies in arrival order
//! ```
//!
//! Concurrency lives entirely at the edges (acceptor, readers); every
//! request is dispatched by the **single** command-loop thread that owns
//! the [`Engine`], so allocation order — and therefore the journal — is a
//! total order and the allocator's determinism is preserved.
//!
//! # Group commit
//!
//! The command loop drains the request channel up to
//! [`ServerConfig::max_batch`] events, handles them all, then calls
//! [`Engine::flush`] once: every `ALLOC`/`FREE` in the batch becomes
//! durable with a **single** fsync. No reply is written to any socket
//! until the flush covering it has succeeded, so an `OK` on the wire
//! always denotes on-disk state. Under one slow client the batch is 1 and
//! behavior degenerates to per-record fsync; under many concurrent
//! clients the requests that arrive during one fsync form the next batch,
//! which is exactly the amortization the saturation benchmark measures.
//!
//! Each reply is encoded into its connection's reusable output buffer as
//! it is handled; after the flush every connection with held replies gets
//! exactly **one** `write_all` carrying all of them, in arrival order.
//! Sockets are `TCP_NODELAY`, so a write per reply would cost a segment
//! and a client wake-up per reply.
//!
//! A reply that closes its connection (`QUIT`, a framing violation) is
//! the last one that connection gets: its later requests, in this batch
//! or a later one, are dropped without being applied, as are requests of
//! a connection already removed after a failed write. A request nobody
//! will be told about must not change the machine.
//!
//! A flush failure is fail-stop: every reply covered by the failed flush
//! is replaced with `ERR journal`, the daemon closes every connection and
//! exits non-zero. Staged-but-unsynced work is *not* retried (a retry
//! could duplicate journal frames); recovery replays only what the disk
//! holds, which by construction is only acknowledged work.
//!
//! # Backpressure and protection
//!
//! * The request channel is bounded ([`ServerConfig::queue_depth`]): when
//!   the command loop falls behind, reader threads block on `send`, TCP
//!   receive windows fill, and clients are throttled at the transport —
//!   memory stays bounded no matter how fast clients write.
//! * Connections over [`ServerConfig::max_conns`] are rejected with
//!   `ERR busy` without a reader thread ever being spawned.
//! * A connection idle longer than [`ServerConfig::idle_timeout`] is
//!   closed.
//! * A line over [`crate::frame::LineFramer`]'s limit (or invalid UTF-8)
//!   poisons the connection: one `ERR bad-request`, then close.
//!
//! # Shutdown
//!
//! The `SHUTDOWN` verb (from any client) drains gracefully: the acceptor
//! stops (it blocks in `accept`, so the command loop raises the stop flag
//! and then wakes it with one connection to the listener's own address),
//! every connection's read side is closed, requests already queued
//! are handled and flushed, a final snapshot is written, and the process
//! exits 0. An abrupt kill (SIGKILL mid-load) is the *other* supported
//! exit: the journal guarantees every acknowledged request survives into
//! recovery, which `cli/tests/net_daemon.rs` proves by killing a daemon
//! under concurrent load.

use crate::engine::{Control, Engine};
use crate::frame::{Framed, LineFramer, DEFAULT_MAX_LINE_LEN};
use crate::protocol::{ErrCode, Reply};
use jigsaw_obs::{Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// Default connection cap.
pub const DEFAULT_MAX_CONNS: usize = 64;
/// Default group-commit batch bound (requests made durable per fsync).
pub const DEFAULT_MAX_BATCH: usize = 64;
/// Default bound on queued-but-undispatched requests (backpressure point).
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7070` (port 0 picks a free port;
    /// the bound address is [`ServerHandle::addr`]).
    pub listen: String,
    /// Maximum simultaneous connections; excess gets `ERR busy`.
    pub max_conns: usize,
    /// Maximum requests handled between fsyncs (group-commit bound).
    /// `1` is exactly the per-record-fsync baseline.
    pub max_batch: usize,
    /// Bound on queued requests across all connections.
    pub queue_depth: usize,
    /// Close connections idle longer than this. `None` = never.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            max_conns: DEFAULT_MAX_CONNS,
            max_batch: DEFAULT_MAX_BATCH,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            idle_timeout: None,
        }
    }
}

/// Daemon-level metrics, alongside the engine's per-verb `serve_*` set.
struct NetObs {
    /// `jigsaw_serve_connections_total`.
    connections: Counter,
    /// `jigsaw_serve_connections_open`.
    open: Gauge,
    /// `jigsaw_serve_busy_rejections_total`.
    busy: Counter,
    /// `jigsaw_serve_batch_requests`.
    batch_requests: Histogram,
}

impl NetObs {
    fn new(registry: &jigsaw_obs::Registry) -> NetObs {
        NetObs {
            connections: registry.counter(
                "jigsaw_serve_connections_total",
                "TCP connections accepted over the daemon's lifetime.",
            ),
            open: registry.gauge(
                "jigsaw_serve_connections_open",
                "TCP connections currently open.",
            ),
            busy: registry.counter(
                "jigsaw_serve_busy_rejections_total",
                "Connections rejected with ERR busy (over the connection cap).",
            ),
            batch_requests: registry.histogram(
                "jigsaw_serve_batch_requests",
                "Requests handled per command-loop batch (group-commit amortization).",
            ),
        }
    }
}

/// One event from a connection's reader thread. Per connection the order
/// is always `Open`, zero or more `Line`/`Broken`, then exactly one
/// `Closed` — the channel preserves per-sender order, so the command loop
/// sees a coherent connection lifecycle.
enum ConnEvent {
    /// Connection established; the command loop takes the write half.
    Open(u64, TcpStream),
    /// One complete request line.
    Line(u64, String),
    /// The stream violated framing (oversize line, invalid UTF-8): reply
    /// once with an error, then close.
    Broken(u64, String),
    /// The reader is gone (EOF, error, idle timeout, or after `Broken`).
    Closed(u64),
}

/// A running daemon: join it with [`ServerHandle::wait`].
pub struct ServerHandle {
    addr: SocketAddr,
    command: std::thread::JoinHandle<i32>,
    acceptor: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The actually-bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the daemon exits (graceful `SHUTDOWN` or fail-stop).
    /// Returns the process exit code: 0 clean, 1 on journal failure.
    pub fn wait(self) -> i32 {
        let code = self.command.join().unwrap_or(1);
        let _ = self.acceptor.join();
        code
    }
}

/// The TCP transport. See the module docs for the architecture.
pub struct Server;

impl Server {
    /// Bind `config.listen` and start the acceptor and command-loop
    /// threads. Returns once the listener is live; the daemon then runs
    /// until a client sends `SHUTDOWN` (or a journal flush fails).
    pub fn start(engine: Engine, config: &ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;

        let obs = NetObs::new(engine.registry());
        let accept_obs = (obs.connections.clone(), obs.open.clone(), obs.busy.clone());
        let (tx, rx) = std::sync::mpsc::sync_channel::<ConnEvent>(config.queue_depth.max(1));
        let stop = Arc::new(AtomicBool::new(false));
        let open_count = Arc::new(AtomicUsize::new(0));

        let acceptor = {
            let stop = Arc::clone(&stop);
            let open_count = Arc::clone(&open_count);
            let max_conns = config.max_conns.max(1);
            let idle = config.idle_timeout;
            std::thread::Builder::new()
                .name("jigsaw-net-acceptor".to_string())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        &tx,
                        &stop,
                        &open_count,
                        max_conns,
                        idle,
                        accept_obs,
                    );
                })?
        };

        let command = {
            let stop = Arc::clone(&stop);
            let open_count = Arc::clone(&open_count);
            let max_batch = config.max_batch.max(1);
            std::thread::Builder::new()
                .name("jigsaw-net-command".to_string())
                .spawn(move || {
                    command_loop(engine, &rx, &stop, addr, &open_count, max_batch, &obs)
                })?
        };

        Ok(ServerHandle {
            addr,
            command,
            acceptor,
        })
    }
}

/// Raise the stop flag and wake the acceptor, which is blocked in
/// `accept` on `listen`: one connection to the listener's own port (on
/// loopback when it is bound to the unspecified address) makes `accept`
/// return, and the acceptor exits once it sees the flag.
fn stop_acceptor(stop: &AtomicBool, listen: SocketAddr) {
    stop.store(true, Ordering::Release);
    let mut wake = listen;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    // A failed connect means the acceptor is already gone.
    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
}

/// Accept connections until the stop flag is raised; enforce the
/// connection cap; spawn one reader thread per admitted connection.
fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<ConnEvent>,
    stop: &AtomicBool,
    open_count: &Arc<AtomicUsize>,
    max_conns: usize,
    idle: Option<Duration>,
    (connections, open, busy): (Counter, Gauge, Counter),
) {
    let mut next_id: u64 = 0;
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break; // the wake-up connection from `stop_acceptor`, or a late client
        }
        let Ok(stream) = stream else { break };
        // Replies are small and latency-bound: never Nagle them (the
        // delayed-ACK interaction costs tens of milliseconds per reply).
        let _ = stream.set_nodelay(true);
        if open_count.load(Ordering::Acquire) >= max_conns {
            busy.inc();
            // Formatted first, so the line leaves in one write.
            let line = format!(
                "{}\n",
                Reply::err(ErrCode::Busy, "connection limit reached, retry later")
            );
            let _ = (&stream).write_all(line.as_bytes());
            continue;
        }
        if let Some(d) = idle {
            let _ = stream.set_read_timeout(Some(d));
        }
        let id = next_id;
        next_id += 1;
        connections.inc();
        let n = open_count.fetch_add(1, Ordering::AcqRel) + 1;
        open.set(i64::try_from(n).unwrap_or(i64::MAX));
        let tx = tx.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("jigsaw-net-conn-{id}"))
            .spawn(move || reader_loop(id, stream, &tx));
        if spawned.is_err() {
            // Could not spawn a reader: undo the admission.
            let n = open_count.fetch_sub(1, Ordering::AcqRel) - 1;
            open.set(i64::try_from(n).unwrap_or(i64::MAX));
        }
    }
}

/// Pump one connection's bytes through a [`LineFramer`] into the command
/// channel. Blocking `send` on the bounded channel is the backpressure
/// point: a flooded command loop stalls readers, which stalls clients.
fn reader_loop(id: u64, mut stream: TcpStream, tx: &SyncSender<ConnEvent>) {
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    if tx.send(ConnEvent::Open(id, writer)).is_err() {
        return;
    }
    let mut framer = LineFramer::default();
    let mut buf = [0u8; 4096];
    'read: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            // Idle timeout (or interrupted read): close the connection.
            Err(_) => break,
        };
        for framed in framer.push(&buf[..n]) {
            let event = match framed {
                Framed::Line(line) => ConnEvent::Line(id, line),
                Framed::Oversize { len } => ConnEvent::Broken(
                    id,
                    format!("request line of {len}+ bytes exceeds the {DEFAULT_MAX_LINE_LEN}-byte limit"),
                ),
                Framed::NotUtf8 => ConnEvent::Broken(id, "request is not valid UTF-8".to_string()),
            };
            if tx.send(event).is_err() {
                break 'read;
            }
        }
        if framer.is_poisoned() {
            break;
        }
    }
    let _ = tx.send(ConnEvent::Closed(id));
}

/// A connection's write half, plus the replies held for it until the
/// covering flush succeeds.
struct Conn {
    stream: TcpStream,
    /// This batch's replies, encoded back to back and released by one
    /// `write_all`. Grows on demand and keeps its capacity (up to
    /// [`RETAINED_OUT_BYTES`]) from batch to batch.
    out: Vec<u8>,
    /// Replies encoded in `out`.
    held: usize,
    /// A closing reply (`QUIT`, a framing violation, a refusal during
    /// shutdown) is held: no later request of this connection is applied
    /// or answered, and the socket is shut down once `out` is written.
    closing: bool,
}

/// Output-buffer capacity a connection keeps between batches; a larger
/// buffer (a `METRICS` exposition, a deep pipeline) is shrunk back to it.
const RETAINED_OUT_BYTES: usize = 16 * 1024;

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            out: Vec::new(),
            held: 0,
            closing: false,
        }
    }

    /// Encode `reply` behind the ones already held; `pending` lists the
    /// connections with held replies in order of their first reply.
    fn hold(&mut self, id: u64, reply: &Reply, closing: bool, pending: &mut Vec<u64>) {
        if self.held == 0 {
            pending.push(id);
        }
        // Writing into a `Vec` cannot fail.
        let _ = writeln!(self.out, "{reply}");
        self.held += 1;
        self.closing |= closing;
    }
}

/// The single-writer dispatch loop. Owns the [`Engine`] and every
/// connection's write half; see the module docs for the batch/flush/reply
/// cycle.
fn command_loop(
    mut engine: Engine,
    rx: &Receiver<ConnEvent>,
    stop: &AtomicBool,
    listen: SocketAddr,
    open_count: &Arc<AtomicUsize>,
    max_batch: usize,
    obs: &NetObs,
) -> i32 {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut batch: Vec<ConnEvent> = Vec::new();
    // Connections with replies held this batch, in order of first reply.
    let mut pending: Vec<u64> = Vec::new();
    // Closed events are applied only *after* this batch's replies go out:
    // a reader that hit EOF right after relaying a request (or a framing
    // violation) must not tear the socket down before the reply owed on
    // it is written.
    let mut closed: Vec<u64> = Vec::new();
    let mut shutting_down = false;
    loop {
        // One blocking receive, then drain opportunistically up to the
        // batch bound: under load the batch fills with whatever arrived
        // during the previous flush — that is the group commit.
        let Ok(first) = rx.recv() else {
            break; // every sender gone: acceptor stopped, readers drained
        };
        batch.push(first);
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(event) => batch.push(event),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }

        let mut requests: u64 = 0;
        let mut begin_shutdown = false;
        for event in batch.drain(..) {
            match event {
                ConnEvent::Open(id, stream) => {
                    let conn = conns.entry(id).or_insert(Conn::new(stream));
                    if shutting_down {
                        // Raced past the stop flag: admit no new work.
                        conn.hold(id, &Reply::ShuttingDown, true, &mut pending);
                    }
                }
                ConnEvent::Closed(id) => closed.push(id),
                ConnEvent::Broken(id, why) => {
                    if let Some(conn) = conns.get_mut(&id).filter(|c| !c.closing) {
                        let reply = Reply::err(ErrCode::BadRequest, why);
                        conn.hold(id, &reply, true, &mut pending);
                    }
                }
                ConnEvent::Line(id, line) => {
                    // A connection that is closing, or already gone (closed
                    // by an earlier reply or a failed write), gets no more
                    // replies, so its later requests are never applied.
                    let Some(conn) = conns.get_mut(&id).filter(|c| !c.closing) else {
                        continue;
                    };
                    if let Some(outcome) = engine.handle_line(&line) {
                        requests += 1;
                        begin_shutdown |= outcome.control == Control::Shutdown;
                        let closing = outcome.control == Control::Close;
                        conn.hold(id, &outcome.reply, closing, &mut pending);
                    }
                }
            }
        }
        if requests > 0 {
            obs.batch_requests.observe(requests);
        }

        // The group-commit barrier: one fsync covers every staged record
        // of this batch. Only after it succeeds may any reply go out.
        if let Err(e) = engine.flush() {
            eprintln!("jigsaw-sched: fatal: journal flush failed: {e}");
            let err = Reply::err(ErrCode::Journal, e.to_string());
            for id in &pending {
                if let Some(conn) = conns.get_mut(id) {
                    conn.out.clear();
                    for _ in 0..conn.held {
                        let _ = writeln!(conn.out, "{err}");
                    }
                    let _ = conn.stream.write_all(&conn.out);
                }
            }
            for conn in conns.values() {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            stop_acceptor(stop, listen);
            return 1;
        }

        // One write per connection carries all of its held replies.
        for id in pending.drain(..) {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            let sent = conn.stream.write_all(&conn.out).is_ok();
            if conn.closing || !sent {
                // The reader notices the closed socket and sends `Closed`,
                // which is where the open-connection count is released.
                let _ = conn.stream.shutdown(Shutdown::Both);
                conns.remove(&id);
            } else {
                conn.out.clear();
                conn.out.shrink_to(RETAINED_OUT_BYTES);
                conn.held = 0;
            }
        }

        for id in closed.drain(..) {
            if let Some(conn) = conns.remove(&id) {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            let n = open_count.fetch_sub(1, Ordering::AcqRel).saturating_sub(1);
            obs.open.set(i64::try_from(n).unwrap_or(i64::MAX));
        }

        if begin_shutdown && !shutting_down {
            shutting_down = true;
            stop_acceptor(stop, listen);
            // Close every read side: readers see EOF, send `Closed`, and
            // drop their channel senders. Already-queued requests still
            // drain through the loop; once the last sender is gone,
            // `recv` disconnects and the loop exits.
            for conn in conns.values() {
                let _ = conn.stream.shutdown(Shutdown::Read);
            }
        }
    }

    // Graceful exit: the channel is fully drained (every queued request
    // was handled, flushed, and answered). Seal the journal with a final
    // snapshot so the next start recovers without replay.
    let mut code = 0;
    if let Err(e) = engine.shutdown() {
        eprintln!("jigsaw-sched: fatal: shutdown flush failed: {e}");
        code = 1;
    }
    for conn in conns.values() {
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_core::{ObservedAllocator, Scheme};
    use jigsaw_obs::Registry;
    use jigsaw_persist::PersistentState;
    use jigsaw_topology::FatTree;
    use std::io::{BufRead, BufReader};

    fn ephemeral_engine() -> Engine {
        let tree = FatTree::maximal(4).unwrap();
        let registry = Registry::new();
        let mut persist = PersistentState::ephemeral(tree);
        persist.attach_registry(&registry);
        let allocator = Box::new(ObservedAllocator::new(
            Scheme::Jigsaw.make(&tree),
            &registry,
        ));
        Engine::new(tree, allocator, persist, &registry)
    }

    fn start_ephemeral(config: &ServerConfig) -> ServerHandle {
        Server::start(ephemeral_engine(), config).expect("bind")
    }

    /// A connected loopback pair: (the daemon's end, the client's end).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (daemon, _) = listener.accept().unwrap();
        (daemon, client)
    }

    /// Run the command loop over `events`, all queued before it starts so
    /// that they form exactly one batch, until the channel disconnects.
    /// Returns the exit code and the requests-per-batch histogram.
    fn run_one_batch(events: Vec<ConnEvent>) -> (i32, Histogram) {
        let engine = ephemeral_engine();
        let obs = NetObs::new(engine.registry());
        let batches = obs.batch_requests.clone();
        let n = events.len();
        let (tx, rx) = std::sync::mpsc::sync_channel(n);
        for event in events {
            tx.send(event).unwrap();
        }
        drop(tx);
        let open = Arc::new(AtomicUsize::new(0));
        // No acceptor runs here; a shutdown's wake-up lands in this
        // listener's backlog.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let listen = listener.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        let code = command_loop(engine, &rx, &stop, listen, &open, n, &obs);
        (code, batches)
    }

    /// Everything the daemon wrote to `client` up to EOF, as lines.
    fn read_all(mut client: TcpStream) -> Vec<String> {
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        text.lines().map(str::to_string).collect()
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn roundtrip(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        request: &str,
    ) -> String {
        writeln!(stream, "{request}").expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line.trim_end().to_string()
    }

    #[test]
    fn tcp_session_speaks_the_protocol() {
        let handle = start_ephemeral(&ServerConfig::default());
        let (mut stream, mut reader) = connect(handle.addr());
        let grant = roundtrip(&mut stream, &mut reader, "ALLOC 1 4");
        assert!(grant.starts_with("OK GRANT 1 "), "{grant}");
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "STATUS"),
            "OK STATUS nodes=4/16 jobs=1 util=25.0%"
        );
        assert_eq!(roundtrip(&mut stream, &mut reader, "FREE 1"), "OK FREE 1");
        assert_eq!(roundtrip(&mut stream, &mut reader, "QUIT"), "OK BYE");
        // QUIT closes only this connection; the daemon still serves.
        let (mut s2, mut r2) = connect(handle.addr());
        assert!(roundtrip(&mut s2, &mut r2, "STATUS").starts_with("OK STATUS"));
        assert_eq!(roundtrip(&mut s2, &mut r2, "SHUTDOWN"), "OK SHUTDOWN");
        assert_eq!(handle.wait(), 0);
    }

    #[test]
    fn pipelined_requests_get_in_order_replies() {
        let handle = start_ephemeral(&ServerConfig::default());
        let (mut stream, mut reader) = connect(handle.addr());
        // One write carrying many requests: replies must pair 1:1 in order.
        stream
            .write_all(b"ALLOC 1 2\nALLOC 2 2\nSTATUS\nFREE 1\nFREE 2\nSTATUS\n")
            .unwrap();
        let mut replies = Vec::new();
        for _ in 0..6 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            replies.push(line.trim_end().to_string());
        }
        assert!(replies[0].starts_with("OK GRANT 1 "));
        assert!(replies[1].starts_with("OK GRANT 2 "));
        assert_eq!(replies[2], "OK STATUS nodes=4/16 jobs=2 util=25.0%");
        assert_eq!(replies[3], "OK FREE 1");
        assert_eq!(replies[4], "OK FREE 2");
        assert_eq!(replies[5], "OK STATUS nodes=0/16 jobs=0 util=0.0%");
        let _ = roundtrip(&mut stream, &mut reader, "SHUTDOWN");
        assert_eq!(handle.wait(), 0);
    }

    #[test]
    fn connections_over_the_cap_get_busy() {
        let config = ServerConfig {
            max_conns: 1,
            ..ServerConfig::default()
        };
        let handle = start_ephemeral(&config);
        let (mut s1, mut r1) = connect(handle.addr());
        // Ensure the first connection is admitted before the second tries.
        assert!(roundtrip(&mut s1, &mut r1, "STATUS").starts_with("OK STATUS"));
        let (_s2, mut r2) = connect(handle.addr());
        let mut line = String::new();
        r2.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR busy"), "{line}");
        let _ = roundtrip(&mut s1, &mut r1, "SHUTDOWN");
        assert_eq!(handle.wait(), 0);
    }

    #[test]
    fn framing_violations_break_only_their_connection() {
        let handle = start_ephemeral(&ServerConfig::default());
        let (mut bad, mut bad_reader) = connect(handle.addr());
        bad.write_all(&[0xff, 0xfe, b'\n']).unwrap();
        let mut line = String::new();
        bad_reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR bad-request"), "{line}");
        // The poisoned connection is closed...
        line.clear();
        assert_eq!(bad_reader.read_line(&mut line).unwrap(), 0, "EOF expected");
        // ...while a well-behaved one is unaffected.
        let (mut good, mut good_reader) = connect(handle.addr());
        assert!(roundtrip(&mut good, &mut good_reader, "STATUS").starts_with("OK STATUS"));
        let _ = roundtrip(&mut good, &mut good_reader, "SHUTDOWN");
        assert_eq!(handle.wait(), 0);
    }

    #[test]
    fn idle_connections_are_closed() {
        let config = ServerConfig {
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        };
        let handle = start_ephemeral(&config);
        let (_stream, mut reader) = connect(handle.addr());
        let mut line = String::new();
        // No request: the daemon closes the connection after the timeout.
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF expected");
        let (mut s, mut r) = connect(handle.addr());
        let _ = roundtrip(&mut s, &mut r, "SHUTDOWN");
        assert_eq!(handle.wait(), 0);
    }

    #[test]
    fn interleaved_connections_in_one_batch_get_their_own_replies() {
        let (a, a_client) = socket_pair();
        let (b, b_client) = socket_pair();
        let line = |id: u64, text: &str| ConnEvent::Line(id, text.to_string());
        let (code, batches) = run_one_batch(vec![
            ConnEvent::Open(0, a),
            ConnEvent::Open(1, b),
            line(0, "ALLOC 1 2"),
            line(1, "ALLOC 2 2"),
            line(0, "STATUS"),
            line(1, "FREE 2"),
            line(1, "STATUS"),
            line(0, "FREE 1"),
        ]);
        assert_eq!(code, 0);
        assert_eq!(batches.count(), 1, "one batch");
        assert_eq!(batches.sum(), 6, "six requests in it");
        let a = read_all(a_client);
        let b = read_all(b_client);
        assert_eq!(a.len(), 3, "{a:?}");
        assert!(a[0].starts_with("OK GRANT 1 "), "{a:?}");
        assert_eq!(a[1], "OK STATUS nodes=4/16 jobs=2 util=25.0%");
        assert_eq!(a[2], "OK FREE 1");
        assert_eq!(b.len(), 3, "{b:?}");
        assert!(b[0].starts_with("OK GRANT 2 "), "{b:?}");
        assert_eq!(b[1], "OK FREE 2");
        assert_eq!(b[2], "OK STATUS nodes=2/16 jobs=1 util=12.5%");
    }

    #[test]
    fn requests_behind_quit_in_the_same_batch_are_dropped() {
        let (a, a_client) = socket_pair();
        let (b, b_client) = socket_pair();
        let line = |id: u64, text: &str| ConnEvent::Line(id, text.to_string());
        let (code, _) = run_one_batch(vec![
            ConnEvent::Open(0, a),
            ConnEvent::Open(1, b),
            line(0, "QUIT"),
            line(0, "ALLOC 7 4"),
            ConnEvent::Broken(0, "request is not valid UTF-8".to_string()),
            line(1, "STATUS"),
        ]);
        assert_eq!(code, 0);
        assert_eq!(read_all(a_client), ["OK BYE"]);
        assert_eq!(
            read_all(b_client),
            ["OK STATUS nodes=0/16 jobs=0 util=0.0%"]
        );
    }

    #[test]
    fn requests_pipelined_after_quit_are_not_applied() {
        let handle = start_ephemeral(&ServerConfig::default());
        let (mut stream, mut reader) = connect(handle.addr());
        stream.write_all(b"QUIT\nALLOC 7 4\nALLOC 8 4\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "OK BYE\n");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF expected");
        let (mut s2, mut r2) = connect(handle.addr());
        assert_eq!(
            roundtrip(&mut s2, &mut r2, "STATUS"),
            "OK STATUS nodes=0/16 jobs=0 util=0.0%"
        );
        let _ = roundtrip(&mut s2, &mut r2, "SHUTDOWN");
        assert_eq!(handle.wait(), 0);
    }

    #[test]
    fn valid_lines_before_a_non_utf8_byte_are_answered_then_closed() {
        let handle = start_ephemeral(&ServerConfig::default());
        let (mut stream, mut reader) = connect(handle.addr());
        stream.write_all(b"ALLOC 1 2\nSTATUS\n\xff\n").unwrap();
        let mut replies = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            replies.push(line.trim_end().to_string());
        }
        assert!(replies[0].starts_with("OK GRANT 1 "), "{replies:?}");
        assert_eq!(replies[1], "OK STATUS nodes=2/16 jobs=1 util=12.5%");
        assert!(replies[2].starts_with("ERR bad-request"), "{replies:?}");
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF expected");
        let (mut s2, mut r2) = connect(handle.addr());
        let _ = roundtrip(&mut s2, &mut r2, "SHUTDOWN");
        assert_eq!(handle.wait(), 0);
    }

    #[test]
    fn shutdown_drains_before_exit() {
        let handle = start_ephemeral(&ServerConfig::default());
        let addr = handle.addr();
        let (mut stream, mut reader) = connect(addr);
        // Pipeline work and SHUTDOWN in one write: everything before the
        // SHUTDOWN must still be answered.
        stream.write_all(b"ALLOC 1 4\nSTATUS\nSHUTDOWN\n").unwrap();
        let mut replies = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            replies.push(line.trim_end().to_string());
        }
        assert!(replies[0].starts_with("OK GRANT 1 "));
        assert!(replies[1].starts_with("OK STATUS"));
        assert_eq!(replies[2], "OK SHUTDOWN");
        assert_eq!(handle.wait(), 0);
        // The daemon is gone: new connections are refused (or reset).
        assert!(
            TcpStream::connect(addr).is_err() || {
                let (mut s, mut r) = connect(addr);
                writeln!(s, "STATUS").ok();
                let mut line = String::new();
                matches!(r.read_line(&mut line), Ok(0) | Err(_))
            }
        );
    }
}
