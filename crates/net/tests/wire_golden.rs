//! Wire compatibility: one seeded script, every verb, byte-for-byte.
//!
//! `golden/wire.script` exercises every verb of the protocol, grants,
//! typed denials (capacity and fragmentation), a migrating `DEFRAG`, DAG
//! submissions and their drain, reservations, unknown verbs, wrong arity,
//! unparseable arguments, blank and whitespace-padded lines, and CRLF.
//! `golden/wire.replies` holds the replies the daemon sent for it before
//! the request path was rewritten to parse into a typed request and
//! encode replies in place; both transports must still produce them
//! exactly:
//!
//! * the stdin/stdout session ([`serve_stream`]), and
//! * the TCP daemon, with the whole script pipelined on one connection.
//!
//! The one reply whose bytes are not a function of the script is the
//! body of `METRICS` (latency histograms, and the TCP daemon's own
//! connection and batch series), so its block is compared by shape: a
//! header whose count matches the lines that follow. The registry is
//! live, as in `jigsaw-sched serve`, so `STATS` request counts are pinned.

use jigsaw_core::{ObservedAllocator, Scheme};
use jigsaw_net::{serve_stream, Engine, Server, ServerConfig};
use jigsaw_obs::Registry;
use jigsaw_persist::PersistentState;
use jigsaw_topology::FatTree;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const SCRIPT: &str = include_str!("golden/wire.script");
const GOLDEN: &str = include_str!("golden/wire.replies");

/// The production configuration on a radix-4 tree: Jigsaw behind an
/// observed allocator, all metrics live, no journal.
fn engine() -> Engine {
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

/// Replace each `OK METRICS <n>` block by a placeholder after checking
/// that exactly `n` lines follow it before the next reply.
fn elide_metrics(text: &str) -> String {
    let mut out = String::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        match line.strip_prefix("OK METRICS ") {
            Some(n) => {
                let n: usize = n.parse().expect("METRICS header carries a line count");
                for _ in 0..n {
                    let body = lines.next().expect("METRICS body shorter than declared");
                    assert!(
                        !body.starts_with("OK ") && !body.starts_with("ERR "),
                        "METRICS body line looks like a reply: {body}"
                    );
                }
                out.push_str("OK METRICS <elided>\n");
            }
            None => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

fn stdin_replies(script: &str) -> String {
    let mut engine = engine();
    let mut out = Vec::new();
    assert_eq!(serve_stream(&mut engine, script.as_bytes(), &mut out), 0);
    String::from_utf8(out).unwrap()
}

#[test]
fn stdin_session_reproduces_the_recorded_replies() {
    assert_eq!(elide_metrics(&stdin_replies(SCRIPT)), GOLDEN);
}

#[test]
fn tcp_daemon_reproduces_the_recorded_replies() {
    let handle = Server::start(engine(), &ServerConfig::default()).expect("bind");
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    conn.write_all(SCRIPT.as_bytes()).unwrap();
    // The script ends in QUIT: the daemon answers it and closes the
    // connection, so the replies run to EOF.
    let mut text = String::new();
    conn.read_to_string(&mut text).unwrap();
    assert_eq!(elide_metrics(&text), GOLDEN);

    let mut admin = TcpStream::connect(handle.addr()).unwrap();
    admin.write_all(b"SHUTDOWN\n").unwrap();
    let mut bye = String::new();
    admin.read_to_string(&mut bye).unwrap();
    assert_eq!(bye, "OK SHUTDOWN\n");
    assert_eq!(handle.wait(), 0);
}

/// The same script sent 7 bytes per write, with Nagle's algorithm off so
/// that each write leaves as its own segment and most of the daemon's
/// reads end mid-line (the kernel may still merge segments a slow reader
/// has not read yet; framing across every split point is pinned by
/// `framing.rs`). The reader relays whatever each read returned, and the
/// replies must not depend on it.
#[test]
fn tcp_replies_do_not_depend_on_segmenting() {
    let handle = Server::start(engine(), &ServerConfig::default()).expect("bind");
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let reader = {
        let mut conn = conn.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut text = String::new();
            conn.read_to_string(&mut text).unwrap();
            text
        })
    };
    for chunk in SCRIPT.as_bytes().chunks(7) {
        conn.write_all(chunk).unwrap();
    }
    let text = reader.join().unwrap();
    assert_eq!(elide_metrics(&text), GOLDEN);

    let mut admin = TcpStream::connect(handle.addr()).unwrap();
    admin.write_all(b"SHUTDOWN\n").unwrap();
    let mut bye = String::new();
    admin.read_to_string(&mut bye).unwrap();
    assert_eq!(bye, "OK SHUTDOWN\n");
    assert_eq!(handle.wait(), 0);
}
