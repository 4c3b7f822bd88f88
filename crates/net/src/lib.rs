//! # jigsaw-net
//!
//! The scheduler as a network service: a multi-client TCP daemon around
//! the same sequential, deterministic allocator the offline harness uses,
//! with **group-commit durability** — many clients' `ALLOC`/`FREE`
//! requests are journaled with a single fsync per batch, and no reply is
//! released until the fsync covering it has succeeded.
//!
//! The crate is four layers, each usable on its own:
//!
//! * [`protocol`] — the line protocol: verbs, error codes, and every
//!   reply as one [`Reply`] enum with a single serializer. Shared
//!   verbatim by the stdin session and the daemon.
//! * [`frame`] — [`LineFramer`]: fragmentation-independent splitting of
//!   a TCP byte stream into request lines, with a length limit and
//!   poisoning on malformed streams.
//! * [`engine`] — [`Engine`]: the single-writer command dispatcher
//!   owning allocator + persistent state, plus [`serve_stream`], the
//!   stdin/stdout transport.
//! * [`server`] — [`Server`]: the TCP transport
//!   (acceptor, per-connection reader threads, bounded request channel,
//!   command loop, group-commit batching, graceful drain on `SHUTDOWN`).
//!
//! [`loadgen`] closes the loop: a seeded multi-connection load generator
//! (closed- or open-loop) whose latency quantiles come from the same
//! `jigsaw-obs` histograms the daemon exports, used by the saturation
//! benchmark to demonstrate the group-commit throughput win over
//! per-record fsync.
//!
//! ```no_run
//! use jigsaw_core::{ObservedAllocator, Scheme};
//! use jigsaw_net::{Engine, Server, ServerConfig};
//! use jigsaw_obs::Registry;
//! use jigsaw_persist::PersistentState;
//! use jigsaw_topology::FatTree;
//!
//! let tree = FatTree::maximal(8).unwrap();
//! let registry = Registry::new();
//! let mut persist = PersistentState::ephemeral(tree);
//! persist.attach_registry(&registry);
//! let allocator = Box::new(ObservedAllocator::new(Scheme::Jigsaw.make(&tree), &registry));
//! let engine = Engine::new(tree, allocator, persist, &registry);
//! let handle = Server::start(engine, &ServerConfig::default()).unwrap();
//! println!("LISTENING {}", handle.addr());
//! std::process::exit(handle.wait());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod frame;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use engine::{serve_stream, Control, Engine, Outcome};
pub use frame::{Framed, LineFramer, Violation, DEFAULT_MAX_LINE_LEN};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use protocol::{parse, Cmd, ErrCode, IdList, ParseError, Reply, Request, Verb, VERBS};
pub use server::{Server, ServerConfig, ServerHandle, DEFAULT_MAX_BATCH, DEFAULT_MAX_CONNS};
