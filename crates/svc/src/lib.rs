//! # ar-svc — the client service tier
//!
//! One daemon, thousands of flow-controlled clients. This crate turns
//! the in-process [`ar_daemon`] client API into a network service:
//!
//! * a versioned, length-prefixed wire protocol ([`wire`]) spoken over
//!   TCP and Unix-domain sockets — Hello/Welcome handshake, group
//!   join/leave, credit-controlled Publish, windowed Deliver with the
//!   delivery level and global ring sequence, CreditGrant and Ack;
//! * a connection multiplexer ([`server`]) that registers every client
//!   socket with one [`ar_net::PollSet`] and services them all from a
//!   single thread, bridging frames to per-session [`DaemonClient`]s;
//! * per-client flow control ([`credit`]) in both directions: publish
//!   credits replenished as messages reach Agreed order (withheld while
//!   the ring send queue is backpressured), and delivery windows so a
//!   slow consumer buffers boundedly and is evicted by policy rather
//!   than stalling the daemon or its neighbours;
//! * cross-shard per-publisher ordering for sharded multi-ring
//!   daemons: a publish bound for another shard waits at ingress until
//!   the publisher's earlier publishes are ordered
//!   ([`credit::PublishGate`]), so every member of a group sees its
//!   ring's one order and per-publisher FIFO survives group placement
//!   across rings ([`order`] is the retired hold-back queue, kept for
//!   the benchmark's driver);
//! * a client library ([`client`]) used by `arclient`, the tests, and
//!   `ar-bench loadgen` — with automatic reconnect-and-resume: the
//!   server parks a disconnected session for a grace period and the
//!   client redials with jittered backoff, presents a resume token,
//!   replays unacked publishes (deduplicated server-side), and
//!   suppresses re-delivered duplicates, keeping delivery exactly-once
//!   and gap-free per publisher across connection and daemon chaos.
//!
//! [`DaemonClient`]: ar_daemon::DaemonClient

#![warn(missing_docs)]

pub mod client;
pub mod credit;
pub mod order;
pub mod server;
pub mod wire;

pub use client::{PublishError, ResumePolicy, SvcClient, SvcEvent};
pub use credit::{DedupWindow, EvictReason, FlowConfig, FlowState, Offer, PublishGate};
pub use order::HoldBack;
pub use server::{
    serve_clients, serve_clients_sharded, SvcConfig, SvcHandle, SvcListeners, SvcStats,
};
pub use wire::{ClientFrame, ResumeToken, ServerFrame, PROTOCOL_VERSION};
