//! # ar-daemon — a Spread-style client/daemon architecture
//!
//! The paper credits much of Spread's practical success to its
//! client/daemon architecture: a single set of daemons per data center
//! serves many applications, with open-group semantics (senders need
//! not join) and multi-group multicast (one message to the members of
//! several groups, ordered across groups). This crate provides that
//! architecture on top of the Accelerated Ring protocol:
//!
//! * [`spawn_daemon`] runs a daemon thread over any
//!   [`ar_net::Transport`];
//! * clients [`connect`](DaemonHandle::connect) with a private name,
//!   [`join`](DaemonClient::join)/[`leave`](DaemonClient::leave) named
//!   groups, and [`multicast`](DaemonClient::multicast) to any groups;
//! * group membership changes travel through the ring's total order, so
//!   every daemon sees every group's membership transition at the same
//!   point of the message sequence;
//! * clients on the network reach the same API through the `ar-svc`
//!   service tier, which bridges each remote session to a
//!   [`DaemonClient`] obtained from a [`DaemonConnector`].
//!
//! ## Example: two daemons, two clients, one group
//!
//! ```
//! use ar_core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
//! use ar_daemon::{spawn_daemon, ClientEvent};
//! use ar_net::LoopbackNet;
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! let net = LoopbackNet::new();
//! let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
//! let ring_id = RingId::new(members[0], 1);
//! let daemons: Vec<_> = members.iter().map(|&p| {
//!     let part = Participant::new(p, ProtocolConfig::accelerated(),
//!                                 ring_id, members.clone()).unwrap();
//!     spawn_daemon(part, net.endpoint(p))
//! }).collect();
//!
//! let alice = daemons[0].connect("alice").unwrap();
//! let bob = daemons[1].connect("bob").unwrap();
//! alice.join("room").unwrap();
//! // Wait until the (totally ordered) join has taken effect, so bob's
//! // message is ordered after it.
//! let deadline = std::time::Instant::now() + Duration::from_secs(10);
//! let mut joined = false;
//! while !joined && std::time::Instant::now() < deadline {
//!     if let Some(ClientEvent::Membership { .. }) = alice.recv(Duration::from_millis(50)) {
//!         joined = true;
//!     }
//! }
//! assert!(joined);
//! // Open-group semantics: bob can send without joining.
//! bob.multicast(&["room"], ServiceType::Agreed, Bytes::from_static(b"hi")).unwrap();
//! let mut got = false;
//! while !got && std::time::Instant::now() < deadline {
//!     if let Some(ClientEvent::Message { payload, .. }) = alice.recv(Duration::from_millis(50)) {
//!         assert_eq!(payload, Bytes::from_static(b"hi"));
//!         got = true;
//!     }
//! }
//! assert!(got);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod deployconf;
pub mod group;
pub mod metrics;
pub mod packing;
pub mod proto;
pub mod shard;
pub mod sharded;

pub use client::{ClientError, ClientEvent, DaemonClient, DEFAULT_EVENT_CAPACITY};
pub use daemon::{
    spawn_daemon, spawn_daemon_with, DaemonConfig, DaemonConnector, DaemonHandle, DaemonLogConfig,
    RingPressure,
};
pub use deployconf::Deployment;
pub use group::GroupTable;
pub use metrics::{serve_metrics, MetricsServer, TelemetryHub};
pub use proto::{Envelope, MemberId};
pub use shard::ShardMap;
pub use sharded::ShardedDaemon;
