//! # ar-net — real transports for the Accelerated Ring protocol
//!
//! The sans-io protocol core (`ar-core`) needs an environment that
//! moves bytes and runs timers. This crate provides the real-world
//! environments:
//!
//! * [`Transport`] — the dual-channel transport abstraction (token
//!   channel + data channel, mirroring the paper's two sockets on two
//!   ports, Section III-D);
//! * [`UdpTransport`] — UDP over two sockets, with logical multicast by
//!   unicast fanout (Spread's no-IP-multicast fallback mode);
//! * [`LoopbackNet`] / [`LoopbackTransport`] — an in-process channel
//!   hub for concurrent tests and examples;
//! * [`Runtime`] — the single-threaded daemon main loop: receive with
//!   the protocol's current priority preference, handle, execute
//!   actions, fire timers, park an idle token ([`hold`]), and pass
//!   deliveries through a durable log's [`ar_log::DeliveryGate`] when
//!   one is attached;
//! * [`ChaosTransport`] ([`chaos`]) — seeded loss, crashes and outbound
//!   partitions around any transport, for live rings.
//!
//! It also holds the one fake-time environment: [`World`]
//! ([`replay`]), a deterministic ring whose in-flight messages and
//! armed timers are explicit, and which alone turns a participant's
//! actions into messages, timers and oracle input. Schedulers choose
//! its steps: the explorer (`ar-explore`) by exhaustive search,
//! [`replay_schedule`] from a recorded schedule, and [`NemesisRunner`]
//! ([`nemesis`]) from a virtual clock, a seeded lossy network and a
//! fault plan. The nemesis puts durable logs behind the same
//! `DeliveryGate` the runtime uses, so its durability oracle checks
//! the gate `ard` ships.
//!
//! ## Example: a ring of three on in-process transports, one thread
//!
//! ```
//! use ar_core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
//! use ar_net::{AppEvent, LoopbackNet, Runtime};
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! let net = LoopbackNet::new();
//! let members: Vec<ParticipantId> = (0..3).map(ParticipantId::new).collect();
//! let ring_id = RingId::new(members[0], 1);
//! let mut nodes: Vec<_> = members.iter().map(|&p| {
//!     let part = Participant::new(p, ProtocolConfig::accelerated(),
//!                                 ring_id, members.clone()).unwrap();
//!     Runtime::new(part, net.endpoint(p))
//! }).collect();
//! for node in &mut nodes { node.start()?; }
//! nodes[1].submit(Bytes::from_static(b"hello"), ServiceType::Agreed).unwrap();
//! let delivered = |ev: &AppEvent| matches!(ev, AppEvent::Delivered(_));
//! while !nodes[2].step_with_wait(Duration::ZERO)?.iter().any(delivered) {
//!     nodes[0].step_with_wait(Duration::ZERO)?;
//!     nodes[1].step_with_wait(Duration::ZERO)?;
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod hold;
pub mod loopback;
pub mod metrics;
pub mod nemesis;
pub mod poll;
pub mod replay;
pub mod runtime;
#[cfg(target_os = "linux")]
pub(crate) mod sys;
pub mod transport;
pub mod udp;

pub use chaos::{ChaosConfig, ChaosControl, ChaosStats, ChaosTransport, KindStats, MsgKind};
pub use hold::{IdleHold, Release};
pub use loopback::{LoopbackNet, LoopbackTransport};
pub use metrics::NetMetrics;
pub use nemesis::{NemesisOutcome, NemesisPlan, NemesisRunner};
pub use poll::{wake_pair, PollSet, WakeReceiver, Waker};
pub use replay::{
    replay_schedule, Expectation, ReplayOutcome, Schedule, ScheduleError, Step, Submission, World,
};
pub use runtime::{AppEvent, Runtime};
pub use transport::Transport;
pub use udp::{DatapathMode, PeerAddrs, PeerMap, UdpStats, UdpTransport};
