//! # ar-core — the Accelerated Ring protocol
//!
//! A sans-io implementation of the **Accelerated Ring** total-ordering
//! protocol ("Fast Total Ordering for Modern Data Centers", Babay &
//! Amir, ICDCS 2016) together with the original Totem Ring protocol it
//! improves upon, and a Totem-style membership algorithm providing
//! Extended Virtual Synchrony semantics.
//!
//! The central type is [`Participant`]: a deterministic state machine
//! that consumes received messages, application submissions, and timer
//! expiries, and emits ordered [`Action`] lists for the environment to
//! execute. Because the core performs no I/O, the same protocol code
//! runs under the discrete-event simulator (`ar-sim`), the UDP runtime
//! (`ar-net`), and plain unit tests.
//!
//! ## The protocol in one paragraph
//!
//! Participants form a logical ring around which a *token* circulates.
//! A participant may multicast only while it holds (or has just held)
//! the token; the token carries the highest assigned sequence number
//! (`seq`), the global all-received-up-to (`aru`), flow-control state
//! (`fcc`), and retransmission requests (`rtr`). The Accelerated Ring
//! innovation: the token holder determines its *entire* send set for
//! the round up front, updates the token to reflect it, and passes the
//! token to its successor after multicasting only the portion beyond
//! the `accelerated_window` — the rest follows *behind* the token.
//! Retransmission requests are bounded by the previous round's token
//! `seq` so messages ordered-but-not-yet-sent are never requested.
//!
//! A phase-by-phase walkthrough of the implementation lives in
//! `docs/PROTOCOL.md` at the repository root.
//!
//! ## Quick example
//!
//! ```
//! use ar_core::{
//!     Action, ParticipantId, Participant, ProtocolConfig, RingId, ServiceType,
//! };
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let members: Vec<ParticipantId> = (0..4).map(ParticipantId::new).collect();
//! let ring_id = RingId::new(members[0], 1);
//! let mut p0 = Participant::new(members[0], ProtocolConfig::accelerated(),
//!                               ring_id, members.clone())?;
//! p0.submit(Bytes::from_static(b"hello, ring"), ServiceType::Agreed)?;
//! // The representative bootstraps the ring; its actions carry the
//! // pre-token multicasts, the token to its successor, and (because it
//! // has everything ordered so far) the delivery of its own message.
//! let actions = p0.start();
//! assert!(actions.iter().any(|a| matches!(a, Action::SendToken { .. })));
//! assert!(actions.iter().any(|a| matches!(a, Action::Deliver(_))));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod actions;
pub mod adaptive;
pub mod backoff;
pub mod checker;
pub mod codec;
pub mod config;
pub mod fault;
pub mod flow;
pub mod membership;
pub mod message;
pub mod observer;
pub mod participant;
pub mod priority;
pub mod recvbuf;
pub mod ring;
pub mod sendq;
pub mod splitmix;
pub mod statehash;
pub mod stats;
pub mod types;
pub mod wire;

pub use actions::{Action, ConfigChange, ConfigChangeKind, TimerKind};
pub use adaptive::{
    derive_timeouts, AdaptiveConfig, AdaptiveConfigError, AdaptiveInitError, AdaptiveTimeouts,
};
pub use backoff::{Backoff, BackoffConfig, ExpShift};
pub use checker::{DurabilityChecker, EvsChecker, SendSplitChecker, TokenRuleMonitor};
pub use config::{
    AimdConfig, ConfigError, FlapDampingConfig, PriorityMethod, ProtocolConfig, ProtocolVariant,
};
pub use fault::{Connectivity, FaultEvent, FaultSchedule};
pub use message::{CommitToken, DataMessage, Delivery, JoinMessage, MemberInfo, Token};
pub use observer::{Observer, ProtoEvent};
pub use participant::{Mode, NewParticipantError, Participant, TimeoutConfig, TimeoutConfigError};
pub use priority::PriorityMode;
pub use recvbuf::RecvBuffer;
pub use ring::RingInfo;
pub use sendq::QueueFull;
pub use splitmix::SplitMix64;
pub use statehash::{StateHash, StateHasher};
pub use stats::ParticipantStats;
pub use types::{ParticipantId, RingId, Round, Seq, ServiceType};
pub use wire::Message;
