//! # ar-sim — discrete-event data-center simulator for the Accelerated
//! Ring protocol
//!
//! The paper evaluates the Accelerated Ring protocol on eight servers
//! connected by 1-gigabit (Cisco Catalyst 2960) and 10-gigabit (Arista
//! 7100T) switches. This crate substitutes a calibrated discrete-event
//! simulation of that testbed so every figure of the evaluation can be
//! regenerated on a laptop:
//!
//! * full-duplex links with bandwidth and propagation delay
//!   ([`NetworkConfig`]);
//! * one store-and-forward switch with bounded output-port buffers
//!   (tail drop) — the buffering whose trade-offs the protocol
//!   exploits;
//! * per-host NICs and *two* receive sockets (token and data) with
//!   separate kernel buffers, drained by a single-threaded CPU in the
//!   priority order the protocol requests (Section III-C/III-D);
//! * CPU cost models for the paper's three implementation tiers
//!   ([`ImplProfile`]: library / daemon / Spread);
//! * open-loop and saturating load generators ([`LoadMode`]), latency
//!   and goodput measurement ([`SimReport`]), and fault injection
//!   (`RingSimConfig::faults`, an [`ar_core::FaultSchedule`] shared with
//!   the nemesis harness).
//!
//! ## Example: one point of Figure 1
//!
//! ```
//! use ar_sim::{run_ring, LoadMode, RingSimConfig, SimDuration};
//! use ar_core::ProtocolConfig;
//!
//! let mut cfg = RingSimConfig::paper_default();
//! cfg.protocol = ProtocolConfig::accelerated();
//! cfg.load = LoadMode::OpenLoop { aggregate_bps: 400_000_000 };
//! cfg.warmup = SimDuration::from_millis(10);
//! cfg.duration = SimDuration::from_millis(20);
//! let report = run_ring(&cfg);
//! assert!(report.achieved_bps > 300e6);
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod load;
pub mod metrics;
pub mod netcfg;
pub mod profile;
pub mod runner;
pub mod seqsim;
pub mod time;
pub mod timeseries;

pub use load::LoadMode;
pub use metrics::{LatencyRecorder, LatencySummary, SimReport};
pub use netcfg::NetworkConfig;
pub use profile::ImplProfile;
pub use runner::{run_ring, RingSim, RingSimConfig};
pub use seqsim::{run_sequencer, SequencerSimConfig};
pub use time::{SimDuration, SimTime};
pub use timeseries::{find_disruption, Disruption, ThroughputSeries};
