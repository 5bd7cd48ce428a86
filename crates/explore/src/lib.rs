//! # ar-explore — systematic testing for the sans-io protocol core
//!
//! Two complementary bug hunters over `ar-core`, both fully
//! deterministic and dependency-free (no cargo-fuzz, no network):
//!
//! * [`explorer`] — a bounded depth-first **state-space explorer**. It
//!   drives 2–4 [`ar_core::Participant`] state machines through every
//!   interleaving of the adversary's moves — message delivery, loss,
//!   duplication, and timer firing — up to a configurable depth,
//!   pruning with a visited-state hash set and DPOR-style sleep sets
//!   (commuting deliveries to distinct participants are not
//!   reordered). Every explored path is checked against the Extended
//!   Virtual Synchrony oracles from `ar-core::checker`; violations are
//!   minimized and emitted as replayable schedule files consumable by
//!   `ar_net::replay`.
//! * [`fuzz`] — a **structure-aware codec fuzzer**. It generates valid
//!   frames, mutates them field-by-field from a fixed seed, and asserts
//!   that decode never panics (which in safe Rust also rules out
//!   over-reads) and re-encodes everything it accepts byte-for-byte
//!   (canonicality). The codec is a parameter; the CLI fuzzes
//!   [`ar_core::wire`].
//!
//! The `ar-explore` binary fronts both: `cargo run -p ar-explore --
//! explore --hosts 3 --depth 12` and `cargo run -p ar-explore -- fuzz
//! --iterations 50000`. See the repository README for a quickstart and
//! DESIGN.md for the pruning soundness trade-offs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod explorer;
pub mod fuzz;
pub mod model;

pub use explorer::{
    default_submissions, minimize, minimize_cached, minimize_cached_with, minimize_with,
    ExploreConfig, ExploreReport, Explorer, MinimizeStats, Violation,
};
pub use fuzz::{Codec, FuzzConfig, FuzzFailure, FuzzReport, SplitMix64};
pub use model::ModelChecker;
