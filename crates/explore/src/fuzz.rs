//! Structure-aware, seeded fuzzing of byte codecs.
//!
//! Coverage-guided fuzzers need instrumentation the offline toolchain
//! does not carry; instead this fuzzer leans on *structure*: every
//! iteration starts from a **valid** frame of a random message kind
//! (so mutations explore the neighborhood of real traffic, not the
//! astronomically larger space of random bytes) and applies a few
//! field-aimed mutations — bit flips, boundary-value overwrites at
//! length/count offsets, truncation, extension, and cross-kind
//! splicing.
//!
//! The codec is a parameter ([`Codec`], driven by [`run_codec`]):
//! [`run`] fuzzes [`ar_core::wire`], and the workspace's codec-harness
//! test runs the client, daemon and log formats of the crates above
//! this one. Three properties are asserted for every candidate input:
//!
//! 1. decode never panics. In safe Rust a panic is also how an
//!    over-read (slice out of bounds) would manifest, so this subsumes
//!    the no-over-read check.
//! 2. Whatever decode accepts, encode reproduces **byte-exactly**.
//!    This is the canonicality property: decode is injective on its
//!    accepted set, so no two distinct byte strings alias to the same
//!    message (the non-canonical `aru_setter` encoding this fuzzer
//!    flushed out is now rejected with `WireError::NonCanonical`).
//! 3. Valid frames (zero mutations) always decode.
//!
//! Determinism: the only randomness is [`SplitMix64`] seeded from the
//! config, so a failing iteration reproduces from `(seed, iteration)`
//! alone — both are printed in every failure record.

use ar_core::wire::{self, Message};
use ar_core::{
    CommitToken, DataMessage, JoinMessage, MemberInfo, ParticipantId, RingId, Round, Seq,
    ServiceType, Token,
};
use bytes::Bytes;

/// Small, fast, well-distributed PRNG (Steele et al., the Java
/// `SplitMix64` generator). Deterministic across platforms; good
/// enough for mutation scheduling, not for cryptography.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num/denom`.
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.below(denom) < num
    }
}

/// Fuzzer parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// PRNG seed; a failure reproduces from `(seed, iteration)`.
    pub seed: u64,
    /// Number of candidate inputs to run.
    pub iterations: u64,
    /// Maximum mutations applied per candidate (0..=max, chosen per
    /// iteration; zero-mutation iterations keep the valid-frame
    /// baseline honest).
    pub max_mutations: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xa11c_e5ee_d000_0001,
            iterations: 20_000,
            max_mutations: 3,
        }
    }
}

/// One property failure, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Which iteration produced the input.
    pub iteration: u64,
    /// The property that failed.
    pub kind: &'static str,
    /// The offending input, hex-encoded.
    pub input_hex: String,
    /// Details (panic payload, diff position, ...).
    pub detail: String,
}

/// Aggregate result of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Candidates executed.
    pub iterations: u64,
    /// Inputs `decode` accepted.
    pub accepted: u64,
    /// Inputs `decode` rejected with a checked error.
    pub rejected: u64,
    /// Property failures (empty on a green run).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True when every property held on every input.
    pub fn is_green(&self) -> bool {
        self.failures.is_empty()
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn gen_pid(rng: &mut SplitMix64) -> ParticipantId {
    ParticipantId::new(rng.below(6) as u16)
}

fn gen_ring_id(rng: &mut SplitMix64) -> RingId {
    RingId::new(gen_pid(rng), rng.below(5))
}

fn gen_seq(rng: &mut SplitMix64) -> Seq {
    // Mix small sequence numbers (the interesting protocol range) with
    // occasional huge ones to probe arithmetic at the top of the space.
    if rng.chance(1, 8) {
        Seq::new(u64::MAX - rng.below(4))
    } else {
        Seq::new(rng.below(64))
    }
}

fn gen_service(rng: &mut SplitMix64) -> ServiceType {
    match rng.below(5) {
        0 => ServiceType::Reliable,
        1 => ServiceType::Fifo,
        2 => ServiceType::Causal,
        3 => ServiceType::Agreed,
        _ => ServiceType::Safe,
    }
}

fn gen_payload(rng: &mut SplitMix64) -> Bytes {
    let len = rng.below(33) as usize;
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        v.push(rng.next_u64() as u8);
    }
    Bytes::from(v)
}

fn gen_token(rng: &mut SplitMix64) -> Token {
    let rtr_len = rng.below(5) as usize;
    Token {
        ring_id: gen_ring_id(rng),
        round: Round::new(rng.below(32)),
        seq: gen_seq(rng),
        aru: gen_seq(rng),
        aru_setter: if rng.chance(1, 2) {
            Some(gen_pid(rng))
        } else {
            None
        },
        fcc: rng.below(128) as u32,
        rtr: (0..rtr_len).map(|_| gen_seq(rng)).collect(),
    }
}

fn gen_data(rng: &mut SplitMix64) -> DataMessage {
    DataMessage {
        ring_id: gen_ring_id(rng),
        seq: gen_seq(rng),
        pid: gen_pid(rng),
        round: Round::new(rng.below(32)),
        service: gen_service(rng),
        after_token: rng.chance(1, 2),
        payload: gen_payload(rng),
    }
}

fn gen_join(rng: &mut SplitMix64) -> JoinMessage {
    let set = |rng: &mut SplitMix64| {
        let n = rng.below(4) as usize;
        (0..n).map(|_| gen_pid(rng)).collect::<Vec<_>>()
    };
    JoinMessage {
        sender: gen_pid(rng),
        proc_set: set(rng),
        fail_set: set(rng),
        ring_seq: rng.below(16),
    }
}

fn gen_commit(rng: &mut SplitMix64) -> CommitToken {
    let n = rng.below(4) as usize;
    CommitToken {
        ring_id: gen_ring_id(rng),
        memb: (0..n)
            .map(|_| MemberInfo {
                pid: gen_pid(rng),
                old_ring_id: gen_ring_id(rng),
                my_aru: gen_seq(rng),
                high_seq: gen_seq(rng),
                safe_seq: gen_seq(rng),
                filled: rng.chance(1, 2),
            })
            .collect(),
        hop: rng.below(8) as u32,
    }
}

/// Generates a valid frame of a random kind.
pub fn gen_message(rng: &mut SplitMix64) -> Message {
    match rng.below(5) {
        0 => Message::Token(gen_token(rng)),
        1 => Message::Data(gen_data(rng)),
        2 => Message::Join(gen_join(rng)),
        3 => Message::Commit(gen_commit(rng)),
        _ => Message::HoldCancel {
            ring_id: gen_ring_id(rng),
            pid: gen_pid(rng),
        },
    }
}

/// Boundary values worth writing into any length/count/sequence field.
const BOUNDARY_U32: [u32; 6] = [0, 1, 0x7fff_ffff, 0x8000_0000, u32::MAX - 1, u32::MAX];

/// Applies one structure-aware mutation to `bytes` in place. `spare`
/// is a second valid encoding used for splicing.
fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>, spare: &[u8]) {
    if bytes.is_empty() {
        bytes.push(rng.next_u64() as u8);
        return;
    }
    match rng.below(7) {
        // Bit flip anywhere.
        0 => {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 << rng.below(8);
        }
        // Byte overwrite with an interesting constant.
        1 => {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] = [0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff][rng.below(6) as usize];
        }
        // Big-endian u32 boundary blast at a random aligned-ish offset:
        // this is what reaches length and count fields.
        2 => {
            if bytes.len() >= 4 {
                let i = rng.below((bytes.len() - 3) as u64) as usize;
                let v = BOUNDARY_U32[rng.below(6) as usize];
                bytes[i..i + 4].copy_from_slice(&v.to_be_bytes());
            }
        }
        // Truncate.
        3 => {
            let keep = rng.below(bytes.len() as u64) as usize;
            bytes.truncate(keep);
        }
        // Extend with random trailing bytes (probes the trailing-bytes
        // rejection and count-field over-claims).
        4 => {
            let extra = 1 + rng.below(16) as usize;
            for _ in 0..extra {
                bytes.push(rng.next_u64() as u8);
            }
        }
        // Kind-byte swap: reinterpret the body as another kind.
        5 => {
            bytes[0] = rng.below(6) as u8;
        }
        // Splice: head of this frame, tail of another valid frame.
        _ => {
            let cut = rng.below(bytes.len() as u64) as usize;
            let spare_cut = rng.below(spare.len().max(1) as u64) as usize;
            bytes.truncate(cut);
            bytes.extend_from_slice(&spare[spare_cut.min(spare.len())..]);
        }
    }
}

/// A codec under test: how to draw a valid value, encode it, and
/// decode a whole input (`None` is a checked rejection).
#[derive(Debug)]
pub struct Codec<T> {
    /// Draws a valid value.
    pub generate: fn(&mut SplitMix64) -> T,
    /// The value's encoding.
    pub encode: fn(&T) -> Vec<u8>,
    /// Decodes bytes.
    pub decode: fn(&[u8]) -> Option<T>,
}

/// Fuzzes the peer wire format, [`ar_core::wire`]. Deterministic for
/// a given config.
pub fn run(cfg: &FuzzConfig) -> FuzzReport {
    let wire = Codec {
        generate: gen_message,
        encode: |m| wire::encode(m).to_vec(),
        decode: |b| wire::decode(b).ok(),
    };
    run_codec(&wire, cfg)
}

/// Fuzzes `codec`. Deterministic for a given config.
pub fn run_codec<T: PartialEq + std::fmt::Debug>(codec: &Codec<T>, cfg: &FuzzConfig) -> FuzzReport {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut report = FuzzReport::default();
    // catch_unwind prints each panic through the global hook before
    // unwinding; silence it for the duration so a fuzzing run's output
    // stays readable, then restore.
    let saved_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for iteration in 0..cfg.iterations {
        let base = (codec.generate)(&mut rng);
        let spare = (codec.encode)(&(codec.generate)(&mut rng));
        let mut bytes = (codec.encode)(&base);
        let mutations = if cfg.max_mutations == 0 {
            0
        } else {
            rng.below(u64::from(cfg.max_mutations) + 1)
        };
        for _ in 0..mutations {
            mutate(&mut rng, &mut bytes, &spare);
        }
        report.iterations += 1;
        let decode = codec.decode;
        let input = bytes.clone();
        let outcome = std::panic::catch_unwind(move || decode(&input));
        match outcome {
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                report.failures.push(FuzzFailure {
                    iteration,
                    kind: "panic",
                    input_hex: hex(&bytes),
                    detail: format!("seed={:#x}: decode panicked: {detail}", cfg.seed),
                });
            }
            Ok(Some(msg)) => {
                report.accepted += 1;
                let re = (codec.encode)(&msg);
                if re != bytes {
                    let diff = re
                        .iter()
                        .zip(bytes.iter())
                        .position(|(a, b)| a != b)
                        .unwrap_or_else(|| re.len().min(bytes.len()));
                    report.failures.push(FuzzFailure {
                        iteration,
                        kind: "roundtrip",
                        input_hex: hex(&bytes),
                        detail: format!(
                            "seed={:#x}: re-encode diverges at byte {diff} \
                             (in {} bytes, out {} bytes)",
                            cfg.seed,
                            bytes.len(),
                            re.len()
                        ),
                    });
                }
                if mutations == 0 {
                    // Sanity: decode(encode(m)) must equal m for valid
                    // frames — byte equality above already implies it,
                    // but assert the semantic level too.
                    debug_assert_eq!(msg, base);
                }
            }
            Ok(None) => {
                report.rejected += 1;
                if mutations == 0 {
                    report.failures.push(FuzzFailure {
                        iteration,
                        kind: "valid-rejected",
                        input_hex: hex(&bytes),
                        detail: format!("seed={:#x}: unmutated valid frame was rejected", cfg.seed),
                    });
                }
            }
        }
    }
    std::panic::set_hook(saved_hook);
    report
}

/// Renders a fuzz report as the JSON object the CLI emits.
pub fn report_to_json(cfg: &FuzzConfig, report: &FuzzReport) -> String {
    use ar_telemetry::json::JsonWriter;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("seed");
    w.num_u64(cfg.seed);
    w.key("iterations");
    w.num_u64(report.iterations);
    w.key("accepted");
    w.num_u64(report.accepted);
    w.key("rejected");
    w.num_u64(report.rejected);
    w.key("green");
    w.bool(report.is_green());
    w.key("failures");
    w.begin_array();
    for f in &report.failures {
        w.begin_object();
        w.key("iteration");
        w.num_u64(f.iteration);
        w.key("kind");
        w.str(f.kind);
        w.key("detail");
        w.str(&f.detail);
        w.key("input_hex");
        w.str(&f.input_hex);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn valid_frames_always_roundtrip() {
        let cfg = FuzzConfig {
            seed: 7,
            iterations: 500,
            max_mutations: 0,
        };
        let report = run(&cfg);
        assert!(report.is_green(), "{:?}", report.failures);
        assert_eq!(report.accepted, 500);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn mutated_frames_never_panic_and_roundtrip_on_accept() {
        let report = run(&FuzzConfig {
            seed: 0xdead_beef,
            iterations: 5_000,
            max_mutations: 3,
        });
        assert!(report.is_green(), "{:?}", report.failures);
        // The mutation engine must actually exercise both outcomes.
        assert!(report.accepted > 0, "no input was ever accepted");
        assert!(report.rejected > 0, "no input was ever rejected");
    }

    #[test]
    fn fuzzing_is_reproducible() {
        let cfg = FuzzConfig {
            seed: 99,
            iterations: 300,
            max_mutations: 2,
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.rejected, b.rejected);
    }
}
