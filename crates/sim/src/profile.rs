//! Implementation profiles: CPU and header cost models for the paper's
//! three implementations.
//!
//! The paper evaluates the protocols in a *library-based prototype*, a
//! *daemon-based prototype*, and the full *Spread toolkit*. The protocol
//! logic is identical; what differs is per-message overhead:
//!
//! * **Spread** adds large headers (descriptive group and sender names:
//!   the paper's 1350-byte payloads + ~150 bytes of headers fill a
//!   1500-byte MTU) and expensive delivery (group-name analysis, routing
//!   to the right clients over IPC).
//! * The **daemon** prototype keeps the client/daemon architecture (IPC
//!   hop on submission and delivery) but none of Spread's feature
//!   overhead.
//! * The **library** prototype runs the protocol in-process with minimal
//!   header and delivery cost.
//!
//! On a 1-gigabit network processing is fast relative to the wire, so
//! the three profiles perform nearly identically; on 10-gigabit the
//! processing differences dominate and the tiers separate — exactly the
//! paper's Figures 1–6. The constants below were calibrated against the
//! paper's reported maximum throughputs (see `EXPERIMENTS.md`).

use crate::time::SimDuration;

/// Cost model for one implementation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImplProfile {
    /// Human-readable name ("library", "daemon", "spread").
    pub name: &'static str,
    /// Protocol + implementation header bytes added to each data
    /// message's payload on the wire.
    pub data_header_bytes: usize,
    /// Wire size of a token with an empty rtr list; each rtr entry adds
    /// [`Self::RTR_ENTRY_BYTES`].
    pub token_base_bytes: usize,
    /// Fixed CPU cost to receive + protocol-process one data message.
    pub proc_data_fixed: SimDuration,
    /// Per-payload-byte CPU cost of receiving a data message (checksum,
    /// copies).
    pub proc_data_per_kb: SimDuration,
    /// CPU cost to receive + process a token.
    pub proc_token: SimDuration,
    /// CPU cost to hand one data message to the NIC (syscall, copy).
    pub send_data_fixed: SimDuration,
    /// Per-payload-byte CPU cost of sending.
    pub send_data_per_kb: SimDuration,
    /// CPU cost to send the token.
    pub send_token: SimDuration,
    /// Fixed CPU cost to deliver one message to the application /
    /// client (for Spread: group-name analysis + IPC write).
    pub deliver_fixed: SimDuration,
    /// Per-payload-byte delivery cost (IPC copy).
    pub deliver_per_kb: SimDuration,
    /// CPU cost charged when a client submits a message to the daemon
    /// (IPC read); zero for the library profile.
    pub submit_cost: SimDuration,
}

impl ImplProfile {
    /// Wire bytes added per retransmission-request entry on a token.
    pub const RTR_ENTRY_BYTES: usize = 8;

    /// The library-based prototype: protocol in-process, minimal
    /// overhead.
    pub fn library() -> ImplProfile {
        ImplProfile {
            name: "library",
            data_header_bytes: 40,
            token_base_bytes: 70,
            proc_data_fixed: SimDuration::from_nanos(900),
            proc_data_per_kb: SimDuration::from_nanos(600),
            proc_token: SimDuration::from_nanos(2_200),
            send_data_fixed: SimDuration::from_nanos(700),
            send_data_per_kb: SimDuration::from_nanos(320),
            send_token: SimDuration::from_nanos(900),
            deliver_fixed: SimDuration::from_nanos(200),
            deliver_per_kb: SimDuration::from_nanos(350),
            submit_cost: SimDuration::from_nanos(100),
        }
    }

    /// The daemon-based prototype: client/daemon architecture with IPC,
    /// but no Spread feature overhead.
    pub fn daemon() -> ImplProfile {
        ImplProfile {
            name: "daemon",
            data_header_bytes: 60,
            token_base_bytes: 70,
            proc_data_fixed: SimDuration::from_nanos(1_200),
            proc_data_per_kb: SimDuration::from_nanos(700),
            proc_token: SimDuration::from_nanos(2_500),
            send_data_fixed: SimDuration::from_nanos(800),
            send_data_per_kb: SimDuration::from_nanos(340),
            send_token: SimDuration::from_nanos(1_000),
            deliver_fixed: SimDuration::from_nanos(520),
            deliver_per_kb: SimDuration::from_nanos(490),
            submit_cost: SimDuration::from_nanos(600),
        }
    }

    /// The production Spread toolkit: large headers, expensive delivery
    /// (group-name analysis, many-client routing), costlier processing.
    pub fn spread() -> ImplProfile {
        ImplProfile {
            name: "spread",
            data_header_bytes: 150,
            token_base_bytes: 110,
            proc_data_fixed: SimDuration::from_nanos(2_200),
            proc_data_per_kb: SimDuration::from_nanos(750),
            proc_token: SimDuration::from_nanos(3_500),
            send_data_fixed: SimDuration::from_nanos(1_100),
            send_data_per_kb: SimDuration::from_nanos(380),
            send_token: SimDuration::from_nanos(1_200),
            deliver_fixed: SimDuration::from_nanos(960),
            deliver_per_kb: SimDuration::from_nanos(460),
            submit_cost: SimDuration::from_nanos(900),
        }
    }

    /// All three profiles, in the order the paper's figures list them.
    pub fn all() -> [ImplProfile; 3] {
        [Self::library(), Self::daemon(), Self::spread()]
    }

    /// Wire size of a data message with `payload_len` payload bytes.
    pub fn data_wire_bytes(&self, payload_len: usize) -> usize {
        self.data_header_bytes + payload_len
    }

    /// Wire size of a token carrying `rtr_len` retransmission requests.
    pub fn token_wire_bytes(&self, rtr_len: usize) -> usize {
        self.token_base_bytes + rtr_len * Self::RTR_ENTRY_BYTES
    }

    /// CPU cost to receive + process a data message of `payload_len`
    /// bytes.
    pub fn proc_data(&self, payload_len: usize) -> SimDuration {
        self.proc_data_fixed + per_kb(self.proc_data_per_kb, payload_len)
    }

    /// CPU cost to send a data message of `payload_len` bytes.
    pub fn send_data(&self, payload_len: usize) -> SimDuration {
        self.send_data_fixed + per_kb(self.send_data_per_kb, payload_len)
    }

    /// CPU cost to deliver a message of `payload_len` bytes to the
    /// application.
    pub fn deliver(&self, payload_len: usize) -> SimDuration {
        self.deliver_fixed + per_kb(self.deliver_per_kb, payload_len)
    }
}

fn per_kb(rate: SimDuration, bytes: usize) -> SimDuration {
    SimDuration::from_nanos(rate.as_nanos() * bytes as u64 / 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_by_overhead() {
        let [lib, dmn, spr] = ImplProfile::all();
        assert!(lib.proc_data(1350) < dmn.proc_data(1350));
        assert!(dmn.proc_data(1350) < spr.proc_data(1350));
        assert!(lib.deliver(1350) < dmn.deliver(1350));
        assert!(dmn.deliver(1350) < spr.deliver(1350));
        assert!(lib.data_header_bytes < spr.data_header_bytes);
    }

    #[test]
    fn spread_fills_standard_mtu() {
        // 1350-byte payload + Spread headers = 1500-byte MTU (paper §IV-A).
        assert_eq!(ImplProfile::spread().data_wire_bytes(1350), 1500);
    }

    #[test]
    fn per_byte_costs_scale() {
        let p = ImplProfile::library();
        assert!(p.proc_data(8850) > p.proc_data(1350));
        let delta = p.proc_data(2048).as_nanos() - p.proc_data_fixed.as_nanos();
        assert_eq!(delta, p.proc_data_per_kb.as_nanos() * 2);
    }

    #[test]
    fn token_wire_size_grows_with_rtr() {
        let p = ImplProfile::daemon();
        assert_eq!(
            p.token_wire_bytes(10),
            p.token_base_bytes + 10 * ImplProfile::RTR_ENTRY_BYTES
        );
    }

    #[test]
    fn receiver_cpu_budget_fits_1g_but_not_10g() {
        // The calibration invariant behind the paper's shapes: at 1 Gbps
        // a 1350-byte message takes ~11.4us on the wire, which exceeds
        // every profile's per-message receive+deliver CPU (network-
        // bound); at 10 Gbps it takes ~1.14us, less than every profile's
        // CPU (processing-bound).
        let wire_1g = SimDuration::serialization(1500, 1_000_000_000);
        let wire_10g = SimDuration::serialization(1500, 10_000_000_000);
        for p in ImplProfile::all() {
            let cpu = p.proc_data(1350) + p.deliver(1350);
            assert!(cpu < wire_1g, "{} is CPU-bound on 1G", p.name);
            assert!(cpu > wire_10g, "{} is network-bound on 10G", p.name);
        }
    }
}
