//! Network configuration: link, switch, and socket-buffer parameters,
//! with presets modeling the paper's two testbeds.

use crate::time::SimDuration;

/// Parameters of the simulated switched LAN.
///
/// The topology is fixed to the paper's: `n` hosts, each connected by a
/// full-duplex link to one store-and-forward switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Link bandwidth in bits per second (both directions).
    pub link_bps: u64,
    /// One-way propagation delay per link (cable + PHY).
    pub propagation: SimDuration,
    /// Switch forwarding latency added to every frame (lookup +
    /// crossbar; the store-and-forward serialization is modeled by the
    /// links themselves).
    pub switch_latency: SimDuration,
    /// Per-output-port buffer capacity in bytes; frames arriving at a
    /// full port are dropped (tail drop).
    pub switch_port_buffer: usize,
    /// Kernel receive-buffer bytes for the data socket.
    pub data_socket_buffer: usize,
    /// Kernel receive-buffer bytes for the token socket (separate
    /// socket/port, per Section III-D of the paper).
    pub token_socket_buffer: usize,
    /// Independent per-frame loss probability (bit errors, etc.);
    /// usually zero — congestion loss is modeled by the buffers.
    pub random_loss: f64,
}

impl NetworkConfig {
    /// The paper's 1-gigabit testbed: Cisco Catalyst 2960.
    ///
    /// The 2960 has on the order of 1 MB of shared packet memory per
    /// port group; we give each output port 768 KiB.
    pub fn gigabit() -> NetworkConfig {
        NetworkConfig {
            link_bps: 1_000_000_000,
            propagation: SimDuration::from_nanos(500),
            switch_latency: SimDuration::from_micros(4),
            switch_port_buffer: 768 * 1024,
            data_socket_buffer: 2 * 1024 * 1024,
            token_socket_buffer: 256 * 1024,
            random_loss: 0.0,
        }
    }

    /// The paper's 10-gigabit testbed: Arista 7100T.
    ///
    /// Cut-through-capable, but we keep the same store-and-forward
    /// model; the 7100 family has deep buffers relative to frame time.
    pub fn ten_gigabit() -> NetworkConfig {
        NetworkConfig {
            link_bps: 10_000_000_000,
            propagation: SimDuration::from_nanos(500),
            switch_latency: SimDuration::from_micros(1),
            switch_port_buffer: 2 * 1024 * 1024,
            data_socket_buffer: 4 * 1024 * 1024,
            token_socket_buffer: 256 * 1024,
            random_loss: 0.0,
        }
    }

    /// Serialization delay of `bytes` on one of this network's links.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        SimDuration::serialization(bytes, self.link_bps)
    }

    /// Sets the random per-frame loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn with_random_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        self.random_loss = p;
        self
    }

    /// Overrides the switch port buffer size.
    #[must_use]
    pub fn with_switch_port_buffer(mut self, bytes: usize) -> Self {
        self.switch_port_buffer = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_speed() {
        let g = NetworkConfig::gigabit();
        let tg = NetworkConfig::ten_gigabit();
        assert_eq!(tg.link_bps, 10 * g.link_bps);
        assert!(tg.serialization(1500) < g.serialization(1500));
    }

    #[test]
    fn serialization_matches_link_rate() {
        let g = NetworkConfig::gigabit();
        assert_eq!(g.serialization(1500).as_nanos(), 12_000);
    }

    #[test]
    fn loss_builder_validates() {
        let g = NetworkConfig::gigabit().with_random_loss(0.01);
        assert_eq!(g.random_loss, 0.01);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_rejected() {
        let _ = NetworkConfig::gigabit().with_random_loss(1.5);
    }
}
