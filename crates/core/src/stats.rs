//! Protocol statistics counters.

/// Counters maintained by a participant across its lifetime.
///
/// All counters are cumulative; callers that want per-interval rates
/// should snapshot and diff.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParticipantStats {
    /// Tokens handled (duplicates excluded).
    pub tokens_handled: u64,
    /// Duplicate or stale tokens dropped.
    pub tokens_dropped: u64,
    /// Tokens retransmitted after a retransmission timeout.
    pub tokens_retransmitted: u64,
    /// New data messages initiated by this participant.
    pub messages_initiated: u64,
    /// Of those, messages multicast during the pre-token phase (the
    /// overflow beyond the accelerated window; every send under the
    /// original protocol).
    pub messages_sent_before_token: u64,
    /// Of those, messages multicast during the post-token phase.
    pub messages_sent_after_token: u64,
    /// Retransmissions answered by this participant.
    pub retransmissions_sent: u64,
    /// Retransmission requests this participant placed on the token.
    pub retransmissions_requested: u64,
    /// Data messages received and buffered (duplicates excluded).
    pub messages_received: u64,
    /// Duplicate data messages dropped.
    pub duplicates_dropped: u64,
    /// Data messages from foreign (old or unknown) rings dropped.
    pub foreign_dropped: u64,
    /// Messages delivered to the application.
    pub messages_delivered: u64,
    /// Of those, messages delivered with Safe service.
    pub safe_delivered: u64,
    /// Messages discarded after becoming stable.
    pub messages_discarded: u64,
    /// Configuration changes delivered (regular configurations
    /// installed).
    pub config_changes: u64,
    /// Membership gather phases entered.
    pub gathers_started: u64,
    /// Timeout policies installed by the adaptive controller.
    pub timeouts_adapted: u64,
    /// Members quarantined by flap damping.
    pub members_quarantined: u64,
    /// Members reinstated after their flap penalty decayed.
    pub members_reinstated: u64,
    /// Join messages suppressed because the sender was quarantined.
    pub joins_suppressed: u64,
    /// AIMD multiplicative shrinks of the effective accelerated window.
    pub accel_window_shrinks: u64,
    /// AIMD additive recoveries of the effective accelerated window.
    pub accel_window_grows: u64,
    /// Recovery retransmission bursts truncated by the burst limit.
    pub recovery_burst_truncated: u64,
    /// New-ring data messages dropped during recovery because the
    /// pending buffer hit its limit.
    pub recovery_pending_dropped: u64,
}

impl ParticipantStats {
    /// Creates zeroed counters.
    pub fn new() -> ParticipantStats {
        ParticipantStats::default()
    }

    /// The paper's headline accelerated-ring invariant: every initiated
    /// message is multicast exactly once, either before or after the
    /// token.
    pub fn send_split_consistent(&self) -> bool {
        self.messages_initiated == self.messages_sent_before_token + self.messages_sent_after_token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed() {
        let s = ParticipantStats::new();
        assert_eq!(s.tokens_handled, 0);
        assert_eq!(s.messages_delivered, 0);
        assert_eq!(s, ParticipantStats::default());
        assert!(s.send_split_consistent());
    }

    #[test]
    fn send_split_invariant_detects_mismatch() {
        let mut s = ParticipantStats::new();
        s.messages_initiated = 5;
        s.messages_sent_before_token = 3;
        s.messages_sent_after_token = 2;
        assert!(s.send_split_consistent());
        s.messages_sent_after_token = 1;
        assert!(!s.send_split_consistent());
    }
}
