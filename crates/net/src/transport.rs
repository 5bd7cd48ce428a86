//! The transport abstraction the runtime drives the protocol over.

use std::io;
use std::time::Duration;

use ar_core::{Message, ParticipantId};

use crate::poll::WakeReceiver;

/// A bidirectional transport for one protocol participant.
///
/// Implementations maintain **two logical channels** — one for token
/// (and commit-token) messages, one for data (and join) messages — so
/// the receiver can honor the protocol's priority preference
/// (Section III-C/III-D of the paper: separate sockets and ports).
pub trait Transport {
    /// This endpoint's participant identifier.
    fn local_pid(&self) -> ParticipantId;

    /// Sends a message to a single peer on the appropriate channel
    /// (token channel for `Token`/`Commit`, data channel otherwise).
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the underlying send fails; transient
    /// full-buffer conditions should be handled inside the transport
    /// (messages may be dropped — the protocol recovers).
    fn send_to(&mut self, to: ParticipantId, msg: &Message) -> io::Result<()>;

    /// Multicasts a message to every peer (logical multicast; may be
    /// implemented as unicast fanout).
    ///
    /// # Errors
    ///
    /// As for [`send_to`](Self::send_to).
    fn multicast(&mut self, msg: &Message) -> io::Result<()>;

    /// Receives the next message, preferring the token channel when
    /// `prefer_token` is true (and the data channel otherwise), waiting
    /// up to `timeout`. Returns `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the underlying receive fails for a
    /// reason other than timeout.
    fn recv(&mut self, prefer_token: bool, timeout: Duration) -> io::Result<Option<Message>>;

    /// Receives a batch: waits up to `timeout` for the first message,
    /// then drains whatever else is already queued — up to `max`
    /// messages total, appended to `out` — without waiting further.
    /// Messages are appended in channel-priority order per sweep
    /// (preferred channel first), so a caller that processes the batch
    /// front-to-back preserves the priority-method semantics. Returns
    /// the number of messages appended (0 on timeout).
    ///
    /// The default implementation receives a single message; batching
    /// transports override this to drain their ready queue in O(1)
    /// syscalls.
    ///
    /// # Errors
    ///
    /// As for [`recv`](Self::recv).
    fn recv_batch(
        &mut self,
        prefer_token: bool,
        timeout: Duration,
        max: usize,
        out: &mut Vec<Message>,
    ) -> io::Result<usize> {
        if max == 0 {
            return Ok(0);
        }
        match self.recv(prefer_token, timeout)? {
            Some(m) => {
                out.push(m);
                Ok(1)
            }
            None => Ok(0),
        }
    }

    /// Opens a send batch: until [`end_batch`](Self::end_batch), the
    /// transport may defer sends and coalesce them into batched
    /// syscalls. Purely a performance hint — non-batching transports
    /// ignore it. Calls do not nest.
    fn begin_batch(&mut self) {}

    /// Closes a send batch and flushes everything deferred since
    /// [`begin_batch`](Self::begin_batch).
    ///
    /// # Errors
    ///
    /// Surfaces the first hard send error encountered while flushing
    /// (remaining datagrams are still attempted first).
    fn end_batch(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Hands the transport the consumer half of a [`wake_pair`], so a
    /// [`Waker::wake`] from another thread ends a blocked
    /// [`recv_batch`](Self::recv_batch) early (it then returns 0).
    /// Returns false when the transport cannot wait on it; the default
    /// declines, and the caller must then not rely on being woken.
    ///
    /// [`wake_pair`]: crate::wake_pair
    /// [`Waker::wake`]: crate::Waker::wake
    fn attach_wake(&mut self, wake: WakeReceiver) -> bool {
        let _ = wake;
        false
    }
}

/// Routes a message kind to the channel it travels on.
///
/// Token, commit-token and hold-cancel messages use the token channel;
/// data and join messages use the data channel.
pub fn is_token_channel(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Token(_) | Message::Commit(_) | Message::HoldCancel { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_core::{CommitToken, JoinMessage, RingId, Seq, Token};

    #[test]
    fn channel_routing() {
        let ring = RingId::default();
        assert!(is_token_channel(&Message::Token(Token::initial(
            ring,
            Seq::ZERO
        ))));
        assert!(is_token_channel(&Message::Commit(CommitToken::new(
            ring,
            &[ParticipantId::new(0)]
        ))));
        assert!(is_token_channel(&Message::HoldCancel {
            ring_id: ring,
            pid: ParticipantId::new(1),
        }));
        assert!(!is_token_channel(&Message::Join(JoinMessage {
            sender: ParticipantId::new(0),
            proc_set: vec![],
            fail_set: vec![],
            ring_seq: 0,
        })));
    }
}
