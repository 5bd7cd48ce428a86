//! The client library: connect to a daemon, join groups, multicast,
//! receive ordered messages and membership notifications.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

use ar_core::ServiceType;
use bytes::Bytes;

use crate::daemon::{Command, CommandTx};
use crate::proto::{MemberId, MAX_GROUPS, MAX_NAME};

/// Default capacity of a client's event queue. A caller that stops
/// draining cannot grow daemon memory past this bound; further events
/// are dropped and counted (see [`DaemonClient::dropped_events`]).
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Events a client receives from its daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// A totally ordered message addressed to one of the client's
    /// groups (or to the client directly).
    Message {
        /// The sending client.
        sender: MemberId,
        /// The groups the message was addressed to.
        groups: Vec<String>,
        /// The delivery service it was sent with.
        service: ServiceType,
        /// The ring sequence number the message was ordered at (the
        /// position in the total order; bundled messages share it).
        ring_seq: u64,
        /// The sender's per-publisher sequence stamp, or 0 when the
        /// sender does not stamp (see [`Envelope::Data`]'s field).
        ///
        /// [`Envelope::Data`]: crate::Envelope::Data
        stamp: u64,
        /// The application payload.
        payload: Bytes,
    },
    /// The membership of a group the client belongs to changed.
    Membership {
        /// The group whose membership changed.
        group: String,
        /// The complete new membership, in canonical order.
        members: Vec<MemberId>,
    },
    /// The set of connected daemons changed (ring configuration
    /// change).
    NetworkChange {
        /// Daemons in the new regular configuration.
        daemons: Vec<ar_core::ParticipantId>,
    },
    /// One of this client's own multicasts reached Agreed order (it
    /// was applied at its daemon). Sent only to service-tier sessions
    /// (`connect_service`: the `ar-svc` tier replenishes publish
    /// credits from it); a client's own messages are ordered
    /// in submission order, so a FIFO count correlates acks to sends.
    Ordered {
        /// The ring sequence number the message was ordered at.
        ring_seq: u64,
        /// The stamp the message carried (0 when unstamped). With
        /// several ring shards per daemon, acks from different shards
        /// interleave arbitrarily; the stamp lets the service tier
        /// credit the right in-flight publish instead of assuming FIFO.
        stamp: u64,
    },
}

/// Errors from client operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The requested name is already connected at this daemon.
    DuplicateName,
    /// The name is empty or longer than [`MAX_NAME`].
    InvalidName,
    /// Too many groups for one multicast (max [`MAX_GROUPS`]).
    TooManyGroups,
    /// A group name is empty or longer than [`MAX_NAME`].
    InvalidGroup,
    /// The daemon has shut down.
    DaemonDown,
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::DuplicateName => f.write_str("client name already in use"),
            ClientError::InvalidName => write!(f, "client name must be 1..={MAX_NAME} bytes"),
            ClientError::TooManyGroups => write!(f, "at most {MAX_GROUPS} groups per message"),
            ClientError::InvalidGroup => write!(f, "group name must be 1..={MAX_NAME} bytes"),
            ClientError::DaemonDown => f.write_str("daemon has shut down"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connected client session.
///
/// Dropping the connection leaves all joined groups (via the total
/// order) and unregisters from the daemon.
#[derive(Debug)]
pub struct DaemonClient {
    pub(crate) me: MemberId,
    pub(crate) cmd_tx: CommandTx,
    pub(crate) events: Receiver<ClientEvent>,
    /// Events in `events` not yet taken: the daemon counts up before
    /// each send and refuses an event at the queue's capacity; `recv`
    /// and `drain` count down.
    pub(crate) queued: Arc<AtomicUsize>,
    /// Events the daemon dropped because this client's bounded queue
    /// was full (shared with the daemon's session entry).
    pub(crate) dropped: Arc<AtomicU64>,
}

impl DaemonClient {
    /// This client's globally unique identifier.
    pub fn member_id(&self) -> &MemberId {
        &self.me
    }

    /// Events the daemon dropped because this client's event queue was
    /// full (the queue is bounded so a stalled caller cannot grow
    /// daemon memory without bound).
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The client's private name at its daemon.
    pub fn name(&self) -> &str {
        &self.me.client
    }

    fn check_group(group: &str) -> Result<(), ClientError> {
        if group.is_empty() || group.len() > MAX_NAME {
            return Err(ClientError::InvalidGroup);
        }
        Ok(())
    }

    /// Joins a group; the membership change is totally ordered, and a
    /// [`ClientEvent::Membership`] arrives once it takes effect.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::InvalidGroup`] or
    /// [`ClientError::DaemonDown`].
    pub fn join(&self, group: &str) -> Result<(), ClientError> {
        Self::check_group(group)?;
        self.cmd_tx.send(Command::Join {
            client: self.me.client.clone(),
            group: group.to_string(),
        })
    }

    /// Leaves a group.
    ///
    /// # Errors
    ///
    /// As for [`join`](Self::join).
    pub fn leave(&self, group: &str) -> Result<(), ClientError> {
        Self::check_group(group)?;
        self.cmd_tx.send(Command::Leave {
            client: self.me.client.clone(),
            group: group.to_string(),
        })
    }

    /// Multicasts `payload` to every member of every group in `groups`
    /// with the requested service. Open-group semantics: the sender
    /// need not be a member. Multi-group multicast: each recipient
    /// receives the message exactly once, at a single position in the
    /// total order, even if it belongs to several target groups.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::TooManyGroups`],
    /// [`ClientError::InvalidGroup`], or [`ClientError::DaemonDown`].
    pub fn multicast(
        &self,
        groups: &[&str],
        service: ServiceType,
        payload: Bytes,
    ) -> Result<(), ClientError> {
        self.multicast_stamped(groups, service, 0, payload)
    }

    /// [`multicast`](Self::multicast) carrying a per-publisher sequence
    /// stamp. The stamp travels in the ordered envelope and comes back
    /// on every recipient's [`ClientEvent::Message`] and the sender's
    /// [`ClientEvent::Ordered`]; the service tier uses it to keep a
    /// publisher's messages FIFO across ring shards. Stamp 0 means
    /// "unstamped" (plain multicast behaviour).
    ///
    /// # Errors
    ///
    /// As for [`multicast`](Self::multicast).
    pub fn multicast_stamped(
        &self,
        groups: &[&str],
        service: ServiceType,
        stamp: u64,
        payload: Bytes,
    ) -> Result<(), ClientError> {
        if groups.len() > MAX_GROUPS {
            return Err(ClientError::TooManyGroups);
        }
        for g in groups {
            Self::check_group(g)?;
        }
        self.cmd_tx.send(Command::Multicast {
            client: self.me.client.clone(),
            groups: groups.iter().map(|g| g.to_string()).collect(),
            service,
            stamp,
            payload,
        })
    }

    /// Receives the next event, waiting up to `timeout`.
    pub fn recv(&self, timeout: Duration) -> Option<ClientEvent> {
        let ev = self.events.recv_timeout(timeout).ok()?;
        self.queued.fetch_sub(1, Ordering::Relaxed);
        Some(ev)
    }

    /// Drains any already-queued events without waiting.
    pub fn drain(&self) -> Vec<ClientEvent> {
        let evs: Vec<ClientEvent> = self.events.try_iter().collect();
        self.queued.fetch_sub(evs.len(), Ordering::Relaxed);
        evs
    }
}

impl Drop for DaemonClient {
    fn drop(&mut self) {
        let _ = self.cmd_tx.send(Command::Unregister {
            client: self.me.client.clone(),
        });
    }
}
