//! One process, N independent token rings: the sharded daemon.
//!
//! [`ShardedDaemon`] owns N [`DaemonHandle`]s — one per ring shard —
//! plus the [`ShardMap`] that places each group on a shard. Every
//! shard is a full daemon: its own protocol participant, datapath
//! transport, packer, group table, and (when configured) durable-log
//! directory. Nothing is ordered *across* shards here; the `ar-svc`
//! tier keeps a local publisher's FIFO across shards at ingress, by
//! submitting a publish to another shard only once the publisher's
//! earlier ones are ordered (the stamps the daemons carry through
//! their rings tie each `Ordered` ack to its publish).
//!
//! A service tier registers each session on every shard with the same
//! [`ar_net::Waker`] ([`DaemonConnector::connect_service`]), so all N
//! ring threads wake its one polling thread.
//!
//! All shards share one [`TelemetryHub`](crate::TelemetryHub) when the
//! caller passes the same hub in each shard's config: the spawn hook
//! fills in [`DaemonConfig::shard`], so each ring's series are
//! labelled `shard="k"` and its stats land in a per-shard slot.

use std::io;

use ar_core::{Participant, ParticipantId};
use ar_net::Transport;

use crate::daemon::{spawn_daemon_with, DaemonConfig, DaemonConnector, DaemonHandle};
use crate::shard::ShardMap;

/// N ring shards behind one facade.
#[derive(Debug)]
pub struct ShardedDaemon {
    map: ShardMap,
    shards: Vec<DaemonHandle>,
}

impl ShardedDaemon {
    /// Spawns `rings` daemon threads. `make(k)` supplies shard `k`'s
    /// participant, transport, and config; the hook lets every shard
    /// differ where it must (transport endpoints, ring ids) while this
    /// constructor enforces what must agree and fills in the
    /// shard-specific plumbing:
    ///
    /// * every shard must present the same [`ParticipantId`] — a
    ///   client's [`MemberId`](crate::MemberId) has to mean the same
    ///   publisher on every ring;
    /// * [`DaemonConfig::shard`] is set to `k` (shard-labelled
    ///   telemetry);
    /// * with more than one ring, a configured durable log is
    ///   redirected into the per-shard subdirectory `<dir>/shard-<k>`,
    ///   so N rings never interleave records in one segment file; a
    ///   single ring uses the directory as-is (a 1-ring sharded daemon
    ///   is exactly a plain daemon, logs included).
    ///
    /// # Panics
    ///
    /// Panics if `rings` is zero or the participants disagree on their
    /// id.
    pub fn spawn<T, F>(rings: usize, mut make: F) -> ShardedDaemon
    where
        T: Transport + Send + 'static,
        F: FnMut(usize) -> (Participant, T, DaemonConfig),
    {
        assert!(rings > 0, "a sharded daemon needs at least one ring");
        let map = ShardMap::new(rings);
        let mut shards = Vec::with_capacity(rings);
        let mut pid: Option<ParticipantId> = None;
        for k in 0..rings {
            let (part, transport, mut config) = make(k);
            match pid {
                None => pid = Some(part.pid()),
                Some(p) => assert_eq!(
                    p,
                    part.pid(),
                    "all shards of one daemon must share a participant id"
                ),
            }
            config.shard = Some(k);
            if rings > 1 {
                if let Some(log) = &mut config.log {
                    log.dir = log.dir.join(format!("shard-{k}"));
                }
            }
            shards.push(spawn_daemon_with(part, transport, config));
        }
        ShardedDaemon { map, shards }
    }

    /// Number of ring shards.
    pub fn rings(&self) -> usize {
        self.shards.len()
    }

    /// The participant id every shard presents.
    pub fn pid(&self) -> ParticipantId {
        self.shards[0].pid()
    }

    /// The group→shard placement.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The shard that orders `group` (shorthand for the map).
    pub fn shard_of(&self, group: &str) -> usize {
        self.map.shard_of(group)
    }

    /// All shard handles, index = shard.
    pub fn shards(&self) -> &[DaemonHandle] {
        &self.shards
    }

    /// One connector per shard, index = shard (what the service tier
    /// hands to its multiplexer thread).
    pub fn connectors(&self) -> Vec<DaemonConnector> {
        self.shards.iter().map(DaemonHandle::connector).collect()
    }

    /// Stops every shard, returning the first error (all shards are
    /// joined regardless).
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error any shard's loop hit.
    pub fn shutdown(self) -> io::Result<()> {
        let mut first_err = None;
        for shard in self.shards {
            if let Err(e) = shard.shutdown() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientEvent;
    use ar_core::{ProtocolConfig, RingId, ServiceType};
    use ar_net::LoopbackNet;
    use bytes::Bytes;
    use std::time::{Duration, Instant};

    fn spawn_two_shards() -> ShardedDaemon {
        // Each shard is its own single-member ring on its own loopback
        // network, all presenting participant 0.
        ShardedDaemon::spawn(2, |k| {
            let pid = ParticipantId::new(0);
            let net = LoopbackNet::new();
            let part = Participant::new(
                pid,
                ProtocolConfig::accelerated(),
                RingId::new(pid, k as u64 + 1),
                vec![pid],
            )
            .unwrap();
            (part, net.endpoint(pid), DaemonConfig::default())
        })
    }

    /// Two group names that land on different shards of a 2-ring map.
    fn split_groups(map: &ShardMap) -> (String, String) {
        let a = "group-0".to_string();
        let sa = map.shard_of(&a);
        for i in 1..1000 {
            let b = format!("group-{i}");
            if map.shard_of(&b) != sa {
                return (a, b);
            }
        }
        panic!("no group found on the other shard");
    }

    #[test]
    fn groups_route_to_their_own_rings() {
        let sharded = spawn_two_shards();
        let (ga, gb) = split_groups(sharded.shard_map());
        let (sa, sb) = (sharded.shard_of(&ga), sharded.shard_of(&gb));
        assert_ne!(sa, sb);

        // Subscribe on the owning shard; publish through the same
        // shard; the message comes back ordered by that ring.
        let deadline = Instant::now() + Duration::from_secs(30);
        for (shard, group) in [(sa, &ga), (sb, &gb)] {
            let client = sharded.shards()[shard].connect("sub").unwrap();
            client.join(group).unwrap();
            client
                .multicast(&[group], ServiceType::Agreed, Bytes::from_static(b"hi"))
                .unwrap();
            let mut got = false;
            while !got && Instant::now() < deadline {
                if let Some(ClientEvent::Message {
                    groups, payload, ..
                }) = client.recv(Duration::from_millis(50))
                {
                    assert_eq!(groups, vec![group.clone()]);
                    assert_eq!(payload, Bytes::from_static(b"hi"));
                    got = true;
                }
            }
            assert!(got, "shard {shard} never delivered");
        }
        sharded.shutdown().unwrap();
    }

    #[test]
    #[should_panic(expected = "share a participant id")]
    fn mismatched_pids_are_rejected() {
        let _ = ShardedDaemon::spawn(2, |k| {
            let pid = ParticipantId::new(k as u16);
            let net = LoopbackNet::new();
            let part = Participant::new(
                pid,
                ProtocolConfig::accelerated(),
                RingId::new(pid, 1),
                vec![pid],
            )
            .unwrap();
            (part, net.endpoint(pid), DaemonConfig::default())
        });
    }
}
