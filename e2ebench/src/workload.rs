//! The four workloads. Each is three daemons on the Accelerated
//! protocol with `ard`'s default flow configuration; sizes come from
//! probe runs on two cores.

use ar_core::ServiceType;

use crate::ring::DAEMONS;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Publishes fall due on a schedule whatever the system does;
    /// `rate` is publishes per second over all clients.
    Open { rate: f64 },
    /// Every client publishes whenever it holds a publish credit and
    /// has fewer than its credit allowance still undelivered.
    Closed,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Ring shards per daemon (`ard --rings`).
    pub rings: usize,
    /// `ard --log-dir <dir> --fsync every:64`.
    pub durable: bool,
    pub clients: usize,
    /// Client `k` joins rooms `k % rooms` and `(k + 1) % rooms`.
    pub rooms: usize,
    pub load: Load,
    pub payload: usize,
    pub service: ServiceType,
    /// A delivery later than this misses `within_limit_ratio`.
    pub limit_us: u64,
    /// The traced pass records spans for every `trace_stride`-th
    /// publish of a publisher, about a thousand a second.
    pub trace_stride: u32,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady_low",
        why: "1000 publish/s open loop: work per message is negligible, so latency is waiting (svc poll timeout, channel hop, token) and CPU is the idle token spin",
        rings: 1,
        durable: false,
        clients: 3,
        rooms: 1,
        load: Load::Open { rate: 1_000.0 },
        payload: 128,
        service: ServiceType::Agreed,
        limit_us: 5_000,
        trace_stride: 1,
    },
    Workload {
        name: "saturate",
        why: "closed loop, each client keeping 64 publishes undelivered: per-message CPU in every layer sets the delivered rate and the waiting floors vanish",
        rings: 1,
        durable: false,
        clients: 3,
        rooms: 1,
        load: Load::Closed,
        payload: 128,
        service: ServiceType::Agreed,
        limit_us: 20_000,
        trace_stride: 64,
    },
    Workload {
        name: "durable_safe",
        why: "steady_low's 1000 publish/s as Safe with --log-dir --fsync every:64: puts ar-log append/fsync and Safe's second rotation on the path the other three bypass",
        rings: 1,
        durable: true,
        clients: 3,
        rooms: 1,
        load: Load::Open { rate: 1_000.0 },
        payload: 512,
        service: ServiceType::Safe,
        limit_us: 10_000,
        trace_stride: 1,
    },
    Workload {
        name: "fanout_sharded",
        why: "24 clients over 8 rooms on --rings 2, publishers alternating rooms: the svc multiplexer, group fan-out, ShardedDaemon and HoldBack do the work; the 1-ring workloads bypass HoldBack",
        rings: 2,
        durable: false,
        clients: 24,
        rooms: 8,
        load: Load::Open { rate: 4_000.0 },
        payload: 256,
        service: ServiceType::Agreed,
        limit_us: 5_000,
        trace_stride: 4,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn room_name(&self, room: usize) -> String {
        if self.rooms == 1 {
            "g0".to_string()
        } else {
            format!("room-{room}")
        }
    }

    /// The rooms client `k` joins (and publishes to, in turn).
    pub fn rooms_of(&self, client: usize) -> Vec<usize> {
        let mut rooms = vec![client % self.rooms, (client + 1) % self.rooms];
        rooms.dedup();
        rooms
    }

    /// How many clients have joined `room`: the deliveries one publish
    /// to it owes.
    pub fn members(&self, room: usize) -> usize {
        (0..self.clients)
            .filter(|&c| self.rooms_of(c).contains(&room))
            .count()
    }

    /// One connection per daemon is the least a ring admits; clients
    /// beyond that spread evenly.
    pub fn daemon_of(&self, client: usize) -> usize {
        client % DAEMONS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_room_workloads_owe_one_delivery_per_client() {
        for w in WORKLOADS.iter().filter(|w| w.rooms == 1) {
            assert_eq!(w.rooms_of(2), vec![0]);
            assert_eq!(w.members(0), w.clients);
        }
    }

    #[test]
    fn fanout_rooms_have_six_members_and_every_client_two_rooms() {
        let w = Workload::by_name("fanout_sharded").unwrap();
        for room in 0..w.rooms {
            assert_eq!(w.members(room), 6);
        }
        assert_eq!(w.rooms_of(7), vec![7, 0]);
        assert_eq!(w.rooms_of(23), vec![7, 0]);
        // Eight clients on each daemon.
        for d in 0..DAEMONS {
            assert_eq!((0..w.clients).filter(|&c| w.daemon_of(c) == d).count(), 8);
        }
    }

    #[test]
    fn fanout_publishers_cross_rings() {
        // Alternating rooms only crosses rings if some client's two
        // rooms live on different shards.
        let w = Workload::by_name("fanout_sharded").unwrap();
        let map = ar_daemon::ShardMap::new(w.rings);
        let crossing = (0..w.clients)
            .filter(|&c| {
                let r = w.rooms_of(c);
                map.shard_of(&w.room_name(r[0])) != map.shard_of(&w.room_name(r[1]))
            })
            .count();
        assert!(
            crossing >= w.clients / 4,
            "only {crossing} publishers cross rings"
        );
    }
}
