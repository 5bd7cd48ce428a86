//! The load generator: one thread driving every non-blocking
//! `SvcClient`, timing each delivery from the client side.
//!
//! It must not spin: three `ard`s already fill both cores of the box
//! the workloads were sized on, so the loop sweeps every client and
//! then sleeps 50 µs.
//!
//! Payload bytes 0..8 carry the time the publish was *due* (open
//! loop; a stall then charges the requests it delayed) or sent
//! (closed loop), bytes 8..12 the publisher and 12..16 its `k`, the
//! rest seeded filler that is compared on receipt.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use ar_explore::SplitMix64;
use ar_svc::{PublishError, ResumePolicy, SvcClient, SvcEvent};
use bytes::Bytes;

use crate::audit::{Audit, Verdict};
use crate::ring::Ring;
use crate::stats::Slices;
use crate::trace::{Span, Tracer, NO_PARENT};
use crate::workload::{Load, Workload};

const HEADER: usize = 16;
/// The publisher number of a set-up probe; its `k` is the room.
const PROBE: u32 = u32::MAX;
const SWEEP_SLEEP: Duration = Duration::from_micros(50);
const SETUP_TIMEOUT: Duration = Duration::from_secs(15);
/// How long an open-loop publish waits for a credit before it counts
/// as refused.
const CREDIT_WAIT: Duration = Duration::from_secs(1);

pub const WARM: u8 = 0;
pub const WINDOW: u8 = 1;
pub const DONE: u8 = 2;

fn header(due_ns: u64, publisher: u32, k: u32) -> [u8; HEADER] {
    let mut h = [0u8; HEADER];
    h[..8].copy_from_slice(&due_ns.to_le_bytes());
    h[8..12].copy_from_slice(&publisher.to_le_bytes());
    h[12..].copy_from_slice(&k.to_le_bytes());
    h
}

fn parse_header(payload: &[u8]) -> Option<(u64, u32, u32)> {
    let h = payload.get(..HEADER)?;
    Some((
        u64::from_le_bytes(h[..8].try_into().ok()?),
        u32::from_le_bytes(h[8..12].try_into().ok()?),
        u32::from_le_bytes(h[12..].try_into().ok()?),
    ))
}

fn client_name(client: usize) -> String {
    format!("c{client}")
}

/// The connected clients of one ring, ready for traffic.
pub struct Clients {
    pub conns: Vec<SvcClient>,
    /// Publish ids each client spent on probes, so a later
    /// `PublishRejected { id }` maps back to a `k`.
    probe_ids: Vec<u64>,
}

/// Connects every client, joins its rooms, waits until each has seen
/// the full membership of each of its rooms, then sends one probe per
/// room and waits until every member has it. When this returns the
/// stack delivers end to end, which is where `setup_s` stops.
pub fn connect_and_probe(ring: &Ring, wl: &Workload) -> Result<Clients, String> {
    let deadline = Instant::now() + SETUP_TIMEOUT;
    let mut conns = Vec::with_capacity(wl.clients);
    for c in 0..wl.clients {
        let addr = ring.ards[wl.daemon_of(c)].clients;
        let mut client = SvcClient::connect_tcp(addr, &client_name(c))
            .map_err(|e| format!("connect client {c} to {addr}: {e}"))?;
        // A dropped connection is a failure to count, not to paper over.
        client.set_resume_policy(ResumePolicy::disabled());
        for room in wl.rooms_of(c) {
            client
                .join(&wl.room_name(room))
                .map_err(|e| format!("client {c} join: {e}"))?;
        }
        conns.push(client);
    }
    let room_index: HashMap<String, usize> = (0..wl.rooms).map(|r| (wl.room_name(r), r)).collect();
    let pairs = || (0..wl.clients).flat_map(|c| wl.rooms_of(c).into_iter().map(move |r| (c, r)));

    // `pending` holds the (client, room) pairs still waiting.
    let wait_for = |conns: &mut Vec<SvcClient>,
                    what: &str,
                    done: &dyn Fn(&SvcEvent) -> Option<usize>|
     -> Result<(), String> {
        let mut pending: Vec<(usize, usize)> = pairs().collect();
        while !pending.is_empty() {
            for (c, client) in conns.iter_mut().enumerate() {
                client.pump().map_err(|e| format!("client {c}: {e}"))?;
                while let Some(ev) = client.poll_event() {
                    if let SvcEvent::Evicted { reason } = &ev {
                        return Err(format!("client {c} evicted during set-up: {reason}"));
                    }
                    if let Some(room) = done(&ev) {
                        pending.retain(|&p| p != (c, room));
                    }
                }
            }
            if Instant::now() > deadline {
                return Err(format!("set-up timed out waiting for {what}: {pending:?}"));
            }
            std::thread::sleep(Duration::from_micros(250));
        }
        Ok(())
    };

    wait_for(&mut conns, "memberships", &|ev| match ev {
        SvcEvent::Membership { group, members } => {
            let room = *room_index.get(group)?;
            (members.len() == wl.members(room)).then_some(room)
        }
        _ => None,
    })?;

    let mut probe_ids = vec![0u64; wl.clients];
    for room in 0..wl.rooms {
        let c = (0..wl.clients)
            .find(|&c| wl.rooms_of(c).contains(&room))
            .ok_or_else(|| format!("room {room} has no member"))?;
        let payload = Bytes::copy_from_slice(&header(0, PROBE, room as u32));
        conns[c]
            .try_publish(&[&wl.room_name(room)], wl.service, payload)
            .map_err(|e| format!("probe publish to room {room}: {e}"))?;
        probe_ids[c] += 1;
    }
    wait_for(&mut conns, "probes", &|ev| match ev {
        SvcEvent::Deliver { payload, .. } => match parse_header(payload)? {
            (_, PROBE, room) => Some(room as usize),
            _ => None,
        },
        _ => None,
    })?;
    Ok(Clients { conns, probe_ids })
}

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warm: Duration,
    pub window: Duration,
    pub drain: Duration,
    /// Offset into the window from which the generator records spans
    /// and times its calls into the client library (the traced pass
    /// compares the window's two halves for the tracing overhead).
    pub traced_from: Option<Duration>,
}

/// What the generator saw.
pub struct GenReport {
    /// Latency of every delivery received inside the window, by the
    /// 100 ms slice it was received in.
    pub slices: Slices,
    pub verdict: Verdict,
    /// Over the whole window: deliveries owed by the publishes that
    /// fell due in it (refused ones included), and how many of those
    /// arrived within the workload's limit.
    pub owed: u64,
    pub within: u64,
    /// `NetworkChange` events the clients saw inside the window: the
    /// ring reconfigured.
    pub network_changes: u64,
    /// Open-loop publishes that had to wait for a credit.
    pub credit_stalls: u64,
    /// How late the generator ran, taken like the latencies it would
    /// spoil: the median over the window's slices of each slice's
    /// p99. Open loop: how long after it was due a window publish was
    /// sent. Closed loop, where nothing is due: how far a sweep's
    /// 50 us sleep overran, which is the time the generator was kept
    /// off the processor.
    pub late_p99_us: f64,
    /// Mean `try_publish` call, and `pump` time per surfaced event,
    /// over the traced part of the window; 0 when nothing was traced.
    pub publish_call_ns: f64,
    pub pump_ns_per_event: f64,
}

struct Gen<'a> {
    wl: &'a Workload,
    clients: &'a mut Clients,
    tracer: &'a mut Tracer,
    audit: Audit,
    filler: Vec<u8>,
    room_names: Vec<String>,
    client_names: Vec<String>,
    rooms_of: Vec<Vec<usize>>,
    /// Which of its rooms a client's first publish goes to.
    room_phase: Vec<usize>,
    dead: Vec<bool>,
    win: std::ops::Range<u64>,
    slices: Slices,
    /// Generator lateness by slice of the window.
    lates: Slices,
    /// Clients whose next publish is waiting for a credit.
    stalled: Vec<bool>,
    /// When each client's last wait for a credit ended: publishes due
    /// before then queued behind it.
    stall_end: Vec<u64>,
    owed: u64,
    within: u64,
    credit_stalls: u64,
    network_changes: u64,
    /// Traced publishes by request id: span index and send time.
    traced: HashMap<u64, (u32, u64)>,
    publish_ns: (u64, u64),
    pump_ns: (u64, u64),
}

impl Gen<'_> {
    /// Sends client `c`'s next publish, due at `due_ns`. False when
    /// the client is out of credits and the publish is to be offered
    /// again on the next sweep, as a caller of the blocking
    /// `SvcClient::publish` would wait; its latency still counts from
    /// when it was due. After [`CREDIT_WAIT`], or when the window
    /// closes, it is refused instead.
    fn publish(&mut self, c: usize, due_ns: u64, epoch: Instant, tracing: bool) -> bool {
        let k = self.audit.next_k(c);
        let rooms = &self.rooms_of[c];
        let room = rooms[(k as usize + self.room_phase[c]) % rooms.len()];
        let mut buf = self.filler.clone();
        buf[..HEADER].copy_from_slice(&header(due_ns, c as u32, k));
        let t0 = epoch.elapsed().as_nanos() as u64;
        let result = if self.dead[c] {
            Err(PublishError::Io(std::io::ErrorKind::NotConnected.into()))
        } else {
            let groups = [self.room_names[room].as_str()];
            self.clients.conns[c].try_publish(&groups, self.wl.service, Bytes::from(buf))
        };
        match &result {
            Ok(_) => self.audit.published(c, room),
            Err(PublishError::NoCredits)
                if t0 < (due_ns + CREDIT_WAIT.as_nanos() as u64).min(self.win.end) =>
            {
                if !self.stalled[c] {
                    self.stalled[c] = true;
                    self.credit_stalls += 1;
                }
                return false;
            }
            Err(e) => {
                // Without a connection, everything this client still
                // owes or is owed counts as failed.
                self.dead[c] |= !matches!(e, PublishError::NoCredits);
                self.audit.refused(room);
            }
        }
        if std::mem::take(&mut self.stalled[c]) {
            self.stall_end[c] = t0;
        }
        if self.win.contains(&due_ns) {
            self.owed += self.audit.owed(room);
            // A wait for credits, and the queue behind it, is the
            // stack's doing, not lateness.
            if matches!(self.wl.load, Load::Open { .. }) && due_ns > self.stall_end[c] {
                self.lates
                    .record(due_ns - self.win.start, t0.saturating_sub(due_ns));
            }
        }
        if result.is_err() {
            return true;
        }
        if tracing {
            let t1 = epoch.elapsed().as_nanos() as u64;
            self.publish_ns.0 += t1 - t0;
            self.publish_ns.1 += 1;
            if k.is_multiple_of(self.wl.trace_stride) {
                let id = (c as u64) << 32 | u64::from(k);
                let idx = self.tracer.record(Span {
                    name: "client.publish",
                    id,
                    who: c as u32,
                    start_ns: t0,
                    end_ns: t1,
                    parent: NO_PARENT,
                });
                self.traced.insert(id, (idx, t1));
            }
        }
        true
    }

    /// Handles one event surfaced on client `sub` at `now_ns`; true
    /// if it was a delivery of a traced publish.
    fn on_event(&mut self, sub: usize, ev: SvcEvent, now_ns: u64) -> bool {
        match ev {
            SvcEvent::Deliver {
                ring_seq,
                shard,
                service,
                sender,
                groups,
                payload,
                ..
            } => {
                let Some((due_ns, publisher, k)) = parse_header(&payload) else {
                    self.audit
                        .violation(format!("subscriber {sub}: delivery without a header"));
                    return false;
                };
                if publisher == PROBE {
                    return false;
                }
                let p = publisher as usize;
                let intact = self.audit.room_of(p, k).is_some_and(|room| {
                    groups.len() == 1
                        && groups[0] == self.room_names[room]
                        && sender.client == self.client_names[p]
                        && service == self.wl.service
                        && payload.len() == self.filler.len()
                        && payload[HEADER..] == self.filler[HEADER..]
                });
                if !intact {
                    self.audit.violation(format!(
                        "subscriber {sub}: ({p},{k}) arrived altered (sender {}, groups {groups:?}, {} bytes)",
                        sender.client,
                        payload.len()
                    ));
                    return false;
                }
                self.audit.delivered(sub, p, k, shard, ring_seq);
                let latency_ns = now_ns.saturating_sub(due_ns);
                if self.win.contains(&due_ns) && latency_ns <= self.wl.limit_us * 1_000 {
                    self.within += 1;
                }
                if self.win.contains(&now_ns) {
                    self.slices.record(now_ns - self.win.start, latency_ns);
                }
                if !self.traced.is_empty() && k.is_multiple_of(self.wl.trace_stride) {
                    let id = (p as u64) << 32 | u64::from(k);
                    if let Some(&(parent, sent_ns)) = self.traced.get(&id) {
                        self.tracer.record(Span {
                            name: "e2e.delivery",
                            id,
                            who: sub as u32,
                            start_ns: sent_ns,
                            end_ns: now_ns,
                            parent,
                        });
                        return true;
                    }
                }
            }
            SvcEvent::PublishRejected { id, .. } => {
                // Ids start at 1 and the probes took the first ones.
                match id.checked_sub(1 + self.clients.probe_ids[sub]) {
                    Some(k) => self.audit.rejected(sub, k as u32),
                    None => self
                        .audit
                        .violation(format!("client {sub}: probe {id} rejected")),
                }
            }
            SvcEvent::Evicted { .. } => {
                self.dead[sub] = true;
            }
            SvcEvent::NetworkChange { .. } => {
                if self.win.contains(&now_ns) {
                    self.network_changes += 1;
                }
                self.audit.new_configuration(sub);
            }
            SvcEvent::PublishOrdered { .. }
            | SvcEvent::Membership { .. }
            | SvcEvent::GroupRejected { .. }
            | SvcEvent::Reconnected { .. } => {}
        }
        false
    }
}

/// Runs warm-up, window and drain over connected clients, raising
/// `phase` to [`WINDOW`] and [`DONE`] as the window opens and closes
/// so the scraper thread can take its readings at the same moments.
pub fn drive(
    clients: &mut Clients,
    wl: &Workload,
    seed: u64,
    plan: Plan,
    phase: &AtomicU8,
    tracer: &mut Tracer,
) -> GenReport {
    let mut rng = SplitMix64::new(seed);
    let n = wl.clients;
    let mut filler = vec![0u8; wl.payload.max(HEADER)];
    for chunk in filler.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
    let rooms_of: Vec<Vec<usize>> = (0..n).map(|c| wl.rooms_of(c)).collect();
    let room_phase = (0..n).map(|_| rng.next_u64() as usize % 2).collect();
    let win_start = plan.warm.as_nanos() as u64;
    let window_ns = plan.window.as_nanos() as u64;
    let win_end = win_start + window_ns;
    let end = win_end + plan.drain.as_nanos() as u64;
    let trace_from = plan.traced_from.map(|d| win_start + d.as_nanos() as u64);

    // Open loop: every client is an independent Poisson source of
    // its share of the aggregate rate. A fixed period would beat
    // against the service tier's 2 ms poll timeout and move the
    // median by a factor of three from one seed to the next.
    let mean_gap_ns = match wl.load {
        Load::Open { rate } => n as f64 * 1e9 / rate,
        Load::Closed => 0.0,
    };
    let mut gap_ns = move || {
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        (-u.ln() * mean_gap_ns) as u64
    };
    let mut next_due: Vec<u64> = (0..n).map(|_| gap_ns()).collect();

    let slices = Slices::new(window_ns);
    let mut g = Gen {
        wl,
        audit: Audit::new(
            &rooms_of,
            (0..n).map(|c| wl.daemon_of(c)).collect(),
            wl.rooms,
            wl.rings,
        ),
        room_names: (0..wl.rooms).map(|r| wl.room_name(r)).collect(),
        client_names: (0..n).map(client_name).collect(),
        rooms_of,
        room_phase,
        dead: vec![false; n],
        win: win_start..win_end,
        lates: Slices::new(window_ns),
        stalled: vec![false; n],
        stall_end: vec![0; n],
        owed: 0,
        within: 0,
        slices,
        credit_stalls: 0,
        network_changes: 0,
        traced: HashMap::new(),
        publish_ns: (0, 0),
        pump_ns: (0, 0),
        filler,
        clients,
        tracer,
    };

    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut sweep = 0u64;
    loop {
        let t = now();
        if t >= win_end {
            phase.store(DONE, Ordering::SeqCst);
            if t >= end || g.audit.outstanding() == 0 {
                break;
            }
        } else if t >= win_start {
            phase.store(WINDOW, Ordering::SeqCst);
        }
        let tracing = trace_from.is_some_and(|from| (from..win_end).contains(&t));

        if t < win_end {
            match wl.load {
                Load::Open { .. } => {
                    for (c, due) in next_due.iter_mut().enumerate() {
                        while *due <= t && g.publish(c, *due, epoch, tracing) {
                            *due += gap_ns();
                        }
                    }
                }
                Load::Closed => {
                    // A publish completes when every member has it,
                    // not when the daemon returns its credit: a client
                    // keeps at most its credit allowance undelivered,
                    // so a stalled daemon cannot be buried by the other
                    // two (`PendingOverflow` needs 1280 queued).
                    for c in 0..n {
                        let allowance = g.clients.conns[c].initial_credits();
                        while !g.dead[c]
                            && g.clients.conns[c].credits() > 0
                            && g.audit.undelivered(c) < allowance
                        {
                            g.publish(c, now(), epoch, tracing);
                        }
                    }
                }
            }
        }

        let pump_start = now();
        let (mut events, mut traced_delivery) = (0u32, false);
        for s in 0..n {
            if g.dead[s] {
                continue;
            }
            let t0 = if tracing { now() } else { 0 };
            if let Err(e) = g.clients.conns[s].pump() {
                g.audit.violation(format!("client {s}: pump failed: {e}"));
                g.dead[s] = true;
                continue;
            }
            let t1 = now();
            let before = events;
            while let Some(ev) = g.clients.conns[s].poll_event() {
                events += 1;
                traced_delivery |= g.on_event(s, ev, t1);
            }
            if tracing {
                g.pump_ns.0 += t1 - t0;
                g.pump_ns.1 += u64::from(events - before);
            }
        }
        if traced_delivery {
            g.tracer.record(Span {
                name: "client.pump",
                id: sweep,
                who: events,
                start_ns: pump_start,
                end_ns: now(),
                parent: NO_PARENT,
            });
        }
        sweep += 1;
        if t >= win_end {
            // Whatever still waits for a credit is settled now.
            for (c, &due) in next_due.iter().enumerate() {
                if g.stalled[c] {
                    g.publish(c, due, epoch, false);
                }
            }
        }
        let asleep = now();
        std::thread::sleep(SWEEP_SLEEP);
        if wl.load == Load::Closed && g.win.contains(&asleep) {
            let overrun = (now() - asleep).saturating_sub(SWEEP_SLEEP.as_nanos() as u64);
            g.lates.record(asleep - g.win.start, overrun);
        }
    }
    phase.store(DONE, Ordering::SeqCst);

    let late_slices = g.lates.len();
    let per = |(ns, count): (u64, u64)| {
        if count == 0 {
            0.0
        } else {
            ns as f64 / count as f64
        }
    };
    GenReport {
        slices: g.slices,
        verdict: g.audit.finish(),
        owed: g.owed,
        within: g.within,
        credit_stalls: g.credit_stalls,
        network_changes: g.network_changes,
        late_p99_us: g.lates.stats(0..late_slices).p99_us,
        publish_call_ns: per(g.publish_ns),
        pump_ns_per_event: per(g.pump_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_and_short_payloads_are_rejected() {
        let h = header(0x0102_0304_0506_0708, 23, 4_000_000);
        assert_eq!(
            parse_header(&h),
            Some((0x0102_0304_0506_0708, 23, 4_000_000))
        );
        assert_eq!(parse_header(&h[..15]), None);
        let probe = header(0, PROBE, 7);
        assert!(matches!(parse_header(&probe), Some((_, PROBE, 7))));
    }
}
