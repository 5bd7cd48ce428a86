//! The transcript audit and the expected-delivery accounting.
//!
//! The audit runs as deliveries stream in, so a 4-million-delivery
//! window needs no stored transcript. A **violation** is a broken
//! promise and fails the run:
//!
//! * exactly-once and gap-free: a subscriber sees each message a
//!   publisher sent to its rooms once, none skipped below a later one;
//! * per-publisher FIFO: within a room always (one ring orders it);
//!   across a publisher's rooms too when one ring orders everything,
//!   or when the publisher is on the subscriber's own daemon, where
//!   HoldBack restores it across rings;
//! * agreement: every member of a room sees each message at the same
//!   `(shard, ring_seq)` position, and a room stays on one shard;
//! * on one ring, identical order: positions never go backwards and
//!   every member of a room sees the same sequence;
//! * `received == attempted − counted failures`, where a failure is a
//!   publish the client library or server refused, or a delivery still
//!   missing when the drain ends (an evicted subscriber's tail).
//!
//! Extended virtual synchrony promises delivery only among the
//! daemons that installed a configuration, and the membership a client
//! is told does not say who did: a daemon can miss a configuration
//! that names it, and what the others order in it is not owed to its
//! clients. So once any client has seen the ring reconfigure, a
//! message a subscriber skipped is a **failure**, counted, not a
//! violation, and that subscriber's view of a room is not compared
//! with the others'. Without a reconfiguration nothing excuses a gap.
//!
//! With several rings the seed commit does not keep two of the
//! orders, by design of `ar_svc::order::HoldBack`: it holds a local
//! publisher's message back behind that publisher's earlier
//! publishes and releases it after later messages of the same room,
//! so room order differs between the publisher's daemon and the
//! others; and a remote publisher's cross-ring FIFO is best effort.
//! Each such delivery is counted as a **deviation**, which
//! `in_order_ratio` gates, and does not fail the run.

const ORDER_CHECKPOINT: u64 = 1024;
const MAX_REPORTED: usize = 20;
const REJECTED: u8 = u8::MAX;

/// Running digests of one member's view of one room.
#[derive(Debug, Default, Clone)]
struct RoomView {
    count: u64,
    /// Order-insensitive: the sum of the messages' hashes.
    set_digest: u64,
    /// Order-sensitive, with its value after every
    /// [`ORDER_CHECKPOINT`] deliveries so that members that received
    /// different amounts still compare on their common prefix.
    seq_digest: u64,
    checkpoints: Vec<u64>,
    last: Option<(u16, u64)>,
    /// Times the position went backwards.
    regressions: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Deliveries owed by every attempted publish, refused ones
    /// included.
    pub attempted: u64,
    pub received: u64,
    /// Owed by publishes that never left the client (`NoCredits`, `Io`).
    pub refused: u64,
    /// Owed by publishes the server answered with `PublishRejected`.
    pub rejected: u64,
    /// Owed, sent, and not received by the end of the drain.
    pub never_received: u64,
}

impl Totals {
    pub fn failed(&self) -> u64 {
        self.refused + self.rejected + self.never_received
    }
}

/// What [`Audit::finish`] found.
#[derive(Debug, Default)]
pub struct Verdict {
    pub totals: Totals,
    /// The first few violations, in words.
    pub violations: Vec<String>,
    pub violation_count: u64,
    /// Deliveries that arrived out of ring order within a room, or out
    /// of publisher order across rings, where several rings make that
    /// best effort.
    pub deviations: u64,
}

#[derive(Debug)]
pub struct Audit {
    /// One ring orders everything, so every order is a promise.
    one_ring: bool,
    daemon_of: Vec<usize>,
    /// `joined[client][room]`
    joined: Vec<Vec<bool>>,
    /// Members per room: the deliveries one publish to it owes.
    members: Vec<u64>,
    /// `published[publisher][k]` is the room of its `k`-th publish.
    published: Vec<Vec<u8>>,
    /// `cursor[subscriber][publisher][room]`: one past the highest `k`
    /// seen in that room.
    cursor: Vec<Vec<Vec<u32>>>,
    /// `got[subscriber][publisher]`: deliveries seen.
    got: Vec<Vec<u64>>,
    /// `views[subscriber][room]`
    views: Vec<Vec<RoomView>>,
    /// New ring configurations each subscriber saw.
    configurations: Vec<u64>,
    verdict: Verdict,
}

impl Audit {
    /// `rooms_of[client]` lists the rooms the client has joined,
    /// `daemon_of[client]` the daemon it is connected to.
    pub fn new(
        rooms_of: &[Vec<usize>],
        daemon_of: Vec<usize>,
        rooms: usize,
        rings: usize,
    ) -> Audit {
        assert!(rooms < usize::from(REJECTED), "room index must fit a byte");
        let clients = rooms_of.len();
        let joined: Vec<Vec<bool>> = rooms_of
            .iter()
            .map(|rs| (0..rooms).map(|r| rs.contains(&r)).collect())
            .collect();
        let members = (0..rooms)
            .map(|r| joined.iter().filter(|j| j[r]).count() as u64)
            .collect();
        Audit {
            one_ring: rings == 1,
            daemon_of,
            joined,
            members,
            published: vec![Vec::new(); clients],
            cursor: vec![vec![vec![0; rooms]; clients]; clients],
            got: vec![vec![0; clients]; clients],
            views: vec![vec![RoomView::default(); rooms]; clients],
            configurations: vec![0; clients],
            verdict: Verdict::default(),
        }
    }

    pub fn violation(&mut self, what: String) {
        self.verdict.violation_count += 1;
        if self.verdict.violations.len() < MAX_REPORTED {
            self.verdict.violations.push(what);
        }
    }

    /// The `k` the publisher's next successful publish will carry.
    pub fn next_k(&self, publisher: usize) -> u32 {
        self.published[publisher].len() as u32
    }

    /// Deliveries sent and neither received nor written off yet.
    pub fn outstanding(&self) -> u64 {
        let t = &self.verdict.totals;
        t.attempted
            .saturating_sub(t.refused + t.rejected + t.received)
    }

    /// Publishes of `publisher` that some member of their room has
    /// yet to receive (counting from the slowest member's cursor).
    pub fn undelivered(&self, publisher: usize) -> u32 {
        // A member's progress is the highest `k` it has seen in any
        // room it shares with the publisher.
        let progress = |sub: usize| {
            (0..self.members.len())
                .filter(|&r| self.joined[sub][r] && self.joined[publisher][r])
                .map(|r| self.cursor[sub][publisher][r])
                .max()
        };
        let slowest = (0..self.joined.len()).filter_map(progress).min();
        self.next_k(publisher) - slowest.unwrap_or(0)
    }

    /// Deliveries one publish to `room` owes.
    pub fn owed(&self, room: usize) -> u64 {
        self.members[room]
    }

    pub fn published(&mut self, publisher: usize, room: usize) {
        self.published[publisher].push(room as u8);
        self.verdict.totals.attempted += self.members[room];
    }

    /// A publish the client library refused; it consumed no `k`.
    pub fn refused(&mut self, room: usize) {
        self.verdict.totals.attempted += self.members[room];
        self.verdict.totals.refused += self.members[room];
    }

    /// The server answered publish `k` with `PublishRejected`.
    pub fn rejected(&mut self, publisher: usize, k: u32) {
        match self.published[publisher].get_mut(k as usize) {
            Some(room) if *room != REJECTED => {
                self.verdict.totals.rejected += self.members[usize::from(*room)];
                *room = REJECTED;
            }
            _ => self.violation(format!(
                "publisher {publisher}: reject for unknown publish {k}"
            )),
        }
    }

    /// The room publish `(publisher, k)` went to, if there was one.
    pub fn room_of(&self, publisher: usize, k: u32) -> Option<usize> {
        match *self.published.get(publisher)?.get(k as usize)? {
            REJECTED => None,
            room => Some(usize::from(room)),
        }
    }

    /// Subscriber `sub` saw the ring install a new configuration, which
    /// numbers its messages from 1 again: each of its rooms may step
    /// back once. (The event is not ordered against the deliveries
    /// around it, so the allowance is settled when the books close.)
    pub fn new_configuration(&mut self, sub: usize) {
        self.configurations[sub] += 1;
    }

    /// Subscriber `sub` received publish `(publisher, k)` at position
    /// `(shard, ring_seq)`.
    pub fn delivered(&mut self, sub: usize, publisher: usize, k: u32, shard: u16, ring_seq: u64) {
        let Some(room) = self.room_of(publisher, k) else {
            return self.violation(format!(
                "subscriber {sub}: delivery of ({publisher},{k}), which was never published"
            ));
        };
        if !self.joined[sub][room] {
            return self.violation(format!(
                "subscriber {sub}: delivery of ({publisher},{k}) to room {room} it never joined"
            ));
        }
        let cursors = &mut self.cursor[sub][publisher];
        if k < cursors[room] {
            let seen = cursors[room] - 1;
            return self.violation(format!(
                "subscriber {sub}: ({publisher},{k}) after ({publisher},{seen}) in room {room} \
                 — duplicate or FIFO break"
            ));
        }
        let overtaken = cursors.iter().any(|&c| k < c);
        cursors[room] = k + 1;
        self.got[sub][publisher] += 1;
        self.verdict.totals.received += 1;
        let mut deviates = false;
        if overtaken {
            if self.one_ring || self.daemon_of[sub] == self.daemon_of[publisher] {
                self.violation(format!(
                    "subscriber {sub}: ({publisher},{k}) arrived after a later publish of {publisher}"
                ));
            } else {
                deviates = true;
            }
        }

        let view = &mut self.views[sub][room];
        let moved_shard = view.last.is_some_and(|(s, _)| s != shard);
        let went_back = view.last.is_some_and(|(_, r)| ring_seq < r);
        view.last = Some((shard, ring_seq));
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for word in [u64::from(shard), ring_seq, publisher as u64, u64::from(k)] {
            hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
        view.set_digest = view.set_digest.wrapping_add(hash);
        view.seq_digest = (view.seq_digest ^ hash).wrapping_mul(0x0000_0100_0000_01b3);
        view.count += 1;
        if view.count.is_multiple_of(ORDER_CHECKPOINT) {
            view.checkpoints.push(view.seq_digest);
        }
        if moved_shard {
            self.violation(format!(
                "subscriber {sub}: room {room} moved to shard {shard}"
            ));
        } else if went_back && self.one_ring {
            view.regressions += 1;
        } else if went_back {
            deviates = true;
        }
        self.verdict.deviations += u64::from(deviates);
    }

    /// Closes the books: finds skipped messages below each cursor,
    /// counts the missing tails as failures, and compares the members'
    /// views of each room.
    pub fn finish(mut self) -> Verdict {
        let reconfigured = self.configurations.iter().any(|&n| n > 0);
        // Subscribers excused a gap.
        let mut gaps = Vec::new();
        for sub in 0..self.joined.len() {
            for publisher in 0..self.published.len() {
                let cursor = self.cursor[sub][publisher]
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0);
                let owed = |ks: &[u8]| {
                    ks.iter()
                        .filter(|&&r| r != REJECTED && self.joined[sub][usize::from(r)])
                        .count() as u64
                };
                let (below, tail) = self.published[publisher].split_at(cursor as usize);
                let (owed_below, owed_tail) = (owed(below), owed(tail));
                self.verdict.totals.never_received += owed_tail;
                let got = self.got[sub][publisher];
                if got < owed_below && reconfigured {
                    self.verdict.totals.never_received += owed_below - got;
                    gaps.push(sub);
                } else if got != owed_below {
                    self.violation(format!(
                        "subscriber {sub}: {got} of publisher {publisher}'s first {owed_below} \
                         messages — gap below ({publisher},{cursor})"
                    ));
                }
            }
        }
        for sub in 0..self.joined.len() {
            for room in 0..self.members.len() {
                let (back, allowed) = (self.views[sub][room].regressions, self.configurations[sub]);
                if back > allowed {
                    self.violation(format!(
                        "subscriber {sub}: room {room} positions went backwards {back} times \
                         across {allowed} new configurations"
                    ));
                }
            }
        }
        for room in 0..self.members.len() {
            let members: Vec<usize> = (0..self.joined.len())
                .filter(|&c| self.joined[c][room] && !gaps.contains(&c))
                .collect();
            let Some((&first, others)) = members.split_first() else {
                continue;
            };
            for &other in others {
                let (a, b) = (&self.views[first][room], &self.views[other][room]);
                let complete = a.count == b.count;
                let common = a.checkpoints.len().min(b.checkpoints.len());
                let same_order = a.checkpoints[..common] == b.checkpoints[..common]
                    && (!complete || a.seq_digest == b.seq_digest);
                if complete && a.set_digest != b.set_digest {
                    self.violation(format!(
                        "room {room}: members {first} and {other} saw messages at different positions"
                    ));
                } else if self.one_ring && !same_order {
                    self.violation(format!(
                        "room {room}: members {first} and {other} saw different orders"
                    ));
                }
            }
        }
        let t = self.verdict.totals;
        if self.verdict.violation_count == 0 && t.received + t.failed() != t.attempted {
            self.violation(format!("accounting does not close: {t:?}"));
        }
        self.verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three clients in one room on one ring, one per daemon, as the
    /// single-ring workloads are.
    fn one_room() -> Audit {
        Audit::new(&[vec![0], vec![0], vec![0]], vec![0, 1, 2], 1, 1)
    }

    /// Clients 0 and 1 share room 0, clients 1 and 2 room 1; client 0
    /// and 1 sit on daemon 0, client 2 on daemon 1; two rings.
    fn two_rings() -> Audit {
        Audit::new(&[vec![0], vec![0, 1], vec![1]], vec![0, 0, 1], 2, 2)
    }

    fn deliver_all(a: &mut Audit, publisher: usize, k: u32, seq: u64) {
        for sub in 0..3 {
            a.delivered(sub, publisher, k, 0, seq);
        }
    }

    #[test]
    fn clean_run_closes_with_no_failures() {
        let mut a = one_room();
        for k in 0..5 {
            assert_eq!(a.next_k(1), k);
            a.published(1, 0);
            deliver_all(&mut a, 1, k, 10 + u64::from(k));
        }
        assert_eq!(a.outstanding(), 0);
        let v = a.finish();
        let t = v.totals;
        assert_eq!((t.attempted, t.received, t.failed()), (15, 15, 0));
        assert_eq!(
            (v.violation_count, v.deviations),
            (0, 0),
            "{:?}",
            v.violations
        );
    }

    #[test]
    fn refusals_rejects_and_missing_tails_are_counted_failures_not_violations() {
        let mut a = one_room();
        a.published(0, 0); // k=0, delivered everywhere
        deliver_all(&mut a, 0, 0, 1);
        a.refused(0); // NoCredits: owes 3, never sent
        a.published(0, 0); // k=1, rejected by the server
        a.rejected(0, 1);
        a.published(0, 0); // k=2, subscriber 2 never gets it (evicted)
        a.delivered(0, 0, 2, 0, 2);
        a.delivered(1, 0, 2, 0, 2);
        assert_eq!(a.outstanding(), 1);
        let v = a.finish();
        let t = v.totals;
        assert_eq!(t.attempted, 12);
        assert_eq!(t.received, 5);
        assert_eq!((t.refused, t.rejected, t.never_received), (3, 3, 1));
        assert_eq!(t.received + t.failed(), t.attempted);
        assert_eq!(v.violation_count, 0, "{:?}", v.violations);
    }

    #[test]
    fn a_skipped_message_below_a_later_one_is_a_gap() {
        let mut a = one_room();
        for _ in 0..3 {
            a.published(2, 0);
        }
        deliver_all(&mut a, 2, 0, 1);
        a.delivered(0, 2, 1, 0, 2);
        a.delivered(1, 2, 1, 0, 2);
        // Subscriber 2 skips k=1.
        deliver_all(&mut a, 2, 2, 3);
        let v = a.finish();
        assert!(
            v.violations.iter().any(|m| m.contains("gap")),
            "{:?}",
            v.violations
        );
    }

    #[test]
    fn duplicates_and_reordering_are_violations() {
        let mut a = one_room();
        a.published(0, 0);
        a.published(0, 0);
        a.delivered(1, 0, 1, 0, 5);
        a.delivered(1, 0, 0, 0, 6);
        a.delivered(1, 0, 1, 0, 7);
        assert!(a.finish().violation_count >= 2);
    }

    #[test]
    fn members_must_agree_on_the_room_order_on_one_ring() {
        let mut a = one_room();
        a.published(0, 0);
        a.published(1, 0);
        // Subscribers 0 and 1 see publisher 0 first; subscriber 2 sees
        // the same two positions the other way round.
        for sub in 0..2 {
            a.delivered(sub, 0, 0, 0, 1);
            a.delivered(sub, 1, 0, 0, 2);
        }
        a.delivered(2, 1, 0, 0, 2);
        a.delivered(2, 0, 0, 0, 1);
        let v = a.finish();
        assert!(
            v.violations.iter().any(|m| m.contains("backwards")),
            "{:?}",
            v.violations
        );
        assert!(
            v.violations.iter().any(|m| m.contains("different orders")),
            "{:?}",
            v.violations
        );
    }

    #[test]
    fn a_new_configuration_restarts_the_positions() {
        let mut a = one_room();
        a.published(0, 0);
        a.published(0, 0);
        for sub in 0..3 {
            a.delivered(sub, 0, 0, 0, 900);
            a.new_configuration(sub);
            a.delivered(sub, 0, 1, 0, 1);
        }
        let v = a.finish();
        assert_eq!(v.violation_count, 0, "{:?}", v.violations);
    }

    #[test]
    fn a_gap_across_a_reconfiguration_is_a_failure_not_a_violation() {
        let mut a = one_room();
        for _ in 0..3 {
            a.published(0, 0);
        }
        deliver_all(&mut a, 0, 0, 900);
        // Daemons 0 and 1 install a configuration daemon 2 misses, and
        // order k=1 in it; all three meet again in the next.
        for sub in 0..2 {
            a.new_configuration(sub);
            a.delivered(sub, 0, 1, 0, 1);
        }
        for sub in 0..3 {
            a.new_configuration(sub);
        }
        deliver_all(&mut a, 0, 2, 1);
        let v = a.finish();
        assert_eq!(v.violation_count, 0, "{:?}", v.violations);
        let t = v.totals;
        assert_eq!((t.attempted, t.received, t.never_received), (9, 8, 1));
        // The same gap with no reconfiguration is
        // `a_skipped_message_below_a_later_one_is_a_gap`.
    }

    #[test]
    fn members_must_agree_on_every_position_on_any_number_of_rings() {
        let mut a = two_rings();
        a.published(0, 0);
        a.delivered(0, 0, 0, 0, 7);
        a.delivered(1, 0, 0, 0, 8);
        let v = a.finish();
        assert!(
            v.violations
                .iter()
                .any(|m| m.contains("different positions")),
            "{:?}",
            v.violations
        );
    }

    #[test]
    fn several_rings_make_room_order_a_deviation_but_keep_it_for_the_local_publisher() {
        let mut a = two_rings();
        a.published(0, 0); // (0,0) room 0
        a.published(1, 0); // (1,0) room 0
        a.published(1, 1); // (1,1) room 1
                           // HoldBack at daemon 0 releases (0,0) after (1,0): positions go
                           // backwards for subscriber 0, a deviation, not a violation.
        a.delivered(0, 1, 0, 0, 6);
        a.delivered(0, 0, 0, 0, 5);
        a.delivered(1, 0, 0, 0, 5);
        a.delivered(1, 1, 0, 0, 6);
        // Remote subscriber 2 may see publisher 1's two rooms in any
        // order; subscriber 1, on the publisher's daemon, may not.
        a.delivered(1, 1, 1, 1, 3);
        a.delivered(2, 1, 1, 1, 3);
        let v = a.finish();
        assert_eq!(v.violation_count, 0, "{:?}", v.violations);
        assert_eq!(v.deviations, 1);

        let mut a = two_rings();
        a.published(1, 0);
        a.published(1, 1);
        a.delivered(1, 1, 1, 1, 3);
        a.delivered(1, 1, 0, 0, 6);
        let v = a.finish();
        assert!(
            v.violations
                .iter()
                .any(|m| m.contains("after a later publish")),
            "{:?}",
            v.violations
        );
    }

    #[test]
    fn fanout_accounting_owes_only_the_rooms_members() {
        let mut a = two_rings();
        assert_eq!((a.owed(0), a.owed(1)), (2, 2));
        a.published(1, 0); // k=0 -> room 0
        a.published(1, 1); // k=1 -> room 1
        a.delivered(0, 1, 0, 0, 1);
        a.delivered(1, 1, 0, 0, 1);
        a.delivered(1, 1, 1, 1, 1);
        a.delivered(2, 1, 1, 1, 1);
        // A non-member receiving it is a violation.
        a.delivered(2, 1, 0, 0, 1);
        let v = a.finish();
        assert_eq!((v.totals.attempted, v.totals.received), (4, 4));
        assert_eq!(v.violation_count, 1, "{:?}", v.violations);
    }
}
