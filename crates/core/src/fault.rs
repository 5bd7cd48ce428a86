//! A shared fault model for every harness that injects failures.
//!
//! The discrete-event simulator (`ar-sim`), the chaos transport and the
//! nemesis runner (`ar-net`) all express faults with the same
//! vocabulary: [`FaultEvent`] names a single injected failure,
//! [`FaultSchedule`] orders events on a wall-clock-style timeline, and
//! [`Connectivity`] folds applied events into a reachability matrix.
//! Keeping the types here (rather than in one harness) means a fault
//! plan written for the simulator can be replayed against the real
//! network stack and vice versa.

use std::time::Duration;

/// A single injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Host `host` crashes (stops processing and sending until a
    /// [`FaultEvent::Restart`], if any).
    Crash {
        /// The host index to crash.
        host: usize,
    },
    /// A previously crashed host comes back. The host restarts with
    /// empty protocol state and must rejoin through membership.
    Restart {
        /// The host index to revive.
        host: usize,
    },
    /// The network splits into components; hosts can only reach hosts
    /// in their own component.
    Partition {
        /// Component id per host (hosts with equal ids can communicate).
        component_of: Vec<u8>,
    },
    /// All partitions heal; every (non-crashed) host can reach every
    /// other.
    Heal,
}

/// A time-ordered schedule of fault events, keyed by elapsed time since
/// the start of the run.
///
/// This is the harness-neutral form: the simulator converts it to its
/// `SimTime` axis, the nemesis runner interprets the offsets against
/// its virtual clock, and the live harness against the wall clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<(Duration, FaultEvent)>,
}

impl FaultSchedule {
    /// An empty (fault-free) schedule.
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Adds a crash of `host` at `at`.
    #[must_use]
    pub fn crash(mut self, at: Duration, host: usize) -> Self {
        self.events.push((at, FaultEvent::Crash { host }));
        self.sort();
        self
    }

    /// Adds a restart of `host` at `at`.
    #[must_use]
    pub fn restart(mut self, at: Duration, host: usize) -> Self {
        self.events.push((at, FaultEvent::Restart { host }));
        self.sort();
        self
    }

    /// Adds a partition at `at`; `component_of[i]` names host `i`'s
    /// side.
    #[must_use]
    pub fn partition(mut self, at: Duration, component_of: Vec<u8>) -> Self {
        self.events
            .push((at, FaultEvent::Partition { component_of }));
        self.sort();
        self
    }

    /// Heals all partitions at `at`.
    #[must_use]
    pub fn heal(mut self, at: Duration) -> Self {
        self.events.push((at, FaultEvent::Heal));
        self.sort();
        self
    }

    fn sort(&mut self) {
        self.events.sort_by_key(|(t, _)| *t);
    }

    /// The scheduled events in time order.
    pub fn events(&self) -> &[(Duration, FaultEvent)] {
        &self.events
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Live connectivity state derived from applied [`FaultEvent`]s.
#[derive(Debug, Clone)]
pub struct Connectivity {
    crashed: Vec<bool>,
    component_of: Vec<u8>,
}

impl Connectivity {
    /// Full connectivity over `n` hosts.
    pub fn full(n: usize) -> Connectivity {
        Connectivity {
            crashed: vec![false; n],
            component_of: vec![0; n],
        }
    }

    /// Applies one fault event.
    pub fn apply(&mut self, ev: &FaultEvent) {
        match ev {
            FaultEvent::Crash { host } => self.crashed[*host] = true,
            FaultEvent::Restart { host } => self.crashed[*host] = false,
            FaultEvent::Partition { component_of } => {
                assert_eq!(
                    component_of.len(),
                    self.component_of.len(),
                    "partition vector must cover every host"
                );
                self.component_of.clone_from(component_of);
            }
            FaultEvent::Heal => self.component_of.iter_mut().for_each(|c| *c = 0),
        }
    }

    /// True if host `i` has crashed (and not restarted since).
    pub fn is_crashed(&self, i: usize) -> bool {
        self.crashed[i]
    }

    /// True if a frame from `from` can reach `to`.
    pub fn can_reach(&self, from: usize, to: usize) -> bool {
        !self.crashed[from] && !self.crashed[to] && self.component_of[from] == self.component_of[to]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_time_sorted() {
        let plan = FaultSchedule::none()
            .heal(Duration::from_nanos(30))
            .crash(Duration::from_nanos(10), 2)
            .partition(Duration::from_nanos(20), vec![0, 0, 1, 1]);
        let times: Vec<u128> = plan.events().iter().map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn connectivity_tracks_crashes_and_partitions() {
        let mut c = Connectivity::full(4);
        assert!(c.can_reach(0, 3));
        c.apply(&FaultEvent::Crash { host: 3 });
        assert!(!c.can_reach(0, 3));
        assert!(c.is_crashed(3));
        c.apply(&FaultEvent::Partition {
            component_of: vec![0, 0, 1, 1],
        });
        assert!(c.can_reach(0, 1));
        assert!(!c.can_reach(1, 2));
        c.apply(&FaultEvent::Heal);
        assert!(c.can_reach(1, 2));
        assert!(!c.can_reach(0, 3), "crash persists through heal");
        c.apply(&FaultEvent::Restart { host: 3 });
        assert!(c.can_reach(0, 3), "restart revives the host");
    }

    #[test]
    #[should_panic(expected = "cover every host")]
    fn partition_vector_must_match() {
        let mut c = Connectivity::full(2);
        c.apply(&FaultEvent::Partition {
            component_of: vec![0],
        });
    }
}
