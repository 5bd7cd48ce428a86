//! Fault injection: crashes, partitions, and merges on a schedule.
//!
//! The event vocabulary ([`FaultEvent`]) and the reachability state
//! ([`Connectivity`]) are shared with the real-network chaos harness —
//! they live in [`ar_core::fault`] and are re-exported here. Only the
//! schedule type is simulator-specific: [`FaultPlan`] keys events by
//! [`SimTime`], and converts to/from the harness-neutral
//! [`FaultSchedule`] so the same plan can drive a live nemesis run.

pub use ar_core::fault::{Connectivity, FaultEvent, FaultSchedule};

use crate::time::SimTime;

/// A time-ordered schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultEvent)>,
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a crash of `host` at `at`.
    #[must_use]
    pub fn crash(mut self, at: SimTime, host: usize) -> Self {
        self.events.push((at, FaultEvent::Crash { host }));
        self.sort();
        self
    }

    /// Adds a restart of previously crashed `host` at `at`.
    #[must_use]
    pub fn restart(mut self, at: SimTime, host: usize) -> Self {
        self.events.push((at, FaultEvent::Restart { host }));
        self.sort();
        self
    }

    /// Adds a partition at `at`; `component_of[i]` names host `i`'s
    /// side.
    #[must_use]
    pub fn partition(mut self, at: SimTime, component_of: Vec<u8>) -> Self {
        self.events
            .push((at, FaultEvent::Partition { component_of }));
        self.sort();
        self
    }

    /// Heals all partitions at `at`.
    #[must_use]
    pub fn heal(mut self, at: SimTime) -> Self {
        self.events.push((at, FaultEvent::Heal));
        self.sort();
        self
    }

    fn sort(&mut self) {
        self.events.sort_by_key(|(t, _)| *t);
    }

    /// The scheduled events in time order.
    pub fn events(&self) -> &[(SimTime, FaultEvent)] {
        &self.events
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Converts to the harness-neutral schedule shared with the live
    /// nemesis runner.
    pub fn to_schedule(&self) -> FaultSchedule {
        let mut schedule = FaultSchedule::none();
        for (t, ev) in &self.events {
            let at = std::time::Duration::from_nanos(t.as_nanos());
            schedule = match ev.clone() {
                FaultEvent::Crash { host } => schedule.crash(at, host),
                FaultEvent::Restart { host } => schedule.restart(at, host),
                FaultEvent::Partition { component_of } => schedule.partition(at, component_of),
                FaultEvent::Heal => schedule.heal(at),
            };
        }
        schedule
    }

    /// Builds a plan from a harness-neutral schedule.
    pub fn from_schedule(schedule: &FaultSchedule) -> FaultPlan {
        let events = schedule
            .events()
            .iter()
            .map(|(t, ev)| (SimTime::from_nanos(t.as_nanos() as u64), ev.clone()))
            .collect();
        let mut plan = FaultPlan { events };
        plan.sort();
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_time_sorted() {
        let plan = FaultPlan::none()
            .heal(SimTime::from_nanos(30))
            .crash(SimTime::from_nanos(10), 2)
            .partition(SimTime::from_nanos(20), vec![0, 0, 1, 1]);
        let times: Vec<u64> = plan.events().iter().map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn schedule_round_trips() {
        let plan = FaultPlan::none()
            .crash(SimTime::from_nanos(10), 2)
            .restart(SimTime::from_nanos(50), 2)
            .partition(SimTime::from_nanos(20), vec![0, 0, 1, 1])
            .heal(SimTime::from_nanos(30));
        let schedule = plan.to_schedule();
        assert_eq!(schedule.events().len(), 4);
        assert_eq!(FaultPlan::from_schedule(&schedule), plan);
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
        assert!(!c.can_reach(0, 3), "crash persists until restart");
        c.apply(&FaultEvent::Restart { host: 3 });
        assert!(c.can_reach(0, 3));
    }
}
