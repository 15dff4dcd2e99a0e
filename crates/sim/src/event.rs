//! The event queue: a min-heap ordered by `(time, sequence)` so that
//! simultaneous events fire in insertion order and every run is
//! bit-for-bit reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vizsched_core::ids::NodeId;
use vizsched_core::job::Job;
use vizsched_core::time::SimTime;
use vizsched_runtime::FaultKind;

/// What happens when an event fires.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// A job enters the head node's queue.
    Arrival(Job),
    /// A scheduling-cycle boundary for cycle-based policies.
    Tick,
    /// The running task on `node` completes. `generation` guards against
    /// stale completions after a crash wiped the node's state.
    TaskDone {
        /// The node whose running task finished.
        node: NodeId,
        /// The node's crash generation at the time the task started.
        generation: u32,
    },
    /// A scheduled [`FaultPlan`](vizsched_runtime::FaultPlan) entry fires:
    /// the full taxonomy (crash, respawn, degrade, restore, leaf outage,
    /// shard-head crash), traced as `fault_injected` so a chaos run can be
    /// replayed and audited.
    PlanFault(FaultKind),
}

/// A scheduled event.
#[derive(Clone, Debug)]
pub struct Event {
    /// When it fires.
    pub time: SimTime,
    /// Tie-breaker: insertion order.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Deterministic event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), EventKind::Tick);
        q.push(SimTime::from_secs(1), EventKind::Tick);
        q.push(SimTime::from_secs(2), EventKind::Tick);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros() / 1_000_000)
            .collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, EventKind::PlanFault(FaultKind::NodeCrash(NodeId(0))));
        q.push(t, EventKind::PlanFault(FaultKind::NodeCrash(NodeId(1))));
        q.push(t, EventKind::PlanFault(FaultKind::NodeCrash(NodeId(2))));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::PlanFault(FaultKind::NodeCrash(n)) => n.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
