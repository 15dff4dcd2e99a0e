//! The render node's task queue, written once for every substrate: the
//! simulator's `SimNode`, the live render-node thread, and the head
//! runtime's mirror of each node all hold a [`NodeQueue`].
//!
//! Two FIFO lanes, interactive first. A node finishes the task it is
//! running (no pre-emption), then takes the oldest interactive task
//! unless the oldest batch task was queued at least [`INTERACTIVE_LEAD`]
//! before it. So a frame overtakes only the batch work queued less than
//! one cycle ahead of it, and a batch task is passed over only by the
//! frames queued within that cycle after it: the queue is FIFO with a
//! lead of `INTERACTIVE_LEAD` for frames. This departs from §III-A's
//! single FIFO node queue on purpose: Algorithm 1's heuristic 2 schedules
//! interactive work "immediately", and a FIFO node would still run it
//! after every batch task dispatched before it (DESIGN.md §9.3).
//!
//! ```
//! use vizsched_core::time::SimTime;
//! use vizsched_runtime::queue::{NodeQueue, INTERACTIVE_LEAD};
//!
//! let t0 = SimTime::ZERO;
//! let mut queue = NodeQueue::new();
//! queue.push("batch 1", false, t0);
//! queue.push("batch 2", false, t0);
//! queue.push("frame", true, t0);
//! assert_eq!(queue.pop(), Some("frame"));
//! // A frame one lead later no longer overtakes what was queued at t0.
//! queue.push("late frame", true, t0 + INTERACTIVE_LEAD);
//! assert_eq!(queue.pop(), Some("batch 1"));
//! assert_eq!(queue.pop(), Some("batch 2"));
//! assert_eq!(queue.pop(), Some("late frame"));
//! assert!(queue.is_empty());
//! ```

use std::collections::VecDeque;
use vizsched_core::ids::JobId;
use vizsched_core::sched::Assignment;
use vizsched_core::time::{SimDuration, SimTime};

/// How far ahead of the batch lane an interactive task is queued: it runs
/// before every batch task queued less than this before it. One paper
/// cycle `ω`, so a frame overtakes the batch a λ-fill placed in the cycle
/// before it, and no batch task waits behind more than a cycle of frames.
pub const INTERACTIVE_LEAD: SimDuration = SimDuration::from_millis(30);

/// A node's queued (not yet running) tasks in two FIFO lanes, each task
/// with the instant it was queued; see the module docs for the order.
#[derive(Clone, Debug)]
pub struct NodeQueue<T> {
    interactive: VecDeque<(SimTime, T)>,
    batch: VecDeque<(SimTime, T)>,
}

impl<T> Default for NodeQueue<T> {
    fn default() -> Self {
        NodeQueue {
            interactive: VecDeque::new(),
            batch: VecDeque::new(),
        }
    }
}

impl<T> NodeQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue `item`, at `at`, at the back of its lane.
    pub fn push(&mut self, item: T, interactive: bool, at: SimTime) {
        let lane = if interactive {
            &mut self.interactive
        } else {
            &mut self.batch
        };
        lane.push_back((at, item));
    }

    /// The task the node runs next: the oldest interactive task, unless
    /// the oldest batch task was queued [`INTERACTIVE_LEAD`] or more
    /// before it.
    pub fn pop(&mut self) -> Option<T> {
        let batch_first = match (self.batch.front(), self.interactive.front()) {
            (Some(&(batch, _)), Some(&(frame, _))) => batch + INTERACTIVE_LEAD <= frame,
            (batch, _) => batch.is_some(),
        };
        let lane = if batch_first {
            &mut self.batch
        } else {
            &mut self.interactive
        };
        lane.pop_front().map(|(_, item)| item)
    }

    /// Remove the first task, interactive lane first, that `matches`.
    pub fn remove_first(&mut self, matches: impl Fn(&T) -> bool) -> Option<T> {
        for lane in [&mut self.interactive, &mut self.batch] {
            if let Some(i) = lane.iter().position(|(_, item)| matches(item)) {
                return lane.remove(i).map(|(_, item)| item);
            }
        }
        None
    }

    /// Every queued task, interactive lane first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.interactive
            .iter()
            .chain(&self.batch)
            .map(|(_, item)| item)
    }

    /// True when neither lane holds a task.
    pub fn is_empty(&self) -> bool {
        self.interactive.is_empty() && self.batch.is_empty()
    }

    /// Drop every queued task.
    pub fn clear(&mut self) {
        self.interactive.clear();
        self.batch.clear();
    }
}

/// The head runtime's mirror of one node: the task it runs and since
/// when, its [`NodeQueue`], and the summed `predicted_exec` of the queue.
///
/// A node starts a task when it is dispatched to it idle, or when the
/// task before it completes; the mirror follows the same rule and the
/// same queue, so the `Available` correction on a completion is O(1).
/// Dispatched-but-unfinished tasks are exactly the ones a fault
/// re-places.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    running: Option<(Assignment, SimTime)>,
    queue: NodeQueue<Assignment>,
    queued_exec: SimDuration,
}

impl Ledger {
    /// Track a task handed to the node at `now`.
    pub(crate) fn dispatch(&mut self, a: Assignment, now: SimTime) {
        if self.running.is_none() {
            self.running = Some((a, now));
        } else {
            self.queued_exec += a.predicted_exec;
            self.queue.push(a, a.task.interactive, now);
        }
        self.check();
    }

    /// The node takes its next task at `now`.
    fn start_next(&mut self, now: SimTime) {
        let next = self.queue.pop();
        if let Some(a) = &next {
            self.queued_exec -= a.predicted_exec;
        }
        self.running = next.map(|a| (a, now));
    }

    /// Retire the task `(job, index)` that finished at `now`. A
    /// completion normally names the running task, and the node starts
    /// its next one at `now`. One that names a queued task means the node
    /// ran it first; the task thought running then starts no earlier than
    /// `now`. One that names nothing retires the running task.
    pub(crate) fn complete(&mut self, job: JobId, index: u32, now: SimTime) {
        let named = |a: &Assignment| a.task.job == job && a.task.index == index;
        match self.running {
            Some((a, _)) if named(&a) => self.start_next(now),
            _ => match self.queue.remove_first(named) {
                Some(a) => {
                    self.queued_exec -= a.predicted_exec;
                    if let Some((_, start)) = &mut self.running {
                        *start = now;
                    }
                }
                None => {
                    if self.running.is_some() {
                        self.start_next(now);
                    }
                }
            },
        }
        self.check();
    }

    /// When all of the node's dispatched work ends, as of `now`: the end
    /// of the running task (`now` if it overran or the node is idle) plus
    /// the queued work.
    pub(crate) fn backlog_end(&self, now: SimTime) -> SimTime {
        let free = self
            .running
            .map_or(now, |(a, start)| (start + a.predicted_exec).max(now));
        free + self.queued_exec
    }

    /// Remove every unfinished task: the running one, then the queue in
    /// the order the node would run it.
    pub(crate) fn take(&mut self) -> Vec<Assignment> {
        let mut all: Vec<Assignment> = self.running.take().map(|(a, _)| a).into_iter().collect();
        all.extend(std::iter::from_fn(|| self.queue.pop()));
        self.queued_exec = SimDuration::ZERO;
        all
    }

    /// The running sum equals the fold it stands for.
    fn check(&self) {
        debug_assert_eq!(
            self.queued_exec,
            self.queue
                .iter()
                .fold(SimDuration::ZERO, |acc, a| acc + a.predicted_exec),
            "the ledger's queued exec drifted from its queue"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn drain(queue: &mut NodeQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| queue.pop()).collect()
    }

    fn ms(ms: u64) -> SimTime {
        T0 + SimDuration::from_millis(ms)
    }

    #[test]
    fn interactive_lane_runs_first() {
        let mut queue = NodeQueue::new();
        queue.push(1, false, T0);
        queue.push(2, false, ms(1));
        queue.push(10, true, ms(2));
        assert_eq!(drain(&mut queue), [10, 1, 2]);
    }

    #[test]
    fn each_lane_is_fifo() {
        let mut queue = NodeQueue::new();
        for (item, interactive) in [(1, false), (10, true), (2, false), (11, true), (3, false)] {
            queue.push(item, interactive, T0);
        }
        assert_eq!(queue.iter().copied().collect::<Vec<_>>(), [10, 11, 1, 2, 3]);
        assert_eq!(drain(&mut queue), [10, 11, 1, 2, 3]);
    }

    /// The queue holds only what has not started: a task popped to run
    /// stays popped, so an interactive arrival waits for it to finish and
    /// then runs before the batch queued behind it.
    #[test]
    fn a_started_task_is_not_pre_empted() {
        let mut queue = NodeQueue::new();
        queue.push(1, false, T0);
        queue.push(2, false, T0);
        let running = queue.pop();
        queue.push(10, true, ms(5));
        assert_eq!(running, Some(1));
        assert_eq!(drain(&mut queue), [10, 2]);
    }

    /// A frame overtakes batch queued less than the lead before it, and
    /// only that: a batch task queued a full lead earlier runs first.
    #[test]
    fn frames_lead_batch_by_one_cycle_only() {
        let lead = INTERACTIVE_LEAD.as_micros() / 1000;
        let mut queue = NodeQueue::new();
        queue.push(1, false, T0);
        queue.push(2, false, ms(lead - 1));
        queue.push(10, true, ms(lead));
        queue.push(11, true, ms(2 * lead));
        assert_eq!(drain(&mut queue), [1, 10, 2, 11]);
    }

    #[test]
    fn remove_first_searches_the_interactive_lane_first() {
        let mut queue = NodeQueue::new();
        for (item, interactive) in [(1, false), (2, true), (3, false), (4, true)] {
            queue.push(item, interactive, T0);
        }
        assert_eq!(queue.remove_first(|&x| x % 2 == 1), Some(1));
        assert_eq!(queue.remove_first(|&x| x > 1), Some(2));
        assert_eq!(queue.remove_first(|&x| x > 9), None);
        assert_eq!(queue.iter().copied().collect::<Vec<_>>(), [4, 3]);
        queue.clear();
        assert!(queue.is_empty());
    }
}
