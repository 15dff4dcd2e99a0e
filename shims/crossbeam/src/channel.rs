//! A Mutex+Condvar MPMC channel mirroring `crossbeam_channel`'s API.
//!
//! Senders and receivers are cloneable; dropping the last sender
//! disconnects receivers (and vice versa: dropping the last receiver also
//! discards the messages still queued). [`Select`] waits on several
//! receivers at once and blocks until one is ready: every channel keeps
//! the `Select`s watching it and wakes them when a message or disconnect
//! arrives, so no wait ever polls.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Lock `mutex`, shrugging off poison: no critical section here leaves
/// its data half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Block on `cond` until notified, or at most until `deadline`.
fn wait<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    deadline: Option<Instant>,
) -> MutexGuard<'a, T> {
    match deadline {
        None => cond.wait(guard).unwrap_or_else(|e| e.into_inner()),
        Some(deadline) => {
            let left = deadline.saturating_duration_since(Instant::now());
            cond.wait_timeout(guard, left)
                .unwrap_or_else(|e| e.into_inner())
                .0
        }
    }
}

/// Whether `deadline` (none: never) has passed.
fn passed(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    cap: Option<usize>,
    /// The `Select`s watching this channel's receiving side.
    watchers: Vec<Arc<Signal>>,
}

impl<T> State<T> {
    /// Wake every `Select` watching this channel: a message or a
    /// disconnect has just arrived.
    fn fire(&self) {
        for watcher in &self.watchers {
            watcher.fire();
        }
    }
}

struct Inner<T> {
    state: Mutex<State<T>>,
    /// Signalled when a message or disconnect arrives (wakes receivers).
    available: Condvar,
    /// Signalled when capacity frees up (wakes bounded senders).
    space: Condvar,
}

impl<T> Inner<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        lock(&self.state)
    }
}

/// The sending half of a channel.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half of a channel.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

/// Error returned when every receiver is gone; carries the message back.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Error returned when every sender is gone and the queue is drained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

/// Non-blocking receive outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued right now.
    Empty,
    /// Disconnected and drained.
    Disconnected,
}

/// Timed receive outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with nothing queued.
    Timeout,
    /// Disconnected and drained.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
            RecvTimeoutError::Disconnected => f.write_str("channel disconnected"),
        }
    }
}

/// An unbounded MPMC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// A bounded MPMC channel; `send` blocks when `cap` messages are queued.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(cap))
}

fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            cap,
            watchers: Vec::new(),
        }),
        available: Condvar::new(),
        space: Condvar::new(),
    });
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

/// Non-blocking send outcomes; both variants hand the message back.
#[derive(PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The bounded channel is at capacity.
    Full(T),
    /// Every receiver is gone.
    Disconnected(T),
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

impl<T> Sender<T> {
    /// Queue `value`, blocking while a bounded channel is full. Fails only
    /// when every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.inner.lock();
        loop {
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            match state.cap {
                Some(cap) if state.queue.len() >= cap => {
                    state = wait(&self.inner.space, state, None);
                }
                _ => break,
            }
        }
        state.queue.push_back(value);
        state.fire();
        drop(state);
        self.inner.available.notify_one();
        Ok(())
    }

    /// Queue `value` without blocking: fails with [`TrySendError::Full`]
    /// when a bounded channel is at capacity (handing the message back so
    /// callers can shed it explicitly) and with
    /// [`TrySendError::Disconnected`] when every receiver is gone.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut state = self.inner.lock();
        if state.receivers == 0 {
            drop(state);
            return Err(TrySendError::Disconnected(value));
        }
        if let Some(cap) = state.cap {
            if state.queue.len() >= cap {
                drop(state);
                return Err(TrySendError::Full(value));
            }
        }
        state.queue.push_back(value);
        state.fire();
        drop(state);
        self.inner.available.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.lock().senders += 1;
        Sender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.inner.lock();
        state.senders -= 1;
        if state.senders == 0 {
            state.fire();
            drop(state);
            self.inner.available.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Block until a message or disconnection.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Non-blocking receive: a receive whose deadline is now.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.recv_until(Some(Instant::now())).map_err(|e| match e {
            RecvTimeoutError::Timeout => TryRecvError::Empty,
            RecvTimeoutError::Disconnected => TryRecvError::Disconnected,
        })
    }

    /// Receive with a deadline. A timeout too large for [`Instant`] (such
    /// as `Duration::MAX`) waits forever, as `recv` does.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Instant::now().checked_add(timeout))
    }

    /// Take the next message, waiting for one at most until `deadline`
    /// (none: as long as a sender lives).
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut state = self.inner.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                drop(state);
                self.inner.space.notify_one();
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            if passed(deadline) {
                return Err(RecvTimeoutError::Timeout);
            }
            state = wait(&self.inner.available, state, deadline);
        }
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().queue.is_empty()
    }

    /// Queued message count.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.lock().receivers += 1;
        Receiver {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.inner.lock();
        state.receivers -= 1;
        // The last receiver takes the queued messages with it, as in
        // crossbeam-channel. They drop at the end of this function, after
        // the lock is released: a message's own `Drop` may lock another
        // channel.
        let discarded = (state.receivers == 0).then(|| std::mem::take(&mut state.queue));
        drop(state);
        if discarded.is_some() {
            self.inner.space.notify_all();
        }
    }
}

/// A blocked [`Select`]'s wake-up: a flag every watched channel sets on a
/// message or disconnect, and the condvar the `Select` waits on while the
/// flag is clear.
#[derive(Default)]
struct Signal {
    fired: Mutex<bool>,
    wake: Condvar,
}

impl Signal {
    fn fire(&self) {
        *lock(&self.fired) = true;
        self.wake.notify_one();
    }
}

/// What [`Select`] asks of a registered receiver, whatever it carries.
trait Watched {
    /// A `recv` would not block: a message is queued or every sender is
    /// gone.
    fn is_ready(&self) -> bool;
    /// Stop waking `signal`.
    fn unwatch(&self, signal: &Arc<Signal>);
}

impl<T> Watched for Receiver<T> {
    fn is_ready(&self) -> bool {
        let state = self.inner.lock();
        !state.queue.is_empty() || state.senders == 0
    }

    fn unwatch(&self, signal: &Arc<Signal>) {
        self.inner
            .lock()
            .watchers
            .retain(|w| !Arc::ptr_eq(w, signal));
    }
}

/// Waits until one of several receivers is ready: the subset of
/// `crossbeam_channel::Select` made of [`Select::recv`] and
/// [`Select::ready_timeout`]. The caller then takes the message with
/// `try_recv` on the receiver whose index came back.
///
/// A receiver's channel watches for this `Select` from its registration
/// until the `Select` drops.
#[derive(Default)]
pub struct Select<'a> {
    signal: Arc<Signal>,
    receivers: Vec<&'a dyn Watched>,
}

/// [`Select::ready_timeout`]'s timeout passed with no receiver ready.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadyTimeoutError;

impl<'a> Select<'a> {
    /// A `Select` watching nothing yet.
    pub fn new() -> Select<'a> {
        Select::default()
    }

    /// Watch `r`; returns its index, its place in registration order.
    pub fn recv<T>(&mut self, r: &'a Receiver<T>) -> usize {
        r.inner.lock().watchers.push(self.signal.clone());
        self.receivers.push(r);
        self.receivers.len() - 1
    }

    /// Block until a registered receiver is ready (a message queued, or
    /// disconnected) and return its index, the first ready one in
    /// registration order; crossbeam picks among ready ones at random, so
    /// a fixed order is within its contract. Fails once `timeout` passes
    /// with none ready; a timeout too large for [`Instant`] (such as
    /// `Duration::MAX`) waits forever.
    pub fn ready_timeout(&mut self, timeout: Duration) -> Result<usize, ReadyTimeoutError> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            // Clear, then look: a message or disconnect after the look
            // sets the flag again, so the wait below cannot miss it.
            *lock(&self.signal.fired) = false;
            if let Some(index) = self.receivers.iter().position(|r| r.is_ready()) {
                return Ok(index);
            }
            let mut fired = lock(&self.signal.fired);
            while !*fired {
                if passed(deadline) {
                    return Err(ReadyTimeoutError);
                }
                fired = wait(&self.signal.wake, fired, deadline);
            }
        }
    }
}

impl Drop for Select<'_> {
    fn drop(&mut self) {
        for r in &self.receivers {
            r.unwatch(&self.signal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn drop_sender_disconnects() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(5).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(5));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn drop_receiver_fails_send() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn drop_receiver_drops_queued_messages() {
        // A queued message carrying a sender (a request and its reply
        // channel) must not keep that sender alive in a dead channel.
        let (outer_tx, outer_rx) = unbounded::<Sender<u32>>();
        let (reply_tx, reply_rx) = unbounded::<u32>();
        outer_tx.send(reply_tx).unwrap();
        drop(outer_rx);
        assert_eq!(
            reply_rx.recv_timeout(Duration::from_millis(100)),
            Err(RecvTimeoutError::Disconnected)
        );
        drop(outer_tx);
    }

    #[test]
    fn timeout_expires() {
        let (_tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = bounded(2);
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv().unwrap());
        }
        handle.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn try_send_sheds_on_full_and_disconnect() {
        let (tx, rx) = bounded::<u32>(1);
        assert!(tx.try_send(1).is_ok());
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        assert_eq!(rx.recv(), Ok(1));
        assert!(tx.try_send(3).is_ok());
        drop(rx);
        assert!(matches!(tx.try_send(4), Err(TrySendError::Disconnected(4))));
    }
    #[test]
    fn recv_timeout_max_waits_for_a_later_send() {
        let (tx, rx) = unbounded::<u32>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            tx.send(9).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::MAX), Ok(9));
        sender.join().unwrap();
    }

    #[test]
    fn select_times_out_when_nothing_is_ready() {
        let (_tx, rx) = unbounded::<u32>();
        let mut sel = Select::new();
        sel.recv(&rx);
        let start = Instant::now();
        assert_eq!(
            sel.ready_timeout(Duration::from_millis(20)),
            Err(ReadyTimeoutError)
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn select_ready_message_beats_a_zero_timeout() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(3).unwrap();
        let mut sel = Select::new();
        let index = sel.recv(&rx);
        assert_eq!(sel.ready_timeout(Duration::ZERO), Ok(index));
        assert_eq!(rx.try_recv(), Ok(3));
    }

    #[test]
    fn select_max_timeout_does_not_overflow_or_miss_a_later_send() {
        let (_tx_a, rx_a) = unbounded::<u32>();
        let (tx_b, rx_b) = unbounded::<u32>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            tx_b.send(9).unwrap();
        });
        let mut sel = Select::new();
        sel.recv(&rx_a);
        sel.recv(&rx_b);
        assert_eq!(sel.ready_timeout(Duration::MAX), Ok(1));
        assert_eq!(rx_b.try_recv(), Ok(9));
        drop(sel);
        sender.join().unwrap();
    }

    #[test]
    fn select_returns_the_first_ready_receiver_in_registration_order() {
        let (tx_a, rx_a) = unbounded::<u32>();
        let (tx_b, rx_b) = unbounded::<&str>();
        let mut sel = Select::new();
        assert_eq!((sel.recv(&rx_a), sel.recv(&rx_b)), (0, 1));
        tx_b.send("b").unwrap();
        assert_eq!(sel.ready_timeout(Duration::ZERO), Ok(1));
        tx_a.send(7).unwrap();
        assert_eq!(sel.ready_timeout(Duration::ZERO), Ok(0));
        assert_eq!(rx_a.try_recv(), Ok(7));
        assert_eq!(sel.ready_timeout(Duration::ZERO), Ok(1));
    }

    #[test]
    fn select_counts_a_disconnected_receiver_as_ready() {
        let (_tx_a, rx_a) = unbounded::<u32>();
        let (tx_b, rx_b) = unbounded::<u32>();
        let mut sel = Select::new();
        sel.recv(&rx_a);
        sel.recv(&rx_b);
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            drop(tx_b);
        });
        assert_eq!(sel.ready_timeout(Duration::from_secs(10)), Ok(1));
        assert_eq!(rx_b.try_recv(), Err(TryRecvError::Disconnected));
        drop(sel);
        dropper.join().unwrap();
    }

    #[test]
    fn a_dropped_select_stops_watching() {
        let (_tx, rx) = bounded::<u32>(1);
        let mut sel = Select::new();
        sel.recv(&rx);
        sel.recv(&rx);
        assert_eq!(rx.inner.lock().watchers.len(), 2);
        drop(sel);
        assert!(rx.inner.lock().watchers.is_empty());
    }

    /// CPU time this thread has run, from the scheduler's own accounting.
    #[cfg(target_os = "linux")]
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap();
        let ns = stat.split_whitespace().next().unwrap().parse().unwrap();
        Duration::from_nanos(ns)
    }

    /// A blocked wait costs nothing: a `Select` that polled every 50 µs
    /// ran for about 25 ms of these 500.
    #[test]
    #[cfg(target_os = "linux")]
    fn a_blocked_select_does_not_spin() {
        let (_tx_a, rx_a) = unbounded::<u32>();
        let (_tx_b, rx_b) = bounded::<u32>(4);
        let mut sel = Select::new();
        sel.recv(&rx_a);
        sel.recv(&rx_b);
        let before = thread_cpu();
        assert_eq!(
            sel.ready_timeout(Duration::from_millis(500)),
            Err(ReadyTimeoutError)
        );
        let used = thread_cpu() - before;
        assert!(used < Duration::from_millis(5), "used {used:?} of CPU");
    }

    /// Two senders send 5 000 messages each, and each waits for the
    /// receiver's ack before its next send, so every message may be the
    /// last one in flight: a lost wake-up leaves the receiver blocked for
    /// good, and a watchdog turns that hang into a failure.
    #[test]
    fn select_loses_no_wake_up() {
        const EACH: u32 = 5_000;
        let (tx_a, rx_a) = unbounded::<u32>();
        let (tx_b, rx_b) = bounded::<u32>(1);
        let (ack_a, acked_a) = unbounded::<()>();
        let (ack_b, acked_b) = unbounded::<()>();
        // The senders send on clones, so no channel disconnects (and so
        // stays ready for good) before the receiver is done.
        let senders: Vec<_> = [(tx_a.clone(), acked_a), (tx_b.clone(), acked_b)]
            .into_iter()
            .map(|(tx, acked)| {
                std::thread::spawn(move || {
                    for i in 0..EACH {
                        tx.send(i).unwrap();
                        std::thread::yield_now();
                        acked.recv().unwrap();
                    }
                })
            })
            .collect();
        let (done_tx, done_rx) = unbounded();
        std::thread::spawn(move || {
            let mut sel = Select::new();
            sel.recv(&rx_a);
            sel.recv(&rx_b);
            let mut got = [0u32; 2];
            while got != [EACH; 2] {
                let index = sel.ready_timeout(Duration::MAX).unwrap();
                if [&rx_a, &rx_b][index].try_recv().is_ok() {
                    got[index] += 1;
                    [&ack_a, &ack_b][index].send(()).unwrap();
                }
            }
            done_tx.send(got).unwrap();
        });
        let got = done_rx.recv_timeout(Duration::from_secs(30));
        assert_eq!(got, Ok([EACH; 2]), "the receiver stalled");
        for sender in senders {
            sender.join().unwrap();
        }
        drop((tx_a, tx_b));
    }
}
