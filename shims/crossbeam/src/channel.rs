//! A Mutex+Condvar MPMC channel mirroring `crossbeam_channel`'s API.
//!
//! Senders and receivers are cloneable; dropping the last sender
//! disconnects receivers (and vice versa: dropping the last receiver also
//! discards the messages still queued). `select!` is implemented by
//! polling with a short park, which is ample for the workloads here
//! (the service head loop waits at most until its next cycle is due).

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    cap: Option<usize>,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    /// Signalled when a message or disconnect arrives (wakes receivers).
    available: Condvar,
    /// Signalled when capacity frees up (wakes bounded senders).
    space: Condvar,
}

impl<T> Inner<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
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

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
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

impl std::error::Error for RecvTimeoutError {}

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
                    state = self
                        .inner
                        .space
                        .wait(state)
                        .unwrap_or_else(|e| e.into_inner());
                }
                _ => break,
            }
        }
        state.queue.push_back(value);
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
        let last = state.senders == 0;
        drop(state);
        if last {
            self.inner.available.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Block until a message or disconnection.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.inner.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                drop(state);
                self.inner.space.notify_one();
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self
                .inner
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.inner.lock();
        if let Some(v) = state.queue.pop_front() {
            drop(state);
            self.inner.space.notify_one();
            return Ok(v);
        }
        if state.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Receive with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
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
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (s, _) = self
                .inner
                .available
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = s;
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

    /// True if a `recv` would complete without blocking (message queued or
    /// channel disconnected). Used by the polling `select!`.
    pub fn ready_hint(&self) -> bool {
        let state = self.inner.lock();
        !state.queue.is_empty() || state.senders == 0
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

/// Wait on several `recv` operations at once, running exactly one arm.
///
/// Supported form (arms are `recv(rx) -> pat => body`, plus at most one
/// trailing `default(timeout) => body` that runs when nothing is ready
/// within `timeout`; like the real macro, block bodies may omit the
/// separating comma):
///
/// ```ignore
/// select! {
///     recv(a) -> msg => { ... }
///     recv(b) -> msg => do_thing(msg),
///     default(Duration::from_millis(5)) => idle(),
/// }
/// ```
///
/// A ready message always wins over the default arm, and a timeout too
/// large for [`Instant`] (such as `Duration::MAX`) waits forever.
///
/// Implementation note: readiness is detected by polling with a 50 µs
/// park. Bodies execute at the macro's block level, so `break`/`continue`
/// inside an arm target the caller's enclosing loop, as with the real
/// `crossbeam_channel::select!`. With a single receiver per channel (the
/// only usage pattern in this workspace) the post-poll `recv` cannot
/// steal from another consumer.
#[macro_export]
macro_rules! select {
    // Arm munchers: normalise every arm body to a block, with or without
    // a trailing comma. Block rules come first so `{ ... }` bodies are not
    // consumed as expressions (which would then demand a comma).
    (@munch [$($acc:tt)*] recv($r:expr) -> $p:pat => $body:block , $($rest:tt)*) => {
        $crate::channel::select!(@munch [$($acc)* {recv($r) -> $p => $body}] $($rest)*)
    };
    (@munch [$($acc:tt)*] recv($r:expr) -> $p:pat => $body:block $($rest:tt)*) => {
        $crate::channel::select!(@munch [$($acc)* {recv($r) -> $p => $body}] $($rest)*)
    };
    (@munch [$($acc:tt)*] recv($r:expr) -> $p:pat => $body:expr , $($rest:tt)*) => {
        $crate::channel::select!(@munch [$($acc)* {recv($r) -> $p => {$body}}] $($rest)*)
    };
    (@munch [$($acc:tt)*] recv($r:expr) -> $p:pat => $body:expr) => {
        $crate::channel::select!(@munch [$($acc)* {recv($r) -> $p => {$body}}])
    };
    (@munch [$($acc:tt)*] default($t:expr) => $body:block $(,)?) => {
        $crate::channel::select!(@poll [$($acc)*] ($t) $body)
    };
    (@munch [$($acc:tt)*] default($t:expr) => $body:expr $(,)?) => {
        $crate::channel::select!(@poll [$($acc)*] ($t) {$body})
    };
    (@munch [$($acc:tt)*]) => {
        $crate::channel::select!(@poll [$($acc)*] (::std::time::Duration::MAX) {})
    };
    // All arms munched: expand the poll loop, then run the ready arm's
    // body (or the default's, at the deadline) at this block level so
    // `break`/`continue` reach the caller's enclosing loop.
    (@poll [$({recv($r:expr) -> $p:pat => $body:block})+] ($timeout:expr) $default:block) => {{
        let __deadline = ::std::time::Instant::now().checked_add($timeout);
        let __ready: usize = loop {
            let mut __i = 0usize;
            let mut __found = usize::MAX;
            $(
                #[allow(unused_assignments)]
                {
                    if __found == usize::MAX && $r.ready_hint() {
                        __found = __i;
                    }
                    __i += 1;
                }
            )+
            if __found != usize::MAX {
                break __found;
            }
            if __deadline.is_some_and(|d| ::std::time::Instant::now() >= d) {
                break usize::MAX;
            }
            std::thread::sleep(std::time::Duration::from_micros(50));
        };
        let mut __i = 0usize;
        $(
            #[allow(unused_assignments)]
            {
                if __ready == __i {
                    let $p = $r.recv();
                    $body
                }
                __i += 1;
            }
        )+
        if __ready == usize::MAX {
            $default
        }
    }};
    ($($tokens:tt)+) => {
        $crate::channel::select!(@munch [] $($tokens)+)
    };
}

// `crossbeam::channel::select!` path compatibility.
pub use crate::select;

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
    fn select_default_fires_after_timeout_when_nothing_is_ready() {
        let (_tx, rx) = unbounded::<u32>();
        let start = Instant::now();
        let timed_out = loop {
            select! {
                recv(rx) -> _msg => unreachable!(),
                default(Duration::from_millis(20)) => break true,
            }
        };
        assert!(timed_out);
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn select_ready_message_wins_over_default() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(3).unwrap();
        let got = loop {
            select! {
                recv(rx) -> msg => break msg.ok(),
                default(Duration::ZERO) => break None,
            }
        };
        assert_eq!(got, Some(3));
    }

    #[test]
    fn select_default_max_timeout_does_not_overflow() {
        let (tx, rx) = unbounded::<u32>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            tx.send(9).unwrap();
        });
        let got = loop {
            select! {
                recv(rx) -> msg => break msg.ok(),
                default(Duration::MAX) => unreachable!(),
            }
        };
        sender.join().unwrap();
        assert_eq!(got, Some(9));
    }

    #[test]
    fn select_runs_ready_arm_and_breaks_outer_loop() {
        let (tx_a, rx_a) = unbounded::<u32>();
        let (_tx_b, rx_b) = unbounded::<u32>();
        tx_a.send(7).unwrap();
        let got = loop {
            select! {
                recv(rx_a) -> msg => break Some(msg.unwrap()),
                recv(rx_b) -> _msg => unreachable!(),
            }
        };
        assert_eq!(got, Some(7));
    }
}
