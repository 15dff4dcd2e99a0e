//! Offline stand-in for a mio-style readiness poller: the minimal
//! level-triggered `Poller` / `Events` / `Token` / `Waker` surface the
//! event-driven service plane needs, with no external dependencies.
//!
//! One backend: Linux `epoll(7)` through hand-declared libc externs (the
//! C library is already linked by `std`, so this needs no crates). Other
//! targets fail to compile; they should use the crates.io `polling` crate
//! instead (see `shims/README.md`).
//!
//! Events are level-triggered: an event repeats on every `poll` until
//! the condition is consumed (bytes read, buffer drained). The [`Waker`]
//! is the cross-thread nudge — `wake()` makes the next (or current)
//! `poll` return an event carrying the waker's token; the consumer
//! acknowledges with [`Waker::clear`] before draining whatever queue the
//! wake announced.

#![warn(rust_2018_idioms)]
#![deny(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "the offline `polling` shim has an epoll(7) backend only: on this target, point the \
     `polling` entry of [workspace.dependencies] at the crates.io `polling` crate"
);

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Caller-chosen identifier attached to a registration and echoed on its
/// events.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Token(pub usize);

/// Readiness interests, combined with `|`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest(u8);

impl Interest {
    /// Interested in the source becoming readable.
    pub const READABLE: Interest = Interest(0b01);
    /// Interested in the source becoming writable.
    pub const WRITABLE: Interest = Interest(0b10);

    /// True if this interest includes readability.
    pub fn is_readable(self) -> bool {
        self.0 & Self::READABLE.0 != 0
    }

    /// True if this interest includes writability.
    pub fn is_writable(self) -> bool {
        self.0 & Self::WRITABLE.0 != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// One readiness event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
    closed: bool,
}

impl Event {
    /// The token the source was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// The source is readable (or has hung up / errored — reading
    /// surfaces the EOF or error).
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// The source is writable.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// The peer hung up or the source errored. Readable is also set so a
    /// consumer that only checks readability still observes the EOF.
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}

/// A reusable batch of events filled by [`Poller::poll`].
#[derive(Debug, Default)]
pub struct Events {
    inner: Vec<Event>,
    capacity: usize,
}

impl Events {
    /// An event batch holding at most `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            inner: Vec::with_capacity(capacity),
            capacity: capacity.max(1),
        }
    }

    /// Iterate the events of the last poll.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.inner.iter()
    }

    /// Number of events delivered by the last poll.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the last poll delivered nothing (timeout).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

// The kernel ABI packs epoll_event on x86; glibc mirrors that with
// __EPOLL_PACKED, so the extern declarations below must match.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, max: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0x80000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_CLOEXEC: c_int = 0x80000;

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Round a timeout up to whole milliseconds (never busy-spin a sub-ms
/// timeout down to zero); `None` becomes -1 (infinite).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        Some(d) => d.as_millis().max(1).min(i32::MAX as u128) as i32,
    }
}

/// The readiness poller: one epoll instance. It is `Send` and `Sync`:
/// the kernel serializes `epoll_ctl` and `epoll_wait` on one descriptor,
/// so the polling thread and registering threads may share it.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Create a poller.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: a system call with no pointer arguments.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        let mut events = EPOLLRDHUP;
        if interest.is_readable() {
            events |= EPOLLIN;
        }
        if interest.is_writable() {
            events |= EPOLLOUT;
        }
        let mut ev = EpollEvent {
            events,
            data: token.0 as u64,
        };
        // SAFETY: `ev` is a valid event that outlives the call.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(drop)
    }

    /// Watch `source` for `interest`, tagging its events with `token`.
    pub fn register(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, source.as_raw_fd(), token, interest)
    }

    /// Change an existing registration's token or interest.
    pub fn reregister(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, source.as_raw_fd(), token, interest)
    }

    /// Stop watching `source`.
    pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
        // A dummy event keeps pre-2.6.9 kernels happy (NULL was EFAULT).
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, source.as_raw_fd(), &mut ev) }).map(drop)
    }

    /// Block until at least one event is ready, the timeout elapses, or a
    /// [`Waker`] fires. `None` waits forever.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.inner.clear();
        let mut buf = vec![EpollEvent { events: 0, data: 0 }; events.capacity];
        let n = loop {
            // SAFETY: the kernel writes at most `buf.len()` events into `buf`.
            match cvt(unsafe {
                epoll_wait(
                    self.epfd,
                    buf.as_mut_ptr(),
                    buf.len() as c_int,
                    timeout_ms(timeout),
                )
            }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for raw in &buf[..n] {
            let bits = { raw.events };
            let closed = bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
            events.inner.push(Event {
                token: Token({ raw.data } as usize),
                readable: bits & EPOLLIN != 0 || closed,
                writable: bits & EPOLLOUT != 0,
                closed,
            });
        }
        Ok(())
    }

    /// Create a waker delivering `token` to this poller's `poll`.
    pub fn waker(&self, token: Token) -> io::Result<Waker> {
        Waker::new(self, token)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: this value owns the descriptor and closes it once.
        unsafe { close(self.epfd) };
    }
}

/// A cross-thread nudge: `wake()` makes the paired poller return an event
/// with the waker's token. Cheap when already pending (an atomic test).
///
/// Single-consumer protocol: the polling thread, on receiving the waker's
/// token, calls [`Waker::clear`] *before* draining the queue the wake
/// announced; producers enqueue *before* calling `wake()`. That ordering
/// makes lost wakeups impossible and bounds the eventfd to one pending
/// signal.
pub struct Waker {
    fd: RawFd,
    armed: AtomicBool,
}

impl Waker {
    /// Create a waker (an eventfd) registered with `poller` under `token`.
    pub fn new(poller: &Poller, token: Token) -> io::Result<Waker> {
        // SAFETY: a system call with no pointer arguments.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC) })?;
        let waker = Waker {
            fd,
            armed: AtomicBool::new(false),
        };
        poller.ctl(EPOLL_CTL_ADD, fd, token, Interest::READABLE)?;
        Ok(waker)
    }

    /// Make the paired poller return (now or on its next `poll`) with this
    /// waker's token. Idempotent until [`Waker::clear`].
    pub fn wake(&self) -> io::Result<()> {
        if !self.armed.swap(true, Ordering::AcqRel) {
            let one: u64 = 1;
            // SAFETY: `one` is 8 readable bytes.
            if unsafe { write(self.fd, (&one as *const u64).cast(), 8) } != 8 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(())
    }

    /// Acknowledge a delivered wake; the next [`Waker::wake`] signals
    /// again. Call from the polling thread when the waker's token arrives.
    pub fn clear(&self) {
        // Reset the eventfd counter. The armed flag bounds pending signals
        // to one, so a single 8-byte read never blocks here.
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is 8 writable bytes.
        unsafe { read(self.fd, buf.as_mut_ptr().cast(), 8) };
        self.armed.store(false, Ordering::Release);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: this value owns the descriptor and closes it once.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    const LISTENER: Token = Token(0);
    const CLIENT: Token = Token(1);
    const WAKE: Token = Token(9);

    #[test]
    fn listener_and_stream_readiness() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(&listener, LISTENER, Interest::READABLE)
            .unwrap();

        // Nothing pending: a short poll times out empty.
        let mut events = Events::with_capacity(8);
        poller
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let accepted = loop {
            poller
                .poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events
                .iter()
                .any(|e| e.token() == LISTENER && e.is_readable())
            {
                match listener.accept() {
                    Ok((s, _)) => break s,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("accept: {e}"),
                }
            }
            assert!(std::time::Instant::now() < deadline, "no accept readiness");
        };

        // Data written by the client shows up as stream readability.
        accepted.set_nonblocking(true).unwrap();
        poller
            .register(&accepted, CLIENT, Interest::READABLE | Interest::WRITABLE)
            .unwrap();
        client.write_all(b"ping").unwrap();
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut stream = accepted;
        while got.len() < 4 {
            poller
                .poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            for event in &events {
                if event.token() == CLIENT && event.is_readable() {
                    let mut buf = [0u8; 16];
                    match stream.read(&mut buf) {
                        Ok(n) => got.extend_from_slice(&buf[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(e) => panic!("read: {e}"),
                    }
                }
            }
            assert!(std::time::Instant::now() < deadline, "no data readiness");
        }
        assert_eq!(&got, b"ping");
        poller.deregister(&stream).unwrap();
        poller.deregister(&listener).unwrap();
    }

    #[test]
    fn waker_crosses_threads() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(poller.waker(WAKE).unwrap());
        let w2 = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.wake().unwrap();
        });
        let mut events = Events::with_capacity(4);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token() == WAKE) {
                waker.clear();
                break;
            }
            assert!(std::time::Instant::now() < deadline, "wake never arrived");
        }
        handle.join().unwrap();
        // A cleared waker can fire again.
        waker.wake().unwrap();
        poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token() == WAKE));
        waker.clear();
    }
}
