//! Readiness polling behind a small [`Poller`] trait.
//!
//! The reactor in [`crate::server`] asks one question per pass: *which
//! of my file descriptors can make progress?* [`EpollPoller`] answers it
//! over raw `epoll`: the reactor **blocks** in `epoll_wait` until a
//! socket is actually readable/writable (or a [`Waker`] fires), so an
//! idle server consumes ~zero CPU and a busy one wakes exactly when the
//! kernel has bytes for it. The bindings are hand-rolled `extern "C"`
//! declarations against the C library the Rust standard library already
//! links — no `libc` crate, no epoll crate, the same "vendored stub over
//! a fancy dependency" trade the workspace makes everywhere else.
//!
//! The [`Waker`] is a cheap, clonable, thread-safe handle that makes a
//! concurrent (or future) `wait` return immediately: an `eventfd`
//! registered alongside the sockets. The acceptor wakes a worker after
//! dealing it a socket; [`Server::shutdown`] wakes everyone.
//!
//! The trait is the reactor's seam: [`Server::start`] builds an
//! [`EpollPoller`] per reactor thread, and a simulated poller could
//! stand in for it.
//!
//! [`Server::start`]: crate::server::Server::start
//! [`Server::shutdown`]: crate::server::Server::shutdown

use std::io;
use std::os::unix::io::RawFd;
use std::sync::Arc;
use std::time::Duration;

/// Which readiness a descriptor is registered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor has bytes to read (or hit EOF/error).
    pub readable: bool,
    /// Wake when the descriptor can accept writes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: usize,
    /// The descriptor is readable (data, EOF, or error — the nonblocking
    /// read disambiguates).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
}

/// A thread-safe handle that interrupts a [`Poller::wait`].
///
/// Wakes are **level** signals, not a queue: any number of `wake` calls
/// before a wait collapse into one immediate return. Safe to call from
/// any thread at any time, including after the poller is gone.
#[derive(Clone)]
pub struct Waker(Arc<sys::EventFd>);

impl Waker {
    /// Make the poller's current (or next) `wait` return immediately.
    pub fn wake(&self) {
        self.0.signal();
    }
}

/// A readiness source the reactor blocks on.
///
/// Registered descriptors must be nonblocking: readiness is permission
/// to *try*, and `WouldBlock` from the actual I/O is normal (spurious
/// wakeups are part of the contract).
pub trait Poller: Send {
    /// Start watching `fd` under `token`.
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;

    /// Change what `fd` is watched for.
    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;

    /// Stop watching `fd`. Call **before** closing the descriptor.
    fn deregister(&mut self, fd: RawFd, token: usize) -> io::Result<()>;

    /// Block until readiness, a [`Waker`] fires, or `timeout` elapses;
    /// append what became ready to `events` (cleared first). A
    /// zero timeout polls without blocking.
    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()>;

    /// A handle that interrupts `wait` from another thread.
    fn waker(&self) -> Waker;

    /// The longest `wait` this backend should be asked to block for —
    /// how stale its readiness picture may grow.
    fn max_idle(&self) -> Duration;
}

// ---------------------------------------------------------------------
// Raw epoll + eventfd, no libc crate.
// ---------------------------------------------------------------------

mod sys {
    //! Hand-rolled declarations of the handful of C-library symbols the
    //! epoll backend needs. The Rust standard library already links the
    //! platform C library on Linux, so declaring the prototypes is
    //! enough — this is a vendored shim, not a dependency.

    /// One epoll readiness record. x86/x86-64 pack it (kernel ABI);
    /// other architectures use natural alignment — same `#[cfg_attr]`
    /// split the `libc` crate ships.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;

    /// An owned `eventfd`: written to wake, drained on wakeup, closed on
    /// drop. Shared `Arc`'d between the poller and its [`super::Waker`]s.
    pub struct EventFd {
        fd: i32,
    }

    impl EventFd {
        pub fn new() -> std::io::Result<EventFd> {
            // Nonblocking: draining reads until EAGAIN must not hang,
            // and a full counter (2^64-1 wakes) failing a signal write
            // is harmless — the level is already set.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(EventFd { fd })
        }

        pub fn raw(&self) -> i32 {
            self.fd
        }

        /// Bump the counter; the epoll side sees the fd readable.
        pub fn signal(&self) {
            let one: u64 = 1;
            let _ = unsafe { write(self.fd, one.to_ne_bytes().as_ptr(), 8) };
        }

        /// Consume pending signals so the level clears.
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            while unsafe { read(self.fd, buf.as_mut_ptr(), 8) } == 8 {}
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            let _ = unsafe { close(self.fd) };
        }
    }
}

/// Token the waker eventfd is registered under — reserved; connection
/// slabs must never hand it out.
const WAKER_TOKEN: u64 = u64::MAX;

/// The Linux readiness backend: level-triggered epoll plus an `eventfd`
/// waker. `wait` blocks in the kernel until a registered descriptor is
/// actually ready, so idle connections cost nothing and wakeups carry
/// exactly the set of sockets worth pumping.
pub struct EpollPoller {
    epfd: RawFd,
    waker_fd: Arc<sys::EventFd>,
    /// Kernel-filled event buffer, reused across waits.
    buf: Vec<sys::EpollEvent>,
}

impl EpollPoller {
    /// An epoll instance with its waker eventfd already registered.
    pub fn new() -> io::Result<EpollPoller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let waker_fd = match sys::EventFd::new() {
            Ok(event_fd) => Arc::new(event_fd),
            Err(err) => {
                unsafe { sys::close(epfd) };
                return Err(err);
            }
        };
        let mut event = sys::EpollEvent {
            events: sys::EPOLLIN,
            data: WAKER_TOKEN,
        };
        if unsafe { sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, waker_fd.raw(), &mut event) } < 0 {
            let err = io::Error::last_os_error();
            unsafe { sys::close(epfd) };
            return Err(err);
        }
        Ok(EpollPoller {
            epfd,
            waker_fd,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut events = sys::EPOLLRDHUP;
        if interest.readable {
            events |= sys::EPOLLIN;
        }
        if interest.writable {
            events |= sys::EPOLLOUT;
        }
        let mut event = sys::EpollEvent {
            events,
            data: token as u64,
        };
        if unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut event) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

impl Drop for EpollPoller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

impl Poller for EpollPoller {
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    fn deregister(&mut self, fd: RawFd, _token: usize) -> io::Result<()> {
        // The kernel ignores the event argument for DEL on any kernel
        // this code can run on; pass a zeroed one for pre-2.6.9 strictness.
        let mut event = sys::EpollEvent { events: 0, data: 0 };
        if unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut event) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        events.clear();
        // Round a sub-millisecond timeout up, not down to busy-poll.
        let timeout_ms = if timeout.is_zero() {
            0
        } else {
            i32::try_from(timeout.as_millis().max(1)).unwrap_or(i32::MAX)
        };
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for slot in &self.buf[..n as usize] {
            let slot = *slot;
            if slot.data == WAKER_TOKEN {
                self.waker_fd.drain();
                continue;
            }
            events.push(Event {
                token: slot.data as usize,
                // Error/hangup conditions surface as both: the next
                // nonblocking read or write observes the real state.
                readable: slot.events
                    & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR)
                    != 0,
                writable: slot.events & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        // A full buffer means more events may be pending: grow so a busy
        // reactor drains the kernel queue in one wait.
        if n as usize == self.buf.len() && self.buf.len() < 4096 {
            self.buf
                .resize(self.buf.len() * 2, sys::EpollEvent { events: 0, data: 0 });
        }
        Ok(())
    }

    fn waker(&self) -> Waker {
        Waker(Arc::clone(&self.waker_fd))
    }

    fn max_idle(&self) -> Duration {
        // Purely a staleness bound for time-based bookkeeping (write
        // stall deadlines); readiness itself is event-driven.
        Duration::from_millis(500)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_backend_reports_readiness() {
        let mut poller = EpollPoller::new().expect("epoll");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        poller
            .register(server.as_raw_fd(), 7, Interest::READ)
            .expect("register");

        // Nothing to read yet: a short wait may time out or report a
        // spurious readiness; both are within contract.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(1))
            .expect("wait");

        client.write_all(b"hello").expect("write");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Duration::from_millis(50))
                .expect("wait");
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "epoll never reported the socket readable"
            );
        }
        let mut buf = [0u8; 16];
        let n = (&server).read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"hello");
        poller
            .deregister(server.as_raw_fd(), 7)
            .expect("deregister");
    }

    #[test]
    fn epoll_waker_interrupts_a_long_wait() {
        let mut poller = EpollPoller::new().expect("epoll");
        let waker = poller.waker();
        let started = std::time::Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_secs(30))
            .expect("wait");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "waker failed to interrupt epoll_wait"
        );
        assert!(events.is_empty(), "waker wakeups carry no events");
        handle.join().expect("join");
    }
}
