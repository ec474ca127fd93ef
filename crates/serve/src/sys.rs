//! Thin raw-syscall bindings for the event-driven reactor: `epoll`,
//! `eventfd` and `setrlimit`, declared against the C library
//! the platform already links (no external crates — same offline
//! constraint as the in-tree JSON codec).
//!
//! This is the **only** module in the crate allowed to use `unsafe`
//! (`lib.rs` carries `#![deny(unsafe_code)]`; the module opts out with
//! a scoped `allow`). Every binding is wrapped in a safe RAII type
//! ([`Epoll`], [`EventFd`]) or a safe free function, so the reactor
//! itself stays entirely safe code. Registration takes the socket or
//! eventfd itself, never a raw fd.
//!
//! It is also the only module that knows which platform it runs on.
//! The bindings exist on Linux; elsewhere [`Epoll`] and [`EventFd`]
//! are uninhabited stand-ins whose constructors, like
//! [`raise_nofile_limit`], return [`io::ErrorKind::Unsupported`]. The rest of the crate compiles
//! unchanged on every platform, and off Linux `Server::run` returns
//! that error when the reactor asks for its first eventfd.

#![allow(unsafe_code)]

use std::io;

pub(crate) use imp::{Epoll, EventFd};
#[cfg(target_os = "linux")]
use linux as imp;
#[cfg(not(target_os = "linux"))]
use stand_in as imp;

// Event masks (bits of `epoll_event.events`).
/// The fd is readable.
pub(crate) const EPOLLIN: u32 = 0x001;
/// The fd is writable.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// An error condition happened on the fd (always reported).
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hang-up happened on the fd (always reported).
pub(crate) const EPOLLHUP: u32 = 0x010;
/// The peer shut down its writing half (half-close detection).
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

/// One ready event out of [`Epoll::wait`]: the interest mask bits that
/// fired plus the caller-chosen 64-bit token registered with the fd.
///
/// The kernel ABI packs this struct on x86-64; the attribute mirrors
/// the C definition exactly.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpollEvent {
    /// Fired event bits ([`EPOLLIN`] | [`EPOLLOUT`] | ...).
    pub events: u32,
    /// The token the fd was registered under.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event (for pre-sizing wait buffers).
    pub(crate) const fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

/// Raises the open-file soft limit to at least `want` fds (capped at
/// the hard limit). Serving thousands of concurrent connections needs
/// more than the common 1024-fd default; callers that fan out (the
/// `serve_perf` bench, production deployments) call this at startup.
/// Returns the resulting soft limit.
///
/// # Errors
///
/// The raw `getrlimit`/`setrlimit` failure; off Linux always
/// [`io::ErrorKind::Unsupported`].
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    imp::raise_nofile_limit(want)
}

#[cfg(target_os = "linux")]
mod linux {
    use std::io;
    use std::os::fd::{AsFd, AsRawFd, BorrowedFd, FromRawFd, OwnedFd};
    use std::os::raw::{c_int, c_uint, c_void};

    use super::EpollEvent;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;

    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    const RLIMIT_NOFILE: c_int = 7;

    #[repr(C)]
    struct RLimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }

    /// Converts a `-1`-on-error syscall return into `io::Result`.
    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An owned `epoll` instance; the fd closes on drop.
    #[derive(Debug)]
    pub(crate) struct Epoll {
        fd: OwnedFd,
    }

    impl Epoll {
        /// A fresh close-on-exec epoll instance.
        ///
        /// # Errors
        ///
        /// The raw `epoll_create1` failure.
        pub(crate) fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers.
            let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            // SAFETY: epoll_create1 returned a fresh fd we now own.
            Ok(Epoll {
                fd: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        fn ctl(&self, op: c_int, fd: BorrowedFd<'_>, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: both fds are open for the call (owned and borrowed),
            // and `ev` is a valid, live event the kernel only reads.
            cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd.as_raw_fd(), &mut ev) }).map(|_| ())
        }

        /// Registers `fd` with interest `events` under `token`.
        ///
        /// # Errors
        ///
        /// The raw `epoll_ctl` failure.
        pub(crate) fn add(&self, fd: &impl AsFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd.as_fd(), events, token)
        }

        /// Changes an already registered fd's interest mask.
        ///
        /// # Errors
        ///
        /// The raw `epoll_ctl` failure.
        pub(crate) fn modify(&self, fd: &impl AsFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd.as_fd(), events, token)
        }

        /// Deregisters `fd`.
        ///
        /// # Errors
        ///
        /// The raw `epoll_ctl` failure.
        pub(crate) fn delete(&self, fd: &impl AsFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd.as_fd(), 0, 0)
        }

        /// Waits up to `timeout_ms` (`-1` = forever) for ready events,
        /// filling `events` from the front; returns how many fired.
        /// `EINTR` retries internally.
        ///
        /// # Errors
        ///
        /// The raw `epoll_wait` failure (`EINVAL` for an empty `events`).
        pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            let cap = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
            loop {
                // SAFETY: the kernel writes at most `cap` events, and
                // `events` holds at least that many.
                let n = unsafe {
                    epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), cap, timeout_ms)
                };
                match cvt(n) {
                    Ok(n) => return Ok(n as usize),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }

    /// A nonblocking `eventfd` used to wake an epoll loop from another
    /// thread: [`EventFd::signal`] makes the fd readable, the woken loop
    /// [`EventFd::drain`]s it back to quiescence. Closes on drop.
    #[derive(Debug)]
    pub(crate) struct EventFd {
        fd: OwnedFd,
    }

    impl EventFd {
        /// A fresh nonblocking close-on-exec eventfd.
        ///
        /// # Errors
        ///
        /// The raw `eventfd` failure.
        pub(crate) fn new() -> io::Result<EventFd> {
            // SAFETY: eventfd takes no pointers.
            let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            // SAFETY: eventfd returned a fresh fd we now own.
            Ok(EventFd {
                fd: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        /// Makes the fd readable (wakes any epoll loop watching it).
        /// Saturation (`EAGAIN` on an already maximally signalled counter)
        /// is fine — the loop is awake either way.
        pub(crate) fn signal(&self) {
            let one: u64 = 1;
            // SAFETY: writing 8 bytes from a valid, live u64.
            let _ = unsafe {
                write(
                    self.fd.as_raw_fd(),
                    std::ptr::addr_of!(one).cast::<c_void>(),
                    8,
                )
            };
        }

        /// Consumes pending signals so the fd goes quiet again.
        pub(crate) fn drain(&self) {
            let mut buf: u64 = 0;
            // SAFETY: reading 8 bytes into a valid, live u64.
            let _ = unsafe {
                read(
                    self.fd.as_raw_fd(),
                    std::ptr::addr_of_mut!(buf).cast::<c_void>(),
                    8,
                )
            };
        }
    }

    impl AsFd for EventFd {
        fn as_fd(&self) -> BorrowedFd<'_> {
            self.fd.as_fd()
        }
    }

    pub(super) fn raise_nofile_limit(want: u64) -> io::Result<u64> {
        let mut lim = RLimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: passing a valid, live RLimit out-pointer.
        cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
        if lim.rlim_cur >= want {
            return Ok(lim.rlim_cur);
        }
        lim.rlim_cur = want.min(lim.rlim_max);
        // SAFETY: passing a valid, live RLimit in-pointer.
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &lim) })?;
        Ok(lim.rlim_cur)
    }
}

/// What the bindings are where `epoll` does not exist: types that
/// cannot be constructed, so everything past a failed constructor is
/// statically unreachable.
#[cfg(not(target_os = "linux"))]
mod stand_in {
    use std::io;

    use super::EpollEvent;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "predllc-serve needs Linux: its reactor runs on epoll",
        )
    }

    #[derive(Debug)]
    pub(crate) enum Epoll {}

    impl Epoll {
        pub(crate) fn new() -> io::Result<Epoll> {
            Err(unsupported())
        }

        pub(crate) fn add<T>(&self, _fd: &T, _events: u32, _token: u64) -> io::Result<()> {
            match *self {}
        }

        pub(crate) fn modify<T>(&self, _fd: &T, _events: u32, _token: u64) -> io::Result<()> {
            match *self {}
        }

        pub(crate) fn delete<T>(&self, _fd: &T) -> io::Result<()> {
            match *self {}
        }

        pub(crate) fn wait(
            &self,
            _events: &mut [EpollEvent],
            _timeout_ms: i32,
        ) -> io::Result<usize> {
            match *self {}
        }
    }

    #[derive(Debug)]
    pub(crate) enum EventFd {}

    impl EventFd {
        pub(crate) fn new() -> io::Result<EventFd> {
            Err(unsupported())
        }

        pub(crate) fn signal(&self) {
            match *self {}
        }

        pub(crate) fn drain(&self) {
            match *self {}
        }
    }

    pub(super) fn raise_nofile_limit(_want: u64) -> io::Result<u64> {
        Err(unsupported())
    }
}

#[cfg(all(test, not(target_os = "linux")))]
mod stand_in_tests {
    #[test]
    fn run_is_unsupported() {
        let server = crate::Server::bind("127.0.0.1:0", crate::ServerConfig::default()).unwrap();
        let err = server.run().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
        assert_eq!(
            crate::raise_nofile_limit(64).unwrap_err().kind(),
            std::io::ErrorKind::Unsupported
        );
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn eventfd_signals_and_drains() {
        let efd = EventFd::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(&efd, EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        // Quiet fd: a zero-timeout wait sees nothing.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        efd.signal();
        efd.signal();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        let (data, bits) = {
            let ev = events[0];
            (ev.data, ev.events)
        };
        assert_eq!(data, 7);
        assert_ne!(bits & EPOLLIN, 0);
        // Drained, the fd goes quiet again (level-triggered).
        efd.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_sees_socket_readability_and_tokens() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(&rx, EPOLLIN, 42).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "nothing sent yet");
        tx.write_all(b"ping").unwrap();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        let (data, bits) = {
            let ev = events[0];
            (ev.data, ev.events)
        };
        assert_eq!(data, 42);
        assert_ne!(bits & EPOLLIN, 0);
        // Interest can be narrowed to write-only and back.
        ep.modify(&rx, EPOLLOUT, 42).unwrap();
        let n = ep.wait(&mut events, 100).unwrap();
        assert!(n >= 1, "a fresh socket is writable");
        let bits = {
            let ev = events[0];
            ev.events
        };
        assert_ne!(bits & EPOLLOUT, 0);
        ep.delete(&rx).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn nofile_limit_is_monotone() {
        let now = raise_nofile_limit(0).unwrap();
        assert!(now > 0);
        // Asking for what we already have (or less) never lowers it.
        assert!(raise_nofile_limit(now.min(64)).unwrap() >= now.min(64));
    }
}
