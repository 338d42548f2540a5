//! Readiness poller: edge-triggered `epoll(7)`.
//!
//! The workspace vendors no `libc`, so the handful of syscalls the
//! reactor needs are declared here directly against the C library the
//! Rust standard library already links. This module is the **only**
//! place in the repository that touches raw file descriptors; everything
//! above it works in terms of [`Poller`], [`Event`], and safe `std::net`
//! sockets (`mod.rs` and `conn.rs` allow `clippy::disallowed_types` for them).
//!
//! Every descriptor is registered with `EPOLLET`: the reactor's read and
//! write paths always drain until `WouldBlock`, which is the invariant
//! edge triggering requires.

use std::io;
use std::os::unix::io::RawFd;

// -- FFI surface -----------------------------------------------------------
//
// Signatures match the Linux C library. `epoll_event` is packed on
// x86_64 (the kernel ABI) and naturally aligned elsewhere.

#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

/// Readiness reported for one registered descriptor.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Descriptor is readable (or the peer hung up — reading yields the
    /// EOF).
    pub readable: bool,
    /// Descriptor is writable.
    pub writable: bool,
    /// Error or hangup condition; the owner should read to observe the
    /// error/EOF and close.
    pub error: bool,
}

/// Interest set for one descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readability.
    pub read: bool,
    /// Wake on writability.
    pub write: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// One event loop's readiness source. Single-threaded by design: only
/// its loop's thread registers, modifies, and waits (cross-thread wakeups
/// go through the loop's wake pipe, which is itself just another
/// registered fd).
pub struct Poller {
    epfd: RawFd,
    /// Scratch buffer reused across waits.
    events: Vec<EpollEvent>,
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn epoll_mask(interest: Interest) -> u32 {
    let mut mask = EPOLLRDHUP | EPOLLET;
    if interest.read {
        mask |= EPOLLIN;
    }
    if interest.write {
        mask |= EPOLLOUT;
    }
    mask
}

impl Poller {
    /// Opens an epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes a flag word and returns a new fd
        // or -1; no pointers are involved.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd,
            events: vec![EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    /// Starts watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: epoll_mask(interest),
            data: token,
        };
        // SAFETY: `ev` is a live, properly initialized epoll_event
        // for the duration of the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) })?;
        Ok(())
    }

    /// Replaces the interest set of a registered `fd`.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: epoll_mask(interest),
            data: token,
        };
        // SAFETY: as in `register` — valid event struct, kernel
        // copies it out before returning.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) })?;
        Ok(())
    }

    /// Stops watching `fd`. Call it before the descriptor is closed.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: the event pointer is ignored for EPOLL_CTL_DEL on
        // modern kernels but must be non-null for pre-2.6.9 ABI
        // compatibility; `ev` satisfies that.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Waits up to `timeout_ms` for readiness, appending to `out`.
    /// Returns the number of events delivered; `0` means the timeout
    /// elapsed. `EINTR` is reported as `0` rather than an error.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        let events = &mut self.events;
        // SAFETY: `events` is a live buffer of `events.len()`
        // epoll_event slots; the kernel writes at most that many.
        let n = unsafe {
            epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
        };
        let n = match cvt(n) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in events.iter().take(n) {
            // Copy out of the (possibly packed) struct before use.
            let mask = ev.events;
            let token = ev.data;
            out.push(Event {
                token,
                readable: mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: mask & EPOLLOUT != 0,
                error: mask & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        // Grow the scratch buffer if we saturated it.
        if n == events.len() {
            events.resize(events.len() * 2, EpollEvent { events: 0, data: 0 });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is an fd this struct opened and uniquely owns;
        // nothing else closes it.
        let _ = unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn epoll_edge_roundtrip() {
        let mut poller = Poller::new().unwrap();
        let (a, mut b) = pair();
        poller.register(a.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing ready yet.
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        // Data makes it readable.
        b.write_all(b"x").unwrap();
        events.clear();
        poller.wait(&mut events, 1000).unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("readable event");
        assert!(ev.readable);

        // Drain (required under edge triggering before the next wait).
        let mut sink = [0u8; 8];
        let mut a_ref = &a;
        while matches!(a_ref.read(&mut sink), Ok(n) if n > 0) {}

        // Write interest fires immediately on an empty socket buffer.
        poller
            .modify(
                a.as_raw_fd(),
                7,
                Interest {
                    read: true,
                    write: true,
                },
            )
            .unwrap();
        events.clear();
        poller.wait(&mut events, 1000).unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("writable event");
        assert!(ev.writable);

        poller.deregister(a.as_raw_fd()).unwrap();
        events.clear();
        b.write_all(b"y").unwrap();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 7));
    }

    #[test]
    fn hangup_reports_readable() {
        let mut poller = Poller::new().unwrap();
        let (a, b) = pair();
        poller.register(a.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(b);
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).unwrap();
        let ev = events.iter().find(|e| e.token == 1).expect("hup event");
        assert!(ev.readable, "hangup must surface as readability (EOF)");
    }
}
