//! Waiting on many sockets at once: `poll(2)`, which std does not wrap,
//! declared against the C library std already links with the kernel's
//! `struct pollfd` layout. The only file with `unsafe` (DESIGN.md §5):
//! the call in [`wait`], and two test blocks that signal a waiter.

use std::ffi::{c_int, c_ulong};
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Readable, or a listener with a connection waiting.
pub const POLLIN: i16 = 0x1;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x4;

/// One descriptor to wait on, laid out as `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Waits on `fd` for `events` ([`POLLIN`], [`POLLOUT`] or both).
    pub fn new(fd: &impl AsRawFd, events: i16) -> PollFd {
        PollFd { fd: fd.as_raw_fd(), events, revents: 0 }
    }

    /// Whether a read will not block: data, a connection, a hang-up or an error.
    pub fn readable(&self) -> bool {
        self.revents & !POLLOUT != 0
    }

    /// Whether a write will not block (or will fail at once).
    pub fn writable(&self) -> bool {
        self.revents & !POLLIN != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Waits until a descriptor in `fds` is ready or `timeout` (rounded up to
/// whole milliseconds; `None`: no limit) has passed; returns how many are
/// ready. A signal that interrupts the wait returns 0, as a timeout does.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = timeout.map_or(-1, |t| t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int);
    // SAFETY: poll writes only the `revents` of the `fds.len()` entries `fds` lends.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
    match io::Error::last_os_error() {
        _ if n >= 0 => Ok(n as usize),
        e if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        e => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::mailbox;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::os::unix::thread::JoinHandleExt;
    use std::time::Instant;

    fn pair() -> (UnixStream, UnixStream) {
        UnixStream::pair().expect("socket pair")
    }

    #[test]
    fn reports_what_is_ready_and_nothing_else() {
        let ((a, mut b), (c, _d)) = (pair(), pair());
        b.write_all(b"x").expect("write");
        let mut fds = [PollFd::new(&a, POLLIN), PollFd::new(&c, POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(5))).expect("poll"), 1);
        assert!(fds[0].readable() && !fds[0].writable(), "{:?}", fds[0]);
        assert!(!fds[1].readable(), "{:?}", fds[1]);
        let mut fds = [PollFd::new(&c, POLLIN | POLLOUT)];
        assert_eq!(wait(&mut fds, None).expect("poll"), 1);
        assert!(fds[0].writable() && !fds[0].readable(), "{:?}", fds[0]);
    }

    #[test]
    fn times_out_with_nothing_ready_and_never_rounds_down_to_a_spin() {
        let (a, _b) = pair();
        let mut fds = [PollFd::new(&a, POLLIN)];
        for timeout in [Duration::from_millis(30), Duration::from_micros(300)] {
            let from = Instant::now();
            assert_eq!(wait(&mut fds, Some(timeout)).expect("poll"), 0);
            assert!(from.elapsed() >= timeout, "returned before {timeout:?}");
            assert!(!fds[0].readable());
        }
    }

    #[test]
    fn a_hang_up_is_readable_and_reads_end_of_file() {
        let (a, b) = pair();
        drop(b);
        let mut fds = [PollFd::new(&a, POLLIN)];
        assert_eq!(wait(&mut fds, None).expect("poll"), 1);
        assert!(fds[0].readable());
        assert_eq!((&a).read(&mut [0u8; 8]).expect("read"), 0);
    }

    #[test]
    fn a_signal_ends_the_wait_with_nothing_ready() {
        extern "C" {
            fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
            fn pthread_kill(thread: c_ulong, signum: c_int) -> c_int;
        }
        extern "C" fn ignore(_: c_int) {}
        const SIGUSR1: c_int = 10;
        // SAFETY: the handler does nothing, so it is async-signal-safe.
        unsafe { signal(SIGUSR1, ignore) };
        let (a, _b) = pair();
        let waiter = std::thread::spawn(move || {
            let mut fds = [PollFd::new(&a, POLLIN)];
            let from = Instant::now();
            let n = wait(&mut fds, Some(Duration::from_secs(30))).expect("EINTR is no error");
            (n, fds[0].readable(), from.elapsed())
        });
        // A signal that lands before the thread is in `poll` only runs the
        // handler, so keep signalling until the wait has ended.
        while !waiter.is_finished() {
            // SAFETY: the thread is not joined yet, so its id is live.
            unsafe { pthread_kill(waiter.as_pthread_t() as c_ulong, SIGUSR1) };
            std::thread::sleep(Duration::from_millis(5));
        }
        let (n, readable, took) = waiter.join().expect("waiter");
        assert_eq!((n, readable), (0, false));
        assert!(took < Duration::from_secs(20), "the signal did not end the wait");
    }

    /// A sender queues an event, and wakes the site only if it parked;
    /// the site parks only after a last look finds the mailbox empty.
    /// Whichever runs first, the site either sees the event or is woken:
    /// no wake is lost.
    #[test]
    fn a_wake_that_races_the_park_is_never_lost() {
        for round in 0..2_000u32 {
            let (mailbox, inbox) = mailbox::<u32>();
            // The sender hands its mailbox back: a dropped one would wake
            // the site too (end of file).
            let sender = std::thread::spawn(move || mailbox.send(round).then_some(mailbox));
            if inbox.park() {
                let mut fds = [inbox.poll_fd()];
                let n = wait(&mut fds, Some(Duration::from_secs(10))).expect("poll");
                assert_eq!(n, 1, "round {round}: the wake was lost");
                assert!(inbox.unpark(fds[0].readable()), "a mailbox is still open");
            }
            let mailbox = sender.join().expect("sender").expect("the site is open");
            assert_eq!(inbox.next(), Some(round));
            drop(mailbox);
        }
    }

    #[test]
    fn a_site_that_did_not_park_is_sent_to_without_a_wake() {
        let (mailbox, inbox) = mailbox::<u32>();
        assert!(mailbox.send(1));
        let mut fds = [inbox.poll_fd()];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).expect("poll"), 0, "a busy site was rung");
        assert!(!inbox.park(), "an event is waiting");
        assert_eq!(inbox.next(), Some(1));
        drop(mailbox);
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(5))).expect("poll"), 1);
        assert!(!inbox.unpark(true), "every mailbox is gone");
    }
}
