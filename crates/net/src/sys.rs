//! The workspace's one foreign call: `poll(2)`.
//!
//! The single `unsafe` block below is all there is in the repo's
//! libraries and binaries (one test, `tests/alloc_budget.rs`, also
//! implements the unsafe trait `GlobalAlloc` to count allocations); a
//! CI step greps that it stays that way. `poll` rather than `epoll`:
//! one function, no registration lifecycle, any unix. The event
//! constants have the same values on Linux, the BSDs and macOS.

use std::io;
use std::os::raw::{c_int, c_short};
use std::os::unix::io::RawFd;
use std::time::{Duration, Instant};

pub(crate) const POLLIN: c_short = 0x001;
pub(crate) const POLLOUT: c_short = 0x004;
pub(crate) const POLLERR: c_short = 0x008;
pub(crate) const POLLHUP: c_short = 0x010;
pub(crate) const POLLNVAL: c_short = 0x020;

/// `struct pollfd`. A stale or negative `fd` is harmless to the kernel
/// (`POLLNVAL`, or ignored), so the fields need no guarding.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    pub fd: RawFd,
    pub events: c_short,
    pub revents: c_short,
}

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` passes (`None`:
/// no timeout); each entry's `revents` is overwritten. Returns how many
/// entries are ready.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    retry_interrupted(timeout, |ms| {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `PollFd`s laid out as `struct pollfd`, and `nfds` is its
        // length (a cast that could only ever shorten it), so the kernel
        // reads and writes only inside it; the call keeps no pointer
        // past its return.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    })
}

/// `poll`'s timeout argument: `-1` blocks, and a fraction of a
/// millisecond rounds **up** — 100 µs must be one 1 ms wait, not a
/// zero-timeout busy loop.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    })
}

/// Call `wait` again after `EINTR`, with whatever is left of `timeout`.
fn retry_interrupted(
    timeout: Option<Duration>,
    mut wait: impl FnMut(c_int) -> io::Result<usize>,
) -> io::Result<usize> {
    let deadline = timeout.map(|t| Instant::now() + t);
    let mut left = timeout;
    loop {
        match wait(timeout_ms(left)) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            }
            done => return done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeouts_round_up_to_whole_milliseconds() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_nanos(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1001))), 2);
        assert_eq!(timeout_ms(Some(Duration::MAX)), c_int::MAX);
    }

    #[test]
    fn a_100us_timeout_is_one_wait_of_at_least_100us() {
        let mut waits = Vec::new();
        let n = retry_interrupted(Some(Duration::from_micros(100)), |ms| {
            waits.push(ms);
            Ok(0)
        });
        assert_eq!(n.unwrap(), 0);
        assert_eq!(waits, [1], "one wait, never a zero-timeout loop");

        // And through the real call, with nothing to wait for.
        let start = Instant::now();
        assert_eq!(
            poll_fds(&mut [], Some(Duration::from_micros(100))).unwrap(),
            0
        );
        assert!(start.elapsed() >= Duration::from_micros(100));
    }

    #[test]
    fn eintr_is_retried_with_the_remaining_timeout() {
        let mut waits = Vec::new();
        let n = retry_interrupted(Some(Duration::from_millis(50)), |ms| {
            waits.push(ms);
            if waits.len() < 3 {
                std::thread::sleep(Duration::from_millis(2));
                Err(io::Error::from(io::ErrorKind::Interrupted))
            } else {
                Ok(1)
            }
        });
        assert_eq!(n.unwrap(), 1);
        assert_eq!(waits.len(), 3);
        assert_eq!(waits[0], 50);
        assert!(waits[1] < 50 && waits[2] < waits[1], "{waits:?}");

        // No timeout stays no timeout; other errors are not swallowed.
        let mut calls = 0;
        let err = retry_interrupted(None, |ms| {
            assert_eq!(ms, -1);
            calls += 1;
            Err(io::Error::from(if calls == 1 {
                io::ErrorKind::Interrupted
            } else {
                io::ErrorKind::InvalidInput
            }))
        });
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert_eq!(calls, 2);
    }

    #[test]
    fn a_closed_fd_is_reported_not_dereferenced() {
        let mut fds = [PollFd {
            fd: RawFd::MAX,
            events: POLLIN,
            revents: 0,
        }];
        assert_eq!(poll_fds(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert_eq!(fds[0].revents, POLLNVAL);
    }
}
