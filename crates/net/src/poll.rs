//! Waiting in the kernel: one blocking `poll(2)` per reactor tick.
//!
//! A [`Poller`] is the set of sockets a thread is waiting on plus the
//! read end of that thread's **wake channel** (a nonblocking
//! `UnixStream` pair; the write end is its [`Waker`]). One
//! [`Poller::wait`] is one [`sys::poll_fds`](crate::sys::poll_fds) call
//! over all of them, so a thread with nothing to do sleeps in the kernel
//! until the thing it waits for happens — bytes arrive, a blocked socket
//! drains, or someone writes a wake byte — and costs nothing meanwhile.
//! The set is rebuilt every tick into a `Vec` that keeps its capacity;
//! `poll(2)` has no registration to keep in step with the connections.
//!
//! # Wake sites
//!
//! The event loops and the acceptor wait with **no timeout** unless a
//! writer is blocked, so a wake that is never sent is a hang. There are
//! exactly three senders, each of which publishes its state *before*
//! the byte, and every waiter re-reads that state after every return
//! from [`Poller::wait`]:
//!
//! 1. the acceptor, after pushing a socket into a loop's inbox
//!    (`server::accept_loop`) — wakes that loop;
//! 2. [`NetServer::begin_shutdown`](crate::NetServer::begin_shutdown) /
//!    `shutdown`, after setting the flag — wakes every loop and the
//!    acceptor;
//! 3. `Drop for NetServer`, likewise.
//!
//! A wake that finds the channel full (`WouldBlock`) is dropped: a full
//! channel is already a pending wake. The waiter drains the channel
//! whenever it is readable.
//!
//! # Hang-ups
//!
//! `poll(2)` reports `POLLHUP`/`POLLERR` whatever was asked for, so a
//! source pushed with no interest would turn the wait into a spin once
//! its peer reset: callers push only sources they will act on.
//! [`Poller::readable`] is true for those conditions too, so the read
//! path meets the error and the connection is reaped.

use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

/// The write end of a [`Poller`]'s wake channel.
pub(crate) struct Waker(UnixStream);

impl Waker {
    /// Make the paired [`Poller::wait`] return (now, or the next time it
    /// is called). Never blocks.
    pub fn wake(&self) {
        // Every failure is benign: `WouldBlock` means a wake is already
        // pending, a closed peer means the waiter has exited.
        let _ = (&self.0).write(&[1]);
    }
}

/// One thread's wait set: slot 0 is its wake channel, the rest are
/// whatever it [`push`](Poller::push)ed since the last
/// [`clear`](Poller::clear).
pub(crate) struct Poller {
    wake: UnixStream,
    fds: Vec<PollFd>,
}

impl Poller {
    /// An empty wait set and the handle that wakes it.
    pub fn new() -> io::Result<(Poller, Waker)> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        let fds = vec![PollFd {
            fd: rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        Ok((Poller { wake: rx, fds }, Waker(tx)))
    }

    /// Forget every pushed source (the wake channel stays).
    pub fn clear(&mut self) {
        self.fds.truncate(1);
    }

    /// Add a source; it must stay open until the next
    /// [`clear`](Poller::clear). At least one of `read`/`write` should
    /// be set (see the module header on hang-ups).
    pub fn push(&mut self, source: &impl AsRawFd, read: bool, write: bool) {
        let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
        self.fds.push(PollFd {
            fd: source.as_raw_fd(),
            events,
            revents: 0,
        });
    }

    /// Block until a pushed source is ready, the [`Waker`] fires, or
    /// `timeout` passes (`None`: wait for as long as it takes; fractions
    /// of a millisecond round up). Returns how many pushed sources are
    /// ready. The caller re-reads whatever its wakers publish after
    /// every return, ready sources or not.
    pub fn wait(&mut self, timeout: Option<Duration>) -> usize {
        let ready = sys::poll_fds(&mut self.fds, timeout).unwrap_or_else(|_| {
            // The kernel could not run the poll (ENOMEM; the arguments
            // are ours and valid). Nonblocking I/O is its own probe:
            // report everything asked for and let the attempts decide.
            for fd in &mut self.fds {
                fd.revents = fd.events;
            }
            self.fds.len()
        });
        if self.fds[0].revents == 0 {
            return ready;
        }
        let mut sink = [0u8; 64];
        while matches!((&self.wake).read(&mut sink), Ok(n) if n > 0) {}
        ready - 1
    }

    /// After [`wait`](Poller::wait): would a read on the `nth` pushed
    /// source make progress — data, EOF, or an error to surface?
    pub fn readable(&self, nth: usize) -> bool {
        self.fds[nth + 1].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        (served, peer)
    }

    const FOREVER: Option<Duration> = None;
    const NOW: Option<Duration> = Some(Duration::ZERO);

    #[test]
    fn quiet_socket_is_not_readable_and_data_makes_it_readable() {
        let (served, mut peer) = pair();
        let (mut poller, _waker) = Poller::new().unwrap();
        poller.push(&served, true, false);
        assert_eq!(poller.wait(NOW), 0);
        assert!(!poller.readable(0));

        peer.write_all(b"x").unwrap();
        assert_eq!(poller.wait(FOREVER), 1);
        assert!(poller.readable(0));
    }

    #[test]
    fn peer_close_and_reset_are_readable() {
        let (served, peer) = pair();
        let (mut poller, _waker) = Poller::new().unwrap();
        poller.push(&served, true, false);
        drop(peer);
        assert_eq!(poller.wait(FOREVER), 1);
        assert!(poller.readable(0), "EOF: the read observes the close");

        // Writing to the closed peer draws a reset; from then on the
        // kernel reports the hang-up even to a source that asked only
        // for writability, and it still counts as readable so the read
        // path can surface it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while (&served).write(b"x").is_ok() {
            assert!(
                Instant::now() < deadline,
                "write to a closed peer kept working"
            );
            std::thread::yield_now();
        }
        poller.clear();
        poller.push(&served, false, true);
        assert_eq!(poller.wait(FOREVER), 1);
        assert!(poller.fds[1].revents & (POLLHUP | POLLERR) != 0);
        assert!(poller.readable(0));
    }

    #[test]
    fn full_send_buffer_is_not_writable_until_the_peer_drains() {
        let (served, mut peer) = pair();
        let (mut poller, _waker) = Poller::new().unwrap();
        // An idle socket has room: write interest is ready at once,
        // without being mistaken for readable.
        poller.push(&served, false, true);
        assert_eq!(poller.wait(FOREVER), 1);
        assert!(!poller.readable(0));

        let chunk = [0u8; 64 * 1024];
        let mut queued = 0usize;
        loop {
            match (&served).write(&chunk) {
                Ok(n) => queued += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("filling the send buffer: {e}"),
            }
        }
        // Blocked: write interest alone no longer returns early — not
        // even once the peer has half-closed, because nobody asked about
        // reading. Asked, the EOF is readable for good: a connection
        // that has seen it must drop its read interest or spin.
        peer.shutdown(std::net::Shutdown::Write).unwrap();
        let start = Instant::now();
        assert_eq!(poller.wait(Some(Duration::from_millis(30))), 0);
        assert!(start.elapsed() >= Duration::from_millis(30));
        poller.clear();
        poller.push(&served, true, true);
        assert_eq!(poller.wait(FOREVER), 1);
        assert!(poller.readable(0));
        poller.clear();
        poller.push(&served, false, true);

        let drainer = std::thread::spawn(move || {
            let mut left = queued;
            let mut buf = vec![0u8; 64 * 1024];
            while left > 0 {
                left -= peer.read(&mut buf).unwrap();
            }
        });
        assert_eq!(poller.wait(FOREVER), 1, "drained peer makes it writable");
        drainer.join().unwrap();
    }

    #[test]
    fn untimed_wait_returns_on_the_wake_byte_and_not_before() {
        let (served, _peer) = pair();
        let (mut poller, waker) = Poller::new().unwrap();
        poller.push(&served, true, false);
        let delay = Duration::from_millis(20);
        let start = Instant::now();
        let sender = std::thread::spawn(move || {
            sys::poll_fds(&mut [], Some(delay)).unwrap();
            waker.wake();
            waker
        });
        assert_eq!(poller.wait(FOREVER), 0, "woken, nothing ready");
        assert!(start.elapsed() >= delay);
        let waker = sender.join().unwrap();

        // The byte was consumed: the next wait is quiet again.
        assert_eq!(poller.wait(NOW), 0);

        // Wakes coalesce, and a full channel is a pending wake, not an
        // error or a block.
        for _ in 0..100_000 {
            waker.wake();
        }
        assert_eq!(poller.wait(FOREVER), 0);
        assert_eq!(poller.wait(NOW), 0, "one wait drains every pending byte");
    }
}
