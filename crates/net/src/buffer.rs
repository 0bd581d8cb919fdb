//! Pooled per-connection buffers for the reactor.
//!
//! Every connection owns a read-side [`FrameBuffer`] and a write-side
//! `Vec<u8>`. At thread-per-connection scale that allocation churn is
//! invisible; at reactor scale (thousands of short-lived connections
//! hash-pinned to a handful of loops) it is worth recycling. Each
//! event loop owns one [`BufferPool`] — single-threaded, no locks —
//! and connections check buffers out on admit and back in on reap.
//!
//! The pool is deliberately bounded on both axes: it keeps at most
//! [`POOL_CAP`] buffers of each kind, and refuses to retain a buffer
//! whose capacity grew past [`RETAIN_CAP`] (one oversized response
//! burst must not pin megabytes for the rest of the process). A banked
//! [`FrameBuffer`] comes back empty but keeps its initialised capacity,
//! so the next connection's socket reads zero-fill nothing.

use crate::wire::FrameBuffer;

/// Most buffers of each kind a pool retains.
const POOL_CAP: usize = 64;
/// Largest capacity worth keeping; bigger buffers are dropped.
const RETAIN_CAP: usize = 256 * 1024;

/// A single-threaded recycler for connection buffers. One per event
/// loop.
pub(crate) struct BufferPool {
    read: Vec<FrameBuffer>,
    write: Vec<Vec<u8>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> BufferPool {
        BufferPool {
            read: Vec::new(),
            write: Vec::new(),
        }
    }

    /// A cleared read-side frame buffer, recycled if one is banked.
    pub fn take_read(&mut self) -> FrameBuffer {
        self.read.pop().unwrap_or_default()
    }

    /// A cleared write-side byte buffer, recycled if one is banked.
    pub fn take_write(&mut self) -> Vec<u8> {
        self.write.pop().unwrap_or_default()
    }

    /// Bank a finished connection's frame buffer for reuse.
    pub fn put_read(&mut self, mut fb: FrameBuffer) {
        if self.read.len() < POOL_CAP && fb.capacity() <= RETAIN_CAP {
            fb.reset();
            self.read.push(fb);
        }
    }

    /// Bank a finished connection's write buffer for reuse.
    pub fn put_write(&mut self, mut buf: Vec<u8>) {
        if self.write.len() < POOL_CAP && buf.capacity() <= RETAIN_CAP {
            buf.clear();
            self.write.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled_cleared_and_bounded() {
        let mut pool = BufferPool::new();
        let mut fb = pool.take_read();
        fb.extend(&[1, 2, 3]);
        // A socket-sized read leaves initialised spare room behind.
        fb.read_from(&mut &[4u8, 5][..], 1024).unwrap();
        let read_cap = fb.capacity();
        pool.put_read(fb);
        let mut recycled = pool.take_read();
        assert_eq!(recycled.pending(), 0, "banked buffers come back empty");
        assert_eq!(recycled.capacity(), read_cap, "allocation is reused");
        // Stale bytes in the kept room never resurface as input.
        recycled.read_from(&mut &[6u8][..], 1024).unwrap();
        assert_eq!(recycled.pending(), 1);
        assert_eq!(
            recycled.capacity(),
            read_cap,
            "no regrowth for a read that fits"
        );

        let mut w = pool.take_write();
        w.extend_from_slice(b"response bytes");
        let write_cap = w.capacity();
        pool.put_write(w);
        let w = pool.take_write();
        assert!(w.is_empty());
        assert_eq!(w.capacity(), write_cap);

        // Oversized buffers are dropped, not hoarded.
        pool.put_write(Vec::with_capacity(RETAIN_CAP + 1));
        assert_eq!(pool.take_write().capacity(), 0);

        // The pool depth is bounded.
        for _ in 0..POOL_CAP + 8 {
            pool.put_write(Vec::with_capacity(16));
        }
        assert_eq!(pool.write.len(), POOL_CAP);
    }
}
