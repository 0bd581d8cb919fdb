//! Heap-allocation budget of the combined write path.
//!
//! Its own test binary with a single `#[test]`, because the counting
//! allocator is process-global: a second test running on another thread
//! would be counted too.
//!
//! The store shape is the benchmark's (`benchmark/README.md`, "The fixed
//! shape of every run"): 4 shards, checkpoint interval 64,
//! fault rate 0.2, 4,096 keys preloaded to two thirds.

use functional_faults::store::{Backend, Kv, Store, StoreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation
        // and `new_size` is the caller's, passed through untouched.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: u32 = 4096;
const PUTS: u32 = 100_000;

/// `(allocations, bytes)` per combined `put`, measured after preload.
fn per_put(backend: Backend) -> (f64, f64) {
    let store = Store::new(
        StoreConfig::builder()
            .shards(4)
            .backend(backend)
            .fault_rate(0.2)
            .checkpoint_interval(64)
            .seed(7)
            .build()
            .expect("the benchmark's store shape is valid"),
    );
    let mut client = store.client();
    for key in (0..KEYS).filter(|k| k % 3 != 0) {
        client.put(key, key).expect("preload put");
    }
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    for i in 0..PUTS {
        let key = i.wrapping_mul(2_654_435_761) % KEYS;
        client.put(key, i).expect("measured put");
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let bytes = BYTES.load(Ordering::Relaxed) - b0;
    assert!(store.verify(&mut [client]).all_consistent());
    (allocs as f64 / PUTS as f64, bytes as f64 / PUTS as f64)
}

#[test]
fn combined_put_stays_within_its_allocation_budget() {
    for (backend, budget) in [(Backend::robust(), 8.0), (Backend::reliable(), 7.0)] {
        let name = backend.name();
        let (allocs, bytes) = per_put(backend);
        println!("{name}: {allocs:.2} allocations, {bytes:.0} B per put");
        assert!(
            allocs <= budget,
            "{name}: {allocs:.2} allocations per put exceeds the budget of {budget}"
        );
    }
}
