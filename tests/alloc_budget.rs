//! Heap-allocation budgets of the combined write path and of the wire
//! path.
//!
//! Its own test binary with a single `#[test]`, because the counting
//! allocator is process-global: a second test running on another thread
//! would be counted too.
//!
//! The store shape is the benchmark's (`benchmark/README.md`, "The fixed
//! shape of every run"): 4 shards, checkpoint interval 64,
//! fault rate 0.2, 4,096 keys preloaded to two thirds.

use functional_faults::net::wire::{encode_request, Request, Response};
use functional_faults::net::{FrameBuffer, Session, StatsReply};
use functional_faults::store::{Backend, Kv, KvOp, Store, StoreConfig};
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

const FRAMES: usize = 256;
const ROUNDS: usize = 64;

/// Allocations per frame of one TCP serve pass without the socket:
/// encode `FRAMES` requests (single ops and one three-op BATCH) into a
/// reused buffer, stage them through a [`Session`], resolve them against
/// a canned outcome, and decode the answers with
/// [`FrameBuffer::pop_response`]. The decoded BATCH answer owns its
/// values, so its one `Vec` per round is the caller's, not the wire's,
/// and is subtracted.
fn wire_allocs_per_frame() -> f64 {
    let batch = vec![KvOp::Put(1, 2), KvOp::Get(3), KvOp::Del(4)];
    let requests: Vec<Request> = (0..FRAMES as u32)
        .map(|i| match i % 3 {
            _ if i == FRAMES as u32 / 2 => Request::Batch(batch.clone()),
            0 => Request::Get { key: i },
            1 => Request::Put { key: i, value: i },
            _ => Request::Del { key: i },
        })
        .collect();
    let ops = FRAMES - 1 + batch.len();
    let outcome = Ok((0..ops as u32).map(|v| (v % 2 == 0).then_some(v)).collect());
    let stats = StatsReply::default();
    let (mut wire, mut run, mut session, mut answers) =
        (Vec::new(), Vec::new(), Session::new(), FrameBuffer::new());
    let mut seen = 0;
    let mut round = || {
        wire.clear();
        for (id, req) in requests.iter().enumerate() {
            encode_request(&mut wire, id as u32 + 1, req);
        }
        session.ingest(&wire);
        run.clear();
        let summary = session.stage(&mut run);
        assert_eq!(summary.staged as usize, FRAMES);
        assert_eq!(run.len(), ops);
        session.resolve(Some(&outcome), &stats);
        answers.extend(session.output());
        session.clear_output();
        while let Some(frame) = answers.pop_response().expect("well-formed answers") {
            assert!(matches!(
                frame.resp,
                Response::Value(_) | Response::Batch(_)
            ));
            seen += 1;
        }
    };
    for _ in 0..4 {
        round();
    }
    let a0 = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        round();
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    assert_eq!(seen, (4 + ROUNDS) * FRAMES, "every frame answered");
    (allocs as f64 - ROUNDS as f64) / (ROUNDS * FRAMES) as f64
}

/// Combined put — measured: robust 1.02 allocations / 38 B, reliable
/// 1.03 / 35 B per put — the slot's batch record, plus checkpoint work
/// amortised over the interval. The budgets sit just above that floor:
/// a slot that builds its consensus cell again instead of renewing a
/// truncated one (one more allocation, ≈ 200 B on robust), or a put that
/// starts allocating per-op copies of the state, fails here first.
///
/// Wire path — 0 allocations per frame once the buffers are warm: the
/// encoders write in place, the frame buffer reads into kept capacity,
/// and a BATCH answer is encoded from the run's slice. Encoding through
/// a payload `Vec` per frame read more than 2.
#[test]
fn combined_put_stays_within_its_allocation_budget() {
    for (backend, budget, byte_budget) in [
        (Backend::robust(), 1.5, 64.0),
        (Backend::reliable(), 1.5, 64.0),
    ] {
        let name = backend.name();
        let (allocs, bytes) = per_put(backend);
        println!("{name}: {allocs:.2} allocations, {bytes:.0} B per put");
        assert!(
            allocs <= budget,
            "{name}: {allocs:.2} allocations per put exceeds the budget of {budget}"
        );
        assert!(
            bytes <= byte_budget,
            "{name}: {bytes:.0} B per put exceeds the budget of {byte_budget} B"
        );
    }
    let wire = wire_allocs_per_frame();
    println!("wire: {wire:.3} allocations per frame");
    assert_eq!(
        wire, 0.0,
        "the wire path allocates {wire:.3} times per frame; its budget is 0"
    );
}
