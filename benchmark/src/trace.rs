//! Spans recorded from outside the program, and the two public seams
//! they are recorded through.
//!
//! A span is `{name, start_ns, end_ns, parent, request}` in a per-thread
//! buffer. The driver opens a root around 1 request in 64; while a root
//! is open on a thread, calls that cross a seam on that thread add
//! child spans:
//!
//! * [`traced_backend`] — a `traced-robust` substrate registered through
//!   `ff_store::register` that delegates to `Backend::robust()` and
//!   wraps each cell to time `Consensus::decide`;
//! * [`TracedMedia`] — a `WalMedia` over `FsMedia` that times every
//!   `append`/`sync`/`replace`.
//!
//! Counts (decides, media calls and bytes) cover *every* call, sampled
//! or not. Threads the benchmark did not start (the reactor) never have
//! an open root, so they contribute counts only.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ff_consensus::Consensus;
use ff_spec::{FaultKind, Input, Tolerance};
use ff_store::{
    Backend, CellCtx, ConfigError, FaultConfig, FsMedia, Substrate, WalIoError, WalMedia,
};

use crate::stats::sample_ns;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Most spans per thread written to a trace file (aggregates use all).
const FILE_SPAN_CAP: usize = 20_000;

/// One timed interval on one thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same thread's buffer, or
    /// [`NO_PARENT`].
    pub parent: u32,
    /// Identifier shared by the spans of one request.
    pub request: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
    /// The innermost open span, or `NO_PARENT` when no sampled request
    /// is open on this thread.
    current: u32,
    request: u32,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        current: NO_PARENT,
        ..Tracer::default()
    });
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Append a finished (or, with `end_ns` 0, still open) span with an
/// explicit parent; returns its index for [`set_end`] and for children.
pub fn record(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, request: u32) -> u32 {
    TRACER.with_borrow_mut(|t| {
        t.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (t.spans.len() - 1) as u32
    })
}

/// Close a span [`record`]ed open.
pub fn set_end(index: u32, end_ns: u64) {
    TRACER.with_borrow_mut(|t| t.spans[index as usize].end_ns = end_ns);
}

/// Open the root span of sampled request `request` on this thread.
pub fn open_root(request: u32) {
    TRACER.with_borrow_mut(|t| {
        t.spans.push(Span {
            name: "",
            start_ns: 0,
            end_ns: 0,
            parent: NO_PARENT,
            request,
        });
        t.current = (t.spans.len() - 1) as u32;
        t.request = request;
    });
}

/// Close the root opened by [`open_root`], with the caller's own
/// timestamps (the same ones its latency sample uses).
pub fn close_root(name: &'static str, start_ns: u64, end_ns: u64) {
    TRACER.with_borrow_mut(|t| {
        let root = &mut t.spans[t.current as usize];
        (root.name, root.start_ns, root.end_ns) = (name, start_ns, end_ns);
        t.current = NO_PARENT;
    });
}

/// Whether a sampled request is open on this thread.
pub fn active() -> bool {
    TRACER.with_borrow(|t| t.current != NO_PARENT)
}

/// Add an already-timed childless span under the innermost open span,
/// if a sampled request is open.
pub fn leaf(name: &'static str, start_ns: u64, end_ns: u64) {
    TRACER.with_borrow_mut(|t| {
        if t.current != NO_PARENT {
            let (parent, request) = (t.current, t.request);
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request,
            });
        }
    });
}

/// Run `f` inside a child span of the innermost open span (spans `f`
/// adds nest under it); plain `f()` when no sampled request is open.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = TRACER.with_borrow_mut(|t| {
        (t.current != NO_PARENT).then(|| {
            let parent = t.current;
            t.spans.push(Span {
                name,
                start_ns: now_ns(),
                end_ns: 0,
                parent,
                request: t.request,
            });
            t.current = (t.spans.len() - 1) as u32;
            parent
        })
    });
    let out = f();
    if let Some(parent) = opened {
        let end = now_ns();
        TRACER.with_borrow_mut(|t| {
            t.spans[t.current as usize].end_ns = end;
            t.current = parent;
        });
    }
    out
}

/// Take this thread's spans (call at the end of a driver thread).
pub fn take() -> Vec<Span> {
    TRACER.with_borrow_mut(|t| std::mem::take(&mut t.spans))
}

/// Self time of every span of one thread: its duration minus the part
/// of its interval that its direct children cover (overlapping children
/// are counted once; children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // (parent, start, end) of every child, clipped, grouped by parent
    // and ordered by start, so one sweep per parent measures the cover.
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .filter_map(|s| {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            (lo < hi).then_some((s.parent, lo, hi))
        })
        .collect();
    kids.sort_unstable();
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    let (mut parent, mut reach) = (NO_PARENT, 0);
    for (p, lo, hi) in kids {
        if p != parent {
            (parent, reach) = (p, 0);
        }
        let lo = lo.max(reach);
        if hi > lo {
            own[p as usize] -= hi - lo;
            reach = hi;
        }
    }
    own
}

/// Totals over the spans of one name: how many, the sum of their
/// durations, the sum of their self times, and every duration as a
/// sorted sample.
#[derive(Default)]
pub struct SpanTotals {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    pub durs: Vec<u32>,
}

/// [`SpanTotals`] of every span name across `threads`, in one pass.
pub fn totals(threads: &[Vec<Span>]) -> BTreeMap<&'static str, SpanTotals> {
    let mut by_name: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for spans in threads {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.dur_ns += s.dur();
            t.self_ns += own;
            t.durs.push(sample_ns(s.dur()));
        }
    }
    for t in by_name.values_mut() {
        t.durs.sort_unstable();
    }
    by_name
}

/// Write `threads` as `{"workload", "seed", "threads": [{"thread",
/// "spans_recorded", "spans": [{name, start_ns, end_ns, parent,
/// request}]}]}`; `parent` indexes the same thread's `spans` or is null.
pub fn write_file(
    path: &Path,
    workload: &str,
    seed: u64,
    threads: &[Vec<Span>],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"threads\": ["
    )?;
    for (i, spans) in threads.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}\n{{\"thread\": {i}, \"spans_recorded\": {}, \"spans\": [",
            spans.len()
        )?;
        for (j, s) in spans.iter().take(FILE_SPAN_CAP).enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "{sep}\n{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        write!(out, "]}}")?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

// ---------------------------------------------------------------------
// Seam 1: the consensus substrate.
// ---------------------------------------------------------------------

static DECIDES: AtomicU64 = AtomicU64::new(0);

/// `Consensus::decide` calls made through `traced-robust` cells so far,
/// on every thread.
pub fn decides() -> u64 {
    DECIDES.load(Ordering::Relaxed)
}

struct TracedCell(Arc<dyn Consensus>);

impl Consensus for TracedCell {
    fn decide(&self, val: Input) -> Input {
        DECIDES.fetch_add(1, Ordering::Relaxed);
        if !active() {
            return self.0.decide(val);
        }
        let start = now_ns();
        let decided = self.0.decide(val);
        leaf("consensus.decide", start, now_ns());
        decided
    }
    fn tolerance(&self) -> Tolerance {
        self.0.tolerance()
    }
    fn objects_used(&self) -> usize {
        self.0.objects_used()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

struct TracedRobust(Backend);

impl Substrate for TracedRobust {
    fn name(&self) -> &'static str {
        "traced-robust"
    }
    fn describe(&self) -> &'static str {
        "robust, with every cell's decide counted and (inside a sampled request) timed"
    }
    fn consensus_number(&self) -> Option<u32> {
        self.0.consensus_number()
    }
    fn injects_faults(&self) -> bool {
        self.0.injects_faults()
    }
    fn tolerated_kinds(&self) -> &'static [FaultKind] {
        self.0.tolerated_kinds()
    }
    fn injected_kinds(&self) -> &'static [FaultKind] {
        self.0.injected_kinds()
    }
    fn expected_consistent(&self) -> bool {
        self.0.expected_consistent()
    }
    fn objects_per_cell(&self, fault: &FaultConfig) -> usize {
        self.0.objects_per_cell(fault)
    }
    fn injected_objects(&self, fault: &FaultConfig) -> usize {
        self.0.substrate().injected_objects(fault)
    }
    fn validate(&self, fault: &FaultConfig) -> Result<(), ConfigError> {
        self.0.validate(fault)
    }
    fn make_cell(&self, ctx: &CellCtx) -> Arc<dyn Consensus> {
        Arc::new(TracedCell(self.0.substrate().make_cell(ctx)))
    }
}

/// The `traced-robust` backend, registered on first use.
pub fn traced_backend() -> Backend {
    static REGISTERED: OnceLock<()> = OnceLock::new();
    REGISTERED.get_or_init(|| {
        ff_store::register(Arc::new(TracedRobust(Backend::robust())))
            .expect("nothing else registers traced-robust");
    });
    "traced-robust"
        .parse()
        .expect("traced-robust was just registered")
}

// ---------------------------------------------------------------------
// Seam 2: the WAL media.
// ---------------------------------------------------------------------

/// What the media did since the last [`TracedMedia::take_stats`].
#[derive(Clone, Debug, Default)]
pub struct MediaStats {
    pub append_ns: Vec<u32>,
    pub sync_ns: Vec<u32>,
    pub replace_ns: Vec<u32>,
    pub append_bytes: u64,
    pub replace_bytes: u64,
}

impl MediaStats {
    /// Total time spent inside the media.
    pub fn busy_ns(&self) -> u64 {
        [&self.append_ns, &self.sync_ns, &self.replace_ns]
            .iter()
            .flat_map(|v| v.iter())
            .map(|&ns| u64::from(ns))
            .sum()
    }
}

/// `FsMedia` with every call timed and its bytes counted.
pub struct TracedMedia {
    inner: FsMedia,
    stats: Mutex<MediaStats>,
}

impl TracedMedia {
    pub fn new(inner: FsMedia) -> TracedMedia {
        TracedMedia {
            inner,
            stats: Mutex::new(MediaStats::default()),
        }
    }

    /// Hand back and reset the counters.
    pub fn take_stats(&self) -> MediaStats {
        std::mem::take(&mut self.stats.lock().expect("media stats lock poisoned"))
    }

    fn timed<R>(
        &self,
        name: &'static str,
        call: impl FnOnce(&FsMedia) -> R,
        book: impl FnOnce(&mut MediaStats, u32),
    ) -> R {
        let start = now_ns();
        let out = call(&self.inner);
        let end = now_ns();
        leaf(name, start, end);
        book(
            &mut self.stats.lock().expect("media stats lock poisoned"),
            sample_ns(end - start),
        );
        out
    }
}

impl WalMedia for TracedMedia {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, WalIoError> {
        self.inner.read(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalIoError> {
        self.timed(
            "store.wal.append",
            |m| m.append(name, bytes),
            |s, ns| {
                s.append_ns.push(ns);
                s.append_bytes += bytes.len() as u64;
            },
        )
    }
    fn sync(&self, name: &str) -> Result<(), WalIoError> {
        self.timed(
            "store.wal.sync",
            |m| m.sync(name),
            |s, ns| s.sync_ns.push(ns),
        )
    }
    fn replace(&self, name: &str, contents: &[u8]) -> Result<(), WalIoError> {
        self.timed(
            "store.wal.replace",
            |m| m.replace(name, contents),
            |s, ns| {
                s.replace_ns.push(ns);
                s.replace_bytes += contents.len() as u64;
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_store::ShardCells;
    use ff_universal::CellFactory;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let spans = [
            s("root", 0, 100, NO_PARENT),
            s("a", 10, 40, 0),       // child
            s("a.inner", 15, 25, 1), // grandchild: only a's self time shrinks
            s("b", 30, 60, 0),       // overlaps a on [30, 40)
            s("c", 90, 130, 0),      // clipped to the root's end
            s("d", 45, 50, 0),       // inside b
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - (50 + 10), "cover = [10,60) ∪ [90,100)");
        assert_eq!(own[1], 30 - 10);
        assert_eq!(own[2], 10);
        assert_eq!(own[3], 30);
        let t = &totals(&[spans.to_vec()])["a"];
        assert_eq!((t.count, t.dur_ns, t.self_ns), (1, 30, 20));
    }

    #[test]
    fn spans_nest_under_an_open_root_and_vanish_without_one() {
        leaf("orphan", 1, 2);
        assert_eq!(span("orphan", || 7), 7);
        assert!(take().is_empty() && !active());
        open_root(42);
        assert!(active());
        span("outer", || leaf("inner", 5, 6));
        leaf("sibling", 7, 8);
        close_root("root", 0, 10);
        let spans = take();
        let shape: Vec<_> = spans
            .iter()
            .map(|s| (s.name, s.parent, s.request))
            .collect();
        assert_eq!(
            shape,
            [
                ("root", NO_PARENT, 42),
                ("outer", 0, 42),
                ("inner", 1, 42),
                ("sibling", 0, 42)
            ]
        );
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (0, 10));
    }

    /// The agreement / validity / stickiness smoke of
    /// `crates/store/tests/substrates.rs`, run on both backends.
    #[test]
    fn traced_robust_decides_like_robust() {
        for backend in [Backend::robust(), traced_backend()] {
            for seed in 0..8 {
                let fault = FaultConfig {
                    rate: 0.5,
                    ..FaultConfig::default()
                };
                let cell = ShardCells::new(backend.clone(), fault, seed).make();
                let decisions: Vec<Input> = std::thread::scope(|sc| {
                    let handles: Vec<_> = (0..4)
                        .map(|i| {
                            let cell = &cell;
                            sc.spawn(move || cell.decide(Input(100 + i)))
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                assert!(decisions.iter().all(|&d| d == decisions[0]), "{backend}");
                assert!((100..104).contains(&decisions[0].0), "{backend}");
                assert_eq!(cell.decide(Input(999)), decisions[0], "{backend}");
            }
        }
        assert!(decides() >= 8 * 5);
        let robust = Backend::robust();
        let traced = traced_backend();
        let fault = FaultConfig::default();
        assert_eq!(
            traced.objects_per_cell(&fault),
            robust.objects_per_cell(&fault)
        );
        assert_eq!(traced.tolerated_kinds(), robust.tolerated_kinds());
    }
}
