//! What one measured window yields, whichever driver produced it, and
//! the store counters read on either side of it.

use ff_store::{CombineSnapshot, DurabilitySnapshot, Store};

use crate::stats::{chunk_quantiles, quantile, sorted};
use crate::trace::Span;

/// Quarter-second throughput slices of one driver thread: each closes at
/// the first loop iteration past its nominal edge and is rated over the
/// time it really covered.
pub struct SliceClock {
    next_edge_ns: u64,
    last_ns: u64,
    last_ops: u64,
    pub rates: Vec<f64>,
}

impl SliceClock {
    pub const SLICE_NS: u64 = 250_000_000;

    pub fn new() -> SliceClock {
        SliceClock {
            next_edge_ns: Self::SLICE_NS,
            last_ns: 0,
            last_ops: 0,
            rates: Vec::new(),
        }
    }

    /// Note that `ops_total` operations had completed `now_ns` into the
    /// window.
    pub fn tick(&mut self, now_ns: u64, ops_total: u64) {
        if now_ns < self.next_edge_ns {
            return;
        }
        let secs = (now_ns - self.last_ns) as f64 / 1e9;
        self.rates.push((ops_total - self.last_ops) as f64 / secs);
        (self.last_ns, self.last_ops) = (now_ns, ops_total);
        while self.next_edge_ns <= now_ns {
            self.next_edge_ns += Self::SLICE_NS;
        }
    }
}

/// CPU time (user + system) the `/proc` stat file at `path` reports, in
/// ns; 0 where there is no such file.
fn cpu_ns(path: &str) -> u64 {
    // USER_HZ, the unit of the stat files' times, is 100 on Linux.
    const TICK_NS: u64 = 10_000_000;
    std::fs::read_to_string(path)
        .ok()
        .and_then(|stat| {
            // Fields 14 and 15, counted past the parenthesised name.
            let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
            let utime: u64 = fields.next()?.parse().ok()?;
            let stime: u64 = fields.next()?.parse().ok()?;
            Some((utime + stime) * TICK_NS)
        })
        .unwrap_or(0)
}

/// CPU time of the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns("/proc/thread-self/stat")
}

/// CPU time of the whole process so far.
pub fn process_cpu_ns() -> u64 {
    cpu_ns("/proc/self/stat")
}

/// The box this runs on is shared, and its neighbours only ever slow a
/// run down: across ten 15 s runs the *median* quarter-second slice
/// spread 3–10% (interquartile range ÷ median) while the 90th-percentile
/// slice spread 1.5–6%. So an end-to-end number is the statistic of the
/// quietest decile of the window's pieces — the 90th-percentile slice
/// rate, the 10th-percentile chunk latency quantile — not of the median
/// piece. Everything in the store and the reactor recurs far more often
/// than four times a second, so every piece sees all of it; what the
/// decile drops is the seconds the neighbours took.
pub const QUIET: f64 = 0.1;
/// Pieces a window's latency samples are cut into.
pub const CHUNKS: usize = 60;

/// What one driver thread measured.
#[derive(Default)]
pub struct ThreadWindow {
    pub ops: u64,
    pub elapsed_ns: u64,
    /// CPU time the thread used in the window.
    pub cpu_ns: u64,
    pub slice_rates: Vec<f64>,
    /// Response-time samples in ns, in time order.
    pub lat_ns: Vec<u32>,
    pub spans: Vec<Span>,
}

/// A measured window: the per-thread results plus what only some
/// drivers have.
#[derive(Default)]
pub struct Window {
    pub threads: Vec<ThreadWindow>,
    /// Time inside the client's send and receive calls (traced TCP).
    pub send_ns: Vec<u32>,
    pub collect_ns: Vec<u32>,
    /// Open loop: how late the generator sent, and the most bursts it
    /// had outstanding.
    pub late_max_ns: u64,
    pub backlog_max: u64,
}

impl Window {
    pub fn ops(&self) -> u64 {
        self.threads.iter().map(|t| t.ops).sum()
    }

    pub fn cpu_ns(&self) -> u64 {
        self.threads.iter().map(|t| t.cpu_ns).sum()
    }

    /// Σ over driver threads of the time they spent in the window: the
    /// client-call time of a closed loop.
    pub fn thread_ns(&self) -> u64 {
        self.threads.iter().map(|t| t.elapsed_ns).sum()
    }

    /// Whole-system ops/s per slice: the threads' rates summed over the
    /// slices all of them completed.
    pub fn slice_rates(&self) -> Vec<f64> {
        let n = self
            .threads
            .iter()
            .map(|t| t.slice_rates.len())
            .min()
            .unwrap_or(0);
        (0..n)
            .map(|i| self.threads.iter().map(|t| t.slice_rates[i]).sum())
            .collect()
    }

    /// The quiet-decile slice rate ([`QUIET`]); the whole-window rate
    /// when the window was shorter than one slice.
    pub fn ops_per_s(&self) -> f64 {
        let slices = self.slice_rates();
        if slices.is_empty() {
            let secs = self.thread_ns() as f64 / 1e9 / self.threads.len().max(1) as f64;
            return self.ops() as f64 / secs;
        }
        quantile(&slices, 1.0 - QUIET)
    }

    /// The `q`-quantile of the response time in each of [`CHUNKS`]
    /// consecutive pieces of the window.
    pub fn lat_chunks(&self, q: f64) -> Vec<f64> {
        let threads: Vec<&[u32]> = self.threads.iter().map(|t| &t.lat_ns[..]).collect();
        chunk_quantiles(&threads, q, CHUNKS)
    }

    /// The quiet-decile `q`-quantile of the response time, in ns.
    pub fn lat_ns(&self, q: f64) -> f64 {
        quantile(&self.lat_chunks(q), QUIET)
    }

    /// Every latency sample, sorted.
    pub fn lat_sorted(&self) -> Vec<u32> {
        let all: Vec<u32> = self
            .threads
            .iter()
            .flat_map(|t| t.lat_ns.iter().copied())
            .collect();
        sorted(&all)
    }

    /// Move the spans out, one list per driver thread.
    pub fn take_spans(&mut self) -> Vec<Vec<Span>> {
        self.threads
            .iter_mut()
            .map(|t| std::mem::take(&mut t.spans))
            .collect()
    }
}

/// The store's public counters at one instant.
pub struct StoreCounters {
    pub cas_ops: u64,
    pub observable: u64,
    pub slots: u64,
    pub checkpoints: u64,
    pub combine: CombineSnapshot,
    pub durability: Option<DurabilitySnapshot>,
    pub decides: u64,
}

impl StoreCounters {
    pub fn read(store: &Store) -> StoreCounters {
        let faults = store.shard_faults();
        let logs = (0..store.shards()).map(|s| store.shard_log(s));
        StoreCounters {
            cas_ops: faults.iter().map(|f| f.cas_ops).sum(),
            observable: faults.iter().map(|f| f.observable).sum(),
            slots: logs.clone().map(|l| l.slots_created() as u64).sum(),
            checkpoints: logs.map(|l| l.checkpoints_installed()).sum(),
            combine: store
                .combine_snapshot()
                .expect("the benchmark's stores combine"),
            durability: store.durability_snapshot(),
            decides: crate::trace::decides(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_rated_over_the_time_they_cover() {
        let mut c = SliceClock::new();
        let at = |slices: f64| (slices * SliceClock::SLICE_NS as f64) as u64;
        c.tick(at(0.5), 100);
        assert!(c.rates.is_empty());
        c.tick(at(1.25), 500); // closes slice 0 late: 500 ops over 1.25 slices
        c.tick(at(1.9), 900);
        c.tick(at(2.0), 950); // 450 ops over 0.75 slices
        c.tick(at(4.5), 1950); // a stall spanning two edges: one long slice
        let per_slice: Vec<f64> = c
            .rates
            .iter()
            .map(|r| (r * SliceClock::SLICE_NS as f64 / 1e9).round())
            .collect();
        assert_eq!(per_slice, vec![400.0, 600.0, 400.0]);
        c.tick(at(5.0), 2000);
        assert_eq!(c.rates.len(), 4);
    }

    #[test]
    fn window_sums_threads_and_takes_the_quiet_slice() {
        let thread = |rates: &[f64]| ThreadWindow {
            ops: 10,
            elapsed_ns: 2_000_000_000,
            slice_rates: rates.to_vec(),
            ..ThreadWindow::default()
        };
        let w = Window {
            threads: vec![thread(&[100.0, 300.0, 200.0]), thread(&[10.0, 30.0])],
            ..Window::default()
        };
        assert_eq!(w.slice_rates(), vec![110.0, 330.0]);
        assert_eq!(w.ops_per_s(), 330.0);
        let short = Window {
            threads: vec![thread(&[]), thread(&[])],
            ..Window::default()
        };
        assert_eq!(short.ops_per_s(), 10.0);
    }
}
