//! Traces, fault scripts, and the minimizer that turns a failing seed
//! into a small committed artifact.
//!
//! # Traces
//!
//! A [`Trace`] is the run's decision log: one line per scheduler-visible
//! event (fault firing, kill, partition, transaction completion,
//! violation). Determinism is *defined* over it — same scenario, same
//! seed, same [`FaultScript`] must produce a byte-identical trace (and
//! therefore the same [`Trace::hash`]), whatever host or thread count
//! ran it.
//!
//! # Fault scripts
//!
//! Every probabilistic network decision is numbered by a global decision
//! index. In **record** mode the RNG decides and every non-default
//! outcome (drop, duplicate, delay, reorder) is written down as
//! `(decision index, action)`. In **replay** mode the script *is* the
//! decision: listed indices perform their recorded action, all other
//! decisions deliver normally and consume no randomness — which is what
//! makes scripts shrinkable.
//!
//! # Minimization
//!
//! [`minimize`] is a ddmin-lite over the script's fault set: drop
//! complement halves while the violation still reproduces, then try
//! removing each survivor alone. The fixpoint is a 1-minimal fault set —
//! the committed "golden trace" a regression test replays forever after.

use ff_spec::{fnv1a, FNV_BASIS};
use ff_workload::JsonValue;

use crate::runner::RunReport;
use crate::scenario::arm_ok;

/// What the network does to one chunk, at one decision point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally (the default for unlisted decisions).
    Deliver,
    /// The chunk vanishes.
    Drop,
    /// The chunk arrives twice.
    Duplicate,
    /// The chunk arrives `arg` × base-latency late (FIFO order kept).
    Delay(u32),
    /// The chunk bypasses the FIFO clamp and may overtake earlier ones.
    Reorder,
}

impl FaultAction {
    /// Stable name for traces and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            FaultAction::Deliver => "deliver",
            FaultAction::Drop => "drop",
            FaultAction::Duplicate => "duplicate",
            FaultAction::Delay(_) => "delay",
            FaultAction::Reorder => "reorder",
        }
    }

    fn arg(&self) -> u32 {
        match self {
            FaultAction::Delay(n) => *n,
            _ => 0,
        }
    }

    fn from_parts(name: &str, arg: u32) -> Option<FaultAction> {
        Some(match name {
            "deliver" => FaultAction::Deliver,
            "drop" => FaultAction::Drop,
            "duplicate" => FaultAction::Duplicate,
            "delay" => FaultAction::Delay(arg),
            "reorder" => FaultAction::Reorder,
            _ => return None,
        })
    }
}

/// A recorded (or replayed) fault schedule: decision index → action.
/// Indices absent from the map deliver normally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultScript {
    entries: Vec<(u64, FaultAction)>,
}

impl FaultScript {
    /// An empty script (every decision delivers).
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Record `action` at `decision`. Indices must arrive in increasing
    /// order (the decision counter is monotone).
    pub fn record(&mut self, decision: u64, action: FaultAction) {
        if action == FaultAction::Deliver {
            return;
        }
        debug_assert!(self.entries.last().is_none_or(|&(d, _)| d < decision));
        self.entries.push((decision, action));
    }

    /// The scripted action at `decision`.
    pub fn action_at(&self, decision: u64) -> FaultAction {
        match self.entries.binary_search_by_key(&decision, |&(d, _)| d) {
            Ok(i) => self.entries[i].1,
            Err(_) => FaultAction::Deliver,
        }
    }

    /// Number of scripted (non-deliver) faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No scripted faults at all?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The scripted entries, in decision order.
    pub fn entries(&self) -> &[(u64, FaultAction)] {
        &self.entries
    }

    /// A script keeping only the entries at `keep` (indices into
    /// [`FaultScript::entries`]).
    fn subset(&self, keep: &[usize]) -> FaultScript {
        FaultScript {
            entries: keep.iter().map(|&i| self.entries[i]).collect(),
        }
    }

    /// Serialize for a golden-trace file.
    pub fn to_json(&self) -> JsonValue {
        let entry = |&(d, a): &(u64, FaultAction)| {
            JsonValue::object([
                ("decision", d.into()),
                ("action", a.name().into()),
                ("arg", a.arg().into()),
            ])
        };
        self.entries.iter().map(entry).collect()
    }

    /// Parse a script back from golden-trace JSON. A file that does not
    /// spell exactly one script is refused, never approximated: numbers
    /// are read with [`JsonValue::as_seed`]'s rule (only non-negative
    /// integers below 2^53 survive a JSON number — an `as` cast would
    /// turn `-1`, `1.5` and `1e30` into 0, 1 and `u64::MAX`), `arg` must
    /// fit a `u32`, and no decision may be listed twice (which of the
    /// two [`FaultScript::action_at`] found would be an accident).
    pub fn from_json(v: &JsonValue) -> Option<FaultScript> {
        let JsonValue::Array(items) = v else {
            return None;
        };
        let mut entries = Vec::with_capacity(items.len());
        for item in items {
            let JsonValue::Object(fields) = item else {
                return None;
            };
            let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            let decision = get("decision")?.as_seed()?;
            let arg = match get("arg") {
                Some(arg) => u32::try_from(arg.as_seed()?).ok()?,
                None => 0,
            };
            let action = FaultAction::from_parts(get("action")?.as_str()?, arg)?;
            entries.push((decision, action));
        }
        entries.sort_by_key(|&(d, _)| d);
        let repeated = entries.windows(2).any(|w| w[0].0 == w[1].0);
        (!repeated).then_some(FaultScript { entries })
    }
}

/// The run's decision log.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    lines: Vec<String>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Append one event line, stamped with simulated time.
    pub fn log(&mut self, now: u64, line: impl AsRef<str>) {
        self.lines.push(format!("t={now} {}", line.as_ref()));
    }

    /// All lines, in order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// FNV-1a over every line, each ended by `\n` — the determinism
    /// fingerprint.
    pub fn hash(&self) -> u64 {
        self.lines
            .iter()
            .fold(FNV_BASIS, |h, line| fnv1a(fnv1a(h, line.as_bytes()), b"\n"))
    }
}

/// Shrink `script` to a 1-minimal fault set: `reproduces` must return
/// whether replaying the candidate script still triggers the violation
/// (it is always called with strictly smaller scripts than its last
/// accepted one, so minimization terminates). Returns the smallest
/// accepted script.
pub fn minimize(
    script: &FaultScript,
    mut reproduces: impl FnMut(&FaultScript) -> bool,
) -> FaultScript {
    let mut keep: Vec<usize> = (0..script.len()).collect();
    // Phase 1: ddmin-style complement reduction — try dropping half the
    // survivors at a time, refining granularity when stuck.
    let mut chunk = keep.len().div_ceil(2).max(1);
    while keep.len() > 1 && chunk >= 1 {
        let mut reduced = false;
        let mut start = 0;
        while start < keep.len() {
            let end = (start + chunk).min(keep.len());
            let candidate: Vec<usize> = keep[..start]
                .iter()
                .chain(keep[end..].iter())
                .copied()
                .collect();
            if (!candidate.is_empty() || script.is_empty())
                && reproduces(&script.subset(&candidate))
            {
                keep = candidate;
                reduced = true;
                continue; // same start, next window shifted already
            }
            start = end;
        }
        if !reduced {
            if chunk == 1 {
                break;
            }
            chunk = chunk.div_ceil(2).min(keep.len().saturating_sub(1).max(1));
            if chunk == 0 {
                break;
            }
        } else {
            chunk = chunk.min(keep.len().div_ceil(2).max(1));
        }
    }
    // Phase 2: 1-minimality — no single survivor is removable.
    let mut i = 0;
    while keep.len() > 1 && i < keep.len() {
        let mut candidate = keep.clone();
        candidate.remove(i);
        if reproduces(&script.subset(&candidate)) {
            keep = candidate;
        } else {
            i += 1;
        }
    }
    // An empty script that still reproduces means the violation is not
    // fault-driven at all.
    if keep.len() == 1 && reproduces(&script.subset(&[])) {
        keep.clear();
    }
    script.subset(&keep)
}

/// One committed golden trace: the minimized script plus everything a
/// regression test needs to replay it.
#[derive(Clone, Debug, PartialEq)]
pub struct GoldenTrace {
    /// Scenario name ([`crate::scenario`] registry).
    pub scenario: String,
    /// Arm the violation manifests on (e.g. `naive`, `nolease`).
    pub arm: String,
    /// Root seed of the recorded run.
    pub seed: u64,
    /// Violation the replay must reproduce (a [`crate::runner::RunReport`]
    /// violation string prefix).
    pub violation: String,
    /// The minimized fault schedule.
    pub script: FaultScript,
    /// Trace hash of the minimized failing run (fingerprint only — the
    /// replay asserts the violation, not the hash, so unrelated trace
    /// format changes don't invalidate golden files).
    pub trace_hash: String,
}

impl GoldenTrace {
    /// Render the golden-trace file.
    pub fn to_json(&self) -> String {
        JsonValue::object([
            ("scenario", self.scenario.as_str().into()),
            ("arm", self.arm.as_str().into()),
            ("seed", JsonValue::seed(self.seed)),
            ("violation", self.violation.as_str().into()),
            ("faults", self.script.to_json()),
            ("trace_hash", self.trace_hash.as_str().into()),
        ])
        .render()
    }

    /// Parse a committed golden-trace file.
    pub fn from_json(s: &str) -> Option<GoldenTrace> {
        let file = JsonValue::parse(s).ok()?;
        let string = |k: &str| Some(file.get(k)?.as_str()?.to_string());
        Some(GoldenTrace {
            scenario: string("scenario")?,
            arm: string("arm")?,
            seed: file.get("seed")?.as_seed()?,
            violation: string("violation")?,
            script: FaultScript::from_json(file.get("faults")?)?,
            trace_hash: string("trace_hash")?,
        })
    }
}

/// The violation a golden trace of `r` would pin down, if `r` has one:
/// for catch-me arms (`naive`, `nolease`) the interesting event IS the
/// flag/stall (for a durable naive arm, specifically the refused
/// recovery), so that is what minimization preserves; for well-behaved
/// arms it is any contract violation.
pub fn violation_of(r: &RunReport) -> Option<&'static str> {
    match r.arm.as_str() {
        "naive" if r.recovery_refused > 0 => Some("recovery-refused"),
        "naive" => r.flagged.then_some("flagged"),
        "nolease" => reproduces(r, "stall").then_some("stall"),
        _ => (!arm_ok(r)).then_some("contract"),
    }
}

/// Does `r` still show the `violation` a golden trace recorded (one of
/// the names [`violation_of`] returns)?
pub fn reproduces(r: &RunReport, violation: &str) -> bool {
    match violation {
        "flagged" => r.flagged,
        "recovery-refused" => r.recovery_refused > 0,
        "stall" => r.violations.iter().any(|v| v.starts_with("stall:")),
        "contract" => !arm_ok(r),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_round_trips_through_json() {
        let mut s = FaultScript::new();
        s.record(3, FaultAction::Drop);
        s.record(9, FaultAction::Delay(5));
        s.record(20, FaultAction::Reorder);
        let back = FaultScript::from_json(&s.to_json()).expect("parses");
        assert_eq!(s, back);
        assert_eq!(back.action_at(9), FaultAction::Delay(5));
        assert_eq!(back.action_at(10), FaultAction::Deliver);
    }

    #[test]
    fn a_script_file_that_spells_no_exact_script_is_refused() {
        let parse = |faults: &str| {
            FaultScript::from_json(&JsonValue::parse(faults).expect("well-formed JSON"))
        };
        let entry = |decision: &str, arg: &str| {
            format!(r#"{{"decision": {decision}, "action": "delay", "arg": {arg}}}"#)
        };
        let one = |decision: &str, arg: &str| parse(&format!("[{}]", entry(decision, arg)));
        // What a cast would have made of it is in the comment.
        for (decision, arg, why) in [
            ("-1", "0", "negative decision (cast: 0)"),
            ("1.5", "0", "fractional decision (cast: 1)"),
            ("1e30", "0", "decision past u64 (cast: u64::MAX)"),
            (
                "9007199254740992",
                "0",
                "decision at 2^53, where f64 stops being exact",
            ),
            ("\"x\"", "0", "decision that is no number"),
            ("7", "-1", "negative arg (cast: 0)"),
            ("7", "2.5", "fractional arg (cast: 2)"),
            ("7", "4294967296", "arg past u32 (cast: u32::MAX)"),
            ("7", "null", "arg that is no number (was: 0)"),
        ] {
            assert_eq!(one(decision, arg), None, "{why}");
        }
        // The largest values that are still exact load as themselves.
        let edge = one("9007199254740991", "4294967295").expect("in range");
        assert_eq!(
            edge.entries(),
            [((1 << 53) - 1, FaultAction::Delay(u32::MAX))]
        );
        // One decision listed twice: `action_at` would return whichever
        // the binary search landed on.
        let twice = format!(
            "[{}, {}, {}]",
            entry("7", "3"),
            entry("2", "1"),
            entry("7", "9")
        );
        assert_eq!(parse(&twice), None, "repeated decision");
        let once = format!("[{}, {}]", entry("7", "3"), entry("2", "1"));
        assert_eq!(
            parse(&once).expect("distinct").action_at(7),
            FaultAction::Delay(3)
        );
    }

    #[test]
    fn minimize_finds_the_single_culprit() {
        let mut s = FaultScript::new();
        for d in 0..32 {
            s.record(d, FaultAction::Drop);
        }
        // Only decision 17 matters.
        let min = minimize(&s, |cand| cand.action_at(17) == FaultAction::Drop);
        assert_eq!(min.len(), 1);
        assert_eq!(min.entries()[0].0, 17);
    }

    #[test]
    fn minimize_keeps_a_conjunction() {
        let mut s = FaultScript::new();
        for d in 0..16 {
            s.record(d, FaultAction::Drop);
        }
        // Decisions 2 AND 11 are jointly necessary.
        let min = minimize(&s, |cand| {
            cand.action_at(2) == FaultAction::Drop && cand.action_at(11) == FaultAction::Drop
        });
        assert_eq!(min.len(), 2);
        let kept: Vec<u64> = min.entries().iter().map(|&(d, _)| d).collect();
        assert_eq!(kept, vec![2, 11]);
    }

    #[test]
    fn minimize_empties_a_fault_free_violation() {
        let mut s = FaultScript::new();
        for d in 0..8 {
            s.record(d, FaultAction::Drop);
        }
        let min = minimize(&s, |_| true);
        assert!(min.is_empty());
    }

    #[test]
    fn trace_hash_is_order_and_content_sensitive() {
        let mut a = Trace::new();
        a.log(1, "x");
        a.log(2, "y");
        let mut b = Trace::new();
        b.log(2, "y");
        b.log(1, "x");
        assert_ne!(a.hash(), b.hash());
        let mut c = Trace::new();
        c.log(1, "x");
        c.log(2, "y");
        assert_eq!(a.hash(), c.hash());
    }

    #[test]
    fn golden_trace_round_trips() {
        let mut script = FaultScript::new();
        script.record(4, FaultAction::Duplicate);
        let g = GoldenTrace {
            scenario: "partition-ramp".into(),
            arm: "naive".into(),
            seed: 0xDEAD,
            violation: "flagged".into(),
            script,
            trace_hash: "abc123".into(),
        };
        let back = GoldenTrace::from_json(&g.to_json()).expect("parses");
        assert_eq!(g, back);
        // Seeds a JSON number cannot hold exactly replay the same run.
        for seed in [u64::MAX, (1 << 53) + 1] {
            let big = GoldenTrace { seed, ..g.clone() };
            assert_eq!(GoldenTrace::from_json(&big.to_json()), Some(big));
        }
        // A seed no u64 spells is refused, not saturated.
        for bad in ["-1", "0.5", "1e300"] {
            let text = g.to_json().replace("\"0xdead\"", bad);
            assert_ne!(text, g.to_json());
            assert_eq!(GoldenTrace::from_json(&text), None, "seed {bad}");
        }
    }
}
