//! Experiments that need the whole stack at once.
//!
//! Most experiments live next to the layer they exercise (`ff-workload`
//! E1–E14, `ff-store` E15, `ff-net` E16/E17). E18 measures the
//! flat-combining shard cores' read fast path *and* re-checks the
//! combining model grid — store and simulator together — so it lives
//! here, in the one crate that depends on both.
//! E21 sweeps every registered consensus substrate through the same
//! soak — the hierarchy corollary (§5.2) as one measured table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ff_sim::{check_combining, combining_crash_grid, combining_grid, CombineModelConfig};
use ff_store::metrics::format_ns;
use ff_store::{all_backends, run_soak, Backend, SoakConfig, SoakReport};
use ff_workload::{Experiment, ExperimentResult, JsonValue, Table};

/// E18: the flat-combining cores' read-share sweep, plus the
/// exhaustive small-config model check of the combining protocol.
pub struct E18Combining;

impl Experiment for E18Combining {
    fn id(&self) -> &'static str {
        "e18"
    }

    fn title(&self) -> &'static str {
        "Flat-combining shard cores: read fast path, model grid"
    }

    fn run(&self) -> ExperimentResult {
        let mut grid = combining_grid();
        grid.extend(combining_crash_grid());
        run_e18(&grid, 0.6)
    }
}

/// The body of E18, parameterized so the unit test can run a trimmed
/// grid and shorter arms (`ff-sim` already exhausts the full grid in
/// its own tests; re-walking the 3-client configs under the debug
/// profile would dominate the suite for no new coverage).
fn run_e18(grid: &[CombineModelConfig], secs: f64) -> ExperimentResult {
    let mut notes = Vec::new();
    let mut pass = true;

    let base_config = SoakConfig {
        threads: 3,
        shards: 4,
        secs,
        fault_rate: 0.2,
        checkpoint_interval: 16,
        ..SoakConfig::default()
    };

    // Arm 1 — read-share sweep: the wait-free snapshot read should
    // absorb nearly every GET, and the heavier the read mix the more of
    // the workload never touches the log.
    let mut sweep = Table::new(
        "read-share sweep (threads=3, shards=4, fault rate 0.2, mixed kinds)",
        &[
            "read %",
            "ops/sec",
            "fastpath hits",
            "fallbacks",
            "hit rate",
        ],
    );
    for read_pct in [50u32, 70, 95] {
        let report = run_soak(&SoakConfig {
            read_pct,
            ..base_config.clone()
        });
        pass &= report.consistent;
        let c = report
            .metrics
            .combining
            .expect("a soak must snapshot combiner counters");
        sweep.push_row(&[
            read_pct.to_string(),
            format!("{:.0}", report.metrics.total_ops_per_sec()),
            c.fastpath_hits.to_string(),
            c.fastpath_misses.to_string(),
            format!("{:.1}%", c.hit_rate() * 100.0),
        ]);
        if read_pct == 95 {
            // The acceptance bar: a read-heavy workload must be served
            // almost entirely by the wait-free path.
            if c.hit_rate() <= 0.9 {
                notes.push(format!(
                    "FAIL: 95%-GET arm fast-path hit rate {:.1}% ≤ 90%",
                    c.hit_rate() * 100.0
                ));
                pass = false;
            } else {
                notes.push(format!(
                    "95%-GET arm answered {:.1}% of reads wait-free",
                    c.hit_rate() * 100.0
                ));
            }
        }
    }

    // Arm 2 — the exhaustive model grid: no stale read past the decided
    // tail, no lost or duplicated op under combiner hand-off — nor
    // under adversarial combiner kills with the lease reclaim on —
    // across every interleaving of every small configuration.
    let mut model = Table::new(
        "combining model grid (exhaustive; stutters = tolerated cell faults, crashes = combiner kills)",
        &[
            "clients", "rounds", "stutters", "crashes", "lease", "states", "stale", "lost", "dup",
        ],
    );
    for cfg in grid {
        let report = check_combining(cfg);
        pass &= report.clean();
        model.push_row(&[
            cfg.clients.to_string(),
            cfg.rounds.to_string(),
            format!("{:?}", cfg.stutter_budget),
            cfg.crashes.to_string(),
            cfg.lease.to_string(),
            report.states.to_string(),
            report.stale_reads.to_string(),
            report.lost_ops.to_string(),
            report.duplicated_ops.to_string(),
        ]);
    }

    ExperimentResult {
        id: "e18".into(),
        title: E18Combining.title().into(),
        paper_ref: "flat combining over the robust universal construction (Sections 4–6)".into(),
        tables: vec![sweep, model],
        notes,
        pass,
    }
}

/// The fault rate every fault-injecting arm of the hierarchy sweep
/// runs at — and that the acceptance bar (robust-composed arms end
/// `Store::verify`-consistent) is asserted at.
pub const SWEEP_FAULT_RATE: f64 = 0.2;

/// One substrate's measured row in the hierarchy sweep: the substrate's
/// declared identity next to how a whole store built on it actually
/// behaved under the standard soak.
pub struct SubstrateArm {
    /// The substrate this arm ran on.
    pub backend: Backend,
    /// The soak outcome (metrics, per-shard verdicts, consistency).
    pub report: SoakReport,
}

impl SubstrateArm {
    /// Observable (Definition 1) faults summed over every shard.
    pub fn observable_faults(&self) -> u64 {
        self.report
            .metrics
            .faults
            .iter()
            .map(|f| f.observable)
            .sum()
    }

    /// Did the arm honor its substrate's contract? Substrates that
    /// promise consistency must end `Store::verify`-consistent; the
    /// broken witness promises nothing, so either outcome honors it
    /// (its divergence is E10's business, not the sweep's).
    pub fn ok(&self) -> bool {
        self.report.consistent || !self.backend.expected_consistent()
    }
}

/// Run the hierarchy sweep: the same closed-loop soak once per
/// registered substrate — fault rate [`SWEEP_FAULT_RATE`] with kinds
/// rotated over each substrate's injected set, zero for substrates
/// that never inject — so the rows differ only in the substrate.
pub fn run_substrate_sweep(secs: f64) -> Vec<SubstrateArm> {
    all_backends()
        .into_iter()
        .map(|backend| {
            let report = run_soak(&SoakConfig {
                threads: 3,
                shards: 4,
                secs,
                fault_rate: if backend.injects_faults() {
                    SWEEP_FAULT_RATE
                } else {
                    0.0
                },
                checkpoint_interval: 16,
                backend: backend.clone(),
                ..SoakConfig::default()
            });
            SubstrateArm { backend, report }
        })
        .collect()
}

/// The `⊥`-free label for a substrate's consensus number: the class of
/// primitive the cells are built from.
fn cn_label(backend: &Backend) -> String {
    match backend.consensus_number() {
        None => "∞ (hw CAS)".into(),
        Some(n) => n.to_string(),
    }
}

/// `overriding+silent`-style label for a kind set.
fn kinds_label(kinds: &[ff_spec::FaultKind]) -> String {
    if kinds.is_empty() {
        return "—".into();
    }
    kinds
        .iter()
        .map(|k| k.to_string())
        .collect::<Vec<_>>()
        .join("+")
}

/// Render the sweep as one comparison table (the E21 table).
pub fn substrate_table(arms: &[SubstrateArm]) -> Table {
    let mut table = Table::new(
        format!(
            "substrate hierarchy sweep (threads=3, shards=4, fault rate {SWEEP_FAULT_RATE} on injecting substrates, kinds rotated)"
        ),
        &[
            "substrate",
            "cn",
            "tolerates",
            "ops/sec",
            "put p50",
            "put p99",
            "observable faults",
            "consistent",
            "contract",
        ],
    );
    for arm in arms {
        table.push_row(&[
            arm.backend.name().to_string(),
            cn_label(&arm.backend),
            kinds_label(arm.backend.tolerated_kinds()),
            format!("{:.0}", arm.report.metrics.total_ops_per_sec()),
            format_ns(arm.report.metrics.writes.p50_ns),
            format_ns(arm.report.metrics.writes.p99_ns),
            arm.observable_faults().to_string(),
            arm.report.consistent.to_string(),
            if arm.ok() { "ok" } else { "VIOLATED" }.to_string(),
        ]);
    }
    table
}

/// Serialize the sweep as the `BENCH_substrates.json` document: one
/// entry per substrate with its declared envelope and measured
/// throughput, latency percentiles, fault counts and survival verdict.
pub fn substrate_sweep_json(arms: &[SubstrateArm]) -> JsonValue {
    JsonValue::Object(vec![
        ("mode".into(), JsonValue::String("substrates".into())),
        ("fault_rate".into(), JsonValue::Number(SWEEP_FAULT_RATE)),
        (
            "substrates".into(),
            JsonValue::Array(
                arms.iter()
                    .map(|arm| {
                        JsonValue::Object(vec![
                            ("name".into(), JsonValue::String(arm.backend.name().into())),
                            (
                                "describe".into(),
                                JsonValue::String(arm.backend.describe().into()),
                            ),
                            (
                                "consensus_number".into(),
                                match arm.backend.consensus_number() {
                                    None => JsonValue::Null,
                                    Some(n) => JsonValue::Number(n as f64),
                                },
                            ),
                            (
                                "tolerates".into(),
                                JsonValue::Array(
                                    arm.backend
                                        .tolerated_kinds()
                                        .iter()
                                        .map(|k| JsonValue::String(k.to_string()))
                                        .collect(),
                                ),
                            ),
                            (
                                "injects_faults".into(),
                                JsonValue::Bool(arm.backend.injects_faults()),
                            ),
                            (
                                "expected_consistent".into(),
                                JsonValue::Bool(arm.backend.expected_consistent()),
                            ),
                            (
                                "observable_faults".into(),
                                JsonValue::Number(arm.observable_faults() as f64),
                            ),
                            ("consistent".into(), JsonValue::Bool(arm.report.consistent)),
                            ("contract_ok".into(), JsonValue::Bool(arm.ok())),
                            ("report".into(), arm.report.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// E21: the measured hierarchy sweep — every registered substrate
/// through the same faulty soak, one comparable table.
pub struct E21Substrates;

impl Experiment for E21Substrates {
    fn id(&self) -> &'static str {
        "e21"
    }

    fn title(&self) -> &'static str {
        "Consensus-substrate hierarchy sweep: same store, every substrate"
    }

    fn run(&self) -> ExperimentResult {
        run_e21(1.0)
    }
}

/// The body of E21, parameterized so the unit test can run short arms.
fn run_e21(secs: f64) -> ExperimentResult {
    let arms = run_substrate_sweep(secs);
    let mut notes: Vec<String> = arms
        .iter()
        .map(|a| format!("{}: {}", a.backend.name(), a.backend.describe()))
        .collect();
    let pass = arms.iter().all(SubstrateArm::ok);
    for arm in &arms {
        if !arm.ok() {
            notes.push(format!(
                "FAIL: substrate {} promised consistency and diverged",
                arm.backend.name()
            ));
        }
    }
    if let Some(naive) = arms.iter().find(|a| !a.backend.expected_consistent()) {
        notes.push(format!(
            "the broken witness ({}) {} in this window — its divergence proof is E10's \
             exhaustive check, not this sweep",
            naive.backend.name(),
            if naive.report.consistent {
                "happened to stay consistent"
            } else {
                "diverged, as the paper predicts"
            }
        ));
    }
    ExperimentResult {
        id: "e21".into(),
        title: E21Substrates.title().into(),
        paper_ref: "hierarchy corollary: robust constructions over weaker substrates (S5.2)".into(),
        tables: vec![substrate_table(&arms)],
        notes,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_spec::Bound;

    /// E18 with the 2-client model configs and short soak arms — the
    /// full grid runs in ff-sim's tests and in the release-mode report
    /// binary; this checks the experiment's own plumbing and verdicts.
    #[test]
    fn e18_passes_on_trimmed_grid() {
        let grid: Vec<CombineModelConfig> = combining_grid()
            .into_iter()
            .filter(|c| c.clients == 2 && c.rounds == 1)
            .collect();
        assert!(!grid.is_empty());
        assert!(grid
            .iter()
            .all(|c| matches!(c.stutter_budget, Bound::Finite(_))));
        let result = run_e18(&grid, 0.3);
        assert!(result.pass, "E18 failed:\n{}", result.render());
    }

    /// E21 with short arms: every registered substrate soaks, every
    /// consistency-promising substrate ends verify-consistent at the
    /// sweep fault rate, and the JSON document carries one entry per
    /// substrate with the measured columns.
    #[test]
    fn e21_sweeps_every_registered_substrate() {
        let result = run_e21(0.3);
        assert!(result.pass, "E21 failed:\n{}", result.render());

        let arms = run_substrate_sweep(0.2);
        assert_eq!(arms.len(), ff_store::substrate_names().len());
        assert!(
            arms.len() >= 5,
            "the sweep must cover at least 5 substrates"
        );
        let json = substrate_sweep_json(&arms).render();
        let back = JsonValue::parse(&json).unwrap();
        let subs = match back.get("substrates") {
            Some(JsonValue::Array(subs)) => subs,
            other => panic!("substrates key missing or not an array: {other:?}"),
        };
        assert_eq!(subs.len(), arms.len());
        for (entry, arm) in subs.iter().zip(&arms) {
            assert_eq!(
                entry.get("name").and_then(JsonValue::as_str),
                Some(arm.backend.name())
            );
            for key in ["observable_faults", "consistent", "contract_ok", "report"] {
                assert!(
                    entry.get(key).is_some(),
                    "{key} missing for {}",
                    arm.backend
                );
            }
            let report = entry.get("report").unwrap();
            assert!(
                report
                    .get("metrics")
                    .and_then(|m| m.get("total_ops_per_sec"))
                    .and_then(JsonValue::as_f64)
                    .is_some(),
                "throughput missing for {}",
                arm.backend
            );
        }
    }
}
