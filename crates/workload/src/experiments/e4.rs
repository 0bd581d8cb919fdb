//! E4 — Theorem 18: with unbounded faults per object and only `f`
//! (faulty) CAS objects, consensus is impossible for `n > 2` — the
//! explorer exhibits the violating execution.

use super::{explorer_config, inputs, mark};
use crate::experiment::{Experiment, ExperimentResult};
use crate::table::Table;
use ff_adversary::{find_violation_unbounded, summarize_violations};
use ff_consensus::{cascades, one_shots};
use ff_sim::Process;

/// E4: the unbounded-faults lower bound.
pub struct E4UnboundedLower;

impl Experiment for E4UnboundedLower {
    fn id(&self) -> &'static str {
        "e4"
    }

    fn title(&self) -> &'static str {
        "Impossibility with f faulty-only objects, unbounded t, n = 3"
    }

    fn run(&self) -> ExperimentResult {
        let mut pass = true;
        let mut table = Table::new(
            "Violation search (all objects faulty, unbounded t, n = 3)",
            &[
                "protocol",
                "objects (f)",
                "witness found",
                "witness steps",
                "violated properties",
            ],
        );
        let mut notes = vec![
            "Paper: no (f, ∞, n)-tolerant consensus exists from f CAS objects when n > 2 \
             (Theorem 18). Expected: the explorer finds a violating execution for every \
             sweep protocol run over faulty-only objects."
                .into(),
        ];

        type ProcessMaker = Box<dyn Fn() -> Vec<Box<dyn Process>>>;
        let cases: Vec<(&str, usize, ProcessMaker)> = vec![
            (
                "one-shot (sweep of 1)",
                1,
                Box::new(|| one_shots(&inputs(3))),
            ),
            (
                "cascade sweep of 2",
                2,
                Box::new(|| cascades(&inputs(3), 1)),
            ),
        ];
        for (name, objects, make) in cases {
            let report = find_violation_unbounded(make(), objects, explorer_config());
            let found = report.violation.is_some();
            pass &= found;
            match &report.violation {
                Some(w) => {
                    table.push_row(&[
                        name.to_string(),
                        objects.to_string(),
                        mark(true).to_string(),
                        w.choices.len().to_string(),
                        summarize_violations(&w.violations),
                    ]);
                    if notes.len() < 2 {
                        notes.push(format!(
                            "first witness ({name}): {} steps, {} fault injections",
                            w.choices.len(),
                            w.choices
                                .iter()
                                .filter(|c| !matches!(
                                    c.decision,
                                    ff_sim::StepDecision::Apply(ff_spec::FaultDecision::Correct)
                                ))
                                .count()
                        ));
                    }
                }
                None => {
                    table.push_row(&[
                        name.to_string(),
                        objects.to_string(),
                        mark(false).to_string(),
                        "-".to_string(),
                        "-".to_string(),
                    ]);
                }
            }
        }

        // Theorem 18's full statement allows an unbounded number of
        // reliable read/write registers alongside the f CAS objects:
        // the announce-then-race protocol (write input to a register,
        // read all announcements, then race on the CAS) must still break.
        {
            use ff_adversary::AnnounceRaceMachine;
            use ff_sim::{explore_parallel, FaultPlan, Heap, SimState};
            let plan = FaultPlan::overriding(1, ff_spec::Bound::Unbounded);
            let state = SimState::new(AnnounceRaceMachine::all(&inputs(3)), Heap::new(1, 3), plan);
            let report = explore_parallel(state, explorer_config());
            let found = report.violation.is_some();
            pass &= found;
            table.push_row(&[
                "announce-then-race (+3 registers)".to_string(),
                "1".to_string(),
                mark(found).to_string(),
                report
                    .violation
                    .as_ref()
                    .map(|w| w.choices.len().to_string())
                    .unwrap_or_else(|| "-".into()),
                report
                    .violation
                    .as_ref()
                    .map(|w| summarize_violations(&w.violations))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }

        // Boundary check: the same environment with n = 2 is safe
        // (Theorem 4), confirming the bound is tight in n.
        let boundary = find_violation_unbounded(one_shots(&inputs(2)), 1, explorer_config());
        let boundary_safe = boundary.verified();
        pass &= boundary_safe;
        let mut boundary_table = Table::new(
            "Tightness boundary (same environment, n = 2)",
            &["protocol", "objects", "verified safe"],
        );
        boundary_table.push_row(&[
            "one-shot".to_string(),
            "1".to_string(),
            mark(boundary_safe).to_string(),
        ]);

        ExperimentResult {
            id: "e4".into(),
            title: self.title().into(),
            paper_ref: "Theorem 18".into(),
            tables: vec![table, boundary_table],
            notes,
            pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_passes() {
        let r = E4UnboundedLower.run();
        assert!(r.pass, "{}", r.render());
    }
}
