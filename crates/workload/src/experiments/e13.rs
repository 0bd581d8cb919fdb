//! E13 — other primitives under functional faults (the conclusion's
//! future-work question): test-and-set + announce registers for two
//! processes, probed against every fault kind of the taxonomy.
//!
//! Measured answer: whether a structured fault matters depends on how
//! the usage pattern exercises the postconditions. TAS writes only one
//! value, so the *overriding* fault is never observable on it — the
//! construction is structurally immune — while the *silent* fault (drop
//! the winning set) breaks it with a single occurrence.

use super::{explorer_config, mark};
use crate::experiment::{Experiment, ExperimentResult};
use crate::table::Table;
use ff_consensus::TasConsensusMachine;
use ff_sim::{explore, FaultPlan, Heap, SimState};
use ff_spec::{Bound, FaultKind, Input, ObjectId};

/// E13: the TAS probe.
pub struct E13OtherPrimitives;

impl E13OtherPrimitives {
    fn probe(plan: FaultPlan) -> (bool, u64) {
        let state = SimState::new(
            TasConsensusMachine::pair(Input(10), Input(20)),
            Heap::new(1, 2),
            plan,
        );
        // Sequential: a parallel search that stops at the first
        // violation expands a number of states that depends on thread
        // timing, and the count is a cell of the committed table.
        let report = explore(state, explorer_config());
        (report.verified(), report.states_expanded)
    }
}

impl Experiment for E13OtherPrimitives {
    fn id(&self) -> &'static str {
        "e13"
    }

    fn title(&self) -> &'static str {
        "Other primitives: test-and-set under the fault taxonomy (n = 2)"
    }

    fn run(&self) -> ExperimentResult {
        let mut pass = true;
        let mut table = Table::new(
            "TAS + announce registers, one TAS cell, exhaustive exploration",
            &["fault kind", "budget", "expected", "observed", "match"],
        );

        let cases: Vec<(&str, FaultPlan, bool, &str)> = vec![
            ("none", FaultPlan::none(), true, "baseline correctness"),
            (
                "overriding",
                FaultPlan::overriding(1, Bound::Unbounded),
                true,
                "structurally immune: only the value 1 is ever written",
            ),
            (
                "silent",
                FaultPlan::silent(1, Bound::Finite(1)),
                false,
                "one dropped set ⇒ two winners",
            ),
            (
                "arbitrary",
                FaultPlan {
                    kind: FaultKind::Arbitrary,
                    faulty: vec![ObjectId(0)],
                    per_object: Bound::Finite(1),
                    kind_overrides: Default::default(),
                },
                false,
                "the cell can be reset to ⊥",
            ),
        ];

        let mut notes = vec![
            "The conclusion asks which other functions' natural faults can be overcome. \
             Measured: the overriding fault — the paper's case study — cannot touch a \
             test-and-set usage pattern at all (zero observable opportunities), while \
             silent/arbitrary faults break it. Fault tolerance is a property of the \
             (operation, usage) pair, exactly as the Ψ{O}Φ framing predicts."
                .into(),
        ];

        for (kind, plan, expect_safe, why) in cases {
            let (safe, states) = Self::probe(plan);
            let ok = safe == expect_safe;
            pass &= ok;
            table.push_row(&[
                kind.to_string(),
                match kind {
                    "none" => "-".to_string(),
                    "overriding" => "t = ∞".to_string(),
                    _ => "t = 1".to_string(),
                },
                if expect_safe {
                    "consensus holds"
                } else {
                    "violated"
                }
                .to_string(),
                format!(
                    "{} ({states} states)",
                    if safe { "holds" } else { "violated" }
                ),
                mark(ok).to_string(),
            ]);
            if kind == "overriding" {
                notes.push(format!("immunity detail: {why}"));
            }
        }

        ExperimentResult {
            id: "e13".into(),
            title: self.title().into(),
            paper_ref: "Section 7 (future work: other functions with natural faults)".into(),
            tables: vec![table],
            notes,
            pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_passes() {
        let r = E13OtherPrimitives.run();
        assert!(r.pass, "{}", r.render());
    }
}
