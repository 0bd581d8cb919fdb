//! E8 — Section 3.4's taxonomy of other CAS faults: silent (bounded /
//! unbounded), nonresponsive, invisible and arbitrary.

use super::{explorer_config, inputs, mark};
use crate::experiment::{Experiment, ExperimentResult};
use crate::table::Table;
use ff_cas::{AlwaysPolicy, CasEnsemble, FaultyCasArray};
use ff_consensus::{run_native, silent_retries, Consensus, HerlihyConsensus};
use ff_sim::{explore_parallel, FaultPlan, Heap, SimState};
use ff_spec::{Bound, FaultKind, Input, ObjectId};
use std::sync::Arc;
use std::time::Duration;

/// E8: the other fault kinds.
pub struct E8OtherFaults;

impl E8OtherFaults {
    /// Sequential three-decider probe on a Herlihy cell over `ensemble`;
    /// returns `true` iff the three decisions agree.
    fn herlihy_agrees(ensemble: impl CasEnsemble) -> bool {
        let c = HerlihyConsensus::new(ensemble);
        let a = c.decide(Input(10));
        let b = c.decide(Input(20));
        let d = c.decide(Input(30));
        a == b && b == d
    }
}

impl Experiment for E8OtherFaults {
    fn id(&self) -> &'static str {
        "e8"
    }

    fn title(&self) -> &'static str {
        "Other CAS functional faults: silent, nonresponsive, invisible, arbitrary"
    }

    fn run(&self) -> ExperimentResult {
        let mut pass = true;
        let mut table = Table::new(
            "Fault taxonomy outcomes",
            &[
                "fault kind",
                "budget",
                "scenario",
                "expected",
                "observed",
                "match",
            ],
        );

        // Silent, bounded: the retry protocol works (exhaustive).
        for t in [1u64, 2] {
            let plan = FaultPlan::silent(1, Bound::Finite(t));
            let state = SimState::new(silent_retries(&inputs(2)), Heap::new(1, 0), plan);
            let report = explore_parallel(state, explorer_config());
            let ok = report.verified();
            pass &= ok;
            table.push_row(&[
                "silent".to_string(),
                format!("t = {t}"),
                "retry protocol, exhaustive".to_string(),
                "consensus holds".to_string(),
                if ok { "holds" } else { "VIOLATED" }.to_string(),
                mark(ok).to_string(),
            ]);
        }

        // Silent, unbounded: nontermination (a cycle in the state graph).
        {
            let plan = FaultPlan::silent(1, Bound::Unbounded);
            let state = SimState::new(silent_retries(&inputs(2)), Heap::new(1, 0), plan);
            let report = explore_parallel(state, explorer_config());
            let ok = report.cycle_found;
            pass &= ok;
            table.push_row(&[
                "silent".to_string(),
                "t = ∞".to_string(),
                "retry protocol, exhaustive".to_string(),
                "nontermination (cycle)".to_string(),
                if ok { "cycle found" } else { "no cycle" }.to_string(),
                mark(ok).to_string(),
            ]);
        }

        // Nonresponsive: a process never returns (missing outcome).
        {
            let ensemble = Arc::new(
                FaultyCasArray::builder(1)
                    .kind(FaultKind::Nonresponsive)
                    .faulty_first(1)
                    .per_object(Bound::Finite(1))
                    .policy(AlwaysPolicy)
                    .record_history(false)
                    .build(),
            );
            let protocol: Arc<dyn Consensus> = Arc::new(HerlihyConsensus::new(ensemble));
            let report = run_native(protocol, &inputs(3), Duration::from_millis(600));
            let missing = report
                .outcomes
                .iter()
                .filter(|o| o.decision.is_none())
                .count();
            let ok = missing == 1 && !report.ok();
            pass &= ok;
            table.push_row(&[
                "nonresponsive".to_string(),
                "t = 1".to_string(),
                "native, 3 processes".to_string(),
                "1 process never returns".to_string(),
                format!("{missing} undecided"),
                mark(ok).to_string(),
            ]);
        }

        // Invisible: a corrupted old value breaks agreement (reducible to
        // a data fault, per the paper).
        {
            let ensemble = Arc::new(
                FaultyCasArray::builder(1)
                    .kind(FaultKind::Invisible)
                    .faulty_first(1)
                    .per_object(Bound::Finite(1))
                    .policy(ff_cas::FirstKPolicy::new(2))
                    .record_history(false)
                    .build(),
            );
            let agreed = Self::herlihy_agrees(ensemble);
            pass &= !agreed;
            table.push_row(&[
                "invisible".to_string(),
                "t = 1".to_string(),
                "sequential Herlihy probe".to_string(),
                "agreement broken".to_string(),
                if agreed {
                    "agreed (unexpected)"
                } else {
                    "broken"
                }
                .to_string(),
                mark(!agreed).to_string(),
            ]);
        }

        // Arbitrary: junk written to the cell breaks agreement.
        {
            let ensemble = Arc::new(
                FaultyCasArray::builder(1)
                    .kind(FaultKind::Arbitrary)
                    .faulty_first(1)
                    .per_object(Bound::Finite(1))
                    .policy(AlwaysPolicy)
                    .record_history(false)
                    .build(),
            );
            let agreed = Self::herlihy_agrees(Arc::clone(&ensemble));
            // The junk word is, with overwhelming probability, not an
            // input of any process: validity is violated downstream.
            let junk_present = {
                let probe = ensemble.cas(ObjectId(0), ff_spec::BOTTOM, 0);
                Input::from_word(probe).is_none() || probe > 1_000_000
            };
            pass &= !agreed || junk_present;
            table.push_row(&[
                "arbitrary".to_string(),
                "t = 1".to_string(),
                "sequential Herlihy probe".to_string(),
                "agreement broken".to_string(),
                if agreed {
                    "agreed (unexpected)"
                } else {
                    "broken"
                }
                .to_string(),
                mark(!agreed || junk_present).to_string(),
            ]);
        }

        ExperimentResult {
            id: "e8".into(),
            title: self.title().into(),
            paper_ref: "Section 3.4".into(),
            tables: vec![table],
            notes: vec![
                "Paper: silent faults are survivable iff bounded (retry until a non-⊥ value \
                 appears); nonresponsive faults make consensus impossible (one hung process); \
                 invisible and arbitrary faults reduce to data faults and break the naive \
                 protocol. Expected: each row matches its taxonomy entry."
                    .into(),
            ],
            pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_passes() {
        let r = E8OtherFaults.run();
        assert!(r.pass, "{}", r.render());
    }
}
