//! The experiment abstraction and registry.
//!
//! Each experiment in EXPERIMENTS.md (E1–E14) is an [`Experiment`]
//! implementation producing [`Table`]s plus a pass/fail verdict that
//! encodes the paper's prediction — "pass" means the reproduction
//! *matches the theorem*, including the lower-bound experiments, where
//! matching means a violation **was** found.
//!
//! The system-scale experiments E15–E21 need the store, the network
//! layer and the simulator, which all depend on this crate — so they
//! live in `ff-bench`, whose `registry()` is this one plus those seven
//! and is what `ff report` runs and looks ids up in.

use crate::table::Table;

/// The rendered result of one experiment.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Experiment id (e.g. "e3").
    pub id: String,
    /// Human title.
    pub title: String,
    /// The paper artifact this reproduces.
    pub paper_ref: String,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Free-form notes (witness excerpts, caveats).
    pub notes: Vec<String>,
    /// `true` iff the measured behavior matches the paper's claim.
    pub pass: bool,
}

impl ExperimentResult {
    /// Render the whole result as text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== {} — {} [{}] => {}",
            self.id.to_uppercase(),
            self.title,
            self.paper_ref,
            if self.pass { "PASS" } else { "FAIL" }
        );
        for t in &self.tables {
            out.push('\n');
            out.push_str(&t.render());
        }
        for n in &self.notes {
            let _ = writeln!(out, "\nnote: {n}");
        }
        out
    }
}

/// A reproducible experiment.
pub trait Experiment {
    /// Stable id, matching EXPERIMENTS.md.
    fn id(&self) -> &'static str;
    /// Human title.
    fn title(&self) -> &'static str;
    /// Execute and report.
    fn run(&self) -> ExperimentResult;
}

/// All registered experiments, in id order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(crate::experiments::E1TwoProcess),
        Box::new(crate::experiments::E2Cascade),
        Box::new(crate::experiments::E3Staged),
        Box::new(crate::experiments::E4UnboundedLower),
        Box::new(crate::experiments::E5Covering),
        Box::new(crate::experiments::E6Hierarchy),
        Box::new(crate::experiments::E7ModelSeparation),
        Box::new(crate::experiments::E8OtherFaults),
        Box::new(crate::experiments::E9HerlihyBaseline),
        Box::new(crate::experiments::E10Universal),
        Box::new(crate::experiments::E11MaxStageAblation),
        Box::new(crate::experiments::E12StepComplexity),
        Box::new(crate::experiments::E13OtherPrimitives),
        Box::new(crate::experiments::E14GracefulDegradation),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_ordered() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        assert_eq!(
            ids,
            vec![
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
                "e14"
            ]
        );
    }

    #[test]
    fn render_marks_verdict() {
        let r = ExperimentResult {
            id: "e0".into(),
            title: "demo".into(),
            paper_ref: "none".into(),
            tables: vec![],
            notes: vec!["hello".into()],
            pass: true,
        };
        let s = r.render();
        assert!(s.contains("PASS"));
        assert!(s.contains("note: hello"));
    }
}
