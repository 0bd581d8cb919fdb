//! The protocols, each written once as an [`ff_sim::Process`] step
//! machine: one shared step at a time, which is what the exhaustive
//! explorer and the adversarial schedulers need.
//!
//! These machines are the only place a protocol's decisions (adopt,
//! retry, stage jump, decide) are written. The blocking types
//! ([`HerlihyConsensus`](crate::HerlihyConsensus) …
//! [`StagedConsensus`](crate::StagedConsensus)) run the same machine
//! over real CAS objects through one driver, so the code the store
//! ships is the code the explorer checked. `tests/cross_validation.rs`
//! holds that driver to `ff_sim::run` on matched executions, fault-free
//! and faulty.

mod cascade;
mod one_shot;
mod silent;
mod staged;
mod tas;

pub use cascade::CascadeMachine;
pub use one_shot::OneShotMachine;
pub use silent::SilentRetryMachine;
pub use staged::StagedMachine;
pub use tas::TasConsensusMachine;

use ff_sim::Process;
use ff_spec::Input;

/// Convenience: box a homogeneous set of machines from inputs.
pub fn boxed<M, F>(inputs: &[Input], make: F) -> Vec<Box<dyn Process>>
where
    M: Process + 'static,
    F: Fn(Input) -> M,
{
    inputs
        .iter()
        .map(|&v| Box::new(make(v)) as Box<dyn Process>)
        .collect()
}

/// One-shot machines (Herlihy / Figure 1) for each input.
pub fn one_shots(inputs: &[Input]) -> Vec<Box<dyn Process>> {
    boxed(inputs, OneShotMachine::new)
}

/// Cascade machines (Figure 2, `f`-tolerant, `f + 1` objects) for each
/// input.
pub fn cascades(inputs: &[Input], f: usize) -> Vec<Box<dyn Process>> {
    boxed(inputs, |v| CascadeMachine::new(v, f))
}

/// Staged machines (Figure 3, `(f, t, f+1)`-tolerant, `f` objects) for
/// each input.
pub fn staged(inputs: &[Input], f: u64, t: u64) -> Vec<Box<dyn Process>> {
    boxed(inputs, |v| StagedMachine::new(v, f, t))
}

/// Staged machines with an explicit stage bound (ablations).
pub fn staged_with_max_stage(inputs: &[Input], f: u64, max_stage: u32) -> Vec<Box<dyn Process>> {
    boxed(inputs, |v| StagedMachine::with_max_stage(v, f, max_stage))
}

/// Silent-retry machines for each input.
pub fn silent_retries(inputs: &[Input]) -> Vec<Box<dyn Process>> {
    boxed(inputs, SilentRetryMachine::new)
}
