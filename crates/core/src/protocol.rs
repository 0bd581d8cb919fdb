//! The blocking consensus-protocol interface for native execution, and
//! the one driver that runs a step machine over real CAS objects.

use ff_cas::CasEnsemble;
use ff_sim::{Op, OpResult, Process, Status};
use ff_spec::{Input, Tolerance};

/// A wait-free consensus protocol over a CAS ensemble.
///
/// `decide` may be called once per participating process (from any
/// thread); every call returns the single agreed value, which is some
/// caller's input — provided the execution stays within the protocol's
/// documented [`Consensus::tolerance`].
pub trait Consensus: Send + Sync {
    /// Run this process's consensus protocol with input `val` and return
    /// the decided value.
    fn decide(&self, val: Input) -> Input;

    /// The `(f, t, n)`-tolerance this construction guarantees.
    fn tolerance(&self) -> Tolerance;

    /// Number of CAS objects the construction uses.
    fn objects_used(&self) -> usize;

    /// A short human-readable name (for reports and tables).
    fn name(&self) -> &'static str;

    /// Return to the undecided state this cell was built in, with its
    /// objects' fault streams salted by `salt` — what a fresh build
    /// with that salt would be ([`CasEnsemble::renew`]). Exclusive
    /// access (`&mut`) proves nobody is deciding. Returns whether it
    /// could; after `false` the cell must be discarded. The default
    /// cannot.
    fn renew(&mut self, _salt: u64) -> bool {
        false
    }
}

/// Run `machine` to its decision over `ensemble`: each requested
/// [`Op::Cas`] goes to [`CasEnsemble::cas`] and the returned word back
/// through [`Process::apply`]. This is every native `decide` — the
/// protocol's decisions are the machine's, the same ones the explorer
/// checks — and the only `ensemble.cas` call the protocols make.
///
/// `budget` is the number of CAS steps the protocol may take within its
/// tolerance; a machine still running after that many panics with
/// `over_budget`, so an out-of-contract execution fails loudly instead
/// of spinning.
pub(crate) fn drive<E: CasEnsemble + ?Sized>(
    ensemble: &E,
    mut machine: impl Process,
    budget: u64,
    over_budget: std::fmt::Arguments<'_>,
) -> Input {
    for _ in 0..budget {
        let Op::Cas { obj, exp, new } = machine.next_op() else {
            unreachable!("consensus machines issue CAS steps only");
        };
        let old = ensemble.cas(obj, exp, new);
        if let Status::Decided(decision) = machine.apply(OpResult::Cas { old }) {
            return decision;
        }
    }
    panic!("{over_budget}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_spec::Bound;

    struct Fixed;
    impl Consensus for Fixed {
        fn decide(&self, _val: Input) -> Input {
            Input(7)
        }
        fn tolerance(&self) -> Tolerance {
            Tolerance::new(0, 0, Bound::Unbounded)
        }
        fn objects_used(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    #[test]
    fn trait_object_usable() {
        let c: Box<dyn Consensus> = Box::new(Fixed);
        assert_eq!(c.decide(Input(1)), Input(7));
        assert_eq!(c.objects_used(), 0);
        assert_eq!(c.name(), "fixed");
    }
}
