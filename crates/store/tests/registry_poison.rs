//! One bad `register` call must not brick the substrate registry.
//!
//! The registry is process-wide and this test poisons its lock on
//! purpose, so it lives in a test binary of its own, in one `#[test]`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ff_consensus::Consensus;
use ff_spec::FaultKind;
use ff_store::{
    register, substrate_names, Backend, CellCtx, ConfigError, FaultConfig, StoreConfig, Substrate,
};

/// The reliable substrate under a name that panics on the calls whose
/// index (0, 1, …) `panics_at` says so.
struct Named {
    name: &'static str,
    calls: AtomicUsize,
    panics_at: fn(usize) -> bool,
}

impl Named {
    fn new(name: &'static str, panics_at: fn(usize) -> bool) -> Arc<Named> {
        let calls = AtomicUsize::new(0);
        Arc::new(Named {
            name,
            calls,
            panics_at,
        })
    }
}

impl Substrate for Named {
    fn name(&self) -> &'static str {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        assert!(!(self.panics_at)(call), "{}: name() call {call}", self.name);
        self.name
    }
    fn describe(&self) -> &'static str {
        "reliable, under a name that may panic"
    }
    fn consensus_number(&self) -> Option<u32> {
        None
    }
    fn injects_faults(&self) -> bool {
        false
    }
    fn tolerated_kinds(&self) -> &'static [FaultKind] {
        &[]
    }
    fn objects_per_cell(&self, fault: &FaultConfig) -> usize {
        Backend::reliable().objects_per_cell(fault)
    }
    fn validate(&self, fault: &FaultConfig) -> Result<(), ConfigError> {
        Backend::reliable().validate(fault)
    }
    fn make_cell(&self, ctx: &CellCtx) -> Arc<dyn Consensus> {
        Backend::reliable().substrate().make_cell(ctx)
    }
}

/// Everything the rest of the process does with the registry.
fn registry_still_serves(listed: &[&str], unlisted: &[&str]) {
    assert_eq!(Backend::robust().name(), "robust");
    assert_eq!("robust".parse::<Backend>(), Ok(Backend::robust()));
    assert_eq!(StoreConfig::default().backend, Backend::robust());
    let names = substrate_names();
    for name in listed {
        assert!(names.contains(name), "{name} missing from {names:?}");
    }
    for name in unlisted {
        assert!(!names.contains(name), "{name} listed in {names:?}");
    }
}

#[test]
fn a_panicking_name_does_not_poison_the_registry_for_everyone_else() {
    // A substrate whose `name()` always panics: `register` reads the
    // name before it takes the lock, so the panic unwinds through the
    // caller alone and nothing was registered.
    let always = Named::new("always-panics", |_| true);
    let registering = catch_unwind(AssertUnwindSafe(|| register(always)));
    assert!(registering.is_err(), "the panic is the caller's to see");
    registry_still_serves(&["reliable", "robust"], &["always-panics"]);
    register(Named::new("well-behaved", |_| false)).expect("a fresh name registers");
    registry_still_serves(&["well-behaved"], &["always-panics"]);

    // A substrate that registers fine and panics later, under the lock
    // (its second `name()` call is `substrate_names` walking the
    // registry): that does poison the mutex, and every site takes the
    // guard back — the `Vec` was never half-written.
    register(Named::new("panics-once-listed", |call| call == 1)).expect("registers");
    let listing = catch_unwind(substrate_names);
    assert!(listing.is_err(), "the lister sees the panic");
    registry_still_serves(&["well-behaved", "panics-once-listed"], &["always-panics"]);
    register(Named::new("after-the-poison", |_| false)).expect("a poisoned lock still registers");
    assert!(register(Named::new("well-behaved", |_| false)).is_err());
    registry_still_serves(&["after-the-poison"], &[]);
}
