//! The simulated datacenter: machines hosting processes.
//!
//! The hierarchy is deliberately thin — a machine is a failure and
//! partition domain, a process is a schedulable state machine — because
//! everything interesting (what a process *does*) lives in
//! [`process`](crate::process), and everything a machine *means* is
//! expressed by which faults can hit it: partitions cut machine pairs,
//! kills take down single processes.

/// One machine in the simulated datacenter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

/// One process, pinned to a machine for its whole life (restarts mint a
/// new [`ProcId`] on the same machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The datacenter layout: which process runs where, under what label.
#[derive(Default)]
pub struct Topology {
    machines: Vec<String>,
    processes: Vec<(MachineId, String)>,
}

impl Topology {
    /// An empty datacenter.
    pub fn new() -> Self {
        Topology::default()
    }

    /// The machine called `name`, added at first mention — ids are
    /// dense in first-mention order.
    pub fn machine(&mut self, name: &str) -> MachineId {
        let known = self.machines.iter().position(|m| m == name);
        let at = known.unwrap_or_else(|| {
            self.machines.push(name.to_string());
            self.machines.len() - 1
        });
        MachineId(at as u32)
    }

    /// Add a process on `machine`.
    pub fn process(&mut self, machine: MachineId, name: impl Into<String>) -> ProcId {
        assert!(
            (machine.0 as usize) < self.machines.len(),
            "no such machine"
        );
        self.processes.push((machine, name.into()));
        ProcId(self.processes.len() as u32 - 1)
    }

    /// The machine hosting `proc`.
    pub fn machine_of(&self, proc: ProcId) -> MachineId {
        self.processes[proc.0 as usize].0
    }

    /// Human label of `proc` (for traces).
    pub fn label(&self, proc: ProcId) -> &str {
        &self.processes[proc.0 as usize].1
    }

    /// Number of processes ever created (dead ones included).
    pub fn procs(&self) -> usize {
        self.processes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processes_know_their_machine() {
        let mut t = Topology::new();
        let a = t.machine("rack-a");
        let b = t.machine("rack-b");
        let p = t.process(a, "server");
        let q = t.process(b, "client-0");
        assert_eq!(t.machine_of(p), a);
        assert_eq!(t.machine_of(q), b);
        assert_eq!(t.label(q), "client-0");
        assert_eq!(t.procs(), 2);
        assert_eq!(
            t.machine("rack-a"),
            a,
            "a second mention is the same machine"
        );
    }
}
