//! Replicated deterministic objects and operation encoding.
//!
//! Herlihy's universality result (cited throughout Section 1 of the
//! paper) says consensus objects suffice to implement *any* wait-free
//! shared object: agree, slot by slot, on the order of operations and
//! replay them on local copies. The objects here are deterministic
//! sequential state machines over a compact `u64` operation encoding.

/// A deterministic sequential object that can be replicated through an
/// operation log.
pub trait Replicated: Clone + Send + 'static {
    /// Apply one encoded operation, returning an encoded response.
    /// Must be a pure function of the current state and `op`.
    fn apply(&mut self, op: u64) -> u64;

    /// Serialize the current state into words, or `None` if the type
    /// does not support snapshots. Types returning `Some` here unlock
    /// log checkpointing ([`crate::UniversalLog::checkpoint_every`]):
    /// the decided prefix can be replaced by a snapshot and truncated.
    /// A snapshot is a base these words encode plus the records decided
    /// since, so the log calls this only when those records hold as
    /// many ops as the base has words, or when a durability sink asks
    /// ([`crate::CheckpointWords`]) — not at every boundary.
    fn encode_snapshot(&self) -> Option<Vec<u64>> {
        None
    }

    /// Replace the current state with the one `encode_snapshot`
    /// serialized into `words`. Returns `false` (leaving the state
    /// unspecified) if the type does not support snapshots or the words
    /// are malformed.
    fn restore_snapshot(&mut self, words: &[u64]) -> bool {
        let _ = words;
        false
    }
}

/// Operation encoding helpers: opcode in the top byte, payload in the low
/// 56 bits.
pub mod encoding {
    /// Build an op word.
    #[inline]
    pub fn op(opcode: u8, payload: u64) -> u64 {
        assert!(payload < (1 << 56), "payload exceeds 56 bits");
        ((opcode as u64) << 56) | payload
    }

    /// Split an op word.
    #[inline]
    pub fn split(op: u64) -> (u8, u64) {
        ((op >> 56) as u8, op & ((1 << 56) - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::encoding::{op, split};

    #[test]
    fn op_round_trip() {
        for (code, payload) in [(0u8, 0u64), (1, 42), (255, (1 << 56) - 1)] {
            assert_eq!(split(op(code, payload)), (code, payload));
        }
    }

    #[test]
    #[should_panic(expected = "56 bits")]
    fn oversized_payload_rejected() {
        let _ = op(1, 1 << 56);
    }
}
