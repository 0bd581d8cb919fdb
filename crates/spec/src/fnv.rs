//! FNV-1a 64, byte-wise and streaming: the one digest the repo
//! persists or compares — the WAL's frame checksum, the universal log's
//! rolling decided-opid digest and the DST's trace fingerprints.

/// The FNV-1a 64 offset basis: the digest of no bytes.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the running digest `state` (start from
/// [`FNV_BASIS`]); folding a split input piece by piece equals folding
/// it whole.
#[inline]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_test_vectors() {
        assert_eq!(fnv1a(FNV_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streams() {
        assert_eq!(
            fnv1a(fnv1a(FNV_BASIS, b"foo"), b"bar"),
            fnv1a(FNV_BASIS, b"foobar")
        );
    }
}
