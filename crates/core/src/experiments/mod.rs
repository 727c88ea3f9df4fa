//! The paper's experiments, one module per table/figure group.

pub mod ablations;
pub mod browsers;
pub mod cc;
pub mod closemgmt;
pub mod compression;
pub mod content;
pub mod mux;
pub mod nagle;
pub mod probe;
pub mod protocol_matrix;
pub mod ranges;
pub mod robustness;
pub mod scale;
pub mod summary;
pub mod telemetry;
pub mod verbosity;

/// FNV-1a offset basis: where every report digest and seed hash starts.
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over a byte string, continuing from `hash` — the repo's stable
/// seed and digest hash.
pub(crate) fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}
