//! Keyset generators and operation mixes for the Wormhole evaluation.
//!
//! The paper evaluates on eight keysets (its Table 1): two derived from
//! Amazon review metadata (`Az1`, `Az2`), one from MemeTracker URLs (`Url`),
//! and five synthetic fixed-length random keysets (`K3`–`K10`). The original
//! datasets are not redistributable, so this crate generates synthetic
//! keysets that reproduce the *structural* properties the paper identifies
//! as performance-relevant: key length distribution, field composition order
//! (which controls shared-prefix structure), and the heavy common prefixes of
//! URLs: the synthetic keysets stand in for the originals, so the
//! evaluation reproduces the paper's relative trends, not its absolute
//! numbers.
//!
//! It also provides the `Kshort`/`Klong` filler-prefix keysets of Figure 14
//! and the mixed lookup/insert operation streams of Figure 17.

pub mod keysets;
pub mod ops;

pub use keysets::{
    generate, paper_keysets, prefix_keyset, Keyset, KeysetId, KeysetSpec, DEFAULT_SCALE,
};
pub use ops::{mixed_ops, uniform_indices, Op, OpMix};
