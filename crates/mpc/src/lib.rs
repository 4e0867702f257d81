//! # ampc-mpc — the MPC baseline algorithms
//!
//! The comparison column of the paper's Figure 1: the standard MPC graph
//! algorithms the AMPC algorithms are measured against —
//! label-propagation connectivity (`O(D)` rounds), pointer-doubling
//! connectivity and list ranking (`O(log n)`), Luby's MIS (`O(log n)`),
//! Borůvka's MSF (`O(log n)`) and the pointer-doubling 2-Cycle solver
//! (`O(log n)`).
//!
//! The defining restriction of MPC relative to AMPC is that a machine's
//! communication within a round is fixed up front: it receives its inbox at
//! the start of the round and cannot issue further reads that depend on
//! what it finds there.  Every baseline here respects that restriction; the
//! round counts it forces are exactly what the benchmarks compare.  MPC is
//! AMPC without adaptive reads, so the baselines report in the AMPC
//! runtime's own [`ampc_runtime::RunStats`]: one round per superstep, its
//! messages as writes, and no queries.

#![warn(missing_docs)]

pub mod algorithms;

pub use algorithms::two_cycle::TwoCycleAnswer;
pub use algorithms::{
    boruvka_msf, label_propagation_connectivity, luby_mis, pointer_doubling_connectivity,
    two_cycle_mpc, wyllie_list_ranking,
};
