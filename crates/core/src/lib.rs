//! # ampc-algorithms — the AMPC graph algorithms of the paper
//!
//! Implementation of every algorithm from *"Massively Parallel Computation
//! via Remote Memory Access"* (Behnezhad, Dhulipala, Esfandiari, Łącki,
//! Schudy, Mirrokni — SPAA 2019), running on the [`ampc_runtime`] executor:
//!
//! | Paper section | Module | Round complexity |
//! |---|---|---|
//! | §4 2-Cycle | [`shrink`] | `O(1/ε)` |
//! | §5 Maximal independent set | [`mis`] | `O(1/ε)` |
//! | §6 Connectivity | [`mod@connectivity`] | `O(log log_{m/n} n + 1/ε)` |
//! | §7 Minimum spanning forest | [`msf`] | `O(log log_{m/n} n + 1/ε)` |
//! | §8 Forest connectivity / list ranking / tree ops | [`forest`], [`listrank`], [`euler`] | `O(1/ε)` |
//! | §9 2-edge connectivity | [`two_edge`] | `O(log log_{m/n} n)` |
//!
//! Every public entry point returns an [`AlgorithmResult`] bundling the
//! answer with [`ampc_runtime::RunStats`], so callers (tests, benches, the
//! experiment harness) can assert and report both correctness and the round
//! / communication complexities the paper's theorems are about.
//!
//! Every algorithm also ships a `*_with(…, &AmpcConfig)` variant: the config
//! carries ε, the seed, thread caps and — through
//! [`ampc_runtime::AmpcConfig::backend`](ampc_runtime::config::AmpcConfig) —
//! the DDS backend selection.  A driver opens its runtime with
//! `AmpcRuntime::new(config)`, so the same code runs against every store
//! with no per-algorithm code paths; `tests/backend_determinism.rs`
//! (workspace root) proves the outputs are byte-identical across backends
//! and thread counts.
//!
//! A driver keeps its state in arrays indexed by id (vertex, arc, edge or
//! list element ids are dense `0..n`): Shrink's adjacency and contraction
//! pointers, rooting's per-tree roots, sizes and offsets, list ranking's
//! links.  So its random draws follow id order, never a hasher's.  A
//! machine's scratch stays hashed: it has `O(n^ε)` space, and an n-array
//! per machine would break the model — connectivity's BFS `visited`, MSF's
//! `in_tree` and MIS's probe memo are hash sets and maps sized by what the
//! machine touches.
//!
//! ```
//! use ampc_algorithms::{connectivity, maximal_independent_set};
//! use ampc_graph::{generators, sequential};
//!
//! let graph = generators::planted_components(200, 4, 3, 7);
//! let result = connectivity(&graph, 0.5, 7);
//! assert_eq!(result.output, sequential::connected_components(&graph));
//!
//! let mis = maximal_independent_set(&graph, 0.5, 7);
//! assert!(sequential::is_maximal_independent_set(&graph, &mis.output));
//! ```

#![warn(missing_docs)]

pub mod common;
pub mod connectivity;
mod contract;
pub mod euler;
pub mod forest;
pub mod listrank;
pub mod mis;
pub mod msf;
pub mod shrink;
pub mod two_edge;

pub use common::AlgorithmResult;
pub use connectivity::{connectivity, connectivity_with};
pub use euler::{
    euler_tour, preorder_numbers, root_forest, root_forest_with, subtree_sizes, EulerTour,
    RootedForest, SparseTableRmq,
};
pub use forest::{forest_connectivity, forest_connectivity_with};
pub use listrank::{
    list_ranking, list_ranking_weighted, list_ranking_weighted_with, list_ranking_with,
};
pub use mis::{maximal_independent_set, maximal_independent_set_with};
pub use msf::{
    minimum_spanning_forest, minimum_spanning_forest_with, spanning_forest, spanning_forest_with,
    MsfOutput,
};
pub use shrink::{
    cycle_connectivity, cycle_connectivity_with, two_cycle, two_cycle_with, TwoCycleAnswer,
};
pub use two_edge::{two_edge_connectivity, two_edge_connectivity_with, BcLabeling};
