//! # ampc-suite — umbrella crate for the AMPC reproduction
//!
//! Re-exports the whole workspace behind one dependency, which is what the
//! runnable examples under `examples/` and the cross-crate integration tests
//! under `tests/` build against.
//!
//! * [`dds`] — the distributed data store substrate.
//! * [`runtime`] — the AMPC model executor (machines, rounds, budgets).
//! * [`graph`] — graph storage, generators and sequential references.
//! * [`mpc`] — the MPC baseline algorithms of Figure 1, counted in the
//!   runtime's own [`RunStats`](ampc_runtime::RunStats).
//! * [`algorithms`] — the paper's AMPC algorithms (Sections 4–9).
//!
//! ```
//! use ampc_suite::prelude::*;
//!
//! let graph = generators::two_cycle_instance(512, true, 1);
//! let answer = two_cycle(&graph, 0.5, 1);
//! assert_eq!(answer.output, TwoCycleAnswer::TwoCycles);
//! ```

#![warn(missing_docs)]

pub use ampc_algorithms as algorithms;
pub use ampc_dds as dds;
pub use ampc_graph as graph;
pub use ampc_mpc as mpc;
pub use ampc_runtime as runtime;

/// Everything a typical caller needs, in one import.
pub mod prelude {
    pub use ampc_algorithms::{
        connectivity, cycle_connectivity, forest_connectivity, list_ranking,
        maximal_independent_set, minimum_spanning_forest, preorder_numbers, root_forest,
        spanning_forest, subtree_sizes, two_cycle, two_cycle_with, two_edge_connectivity,
        AlgorithmResult, TwoCycleAnswer,
    };
    pub use ampc_graph::{generators, sequential, Edge, EdgeList, Graph};
    pub use ampc_runtime::{
        AmpcConfig, AmpcRuntime, BudgetMode, DdsBackendKind, FaultPlan, RunStats,
    };
}
