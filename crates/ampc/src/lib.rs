//! # ampc-runtime — the AMPC model executor
//!
//! This crate implements the Adaptive Massively Parallel Computation model
//! of Behnezhad et al. (SPAA 2019) as an executable runtime:
//!
//! * [`AmpcConfig`] derives the model parameters — space per machine
//!   `S = n^ε`, machine count `P`, total space `T` and the per-round `O(S)`
//!   communication budgets — from the input size and the exponent ε.
//! * [`AmpcRuntime`] executes rounds: every virtual machine runs a closure
//!   against a [`MachineContext`] which gives *adaptive* random-read access
//!   to the previous round's distributed data store and buffered writes into
//!   the next one.  Machines run in parallel on worker threads.  The runtime
//!   is generic over the [`DdsBackend`] serving the stores; the
//!   [`with_dds_backend!`] macro instantiates it from
//!   [`AmpcConfig::backend`](config::AmpcConfig), so the backend (in-process
//!   [`LocalBackend`], or the one wire client over channels —
//!   [`ChannelBackend`] — or over sockets to any number of owners —
//!   [`TcpBackend`]) is purely a configuration choice — and parseable from
//!   CLI/env strings via `DdsBackendKind::from_str`.
//! * [`RunStats`] / [`RoundStats`] record the quantities the paper's theorems
//!   bound: number of rounds, queries and writes in total and per machine,
//!   budget violations and fault-injection restarts.
//! * [`FaultPlan`] schedules machine failures to exercise the model's
//!   restart-from-snapshot fault-tolerance story.
//!
//! # Round lifecycle
//!
//! Each call to [`AmpcRuntime::run_round`] drives one epoch through the
//! pipeline implemented by `ampc_dds`:
//!
//! 1. **Execute** — virtual machines are multiplexed onto worker threads;
//!    every machine reads the frozen snapshot of `D_{i-1}` (single keys via
//!    [`MachineContext::read`], pipelined batches via
//!    [`MachineContext::read_many`] — a batch of `k` keys costs exactly `k`
//!    queries, so budget semantics never depend on batching) and buffers
//!    its writes locally.
//! 2. **Commit** — when all machines finish, their write buffers are
//!    concatenated in (machine id, write order) order, partitioned by
//!    destination shard — the pairs split into contiguous ranges, one per
//!    worker, wherever the machine boundaries fall, into buckets of exact
//!    size — and committed with one lock acquisition per shard, distinct
//!    shards in parallel.  Per-key multi-value indices are reproducible
//!    because a key lives on exactly one shard and every bucket keeps the
//!    concatenation order, whatever the worker count.
//! 3. **Freeze** — the store is frozen shard-parallel into the compact
//!    read-only snapshot (`D_i`) the next round will read.
//!
//! [`AmpcRuntime::scatter`] and [`AmpcRuntime::load_input`] push
//! driver-assembled pairs through the same commit path.
//!
//! ```
//! use ampc_runtime::{AmpcConfig, AmpcRuntime};
//! use ampc_dds::{Key, KeyTag, Value};
//!
//! // Store g(x) = x + 1 for x in 0..100, then chase 50 pointers in ONE round.
//! let config = AmpcConfig::for_graph(10_000, 0, 0.5);
//! let mut runtime = AmpcRuntime::new(config);
//! runtime.load_input((0..100u64).map(|x| (Key::of(KeyTag::Successor, x), Value::scalar(x + 1))));
//! let reached = runtime
//!     .run_round(1, |ctx| {
//!         let mut x = 0u64;
//!         for _ in 0..50 {
//!             x = ctx.read(Key::of(KeyTag::Successor, x)).unwrap().x;
//!         }
//!         x
//!     })
//!     .unwrap();
//! assert_eq!(reached, vec![50]);
//! assert_eq!(runtime.stats().num_rounds(), 1);
//! ```

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

pub mod config;
pub mod context;
pub mod error;
pub mod fault;
pub mod runtime;
pub mod stats;

pub use config::{
    parse_endpoint_list, AmpcConfig, BudgetMode, DdsBackendKind, DEFAULT_EPSILON, MAX_SHARDS,
};
pub use context::{MachineContext, ReadTicket};
pub use error::AmpcError;
pub use fault::FaultPlan;
pub use runtime::AmpcRuntime;
pub use stats::{RoundStats, RunStats};

// Backend surface, re-exported so the `with_dds_backend!` macro (and
// algorithm crates) can name everything through `ampc_runtime`.
pub use ampc_dds::{
    ChannelBackend, DdsBackend, LocalBackend, RemoteBackend, SnapshotView, TcpBackend,
};
