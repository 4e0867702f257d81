//! The AMPC round executor.
//!
//! [`AmpcRuntime`] owns the chain of distributed data stores and executes
//! rounds: in each round every *virtual machine* runs a user-supplied
//! closure against a [`MachineContext`], reading adaptively from the
//! previous round's snapshot and buffering writes for the next round.
//! Machines are executed in parallel on a pool of worker threads (the
//! "physical machines"), with dynamic assignment of virtual machines to
//! workers — the parallel-slackness scheme of Section 2.1.
//!
//! The runtime records [`RoundStats`] for every round (queries, writes,
//! maxima per machine, budget violations, fault restarts, wall time), which
//! is the data every test and benchmark in this workspace asserts on.

use crate::config::{AmpcConfig, BudgetMode, DdsBackendKind};
use crate::context::MachineContext;
use crate::error::AmpcError;
use crate::fault::FaultPlan;
use crate::stats::{RoundStats, RunStats};
use ampc_dds::{DdsBackend, Key, LocalBackend, TcpBackend, Value};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Executes AMPC rounds against a chain of distributed data stores.
///
/// Generic over the [`DdsBackend`] serving the stores; `B` defaults to the
/// in-process [`LocalBackend`].  Use [`AmpcRuntime::new`] for the default
/// backend or [`AmpcRuntime::with_backend`] (usually through the
/// [`crate::with_dds_backend!`] macro, which dispatches on
/// [`crate::DdsBackendKind`]) to instantiate a specific one.  Everything the
/// runtime observes — reads, multi-value order, budget accounting — is
/// backend-independent by the [`ampc_dds::SnapshotView`] contract.
pub struct AmpcRuntime<B: DdsBackend = LocalBackend> {
    config: AmpcConfig,
    backend: B,
    stats: RunStats,
    fault_plan: FaultPlan,
    /// View of the most recently completed epoch (what the next round reads).
    snapshot: B::View,
    /// Rounds executed so far (adaptive rounds + counted scatters).
    rounds_executed: usize,
}

impl AmpcRuntime<LocalBackend> {
    /// Create a runtime on the default in-process backend with an empty
    /// `D_0`.
    pub fn new(config: AmpcConfig) -> Self {
        AmpcRuntime::with_backend(config)
    }
}

impl<B: DdsBackend> AmpcRuntime<B> {
    /// Create a runtime on backend `B` with an empty `D_0`.
    ///
    /// Algorithm drivers should not call this with a concrete `B`; they go
    /// through [`crate::with_dds_backend!`] so the backend stays a pure
    /// configuration choice.
    pub fn with_backend(config: AmpcConfig) -> Self {
        let backend = B::with_shards(config.num_shards(), config.effective_threads());
        AmpcRuntime::from_backend(config, backend)
    }

    /// Create a runtime around an already-constructed backend — how a
    /// runtime attaches to a DDS it did not spawn, e.g. a
    /// [`ampc_dds::TcpBackend`] whose leased sessions live in an external
    /// `ampc_dds::serve` process ([`crate::with_dds_backend!`] does this
    /// when [`AmpcConfig::remote_endpoint`] is set).
    pub fn from_backend(config: AmpcConfig, backend: B) -> Self {
        let snapshot = backend.empty_view();
        AmpcRuntime {
            config,
            backend,
            stats: RunStats::default(),
            fault_plan: FaultPlan::none(),
            snapshot,
            rounds_executed: 0,
        }
    }

    /// Install a fault-injection plan (see [`FaultPlan`]).
    ///
    /// Machine failures are replayed by the runtime itself; request-level
    /// faults (scheduled lost-reply retransmissions of `Commit` /
    /// `Advance`) are handed to the backend, whose transport layer honors
    /// them.  Backends without a transport ignore that part of the plan.
    /// Installing a new plan replaces any previously installed request
    /// faults, so a later empty plan clears an earlier schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.backend.install_request_faults(plan.request_faults());
        self.fault_plan = plan;
        self
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &AmpcConfig {
        &self.config
    }

    /// Statistics recorded so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Consume the runtime and return its statistics.
    pub fn into_stats(self) -> RunStats {
        self.stats
    }

    /// Number of rounds executed so far.
    pub fn rounds_executed(&self) -> usize {
        self.rounds_executed
    }

    /// View of the most recently completed round's store.
    ///
    /// Algorithm drivers use this to extract results after their final
    /// round; it is also what the next round's machines will read.
    pub fn snapshot(&self) -> B::View {
        self.snapshot.clone()
    }

    /// The backend serving this runtime's stores.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Requests dropped (and retried) by transport-level fault injection so
    /// far (always 0 on backends without a transport).
    pub fn dropped_requests(&self) -> u64 {
        self.backend.dropped_requests()
    }

    /// Connections severed (and re-established via reconnect) by
    /// transport-level fault injection so far (always 0 on backends
    /// without a real connection).
    pub fn severed_connections(&self) -> u64 {
        self.backend.severed_connections()
    }

    /// Worker threads used for end-of-round shard-parallel commits.
    fn commit_threads(&self) -> usize {
        self.config.effective_threads()
    }

    /// Load the algorithm's *input* into `D_0`.
    ///
    /// The model places the input in the data store before the computation
    /// starts, so this does not count as a round.  The writes are committed
    /// through the shard-parallel path like any round's writes.
    pub fn load_input(&mut self, pairs: impl IntoIterator<Item = (Key, Value)>) {
        let threads = self.commit_threads();
        self.backend
            .commit_round(vec![pairs.into_iter().collect()], threads);
        self.snapshot = self.backend.advance(threads);
    }

    /// Scatter driver-assembled key-value pairs into the next store.
    ///
    /// Algorithms use this for the parts the paper implements "using
    /// standard MPC primitives" (re-publishing a contracted graph, statuses,
    /// …).  It counts as one round whose writes are distributed evenly over
    /// the machines.
    pub fn scatter(&mut self, pairs: Vec<(Key, Value)>) {
        let started = Instant::now();
        let num_machines = self.config.num_machines();
        let total_writes = pairs.len() as u64;
        let threads = self.commit_threads();
        self.backend.commit_round(vec![pairs], threads);
        self.snapshot = self.backend.advance(threads);
        let max_writes = total_writes.div_ceil(num_machines.max(1) as u64);
        let budget = self.config.round_budget();
        self.stats.push(RoundStats {
            round: self.rounds_executed,
            machines: num_machines,
            total_queries: 0,
            max_queries_per_machine: 0,
            total_writes,
            max_writes_per_machine: max_writes,
            budget_violations: u64::from(max_writes > budget),
            restarts: 0,
            wall_time: started.elapsed(),
        });
        self.rounds_executed += 1;
    }

    /// Execute one adaptive round with `num_machines` virtual machines.
    ///
    /// Machine `i` runs `work(&mut ctx)` with a context whose reads go to
    /// the previous round's snapshot; its buffered writes are committed (in
    /// machine-id order) when every machine has finished, and become visible
    /// to the *next* round.  Returns the per-machine results in machine-id
    /// order.
    ///
    /// # Errors
    /// [`AmpcError::BudgetExceeded`] in [`BudgetMode::Strict`] if any machine
    /// exceeded its `O(S)` budget.
    pub fn run_round<R, F>(&mut self, num_machines: usize, work: F) -> Result<Vec<R>, AmpcError>
    where
        R: Send,
        F: Fn(&mut MachineContext<B::View>) -> R + Sync,
    {
        let started = Instant::now();
        let num_machines = num_machines.max(1);
        let round = self.rounds_executed;
        let threads = self.config.effective_threads().min(num_machines).max(1);

        struct MachineOutcome<R> {
            machine: usize,
            result: R,
            writes: Vec<(Key, Value)>,
            queries: u64,
            restarted: bool,
        }

        let outcomes: Mutex<Vec<MachineOutcome<R>>> = Mutex::new(Vec::with_capacity(num_machines));
        let cursor = AtomicUsize::new(0);
        let snapshot = &self.snapshot;
        let config = &self.config;
        let fault_plan = &self.fault_plan;
        let work = &work;

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut local: Vec<MachineOutcome<R>> = Vec::new();
                    loop {
                        let machine = cursor.fetch_add(1, Ordering::Relaxed);
                        if machine >= num_machines {
                            break;
                        }
                        let mut restarted = false;
                        if fault_plan.should_fail(round, machine) {
                            // Simulated failure: the machine runs, crashes and
                            // its writes are discarded; it is then re-executed
                            // from scratch against the same immutable snapshot.
                            let mut doomed =
                                MachineContext::new(machine, round, snapshot.clone(), config);
                            let _ = work(&mut doomed);
                            drop(doomed);
                            restarted = true;
                        }
                        let mut ctx = MachineContext::new(machine, round, snapshot.clone(), config);
                        let result = work(&mut ctx);
                        let queries = ctx.queries_issued();
                        let (writes, _) = ctx.into_parts();
                        local.push(MachineOutcome {
                            machine,
                            result,
                            writes,
                            queries,
                            restarted,
                        });
                    }
                    outcomes.lock().append(&mut local);
                });
            }
        });

        let mut outcomes = outcomes.into_inner();
        outcomes.sort_by_key(|o| o.machine);

        // Aggregate statistics and detect budget violations.
        let budget = self.config.round_budget();
        let mut total_queries = 0u64;
        let mut total_writes = 0u64;
        let mut max_queries = 0u64;
        let mut max_writes = 0u64;
        let mut violations = 0u64;
        let mut restarts = 0u64;
        let mut first_violation: Option<(usize, u64, u64)> = None;
        for o in &outcomes {
            let writes = o.writes.len() as u64;
            total_queries += o.queries;
            total_writes += writes;
            max_queries = max_queries.max(o.queries);
            max_writes = max_writes.max(writes);
            restarts += u64::from(o.restarted);
            if o.queries + writes > budget {
                violations += 1;
                if first_violation.is_none() {
                    first_violation = Some((o.machine, o.queries, writes));
                }
            }
        }

        if self.config.budget_mode == BudgetMode::Strict {
            if let Some((machine, queries, writes)) = first_violation {
                return Err(AmpcError::BudgetExceeded {
                    round,
                    machine,
                    queries,
                    writes,
                    budget,
                });
            }
        }

        // Commit writes in deterministic (machine id, write order) order so
        // multi-value indices are reproducible — a key lives on exactly one
        // shard, so per-shard order preserves per-key order even though
        // distinct shards commit in parallel — then advance the epoch.
        let mut results = Vec::with_capacity(outcomes.len());
        let mut batches = Vec::with_capacity(outcomes.len());
        for o in outcomes {
            batches.push(o.writes);
            results.push(o.result);
        }
        let commit_threads = self.commit_threads();
        // A backend failure (e.g. a message-passing owner thread dying)
        // panics inside the backend with a typed transport message; catch
        // it at the round boundary and surface it as an `AmpcError` instead
        // of tearing the driver down.  The runtime must not be reused after
        // this error — the backend's epoch state is indeterminate.
        let backend = &mut self.backend;
        let advanced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            backend.commit_round(batches, commit_threads);
            backend.advance(commit_threads)
        }));
        self.snapshot = match advanced {
            Ok(view) => view,
            Err(payload) => {
                return Err(AmpcError::Backend {
                    message: panic_message(payload),
                })
            }
        };

        self.stats.push(RoundStats {
            round,
            machines: num_machines,
            total_queries,
            max_queries_per_machine: max_queries,
            total_writes,
            max_writes_per_machine: max_writes,
            budget_violations: violations,
            restarts,
            wall_time: started.elapsed(),
        });
        self.rounds_executed += 1;
        Ok(results)
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    ampc_dds::transport::panic_message(payload.as_ref())
        .unwrap_or_else(|| "backend panicked with a non-string payload".to_string())
}

impl<B: DdsBackend> std::fmt::Debug for AmpcRuntime<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmpcRuntime")
            .field("backend", &self.backend.backend_name())
            .field("machines", &self.config.num_machines())
            .field("space_per_machine", &self.config.space_per_machine())
            .field("rounds_executed", &self.rounds_executed)
            .finish()
    }
}

/// The [`TcpBackend`] a config selects: in-process owner threads, one
/// external serving process ([`AmpcConfig::remote_endpoint`]), running
/// cluster owners ([`AmpcConfig::cluster_endpoints`]) or a locally spawned
/// cluster of [`AmpcConfig::cluster_owners`] owner threads.
///
/// An implementation detail of [`crate::with_dds_backend!`] — not part of
/// the public surface.
///
/// # Panics
/// If the owners cannot be reached: a connection failure here has no round
/// boundary to surface through yet, so it is a loud construction panic
/// carrying the typed transport error.
#[doc(hidden)]
pub fn tcp_backend(config: &AmpcConfig) -> TcpBackend {
    let shards = config.num_shards();
    let connected = match (config.backend, &config.cluster_endpoints) {
        (DdsBackendKind::Cluster, Some(endpoints)) => {
            TcpBackend::connect_cluster(endpoints, shards)
        }
        (DdsBackendKind::Cluster, None) => TcpBackend::spawn_local(config.cluster_owners, shards),
        _ => match &config.remote_endpoint {
            Some(endpoint) => {
                TcpBackend::connect_remote(endpoint.as_str(), shards, config.effective_threads())
            }
            None => Ok(TcpBackend::new(shards, config.effective_threads())),
        },
    };
    #[allow(
        clippy::panic,
        reason = "construction-time connect failure: no runtime exists yet to carry AmpcError, and callers treat a missing store as fatal"
    )]
    connected.unwrap_or_else(|err| panic!("DDS transport failure: {err}"))
}

/// Instantiate an [`AmpcRuntime`] on the backend selected by a config and
/// run a block against it.
///
/// ```
/// use ampc_runtime::{with_dds_backend, AmpcConfig, DdsBackendKind};
///
/// let config = AmpcConfig::for_graph(100, 100, 0.5).with_backend(DdsBackendKind::Channel);
/// let rounds = with_dds_backend!(config, |runtime| {
///     runtime.load_input(std::iter::empty());
///     runtime.rounds_executed()
/// });
/// assert_eq!(rounds, 0);
/// ```
///
/// The block is monomorphised once per runtime type — local, channel, TCP —
/// so algorithm drivers stay free of per-backend code paths: they write one
/// generic body and let the configuration pick the instantiation.  How many
/// owners serve a TCP store, and where, is decided when the backend is
/// built, not by a type.
#[macro_export]
macro_rules! with_dds_backend {
    ($config:expr, |$runtime:ident| $body:expr) => {{
        let __config: $crate::AmpcConfig = $config;
        match __config.backend {
            $crate::DdsBackendKind::Local => {
                #[allow(
                    unused_mut,
                    reason = "whether the body mutates the runtime is the caller's business"
                )]
                let mut $runtime =
                    $crate::AmpcRuntime::<$crate::LocalBackend>::with_backend(__config);
                $body
            }
            $crate::DdsBackendKind::Channel => {
                #[allow(
                    unused_mut,
                    reason = "whether the body mutates the runtime is the caller's business"
                )]
                let mut $runtime =
                    $crate::AmpcRuntime::<$crate::ChannelBackend>::with_backend(__config);
                $body
            }
            $crate::DdsBackendKind::Remote | $crate::DdsBackendKind::Cluster => {
                let __backend = $crate::runtime::tcp_backend(&__config);
                #[allow(
                    unused_mut,
                    reason = "whether the body mutates the runtime is the caller's business"
                )]
                let mut $runtime =
                    $crate::AmpcRuntime::<$crate::TcpBackend>::from_backend(__config, __backend);
                $body
            }
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_dds::{KeyTag, SnapshotView};

    fn key(v: u64) -> Key {
        Key::of(KeyTag::Scalar, v)
    }

    fn config(n: usize) -> AmpcConfig {
        AmpcConfig::for_graph(n, n, 0.5).with_threads(4)
    }

    #[test]
    fn round_reads_previous_writes_next() {
        let mut rt = AmpcRuntime::new(config(100));
        rt.load_input((0..10u64).map(|i| (key(i), Value::scalar(i * 2))));

        // Round 1: each machine reads one input value and writes its square.
        let results = rt
            .run_round(10, |ctx| {
                let id = ctx.machine_id() as u64;
                let value = ctx.read(key(id)).unwrap();
                ctx.write(key(100 + id), Value::scalar(value.x * value.x));
                value.x
            })
            .unwrap();
        assert_eq!(results, (0..10u64).map(|i| i * 2).collect::<Vec<_>>());

        // Round 2: reads see the squares written in round 1, not the input.
        let results = rt
            .run_round(10, |ctx| {
                let id = ctx.machine_id() as u64;
                let new = ctx.read(key(100 + id)).map(|v| v.x);
                let old = ctx.read(key(id)).map(|v| v.x);
                (new, old)
            })
            .unwrap();
        for (i, (new, old)) in results.iter().enumerate() {
            assert_eq!(*new, Some((i as u64 * 2) * (i as u64 * 2)));
            assert_eq!(*old, None, "old epoch data must not be visible");
        }
        assert_eq!(rt.rounds_executed(), 2);
        assert_eq!(rt.stats().num_rounds(), 2);
    }

    #[test]
    fn adaptive_reads_within_a_round_chase_pointers() {
        // g(x) = x + 1 stored for x in 0..50; one machine computes g^k(0)
        // in a single round by adaptive lookups — the capability MPC lacks.
        let mut rt = AmpcRuntime::new(config(2_000));
        rt.load_input((0..50u64).map(|i| (key(i), Value::scalar(i + 1))));
        let results = rt
            .run_round(1, |ctx| {
                let mut x = 0u64;
                for _ in 0..50 {
                    x = ctx.read(key(x)).map(|v| v.x).unwrap_or(x);
                }
                x
            })
            .unwrap();
        assert_eq!(results, vec![50]);
        assert_eq!(rt.stats().rounds[0].total_queries, 50);
        assert_eq!(rt.stats().rounds[0].max_queries_per_machine, 50);
    }

    #[test]
    fn results_are_ordered_by_machine_id() {
        let mut rt = AmpcRuntime::new(config(100));
        rt.load_input(std::iter::empty());
        let results = rt.run_round(32, |ctx| ctx.machine_id()).unwrap();
        assert_eq!(results, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn multi_value_commit_order_is_deterministic() {
        let mut rt = AmpcRuntime::new(config(100));
        rt.load_input(std::iter::empty());
        rt.run_round(8, |ctx| {
            ctx.write(key(7), Value::scalar(ctx.machine_id() as u64));
        })
        .unwrap();
        let snap = rt.snapshot();
        assert_eq!(snap.multiplicity(&key(7)), 8);
        for i in 0..8 {
            assert_eq!(snap.get_indexed(&key(7), i), Some(Value::scalar(i as u64)));
        }
    }

    #[test]
    fn read_many_in_a_round_matches_single_reads_and_costs_the_same() {
        let run = |batched: bool| {
            let mut rt = AmpcRuntime::new(config(1_000));
            rt.load_input((0..100u64).map(|i| (key(i), Value::scalar(i * 5))));
            let results = rt
                .run_round(4, move |ctx| {
                    let keys: Vec<Key> = (0..25u64)
                        .map(|i| key(ctx.machine_id() as u64 * 25 + i))
                        .collect();
                    if batched {
                        ctx.read_many(&keys)
                            .into_iter()
                            .map(|v| v.unwrap().x)
                            .sum::<u64>()
                    } else {
                        keys.iter().map(|&k| ctx.read(k).unwrap().x).sum::<u64>()
                    }
                })
                .unwrap();
            (results, rt.stats().rounds[0].clone())
        };
        let (single_results, single_round) = run(false);
        let (batched_results, batched_round) = run(true);
        assert_eq!(single_results, batched_results);
        assert_eq!(single_round.total_queries, batched_round.total_queries);
        assert_eq!(
            single_round.max_queries_per_machine,
            batched_round.max_queries_per_machine
        );
        assert_eq!(
            single_round.budget_violations,
            batched_round.budget_violations
        );
    }

    #[test]
    fn parallel_commit_is_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            let mut rt = AmpcRuntime::new(config(10_000).with_threads(threads));
            rt.load_input(std::iter::empty());
            rt.run_round(64, |ctx| {
                // Heavy multi-value contention: 64 machines, 16 shared keys.
                for i in 0..8u64 {
                    ctx.write(
                        key(i % 16),
                        Value::scalar(ctx.machine_id() as u64 * 100 + i),
                    );
                }
            })
            .unwrap();
            let snap = rt.snapshot();
            (0..16u64)
                .map(|i| snap.get_all(&key(i)))
                .collect::<Vec<_>>()
        };
        let single = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(single, run(threads), "threads = {threads}");
        }
    }

    #[test]
    fn strict_budget_mode_errors_on_violation() {
        let cfg = AmpcConfig::for_graph(100, 100, 0.5)
            .with_budget_factor(1.0) // budget = 10
            .with_budget_mode(BudgetMode::Strict)
            .with_threads(2);
        let mut rt = AmpcRuntime::new(cfg);
        rt.load_input((0..100u64).map(|i| (key(i), Value::scalar(i))));
        let err = rt
            .run_round(2, |ctx| {
                for i in 0..50u64 {
                    let _ = ctx.read(key(i));
                }
            })
            .unwrap_err();
        match err {
            AmpcError::BudgetExceeded {
                budget, queries, ..
            } => {
                assert_eq!(budget, 10);
                assert_eq!(queries, 50);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn record_budget_mode_counts_violations_but_continues() {
        let cfg = AmpcConfig::for_graph(100, 100, 0.5)
            .with_budget_factor(1.0)
            .with_budget_mode(BudgetMode::Record)
            .with_threads(2);
        let mut rt = AmpcRuntime::new(cfg);
        rt.load_input((0..100u64).map(|i| (key(i), Value::scalar(i))));
        let results = rt
            .run_round(2, |ctx| {
                for i in 0..50u64 {
                    let _ = ctx.read(key(i));
                }
                ctx.machine_id()
            })
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(rt.stats().rounds[0].budget_violations, 2);
    }

    #[test]
    fn scatter_counts_as_a_round() {
        let mut rt = AmpcRuntime::new(config(100));
        rt.scatter((0..20u64).map(|i| (key(i), Value::scalar(i))).collect());
        assert_eq!(rt.rounds_executed(), 1);
        assert_eq!(rt.stats().rounds[0].total_writes, 20);
        let snap = rt.snapshot();
        assert_eq!(snap.get(&key(3)), Some(Value::scalar(3)));
    }

    #[test]
    fn fault_injection_restarts_do_not_change_results() {
        let run = |plan: FaultPlan| {
            let mut rt = AmpcRuntime::new(config(100)).with_fault_plan(plan);
            rt.load_input((0..8u64).map(|i| (key(i), Value::scalar(i * 3))));
            let results = rt
                .run_round(8, |ctx| {
                    let id = ctx.machine_id() as u64;
                    let v = ctx.read(key(id)).unwrap().x;
                    ctx.write(key(100 + id), Value::scalar(v + 1));
                    v
                })
                .unwrap();
            let snap = rt.snapshot();
            let written: Vec<_> = (0..8u64).map(|i| snap.get(&key(100 + i))).collect();
            (results, written, rt.stats().restarts())
        };

        let (clean_results, clean_written, clean_restarts) = run(FaultPlan::none());
        let (faulty_results, faulty_written, faulty_restarts) =
            run(FaultPlan::none().fail(0, 3).fail(0, 5));
        assert_eq!(clean_restarts, 0);
        assert_eq!(faulty_restarts, 2);
        assert_eq!(clean_results, faulty_results);
        assert_eq!(clean_written, faulty_written);
    }

    #[test]
    fn rounds_behave_identically_on_the_channel_backend() {
        use crate::config::DdsBackendKind;
        // The same two-round program, once per backend, selected via config
        // only; outputs, stats and multi-value order must coincide.
        let run = |backend: DdsBackendKind| {
            let config = config(100).with_backend(backend);
            crate::with_dds_backend!(config, |rt| {
                rt.load_input((0..10u64).map(|i| (key(i), Value::scalar(i * 2))));
                let results = rt
                    .run_round(10, |ctx| {
                        let id = ctx.machine_id() as u64;
                        let value = ctx.read(key(id)).unwrap();
                        ctx.write(key(7), Value::scalar(id));
                        ctx.write(key(100 + id), Value::scalar(value.x * value.x));
                        value.x
                    })
                    .unwrap();
                let echoed = rt
                    .run_round(10, |ctx| {
                        let id = ctx.machine_id() as u64;
                        let keys = [key(100 + id), key(id)];
                        let batch = ctx.read_many(&keys);
                        // key(7) was written by every machine in round 1, so
                        // round 2 sees the full multi-value list: index
                        // order must be machine-id order on every backend.
                        let multi: Vec<Option<u64>> = (0..10)
                            .map(|i| ctx.read_indexed(key(7), i).map(|v| v.x))
                            .collect();
                        (batch[0].map(|v| v.x), batch[1].map(|v| v.x), multi)
                    })
                    .unwrap();
                let queries: Vec<u64> = rt
                    .stats()
                    .rounds
                    .iter()
                    .map(|round| round.total_queries)
                    .collect();
                (results, echoed, queries)
            })
        };
        let local = run(DdsBackendKind::Local);
        let channel = run(DdsBackendKind::Channel);
        let remote = run(DdsBackendKind::Remote);
        assert_eq!(local, channel);
        assert_eq!(local, remote);
        // Pin the multi-value index order itself (machine-id order), not
        // just cross-backend agreement.
        let (_, _, ref multi) = local.1[0];
        let expected: Vec<Option<u64>> = (0..10u64).map(Some).collect();
        assert_eq!(*multi, expected);
    }

    #[test]
    fn auto_batching_window_is_backend_independent_and_costs_like_point_reads() {
        use crate::config::DdsBackendKind;
        // The same round body, once issuing point reads and once queuing the
        // same keys through the auto-batching window, on both backends:
        // results and every per-round statistic must coincide.
        let run = |backend: DdsBackendKind, windowed: bool| {
            let config = config(10_000).with_backend(backend);
            crate::with_dds_backend!(config, |rt| {
                rt.load_input((0..400u64).map(|i| (key(i), Value::scalar(i * 2))));
                let sums = rt
                    .run_round(4, move |ctx| {
                        let base = ctx.machine_id() as u64 * 100;
                        if windowed {
                            let tickets: Vec<_> =
                                (0..100u64).map(|i| ctx.queue_read(key(base + i))).collect();
                            tickets
                                .into_iter()
                                .map(|t| ctx.take_read(t).unwrap().x)
                                .sum::<u64>()
                        } else {
                            (0..100u64)
                                .map(|i| ctx.read(key(base + i)).unwrap().x)
                                .sum::<u64>()
                        }
                    })
                    .unwrap();
                let round = rt.stats().rounds[0].clone();
                (
                    sums,
                    round.total_queries,
                    round.max_queries_per_machine,
                    round.budget_violations,
                )
            })
        };
        let baseline = run(DdsBackendKind::Local, false);
        for backend in [
            DdsBackendKind::Local,
            DdsBackendKind::Channel,
            DdsBackendKind::Remote,
        ] {
            assert_eq!(run(backend, true), baseline, "windowed on {backend:?}");
            assert_eq!(run(backend, false), baseline, "point on {backend:?}");
        }
    }

    #[test]
    fn fault_restarts_are_backend_independent() {
        use crate::config::DdsBackendKind;
        use rand::Rng;
        let run = |backend: DdsBackendKind| {
            let config = config(100).with_backend(backend);
            crate::with_dds_backend!(config, |rt| {
                let mut rt = rt.with_fault_plan(FaultPlan::none().fail(0, 2));
                rt.load_input((0..4u64).map(|i| (key(i), Value::scalar(i))));
                let results = rt
                    .run_round(4, |ctx| {
                        let id = ctx.machine_id() as u64;
                        ctx.read(key(id)).unwrap().x + ctx.rng().gen::<u64>() % 1000
                    })
                    .unwrap();
                (results, rt.stats().restarts())
            })
        };
        let local = run(DdsBackendKind::Local);
        let channel = run(DdsBackendKind::Channel);
        let remote = run(DdsBackendKind::Remote);
        assert_eq!(local, channel);
        assert_eq!(local, remote);
        assert_eq!(local.1, 1);
    }

    #[test]
    fn dropped_and_retried_requests_leave_results_byte_identical() {
        use crate::config::DdsBackendKind;
        use ampc_dds::SnapshotView;
        // The ROADMAP "dropped/retried requests" fault story: schedule the
        // transport to lose (and retry) one Commit and one Advance, and the
        // run must be byte-identical to an undisturbed one.  Epoch
        // coordinates: load_input builds epoch 0, round r builds epoch
        // r + 1.
        let run = |backend: DdsBackendKind, plan: FaultPlan| {
            let config = config(1_000).with_backend(backend);
            crate::with_dds_backend!(config, |rt| {
                let mut rt = rt.with_fault_plan(plan);
                rt.load_input((0..100u64).map(|i| (key(i), Value::scalar(i))));
                let sums = rt
                    .run_round(8, |ctx| {
                        let id = ctx.machine_id() as u64;
                        let mut sum = 0;
                        for i in 0..8u64 {
                            let k = id * 8 + i;
                            sum += ctx.read(key(k)).map_or(0, |v| v.x);
                            ctx.write(key(1_000 + k), Value::scalar(k * 3));
                        }
                        sum
                    })
                    .unwrap();
                let echoed = rt
                    .run_round(8, |ctx| {
                        let id = ctx.machine_id() as u64;
                        (0..8u64)
                            .map(|i| ctx.read(key(1_000 + id * 8 + i)).map(|v| v.x))
                            .collect::<Vec<_>>()
                    })
                    .unwrap();
                let mut entries = rt.snapshot().entries();
                entries.sort_by_key(|&(key, _)| key);
                (sums, echoed, entries, rt.dropped_requests())
            })
        };
        for backend in [DdsBackendKind::Channel, DdsBackendKind::Remote] {
            let (sums, echoed, entries, dropped) = run(backend, FaultPlan::none());
            assert_eq!(dropped, 0);
            let faulty_plan = FaultPlan::none()
                .drop_commit(1, 0) // round 0's writes, owner 0
                .drop_advance(2, 1); // round 1's freeze, owner 1
            let (f_sums, f_echoed, f_entries, f_dropped) = run(backend, faulty_plan);
            assert_eq!(
                f_dropped, 2,
                "both scheduled drops must fire on {backend:?}"
            );
            assert_eq!(sums, f_sums, "round results diverged on {backend:?}");
            assert_eq!(echoed, f_echoed, "reads diverged on {backend:?}");
            assert_eq!(entries, f_entries, "final store diverged on {backend:?}");
        }
        // A transport-free backend has nothing to drop: the plan installs
        // as a no-op and the run is simply clean.
        let (_, _, _, dropped) = run(
            DdsBackendKind::Local,
            FaultPlan::none().drop_commit(1, 0).drop_advance(2, 1),
        );
        assert_eq!(dropped, 0);
    }

    #[test]
    fn backend_panics_surface_as_typed_errors_at_the_round_boundary() {
        use ampc_dds::Snapshot;

        /// A backend whose owner "dies" mid-commit, the way a transport
        /// failure panics out of the infallible `DdsBackend` surface.
        struct PanickyBackend;
        impl DdsBackend for PanickyBackend {
            type View = Snapshot;
            fn with_shards(_: usize, _: usize) -> Self {
                PanickyBackend
            }
            fn num_shards(&self) -> usize {
                1
            }
            fn empty_view(&self) -> Snapshot {
                Snapshot::empty(1)
            }
            fn commit_round(&mut self, _: Vec<Vec<(Key, Value)>>, _: usize) {
                panic!("DDS transport failure: DDS owner 0 panicked: boom");
            }
            fn advance(&mut self, _: usize) -> Snapshot {
                Snapshot::empty(1)
            }
            fn completed_epochs(&self) -> usize {
                0
            }
            fn total_writes(&mut self) -> u64 {
                0
            }
            fn backend_name(&self) -> &'static str {
                "panicky"
            }
        }

        let mut rt = AmpcRuntime::<PanickyBackend>::with_backend(config(100));
        let err = rt.run_round(2, |ctx| ctx.machine_id()).unwrap_err();
        match err {
            AmpcError::Backend { message } => {
                assert!(message.contains("owner 0 panicked"), "{message}");
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("expected a typed backend error, got {other:?}"),
        }
    }

    #[test]
    fn machine_rngs_differ_within_a_round() {
        use rand::Rng;
        let mut rt = AmpcRuntime::new(config(100));
        rt.load_input(std::iter::empty());
        let draws = rt.run_round(16, |ctx| ctx.rng().gen::<u64>()).unwrap();
        let distinct: std::collections::HashSet<u64> = draws.iter().copied().collect();
        assert_eq!(distinct.len(), 16);
    }
}
