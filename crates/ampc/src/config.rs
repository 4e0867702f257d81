//! Configuration of an AMPC execution.
//!
//! The model's parameters (Section 2 of the paper): input size `N`, space
//! per machine `S = Θ(N^{1-Ω(1)})` — for graph inputs the paper uses
//! `S = n^ε` for a constant `ε ∈ (0, 1)` — number of machines `P`, and total
//! space `T = S · P = O(N polylog N)`.  [`AmpcConfig`] derives `S`, `P` and
//! `T` from the input size and `ε`, and controls how strictly the per-round
//! query/write budgets are enforced.

use crate::error::AmpcError;
use std::fmt;

/// Default space exponent ε used when the caller does not care.
pub const DEFAULT_EPSILON: f64 = 0.5;

/// Hard ceiling on the number of DDS shards.
///
/// Historically 256 to keep per-shard lock overhead sensible when the
/// end-of-round commit partitioned writes on a single thread; the partition
/// pass now splits a round's pairs into contiguous ranges, one per worker,
/// and sizes every shard's bucket exactly from the workers' counts, so the
/// per-shard fixed cost is paid across workers and the derived cap is now
/// 1024.  Explicit requests beyond the ceiling are
/// rejected with [`AmpcError::InvalidShardCount`] rather than silently
/// clamped — see [`AmpcConfig::with_num_shards`].
pub const MAX_SHARDS: usize = 1024;

/// Which [`ampc_dds::DdsBackend`] implementation a runtime uses.
///
/// Algorithms never branch on this: [`crate::AmpcRuntime::new`] opens the
/// backend the config names, so the same driver code runs on every store.
/// The cross-backend determinism suite (`tests/backend_determinism.rs`)
/// pins down that the choice is unobservable in algorithm outputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DdsBackendKind {
    /// In-process sharded store ([`ampc_dds::LocalBackend`]): shared memory,
    /// lock-free frozen reads.  The default and the fastest.
    #[default]
    Local,
    /// The wire client over in-process channels
    /// ([`ampc_dds::ChannelBackend`]): shard groups owned by dedicated
    /// threads, write-side requests crossing as `ampc_dds::proto` messages,
    /// frozen epochs published zero-copy.  Simulates a multi-process
    /// deployment.
    Channel,
    /// The same wire client over TCP ([`ampc_dds::TcpBackend`]), with
    /// owners that each hold a contiguous range of the shards: threads of
    /// this process, or one external serving process when
    /// [`AmpcConfig::remote_endpoint`] is set.  Requests are
    /// length-prefixed `ampc_dds::proto` frames, frozen epochs are fetched
    /// and rebuilt as local replicas.  The deployable shape of the store.
    Remote,
    /// The same [`ampc_dds::TcpBackend`] over N owners, each owning a
    /// contiguous shard range discovered through the shard map in every
    /// lease grant; epochs advance with one `Advance` per owner, as on
    /// every wire backend.  N is a run-time number: spawns a local
    /// cluster of [`AmpcConfig::cluster_owners`] owner threads, or connects
    /// to the serving owners at [`AmpcConfig::cluster_endpoints`] when set.
    Cluster,
}

impl fmt::Display for DdsBackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DdsBackendKind::Local => "local",
            DdsBackendKind::Channel => "channel",
            DdsBackendKind::Remote => "remote",
            DdsBackendKind::Cluster => "cluster",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for DdsBackendKind {
    type Err = AmpcError;

    /// Parse a backend name (`local` / `channel` / `remote` / `cluster`,
    /// case- and whitespace-insensitive; `tcp` is accepted as an alias for
    /// `remote`), so binaries and examples can select the backend from a
    /// CLI argument or environment variable.
    fn from_str(name: &str) -> Result<Self, AmpcError> {
        match name.trim().to_ascii_lowercase().as_str() {
            "local" => Ok(DdsBackendKind::Local),
            "channel" => Ok(DdsBackendKind::Channel),
            "remote" | "tcp" => Ok(DdsBackendKind::Remote),
            "cluster" => Ok(DdsBackendKind::Cluster),
            _ => Err(AmpcError::UnknownBackend {
                requested: name.to_string(),
            }),
        }
    }
}

/// How budget violations are handled by the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetMode {
    /// A machine exceeding its per-round query/write budget aborts the run
    /// with [`crate::AmpcError::BudgetExceeded`].
    Strict,
    /// Violations are recorded in the round statistics but execution
    /// continues.  This is the default: the paper's budgets hold with high
    /// probability, and the recorded counts let tests assert the bound while
    /// benches keep running on unlucky random draws.
    Record,
}

/// Parameters of an AMPC execution.
#[derive(Clone, Debug, PartialEq)]
pub struct AmpcConfig {
    /// Problem-size parameter the space bound is expressed in (the paper
    /// uses the number of vertices `n` for graph problems).
    pub size_parameter: usize,
    /// Space exponent ε: each machine has `S = ⌈size_parameter^ε⌉` space.
    pub epsilon: f64,
    /// Multiplier on the per-round budgets (the constants hidden in `O(S)`).
    pub budget_factor: f64,
    /// Total space available, `T = Θ(N)` where `N` is the input size: set
    /// by [`AmpcConfig::new`] and replaced by [`AmpcConfig::derive`].
    pub total_space: usize,
    /// Budget enforcement mode.
    pub budget_mode: BudgetMode,
    /// Worker threads used to execute machines in parallel.  `0` means "one
    /// per available CPU".
    pub threads: usize,
    /// Seed for all randomness the runtime itself draws (machine assignment,
    /// per-machine RNG streams).
    pub seed: u64,
    /// Which DDS backend [`crate::AmpcRuntime::new`] opens.
    pub backend: DdsBackendKind,
    /// Explicit shard count, overriding the `min(P, MAX_SHARDS)` derivation.
    /// Set through [`AmpcConfig::with_num_shards`], which validates the
    /// range.
    pub num_shards_override: Option<usize>,
    /// Address of an external DDS owner process (`ampc_dds::serve`).  When
    /// set and `backend` is [`DdsBackendKind::Remote`], runtimes connect
    /// their leased sessions to this process instead of spawning in-process
    /// owner threads — the multi-host deployment shape.  Ignored by the
    /// in-process backends.
    pub remote_endpoint: Option<String>,
    /// Owner-process count for a locally spawned cluster
    /// ([`DdsBackendKind::Cluster`] with no endpoints).  Set through
    /// [`AmpcConfig::with_cluster_owners`], which validates the range.
    pub cluster_owners: usize,
    /// Endpoints of an already-running cluster, one per owner in node
    /// order.  When set and `backend` is [`DdsBackendKind::Cluster`],
    /// runtimes connect to these processes instead of spawning a local
    /// cluster.  Set through [`AmpcConfig::with_cluster_endpoints`] or
    /// parsed from a CLI/env string with [`parse_endpoint_list`].
    pub cluster_endpoints: Option<Vec<String>>,
}

impl AmpcConfig {
    /// Configuration for an input of size `input_size` (for graphs,
    /// `N = n + m`) using `size_parameter` (for graphs, `n`) and exponent ε.
    pub fn new(size_parameter: usize, input_size: usize, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must lie in (0, 1), got {epsilon}"
        );
        AmpcConfig {
            size_parameter: size_parameter.max(1),
            epsilon,
            budget_factor: 8.0,
            total_space: input_size.max(1),
            budget_mode: BudgetMode::Record,
            threads: 0,
            seed: 0x5eed,
            backend: DdsBackendKind::Local,
            num_shards_override: None,
            remote_endpoint: None,
            cluster_owners: 2,
            cluster_endpoints: None,
        }
    }

    /// Convenience constructor for graph inputs: `size_parameter = n`,
    /// `input_size = n + m`.
    pub fn for_graph(n: usize, m: usize, epsilon: f64) -> Self {
        AmpcConfig::new(n, n + m, epsilon)
    }

    /// Builder-style: set the budget multiplier.
    pub fn with_budget_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.budget_factor = factor;
        self
    }

    /// Builder-style: set the budget mode.
    pub fn with_budget_mode(mut self, mode: BudgetMode) -> Self {
        self.budget_mode = mode;
        self
    }

    /// Builder-style: set the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style: set the runtime seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: select the DDS backend.
    pub fn with_backend(mut self, backend: DdsBackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Builder-style: serve the DDS from an external owner process at
    /// `endpoint` (see `ampc_dds::serve`), and select the socket backend
    /// that speaks to it.  Every runtime built from this config — including
    /// the sub-runtimes algorithm drivers derive — opens its own leased
    /// session against that process.
    pub fn with_remote_endpoint(mut self, endpoint: impl Into<String>) -> Self {
        self.remote_endpoint = Some(endpoint.into());
        self.backend = DdsBackendKind::Remote;
        self
    }

    /// Builder-style: run the DDS as a locally spawned cluster of `owners`
    /// owner threads, and select the cluster backend.
    ///
    /// # Errors
    /// [`AmpcError::InvalidEndpointList`] if `owners` is zero or exceeds
    /// [`MAX_SHARDS`] (an owner beyond the shard count could hold nothing).
    pub fn with_cluster_owners(mut self, owners: usize) -> Result<Self, AmpcError> {
        if owners == 0 || owners > MAX_SHARDS {
            return Err(AmpcError::InvalidEndpointList {
                requested: owners.to_string(),
                reason: format!("cluster owner counts must lie in 1..={MAX_SHARDS}"),
            });
        }
        self.cluster_owners = owners;
        self.cluster_endpoints = None;
        self.backend = DdsBackendKind::Cluster;
        Ok(self)
    }

    /// Builder-style: serve the DDS from an already-running cluster at
    /// `endpoints` (one per owner, node order — each started with
    /// `ampc_dds::serve_cluster` over the identical peer list), and select
    /// the cluster backend.
    ///
    /// # Errors
    /// [`AmpcError::InvalidEndpointList`] if the list is empty, longer than
    /// [`MAX_SHARDS`], or any endpoint is malformed (see
    /// [`parse_endpoint_list`] for the accepted shape).
    pub fn with_cluster_endpoints(mut self, endpoints: Vec<String>) -> Result<Self, AmpcError> {
        let endpoints = parse_endpoint_list(&endpoints.join(","))?;
        self.cluster_owners = endpoints.len();
        self.cluster_endpoints = Some(endpoints);
        self.backend = DdsBackendKind::Cluster;
        Ok(self)
    }

    /// Builder-style: set an explicit DDS shard count.
    ///
    /// # Errors
    /// [`AmpcError::InvalidShardCount`] if `shards` is zero or exceeds
    /// [`MAX_SHARDS`] — out-of-range counts are a configuration bug and are
    /// rejected rather than silently clamped.
    pub fn with_num_shards(mut self, shards: usize) -> Result<Self, AmpcError> {
        if shards == 0 || shards > MAX_SHARDS {
            return Err(AmpcError::InvalidShardCount {
                requested: shards,
                max: MAX_SHARDS,
            });
        }
        self.num_shards_override = Some(shards);
        Ok(self)
    }

    /// Derive the config for a sub-computation: same ε, seed, budget
    /// settings, thread cap and backend, with the size parameters replaced.
    ///
    /// Algorithm drivers use this so one caller-supplied config selects the
    /// backend (and tuning) for *every* runtime the algorithm creates, while
    /// each stage still sizes `S`/`P`/`T` from its own input.
    pub fn derive(&self, size_parameter: usize, input_size: usize) -> AmpcConfig {
        let mut derived = self.clone();
        derived.size_parameter = size_parameter.max(1);
        derived.total_space = input_size.max(1);
        derived
    }

    /// Space per machine, `S = ⌈size_parameter^ε⌉` (at least 2).
    pub fn space_per_machine(&self) -> usize {
        ((self.size_parameter as f64).powf(self.epsilon).ceil() as usize).max(2)
    }

    /// Number of machines, `P = ⌈T / S⌉` (at least 1).
    pub fn num_machines(&self) -> usize {
        self.total_space.div_ceil(self.space_per_machine()).max(1)
    }

    /// Per-machine, per-round query/write budget: `budget_factor · S`.
    pub fn round_budget(&self) -> u64 {
        (self.budget_factor * self.space_per_machine() as f64).ceil() as u64
    }

    /// Number of shards used for the DDS.  The paper assumes the DDS is
    /// served by `P` machines; we use `min(P, MAX_SHARDS)` shards — or the
    /// validated [`AmpcConfig::with_num_shards`] override — to keep
    /// per-shard fixed costs sensible at simulation scale.
    pub fn num_shards(&self) -> usize {
        match self.num_shards_override {
            Some(shards) => shards,
            None => self.num_machines().clamp(1, MAX_SHARDS),
        }
    }

    /// Worker threads to use, resolving `0` to the number of CPUs.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            ampc_dds::default_parallelism()
        } else {
            self.threads
        }
    }
}

/// Parse a comma-separated cluster endpoint list (the `--connect-cluster`
/// CLI argument and the `AMPC_ENDPOINTS` environment variable).
///
/// Accepted shape: 1 to [`MAX_SHARDS`] comma-separated
/// `host:port` entries, whitespace around entries ignored.  Each entry
/// must have a non-empty host and a numeric port in `1..=65535` after its
/// *last* colon (so bracketed IPv6 literals like `[::1]:7471` pass).
///
/// # Errors
/// [`AmpcError::InvalidEndpointList`] naming the offending input and why
/// it was rejected — malformed operator input is a configuration error, not
/// a panic.
pub fn parse_endpoint_list(list: &str) -> Result<Vec<String>, AmpcError> {
    let reject = |requested: &str, reason: String| {
        Err(AmpcError::InvalidEndpointList {
            requested: requested.to_string(),
            reason,
        })
    };
    if list.trim().is_empty() {
        return reject(list, "expected at least one host:port endpoint".into());
    }
    let entries: Vec<&str> = list.split(',').map(str::trim).collect();
    if entries.len() > MAX_SHARDS {
        return reject(
            list,
            format!(
                "{} endpoints exceed the supported 1..={MAX_SHARDS} owners",
                entries.len()
            ),
        );
    }
    let mut endpoints = Vec::with_capacity(entries.len());
    for entry in entries {
        let Some((host, port)) = entry.rsplit_once(':') else {
            return reject(entry, "missing the :port suffix".into());
        };
        if host.is_empty() {
            return reject(entry, "missing the host".into());
        }
        match port.parse::<u16>() {
            Ok(0) | Err(_) => return reject(entry, format!("port {port:?} is not in 1..=65535")),
            Ok(_) => {}
        }
        endpoints.push(entry.to_string());
    }
    Ok(endpoints)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_and_machine_counts_follow_the_model() {
        let cfg = AmpcConfig::for_graph(10_000, 40_000, 0.5);
        assert_eq!(cfg.space_per_machine(), 100); // 10_000^0.5
        assert_eq!(cfg.num_machines(), 500); // (10_000 + 40_000) / 100
        assert_eq!(cfg.total_space, 50_000);
        assert!(cfg.round_budget() >= 100);
    }

    #[test]
    fn epsilon_changes_machine_granularity() {
        let coarse = AmpcConfig::for_graph(10_000, 0, 0.75);
        let fine = AmpcConfig::for_graph(10_000, 0, 0.25);
        assert!(coarse.space_per_machine() > fine.space_per_machine());
        assert!(coarse.num_machines() < fine.num_machines());
    }

    #[test]
    fn builders_apply() {
        let cfg = AmpcConfig::for_graph(100, 100, 0.5)
            .with_budget_factor(2.0)
            .with_budget_mode(BudgetMode::Strict)
            .with_threads(3)
            .with_seed(99);
        assert_eq!(cfg.budget_mode, BudgetMode::Strict);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.effective_threads(), 3);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.round_budget(), 20);
    }

    #[test]
    fn tiny_inputs_still_get_valid_parameters() {
        let cfg = AmpcConfig::for_graph(1, 0, 0.5);
        assert!(cfg.space_per_machine() >= 2);
        assert!(cfg.num_machines() >= 1);
        assert!(cfg.num_shards() >= 1);
    }

    #[test]
    fn shards_are_capped() {
        let cfg = AmpcConfig::for_graph(1_000_000, 10_000_000, 0.25);
        assert_eq!(cfg.num_shards(), MAX_SHARDS);
    }

    #[test]
    fn explicit_shard_counts_are_validated_at_the_boundary() {
        let cfg = AmpcConfig::for_graph(100, 100, 0.5);
        // Both edges of the valid range are accepted…
        assert_eq!(cfg.clone().with_num_shards(1).unwrap().num_shards(), 1);
        assert_eq!(
            cfg.clone()
                .with_num_shards(MAX_SHARDS)
                .unwrap()
                .num_shards(),
            MAX_SHARDS
        );
        // …and both sides just past it are rejected with the typed error.
        assert_eq!(
            cfg.clone().with_num_shards(0).unwrap_err(),
            AmpcError::InvalidShardCount {
                requested: 0,
                max: MAX_SHARDS
            }
        );
        assert_eq!(
            cfg.clone().with_num_shards(MAX_SHARDS + 1).unwrap_err(),
            AmpcError::InvalidShardCount {
                requested: MAX_SHARDS + 1,
                max: MAX_SHARDS
            }
        );
    }

    #[test]
    fn derive_keeps_tuning_and_replaces_sizes() {
        let template = AmpcConfig::for_graph(100, 100, 0.25)
            .with_seed(7)
            .with_threads(3)
            .with_backend(DdsBackendKind::Channel)
            .with_budget_factor(2.5);
        let derived = template.derive(5_000, 20_000);
        assert_eq!(derived.size_parameter, 5_000);
        assert_eq!(derived.total_space, 20_000);
        assert_eq!(derived.epsilon, 0.25);
        assert_eq!(derived.seed, 7);
        assert_eq!(derived.threads, 3);
        assert_eq!(derived.backend, DdsBackendKind::Channel);
        assert_eq!(derived.budget_factor, 2.5);
    }

    #[test]
    fn remote_endpoints_select_the_socket_backend_and_survive_derive() {
        let cfg = AmpcConfig::for_graph(100, 100, 0.5).with_remote_endpoint("127.0.0.1:7471");
        assert_eq!(cfg.backend, DdsBackendKind::Remote);
        assert_eq!(cfg.remote_endpoint.as_deref(), Some("127.0.0.1:7471"));
        // Sub-computations must keep talking to the same owner process.
        let derived = cfg.derive(10, 10);
        assert_eq!(derived.remote_endpoint.as_deref(), Some("127.0.0.1:7471"));
        assert_eq!(derived.backend, DdsBackendKind::Remote);
    }

    #[test]
    fn cluster_builders_select_the_cluster_backend() {
        let cfg = AmpcConfig::for_graph(100, 100, 0.5)
            .with_cluster_owners(3)
            .unwrap();
        assert_eq!(cfg.backend, DdsBackendKind::Cluster);
        assert_eq!(cfg.cluster_owners, 3);
        assert_eq!(cfg.cluster_endpoints, None);
        // The cluster topology must survive `derive` so sub-computations
        // keep talking to the same owners.
        let derived = cfg.derive(10, 10);
        assert_eq!(derived.backend, DdsBackendKind::Cluster);
        assert_eq!(derived.cluster_owners, 3);

        let cfg = AmpcConfig::for_graph(100, 100, 0.5)
            .with_cluster_endpoints(vec!["127.0.0.1:7471".into(), "127.0.0.1:7472".into()])
            .unwrap();
        assert_eq!(cfg.backend, DdsBackendKind::Cluster);
        assert_eq!(cfg.cluster_owners, 2);
        assert_eq!(
            cfg.cluster_endpoints.as_deref(),
            Some(&["127.0.0.1:7471".to_string(), "127.0.0.1:7472".to_string()][..])
        );

        // Both edges of the owner-count range are accepted; counts outside
        // it are configuration errors, not panics.
        for owners in [1, MAX_SHARDS] {
            let cfg = AmpcConfig::for_graph(100, 100, 0.5).with_cluster_owners(owners);
            assert_eq!(cfg.map(|cfg| cfg.cluster_owners), Ok(owners));
        }
        for owners in [0, MAX_SHARDS + 1] {
            assert!(matches!(
                AmpcConfig::for_graph(100, 100, 0.5).with_cluster_owners(owners),
                Err(AmpcError::InvalidEndpointList { .. })
            ));
        }
    }

    #[test]
    fn endpoint_lists_parse_at_both_boundaries() {
        // The happy path, with whitespace tolerance and IPv6 brackets.
        assert_eq!(
            parse_endpoint_list(" 127.0.0.1:7471 ,[::1]:7472").unwrap(),
            vec!["127.0.0.1:7471".to_string(), "[::1]:7472".to_string()]
        );
        // Both edges of the owner-count range are accepted…
        assert_eq!(parse_endpoint_list("a:1").unwrap().len(), 1);
        let list = |owners: usize| {
            (0..owners)
                .map(|i| format!("host{i}:{}", 7000 + i))
                .collect::<Vec<_>>()
                .join(",")
        };
        assert_eq!(
            parse_endpoint_list(&list(MAX_SHARDS)).unwrap().len(),
            MAX_SHARDS
        );
        // …and both edges of the port range.
        assert!(parse_endpoint_list("a:1,b:65535").is_ok());

        // Malformed lists are typed errors naming the offender, never panics.
        let too_many = list(MAX_SHARDS + 1);
        let cases = [
            ("", "at least one"),
            ("   ", "at least one"),
            (too_many.as_str(), "exceed"),
            ("hostonly", "missing the :port"),
            (":7471", "missing the host"),
            ("a:0", "not in 1..=65535"),
            ("a:65536", "not in 1..=65535"),
            ("a:port", "not in 1..=65535"),
            ("a:1,,b:2", "missing the :port"),
        ];
        for (input, expected) in cases {
            match parse_endpoint_list(input) {
                Err(AmpcError::InvalidEndpointList { reason, .. }) => {
                    assert!(reason.contains(expected), "{input:?}: {reason}")
                }
                other => panic!("{input:?} should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn backend_kinds_round_trip_through_strings() {
        let kinds = [
            DdsBackendKind::Local,
            DdsBackendKind::Channel,
            DdsBackendKind::Remote,
            DdsBackendKind::Cluster,
        ];
        for kind in kinds {
            assert_eq!(kind.to_string().parse::<DdsBackendKind>(), Ok(kind));
        }
        // Parsing is forgiving about case and whitespace, plus one alias…
        assert_eq!(" Remote\n".parse(), Ok(DdsBackendKind::Remote));
        assert_eq!("TCP".parse(), Ok(DdsBackendKind::Remote));
        assert_eq!("LOCAL".parse(), Ok(DdsBackendKind::Local));
        // …but unknown names fail with the typed error naming the input.
        assert_eq!(
            "mpsc".parse::<DdsBackendKind>(),
            Err(AmpcError::UnknownBackend {
                requested: "mpsc".to_string()
            })
        );
    }

    #[test]
    #[should_panic(expected = "epsilon must lie in (0, 1)")]
    fn invalid_epsilon_rejected() {
        let _ = AmpcConfig::for_graph(10, 10, 1.5);
    }

    #[test]
    fn zero_threads_resolves_to_cpu_count() {
        let cfg = AmpcConfig::for_graph(10, 10, 0.5);
        assert!(cfg.effective_threads() >= 1);
    }
}
