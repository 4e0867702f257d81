//! The five workloads: inputs from a seed, the sequential oracle each op is
//! checked against, and the op itself.
//!
//! One op is one complete `*_with(&graph, &config)` call — backend
//! construction, leases, input load, all rounds and output extraction — or,
//! for `serve-stream`, one complete streamed session per client.  Backends
//! are selected **only** through `AmpcConfig`, never by naming a backend
//! type, so a backend refactor can land without editing the benchmark.

use crate::stream;
use ampc_algorithms::common::{
    adjacency_pairs, degree_key, encode_weighted_neighbor, weighted_adjacency_key,
};
use ampc_algorithms::{
    connectivity_with, minimum_spanning_forest_with, two_edge_connectivity_with,
};
use ampc_dds::{serve, DdsServer, Key, Value};
use ampc_graph::{generators, sequential, Edge, Graph};
use ampc_runtime::{AmpcConfig, DdsBackendKind, RunStats};
use std::time::Instant;

/// Every workload, in the order they run and print.
pub const NAMES: [&str; 5] = [
    "conn-local",
    "conn-remote",
    "msf-channel",
    "twoedge-cluster",
    "serve-stream",
];

/// Space exponent of every algorithm workload.
const EPSILON: f64 = 0.5;
/// `AmpcConfig::seed` of every algorithm workload.  `--seed` picks the
/// instance; the program's own coin flips (leader sampling, machine RNG
/// streams) stay put, so two runs differ by their inputs and nothing else —
/// with the flips following `--seed` too, `twoedge-cluster` takes 20, 24 or 28
/// rounds on near-identical graphs.
const ALGORITHM_SEED: u64 = 2019;
/// Owners of the `twoedge-cluster` store.
const CLUSTER_OWNERS: usize = 2;

/// Input sizes.  `full` is the only source of committed numbers; `quick`
/// exists for tests.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Vertices of the connectivity and MSF instances.
    pub n: usize,
    /// `bridged_blocks(block_size, blocks, pendant)` of the 2-edge instance.
    pub blocks: (usize, usize, usize),
    /// Commits each `serve-stream` client streams per op (a multiple of
    /// [`stream::ADVANCE_EVERY`], so every epoch is full).
    pub stream_commits: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            n: 65_536,
            blocks: (1_024, 32, 8),
            stream_commits: 320 * stream::ADVANCE_EVERY,
        }
    }

    pub fn quick() -> Scale {
        Scale {
            n: 4_096,
            blocks: (128, 16, 4),
            stream_commits: 32 * stream::ADVANCE_EVERY,
        }
    }
}

/// The expected answer of an algorithm workload, from the sequential
/// reference implementations in `ampc_graph::sequential`.
enum Oracle {
    Components(Vec<u32>),
    MsfWeight {
        weight: u64,
        edges: usize,
    },
    TwoEdge {
        bridges: Vec<Edge>,
        components: Vec<u32>,
    },
}

// One `Prepared` is alive at a time, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Body {
    Algorithm {
        graph: Graph,
        config: AmpcConfig,
        oracle: Oracle,
    },
    Stream {
        server: DdsServer,
        commits: usize,
        seed: u64,
    },
}

/// A workload after set-up: inputs generated, oracle computed, owner started.
pub struct Prepared {
    pub name: &'static str,
    /// Vertices (`serve-stream`: clients).
    pub n: usize,
    /// Input edges (`serve-stream`: commits per client per op).
    pub m: usize,
    /// Work items one op completes: input edges, or acked commits.
    pub items_per_op: u64,
    /// Wall time of the input generator alone.
    pub generate_ms: f64,
    body: Body,
}

/// What one op did.  Counts are `RunStats` totals for algorithm ops; for
/// `serve-stream` a round is a frozen epoch and the pairs are those audited.
#[derive(Clone, Debug, Default)]
pub struct OpResult {
    pub wall_ms: f64,
    pub rounds: u64,
    pub queries: u64,
    pub writes: u64,
    pub budget_violations: u64,
    pub max_machine_comm: u64,
    /// `(wall ms, issued queries)` per `RoundStats` entry.
    pub round_ms: Vec<(f64, bool)>,
    /// Commit latencies (`serve-stream` only).
    pub latencies_ns: Vec<u64>,
    /// Why the op failed: panic, error, or oracle mismatch.
    pub error: Option<String>,
}

impl OpResult {
    /// The model's communication cost: queries + writes.
    pub fn comm_pairs(&self) -> u64 {
        self.queries + self.writes
    }
}

impl Prepared {
    /// Generate the inputs of workload `name` from `seed`, compute its
    /// oracle, and start what it needs.  `threads` caps the runtime's
    /// worker threads.
    pub fn set_up(name: &str, scale: Scale, seed: u64, threads: usize) -> Result<Prepared, String> {
        let name = NAMES
            .into_iter()
            .find(|known| *known == name)
            .ok_or_else(|| format!("unknown workload {name:?} (expected one of {NAMES:?})"))?;
        let started = Instant::now();
        let (graph, backend, oracle): (Graph, DdsBackendKind, fn(&Graph) -> Oracle) = match name {
            "conn-local" | "conn-remote" => {
                let n = scale.n;
                // The same instance on both, so the gap between them is wire cost.
                let graph = generators::planted_components(n, 8, 3 * n / 8, seed);
                let backend = if name == "conn-local" {
                    DdsBackendKind::Local
                } else {
                    DdsBackendKind::Remote
                };
                (graph, backend, |graph| {
                    Oracle::Components(sequential::connected_components(graph))
                })
            }
            "msf-channel" => {
                let n = scale.n;
                let unweighted = generators::connected_gnm(n, 3 * n, seed);
                let graph = generators::with_random_weights(&unweighted, seed.wrapping_add(1));
                (graph, DdsBackendKind::Channel, |graph| {
                    let (edges, weight) = sequential::kruskal_msf(graph);
                    Oracle::MsfWeight {
                        weight,
                        edges: edges.len(),
                    }
                })
            }
            "twoedge-cluster" => {
                let (block_size, blocks, pendant) = scale.blocks;
                let graph = generators::bridged_blocks(block_size, blocks, pendant, seed);
                (graph, DdsBackendKind::Cluster, |graph| Oracle::TwoEdge {
                    bridges: sequential::bridges(graph),
                    components: sequential::two_edge_connected_components(graph),
                })
            }
            "serve-stream" => {
                let server =
                    serve(("127.0.0.1", 0)).map_err(|e| format!("starting the owner: {e}"))?;
                return Ok(Prepared {
                    name,
                    n: stream::CLIENTS,
                    m: scale.stream_commits,
                    items_per_op: (stream::CLIENTS * scale.stream_commits) as u64,
                    generate_ms: 0.0,
                    body: Body::Stream {
                        server,
                        commits: scale.stream_commits,
                        seed,
                    },
                });
            }
            _ => unreachable!("NAMES lists a workload set_up does not know"),
        };
        let generate_ms = started.elapsed().as_secs_f64() * 1e3;

        let oracle = oracle(&graph);
        let (n, m) = (graph.num_vertices(), graph.num_edges());
        let mut config = AmpcConfig::for_graph(n, m, EPSILON)
            .with_seed(ALGORITHM_SEED)
            .with_threads(threads)
            .with_backend(backend);
        if backend == DdsBackendKind::Cluster {
            config = config
                .with_cluster_owners(CLUSTER_OWNERS)
                .map_err(|e| e.to_string())?;
        }
        Ok(Prepared {
            name,
            n,
            m,
            items_per_op: m as u64,
            generate_ms,
            body: Body::Algorithm {
                graph,
                config,
                oracle,
            },
        })
    }

    /// The config algorithm ops run under (`None` for `serve-stream`).
    pub fn config(&self) -> Option<&AmpcConfig> {
        match &self.body {
            Body::Algorithm { config, .. } => Some(config),
            Body::Stream { .. } => None,
        }
    }

    /// Run one op and check it against the oracle (the check is outside the
    /// timed region).  `config` overrides the workload's own config — the
    /// traced run uses that to route through the wire tap.
    pub fn run_op(&self, config: Option<&AmpcConfig>) -> OpResult {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &self.body {
            Body::Algorithm {
                graph,
                config: own,
                oracle,
            } => run_algorithm(graph, config.unwrap_or(own), oracle),
            Body::Stream {
                server,
                commits,
                seed,
            } => run_stream(server.local_addr(), *commits, *seed),
        }));
        outcome.unwrap_or_else(|payload| OpResult {
            error: Some(format!(
                "op panicked: {}",
                ampc_dds::transport::panic_message(payload.as_ref())
                    .unwrap_or_else(|| "non-string payload".to_string())
            )),
            ..OpResult::default()
        })
    }

    /// The pairs this workload first publishes to the store — what the layer
    /// probes are fed.  Rebuilt from public helpers: plain adjacency for
    /// connectivity, weighted adjacency for MSF and for 2-edge connectivity
    /// (whose first stage is a spanning forest over edge-id weights), one
    /// epoch of commits for `serve-stream`.
    pub fn d0(&self) -> Vec<(Key, Value)> {
        match &self.body {
            Body::Algorithm { graph, oracle, .. } => match oracle {
                Oracle::Components(_) => adjacency_pairs(graph),
                Oracle::MsfWeight { .. } => weighted_pairs(graph, |id| graph.edge_weight(id)),
                Oracle::TwoEdge { .. } => weighted_pairs(graph, |id| id as u64 + 1),
            },
            Body::Stream { seed, .. } => (0..stream::ADVANCE_EVERY as u64)
                .flat_map(|seq| stream::commit_pairs(seq, *seed))
                .collect(),
        }
    }
}

fn weighted_pairs(graph: &Graph, weight: impl Fn(u32) -> u64) -> Vec<(Key, Value)> {
    let n = graph.num_vertices();
    let mut pairs = Vec::with_capacity(n + 2 * graph.num_edges());
    for v in 0..n as u32 {
        pairs.push((degree_key(v), Value::scalar(graph.degree(v) as u64)));
        for (i, (u, id)) in graph.neighbors_with_ids(v).enumerate() {
            pairs.push((
                weighted_adjacency_key(v, i),
                encode_weighted_neighbor(u, id, weight(id)),
            ));
        }
    }
    pairs
}

fn run_algorithm(graph: &Graph, config: &AmpcConfig, oracle: &Oracle) -> OpResult {
    let started = Instant::now();
    let (stats, error) = match oracle {
        Oracle::Components(expected) => {
            let result = connectivity_with(graph, config);
            let wall = started.elapsed();
            let error = (result.output != *expected).then(|| "component labels differ".to_string());
            (timed(result.stats, wall), error)
        }
        Oracle::MsfWeight { weight, edges } => {
            let result = minimum_spanning_forest_with(graph, config);
            let wall = started.elapsed();
            let error = (result.output.total_weight != *weight
                || result.output.edges.len() != *edges)
                .then(|| {
                    format!(
                        "forest weighs {} over {} edges, Kruskal says {weight} over {edges}",
                        result.output.total_weight,
                        result.output.edges.len()
                    )
                });
            (timed(result.stats, wall), error)
        }
        Oracle::TwoEdge {
            bridges,
            components,
        } => {
            let result = two_edge_connectivity_with(graph, config);
            let wall = started.elapsed();
            let error = (result.output.bridges != *bridges
                || result.output.two_edge_components != *components)
                .then(|| "bridges or 2-edge components differ".to_string());
            (timed(result.stats, wall), error)
        }
    };
    OpResult { error, ..stats }
}

fn timed(stats: RunStats, wall: std::time::Duration) -> OpResult {
    OpResult {
        wall_ms: wall.as_secs_f64() * 1e3,
        rounds: stats.num_rounds() as u64,
        queries: stats.total_queries(),
        writes: stats.total_writes(),
        budget_violations: stats.budget_violations(),
        max_machine_comm: stats.max_machine_communication(),
        round_ms: stats
            .rounds
            .iter()
            .map(|round| (round.wall_time.as_secs_f64() * 1e3, round.total_queries > 0))
            .collect(),
        ..OpResult::default()
    }
}

fn run_stream(owner: std::net::SocketAddr, commits: usize, seed: u64) -> OpResult {
    let started = Instant::now();
    let runs = stream::run_clients(owner, commits, stream::WINDOW, seed);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    match runs {
        Ok(runs) => OpResult {
            wall_ms,
            rounds: runs.iter().map(|run| run.advances).sum(),
            writes: runs.iter().map(|run| run.audited_writes).sum(),
            latencies_ns: runs.into_iter().flat_map(|run| run.latencies_ns).collect(),
            ..OpResult::default()
        },
        Err(error) => OpResult {
            wall_ms,
            error: Some(error),
            ..OpResult::default()
        },
    }
}
