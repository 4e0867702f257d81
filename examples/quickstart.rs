//! Quickstart: run the headline result of the paper end to end.
//!
//! The 2-Cycle problem — "is this graph one big cycle or two half-sized
//! cycles?" — is conjectured to need Ω(log n) rounds in the MPC model, but
//! the AMPC algorithm of Section 4 solves it in O(1/ε) rounds.  This example
//! runs both on the same instances and prints the round counts side by side.
//!
//! Run with: `cargo run --release --example quickstart [-- <backend>]`
//!
//! The DDS backend serving the AMPC runs is selectable without touching
//! code: pass `local`, `channel`, `remote` or `cluster` as the first argument
//! (or set `AMPC_BACKEND`).  `remote` runs every round over localhost TCP
//! sockets speaking the `ampc_dds::proto` wire format, and `cluster` is the
//! same client over a local cluster of two owner threads, each holding a
//! contiguous shard range — same answers, same round counts, per the
//! cross-backend determinism suite.
//!
//! # Two-process mode
//!
//! The store can also live in a *separate owner process*:
//!
//! ```text
//! cargo run --release --example quickstart -- --serve 127.0.0.1:7471
//! cargo run --release --example quickstart -- --connect 127.0.0.1:7471
//! ```
//!
//! `--serve` starts a standalone DDS owner (`ampc_dds::serve`) and blocks;
//! `--connect` runs the full quickstart against it, every runtime holding
//! its own leased session over real sockets, with automatic reconnect if a
//! connection drops mid-round.  Any number of `--connect` clients may share
//! one `--serve` process concurrently.
//!
//! # Cluster mode
//!
//! The store can also be *sharded across several owners*, each holding a
//! contiguous shard range and coordinated through the two-phase advance
//! barrier:
//!
//! ```text
//! cargo run --release --example quickstart -- --cluster 3
//! ```
//!
//! starts 3 serving cluster owners (`ampc_dds::serve_cluster`) on ephemeral
//! ports inside this process and runs the quickstart against them over
//! TCP.  The owner count is a run-time number — any
//! count up to the shard ceiling works, and owners beyond a stage's shard
//! count simply hold an empty range.  To split the owners into their own
//! processes, give every owner the same peer list plus its own index, then
//! point a client at the list (or set `AMPC_ENDPOINTS`):
//!
//! ```text
//! cargo run --release --example quickstart -- --serve-cluster 0 127.0.0.1:7481,127.0.0.1:7482
//! cargo run --release --example quickstart -- --serve-cluster 1 127.0.0.1:7481,127.0.0.1:7482
//! cargo run --release --example quickstart -- --connect-cluster 127.0.0.1:7481,127.0.0.1:7482
//! ```

use ampc_suite::prelude::*;
use ampc_suite::runtime::{parse_endpoint_list, MAX_SHARDS};

fn usage() -> ! {
    eprintln!(
        "usage: quickstart [local|channel|remote|cluster]\n       \
         quickstart --serve <addr>\n       \
         quickstart --connect <addr>\n       \
         quickstart --cluster <owners>   (any count in 1..={MAX_SHARDS})\n       \
         quickstart --serve-cluster <node> <addr,addr,...>\n       \
         quickstart --connect-cluster <addr,addr,...>\n\n\
         AMPC_ENDPOINTS=<addr,addr,...> selects cluster mode without flags."
    );
    std::process::exit(2);
}

/// Parse a comma-separated endpoint list, exiting with the typed
/// [`ampc_runtime::AmpcError`] message on malformed input (never a panic).
fn endpoints_or_exit(list: &str) -> Vec<String> {
    parse_endpoint_list(list).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve") => {
            let addr = args.get(1).cloned().unwrap_or_else(|| usage());
            let server = ampc_suite::dds::serve(addr.as_str()).unwrap_or_else(|err| {
                eprintln!("failed to bind the DDS owner on {addr}: {err}");
                std::process::exit(1);
            });
            println!("AMPC DDS owner serving on {}", server.local_addr());
            println!("(press Ctrl-C to stop; clients connect with --connect {addr})");
            loop {
                #[allow(
                    clippy::disallowed_methods,
                    reason = "parked on purpose: the example serves until Ctrl-C"
                )]
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Some("--connect") => {
            let addr = args.get(1).cloned().unwrap_or_else(|| usage());
            run_quickstart(Mode::Connect(addr));
        }
        Some("--cluster") => {
            let owners: usize = args
                .get(1)
                .and_then(|raw| raw.parse().ok())
                .unwrap_or_else(|| usage());
            if owners == 0 || owners > MAX_SHARDS {
                eprintln!("--cluster takes 1..={MAX_SHARDS} owners, got {owners}");
                std::process::exit(2);
            }
            // Spawn the owners on ephemeral ports: bind every listener first
            // so the full peer list exists before any owner starts serving.
            let listeners: Vec<std::net::TcpListener> = (0..owners)
                .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
                .collect::<std::io::Result<_>>()
                .unwrap_or_else(|err| {
                    eprintln!("failed to bind a cluster owner: {err}");
                    std::process::exit(1);
                });
            let peers: Vec<String> = listeners
                .iter()
                .map(|l| {
                    l.local_addr()
                        .expect("bound listener has an addr")
                        .to_string()
                })
                .collect();
            let servers: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(node, listener)| {
                    ampc_suite::dds::serve::serve_cluster_listener(listener, node, peers.clone())
                        .unwrap_or_else(|err| {
                            eprintln!("failed to start cluster owner {node}: {err}");
                            std::process::exit(1);
                        })
                })
                .collect();
            println!("spawned {owners} cluster owners on {}", peers.join(", "));
            run_quickstart(Mode::Cluster(peers));
            drop(servers); // owners outlive every client runtime
        }
        Some("--serve-cluster") => {
            let node: usize = args
                .get(1)
                .and_then(|raw| raw.parse().ok())
                .unwrap_or_else(|| usage());
            let peers =
                endpoints_or_exit(args.get(2).map(String::as_str).unwrap_or_else(|| usage()));
            if node >= peers.len() {
                eprintln!(
                    "--serve-cluster node {node} is out of range for {} peers",
                    peers.len()
                );
                std::process::exit(2);
            }
            let addr = peers[node].clone();
            let server = ampc_suite::dds::serve_cluster(addr.as_str(), node, peers.clone())
                .unwrap_or_else(|err| {
                    eprintln!("failed to bind cluster owner {node} on {addr}: {err}");
                    std::process::exit(1);
                });
            println!(
                "AMPC DDS cluster owner {node}/{} serving on {}",
                peers.len(),
                server.local_addr()
            );
            println!(
                "(press Ctrl-C to stop; clients connect with --connect-cluster {})",
                peers.join(",")
            );
            loop {
                #[allow(
                    clippy::disallowed_methods,
                    reason = "parked on purpose: the example serves until Ctrl-C"
                )]
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Some("--connect-cluster") => {
            let list = args.get(1).cloned().unwrap_or_else(|| usage());
            run_quickstart(Mode::Cluster(endpoints_or_exit(&list)));
        }
        Some(name) if name.starts_with('-') => usage(),
        Some(name) => {
            let backend = name.parse().unwrap_or_else(|err| {
                eprintln!("{err}");
                std::process::exit(2);
            });
            run_quickstart(Mode::InProcess(backend));
        }
        None => {
            if let Ok(list) = std::env::var("AMPC_ENDPOINTS") {
                run_quickstart(Mode::Cluster(endpoints_or_exit(&list)));
                return;
            }
            let backend = match std::env::var("AMPC_BACKEND") {
                Ok(name) => name.parse().unwrap_or_else(|err| {
                    eprintln!("{err}");
                    std::process::exit(2);
                }),
                Err(_) => DdsBackendKind::default(),
            };
            run_quickstart(Mode::InProcess(backend));
        }
    }
}

enum Mode {
    /// Owners spawned inside this process, per `DdsBackendKind`.
    InProcess(DdsBackendKind),
    /// Owners served by an external `--serve` process at this address.
    Connect(String),
    /// Shards split across cluster owners at these endpoints.
    Cluster(Vec<String>),
}

fn run_quickstart(mode: Mode) {
    println!("AMPC quickstart — the 2-Cycle problem (paper Section 4)");
    match &mode {
        Mode::InProcess(backend) => println!("DDS backend: {backend}\n"),
        Mode::Connect(addr) => println!("DDS backend: remote, served by {addr}\n"),
        Mode::Cluster(endpoints) => println!(
            "DDS backend: cluster, {} owners at {}\n",
            endpoints.len(),
            endpoints.join(", ")
        ),
    }
    println!(
        "{:>10} {:>12} {:>14} {:>14}",
        "n", "instance", "AMPC rounds", "MPC rounds"
    );

    for &n in &[1_000usize, 10_000, 100_000] {
        for &two in &[false, true] {
            let graph = generators::two_cycle_instance(n, two, 42);

            // AMPC (Section 4): Shrink + single-machine finish, O(1/ε)
            // rounds, on the configured backend.
            let config = AmpcConfig::for_graph(n, graph.num_edges(), 0.5).with_seed(42);
            let config = match &mode {
                Mode::InProcess(backend) => config.with_backend(*backend),
                Mode::Connect(addr) => config.with_remote_endpoint(addr.clone()),
                Mode::Cluster(endpoints) => config
                    .with_cluster_endpoints(endpoints.clone())
                    .unwrap_or_else(|err| {
                        eprintln!("{err}");
                        std::process::exit(2);
                    }),
            };
            let ampc = two_cycle_with(&graph, &config);

            // MPC baseline: pointer doubling, Θ(log n) rounds.
            let (mpc_answer, mpc_stats) = ampc_suite::mpc::two_cycle_mpc(&graph, 64);

            let expected = if two {
                TwoCycleAnswer::TwoCycles
            } else {
                TwoCycleAnswer::OneCycle
            };
            assert_eq!(ampc.output, expected, "AMPC answer must match the instance");
            let mpc_matches = matches!(
                (mpc_answer, two),
                (ampc_suite::mpc::TwoCycleAnswer::OneCycle, false)
                    | (ampc_suite::mpc::TwoCycleAnswer::TwoCycles, true)
            );
            assert!(mpc_matches, "MPC answer must match the instance");

            println!(
                "{:>10} {:>12} {:>14} {:>14}",
                n,
                if two { "two cycles" } else { "one cycle" },
                ampc.rounds(),
                mpc_stats.num_rounds()
            );
        }
    }

    println!("\nThe AMPC round count stays flat while the MPC baseline grows with log n —");
    println!("that gap is exactly why the 2-Cycle conjecture fails in the AMPC model.");
}
