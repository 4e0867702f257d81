//! Print the full experimental reproduction as text tables.
//!
//! `cargo run -p ampc-bench --bin summary --release [-- --quick]`
//!
//! Regenerates, in order:
//!   1. Figure 1 — AMPC vs MPC measured rounds for all six problems;
//!   2. the rounds-vs-n scaling series per problem;
//!   3. the rounds-vs-density series (the log log_{m/n} n term);
//!   4. the rounds-vs-diameter series (the log D term MPC pays);
//!   5. the rounds-vs-ε ablation;
//!   6. the Lemma 2.1 contention experiment;
//!   7. the commit-throughput / read-latency / shard-sweep series, also
//!      written to `BENCH_commit.json` so future PRs have a perf trajectory.

use ampc_bench::{
    backend_read_latency, cluster_commit_scaling, commit_throughput, contention_experiment,
    density_series, diameter_series, epsilon_series, figure1_table, read_latency, scaling_series,
    serve_throughput, shard_sweep,
};
use std::fmt::Write as _;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seed = 2019;

    // ---------------------------------------------------------------- Figure 1
    let n = if quick { 4_096 } else { 32_768 };
    println!("== Figure 1: round complexities, measured at n = {n} ==\n");
    println!(
        "{:<26} {:>22} {:>28} {:>12} {:>12} {:>9}",
        "problem", "paper AMPC bound", "paper MPC bound", "AMPC rounds", "MPC rounds", "verified"
    );
    for row in figure1_table(n, seed) {
        println!(
            "{:<26} {:>22} {:>28} {:>12} {:>12} {:>9}",
            row.problem,
            row.ampc_bound,
            row.mpc_bound,
            row.ampc_rounds,
            row.mpc_rounds,
            if row.verified { "yes" } else { "NO" }
        );
    }

    // ------------------------------------------------------- rounds vs n series
    let sizes: Vec<usize> = if quick {
        vec![1_024, 4_096, 16_384]
    } else {
        vec![1_024, 4_096, 16_384, 65_536]
    };
    println!("\n== Rounds vs n (AMPC / MPC baseline) ==\n");
    print!("{:<16}", "problem");
    for &s in &sizes {
        print!("{:>16}", s);
    }
    println!();
    for problem in [
        "two_cycle",
        "connectivity",
        "mis",
        "msf",
        "forest",
        "list_ranking",
    ] {
        let series = scaling_series(problem, &sizes, seed);
        print!("{:<16}", problem);
        for point in &series {
            print!(
                "{:>16}",
                format!("{}/{}", point.ampc_rounds, point.mpc_rounds)
            );
        }
        println!();
    }

    // -------------------------------------------------------- density series
    let density_n = if quick { 8_192 } else { 32_768 };
    let densities = [2usize, 4, 8, 16];
    println!("\n== Connectivity rounds vs density m/n (n = {density_n}) ==\n");
    println!(
        "{:>8} {:>14} {:>18}",
        "m/n", "AMPC rounds", "MPC log-n rounds"
    );
    for point in density_series(density_n, &densities, seed) {
        println!(
            "{:>8} {:>14} {:>18}",
            point.x, point.ampc_rounds, point.mpc_rounds
        );
    }

    // ------------------------------------------------------- diameter series
    let clique_counts: Vec<usize> = if quick {
        vec![8, 32, 128]
    } else {
        vec![8, 32, 128, 512]
    };
    println!("\n== Connectivity rounds vs diameter (path of 16-cliques) ==\n");
    println!(
        "{:>10} {:>14} {:>20}",
        "diameter", "AMPC rounds", "MPC O(D) rounds"
    );
    for point in diameter_series(16, &clique_counts, seed) {
        println!(
            "{:>10} {:>14} {:>20}",
            point.x, point.ampc_rounds, point.mpc_rounds
        );
    }

    // -------------------------------------------------------- epsilon ablation
    let eps_n = if quick { 8_192 } else { 65_536 };
    let epsilons = [0.25, 0.4, 0.5, 0.65, 0.8];
    println!("\n== 2-Cycle rounds vs space exponent ε (n = {eps_n}) ==\n");
    println!(
        "{:>8} {:>14} {:>30}",
        "ε", "AMPC rounds", "max per-machine communication"
    );
    for point in epsilon_series(eps_n, &epsilons, seed) {
        println!(
            "{:>8} {:>14} {:>30}",
            point.x, point.ampc_rounds, point.ampc_max_machine_communication
        );
    }

    // ----------------------------------------------------- contention (L. 2.1)
    let pairs = if quick { 65_536 } else { 262_144 };
    let machines = [16usize, 64, 256, 1024];
    println!("\n== Lemma 2.1: weighted balls-into-bins contention (T = {pairs}) ==\n");
    println!(
        "{:>8} {:>10} {:>14} {:>12}",
        "P", "S = T/P", "max bin load", "imbalance"
    );
    for report in contention_experiment(pairs, &machines, seed) {
        println!(
            "{:>8} {:>10} {:>14} {:>12.3}",
            report.bins, report.mean_load as u64, report.max_load, report.imbalance
        );
    }

    // --------------------------------------- commit throughput / read latency
    let commit_pairs = if quick { 262_144 } else { 1_048_576 };
    let shard_counts = [1usize, 4, 8, 16, 64, 256];
    println!(
        "\n== Epoch commit path: per-write locking vs shard-parallel (T = {commit_pairs}) ==\n"
    );
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>12} {:>9} {:>12} {:>11} {:>11} {:>9}",
        "shards",
        "batches",
        "serial ms",
        "batched ms",
        "parallel ms",
        "speedup",
        "Mwrites/s",
        "part-1t ms",
        "part-Nt ms",
        "part-spd"
    );
    // 64 machine batches (a round) at every shard count, then one batch (a
    // scatter) at the workloads' 1024 shards.
    let mut commit_points = commit_throughput(commit_pairs, 64, &shard_counts, 0, seed);
    commit_points.extend(commit_throughput(commit_pairs, 1, &[1024], 0, seed));
    for point in &commit_points {
        println!(
            "{:>8} {:>8} {:>12.2} {:>12.2} {:>12.2} {:>8.2}x {:>12.1} {:>11.2} {:>11.2} {:>8.2}x",
            point.shards,
            point.batches,
            point.serial_ns as f64 / 1e6,
            point.batched_ns as f64 / 1e6,
            point.parallel_ns as f64 / 1e6,
            point.speedup_parallel_over_serial(),
            point.parallel_mwrites_per_sec(),
            point.partition_serial_ns as f64 / 1e6,
            point.partition_parallel_ns as f64 / 1e6,
            point.partition_speedup(),
        );
    }

    let read_keys = if quick { 262_144 } else { 1_048_576 };
    let read_probes = read_keys * 4;
    let latency = read_latency(read_keys, read_probes, 256, seed);
    println!("\n== Snapshot read latency: frozen shards ==\n");
    println!("{:>12} {:>12} {:>16}", "keys", "reads", "compact ns/read");
    println!(
        "{:>12} {:>12} {:>16.1}",
        latency.keys, latency.reads, latency.compact_ns_per_read
    );

    let sweep_vertices = if quick { 32_768 } else { 65_536 };
    let sweep_points = shard_sweep(sweep_vertices, &[61, 64, 509, 512, 1021, 1024], 5, seed);
    println!("\n== Shard sweep: D₀ commit + shuffled reads, 2ᵏ shards vs the prime below ==\n");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "shards", "pairs", "commit ms", "get ns"
    );
    for point in &sweep_points {
        println!(
            "{:>8} {:>12} {:>12.2} {:>12.1}",
            point.shards, point.pairs, point.commit_ms, point.get_ns
        );
    }

    let backend_keys = if quick { 65_536 } else { 262_144 };
    let backend_reads = backend_keys * 2;
    let backend_points = backend_read_latency(backend_keys, backend_reads, 64, 0, seed);
    println!("\n== Per-backend read latency: point vs batched vs windowed vs indexed ==\n");
    println!(
        "{:>10} {:>14} {:>12} {:>12} {:>14}",
        "backend", "mode", "keys", "reads", "ns/read"
    );
    for point in &backend_points {
        println!(
            "{:>10} {:>14} {:>12} {:>12} {:>14.1}",
            point.backend, point.mode, point.keys, point.reads, point.ns_per_read
        );
    }

    let serve_commits = if quick { 256 } else { 1_024 };
    let serve_points = serve_throughput(8, serve_commits);
    println!("\n== Serve-path throughput: 8 leased clients, pipelined vs one-in-flight ==\n");
    println!(
        "{:>14} {:>9} {:>8} {:>10} {:>12} {:>10} {:>10}",
        "mode", "clients", "window", "requests", "req/s", "p50 µs", "p99 µs"
    );
    for point in &serve_points {
        println!(
            "{:>14} {:>9} {:>8} {:>10} {:>12.0} {:>10.1} {:>10.1}",
            point.mode,
            point.clients,
            point.window,
            point.requests,
            point.requests_per_sec,
            point.p50_ns as f64 / 1e3,
            point.p99_ns as f64 / 1e3,
        );
    }

    let cluster_pairs = if quick { 8_192 } else { 65_536 };
    let cluster_rounds = if quick { 4 } else { 16 };
    let cluster_points = cluster_commit_scaling(cluster_pairs, 64, cluster_rounds, seed);
    println!("\n== Cluster commit scaling: 1 vs 2 owners, 64 total shards ==\n");
    println!(
        "{:>8} {:>8} {:>12} {:>8} {:>14} {:>12} {:>10}",
        "owners", "shards", "pairs/round", "rounds", "commit req/s", "Mpairs/s", "rounds/s"
    );
    for point in &cluster_points {
        println!(
            "{:>8} {:>8} {:>12} {:>8} {:>14.0} {:>12.2} {:>10.1}",
            point.owners,
            point.shards,
            point.pairs_per_round,
            point.rounds,
            point.commit_reqs_per_sec(),
            point.commit_mpairs_per_sec(),
            point.rounds_per_sec(),
        );
    }

    write_bench_commit_json(
        &commit_points,
        &latency,
        &sweep_points,
        &backend_points,
        &serve_points,
        &cluster_points,
    );
    println!("\nCommit/read series recorded in BENCH_commit.json.");
    println!("All verified rows compare against sequential reference algorithms.");
}

/// Serialise the commit-throughput and read-latency series as JSON
/// (hand-rolled: the workspace intentionally carries no serde-json
/// dependency).
fn write_bench_commit_json(
    commits: &[ampc_bench::CommitThroughputPoint],
    latency: &ampc_bench::ReadLatencyPoint,
    sweep: &[ampc_bench::ShardSweepPoint],
    backend_reads: &[ampc_bench::BackendReadLatencyPoint],
    serve: &[ampc_bench::ServeThroughputPoint],
    cluster: &[ampc_bench::ClusterCommitPoint],
) {
    let mut json = String::from("{\n  \"commit_throughput\": [\n");
    for (i, p) in commits.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"shards\": {}, \"pairs\": {}, \"batches\": {}, \"threads\": {}, \
             \"serial_ns\": {}, \"batched_ns\": {}, \"parallel_ns\": {}, \
             \"partition_serial_ns\": {}, \"partition_parallel_ns\": {}, \
             \"speedup_parallel_over_serial\": {:.3}, \"partition_speedup\": {:.3}, \
             \"parallel_mwrites_per_sec\": {:.3}}}{}",
            p.shards,
            p.pairs,
            p.batches,
            p.threads,
            p.serial_ns,
            p.batched_ns,
            p.parallel_ns,
            p.partition_serial_ns,
            p.partition_parallel_ns,
            p.speedup_parallel_over_serial(),
            p.partition_speedup(),
            p.parallel_mwrites_per_sec(),
            if i + 1 < commits.len() { "," } else { "" },
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"read_latency\": {{\"keys\": {}, \"reads\": {}, \"compact_ns_per_read\": {:.3}}},",
        latency.keys, latency.reads, latency.compact_ns_per_read,
    );
    let _ = writeln!(json, "  \"shard_sweep\": [");
    for (i, p) in sweep.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"shards\": {}, \"pairs\": {}, \"commit_ms\": {:.3}, \"get_ns\": {:.3}}}{}",
            p.shards,
            p.pairs,
            p.commit_ms,
            p.get_ns,
            if i + 1 < sweep.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],\n  \"read_latency_backends\": [");
    for (i, p) in backend_reads.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"mode\": \"{}\", \"keys\": {}, \"reads\": {}, \
             \"ns_per_read\": {:.3}}}{}",
            p.backend,
            p.mode,
            p.keys,
            p.reads,
            p.ns_per_read,
            if i + 1 < backend_reads.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],\n  \"serve_throughput\": [");
    for (i, p) in serve.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"clients\": {}, \"window\": {}, \"requests\": {}, \
             \"requests_per_sec\": {:.3}, \"p50_ns\": {}, \"p99_ns\": {}}}{}",
            p.mode,
            p.clients,
            p.window,
            p.requests,
            p.requests_per_sec,
            p.p50_ns,
            p.p99_ns,
            if i + 1 < serve.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],\n  \"cluster_commit_scaling\": [");
    for (i, p) in cluster.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"owners\": {}, \"shards\": {}, \"pairs_per_round\": {}, \"rounds\": {}, \
             \"commit_ns\": {}, \"round_ns\": {}, \"commit_reqs_per_sec\": {:.3}, \
             \"commit_mpairs_per_sec\": {:.3}, \"rounds_per_sec\": {:.3}}}{}",
            p.owners,
            p.shards,
            p.pairs_per_round,
            p.rounds,
            p.commit_ns,
            p.round_ns,
            p.commit_reqs_per_sec(),
            p.commit_mpairs_per_sec(),
            p.rounds_per_sec(),
            if i + 1 < cluster.len() { "," } else { "" },
        );
    }
    let _ = write!(json, "  ]\n}}\n");
    if let Err(err) = std::fs::write("BENCH_commit.json", json) {
        eprintln!("could not write BENCH_commit.json: {err}");
    }
}
