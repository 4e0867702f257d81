//! Integration tests for the *model semantics* of the AMPC runtime: the
//! properties Section 2 of the paper defines (adaptive reads, the
//! read-previous / write-next epoch discipline, `O(S)` budgets, contention
//! behaviour and fault tolerance), exercised through the public API.

use ampc_suite::dds::{Key, KeyTag, Value};
use ampc_suite::prelude::*;

fn key(tag: KeyTag, x: u64) -> Key {
    Key::of(tag, x)
}

#[test]
fn adaptivity_computes_g_to_the_k_in_one_round() {
    // Section 2: "if g is a function from X to X ... a machine can compute
    // g^k(y) in a single round, provided that k = O(S)".
    let config = AmpcConfig::for_graph(10_000, 0, 0.5);
    let mut rt = AmpcRuntime::new(config);
    // g(x) = 3x + 1 mod 1000, tabulated.
    rt.load_input(
        (0..1_000u64).map(|x| (key(KeyTag::Scalar, x), Value::scalar((3 * x + 1) % 1_000))),
    );
    let k = 80usize;
    let results = rt
        .run_round(1, |ctx| {
            let mut x = 7u64;
            for _ in 0..k {
                x = ctx.read(key(KeyTag::Scalar, x)).unwrap().x;
            }
            x
        })
        .unwrap();
    // Sequential ground truth.
    let mut expected = 7u64;
    for _ in 0..k {
        expected = (3 * expected + 1) % 1_000;
    }
    assert_eq!(results, vec![expected]);
    assert_eq!(rt.stats().num_rounds(), 1);
    assert_eq!(rt.stats().rounds[0].total_queries, k as u64);
}

#[test]
fn writes_of_a_round_are_invisible_until_the_next_round() {
    let config = AmpcConfig::for_graph(1_000, 0, 0.5);
    let mut rt = AmpcRuntime::new(config.clone());
    rt.load_input(std::iter::empty());

    // Round 0: every machine writes a marker and tries to read every other
    // machine's marker — all reads must miss.
    let missed = rt
        .run_round(8, |ctx| {
            ctx.write(
                key(KeyTag::Scalar, ctx.machine_id() as u64),
                Value::scalar(1),
            );
            (0..8u64)
                .filter(|&m| ctx.read(key(KeyTag::Scalar, m)).is_none())
                .count()
        })
        .unwrap();
    assert!(missed.iter().all(|&misses| misses == 8));

    // Round 1: all markers are now visible.
    let seen = rt
        .run_round(8, |ctx| {
            (0..8u64)
                .filter(|&m| ctx.read(key(KeyTag::Scalar, m)).is_some())
                .count()
        })
        .unwrap();
    assert!(seen.iter().all(|&hits| hits == 8));
}

#[test]
fn query_accounting_matches_the_model_cost_measure() {
    // "The amount of communication that a machine performs per round is
    // equal to the total number of queries and writes."
    let config = AmpcConfig::for_graph(10_000, 0, 0.5);
    let mut rt = AmpcRuntime::new(config);
    rt.load_input((0..100u64).map(|x| (key(KeyTag::Scalar, x), Value::scalar(x))));
    rt.run_round(4, |ctx| {
        let id = ctx.machine_id() as u64;
        for i in 0..(id + 1) * 5 {
            let _ = ctx.read(key(KeyTag::Scalar, i % 100));
        }
        for i in 0..(id + 1) * 3 {
            ctx.write(key(KeyTag::Scalar, 1_000 + id * 100 + i), Value::scalar(i));
        }
    })
    .unwrap();
    let round = &rt.stats().rounds[0];
    assert_eq!(round.total_queries, 5 + 10 + 15 + 20);
    assert_eq!(round.total_writes, 3 + 6 + 9 + 12);
    assert_eq!(round.max_queries_per_machine, 20);
    assert_eq!(round.max_writes_per_machine, 12);
    assert_eq!(round.communication(), 50 + 30);
}

#[test]
fn strict_budgets_reject_machines_that_exceed_o_of_s() {
    let config = AmpcConfig::for_graph(400, 400, 0.5) // S = 20
        .with_budget_factor(1.0)
        .with_budget_mode(BudgetMode::Strict);
    let mut rt = AmpcRuntime::new(config);
    rt.load_input((0..400u64).map(|x| (key(KeyTag::Scalar, x), Value::scalar(x))));
    let err = rt
        .run_round(2, |ctx| {
            for i in 0..100u64 {
                let _ = ctx.read(key(KeyTag::Scalar, i));
            }
        })
        .unwrap_err();
    assert!(matches!(
        err,
        ampc_suite::runtime::AmpcError::BudgetExceeded { .. }
    ));
}

#[test]
fn per_machine_load_on_the_dds_stays_balanced() {
    // Contention (Section 2.1 / Lemma 2.1): with keys hashed uniformly over
    // shards, no shard serves disproportionately many of the reads.
    let config = AmpcConfig::for_graph(100_000, 100_000, 0.5);
    let mut rt = AmpcRuntime::new(config.clone());
    rt.load_input((0..50_000u64).map(|x| (key(KeyTag::Scalar, x), Value::scalar(x))));
    // The round reads D₀ and writes D₁: the loads to check are D₀'s.
    let d0 = rt.snapshot();
    rt.run_round(64, |ctx| {
        let base = ctx.machine_id() as u64 * 700;
        for i in 0..700u64 {
            let _ = ctx.read(key(KeyTag::Scalar, (base + i) % 50_000));
        }
    })
    .unwrap();
    let stats = d0.stats();
    assert_eq!(
        stats.total_reads, 44_800,
        "every read of the round reached D₀"
    );
    // 44 800 reads and 50 000 writes over 631 shards ⇒ mean traffic ≈ 150;
    // the max shard should stay within a small constant factor of that.
    assert!(stats.imbalance() < 2.0, "imbalance = {}", stats.imbalance());
}

#[test]
fn every_algorithm_reports_zero_budget_violations_on_default_workloads() {
    // The theorems bound per-machine communication by O(S); with the default
    // budget factor the algorithms should never trip the recorder, at any ε.
    let n = 4_096;
    let planted = generators::planted_components(4_000, 8, 1_500, 3);
    let cycle = generators::two_cycle_instance(n, false, 3);
    let small_forest = generators::random_forest(4_000, 8, 3);
    let forest = generators::random_forest(n, 8, 3);
    // At ε = 0.25 a Shrink that reads two records per hop overruns the
    // budget here, and on `cycle`.
    let wide_forest = generators::random_forest(n, 16, 3);
    // The minimum spanning forest of the claimed workload, and the spanning
    // forest that 2-edge connectivity runs on it.
    let gnm = generators::connected_gnm(n, 4 * n, 3);
    let weighted = generators::with_random_weights(&gnm, 3);
    // One list through all of `0..n`, in a random order; its tail points at
    // itself.
    let order = ampc_suite::graph::permutation::random_permutation(n, 3);
    let mut successor = vec![0u32; n];
    for pair in order.windows(2) {
        successor[pair[0] as usize] = pair[1];
    }
    successor[order[n - 1] as usize] = order[n - 1];

    for epsilon in [0.25, 0.5, 0.75] {
        let violations = [
            (
                "connectivity, planted",
                connectivity(&planted, epsilon, 3).stats,
            ),
            ("connectivity, gnm", connectivity(&gnm, epsilon, 3).stats),
            (
                "mis, planted",
                maximal_independent_set(&planted, epsilon, 3).stats,
            ),
            ("mis, gnm", maximal_independent_set(&gnm, epsilon, 3).stats),
            ("msf", minimum_spanning_forest(&weighted, epsilon, 3).stats),
            ("spanning forest", spanning_forest(&gnm, epsilon, 3).stats),
            (
                "forest connectivity, n = 4000",
                forest_connectivity(&small_forest, epsilon, 3).stats,
            ),
            (
                "forest connectivity",
                forest_connectivity(&forest, epsilon, 3).stats,
            ),
            (
                "forest connectivity, 16 trees",
                forest_connectivity(&wide_forest, epsilon, 3).stats,
            ),
            ("2-Cycle", two_cycle(&cycle, epsilon, 3).stats),
            ("list ranking", list_ranking(&successor, epsilon, 3).stats),
            ("rooting", root_forest(&forest, None, epsilon, 3).stats),
            ("2-edge", two_edge_connectivity(&gnm, epsilon, 3).stats),
        ];
        for (name, stats) in violations {
            assert_eq!(stats.budget_violations(), 0, "{name} at ε = {epsilon}");
        }
    }
}

#[test]
fn mpc_simulation_inside_ampc_costs_the_same_rounds() {
    // "It is easy to simulate every MPC algorithm in the AMPC model": send a
    // message to machine x by writing a pair keyed by x, read your inbox the
    // next round.  Two supersteps of a toy MPC program = two AMPC rounds.
    let config = AmpcConfig::for_graph(1_000, 0, 0.5);
    let mut rt = AmpcRuntime::new(config);
    rt.load_input(std::iter::empty());
    let machines = 16usize;

    // Superstep 1: machine i sends its id to machine (i + 1) % P.
    rt.run_round(machines, |ctx| {
        let dest = ((ctx.machine_id() + 1) % machines) as u64;
        ctx.write(
            key(KeyTag::Custom(1), dest),
            Value::scalar(ctx.machine_id() as u64),
        );
    })
    .unwrap();
    // Superstep 2: every machine reads its inbox.
    let inboxes = rt
        .run_round(machines, |ctx| {
            ctx.read(key(KeyTag::Custom(1), ctx.machine_id() as u64))
                .map(|v| v.x)
        })
        .unwrap();
    for (i, inbox) in inboxes.iter().enumerate() {
        assert_eq!(*inbox, Some(((i + machines - 1) % machines) as u64));
    }
    assert_eq!(rt.stats().num_rounds(), 2);
}
