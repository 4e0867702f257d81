//! `e2e` — the repo's benchmark: five workloads, end-to-end and per-layer
//! metrics, and an outside-in traced run.  See README.md in this directory
//! for what each workload stresses and how the metrics interact, and
//! `BENCHMARK.json` at the repo root for the contract a driver runs it by.
//!
//! ```text
//! e2e [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! e2e compare <base.json> <new.json>
//! ```
//!
//! With `--workload` the named workload runs in this process and the last
//! line of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`).  Without it, every workload runs in a child process
//! of its own — so each has its own peak RSS — and the merged results land
//! in `target/e2e/results.json`, the file `e2e compare` reads.

mod compare;
mod json;
mod metrics;
mod probes;
mod stats;
mod stream;
mod tap;
mod trace;
mod workloads;

use json::Json;
use metrics::{Spec, Values, END_TO_END, PER_LAYER};
use stats::{highest_supported_percentile, median, percentile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{OpResult, Prepared, Scale};

/// Seconds the timed pass measures for when `--seconds` is not given; equal
/// to `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_SEED: u64 = 2019;
/// Runtime worker threads (and load-generator threads) are capped here, so
/// numbers from hosts of different widths stay comparable.
const MAX_THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Untimed ops at the end of every set-up.
const WARMUP_OPS: usize = 2;
/// Ops a pass runs at least, however short `--seconds` is.
const MIN_OPS: usize = 5;
/// Ops at `threads = 1` behind `ampc.thread_speedup`.
const SINGLE_THREAD_OPS: usize = 3;
/// Where result and trace files go, relative to the working directory.
const OUT_DIR: &str = "target/e2e";

#[derive(Clone, Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
        };
        let mut seconds_given = false;
        let mut args = args.iter().peekable();
        while let Some(flag) = args.next() {
            let mut value = |what: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} needs {what}"))
                    .map(String::as_str)
            };
            match flag.as_str() {
                "--workload" => options.workload = Some(value("a workload name")?.to_string()),
                "--seed" => {
                    options.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    options.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    seconds_given = true;
                }
                "--trace" => {
                    // Bare `--trace` switches tracing on; `--trace 0|1` sets it.
                    options.trace = match args.peek().map(|next| next.as_str()) {
                        Some("0") => {
                            args.next();
                            false
                        }
                        Some("1") => {
                            args.next();
                            true
                        }
                        _ => true,
                    }
                }
                "--quick" => options.quick = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !(options.seconds >= 0.0 && options.seconds.is_finite()) {
            return Err("--seconds must be a non-negative number".to_string());
        }
        if options.quick && !seconds_given {
            options.seconds = 0.0; // MIN_OPS ops per pass
        }
        Ok(options)
    }

    fn to_args(&self, workload: &str) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            u8::from(self.trace).to_string(),
        ];
        if self.quick {
            args.push("--quick".to_string());
        }
        args
    }
}

/// Everything one workload run produced.
#[derive(Default)]
struct Report {
    name: &'static str,
    n: usize,
    m: usize,
    /// Timed ops behind `run_ms_p50`.
    samples: usize,
    /// `RunStats::num_rounds()` of every op (frozen epochs, for
    /// `serve-stream`) — the paper's headline cost.
    rounds: u64,
    attempted: u64,
    failed: u64,
    /// Why the run is not `correct`: failed ops, inconsistent counts, tap or
    /// probe failures, unknown metric names.
    errors: Vec<String>,
    /// Highest percentile of the op time the sample supports, and its value.
    tail: Option<(f64, f64)>,
    end_to_end: Values,
    per_layer: Option<Values>,
    tracer: Option<Tracer>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("n", Json::Num(self.n as f64)),
            ("m", Json::Num(self.m as f64)),
            ("samples", Json::Num(self.samples as f64)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("correct", Json::Bool(self.correct())),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
            (
                "run_ms_tail",
                match self.tail {
                    Some((p, value)) => {
                        Json::obj([("percentile", Json::Num(p)), ("value", Json::Num(value))])
                    }
                    None => Json::Null,
                },
            ),
            ("end_to_end", self.end_to_end.to_json(&END_TO_END, false)),
        ];
        if let Some(per_layer) = &self.per_layer {
            fields.push(("per_layer", per_layer.to_json(&PER_LAYER, false)));
        }
        Json::obj(fields)
    }

    /// The measured values next to the vocabulary they are drawn from.
    fn sections(&self) -> impl Iterator<Item = (&Values, &'static [Spec])> {
        let per_layer = self
            .per_layer
            .as_ref()
            .map(|values| (values, &PER_LAYER[..]));
        std::iter::once((&self.end_to_end, &END_TO_END[..])).chain(per_layer)
    }

    /// `workload metric value unit` for every metric that applies.
    fn print(&self) {
        for (values, specs) in self.sections() {
            for spec in specs {
                match values.get(spec.name) {
                    Some(Some(value)) => {
                        println!("{} {} {value} {}", self.name, spec.name, spec.unit)
                    }
                    Some(None) => println!("{} {} null {}", self.name, spec.name, spec.unit),
                    None => {}
                }
            }
        }
        println!("{} rounds {} count", self.name, self.rounds);
        if let Some((p, value)) = self.tail {
            println!(
                "{} run_ms_p{p} {value} ms ({} samples)",
                self.name, self.samples
            );
        }
        for error in &self.errors {
            println!("{} ERROR {error}", self.name);
        }
    }
}

/// `VmHWM` — the peak-RSS mark — of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Closed loop: run ops back to back until `seconds` have passed and at
/// least [`MIN_OPS`] ran.  `each` sees every op with its start and end on
/// the tracer's clock.
fn run_pass(
    prepared: &Prepared,
    config: Option<&ampc_runtime::AmpcConfig>,
    seconds: f64,
    mut each: impl FnMut(&OpResult, Instant, Instant),
) -> Vec<OpResult> {
    let started = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < MIN_OPS || started.elapsed().as_secs_f64() < seconds {
        let op_started = Instant::now();
        let op = prepared.run_op(config);
        each(&op, op_started, Instant::now());
        ops.push(op);
    }
    ops
}

/// Fold `ops` into the report's failure counts; returns the wall times of
/// the ops that passed.  Every passing op must agree on `rounds` and
/// `comm_pairs` — the model's costs are deterministic for a fixed input.
fn account(ops: &[OpResult], what: &str, report: &mut Report) -> Vec<f64> {
    report.attempted += ops.len() as u64;
    let mut reference: Option<&OpResult> = None;
    let mut walls = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if let Some(error) = &op.error {
            report.failed += 1;
            report.errors.push(format!("{what} op {i}: {error}"));
            continue;
        }
        let first = *reference.get_or_insert(op);
        if (op.rounds, op.comm_pairs()) != (first.rounds, first.comm_pairs()) {
            report.failed += 1;
            report.errors.push(format!(
                "{what} op {i}: {} rounds / {} pairs, but an earlier op of the same input took {} / {}",
                op.rounds,
                op.comm_pairs(),
                first.rounds,
                first.comm_pairs()
            ));
            continue;
        }
        walls.push(op.wall_ms);
    }
    walls
}

fn run_workload(name: &str, options: &Options) -> Result<Report, String> {
    let threads = ampc_dds::default_parallelism().min(MAX_THREADS);
    let scale = if options.quick {
        Scale::quick()
    } else {
        Scale::full()
    };

    // Set-up: inputs, oracle, owner, warm-up ops.  Repeated so that setup_s
    // is a median; the last one is kept.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    let mut warmups = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let started = Instant::now();
        let fresh = Prepared::set_up(name, scale, options.seed, threads)?;
        warmups.extend((0..WARMUP_OPS).map(|_| fresh.run_op(None)));
        setup_s.push(started.elapsed().as_secs_f64());
        prepared = Some(fresh);
    }
    let prepared = prepared.expect("SETUP_REPS is at least 1");
    let mut report = Report {
        name: prepared.name,
        n: prepared.n,
        m: prepared.m,
        ..Report::default()
    };
    account(&warmups, "warm-up", &mut report);

    // The timed pass, tracing off.
    let ops = run_pass(&prepared, None, options.seconds, |_, _, _| ());
    let walls = account(&ops, "timed", &mut report);
    report.samples = walls.len();
    let Some(first) = ops.iter().find(|op| op.error.is_none()) else {
        report.errors.push("no timed op passed".to_string());
        return Ok(report);
    };
    let run_ms_p50 = median(&walls);
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    report.tail = highest_supported_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p)));
    let e2e = &mut report.end_to_end;
    e2e.set("setup_s", median(&setup_s));
    e2e.set("run_ms_p50", run_ms_p50);
    e2e.set(
        "mitems_per_s",
        (prepared.items_per_op * walls.len() as u64) as f64 / walls.iter().sum::<f64>() / 1e3,
    );
    e2e.set("comm_pairs", first.comm_pairs() as f64);
    e2e.set("peak_rss_mb", peak_rss_mb()?);
    report.rounds = first.rounds;

    if options.trace {
        let mut layers = Values::default();
        let mut tracer = Tracer::new();
        layers.set("graph.generate_ms", prepared.generate_ms);
        run_stats_layers(&prepared, &ops, &sorted, &mut layers);
        traced_pass(
            &prepared,
            options,
            run_ms_p50,
            &mut tracer,
            &mut layers,
            &mut report,
        )?;
        if let Some(config) = prepared.config() {
            if ampc_dds::default_parallelism() == 1 {
                // One CPU runs two threads in turn; their ratio says nothing.
                layers.set_unmeasurable("ampc.thread_speedup");
            } else {
                let single = config.clone().with_threads(1);
                let ops: Vec<OpResult> = (0..SINGLE_THREAD_OPS)
                    .map(|_| prepared.run_op(Some(&single)))
                    .collect();
                let walls = account(&ops, "single-thread", &mut report);
                layers.set("ampc.thread_speedup", median(&walls) / run_ms_p50);
            }
        }
        layer_probes(&prepared, options, threads, &mut tracer, &mut layers)?;
        report.per_layer = Some(layers);
        report.tracer = Some(tracer);
    }

    let unknown: Vec<&str> = report
        .sections()
        .flat_map(|(values, specs)| values.unknown_names(specs))
        .collect();
    for name in unknown {
        report.errors.push(format!(
            "metric name {name:?} is malformed or not in the vocabulary"
        ));
    }
    Ok(report)
}

/// The `core.*` / `ampc.*` values that fall out of `RunStats` for free:
/// medians over the timed ops.  `core.driver_ms` is the op's self time —
/// its wall minus the rounds inside it.
fn run_stats_layers(
    prepared: &Prepared,
    ops: &[OpResult],
    sorted_walls: &[f64],
    layers: &mut Values,
) {
    let passed: Vec<&OpResult> = ops.iter().filter(|op| op.error.is_none()).collect();
    let Some(first) = passed.first() else {
        return;
    };
    if prepared.config().is_none() {
        // serve-stream: no runtime, so only the request-level view applies.
        let mut latencies_us: Vec<f64> = passed
            .iter()
            .flat_map(|op| op.latencies_ns.iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        latencies_us.sort_by(f64::total_cmp);
        let wall_s: f64 = passed.iter().map(|op| op.wall_ms / 1e3).sum();
        layers.set("dds.serve.req_per_s", latencies_us.len() as f64 / wall_s);
        layers.set("dds.serve.req_us_p50", percentile(&latencies_us, 50.0));
        layers.set("dds.serve.req_us_p99", percentile(&latencies_us, 99.0));
    } else {
        let over_ops = |of: &dyn Fn(&OpResult) -> f64| {
            median(&passed.iter().map(|op| of(op)).collect::<Vec<_>>())
        };
        let rounds_of = |op: &OpResult, reads: Option<bool>| -> f64 {
            op.round_ms
                .iter()
                .filter(|(_, has_queries)| reads.is_none_or(|want| want == *has_queries))
                .map(|(ms, _)| ms)
                .sum()
        };
        layers.set(
            "core.driver_ms",
            over_ops(&|op| op.wall_ms - rounds_of(op, None)),
        );
        layers.set(
            "core.read_rounds_ms",
            over_ops(&|op| rounds_of(op, Some(true))),
        );
        layers.set(
            "core.write_rounds_ms",
            over_ops(&|op| rounds_of(op, Some(false))),
        );
        layers.set("core.rounds", first.rounds as f64);
        layers.set("core.queries", first.queries as f64);
        layers.set("core.writes", first.writes as f64);
        layers.set("core.budget_violations", first.budget_violations as f64);
        layers.set("ampc.rounds_ms", over_ops(&|op| rounds_of(op, None)));
        layers.set(
            "ampc.round_ms_max",
            over_ops(&|op| op.round_ms.iter().map(|(ms, _)| *ms).fold(0.0, f64::max)),
        );
        layers.set("ampc.max_machine_comm", first.max_machine_comm as f64);
    }
    layers.set("ampc.run_ms_p75", percentile(sorted_walls, 75.0));
    layers.set("ampc.run_ms_max", percentile(sorted_walls, 100.0));
}

/// The traced pass: ops with an `op` span each and one child span per
/// `RoundStats` entry; on the wire backends the ops are routed through the
/// wire tap to owners started with `serve` / `serve_cluster`.
fn traced_pass(
    prepared: &Prepared,
    options: &Options,
    untraced_p50: f64,
    tracer: &mut Tracer,
    layers: &mut Values,
    report: &mut Report,
) -> Result<(), String> {
    use ampc_runtime::DdsBackendKind::{Cluster, Remote};
    let io = |e: std::io::Error| format!("starting the tapped owners: {e}");
    // Owners first, each started with `serve` / `serve_cluster`; then the
    // tap in front of them, and the config that points the run at the tap.
    let mut owners = Vec::new();
    let tapped = match prepared.config() {
        Some(config) if config.backend == Remote => {
            let bound = tap::BoundTap::bind(1).map_err(io)?;
            owners.push(ampc_dds::serve(("127.0.0.1", 0)).map_err(io)?);
            let endpoint = bound.endpoints().map_err(io)?.remove(0);
            Some((bound, config.clone().with_remote_endpoint(endpoint)))
        }
        Some(config) if config.backend == Cluster => {
            // The tap's endpoints are the client-reachable ones, so they are
            // what the owners advertise in their shard map.
            let bound = tap::BoundTap::bind(config.cluster_owners).map_err(io)?;
            let peers = bound.endpoints().map_err(io)?;
            for node in 0..peers.len() {
                owners.push(
                    ampc_dds::serve_cluster(("127.0.0.1", 0), node, peers.clone()).map_err(io)?,
                );
            }
            let config = config.clone().with_cluster_endpoints(peers);
            Some((bound, config.map_err(|e| e.to_string())?))
        }
        _ => None,
    };
    let (running_tap, config) = match tapped {
        Some((bound, config)) => {
            let upstreams = owners.iter().map(|owner| owner.local_addr()).collect();
            let running = bound.start(upstreams, tracer.origin()).map_err(io)?;
            (Some(running), Some(config))
        }
        None => (None, None),
    };

    let origin = tracer.origin();
    let mut op_spans = Vec::new();
    let ops = run_pass(
        prepared,
        config.as_ref(),
        options.seconds / 4.0,
        |op, started, ended| {
            let id = op_spans.len() as u64;
            let start_ns = started.duration_since(origin).as_nanos() as u64;
            let end_ns = ended.duration_since(origin).as_nanos() as u64;
            let span = tracer.record("op", start_ns, end_ns, None, Some(id));
            // RoundStats carries each round's duration but not its start, so the
            // children are packed from the op's start in execution order: their
            // lengths (and so the op's self time) are measured, their offsets
            // are not.
            let mut cursor = start_ns;
            for (ms, has_queries) in &op.round_ms {
                let name = if *has_queries {
                    "round.read"
                } else {
                    "round.write"
                };
                let until = cursor + (ms * 1e6) as u64;
                let round = tracer.record(name, cursor, until, Some(span), Some(id));
                tracer.annotate(round, "start", Json::str("packed"));
                cursor = until;
            }
            // What the driver spent outside `run_round` / `scatter`.
            let self_ms = tracer.self_time_ns(span) as f64 / 1e6;
            tracer.annotate(span, "self_ms", Json::Num(self_ms));
            op_spans.push((span, start_ns, end_ns));
        },
    );
    let walls = account(&ops, "traced", report);
    layers.set(
        "trace.overhead_pct",
        (median(&walls) / untraced_p50 - 1.0) * 100.0,
    );

    let Some(running_tap) = running_tap else {
        return Ok(());
    };
    let (exchanges, tap_errors) = running_tap.finish();
    let owner_count = owners.len();
    for owner in owners {
        owner.shutdown();
    }
    report
        .errors
        .extend(tap_errors.into_iter().map(|e| format!("wire tap: {e}")));
    let windows: Vec<(u64, u64)> = op_spans
        .iter()
        .map(|&(_, start, end)| (start, end))
        .collect();
    let op_of = tap::attribute(&exchanges, &windows);
    let per_op = tap::summarize(&exchanges, &op_of, &windows, owner_count);
    let passed: Vec<&tap::OpWire> = per_op
        .iter()
        .zip(&ops)
        .filter(|(_, op)| op.error.is_none())
        .map(|(wire, _)| wire)
        .collect();
    let Some(first) = passed.first() else {
        return Ok(());
    };
    // The same input must put the same frames on the wire, op after op.
    let counts = |w: &tap::OpWire| {
        (
            w.requests,
            w.bytes_up,
            w.bytes_down,
            w.epoch_frame_bytes_max,
        )
    };
    if let Some(odd) = passed.iter().find(|wire| counts(wire) != counts(first)) {
        report.errors.push(format!(
            "wire counts differ between ops of the same input: {:?} vs {:?}",
            counts(first),
            counts(odd)
        ));
    }
    let over_ops =
        |of: fn(&tap::OpWire) -> f64| median(&passed.iter().map(|w| of(w)).collect::<Vec<_>>());
    layers.set("wire.requests", first.requests as f64);
    layers.set("wire.bytes_up", first.bytes_up as f64);
    layers.set("wire.bytes_down", first.bytes_down as f64);
    layers.set(
        "wire.epoch_frame_bytes_max",
        first.epoch_frame_bytes_max as f64,
    );
    layers.set("wire.client_gap_ms", over_ops(|w| w.client_gap_ms));
    layers.set(
        "dds.serve.commit_service_ms",
        over_ops(|w| w.commit_service_ms),
    );
    layers.set(
        "dds.serve.advance_service_ms",
        over_ops(|w| w.advance_service_ms),
    );
    layers.set(
        "dds.cluster.freeze_phase_ms",
        over_ops(|w| w.freeze_phase_ms),
    );
    layers.set(
        "dds.cluster.publish_phase_ms",
        over_ops(|w| w.publish_phase_ms),
    );
    layers.set("dds.cluster.owner_skew", over_ops(|w| w.owner_skew));

    // Every exchange becomes a span under the op that caused it.
    for (exchange, &parent) in exchanges.iter().zip(&op_of) {
        let span = tracer.record(
            format!("wire.{}", exchange.kind),
            exchange.req_in_ns,
            exchange.rep_out_ns,
            parent.map(|op| op_spans[op].0),
            parent.map(|op| op as u64),
        );
        tracer.annotate(span, "owner", Json::Num(exchange.owner as f64));
        tracer.annotate(span, "conn", Json::Num(exchange.conn as f64));
        tracer.annotate(span, "epoch", Json::num(exchange.epoch.map(|e| e as f64)));
        tracer.annotate(span, "bytes_up", Json::Num(exchange.bytes_up as f64));
        tracer.annotate(span, "bytes_down", Json::Num(exchange.bytes_down as f64));
        tracer.annotate(span, "owner_in_ns", Json::Num(exchange.req_out_ns as f64));
        tracer.annotate(span, "owner_out_ns", Json::Num(exchange.rep_in_ns as f64));
    }
    Ok(())
}

/// The layer probes, each fed the workload's own D₀.
fn layer_probes(
    prepared: &Prepared,
    options: &Options,
    threads: usize,
    tracer: &mut Tracer,
    layers: &mut Values,
) -> Result<(), String> {
    let d0 = prepared.d0();
    // serve-stream sessions announce a one-shard topology.
    let shards = prepared.config().map_or(1, |config| config.num_shards());
    let snapshot = probes::store_and_snapshot(&d0, shards, threads, options.seed, tracer, layers);
    probes::proto_and_codec(&d0, &snapshot, tracer, layers);
    drop(snapshot);
    if let Some(config) = prepared.config() {
        probes::runtime(config, &d0, options.seed, tracer, layers);
    }
    use ampc_runtime::DdsBackendKind::{Cluster, Remote};
    if prepared
        .config()
        .is_none_or(|config| matches!(config.backend, Remote | Cluster))
    {
        probes::session(options.quick, options.seed, tracer, layers)?;
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A results document: host facts, run parameters, and `reports` by name.
fn results_json(options: &Options, reports: Vec<(String, Json)>) -> Json {
    let cpus = ampc_dds::default_parallelism();
    Json::obj([
        (
            "host",
            Json::obj([
                ("available_parallelism", Json::Num(cpus as f64)),
                ("threads_used", Json::Num(cpus.min(MAX_THREADS) as f64)),
                // On one CPU every thread-scaling number is meaningless.
                ("single_core", Json::Bool(cpus == 1)),
                ("rustc", Json::str(command_line("rustc", &["-V"]))),
                (
                    "git_commit",
                    Json::str(command_line("git", &["rev-parse", "HEAD"])),
                ),
            ]),
        ),
        ("seed", Json::Num(options.seed as f64)),
        ("quick", Json::Bool(options.quick)),
        ("seconds", Json::Num(options.seconds)),
        ("workloads", Json::Obj(reports)),
    ])
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in this process; the last line printed is the driver's
/// result object.
fn single(name: &str, options: &Options) -> Result<bool, String> {
    let report = run_workload(name, options)?;
    report.print();
    let out = PathBuf::from(OUT_DIR);
    if let Some(tracer) = &report.tracer {
        let path = out.join(format!("trace-{}.json", report.name));
        write_file(&path, &tracer.to_json(report.name).to_pretty())?;
    }
    let results = results_json(options, vec![(report.name.to_string(), report.to_json())]);
    write_file(
        &out.join(format!("{}.json", report.name)),
        &results.to_pretty(),
    )?;

    let metrics = match &report.per_layer {
        Some(per_layer) => per_layer.to_json(&PER_LAYER, true),
        None => report.end_to_end.to_json(&END_TO_END, true),
    };
    let line = Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_line());
    Ok(report.correct())
}

/// Run every workload, each in a child process of its own, and merge their
/// result files into `target/e2e/results.json`.
fn all(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let out = PathBuf::from(OUT_DIR);
    let mut reports = Vec::new();
    let mut all_correct = true;
    for name in workloads::NAMES {
        let status = std::process::Command::new(&exe)
            .args(options.to_args(name))
            .status()
            .map_err(|e| format!("running {name}: {e}"))?;
        all_correct &= status.success();
        let path = out.join(format!("{name}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let report = doc
            .get("workloads")
            .and_then(|workloads| workloads.get(name))
            .ok_or_else(|| format!("{}: no report for {name}", path.display()))?;
        reports.push((name.to_string(), report.clone()));
    }
    let path = out.join("results.json");
    write_file(&path, &results_json(options, reports).to_pretty())?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [base, new] => compare::run(base, new),
            _ => Err("usage: e2e compare <base.json> <new.json>".to_string()),
        },
        _ => Options::parse(&args).and_then(|options| match &options.workload {
            Some(name) => single(name, &options),
            None => all(&options),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(&args.iter().map(|arg| arg.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_and_the_short_forms_both_parse() {
        let driven = parse(&[
            "--workload",
            "msf-channel",
            "--seed",
            "41",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(driven.workload.as_deref(), Some("msf-channel"));
        assert_eq!(
            (driven.seed, driven.seconds, driven.trace),
            (41, 12.0, false)
        );
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        assert!(parse(&["--trace"]).unwrap().trace);
        let bare = parse(&["--trace", "--quick"]).unwrap();
        assert!(bare.trace && bare.quick);
        assert_eq!(
            bare.seconds, 0.0,
            "--quick measures MIN_OPS ops unless told otherwise"
        );
        let defaults = parse(&[]).unwrap();
        assert_eq!(
            (defaults.seed, defaults.seconds),
            (DEFAULT_SEED, DEFAULT_SECONDS)
        );
        assert!(!defaults.trace && !defaults.quick && defaults.workload.is_none());
        for bad in [
            &["--seed"][..],
            &["--seconds", "-1"],
            &["--sed", "1"],
            &["--seed", "x"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        // What the parent hands its children parses back to the same options.
        let child = Options::parse(&bare.to_args("conn-local")).unwrap();
        assert_eq!(child.workload.as_deref(), Some("conn-local"));
        assert_eq!(
            (child.seed, child.seconds, child.trace, child.quick),
            (bare.seed, bare.seconds, bare.trace, bare.quick)
        );
    }

    /// The counts of a traced run that must repeat exactly for one seed.
    fn counts(report: &Report) -> Vec<Option<f64>> {
        let layers = report.per_layer.as_ref().expect("a traced run");
        let mut counts = vec![
            Some(report.rounds as f64),
            report.end_to_end.get("comm_pairs").flatten(),
        ];
        for name in ["wire.requests", "wire.bytes_up", "wire.bytes_down"] {
            counts.push(layers.get(name).flatten());
        }
        counts
    }

    /// A `--quick --trace` run of all five workloads: every op passes its
    /// oracle, the tracing overhead is reported, the model's counts and the
    /// wire's byte counts repeat exactly for one seed and move with another.
    #[test]
    fn quick_smoke_run_is_correct_and_repeats_its_counts() {
        let quick = |seed| Options {
            workload: None,
            seed,
            seconds: 0.0,
            trace: true,
            quick: true,
        };
        for name in workloads::NAMES {
            let runs: Vec<Report> = [2019, 2019, 7]
                .into_iter()
                .map(|seed| run_workload(name, &quick(seed)).expect(name))
                .collect();
            for run in &runs {
                assert!(run.correct(), "{name}: {:?}", run.errors);
                assert_eq!(run.failed, 0, "{name}");
                assert!(run.attempted >= (WARMUP_OPS + 2 * MIN_OPS) as u64, "{name}");
                let layers = run.per_layer.as_ref().expect("a traced run");
                assert!(
                    layers.get("trace.overhead_pct").flatten().is_some(),
                    "{name}"
                );
                for spec in &END_TO_END {
                    let value = run.end_to_end.get(spec.name).flatten();
                    assert!(value.is_some_and(|v| v > 0.0), "{name} {}", spec.name);
                }
                let tapped = matches!(name, "conn-remote" | "twoedge-cluster");
                let wire = layers.get("wire.bytes_up").flatten();
                assert_eq!(wire.is_some_and(|bytes| bytes > 0.0), tapped, "{name}");
                assert!(
                    run.tracer.as_ref().is_some_and(|t| t.len() > MIN_OPS),
                    "{name}"
                );
            }
            assert_eq!(counts(&runs[0]), counts(&runs[1]), "{name}: same seed");
            if name != "serve-stream" {
                assert_ne!(counts(&runs[0]), counts(&runs[2]), "{name}: another seed");
            }
        }
    }

    #[test]
    fn the_same_instance_costs_the_same_on_every_backend() {
        let options = Options {
            workload: None,
            seed: 5,
            seconds: 0.0,
            trace: false,
            quick: true,
        };
        let local = run_workload("conn-local", &options).unwrap();
        let remote = run_workload("conn-remote", &options).unwrap();
        assert!(local.correct() && remote.correct());
        assert_eq!(local.rounds, remote.rounds);
        assert_eq!(
            local.end_to_end.get("comm_pairs"),
            remote.end_to_end.get("comm_pairs")
        );
    }
}
