//! Layer probes: spans around single public calls into each layer, fed the
//! workload's own D₀ (the pairs it first publishes) on the workload's own
//! backend kind.
//!
//! Each probe repeats its call [`REPS`] times and reports the median; every
//! repetition is a span in the trace.  The exact signatures probed are
//! listed in README.md — a later PR that changes one of them has to touch
//! the benchmark, and should say so.

use crate::metrics::Values;
use crate::stats::{median, percentile};
use crate::stream;
use crate::trace::Tracer;
use ampc_dds::proto::{
    decode_reply, decode_request, encode_reply_into, encode_request_into, EpochFrame, Reply,
    Request, ShardFrame,
};
use ampc_dds::transport::codec::{FrameReader, FrameWriter};
use ampc_dds::{
    serve, DdsBackend, Key, ShardedStore, Snapshot, SnapshotView, TcpOptions, TcpTransport,
    Transport, Value,
};
use ampc_runtime::{with_dds_backend, AmpcConfig, AmpcRuntime};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per probe.
const REPS: usize = 5;
/// Keys per batched lookup — the flight size the algorithms' own batched
/// reads use (`PRIM_READ_BATCH`).
const READ_BATCH: usize = 16;
/// Keys queued per flight of the auto-batching window
/// (`MachineContext::READ_WINDOW`).
const WINDOW_KEYS: usize = 256;
/// Keys the read probes look up at most.
const MAX_READ_KEYS: usize = 200_000;

/// Median duration in ms of [`REPS`] runs of `work`, each a span named
/// `name`, with the last run's result.
fn repeat<T>(tracer: &mut Tracer, name: &str, mut work: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let (result, ms) = tracer.time(name, &mut work);
        times.push(ms);
        last = Some(black_box(result));
    }
    (median(&times), last.expect("REPS is at least 1"))
}

/// D₀'s keys in seeded random order, capped at [`MAX_READ_KEYS`].
fn shuffled_keys(d0: &[(Key, Value)], seed: u64) -> Vec<Key> {
    let mut keys: Vec<Key> = d0.iter().map(|(key, _)| *key).collect();
    keys.shuffle(&mut StdRng::seed_from_u64(seed));
    keys.truncate(MAX_READ_KEYS);
    keys
}

/// `dds.store.*` and `dds.snapshot.*`: the partition → commit → freeze path
/// and the frozen read path, exactly as a scatter of D₀ drives them.
/// Returns the frozen snapshot for the wire probes.
pub fn store_and_snapshot(
    d0: &[(Key, Value)],
    shards: usize,
    threads: usize,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Snapshot {
    let mut partition = Vec::new();
    let mut commit = Vec::new();
    let mut freeze = Vec::new();
    let mut snapshot = None;
    for _ in 0..REPS {
        let store = ShardedStore::new(shards);
        // One batch: a scatter hands the backend the driver's pairs whole.
        let batches = vec![d0.to_vec()];
        let (chunks, ms) = tracer.time("dds.store.partition", || {
            store.partition_writes_parallel(batches, threads)
        });
        partition.push(ms);
        let ((), ms) = tracer.time("dds.store.commit", || store.commit_chunked(chunks, threads));
        commit.push(ms);
        let (frozen, ms) = tracer.time("dds.store.freeze", || store.freeze_with_threads(threads));
        freeze.push(ms);
        snapshot = Some(frozen);
    }
    let total_ms = median(&partition) + median(&commit) + median(&freeze);
    out.set("dds.store.partition_ms", median(&partition));
    out.set("dds.store.commit_ms", median(&commit));
    out.set("dds.store.freeze_ms", median(&freeze));
    out.set("dds.store.mpairs_per_s", d0.len() as f64 / total_ms / 1e3);
    let snapshot = snapshot.expect("REPS is at least 1");

    let keys = shuffled_keys(d0, seed);
    let (get_ms, _) = repeat(tracer, "dds.snapshot.get", || {
        keys.iter()
            .filter(|key| snapshot.get(key).is_some())
            .count()
    });
    let mut found = [None; READ_BATCH];
    let (get_many_ms, _) = repeat(tracer, "dds.snapshot.get_many", || {
        let mut hits = 0;
        for batch in keys.chunks(READ_BATCH) {
            snapshot.get_many_slice(batch, &mut found[..batch.len()]);
            hits += found[..batch.len()].iter().flatten().count();
        }
        hits
    });
    out.set("dds.snapshot.get_ns", get_ms * 1e6 / keys.len() as f64);
    out.set(
        "dds.snapshot.get_many_ns",
        get_many_ms * 1e6 / keys.len() as f64,
    );
    snapshot
}

/// `dds.proto.*` and `dds.codec.*`: D₀ as the two bulk messages of a round —
/// the `Commit` that carries it to an owner (one batch per shard, as the
/// backends send it) and the `EpochFrame` that brings the frozen epoch back.
pub fn proto_and_codec(
    d0: &[(Key, Value)],
    snapshot: &Snapshot,
    tracer: &mut Tracer,
    out: &mut Values,
) {
    let reply = Reply::Epoch(EpochFrame {
        shards: vec![ShardFrame {
            writes: d0.len() as u64,
            entries: SnapshotView::entries(snapshot),
        }],
    });
    let batches = ShardedStore::new(snapshot.num_shards())
        .partition_writes(std::iter::once(d0.iter().copied()))
        .into_iter()
        .enumerate()
        .filter(|(_, pairs)| !pairs.is_empty())
        .collect();
    let request = Request::Commit {
        epoch: 0,
        seq: 0,
        batches,
    };

    let mut epoch_bytes = Vec::new();
    let (epoch_encode_ms, ()) = repeat(tracer, "dds.proto.epoch_encode", || {
        encode_reply_into(&mut epoch_bytes, &reply)
    });
    let (epoch_decode_ms, decoded) = repeat(tracer, "dds.proto.epoch_decode", || {
        decode_reply(&epoch_bytes).is_ok()
    });
    assert!(decoded, "an encoded epoch frame must decode");
    let mut commit_bytes = Vec::new();
    let (commit_encode_ms, ()) = repeat(tracer, "dds.proto.commit_encode", || {
        encode_request_into(&mut commit_bytes, &request)
    });
    let (commit_decode_ms, decoded) = repeat(tracer, "dds.proto.commit_decode", || {
        decode_request(&commit_bytes).is_ok()
    });
    assert!(decoded, "an encoded commit must decode");
    out.set("dds.proto.epoch_frame_bytes", epoch_bytes.len() as f64);
    out.set("dds.proto.epoch_encode_ms", epoch_encode_ms);
    out.set("dds.proto.epoch_decode_ms", epoch_decode_ms);
    out.set("dds.proto.commit_bytes", commit_bytes.len() as f64);
    out.set("dds.proto.commit_encode_ms", commit_encode_ms);
    out.set("dds.proto.commit_decode_ms", commit_decode_ms);
    out.set(
        "dds.proto.bytes_per_pair",
        epoch_bytes.len() as f64 / d0.len() as f64,
    );

    // The codec layer through an in-memory cursor: encode + frame out, then
    // frame in (no decode), on buffers that are reused like a connection's.
    let mut writer = FrameWriter::new();
    let mut wire = Vec::new();
    let (frame_write_ms, sent) = repeat(tracer, "dds.codec.frame_write", || {
        wire.clear();
        writer.send_reply(&mut wire, &reply).is_ok()
    });
    assert!(sent, "writing to memory cannot fail");
    let mut reader = FrameReader::new();
    let (frame_read_ms, read) = repeat(tracer, "dds.codec.frame_read", || {
        reader.read(&mut &wire[..]).map(<[u8]>::len).ok()
    });
    assert_eq!(
        read,
        Some(epoch_bytes.len()),
        "the frame must come back whole"
    );
    out.set("dds.codec.frame_write_ms", frame_write_ms);
    out.set("dds.codec.frame_read_ms", frame_read_ms);
}

/// `dds.session.*` and `dds.serve.w1_req_per_s`: the fixed costs of one
/// leased connection to an `ampc_dds::serve` owner.
pub fn session(
    quick: bool,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Result<(), String> {
    let (connects, round_trips, w1_commits) = if quick {
        (5, 200, 8 * stream::ADVANCE_EVERY)
    } else {
        (25, 2_000, 160 * stream::ADVANCE_EVERY)
    };
    let server = serve(("127.0.0.1", 0)).map_err(|e| format!("starting the probe owner: {e}"))?;
    let addr = server.local_addr();
    let fail = |what: &str, err: ampc_dds::TransportError| format!("session probe: {what}: {err}");
    let lease = || -> Result<TcpTransport, ampc_dds::TransportError> {
        let options = TcpOptions::fresh().with_topology(1, 1);
        let mut client = TcpTransport::connect_to(addr, 0, options)?;
        client.finish_handshake()?;
        Ok(client)
    };

    let mut connect_ms = Vec::with_capacity(connects);
    for _ in 0..connects {
        let (client, ms) = tracer.time("dds.session.connect", lease);
        drop(client.map_err(|e| fail("connect", e))?);
        connect_ms.push(ms);
    }
    out.set("dds.session.connect_ms", median(&connect_ms));

    let mut client = lease().map_err(|e| fail("connect", e))?;
    let mut rtt_us = Vec::with_capacity(round_trips);
    let span_start = tracer.now_ns();
    for _ in 0..round_trips {
        let sent = Instant::now();
        client
            .send(Request::TotalWrites)
            .map_err(|e| fail("round trip", e))?;
        client.recv().map_err(|e| fail("round trip", e))?;
        rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    let span_end = tracer.now_ns();
    tracer.record("dds.session.round_trips", span_start, span_end, None, None);
    drop(client);
    rtt_us.sort_by(f64::total_cmp);
    out.set("dds.session.rtt_us_p50", percentile(&rtt_us, 50.0));

    let (run, ms) = tracer.time("dds.serve.window_1", || {
        stream::run_client(addr, w1_commits, 1, seed)
    });
    run?;
    out.set("dds.serve.w1_req_per_s", w1_commits as f64 / (ms / 1e3));
    server.shutdown();
    Ok(())
}

/// `ampc.empty_round_us`, `ampc.scatter_ms` and `ampc.context.*`: the
/// runtime's per-round fixed cost, its bulk publish path, and its three read
/// paths, on the backend `config` selects.
pub fn runtime(
    config: &AmpcConfig,
    d0: &[(Key, Value)],
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Values,
) {
    let machines = config.num_machines();
    let (empty_us, scatter_ms) = with_dds_backend!(config.clone(), |rt| {
        rt.load_input(std::iter::empty());
        let rounds = 4 * REPS;
        let mut empty_us = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let (result, ms) = tracer.time("ampc.empty_round", || rt.run_round(machines, |_| ()));
            result.expect("an empty round cannot exceed a budget");
            empty_us.push(ms * 1e3);
        }
        let mut scatter_ms = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let pairs = d0.to_vec();
            let ((), ms) = tracer.time("ampc.scatter", || rt.scatter(pairs));
            scatter_ms.push(ms);
        }
        (median(&empty_us), median(&scatter_ms))
    });
    out.set("ampc.empty_round_us", empty_us);
    out.set("ampc.scatter_ms", scatter_ms);

    let keys = shuffled_keys(d0, seed);
    let [point, batched, windowed] = with_dds_backend!(config.clone(), |rt| {
        context_reads(rt, d0, &keys, machines, tracer)
    });
    out.set("ampc.context.point_read_ns", point);
    out.set("ampc.context.batched_read_ns", batched);
    out.set("ampc.context.windowed_read_ns", windowed);
}

/// Nanoseconds of machine time per key for the context's three read paths —
/// point reads, `read_many_slice` batches, the auto-batching window — all
/// inside one round over D₀, each machine timing its own loops.  Every
/// machine gives each path its own third of its (randomly ordered) keys, so
/// no path reads what another just pulled into cache.
fn context_reads<B: DdsBackend>(
    mut rt: AmpcRuntime<B>,
    d0: &[(Key, Value)],
    keys: &[Key],
    machines: usize,
    tracer: &mut Tracer,
) -> [f64; 3] {
    rt.load_input(d0.iter().copied());
    let shares: Vec<&[Key]> = keys.chunks(keys.len().div_ceil(machines).max(1)).collect();
    let (timings, _) = tracer.time("ampc.context.reads", || {
        rt.run_round(shares.len(), |ctx| {
            let share = shares[ctx.machine_id()];
            let third = share.len().div_ceil(3).max(1);
            let mut paths = share.chunks(third);
            let mut timed = [(0u64, 0usize, 0usize); 3];
            let mut found = [None; READ_BATCH];
            for (path, slot) in timed.iter_mut().enumerate() {
                let part = paths.next().unwrap_or(&[]);
                let started = Instant::now();
                let mut hits = 0;
                match path {
                    0 => hits += part.iter().filter(|key| ctx.read(**key).is_some()).count(),
                    1 => {
                        for batch in part.chunks(READ_BATCH) {
                            ctx.read_many_slice(batch, &mut found[..batch.len()]);
                            hits += found[..batch.len()].iter().flatten().count();
                        }
                    }
                    _ => {
                        // Queue a window, redeem it, queue the next: the
                        // pattern the window exists for (tickets expire
                        // two flights on).
                        for window in part.chunks(WINDOW_KEYS) {
                            let tickets: Vec<_> =
                                window.iter().map(|key| ctx.queue_read(*key)).collect();
                            hits += tickets
                                .into_iter()
                                .filter(|ticket| ctx.take_read(*ticket).is_some())
                                .count();
                        }
                    }
                }
                *slot = (started.elapsed().as_nanos() as u64, hits, part.len());
            }
            timed
        })
        .expect("budgets are only recorded")
    });
    let mut per_key_ns = [0.0; 3];
    for (path, ns_per_key) in per_key_ns.iter_mut().enumerate() {
        let (ns, hits, read) = timings.iter().fold((0, 0, 0), |sum, machine| {
            (
                sum.0 + machine[path].0,
                sum.1 + machine[path].1,
                sum.2 + machine[path].2,
            )
        });
        assert_eq!(hits, read, "every D₀ key must be readable");
        *ns_per_key = ns as f64 / read.max(1) as f64;
    }
    per_key_ns
}
