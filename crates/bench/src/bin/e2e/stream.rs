//! The `serve-stream` load generator: leased `TcpTransport` clients
//! streaming tiny `Commit` frames at one `ampc_dds::serve` owner.
//!
//! Closed loop: each client keeps at most `window` commits in flight,
//! drains its pipeline and freezes the epoch every [`ADVANCE_EVERY`]
//! commits, and ends with a `TotalWrites` audit that proves every commit
//! was applied exactly once.  The same loop serves the end-to-end workload
//! (window [`WINDOW`]) and the `dds.serve.w1_req_per_s` probe (window 1).

use ampc_dds::proto::{Reply, Request};
use ampc_dds::transport::ClientReply;
use ampc_dds::{Key, KeyTag, TcpOptions, TcpTransport, Transport, Value};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::Instant;

/// Concurrent clients (= load-generator threads).  One: a connection's
/// three owner stages plus its client already fill a 2-core host, and with
/// two clients the op time flips between scheduler modes (195 ms vs 300 ms
/// for seconds at a stretch), which no median over a 12 s run survives.
pub const CLIENTS: usize = 1;
/// Outstanding commits per socket.
pub const WINDOW: usize = 32;
/// Commits per epoch; the pipeline is drained and the epoch frozen after
/// this many.
pub const ADVANCE_EVERY: usize = 64;
/// Key-value pairs per commit — small frames, so the per-request path
/// (framing, syscalls, dispatch) is what costs, not bulk copy.
pub const PAIRS_PER_COMMIT: u64 = 4;

/// The pairs of commit number `seq` (also what the layer probes use as this
/// workload's D₀, one epoch's worth at a time).
pub fn commit_pairs(seq: u64, seed: u64) -> Vec<(Key, Value)> {
    (0..PAIRS_PER_COMMIT)
        .map(|i| {
            (
                Key::of(KeyTag::Scalar, seq * PAIRS_PER_COMMIT + i),
                Value::scalar(seed ^ seq ^ i),
            )
        })
        .collect()
}

/// What one client saw.
pub struct ClientRun {
    /// Send → FIFO-ack latency of every commit, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Epochs frozen.
    pub advances: u64,
    /// Pairs the owner reports for this session at the end.
    pub audited_writes: u64,
}

/// Lease a fresh session at `addr` and stream `commits` commits through it.
pub fn run_client(
    addr: SocketAddr,
    commits: usize,
    window: usize,
    seed: u64,
) -> Result<ClientRun, String> {
    let fail = |what: &str, err: &dyn std::fmt::Display| format!("{what}: {err}");
    let options = TcpOptions::fresh().with_topology(1, 1);
    let mut client =
        TcpTransport::connect_to(addr, 0, options).map_err(|e| fail("leasing a session", &e))?;

    let mut latencies_ns = Vec::with_capacity(commits);
    let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(window);
    let (mut epoch, mut sent, mut sent_this_epoch, mut acked) = (0usize, 0usize, 0usize, 0usize);
    let mut advances = 0u64;
    while acked < commits {
        if sent < commits && in_flight.len() < window && sent_this_epoch < ADVANCE_EVERY {
            let request = Request::Commit {
                epoch,
                seq: sent as u64,
                batches: vec![(0, commit_pairs(sent as u64, seed))],
            };
            client
                .send(request)
                .map_err(|e| fail("sending a commit", &e))?;
            in_flight.push_back(Instant::now());
            sent += 1;
            sent_this_epoch += 1;
            continue;
        }
        match client
            .recv()
            .map_err(|e| fail("awaiting a commit ack", &e))?
        {
            ClientReply::Wire(Reply::Committed { accepted, .. })
                if accepted == PAIRS_PER_COMMIT =>
            {
                let Some(sent_at) = in_flight.pop_front() else {
                    return Err("an ack arrived with nothing in flight".to_string());
                };
                latencies_ns.push(sent_at.elapsed().as_nanos() as u64);
                acked += 1;
            }
            _ => return Err("a commit was not acknowledged in full, in FIFO order".to_string()),
        }
        // In-flight commits still target the epoch about to freeze, so the
        // pipeline drains before every advance.
        if sent_this_epoch == ADVANCE_EVERY && in_flight.is_empty() {
            client
                .send(Request::Advance { epoch })
                .map_err(|e| fail("sending an advance", &e))?;
            match client.recv().map_err(|e| fail("awaiting an epoch", &e))? {
                ClientReply::Wire(Reply::Epoch(_)) | ClientReply::SharedEpoch(_) => {}
                _ => return Err("an advance did not publish the frozen epoch".to_string()),
            }
            epoch += 1;
            advances += 1;
            sent_this_epoch = 0;
        }
    }

    client
        .send(Request::TotalWrites)
        .map_err(|e| fail("sending the audit", &e))?;
    let audited_writes = match client.recv().map_err(|e| fail("awaiting the audit", &e))? {
        ClientReply::Wire(Reply::TotalWrites(writes)) => writes,
        _ => return Err("the audit was not answered with TotalWrites".to_string()),
    };
    Ok(ClientRun {
        latencies_ns,
        advances,
        audited_writes,
    })
}

/// One `serve-stream` op: [`CLIENTS`] concurrent clients, each streaming
/// `commits` commits at window `window`.  `Err` if any client failed or any
/// audit disagrees with what was sent.
pub fn run_clients(
    addr: SocketAddr,
    commits: usize,
    window: usize,
    seed: u64,
) -> Result<Vec<ClientRun>, String> {
    let runs: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    run_client(addr, commits, window, seed.wrapping_add(client as u64))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| {
                client
                    .join()
                    .unwrap_or_else(|_| Err("a stream client panicked".to_string()))
            })
            .collect()
    });
    let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let expected = commits as u64 * PAIRS_PER_COMMIT;
    for run in &runs {
        if run.audited_writes != expected || run.latencies_ns.len() != commits {
            return Err(format!(
                "exactly-once audit failed: owner holds {} pairs for {} acks, expected {expected}",
                run.audited_writes,
                run.latencies_ns.len()
            ));
        }
    }
    Ok(runs)
}
