//! The wire tap: a frame-level loopback proxy between an unmodified
//! algorithm run and its owners.
//!
//! The run is pointed at the tap (`AmpcConfig::with_remote_endpoint(tap)` /
//! `with_cluster_endpoints([tap0, tap1])`); the tap forwards every frame to
//! an owner started with `ampc_dds::serve` / `serve_cluster` and back.  It is
//! built only from `proto::{read_frame, write_frame, decode_request,
//! decode_reply}`, so it sees exactly what crosses the wire — request kind,
//! epoch, owner, byte counts, and four timestamps per exchange — with zero
//! change to the program.  Used in traced runs only; no end-to-end number
//! ever has the tap on its path.
//!
//! Forwarding threads do nothing but read a frame, stamp it, write it and
//! stamp it again; decoding and request/reply pairing happen on a separate
//! tagger thread so they never sit between a client and its owner.

use ampc_dds::proto::{
    decode_reply, decode_request, read_frame, write_frame, Reply, Request, RequestKind,
};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Bytes of the length prefix `write_frame` puts before every payload.
const FRAME_HEADER_BYTES: u64 = 4;

/// One request and the reply FIFO-paired with it, as the tap saw them.
/// Times are nanoseconds since the tap's origin instant.
#[derive(Clone, Debug, PartialEq)]
pub struct Exchange {
    /// Which owner (tap listener) the connection went to.
    pub owner: usize,
    /// Tap-assigned connection id.
    pub conn: usize,
    pub kind: RequestKind,
    /// The epoch the request names, for the kinds that name one.
    pub epoch: Option<usize>,
    /// Request frame bytes, header included.
    pub bytes_up: u64,
    /// Reply frame bytes, header included (0 for the unanswered `Goodbye`).
    pub bytes_down: u64,
    /// The reply carried a serialized frozen epoch.
    pub epoch_frame: bool,
    /// Request fully read from the client.
    pub req_in_ns: u64,
    /// Request fully written to the owner.
    pub req_out_ns: u64,
    /// Reply fully read from the owner (= `req_out_ns` when unanswered).
    pub rep_in_ns: u64,
    /// Reply fully written to the client (= `req_out_ns` when unanswered).
    pub rep_out_ns: u64,
}

/// One forwarded frame, on its way to the tagger.
struct Frame {
    owner: usize,
    conn: usize,
    /// Client → owner (`true`) or owner → client.
    up: bool,
    in_ns: u64,
    out_ns: u64,
    payload: Vec<u8>,
}

struct RequestHalf {
    kind: RequestKind,
    epoch: Option<usize>,
    bytes: u64,
    in_ns: u64,
    out_ns: u64,
}

struct ReplyHalf {
    epoch_frame: bool,
    bytes: u64,
    in_ns: u64,
    out_ns: u64,
}

#[derive(Default)]
struct ConnQueues {
    owner: usize,
    requests: VecDeque<RequestHalf>,
    replies: VecDeque<ReplyHalf>,
}

/// Pairs replies to requests positionally per connection — the protocol's
/// own rule.  The two directions of a connection are forwarded by different
/// threads, so a reply may reach the tagger before its request does; pairing
/// by position is indifferent to that.
#[derive(Default)]
struct Pairing {
    conns: HashMap<usize, ConnQueues>,
    exchanges: Vec<Exchange>,
    errors: Vec<String>,
}

impl Pairing {
    fn on_frame(&mut self, frame: Frame) {
        let bytes = FRAME_HEADER_BYTES + frame.payload.len() as u64;
        let queues = self.conns.entry(frame.conn).or_default();
        queues.owner = frame.owner;
        if frame.up {
            match decode_request(&frame.payload) {
                Ok(request) => {
                    let half = RequestHalf {
                        kind: request.kind(),
                        epoch: request_epoch(&request),
                        bytes,
                        in_ns: frame.in_ns,
                        out_ns: frame.out_ns,
                    };
                    if half.kind == RequestKind::Goodbye {
                        // The one request the protocol never answers.
                        self.exchanges
                            .push(exchange(frame.owner, frame.conn, half, None));
                    } else {
                        queues.requests.push_back(half);
                    }
                }
                Err(err) => self.errors.push(format!(
                    "connection {}: undecodable request: {err}",
                    frame.conn
                )),
            }
        } else {
            match decode_reply(&frame.payload) {
                Ok(reply) => queues.replies.push_back(ReplyHalf {
                    epoch_frame: matches!(reply, Reply::Epoch(_)),
                    bytes,
                    in_ns: frame.in_ns,
                    out_ns: frame.out_ns,
                }),
                Err(err) => self.errors.push(format!(
                    "connection {}: undecodable reply: {err}",
                    frame.conn
                )),
            }
        }
        let paired = queues.requests.len().min(queues.replies.len());
        let owner = queues.owner;
        for (request, reply) in queues
            .requests
            .drain(..paired)
            .zip(queues.replies.drain(..paired))
        {
            self.exchanges
                .push(exchange(owner, frame.conn, request, Some(reply)));
        }
    }

    /// Every exchange in request order, plus what went wrong (undecodable
    /// frames, requests or replies left without a partner).
    fn finish(mut self) -> (Vec<Exchange>, Vec<String>) {
        for (conn, queues) in &self.conns {
            if !queues.requests.is_empty() || !queues.replies.is_empty() {
                self.errors.push(format!(
                    "connection {conn}: {} requests and {} replies left unpaired",
                    queues.requests.len(),
                    queues.replies.len()
                ));
            }
        }
        self.exchanges
            .sort_by_key(|exchange| (exchange.req_in_ns, exchange.conn));
        (self.exchanges, self.errors)
    }
}

fn request_epoch(request: &Request) -> Option<usize> {
    match request {
        Request::Commit { epoch, .. }
        | Request::Advance { epoch }
        | Request::FreezeEpoch { epoch }
        | Request::PublishEpoch { epoch }
        | Request::Loads { epoch }
        | Request::Dump { epoch } => Some(*epoch),
        Request::TotalWrites | Request::Lease { .. } | Request::Goodbye => None,
    }
}

fn exchange(owner: usize, conn: usize, request: RequestHalf, reply: Option<ReplyHalf>) -> Exchange {
    Exchange {
        owner,
        conn,
        kind: request.kind,
        epoch: request.epoch,
        bytes_up: request.bytes,
        bytes_down: reply.as_ref().map_or(0, |r| r.bytes),
        epoch_frame: reply.as_ref().is_some_and(|r| r.epoch_frame),
        req_in_ns: request.in_ns,
        req_out_ns: request.out_ns,
        rep_in_ns: reply.as_ref().map_or(request.out_ns, |r| r.in_ns),
        rep_out_ns: reply.as_ref().map_or(request.out_ns, |r| r.out_ns),
    }
}

/// Forward frames from `reader` to `writer` until either side ends,
/// stamping each on arrival and on departure and handing it to the tagger.
fn pump<R: Read, W: Write>(
    mut reader: R,
    mut writer: W,
    (owner, conn, up): (usize, usize, bool),
    origin: Instant,
    sink: &Sender<Frame>,
) {
    loop {
        let mut payload = Vec::new();
        if read_frame(&mut reader, &mut payload).is_err() {
            return; // EOF, or a broken peer: either way this direction is over
        }
        let in_ns = origin.elapsed().as_nanos() as u64;
        if write_frame(&mut writer, &payload)
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        let out_ns = origin.elapsed().as_nanos() as u64;
        let frame = Frame {
            owner,
            conn,
            up,
            in_ns,
            out_ns,
            payload,
        };
        if sink.send(frame).is_err() {
            return;
        }
    }
}

/// Listeners bound, owners not yet known.  Cluster owners must be told
/// their client-reachable endpoints — the tap's — before they start, so
/// binding and starting are separate steps.
pub struct BoundTap {
    listeners: Vec<TcpListener>,
}

/// A running tap.
pub struct Tap {
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    acceptors: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    tagger: JoinHandle<Pairing>,
}

/// What acceptors hand over for [`Tap::finish`] to clean up.
struct Shared {
    pumps: Mutex<Vec<JoinHandle<()>>>,
    streams: Mutex<Vec<TcpStream>>,
    errors: Mutex<Vec<String>>,
    next_conn: AtomicUsize,
}

impl BoundTap {
    /// Bind one loopback listener per owner.
    pub fn bind(owners: usize) -> std::io::Result<BoundTap> {
        let listeners = (0..owners)
            .map(|_| TcpListener::bind(("127.0.0.1", 0)))
            .collect::<Result<_, _>>()?;
        Ok(BoundTap { listeners })
    }

    /// The endpoints clients connect to, in owner order.
    pub fn endpoints(&self) -> std::io::Result<Vec<String>> {
        self.listeners
            .iter()
            .map(|listener| listener.local_addr().map(|addr| addr.to_string()))
            .collect()
    }

    /// Start forwarding: listener `i` proxies to `upstreams[i]`.  Timestamps
    /// count from `origin`.
    pub fn start(self, upstreams: Vec<SocketAddr>, origin: Instant) -> std::io::Result<Tap> {
        assert_eq!(
            upstreams.len(),
            self.listeners.len(),
            "one upstream per listener"
        );
        let (sink, frames) = channel::<Frame>();
        let tagger = std::thread::Builder::new()
            .name("tap-tagger".to_string())
            .spawn(move || tag(frames))?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            pumps: Mutex::new(Vec::new()),
            streams: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
            next_conn: AtomicUsize::new(0),
        });
        let mut addrs = Vec::new();
        let mut acceptors = Vec::new();
        for (owner, (listener, upstream)) in self.listeners.into_iter().zip(upstreams).enumerate() {
            addrs.push(listener.local_addr()?);
            let (stop, shared, sink) = (stop.clone(), shared.clone(), sink.clone());
            acceptors.push(
                std::thread::Builder::new()
                    .name(format!("tap-accept-{owner}"))
                    .spawn(move || {
                        accept(listener, upstream, owner, origin, &stop, &shared, &sink)
                    })?,
            );
        }
        Ok(Tap {
            addrs,
            stop,
            acceptors,
            shared,
            tagger,
        })
    }
}

fn tag(frames: Receiver<Frame>) -> Pairing {
    let mut pairing = Pairing::default();
    for frame in frames {
        pairing.on_frame(frame);
    }
    pairing
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Every critical section below is a push or a drain; the data stays
    // valid at every step, so a poisoned lock is still safe to use.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn accept(
    listener: TcpListener,
    upstream: SocketAddr,
    owner: usize,
    origin: Instant,
    stop: &AtomicBool,
    shared: &Shared,
    sink: &Sender<Frame>,
) {
    for client in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let spliced =
            client.and_then(|client| splice(client, upstream, owner, conn, origin, shared, sink));
        if let Err(err) = spliced {
            lock(&shared.errors).push(format!(
                "owner {owner}: connection {conn} not proxied: {err}"
            ));
            // A listener that cannot accept would fail again at once; the
            // recorded error fails the run, so stop rather than spin.
            return;
        }
    }
}

/// Connect `client` through to `upstream` with one forwarding thread per
/// direction.  When a direction ends its thread half-closes the far side,
/// so EOF propagates exactly as it would without the tap.
fn splice(
    client: TcpStream,
    upstream: SocketAddr,
    owner: usize,
    conn: usize,
    origin: Instant,
    shared: &Shared,
    sink: &Sender<Frame>,
) -> std::io::Result<()> {
    let server = TcpStream::connect(upstream)?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    let directions = [
        (client.try_clone()?, server.try_clone()?, true),
        (server.try_clone()?, client.try_clone()?, false),
    ];
    lock(&shared.streams).extend([client, server]);
    for (reader, writer, up) in directions {
        let sink = sink.clone();
        let handle = std::thread::Builder::new()
            .name(format!(
                "tap-{owner}-{conn}-{}",
                if up { "up" } else { "down" }
            ))
            .spawn(move || {
                pump(&reader, &writer, (owner, conn, up), origin, &sink);
                let _ = writer.shutdown(Shutdown::Write);
            })?;
        lock(&shared.pumps).push(handle);
    }
    Ok(())
}

impl Tap {
    /// The addresses clients connect to, in owner order.
    #[cfg(test)]
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Stop the tap, wait for every thread it started, and return every
    /// exchange it saw (in request order) plus anything that went wrong.
    pub fn finish(self) -> (Vec<Exchange>, Vec<String>) {
        self.stop.store(true, Ordering::SeqCst);
        for addr in &self.addrs {
            // Wakes the acceptor out of its blocking accept.
            let _ = TcpStream::connect(addr);
        }
        let mut errors = Vec::new();
        for acceptor in self.acceptors {
            if acceptor.join().is_err() {
                errors.push("a tap acceptor panicked".to_string());
            }
        }
        // Clients are gone by now; closing whatever is still open ends any
        // forwarding thread a leaked connection would otherwise pin.
        for stream in lock(&self.shared.streams).drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let pumps: Vec<_> = lock(&self.shared.pumps).drain(..).collect();
        for pump in pumps {
            if pump.join().is_err() {
                errors.push("a tap forwarding thread panicked".to_string());
            }
        }
        errors.append(&mut lock(&self.shared.errors));
        // Every sender is gone now (acceptors and pumps held the clones), so
        // the tagger drains its queue and returns.
        match self.tagger.join() {
            Ok(pairing) => {
                let (exchanges, mut unpaired) = pairing.finish();
                errors.append(&mut unpaired);
                (exchanges, errors)
            }
            Err(_) => {
                errors.push("the tap tagger panicked".to_string());
                (Vec::new(), errors)
            }
        }
    }
}

/// What crossed the wire during one op, summed over its connections.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpWire {
    /// Request frames, the unanswered goodbyes included.
    pub requests: u64,
    pub bytes_up: u64,
    pub bytes_down: u64,
    /// Largest serialized frozen epoch.
    pub epoch_frame_bytes_max: u64,
    /// Owner-side time (request handed over → reply back) of all `Commit`s.
    pub commit_service_ms: f64,
    /// The same for `Advance`, `FreezeEpoch` and `PublishEpoch`.
    pub advance_service_ms: f64,
    /// Time inside the op with nothing in flight on any connection:
    /// client-side compute and decode.
    pub client_gap_ms: f64,
    /// Wall time of all phase-1 barriers (first freeze in → last ack out).
    pub freeze_phase_ms: f64,
    /// Wall time of all phase-2 barriers.
    pub publish_phase_ms: f64,
    /// Largest per-owner `bytes_down` over their mean (1 = balanced).
    pub owner_skew: f64,
}

/// The op each of `exchanges` (in request order) belongs to, given the ops'
/// `[start, end]` windows on the tap's clock.
///
/// A connection belongs to the op in whose window its first frame arrived,
/// with all its later frames: a goodbye is fire-and-forget, so the tap may
/// read it a moment after the call that sent it has returned.
pub fn attribute(exchanges: &[Exchange], windows: &[(u64, u64)]) -> Vec<Option<usize>> {
    let mut op_of_conn: HashMap<usize, Option<usize>> = HashMap::new();
    exchanges
        .iter()
        .map(|exchange| {
            *op_of_conn.entry(exchange.conn).or_insert_with(|| {
                windows
                    .iter()
                    .position(|&(start, end)| (start..=end).contains(&exchange.req_in_ns))
            })
        })
        .collect()
}

/// One [`OpWire`] per window, from the exchanges [`attribute`] gives it.
pub fn summarize(
    exchanges: &[Exchange],
    op_of: &[Option<usize>],
    windows: &[(u64, u64)],
    owners: usize,
) -> Vec<OpWire> {
    let mut per_op: Vec<Vec<&Exchange>> = vec![Vec::new(); windows.len()];
    for (exchange, op) in exchanges.iter().zip(op_of) {
        if let Some(op) = op {
            per_op[*op].push(exchange);
        }
    }
    per_op
        .into_iter()
        .zip(windows)
        .map(|(exchanges, &window)| summarize_op(&exchanges, window, owners))
        .collect()
}

fn summarize_op(exchanges: &[&Exchange], (start, end): (u64, u64), owners: usize) -> OpWire {
    let ms = |ns: u64| ns as f64 / 1e6;
    let service = |kinds: &[RequestKind]| {
        ms(exchanges
            .iter()
            .filter(|e| kinds.contains(&e.kind))
            // The two directions are stamped by different threads, so a fast
            // reply can be stamped before its request's departure is.
            .map(|e| e.rep_in_ns.saturating_sub(e.req_out_ns))
            .sum())
    };
    // A barrier phase sends one request per owner and waits for all acks
    // before anything else happens, so in request order every `owners`
    // consecutive requests of a phase's kind are one barrier.
    let phase = |kind: RequestKind| {
        let of_kind: Vec<&&Exchange> = exchanges.iter().filter(|e| e.kind == kind).collect();
        ms(of_kind
            .chunks(owners.max(1))
            .map(|barrier| {
                let first_in = barrier.iter().map(|e| e.req_in_ns).min().unwrap_or(0);
                let last_out = barrier.iter().map(|e| e.rep_out_ns).max().unwrap_or(0);
                last_out - first_in
            })
            .sum())
    };

    let mut in_flight: Vec<(u64, u64)> = exchanges
        .iter()
        .filter(|e| e.bytes_down > 0)
        .map(|e| {
            (
                e.req_in_ns.clamp(start, end),
                e.rep_out_ns.clamp(start, end),
            )
        })
        .collect();
    in_flight.sort_unstable();
    let (mut busy, mut frontier) = (0u64, start);
    for (from, to) in in_flight {
        if to > frontier {
            busy += to - from.max(frontier);
            frontier = to;
        }
    }

    let mut down_per_owner = vec![0u64; owners.max(1)];
    for exchange in exchanges {
        down_per_owner[exchange.owner.min(owners.max(1) - 1)] += exchange.bytes_down;
    }
    let bytes_down: u64 = down_per_owner.iter().sum();
    let mean_down = bytes_down as f64 / down_per_owner.len() as f64;
    OpWire {
        requests: exchanges.len() as u64,
        bytes_up: exchanges.iter().map(|e| e.bytes_up).sum(),
        bytes_down,
        epoch_frame_bytes_max: exchanges
            .iter()
            .filter(|e| e.epoch_frame)
            .map(|e| e.bytes_down)
            .max()
            .unwrap_or(0),
        commit_service_ms: service(&[RequestKind::Commit]),
        advance_service_ms: service(&[
            RequestKind::Advance,
            RequestKind::FreezeEpoch,
            RequestKind::PublishEpoch,
        ]),
        client_gap_ms: ms((end - start) - busy),
        freeze_phase_ms: phase(RequestKind::FreezeEpoch),
        publish_phase_ms: phase(RequestKind::PublishEpoch),
        owner_skew: if mean_down > 0.0 {
            down_per_owner.iter().copied().max().unwrap_or(0) as f64 / mean_down
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream;
    use ampc_dds::proto::{encode_reply, encode_request};
    use ampc_dds::{Key, KeyTag, Value};

    const DEPTH: usize = 32;

    fn commit(epoch: usize, pairs: usize) -> Request {
        Request::Commit {
            epoch,
            seq: epoch as u64,
            batches: vec![(
                0,
                (0..pairs as u64)
                    .map(|i| (Key::of(KeyTag::Scalar, i), Value::scalar(i)))
                    .collect(),
            )],
        }
    }

    fn dump(entries: usize) -> Reply {
        Reply::Dump(
            (0..entries as u64)
                .map(|i| (Key::of(KeyTag::Scalar, i), vec![Value::scalar(i)]))
                .collect(),
        )
    }

    fn framed(payloads: impl IntoIterator<Item = Vec<u8>>) -> Vec<u8> {
        let mut wire = Vec::new();
        for payload in payloads {
            write_frame(&mut wire, &payload).unwrap();
        }
        wire
    }

    /// Two owners, each with a 32-deep pipeline whose i-th request and i-th
    /// reply have sizes unique to `(owner, i)`; the reply directions are
    /// forwarded *before* the request directions, so every reply reaches the
    /// tagger ahead of its request.
    #[test]
    fn replies_pair_fifo_under_a_deep_pipeline_across_two_owners() {
        let origin = Instant::now();
        let (sink, frames) = channel();
        for up in [false, true] {
            for owner in 0..2usize {
                let wire = if up {
                    framed(
                        (0..DEPTH)
                            .map(|i| encode_request(&commit(i, 1 + i + owner * DEPTH)))
                            .chain([encode_request(&Request::Goodbye)]),
                    )
                } else {
                    framed((0..DEPTH).map(|i| encode_reply(&dump(1 + 2 * i + owner))))
                };
                let mut out = Vec::new();
                pump(&wire[..], &mut out, (owner, 10 + owner, up), origin, &sink);
                assert_eq!(out, wire, "the tap forwards bytes unchanged");
            }
        }
        drop(sink);
        let (exchanges, errors) = tag(frames).finish();
        assert_eq!(errors, Vec::<String>::new());
        assert_eq!(exchanges.len(), 2 * (DEPTH + 1));
        for owner in 0..2usize {
            let seen: Vec<&Exchange> = exchanges.iter().filter(|e| e.owner == owner).collect();
            assert_eq!(seen.len(), DEPTH + 1);
            for (i, exchange) in seen[..DEPTH].iter().enumerate() {
                let request = encode_request(&commit(i, 1 + i + owner * DEPTH));
                let reply = encode_reply(&dump(1 + 2 * i + owner));
                assert_eq!(exchange.kind, RequestKind::Commit);
                assert_eq!(exchange.epoch, Some(i));
                assert_eq!(exchange.conn, 10 + owner);
                assert_eq!(exchange.bytes_up, 4 + request.len() as u64);
                assert_eq!(
                    exchange.bytes_down,
                    4 + reply.len() as u64,
                    "owner {owner} request {i}"
                );
                assert!(exchange.req_in_ns <= exchange.req_out_ns);
                assert!(exchange.rep_in_ns <= exchange.rep_out_ns);
            }
            let goodbye = seen[DEPTH];
            assert_eq!(goodbye.kind, RequestKind::Goodbye);
            assert_eq!(goodbye.bytes_down, 0, "goodbyes are never answered");
        }
    }

    #[test]
    fn unpaired_and_undecodable_frames_are_reported() {
        let origin = Instant::now();
        let (sink, frames) = channel();
        let up = framed([encode_request(&commit(0, 1)), vec![0xff, 0xff]]);
        pump(&up[..], &mut Vec::new(), (0, 0, true), origin, &sink);
        drop(sink);
        let (exchanges, errors) = tag(frames).finish();
        assert!(exchanges.is_empty());
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("undecodable request"), "{errors:?}");
        assert!(
            errors[1].contains("1 requests and 0 replies left unpaired"),
            "{errors:?}"
        );
    }

    /// Once against a real owner: a leased client streams commits through
    /// the tap at a 32-deep window; the exactly-once audit still passes, and
    /// the tap accounts for every frame of the session.
    #[test]
    fn a_real_session_through_the_tap_is_fully_accounted_for() {
        let server = ampc_dds::serve(("127.0.0.1", 0)).unwrap();
        let bound = BoundTap::bind(1).unwrap();
        let tap = bound
            .start(vec![server.local_addr()], Instant::now())
            .unwrap();
        let commits = 3 * stream::ADVANCE_EVERY;
        let run = stream::run_client(tap.addrs()[0], commits, stream::WINDOW, 7).unwrap();
        assert_eq!(
            run.audited_writes,
            commits as u64 * stream::PAIRS_PER_COMMIT
        );
        let (exchanges, errors) = tap.finish();
        server.shutdown();
        assert_eq!(errors, Vec::<String>::new());
        let count = |kind| exchanges.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(RequestKind::Lease), 1);
        assert_eq!(count(RequestKind::Commit), commits);
        assert_eq!(count(RequestKind::Advance), 3);
        assert_eq!(count(RequestKind::TotalWrites), 1);
        assert_eq!(count(RequestKind::Goodbye), 1);
        assert_eq!(exchanges.len(), commits + 6);
        for exchange in &exchanges {
            assert_eq!(exchange.epoch_frame, exchange.kind == RequestKind::Advance);
            assert!(exchange.req_in_ns <= exchange.rep_in_ns, "{exchange:?}");
        }
    }
    fn seen(owner: usize, conn: usize, kind: RequestKind, times: [u64; 4], down: u64) -> Exchange {
        Exchange {
            owner,
            conn,
            kind,
            epoch: Some(0),
            bytes_up: 100,
            bytes_down: down,
            epoch_frame: kind == RequestKind::PublishEpoch,
            req_in_ns: times[0],
            req_out_ns: times[1],
            rep_in_ns: times[2],
            rep_out_ns: times[3],
        }
    }

    #[test]
    fn summaries_attribute_by_connection_and_measure_barriers_and_gaps() {
        use RequestKind::{Commit, FreezeEpoch, Goodbye, PublishEpoch};
        let ms = 1_000_000;
        let exchanges = vec![
            // Op 0, window [0, 100 ms]: two owners, one commit each, one barrier.
            seen(0, 1, Commit, [10 * ms, 11 * ms, 19 * ms, 20 * ms], 50),
            seen(1, 2, Commit, [12 * ms, 13 * ms, 29 * ms, 30 * ms], 50),
            seen(0, 1, FreezeEpoch, [40 * ms, 41 * ms, 42 * ms, 43 * ms], 20),
            seen(1, 2, FreezeEpoch, [41 * ms, 42 * ms, 47 * ms, 48 * ms], 20),
            seen(
                0,
                1,
                PublishEpoch,
                [50 * ms, 51 * ms, 58 * ms, 60 * ms],
                3_000,
            ),
            seen(
                1,
                2,
                PublishEpoch,
                [50 * ms, 51 * ms, 68 * ms, 70 * ms],
                1_000,
            ),
            // Its goodbyes straggle in after the window closed.
            seen(0, 1, Goodbye, [101 * ms, 101 * ms, 101 * ms, 101 * ms], 0),
            seen(1, 2, Goodbye, [102 * ms, 102 * ms, 102 * ms, 102 * ms], 0),
            // Op 1, window [110, 200 ms]: a lone commit on a new connection.
            seen(0, 3, Commit, [120 * ms, 121 * ms, 129 * ms, 130 * ms], 50),
        ];
        let windows = [(0, 100 * ms), (110 * ms, 200 * ms)];
        let op_of = attribute(&exchanges, &windows);
        assert_eq!(op_of[6..], [Some(0), Some(0), Some(1)]);
        let ops = summarize(&exchanges, &op_of, &windows, 2);
        assert_eq!(ops.len(), 2);
        let op = &ops[0];
        assert_eq!((op.requests, op.bytes_up), (8, 800));
        assert_eq!(op.bytes_down, 4_140);
        assert_eq!(op.epoch_frame_bytes_max, 3_000);
        assert_eq!(op.commit_service_ms, 8.0 + 16.0);
        assert_eq!(op.advance_service_ms, 1.0 + 5.0 + 7.0 + 17.0);
        assert_eq!(op.freeze_phase_ms, 8.0);
        assert_eq!(op.publish_phase_ms, 20.0);
        // In flight: [10, 30) ∪ [40, 48) ∪ [50, 70) = 48 of 100 ms.
        assert_eq!(op.client_gap_ms, 52.0);
        assert_eq!(op.owner_skew, 3_070.0 / 2_070.0);
        assert_eq!((ops[1].requests, ops[1].client_gap_ms), (1, 80.0));
    }
}
