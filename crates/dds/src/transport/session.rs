//! Session layer: one *connection* and its lifecycle.
//!
//! The types here own everything between the codec and the owner state
//! machine: the lease handshake, reconnection with capped backoff, in-order
//! replay of outstanding requests, the pipelined per-connection stages of
//! the TCP server (reader thread → dispatch → writer thread), and — at all
//! four socket ends of that path — *when* the codec's buffers meet the
//! socket (`TcpTransport::transmit` for the client, `Conn::start` for the
//! owner).  The protocol semantics — leases, replay idempotency, fault
//! injection — are documented on [the parent module](super).

use super::codec::{FramePool, FrameReader, FrameWriter};
use super::{
    fault_coordinates, ClientReply, OwnerReply, RequestFaults, ServerTransport, Transport,
    TransportError,
};
use crate::proto::{
    decode_reply_as, decode_request, encode_epoch_into, encode_reply_into, frame_fits,
    frame_refusal, read_frame, Decoded, ProtoError, Reply, Request, ShardMap, MAX_LEASE_SHARDS,
};
use crate::snapshot::FrozenEpoch;
use std::collections::VecDeque;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames each stage queue of a pipelined server connection buffers: the
/// reader decodes up to this many requests ahead of dispatch, and dispatch
/// queues up to this many encoded replies ahead of the writer.  This is the
/// server's maximum decode-ahead window *and* its backpressure: a client
/// that floods faster than the owner applies eventually blocks in the
/// socket, exactly like an unpipelined server, only `2 × PIPELINE_DEPTH`
/// frames (and the codec's read buffer) later.
pub const PIPELINE_DEPTH: usize = 64;

/// Deepest pipeline of outstanding requests one client may hold.  Must stay
/// below the dispatch layer's commit-deduplication window (a `const`
/// assertion beside `dispatch::COMMIT_REPLAY_WINDOW` holds it there): a
/// sever replays *every* outstanding request, and each already-applied
/// commit must still be inside the window to be re-acked instead of
/// re-applied.
pub(super) const MAX_PIPELINE: usize = 128;

// ---------------------------------------------------------------------------
// MpscTransport — in-process channels, zero-copy epoch publication
// ---------------------------------------------------------------------------

/// In-process transport over `std::sync::mpsc` channels.
///
/// Requests travel as typed values; `Advance` replies carry the frozen epoch
/// as a shared `Arc` (the zero-copy capability wire transports lack).
pub struct MpscTransport {
    worker: usize,
    requests: Sender<Request>,
    replies: Receiver<OwnerReply>,
    faults: RequestFaults,
}

/// Server half of an [`MpscTransport`].
pub struct MpscServer {
    requests: Receiver<Request>,
    replies: Sender<OwnerReply>,
}

impl MpscTransport {
    fn transmit(&mut self, request: Request) -> Result<(), TransportError> {
        self.requests
            .send(request)
            .map_err(|_| TransportError::PeerClosed {
                worker: self.worker,
                panic: None,
            })
    }
}

impl Transport for MpscTransport {
    const NAME: &'static str = "channel";
    type Server = MpscServer;

    fn connect(worker: usize) -> (Self, MpscServer) {
        let (request_tx, request_rx) = channel();
        let (reply_tx, reply_rx) = channel();
        (
            MpscTransport {
                worker,
                requests: request_tx,
                replies: reply_rx,
                faults: RequestFaults::none(),
            },
            MpscServer {
                requests: request_rx,
                replies: reply_tx,
            },
        )
    }

    fn install_faults(&mut self, faults: RequestFaults) {
        self.faults = faults;
    }

    fn send(&mut self, request: Request) -> Result<(), TransportError> {
        // Severs are not consulted: an in-process channel has no connection
        // to cut, so scheduled severs stay untouched (and unfired) here.
        if let Some((kind, epoch)) = fault_coordinates(&request) {
            if self.faults.should_drop(kind, epoch, self.worker) {
                // Fault: the request is delivered but its reply is lost in
                // transit.  Transmit the first copy, discard the reply the
                // backend will never "see", and fall through to the
                // retransmission below — whose reply is the one the caller
                // receives.  The owner must handle the duplicate
                // idempotently.
                self.transmit(request.clone())?;
                let _lost_reply = self.recv()?;
            }
        }
        self.transmit(request)
    }

    fn recv(&mut self) -> Result<ClientReply, TransportError> {
        match self.replies.recv() {
            Ok(OwnerReply::Wire(reply)) => Ok(ClientReply::Wire(reply)),
            Ok(OwnerReply::Epoch(epoch)) => Ok(ClientReply::SharedEpoch(epoch)),
            Err(_) => Err(TransportError::PeerClosed {
                worker: self.worker,
                panic: None,
            }),
        }
    }
}

impl ServerTransport for MpscServer {
    fn recv_request(&mut self) -> Option<Request> {
        self.requests.recv().ok()
    }

    fn send_reply(&mut self, reply: OwnerReply) -> bool {
        self.replies.send(reply).is_ok()
    }
}

// ---------------------------------------------------------------------------
// TcpTransport — sockets, length-prefixed proto frames, reconnect + lease
// ---------------------------------------------------------------------------

/// Source of fresh session ids: one per backend instance, shared by its
/// per-owner connections.  The process id keeps concurrent client
/// *processes* of one serving process apart; the counter keeps backends of
/// one process apart.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// Allocate a session id no other backend of this process (and, with high
/// probability, no other client process) is using.
pub fn fresh_session_id() -> u64 {
    let counter = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
    ((std::process::id() as u64) << 32) ^ counter
}

/// Connection-lifecycle options of a [`TcpTransport`]: the lease it
/// requests.  (The reconnect policy it retries under is fixed; see
/// `TcpTransport::recover`.)
#[derive(Clone, Debug)]
pub struct TcpOptions {
    /// Session id sent in the lease handshake.  All of one backend's
    /// connections share it; `worker` tells them apart.
    pub session: u64,
    /// Shard count of the client's routing topology (0 = unspecified; a
    /// paired in-process server ignores it, `ampc_dds::serve` uses it to
    /// derive the owner's shard group).
    pub num_shards: usize,
    /// Owner count of the client's routing topology (0 = unspecified).
    pub workers: usize,
    /// Lease duration requested from the owner.  The owner starts the
    /// countdown when the connection drops, not while it is idle; `0`
    /// requests a lease that never expires.
    pub ttl_ms: u64,
}

impl TcpOptions {
    /// Default options under a fresh session id: a 30 s lease.
    pub fn fresh() -> TcpOptions {
        TcpOptions {
            session: fresh_session_id(),
            num_shards: 0,
            workers: 0,
            ttl_ms: 30_000,
        }
    }

    /// Builder-style: set the requested lease duration in milliseconds
    /// (`0` = never expires).
    pub fn with_ttl_ms(mut self, ttl_ms: u64) -> TcpOptions {
        self.ttl_ms = ttl_ms;
        self
    }

    /// Builder-style: set the routing topology announced in the lease.
    pub fn with_topology(mut self, num_shards: usize, workers: usize) -> TcpOptions {
        self.num_shards = num_shards;
        self.workers = workers;
        self
    }
}

/// Socket transport speaking length-prefixed [`crate::proto`] frames.
///
/// Every message round-trips through the byte codec, so running the
/// conformance suites over this transport is an end-to-end proof of the wire
/// format.  An `Advance` reply is the owner's frozen maps encoded in place;
/// the client decodes the payload straight into the maps of a local replica
/// and delivers it as [`ClientReply::SharedEpoch`].
///
/// The transport owns the connection lifecycle: the lease handshake on
/// every (re)connect, capped-exponential-backoff reconnection on any socket
/// failure, and idempotent replay of the requests whose replies are still
/// outstanding — see the [module docs](super).  Sends do not wait for
/// replies, so callers may pipeline up to `MAX_PIPELINE` requests before
/// receiving.
pub struct TcpTransport {
    worker: usize,
    endpoint: SocketAddr,
    options: TcpOptions,
    stream: TcpStream,
    /// Buffered frame reader (codec layer): one `read` of the socket
    /// brings in every reply that has arrived.
    frames: FrameReader,
    /// Buffered frame writer (codec layer): requests queue here and leave
    /// together, under the flush rule on [`Self::transmit`].
    encoder: FrameWriter,
    /// Requests sent but not yet answered, oldest first — exactly what a
    /// reconnect must replay.  A request is here from the moment it is
    /// queued, so one still in `encoder` when the socket dies is replayed
    /// like one that left.
    pending: VecDeque<Request>,
    /// A lease handshake is in flight: the next frame read must be the
    /// grant, consumed before ordinary replies.
    await_grant: bool,
    /// The pending grant answers a reconnect handshake (`false`: the first
    /// connection, whose grant must report fresh state).
    reconnected: bool,
    /// A grant was absorbed on an earlier connection, so the owner holds
    /// acknowledged state of this session: from then on a reconnect grant
    /// must report `resumed`.  Before that either answer is safe — nothing
    /// was ever acknowledged, and the reconnect replays every request.
    granted: bool,
    /// The cluster shard map carried by the most recent lease grant
    /// (`None` when the owner serves standalone).
    shard_map: Option<ShardMap>,
    faults: RequestFaults,
}

impl TcpTransport {
    /// Establish a fresh connection pair through a private loopback
    /// listener: the in-process owner keeps the listener, so a severed
    /// client can reconnect to the same owner.
    pub fn connect_pair(
        worker: usize,
        options: TcpOptions,
    ) -> Result<(TcpTransport, TcpServer), TransportError> {
        let io_err = |message: String| TransportError::Io { worker, message };
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|err| io_err(format!("binding a loopback DDS owner socket: {err}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|err| io_err(format!("configuring the owner listener: {err}")))?;
        let addr = listener
            .local_addr()
            .map_err(|err| io_err(format!("reading the owner socket address: {err}")))?;
        let client = TcpTransport::connect_to(addr, worker, options)?;
        Ok((client, TcpServer::from_listener(listener, worker)))
    }

    /// Connect to an already-listening owner at `endpoint` — the entry
    /// point of a multi-process deployment (see `ampc_dds::serve`).
    ///
    /// The lease handshake frame is written immediately; its grant is
    /// verified on the first receive, so connecting cannot deadlock with an
    /// owner that has not entered its serve loop yet.
    pub fn connect_to(
        endpoint: impl ToSocketAddrs,
        worker: usize,
        options: TcpOptions,
    ) -> Result<TcpTransport, TransportError> {
        let io_err = |message: String| TransportError::Io { worker, message };
        let endpoint = endpoint
            .to_socket_addrs()
            .map_err(|err| io_err(format!("resolving the DDS owner address: {err}")))?
            .next()
            .ok_or_else(|| io_err("the DDS owner address resolved to nothing".to_string()))?;
        let stream = TcpStream::connect(endpoint)
            .map_err(|err| io_err(format!("connecting to the DDS owner: {err}")))?;
        // The protocol is small framed RPCs; Nagle only adds latency.  A
        // failure here would silently skew every latency measurement, so it
        // is propagated, not discarded.
        stream
            .set_nodelay(true)
            .map_err(|err| io_err(format!("setting TCP_NODELAY: {err}")))?;
        let mut transport = TcpTransport {
            worker,
            endpoint,
            options,
            stream,
            frames: FrameReader::new(),
            encoder: FrameWriter::new(),
            pending: VecDeque::new(),
            await_grant: true,
            reconnected: false,
            granted: false,
            shard_map: None,
            faults: RequestFaults::none(),
        };
        let lease = transport.lease_request();
        transport
            .encoder
            .send_request(&mut transport.stream, &lease)
            .map_err(|err| transport.classify(&err))?;
        Ok(transport)
    }

    /// The lease handshake frame for this connection.
    fn lease_request(&self) -> Request {
        Request::Lease {
            session: self.options.session,
            worker: self.worker as u64,
            num_shards: self.options.num_shards as u64,
            workers: self.options.workers as u64,
            ttl_ms: self.options.ttl_ms,
        }
    }

    /// Classify a socket error: vanished peers become [`TransportError::PeerClosed`],
    /// everything else keeps its diagnostic as [`TransportError::Io`].
    fn classify(&self, err: &std::io::Error) -> TransportError {
        match err.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::BrokenPipe => TransportError::PeerClosed {
                worker: self.worker,
                panic: None,
            },
            _ => TransportError::Io {
                worker: self.worker,
                message: err.to_string(),
            },
        }
    }

    /// The typed error for a frame the codec refused (over the cap), if that
    /// is what `err` is — never a reason to reconnect: the frame is no
    /// smaller on a fresh socket.
    fn refusal(&self, err: &std::io::Error) -> Option<TransportError> {
        frame_refusal(err).map(|error| TransportError::Proto {
            worker: self.worker,
            error,
        })
    }

    /// One reconnection attempt: dial, handshake the lease, replay every
    /// outstanding request in order — as one burst.
    fn try_reestablish(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.endpoint)?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        // What the buffers hold belongs to the dead stream: replies cut
        // short, and requests that never left — which `pending` has too.
        self.frames.discard();
        self.encoder.discard();
        self.await_grant = true;
        self.reconnected = true;
        let lease = self.lease_request();
        self.encoder.queue_request(&mut self.stream, &lease)?;
        for request in &self.pending {
            self.encoder.queue_request(&mut self.stream, request)?;
        }
        self.encoder.flush(&mut self.stream)
    }

    /// Bring the connection back after `cause`, retrying with capped
    /// exponential backoff: up to 8 attempts, the first immediate, then
    /// waiting 1 ms → 2 ms → … capped at 100 ms.  Returns `cause` if the
    /// owner stays unreachable through every attempt.
    fn recover(&mut self, cause: TransportError) -> Result<(), TransportError> {
        const RECONNECT_ATTEMPTS: u32 = 8;
        const INITIAL_BACKOFF: Duration = Duration::from_millis(1);
        const MAX_BACKOFF: Duration = Duration::from_millis(100);
        let mut backoff = INITIAL_BACKOFF;
        for attempt in 0..RECONNECT_ATTEMPTS {
            if attempt > 0 {
                #[allow(
                    clippy::disallowed_methods,
                    reason = "reconnect backoff: capped exponential wait on an already-severed connection, not the serve hot path"
                )]
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
            if self.try_reestablish().is_ok() {
                return Ok(());
            }
        }
        Err(cause)
    }

    /// Queue one request, recording it as outstanding, and flush under
    /// the transport's **flush rule** — Nagle's rule applied to requests
    /// instead of bytes, clocked by the replies.  Queued requests leave the
    /// buffer
    ///
    /// 1. at once, when the request just queued is the only one outstanding:
    ///    an idle pipe has nothing to coalesce with, so a lock-step caller
    ///    (window 1, a barrier's fan-out) pays no added latency;
    /// 2. when the buffer fills (inside [`FrameWriter::queue`]);
    /// 3. always before a read that would block ([`Self::next_reply`]).
    ///
    /// Rule 3 is the invariant that makes the buffer safe: **the client
    /// never blocks while holding a request** — it waits on the socket only
    /// when every request it was given has left, so the reply it waits for
    /// is one the owner can produce.  Under a pipelined caller the rules
    /// converge on bursts of up to a window: while replies keep arriving in
    /// the reader's buffer the sends between them only queue, and the
    /// moment the replies run out everything queued goes out in one write.
    fn transmit(&mut self, request: Request) -> Result<(), TransportError> {
        assert!(
            self.pending.len() < MAX_PIPELINE,
            "a client may pipeline at most {MAX_PIPELINE} outstanding requests \
             (the owner's replay-deduplication window must cover them all)"
        );
        self.pending.push_back(request);
        #[allow(
            clippy::expect_used,
            reason = "infallible: the request was pushed on the line above"
        )]
        let request = self.pending.back().expect("just pushed");
        let mut written = self.encoder.queue_request(&mut self.stream, request);
        if written.is_ok() && self.pending.len() == 1 {
            written = self.encoder.flush(&mut self.stream);
        }
        self.settle_write(written)
    }

    /// Settle the write of the newest outstanding request.  A frame the
    /// codec refused to produce (over the cap) fails typed and at once: the
    /// request was never buffered, so it is withdrawn and nothing is dialled —
    /// reconnecting would only replay the same refusal.  Any other failure
    /// is a dead socket and goes through reconnect-and-replay (which
    /// retransmits this request too).
    fn settle_write(&mut self, written: std::io::Result<()>) -> Result<(), TransportError> {
        let Err(err) = written else {
            return Ok(());
        };
        if let Some(refusal) = self.refusal(&err) {
            self.pending.pop_back();
            return Err(refusal);
        }
        let cause = self.classify(&err);
        self.recover(cause)
    }

    /// Read and decode the next frame (I/O error outer, decode error
    /// inner), flushing first unless the frame is already in the reader's
    /// buffer — rule 3 of the flush rule on [`Self::transmit`].  An epoch
    /// payload goes straight into the shard maps of a replica — one pass
    /// over the bytes, no typed frame in between.
    fn next_reply(&mut self) -> std::io::Result<Result<ClientReply, ProtoError>> {
        if !self.frames.has_frame() {
            self.encoder.flush(&mut self.stream)?;
        }
        let payload = self.frames.read(&mut self.stream)?;
        Ok(
            decode_reply_as::<FrozenEpoch>(payload).map(|decoded| match decoded {
                Decoded::Wire(reply) => ClientReply::Wire(reply),
                Decoded::Epoch(epoch) => ClientReply::SharedEpoch(Arc::new(epoch)),
            }),
        )
    }

    /// Drive the handshake to completion: read (and verify) the pending
    /// lease grant without consuming any ordinary reply.  A no-op on a
    /// connection whose grant was already absorbed.  Cluster clients call
    /// this right after connecting, because the grant carries the shard
    /// map they must route by ([`Self::shard_map`]).
    pub fn finish_handshake(&mut self) -> Result<(), TransportError> {
        while self.await_grant {
            self.pump(true)?;
        }
        Ok(())
    }

    /// The cluster shard map advertised by the owner's most recent lease
    /// grant, if any (populated once the handshake completes).
    pub fn shard_map(&self) -> Option<&ShardMap> {
        self.shard_map.as_ref()
    }

    /// The owner address this connection dials, and redials on reconnect.
    pub(crate) fn endpoint(&self) -> SocketAddr {
        self.endpoint
    }

    /// Read the next ordinary reply, consuming (and verifying) any pending
    /// lease grant first and reconnecting through socket failures.
    fn recv_reply(&mut self) -> Result<ClientReply, TransportError> {
        let reply = self.pump(false)?;
        #[allow(
            clippy::expect_used,
            reason = "infallible: pump only returns Ok(None) when stop_after_grant is set"
        )]
        Ok(reply.expect("pump only stops early when asked to"))
    }

    /// The receive loop shared by [`Self::recv_reply`] and
    /// [`Self::finish_handshake`]: reconnect through socket failures,
    /// verify and absorb lease grants, and either stop once the grant is
    /// in (`stop_after_grant`, returning `None`) or keep reading until an
    /// ordinary reply arrives.
    fn pump(&mut self, stop_after_grant: bool) -> Result<Option<ClientReply>, TransportError> {
        // Loop guard, not retry policy: `recover`'s attempt count bounds
        // the dials within one recovery; this bounds how many
        // *successful* recoveries one receive may burn through, so a
        // flapping owner (accepts the reconnect, then dies again before
        // answering) cannot spin this loop forever.  An unreachable owner
        // never gets here — `recover` surfaces its error on the first cycle.
        const MAX_RECOVERY_CYCLES: u32 = 4;
        let mut recoveries = 0u32;
        loop {
            let decoded = match self.next_reply() {
                Ok(decoded) => decoded,
                Err(err) => {
                    // A length prefix over the cap is garbage on the
                    // stream, not a dead socket: a reconnect would only
                    // have the owner replay it.
                    if let Some(refusal) = self.refusal(&err) {
                        return Err(refusal);
                    }
                    let cause = self.classify(&err);
                    recoveries += 1;
                    if recoveries > MAX_RECOVERY_CYCLES {
                        return Err(cause);
                    }
                    self.recover(cause)?;
                    continue;
                }
            };
            let reply = decoded.map_err(|error| TransportError::Proto {
                worker: self.worker,
                error,
            })?;
            if self.await_grant {
                let ClientReply::Wire(Reply::LeaseGranted {
                    session,
                    resumed,
                    shard_map,
                    ..
                }) = reply
                else {
                    return Err(TransportError::Protocol {
                        worker: self.worker,
                        message: format!("expected a lease grant, got {reply:?}"),
                    });
                };
                if session != self.options.session {
                    return Err(TransportError::Protocol {
                        worker: self.worker,
                        message: format!(
                            "lease grant for session {session:#x}, expected {:#x}",
                            self.options.session
                        ),
                    });
                }
                if self.granted && !resumed {
                    return Err(TransportError::LeaseLost {
                        worker: self.worker,
                        session,
                    });
                }
                if !self.reconnected && resumed {
                    return Err(TransportError::Protocol {
                        worker: self.worker,
                        message: format!("session {session:#x} collided with existing state"),
                    });
                }
                self.shard_map = shard_map;
                self.await_grant = false;
                self.granted = true;
                if stop_after_grant {
                    return Ok(None);
                }
                continue;
            }
            return Ok(Some(reply));
        }
    }

    /// The underlying socket (tests assert TCP_NODELAY is actually set, so
    /// latency numbers are never Nagle-dependent).
    #[cfg(test)]
    pub(crate) fn socket(&self) -> &TcpStream {
        &self.stream
    }
}

impl Transport for TcpTransport {
    const NAME: &'static str = "remote";
    type Server = TcpServer;

    #[allow(
        clippy::panic,
        reason = "construction-time setup failure: no transport thread exists yet to carry a typed error"
    )]
    fn connect(worker: usize) -> (Self, TcpServer) {
        // Loopback rendezvous: the connect lands in the listener's backlog,
        // so binding, connecting and accepting from one thread cannot
        // deadlock.  Setup failures have no transport thread to surface
        // through yet, so they are a loud construction panic.
        TcpTransport::connect_pair(worker, TcpOptions::fresh())
            .unwrap_or_else(|err| panic!("DDS transport setup failed: {err}"))
    }

    fn install_faults(&mut self, faults: RequestFaults) {
        self.faults = faults;
    }

    fn send(&mut self, request: Request) -> Result<(), TransportError> {
        if let Some((kind, epoch)) = fault_coordinates(&request) {
            if self.faults.should_sever(kind, epoch, self.worker) {
                // Fault: the connection dies mid-round, right before this
                // request goes out — possibly with a pipeline of earlier
                // requests still unanswered.  The write below fails, and
                // the transport must reconnect, replay the lease handshake
                // and *every* outstanding request in order, and carry on —
                // byte-identical.
                let _ = self.stream.shutdown(Shutdown::Both);
            }
            if self.faults.should_drop(kind, epoch, self.worker) {
                // Fault: the frame is delivered but its reply is lost in
                // transit.  Write the first copy, discard the reply frame
                // the backend will never "see", then retransmit the
                // identical frame below — the owner must deduplicate.
                self.transmit(request.clone())?;
                let _lost_reply = self.recv()?;
            }
        }
        self.transmit(request)
    }

    fn recv(&mut self) -> Result<ClientReply, TransportError> {
        let reply = self.recv_reply()?;
        self.pending.pop_front();
        Ok(reply)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Clean shutdown drains the pipeline first: every outstanding reply
        // is received before the goodbye goes out, so the lease is never
        // released with requests still in flight.  Replies that cannot be
        // read (dead socket) end the drain — the lease expiry covers that
        // case.  Stray lease grants (from a reconnect mid-drain) answer no
        // pending request and are skipped.
        while !self.pending.is_empty() {
            match self.next_reply() {
                Ok(Ok(ClientReply::Wire(Reply::LeaseGranted { .. }))) => {}
                Ok(Ok(_)) => {
                    self.pending.pop_front();
                }
                Ok(Err(_)) | Err(_) => break,
            }
        }
        // Best-effort: tell the owner not to hold the lease open for a
        // reconnect that will never come.
        let _ = self
            .encoder
            .send_request(&mut self.stream, &Request::Goodbye);
    }
}

// ---------------------------------------------------------------------------
// TcpServer — the owner side: pipelined per-connection stages
// ---------------------------------------------------------------------------

/// Where a [`TcpServer`] gets (re)connections from.
enum StreamSource {
    /// A private loopback listener (paired in-process mode): the server
    /// accepts and handshakes incoming connections itself.
    Listener(TcpListener),
    /// A shared acceptor (`ampc_dds::serve`): connections arrive with the
    /// lease already read, routed by `(session, worker)`.
    Mailbox(Receiver<ServeHandoff>),
}

/// One routed connection handed to a [`TcpServer`] by a shared acceptor.
pub(crate) struct ServeHandoff {
    /// The accepted, lease-validated stream.
    pub(crate) stream: TcpStream,
    /// Session the lease named (echoed in the grant).
    pub(crate) session: u64,
    /// Lease duration the client asked for, milliseconds (0 = infinite).
    pub(crate) ttl_ms: u64,
}

/// The decoded contents of a connection's opening [`Request::Lease`] frame.
pub(crate) struct LeaseFrame {
    pub(crate) session: u64,
    pub(crate) worker: u64,
    pub(crate) num_shards: u64,
    pub(crate) workers: u64,
    pub(crate) ttl_ms: u64,
}

/// Read and decode the opening lease frame of a fresh connection, under
/// [`HANDSHAKE_TIMEOUT`] so a wedged or hostile pre-lease client cannot
/// hold its acceptor hostage.  `None` means "drop the connection": garbage,
/// a timeout, a first frame that is not a lease, or a lease announcing more
/// than [`MAX_LEASE_SHARDS`] shards — the count sizes the owner a serving
/// process spawns, so an unchecked one lets any peer that can reach the
/// port ask the allocator for terabytes.  Shared by the paired in-process
/// [`TcpServer`] and the `ampc_dds::serve` acceptor — one handshake, one
/// implementation.
pub(crate) fn read_lease_frame(stream: &TcpStream) -> Option<LeaseFrame> {
    let mut reader = stream;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok()?;
    let mut payload = Vec::new();
    read_frame(&mut reader, &mut payload).ok()?;
    stream.set_read_timeout(None).ok()?;
    match decode_request(&payload) {
        Ok(Request::Lease {
            session,
            worker,
            num_shards,
            workers,
            ttl_ms,
        }) if num_shards <= MAX_LEASE_SHARDS => Some(LeaseFrame {
            session,
            worker,
            num_shards,
            workers,
            ttl_ms,
        }),
        _ => None,
    }
}

/// Warn exactly once, process-wide, when a server-side socket cannot set
/// TCP_NODELAY.  The connection still works; only latency is at stake, so
/// the server keeps serving — but never silently.
fn warn_nodelay_once(err: &std::io::Error) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!("ampc-dds: failed to set TCP_NODELAY on an owner socket ({err}); latency numbers may be Nagle-dependent");
    });
}

/// What the reader stage hands the dispatch stage, one per decoded frame.
enum ConnEvent {
    /// A well-formed request, in arrival order.
    Request(Request),
    /// A frame that arrived but did not decode — a protocol bug whose
    /// diagnostic must surface on the dispatch thread (the backend harvests
    /// the owner thread's panic, not the reader's).
    Malformed(ProtoError),
    /// The socket died without a goodbye (EOF, reset): the session stays
    /// open for a reconnect.
    Disconnected,
}

/// One live pipelined connection of a [`TcpServer`]: a *reader* thread
/// decoding ahead of dispatch, and a *writer* thread flushing encoded
/// replies behind it.  Both queues are bounded at [`PIPELINE_DEPTH`].
///
/// Frames cross both socket ends in bursts.  The reader takes every
/// request one `read` brought in before it reads again.  The writer
/// applies the owner's half of the flush rule (the client's is on
/// `TcpTransport::transmit`): it copies every reply its queue holds into
/// one burst and writes when — and only when — the queue is empty.  So it
/// **never holds a reply while idle**: a lone reply leaves at once, and
/// replies that dispatch produced while the last write was in the kernel
/// leave together.
struct Conn {
    /// The dispatch side's handle on the socket, used only to shut the
    /// connection down at teardown (the stages own clones).
    stream: TcpStream,
    /// Decoded requests from the reader stage, in arrival order.
    events: Receiver<ConnEvent>,
    /// Encoded reply frames to the writer stage, in dispatch order.
    replies: SyncSender<Vec<u8>>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

impl Conn {
    /// Spawn the reader and writer stages over clones of `stream`.
    fn start(stream: TcpStream, pool: FramePool) -> std::io::Result<Conn> {
        let read_half = stream.try_clone()?;
        let write_half = stream.try_clone()?;
        let (event_tx, event_rx) = sync_channel(PIPELINE_DEPTH);
        let (reply_tx, reply_rx) = sync_channel::<Vec<u8>>(PIPELINE_DEPTH);
        let reader = std::thread::Builder::new()
            .name("dds-conn-reader".to_string())
            .spawn(move || {
                let mut stream = read_half;
                let mut frames = FrameReader::new();
                loop {
                    let event = match frames.read(&mut stream) {
                        Ok(payload) => match decode_request(payload) {
                            Ok(request) => ConnEvent::Request(request),
                            Err(error) => ConnEvent::Malformed(error),
                        },
                        Err(_) => ConnEvent::Disconnected,
                    };
                    let last = !matches!(event, ConnEvent::Request(_));
                    // A full queue blocks here — the decode-ahead window —
                    // until dispatch drains or teardown drops the receiver.
                    if event_tx.send(event).is_err() || last {
                        return;
                    }
                }
            })?;
        let writer = std::thread::Builder::new()
            .name("dds-conn-writer".to_string())
            .spawn(move || {
                let mut stream = write_half;
                let mut frames = FrameWriter::new();
                let mut broken = false;
                // Block for a reply only with nothing queued to write.
                while let Ok(first) = reply_rx.recv() {
                    let mut written = Ok(());
                    for payload in std::iter::once(first).chain(reply_rx.try_iter()) {
                        if !broken && written.is_ok() {
                            written = frames.queue(&mut stream, &payload);
                        }
                        // Copied into the burst (or lost with the
                        // connection): the buffer is free again.
                        pool.put(payload);
                    }
                    // A frame that cannot be written ends the connection,
                    // whatever the reason: a peer that is gone has closed
                    // it already, and after any other failure (a refused
                    // frame, a half-written one) the stream has nothing
                    // more to say that the client could pair with a
                    // request — left open, it would block in `recv` for
                    // good.  Keep draining (the client replays unanswered
                    // requests after reconnecting) and recycle the buffers.
                    if !broken && written.and_then(|()| frames.flush(&mut stream)).is_err() {
                        broken = true;
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                }
            });
        let writer = match writer {
            Ok(writer) => writer,
            Err(err) => {
                // Unblock and reap the already-running reader before
                // reporting the spawn failure.
                let _ = stream.shutdown(Shutdown::Both);
                drop(event_rx);
                let _ = reader.join();
                return Err(err);
            }
        };
        Ok(Conn {
            stream,
            events: event_rx,
            replies: reply_tx,
            reader,
            writer,
        })
    }

    /// Stop both stages and reap their threads.  With `flush`, every queued
    /// reply is written out first (clean goodbye); without, the socket is
    /// shut down immediately (disconnect) and queued replies are discarded
    /// into the pool.
    fn teardown(self, flush: bool) {
        let Conn {
            stream,
            events,
            replies,
            reader,
            writer,
        } = self;
        if !flush {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Closing the reply queue lets the writer drain and exit.
        drop(replies);
        let _ = writer.join();
        // Now end the reader's blocking read, and drop the event queue so a
        // reader blocked mid-send returns too.
        let _ = stream.shutdown(Shutdown::Both);
        drop(events);
        let _ = reader.join();
    }
}

/// Server half of a [`TcpTransport`]: the owner side of the connection
/// lifecycle, pipelined per connection.
///
/// The server validates the lease handshake of every incoming connection,
/// answers renewals, survives disconnects by waiting (up to the lease
/// deadline) for a reconnect, and treats [`Request::Goodbye`] as the
/// client's clean release of the session — after flushing every queued
/// reply, so a drained pipeline is never cut short.  `recv_request` returns
/// `None` — ending the owner's serve loop — only on goodbye, lease expiry,
/// or a vanished stream source.
///
/// Each live connection runs as three stages (reader thread → dispatch →
/// writer thread, see [`Conn`]): the owner applies request `N` while the
/// reader decodes `N + 1` and the writer flushes the reply to `N - 1`.
pub struct TcpServer {
    source: StreamSource,
    worker: usize,
    conn: Option<Conn>,
    /// Encoded-reply buffers recycled between dispatch and writer stages.
    pool: FramePool,
    /// Granted lease duration; zero means the lease never expires.
    ttl: Duration,
    /// When the connection dropped (the expiry countdown's epoch); `None`
    /// while connected or before the first connection.  The countdown never
    /// runs against a live socket — not even one whose pipelined replies
    /// are still being flushed.
    disconnected_at: Option<Instant>,
    /// Whether this session served a connection before — what the grant
    /// reports as `resumed`.
    served_before: bool,
    /// Session id of the connection currently (or last) served; dispatch
    /// keys its per-session replay windows by this.
    session: u64,
    /// Cluster topology advertised in every lease grant (`None` when the
    /// owner serves standalone).
    shard_map: Option<ShardMap>,
    /// The client said goodbye (or the lease expired): serving is over.
    finished: bool,
}

/// How long an accepting server waits for the lease handshake frame of a
/// brand-new connection before dropping it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Poll interval of the nonblocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

impl TcpServer {
    /// A server accepting (re)connections from its own loopback listener.
    pub(crate) fn from_listener(listener: TcpListener, worker: usize) -> TcpServer {
        TcpServer::new(StreamSource::Listener(listener), worker)
    }

    /// A server fed routed connections by a shared acceptor
    /// (`ampc_dds::serve`).
    pub(crate) fn from_mailbox(mailbox: Receiver<ServeHandoff>, worker: usize) -> TcpServer {
        TcpServer::new(StreamSource::Mailbox(mailbox), worker)
    }

    fn new(source: StreamSource, worker: usize) -> TcpServer {
        TcpServer {
            source,
            worker,
            conn: None,
            pool: FramePool::new(),
            ttl: Duration::ZERO,
            disconnected_at: None,
            served_before: false,
            session: 0,
            shard_map: None,
            finished: false,
        }
    }

    /// Advertise a cluster shard map in every lease grant this server
    /// issues (`ampc_dds::serve` sets this when serving as a cluster node).
    pub(crate) fn with_shard_map(mut self, shard_map: Option<ShardMap>) -> TcpServer {
        self.shard_map = shard_map;
        self
    }

    /// The expiry deadline of the current disconnect, if the lease expires
    /// at all.
    fn deadline(&self) -> Option<Instant> {
        match (self.disconnected_at, self.ttl) {
            (Some(at), ttl) if ttl > Duration::ZERO => Some(at + ttl),
            _ => None,
        }
    }

    /// Adopt a freshly (re)connected stream: start its pipeline stages,
    /// grant the lease and begin serving it.
    fn adopt(&mut self, stream: TcpStream, session: u64, ttl_ms: u64) {
        if let Err(err) = stream.set_nodelay(true) {
            warn_nodelay_once(&err);
        }
        self.ttl = Duration::from_millis(ttl_ms);
        self.disconnected_at = None;
        self.session = session;
        let resumed = self.served_before;
        self.served_before = true;
        match Conn::start(stream, self.pool.clone()) {
            Ok(conn) => {
                self.conn = Some(conn);
                self.grant(session, resumed);
            }
            // Could not spawn the stage threads: treat it as an immediate
            // disconnect (the client will reconnect and re-handshake).
            Err(_) => self.mark_disconnected(),
        }
    }

    /// Queue the lease grant; a failed queue is just a disconnect (the
    /// client will reconnect and re-handshake).
    fn grant(&mut self, session: u64, resumed: bool) {
        let reply = Reply::LeaseGranted {
            session,
            ttl_ms: self.ttl.as_millis() as u64,
            resumed,
            shard_map: self.shard_map.clone(),
        };
        self.queue_reply(&OwnerReply::Wire(reply));
    }

    /// Encode `reply` into a pooled buffer — a frozen epoch straight from
    /// its maps — and hand it to the writer stage.  Blocks when
    /// [`PIPELINE_DEPTH`] replies are already queued — the dispatch stage's
    /// backpressure.
    ///
    /// # Panics
    /// If the reply does not fit a frame.  No retry can make it fit, so it
    /// is refused here, on the owner's thread and (for an epoch) before a
    /// byte is encoded, through the owner's normal error surface — the
    /// client sees the connection close and harvests this message — rather
    /// than dropped by the writer stage with the client left waiting.
    fn queue_reply(&mut self, reply: &OwnerReply) {
        if self.conn.is_none() {
            // Already disconnected: the reply is lost, but the client will
            // replay its request after reconnecting — keep serving.
            return;
        }
        let mut payload = self.pool.take();
        let fits = match reply {
            OwnerReply::Epoch(epoch) => encode_epoch_into(&mut payload, epoch),
            OwnerReply::Wire(reply) => {
                encode_reply_into(&mut payload, reply);
                frame_fits(payload.len())
            }
        };
        if let Err(error) = fits {
            #[allow(
                clippy::panic,
                reason = "owner-side refusal: the panic is the owner's error surface, harvested into TransportError::PeerClosed by whoever hosts the owner"
            )]
            {
                panic!("reply to the backend refused: {error}")
            }
        }
        let failed = self
            .conn
            .as_ref()
            .is_some_and(|conn| conn.replies.send(payload).is_err());
        if failed {
            self.mark_disconnected();
        }
    }

    fn mark_disconnected(&mut self) {
        if let Some(conn) = self.conn.take() {
            conn.teardown(false);
        }
        if self.disconnected_at.is_none() {
            self.disconnected_at = Some(Instant::now());
        }
    }

    /// Read and validate the lease handshake of a brand-new connection.
    /// Returns `None` (dropping the connection) on garbage, a timeout, or a
    /// lease addressed to a different worker.
    fn read_handshake(&self, stream: &TcpStream) -> Option<(u64, u64)> {
        let lease = read_lease_frame(stream)?;
        (lease.worker as usize == self.worker).then_some((lease.session, lease.ttl_ms))
    }

    /// Wait for a (re)connection until the lease deadline.  `false` ends
    /// the serve loop: the lease expired, or the stream source is gone.
    fn await_stream(&mut self) -> bool {
        let deadline = self.deadline();
        match &self.source {
            StreamSource::Listener(listener) => loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // Accepted sockets must block; the listener itself
                        // stays nonblocking for the deadline poll.
                        if stream.set_nonblocking(false).is_err() {
                            continue;
                        }
                        let Some((session, ttl_ms)) = self.read_handshake(&stream) else {
                            continue; // not our client; drop and keep waiting
                        };
                        self.adopt(stream, session, ttl_ms);
                        return true;
                    }
                    Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                            return false; // lease expired: reclaim
                        }
                        #[allow(
                            clippy::disallowed_methods,
                            reason = "reconnect-wait poll: a disconnected session waiting out its lease, bounded by ACCEPT_POLL per spin and the lease deadline overall"
                        )]
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => return false, // listener broken: give up
                }
            },
            StreamSource::Mailbox(mailbox) => {
                let handoff = match deadline {
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return false;
                        }
                        match mailbox.recv_timeout(deadline - now) {
                            Ok(handoff) => handoff,
                            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                                return false
                            }
                        }
                    }
                    None => match mailbox.recv() {
                        Ok(handoff) => handoff,
                        Err(_) => return false,
                    },
                };
                self.adopt(handoff.stream, handoff.session, handoff.ttl_ms);
                true
            }
        }
    }
}

impl ServerTransport for TcpServer {
    fn recv_request(&mut self) -> Option<Request> {
        loop {
            if self.finished {
                return None;
            }
            if self.conn.is_none() && !self.await_stream() {
                self.finished = true;
                return None;
            }
            let Some(conn) = self.conn.as_ref() else {
                continue; // adoption failed; wait for a reconnect
            };
            match conn.events.recv() {
                // Mid-stream renewal: refresh the lease, grant, keep going.
                // `resumed` is definitionally true here — a renewal arrives
                // on a connection that already holds its grant, so the
                // session's state is intact (clients only validate the flag
                // during the handshake, never on a renewal).
                Ok(ConnEvent::Request(Request::Lease {
                    session, ttl_ms, ..
                })) => {
                    self.ttl = Duration::from_millis(ttl_ms);
                    self.grant(session, true);
                }
                // Clean shutdown: the goodbye frame arrives *behind* every
                // pipelined request on the socket, so all of them have been
                // dispatched and their replies queued by the time it is
                // popped here.  Flush those replies, then release the
                // session.
                Ok(ConnEvent::Request(Request::Goodbye)) => {
                    if let Some(conn) = self.conn.take() {
                        conn.teardown(true);
                    }
                    self.finished = true;
                    return None;
                }
                Ok(ConnEvent::Request(request)) => return Some(request),
                // A frame that arrives but does not decode is a protocol
                // bug and must keep its diagnostic — the panic is harvested
                // into the typed `TransportError::PeerClosed` the backend
                // surfaces.  It is raised here, on the dispatch thread,
                // because the backend joins the owner thread (not the
                // connection's reader stage).
                #[allow(
                    clippy::panic,
                    reason = "owner-side protocol violation: the panic is the owner's error surface, harvested into TransportError::PeerClosed by the backend join"
                )]
                Ok(ConnEvent::Malformed(error)) => {
                    panic!("malformed request frame from the backend: {error}")
                }
                // EOF or reset without a goodbye: hold the session and
                // wait (up to the lease deadline) for a reconnect.
                Ok(ConnEvent::Disconnected) | Err(_) => self.mark_disconnected(),
            }
        }
    }

    fn send_reply(&mut self, reply: OwnerReply) -> bool {
        // A lost reply (disconnect) is not the end of the session: the
        // reconnect replay re-asks and the owner re-answers idempotently.
        self.queue_reply(&reply);
        true
    }

    fn session(&self) -> u64 {
        self.session
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        // Reap the stage threads of a connection dropped mid-serve (e.g. an
        // owner panic unwinding): without this, a reader blocked on a live
        // socket would linger until the peer closed it.
        if let Some(conn) = self.conn.take() {
            conn.teardown(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{Key, KeyTag, Value};
    use crate::proto::{RequestKind, MAX_FRAME_BYTES};

    fn echo_server<S: ServerTransport>(mut server: S) -> std::thread::JoinHandle<usize> {
        std::thread::spawn(move || {
            let mut served = 0;
            while let Some(request) = server.recv_request() {
                let reply = match request {
                    Request::Commit { epoch, batches, .. } => Reply::Committed {
                        epoch,
                        accepted: batches.iter().map(|(_, pairs)| pairs.len() as u64).sum(),
                    },
                    Request::TotalWrites => Reply::TotalWrites(served),
                    _ => Reply::TotalWrites(0),
                };
                if !server.send_reply(OwnerReply::Wire(reply)) {
                    break;
                }
                served += 1;
            }
            served as usize
        })
    }

    fn commit_request(epoch: usize) -> Request {
        Request::Commit {
            epoch,
            seq: epoch as u64,
            batches: vec![(0, vec![(Key::of(KeyTag::Scalar, 1), Value::scalar(2))])],
        }
    }

    /// Commit number `seq` of epoch 0: one pair under a key of its own.
    fn epoch_zero_commit(seq: u64) -> Request {
        Request::Commit {
            epoch: 0,
            seq,
            batches: vec![(0, vec![(Key::of(KeyTag::Scalar, seq), Value::scalar(7))])],
        }
    }

    /// A real owner (one shard) behind the real server stages.
    fn real_owner(mut server: TcpServer) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            crate::transport::dispatch::Worker::new(vec![0]).serve(&mut server);
        })
    }

    fn exercise_transport<T: Transport>() {
        let (mut client, server) = T::connect(0);
        let handle = echo_server(server);

        // Pipelined sends, FIFO replies.
        client.send(commit_request(0)).unwrap();
        client.send(Request::TotalWrites).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::Committed { epoch, accepted }) => {
                assert_eq!((epoch, accepted), (0, 1));
            }
            _ => panic!("commit must be acknowledged first"),
        }
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::TotalWrites(n)) => assert_eq!(n, 1),
            _ => panic!("total-writes reply expected"),
        }

        drop(client);
        assert_eq!(handle.join().unwrap(), 2);
    }

    #[test]
    fn mpsc_transport_round_trips() {
        exercise_transport::<MpscTransport>();
    }

    #[test]
    fn tcp_transport_round_trips() {
        exercise_transport::<TcpTransport>();
    }

    #[test]
    fn pipelined_bursts_round_trip_in_order() {
        let (mut client, server) = TcpTransport::connect(0);
        let handle = echo_server(server);

        // A deep burst of sends before any receive: the reader stage
        // decodes ahead of dispatch, the writer stage flushes behind it,
        // and the replies come back strictly FIFO.
        const BURST: usize = 24;
        for epoch in 0..BURST {
            client.send(commit_request(epoch)).unwrap();
        }
        for expected in 0..BURST {
            match client.recv().unwrap() {
                ClientReply::Wire(Reply::Committed { epoch, accepted }) => {
                    assert_eq!((epoch, accepted), (expected, 1));
                }
                _ => panic!("pipelined replies must arrive in request order"),
            }
        }

        drop(client);
        assert_eq!(handle.join().unwrap(), BURST);
    }

    #[test]
    fn a_full_pipeline_sent_before_any_receive_cannot_deadlock() {
        // The deepest pipeline the client allows, of requests small enough
        // to coalesce, against the real server stages and the real owner:
        // more frames than the write buffer holds (so rule 2 flushes
        // mid-way) and twice the server's stage depth.  Everything still
        // queued when the first receive finds nothing to read must leave
        // then (rule 3) — a client that held on to any of it would wait
        // for an ack the owner was never asked for.
        let (mut client, server) = TcpTransport::connect(0);
        let owner = real_owner(server);
        for seq in 0..MAX_PIPELINE {
            client.send(epoch_zero_commit(seq as u64)).unwrap();
        }
        for _ in 0..MAX_PIPELINE {
            match client.recv().unwrap() {
                ClientReply::Wire(Reply::Committed { accepted: 1, .. }) => {}
                other => panic!("every commit must be acknowledged, got {other:?}"),
            }
        }
        client.send(Request::TotalWrites).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::TotalWrites(n)) => assert_eq!(n, MAX_PIPELINE as u64),
            other => panic!("total-writes reply expected, got {other:?}"),
        }
        drop(client);
        owner.join().unwrap();
    }

    /// One session against a real owner: `window` one-pair commits sent
    /// back to back — after `drain_at` of them one ack is received, which
    /// flushes whatever was queued — then the acks, an advance and the
    /// owner's own dump and audit.  `sever_at` cuts the socket right before
    /// that commit goes out.  Returns every reply the caller saw.
    fn windowed_session(window: usize, drain_at: usize, sever_at: Option<usize>) -> Vec<String> {
        let (mut client, server) = TcpTransport::connect(6);
        let owner = real_owner(server);
        let faults = RequestFaults::none();
        client.install_faults(faults.clone());
        let mut replies = Vec::new();
        let mut recv = |client: &mut TcpTransport| match client.recv().unwrap() {
            ClientReply::Wire(Reply::Dump(mut entries)) => {
                entries.sort_by_key(|&(key, _)| key);
                replies.push(format!("{entries:?}"));
            }
            ClientReply::Wire(reply) => replies.push(format!("{reply:?}")),
            ClientReply::SharedEpoch(epoch) => replies.push(format!("{:?}", epoch.writes)),
        };
        for seq in 0..window {
            if sever_at == Some(seq) {
                // All of the window's commits share one fault coordinate;
                // scheduled here, the sever fires on this one.
                faults.schedule_sever(RequestKind::Commit, 0, 6);
            }
            client.send(epoch_zero_commit(seq as u64)).unwrap();
            if seq + 1 == drain_at {
                recv(&mut client);
            }
        }
        for _ in usize::from(drain_at > 0)..window {
            recv(&mut client);
        }
        for request in [
            Request::Advance { epoch: 0 },
            Request::Dump { epoch: 0 },
            Request::TotalWrites,
        ] {
            client.send(request).unwrap();
            recv(&mut client);
        }
        assert_eq!(faults.severed(), u64::from(sever_at.is_some()));
        drop(client);
        owner.join().unwrap();
        replies
    }

    #[test]
    fn a_sever_anywhere_in_a_half_flushed_window_changes_no_reply() {
        // When the socket dies the window is in every state the flush rule
        // can leave it in: nothing sent, one request out and the rest
        // queued behind it, a flushed prefix with a queued tail.  Whatever
        // had left is replayed and deduplicated, whatever had not is
        // replayed and applied — each commit exactly once, every reply
        // identical to the fault-free session's.
        const WINDOW: usize = 8;
        for drain_at in [0, WINDOW / 2] {
            let baseline = windowed_session(WINDOW, drain_at, None);
            assert_eq!(baseline.len(), WINDOW + 3);
            assert_eq!(baseline[WINDOW + 2], format!("TotalWrites({WINDOW})"));
            for sever_at in 0..WINDOW {
                assert_eq!(
                    windowed_session(WINDOW, drain_at, Some(sever_at)),
                    baseline,
                    "sever before commit {sever_at}, one ack drained after {drain_at}"
                );
            }
        }
    }

    #[test]
    fn goodbye_drains_the_full_pipeline() {
        let (mut client, server) = TcpTransport::connect(0);
        let handle = echo_server(server);

        // Send a pipeline and drop the client without receiving anything:
        // the clean shutdown must drain every outstanding reply before its
        // goodbye releases the lease, and the server must dispatch every
        // request before honoring the goodbye — nothing dropped.
        const BURST: usize = 12;
        for epoch in 0..BURST {
            client.send(commit_request(epoch)).unwrap();
        }
        drop(client);
        assert_eq!(handle.join().unwrap(), BURST, "no request may be dropped");
    }

    fn exercise_faults<T: Transport>() {
        let (mut client, server) = T::connect(3);
        let handle = echo_server(server);
        let faults = RequestFaults::none();
        faults.schedule_drop(RequestKind::Commit, 5, 3);
        faults.schedule_drop(RequestKind::Commit, 5, 4); // wrong worker: never fires
        client.install_faults(faults.clone());

        // The fault delivers the request, loses its reply, and retransmits:
        // the caller still sees exactly one reply per send.
        client.send(commit_request(5)).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::Committed { epoch, .. }) => assert_eq!(epoch, 5),
            _ => panic!("the retransmission's reply must reach the caller"),
        }
        assert_eq!(faults.dropped(), 1);

        // The fault fired once; a second identical request is untouched.
        client.send(commit_request(5)).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::Committed { .. }) => {}
            _ => panic!("second commit must be delivered"),
        }
        assert_eq!(faults.dropped(), 1);
        assert!(!faults.is_empty(), "the wrong-worker drop stays scheduled");

        drop(client);
        // The server really received the duplicate — 2 copies of the
        // faulted commit plus the clean one.  Deduplicating the copy is
        // the owner's job (`dispatch::Worker`), pinned by its own tests.
        assert_eq!(handle.join().unwrap(), 3, "duplicate must hit the wire");
    }

    #[test]
    fn mpsc_transport_honors_request_faults() {
        exercise_faults::<MpscTransport>();
    }

    #[test]
    fn tcp_transport_honors_request_faults() {
        exercise_faults::<TcpTransport>();
    }

    #[test]
    fn severed_tcp_connections_reconnect_and_replay() {
        let (mut client, server) = TcpTransport::connect(2);
        let handle = echo_server(server);
        let faults = RequestFaults::none();
        faults.schedule_sever(RequestKind::Commit, 1, 2);
        faults.schedule_sever(RequestKind::Advance, 2, 2);
        client.install_faults(faults.clone());

        // Warm the connection so the sever cuts an established stream.
        client.send(commit_request(0)).unwrap();
        let _ = client.recv().unwrap();

        // The sever cuts the socket right before the commit: the transport
        // must reconnect, re-handshake and replay, and the caller still
        // sees exactly one reply.
        client.send(commit_request(1)).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::Committed { epoch, .. }) => assert_eq!(epoch, 1),
            other => panic!("replayed commit must be acknowledged, got {other:?}"),
        }
        assert_eq!(faults.severed(), 1);

        // A second sever, addressed at an Advance, exercises the replay of
        // a different request kind over a fresh reconnect.
        client.send(Request::Advance { epoch: 2 }).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::TotalWrites(_)) => {} // echo server answer
            _ => panic!("the replayed advance must be answered"),
        }
        assert_eq!(faults.severed(), 2);
        assert!(faults.is_empty());

        drop(client);
        // The echo server saw each request exactly once: severs cut the
        // connection *before* the frame goes out, so nothing is duplicated.
        assert_eq!(handle.join().unwrap(), 3);
    }

    #[test]
    fn severed_pipelines_replay_every_outstanding_request() {
        let (mut client, server) = TcpTransport::connect(4);
        let handle = echo_server(server);
        let faults = RequestFaults::none();
        faults.schedule_sever(RequestKind::Commit, 3, 4);
        client.install_faults(faults.clone());

        // Warm the connection so the sever cuts an established stream.
        client.send(commit_request(0)).unwrap();
        let _ = client.recv().unwrap();

        // Two commits are sent with their replies unconsumed…
        client.send(commit_request(1)).unwrap();
        client.send(commit_request(2)).unwrap();
        // …and the third severs the socket with both still outstanding.
        // The reconnect must replay 1, 2 *and* 3, in order, and the caller
        // still receives exactly one FIFO reply per send.
        client.send(commit_request(3)).unwrap();
        for expected in 1..=3 {
            match client.recv().unwrap() {
                ClientReply::Wire(Reply::Committed { epoch, .. }) => assert_eq!(epoch, expected),
                _ => panic!("replayed pipeline must be acknowledged in order"),
            }
        }
        assert_eq!(faults.severed(), 1);

        drop(client);
        // At-least-once on the wire, and that is all the protocol
        // promises: the echo server, which deduplicates nothing, counts
        // the warm-up and the three replays, plus a first copy of commit 1
        // and of commit 2 *if* it left the client before the sever.  Which
        // of them did is the flush rule's business (commit 2 queues behind
        // the outstanding commit 1 and is still in the buffer when the
        // socket dies), not the protocol's, so the count is bounded, not
        // pinned.  Exactly-once *application* of such duplicates is the
        // dispatch layer's job, pinned by `dispatch::Worker`'s tests.
        let served = handle.join().unwrap();
        assert!((4..=6).contains(&served), "{served} requests served");
    }

    #[test]
    fn mpsc_transports_ignore_scheduled_severs() {
        let (mut client, server) = MpscTransport::connect(0);
        let handle = echo_server(server);
        let faults = RequestFaults::none();
        faults.schedule_sever(RequestKind::Commit, 0, 0);
        client.install_faults(faults.clone());
        client.send(commit_request(0)).unwrap();
        let _ = client.recv().unwrap();
        // No connection to cut: the sever neither fires nor is consumed.
        assert_eq!(faults.severed(), 0);
        assert!(!faults.is_empty());
        drop(client);
        assert_eq!(handle.join().unwrap(), 1);
    }

    #[test]
    fn tcp_nodelay_is_set_on_both_halves() {
        let (client, mut server) = TcpTransport::connect(0);
        // Nagle would let latency depend on frame coalescing; the latency
        // series in BENCH_commit.json assume it is off.
        assert!(
            client.socket().nodelay().unwrap_or(false),
            "client socket must have TCP_NODELAY set"
        );
        // Drive the handshake from a second thread so the server can adopt
        // the connection, then inspect its socket.
        let driver = std::thread::spawn(move || {
            let request = server.recv_request();
            (server, request)
        });
        let mut client = client;
        client.send(Request::TotalWrites).unwrap();
        let (server, request) = driver.join().unwrap();
        assert_eq!(request, Some(Request::TotalWrites));
        assert!(
            server
                .conn
                .as_ref()
                .is_some_and(|conn| conn.stream.nodelay().unwrap_or(false)),
            "server socket must have TCP_NODELAY set"
        );
    }

    #[test]
    fn expired_leases_end_the_serve_loop() {
        let options = TcpOptions::fresh().with_ttl_ms(50);
        let (client, mut server) = TcpTransport::connect_pair(7, options).unwrap();
        // Serve one round-trip, then cut the connection without a goodbye:
        // the server must wait out the 50 ms lease and then give up — not
        // hang.
        let driver = std::thread::spawn(move || {
            let first = server.recv_request();
            if first.is_some() {
                server.send_reply(OwnerReply::Wire(Reply::TotalWrites(0)));
            }
            let second = server.recv_request();
            (first, second)
        });
        let mut client = client;
        client.send(Request::TotalWrites).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::TotalWrites(0)) => {}
            _ => panic!("round-trip before the sever must succeed"),
        }
        // Abrupt death: no goodbye frame.
        client.stream.shutdown(Shutdown::Both).unwrap();
        std::mem::forget(client);
        let (first, second) = driver.join().unwrap();
        assert_eq!(first, Some(Request::TotalWrites));
        assert_eq!(second, None, "the lease must expire and end serving");
    }

    #[test]
    fn goodbye_releases_the_session_immediately() {
        let (client, mut server) = TcpTransport::connect(5);
        let started = Instant::now();
        let driver = std::thread::spawn(move || server.recv_request());
        drop(client); // sends the goodbye frame
        assert_eq!(driver.join().unwrap(), None);
        // No lease wait: the goodbye ends serving at once (well under the
        // 30 s default ttl).
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn a_reply_the_writer_stage_cannot_write_ends_the_connection() {
        use std::io::Read;

        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let conn = Conn::start(stream, FramePool::new()).unwrap();

        // A reply over the frame cap reaches the writer stage (lazily
        // zeroed, never read: the codec refuses it by its length).
        // Dropping it and carrying on would leave the peer waiting for a
        // reply that never comes; the stage must end the connection.
        conn.replies.send(vec![0u8; MAX_FRAME_BYTES + 1]).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut byte = [0u8; 1];
        match peer.read(&mut byte) {
            Ok(0) => {}
            Ok(_) => panic!("no byte of a refused frame may reach the peer"),
            // Timed out: the socket was left open (`WouldBlock` / `TimedOut`).
            Err(err) => panic!("the peer's read must end, not wait: {err}"),
        }
        // The reader stage saw the same shutdown.
        assert!(matches!(
            conn.events.recv_timeout(Duration::from_secs(10)),
            Ok(ConnEvent::Disconnected)
        ));
        conn.teardown(false);
    }

    #[test]
    fn over_cap_requests_fail_typed_and_at_once_without_reconnecting() {
        // A scripted owner that counts connections: every reconnect would
        // be one more accept.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpTransport::connect_to(addr, 3, TcpOptions::fresh()).unwrap();
        let (_owner_side, _) = listener.accept().unwrap();

        // What `transmit` does for a request whose encoding is over the
        // cap, without building 256 MiB of pairs: the request is recorded
        // as outstanding, then the codec refuses to frame its payload.
        client.pending.push_back(Request::TotalWrites);
        let oversized = vec![0u8; MAX_FRAME_BYTES + 1];
        let refused = client.encoder.queue(&mut client.stream, &oversized);
        assert_eq!(
            client.settle_write(refused),
            Err(TransportError::Proto {
                worker: 3,
                error: ProtoError::Oversized {
                    len: MAX_FRAME_BYTES + 1,
                    max: MAX_FRAME_BYTES,
                },
            })
        );
        // The refused request is withdrawn — it never left, so no later
        // reconnect may replay it — and not one connection was dialled.
        assert!(client.pending.is_empty());
        assert_eq!(
            listener.accept().err().map(|err| err.kind()),
            Some(std::io::ErrorKind::WouldBlock),
            "no reconnect may have been dialled"
        );
        // A dead socket still takes the reconnect path: the same call with
        // a real I/O failure dials the owner again.
        client.pending.push_back(Request::TotalWrites);
        let dead = Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe));
        assert_eq!(client.settle_write(dead), Ok(()));
        assert!(listener.accept().is_ok(), "a dead socket reconnects");
        client.pending.clear(); // no goodbye drain against a mute owner
    }

    #[test]
    fn dead_peer_is_a_typed_error() {
        let (mut client, server) = MpscTransport::connect(7);
        drop(server);
        let err = client.send(Request::TotalWrites).unwrap_err();
        assert_eq!(
            err,
            TransportError::PeerClosed {
                worker: 7,
                panic: None
            }
        );

        // For TCP the listener dies with the server half, so reconnect
        // attempts are refused and the original failure surfaces — by the
        // reply read at the latest (the OS may buffer the first write).
        let (mut client, server) = TcpTransport::connect(7);
        drop(server);
        let result = client
            .send(Request::TotalWrites)
            .and_then(|()| client.recv().map(|_| ()));
        assert_eq!(
            result.unwrap_err(),
            TransportError::PeerClosed {
                worker: 7,
                panic: None
            }
        );
    }
}
