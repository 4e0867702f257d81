//! Transports carrying the [`crate::proto`] protocol between a backend and
//! its shard-group owners — split into three layers:
//!
//! * [`codec`] — byte-level framing over **reused buffers, moved in
//!   bursts**: a [`codec::FrameReader`] / [`codec::FrameWriter`] pair per
//!   connection side (the same two types at the client and at the owner's
//!   stages) buffers small frames, so one `read` takes in every frame that
//!   has arrived and one `write` sends every frame that is queued; a frame
//!   larger than the buffer bypasses it uncopied (one vectored
//!   header+payload write, a read straight into the payload scratch).
//!   Zero steady-state allocations either way.  [`codec::FramePool`]
//!   recycles encoded-reply buffers between the dispatch and writer stages
//!   of a pipelined server.
//! * `session` (this module's re-exports) — one *connection* and its
//!   lifecycle: the lease handshake, reconnect with capped backoff, and
//!   in-order replay of outstanding requests ([`TcpTransport`] /
//!   [`TcpServer`]), plus the in-process [`MpscTransport`].
//! * `dispatch` — request application against the owner state machine
//!   (`dispatch::Worker`), including the idempotency that makes replay
//!   safe: commit deduplication over a bounded window of recent sequence
//!   numbers and advance republication of the already-frozen epoch.
//!
//! A transport is one *connection* (logically: the TCP transport survives
//! reconnects): the backend holds the client half ([`Transport`]), the owner
//! thread (or process) serves the server half ([`ServerTransport`]).
//!
//! # Pipelining
//!
//! Requests and replies pair up positionally (FIFO per connection), so a
//! client may issue many requests before receiving — each tagged with its
//! idempotency sequence number.  The TCP server runs each connection as
//! three stages: a *reader* thread decodes requests ahead of the owner
//! thread that *dispatches* them, and a *writer* thread sends replies
//! behind it — so the socket, the codec and the state machine all stay
//! busy at once.  The stage queues are bounded
//! ([`PIPELINE_DEPTH`] frames each way), which is the server's
//! maximum decode-ahead window and its backpressure: a client that floods
//! faster than the owner applies eventually blocks in the socket, exactly
//! like an unpipelined server, only `2 × PIPELINE_DEPTH` frames (and the
//! codec's read buffer) later.
//!
//! The unit that crosses a socket is the **burst**, not the frame.  AMPC
//! pays for fewer rounds with many small requests, so a request's fixed
//! cost is what the model lives on, and most of that cost was a syscall
//! and a thread wake-up per frame at each of the four socket ends.  Each
//! end now moves whatever has accumulated with one call: the client
//! queues requests while replies keep arriving and flushes the moment it
//! would have to wait (the three-condition flush rule and its
//! never-block-while-holding-a-request invariant are stated once, on
//! `TcpTransport::transmit`); the owner's reader stage takes every request
//! one `read` brought in; the owner's writer stage writes every reply its
//! queue holds and never holds one while idle (stated on the `Conn`
//! stages).  No timer and no setting is involved: a lone request on an
//! idle connection leaves and is answered at once, exactly as before, and
//! a window-32 stream converges on bursts of up to a window, clocked by
//! its own acks.  Nothing about the bytes changes — same frames, same
//! order — only how many of them one syscall carries.
//!
//! Ordering guarantees are unchanged from the one-in-flight path: requests
//! are applied in arrival order, replies are sent in application order, and
//! the reply to request `N` is written before the reply to `N + 1`.
//! Pipelining composes with reconnect (below) because the client's replay
//! queue holds *every* request whose reply is outstanding, in order — a
//! sever with six commits in flight replays all six under the lease, and
//! the dispatch layer's deduplication window acknowledges the already-
//! applied prefix without re-applying it.  Bursts compose with it for the
//! same reason: a request is in the replay queue from the moment it is
//! queued, so whether it had left the write buffer when the socket died
//! changes how many copies the owner sees, never what the caller sees; a
//! reconnect discards both buffers and replays the queue.
//!
//! Two implementations ship in-tree:
//!
//! * [`MpscTransport`] — in-process channels.  Requests travel as typed
//!   values (no serialization), and the `Advance` reply exercises the
//!   transport's *shared-memory capability*: the owner publishes the frozen
//!   epoch as an `Arc` ([`ClientReply::SharedEpoch`]) instead of
//!   serializing it, which is the zero-copy fast path
//!   [`crate::ChannelBackend`] has always had.
//! * [`TcpTransport`] — sockets speaking length-prefixed [`crate::proto`]
//!   frames (`std::net`, no external dependencies).  Every message
//!   round-trips through the byte codec; an `Advance` reply is encoded
//!   straight from the owner's frozen shards and decoded straight into the
//!   client's, so it reaches the caller as the same
//!   [`ClientReply::SharedEpoch`] — a replica instead of the owner's own
//!   allocation.
//!
//! # Connection lifecycle: lease → serve → reconnect → expire
//!
//! The first frame of every TCP connection is a [`Request::Lease`]
//! identifying `(session, worker)` and asking for a lease of `ttl_ms`
//! milliseconds; the server answers [`crate::proto::Reply::LeaseGranted`]
//! before any other reply.  From then on the *owner* owns liveness:
//!
//! * while the socket is **connected**, requests renew the lease implicitly
//!   (a slow round is not a dead client — expiry is never enforced against
//!   a healthy connection, not even one whose pipelined replies are still
//!   being flushed);
//! * when the socket **drops without a [`Request::Goodbye`]**, the owner
//!   holds the session open and waits for a reconnect until the lease
//!   expires, then reclaims the session (pending commits included);
//! * a **clean shutdown** sends `Goodbye` (the client's `Drop` does), so
//!   the owner releases the session immediately.  Under pipelining both
//!   sides drain first: the client receives every outstanding reply before
//!   its goodbye goes out, and the server flushes every queued reply before
//!   releasing the session — a clean shutdown never orphans an in-flight
//!   request.
//!
//! The client side mirrors this: any I/O failure on send or receive
//! triggers **automatic reconnection** with capped exponential backoff
//! (8 attempts, 1 ms → 100 ms).  On reconnect the client replays the lease
//! handshake and then *every request whose reply is still outstanding*, in
//! order.
//! That replay is safe because every request is idempotent at the owner:
//! `Commit` is deduplicated by sequence number (over a window deep enough
//! for a full pipeline of outstanding commits), `Advance` re-publishes the
//! already-frozen epoch, and `Loads` / `Dump` / `TotalWrites` are pure
//! reads.  A reconnect that lands on an owner which already reclaimed the
//! session (lease expired) surfaces as the typed
//! [`TransportError::LeaseLost`] — continuing silently would resurrect a
//! session whose pending state is gone.  That is only demanded of a session
//! that *was* granted: a connection severed before its first grant was read
//! has no acknowledged state to lose, its handshake may reach the owner
//! after the reconnect's, and the full replay makes either grant safe.
//!
//! # Fault injection
//!
//! [`RequestFaults`] schedules request-level faults.  Two classes exist:
//!
//! * **drops** — "lose the reply of the `Commit` targeting epoch 3 on
//!   worker 1".  The request is delivered, its reply is dropped in transit,
//!   and the transport retransmits the identical request — exactly the
//!   drop-then-retry a real RPC layer performs when an acknowledgement goes
//!   missing.  The owner receives the request **twice** and must apply it
//!   exactly once.
//! * **severs** — "cut the TCP connection right before the `Commit`
//!   targeting epoch 3 on worker 1".  The socket is shut down mid-round;
//!   the transport's reconnect machinery must bring the connection back and
//!   replay the outstanding requests idempotently.  Only [`TcpTransport`]
//!   honors severs (in-process channels have no connection to cut);
//!   in-process transports leave the schedule untouched.
//!
//! The cross-backend suites assert results are byte-identical with and
//! without faults, which fails loudly if the idempotence ever regresses.
//!
//! # Failure surface
//!
//! Every client operation returns a typed [`TransportError`] instead of
//! hanging, panicking inside the transport thread, or dying on a broken
//! channel.  Socket errors are classified (`PeerClosed` vs `Io`), a frame
//! over [`crate::proto::MAX_FRAME_BYTES`] is refused typed and at once on
//! the side that would have produced it (a client's request as
//! [`TransportError::Proto`] with no reconnect, an owner's reply through
//! the owner's panic surface, and a writer stage that cannot write ends
//! the connection instead of leaving the peer waiting),
//! `set_nodelay` failures are propagated on the client and logged once on
//! the server (never silently discarded).  Every owner a backend spawns is
//! a thread of its own, whatever the constructor, so when one panics the
//! backend joins it and attaches the panic payload to the
//! [`TransportError::PeerClosed`] it surfaces — see [`crate::RemoteBackend`].
//! An owner of another process (`ampc_dds::serve`) has no thread here to
//! join: the client sees the closed connection, and the panic goes to that
//! process's stderr like any thread's.

pub mod codec;
pub(crate) mod dispatch;
mod session;

pub use session::{
    fresh_session_id, MpscServer, MpscTransport, TcpOptions, TcpServer, TcpTransport,
    PIPELINE_DEPTH,
};
pub(crate) use session::{read_lease_frame, LeaseFrame, ServeHandoff};

use crate::proto::{ProtoError, ReplayPolicy, Reply, Request, RequestKind};
use crate::snapshot::FrozenEpoch;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Typed failure of a transport operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The owner side of the connection is gone (and, for TCP, stayed gone
    /// through every reconnect attempt).  If the owner thread died
    /// panicking, `panic` carries its payload (attached by the backend,
    /// which owns the join handle).
    PeerClosed {
        /// Worker whose connection closed.
        worker: usize,
        /// Panic payload of the dead owner, when one could be harvested.
        panic: Option<String>,
    },
    /// An I/O error on the connection (after reconnect attempts, for TCP).
    Io {
        /// Worker whose connection failed.
        worker: usize,
        /// Stringified `std::io::Error`.
        message: String,
    },
    /// A frame arrived but did not decode.
    Proto {
        /// Worker whose frame was malformed.
        worker: usize,
        /// The decode failure.
        error: ProtoError,
    },
    /// A well-formed reply of the wrong variant for the pending request.
    Protocol {
        /// Worker that answered out of protocol.
        worker: usize,
        /// Description of the mismatch.
        message: String,
    },
    /// A reconnect reached the owner, but the owner had already reclaimed
    /// the session: the lease expired while the client was away.  The
    /// session's pending commits are gone, so the client must not continue.
    LeaseLost {
        /// Worker whose lease expired.
        worker: usize,
        /// The session that was reclaimed.
        session: u64,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::PeerClosed {
                worker,
                panic: Some(message),
            } => write!(f, "DDS owner {worker} panicked: {message}"),
            TransportError::PeerClosed {
                worker,
                panic: None,
            } => write!(f, "DDS owner {worker} closed the connection"),
            TransportError::Io { worker, message } => {
                write!(f, "I/O error talking to DDS owner {worker}: {message}")
            }
            TransportError::Proto { worker, error } => {
                write!(f, "malformed frame from DDS owner {worker}: {error}")
            }
            TransportError::Protocol { worker, message } => {
                write!(f, "protocol violation from DDS owner {worker}: {message}")
            }
            TransportError::LeaseLost { worker, session } => write!(
                f,
                "DDS owner {worker} reclaimed session {session:#x}: the lease expired before the client reconnected"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

// ---------------------------------------------------------------------------
// Request-level fault injection
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct FaultsInner {
    /// Scheduled one-shot reply drops: (kind, epoch, worker).
    drops: Mutex<HashSet<(RequestKind, usize, usize)>>,
    /// Scheduled one-shot connection severs: (kind, epoch, worker).
    severs: Mutex<HashSet<(RequestKind, usize, usize)>>,
    /// Requests dropped (and retried) so far.
    dropped: AtomicU64,
    /// Connections severed (and re-established) so far.
    severed: AtomicU64,
}

/// A schedule of request-level faults, shared between a backend's transports.
///
/// Each scheduled entry fires once.  **Drops** deliver the matching request,
/// lose its *reply* in transit, and retransmit the identical request — the
/// retry a real RPC layer issues when an acknowledgement goes missing; the
/// owner sees the request twice and must treat the second copy idempotently
/// (commit deduplication by sequence number, advance replay of the
/// already-frozen epoch).  **Severs** cut the TCP connection immediately
/// before the matching request is transmitted — the mid-round socket loss a
/// real deployment must absorb; the transport reconnects with backoff,
/// replays the lease handshake and the outstanding requests, and the run
/// must stay byte-identical.  Only the write-side requests (`Commit`,
/// `Advance`) are addressable — they are the ones a real deployment must
/// retry; reads are served from immutable local epochs and never cross the
/// wire.
///
/// Cloning shares the schedule (transports of one backend consult one
/// ledger).
#[derive(Clone, Debug, Default)]
pub struct RequestFaults {
    inner: Arc<FaultsInner>,
}

impl RequestFaults {
    /// An empty schedule.
    pub fn none() -> Self {
        RequestFaults::default()
    }

    /// Schedule the `kind` request targeting `epoch` on `worker` to lose
    /// its reply in transit, forcing a retransmission of the request.
    pub fn schedule_drop(&self, kind: RequestKind, epoch: usize, worker: usize) {
        self.inner.drops.lock().insert((kind, epoch, worker));
    }

    /// Schedule the connection to `worker` to be severed right before the
    /// `kind` request targeting `epoch` is transmitted.  Only transports
    /// with a connection to cut ([`TcpTransport`]) consult sever entries.
    pub fn schedule_sever(&self, kind: RequestKind, epoch: usize, worker: usize) {
        self.inner.severs.lock().insert((kind, epoch, worker));
    }

    /// Consume a scheduled drop for these coordinates, if one exists,
    /// counting it as fired.
    pub fn should_drop(&self, kind: RequestKind, epoch: usize, worker: usize) -> bool {
        let fired = self.inner.drops.lock().remove(&(kind, epoch, worker));
        if fired {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// Consume a scheduled sever for these coordinates, if one exists,
    /// counting it as fired.
    pub fn should_sever(&self, kind: RequestKind, epoch: usize, worker: usize) -> bool {
        let fired = self.inner.severs.lock().remove(&(kind, epoch, worker));
        if fired {
            self.inner.severed.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// Faults fired so far (one lost reply + retransmission each).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Connections severed (and re-established) so far.
    pub fn severed(&self) -> u64 {
        self.inner.severed.load(Ordering::Relaxed)
    }

    /// `true` if no drops or severs remain scheduled.
    pub fn is_empty(&self) -> bool {
        self.inner.drops.lock().is_empty() && self.inner.severs.lock().is_empty()
    }
}

/// The fault-injection coordinates of a request, if it is addressable:
/// every request that names an epoch and changes owner state.  The pure
/// audits (`Loads`, `Dump`) name an epoch but are out of the schedule's
/// reach.
fn fault_coordinates(request: &Request) -> Option<(RequestKind, usize)> {
    let kind = request.kind();
    match kind.replay_policy() {
        ReplayPolicy::Pure => None,
        ReplayPolicy::Deduped | ReplayPolicy::Idempotent => {
            request.epoch().map(|epoch| (kind, epoch))
        }
    }
}

/// Best-effort extraction of a panic payload's message (panics carry
/// `String` or `&str` payloads in practice).
///
/// Shared by the backend's owner-thread harvesting and the runtime's
/// round-boundary `catch_unwind`, so the two failure paths can never
/// diverge in how they read a payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
}

/// [`panic_message`] of a dead owner, for the `panic` of a
/// [`TransportError::PeerClosed`].
pub(crate) fn owner_panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    panic_message(payload).unwrap_or_else(|| "owner panicked with a non-string payload".to_string())
}

// ---------------------------------------------------------------------------
// The transport traits
// ---------------------------------------------------------------------------

/// What a client receives for one request.
pub enum ClientReply {
    /// Any reply but a frozen epoch.  (A transport never delivers
    /// [`Reply::Epoch`] here: that is the typed form of an epoch payload,
    /// for tools and tests that decode frames themselves.)
    Wire(Reply),
    /// The frozen epoch an advance published, ready to read from — on every
    /// transport.  In-process transports ([`MpscTransport`]) hand over the
    /// owner's own `Arc`, zero-copy; wire transports ([`TcpTransport`])
    /// decode the epoch payload straight into the shards of a replica.
    SharedEpoch(Arc<FrozenEpoch>),
}

impl fmt::Debug for ClientReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientReply::Wire(reply) => reply.fmt(f),
            ClientReply::SharedEpoch(epoch) => {
                write!(f, "a frozen epoch of {} shards", epoch.shards.len())
            }
        }
    }
}

/// What an owner hands its transport to answer one request.
pub enum OwnerReply {
    /// An ordinary wire reply.
    Wire(Reply),
    /// A frozen epoch (freshly frozen, or retained and asked for again).
    /// Shared-memory transports forward the `Arc` as-is; wire transports
    /// encode the epoch payload straight from its shards.  Either way the
    /// client receives a [`ClientReply::SharedEpoch`].
    Epoch(Arc<FrozenEpoch>),
}

/// Client half of one backend↔owner connection.
pub trait Transport: Send + Sized + 'static {
    /// Backend label reported by `DdsBackend::backend_name` (`"channel"`
    /// for [`MpscTransport`], `"remote"` for [`TcpTransport`]).
    const NAME: &'static str;

    /// The server half handed to the owner thread.
    type Server: ServerTransport;

    /// Establish one connection for `worker`, returning both halves.
    fn connect(worker: usize) -> (Self, Self::Server);

    /// Install the fault schedule this transport consults on every send.
    fn install_faults(&mut self, faults: RequestFaults);

    /// Transmit one request.  If the fault schedule matches, the scheduled
    /// fault is injected (reply lost + retransmission, or connection
    /// severed + reconnect) — the caller still receives exactly one reply.
    /// Does not wait for that reply, so callers may pipeline several sends
    /// before receiving.
    fn send(&mut self, request: Request) -> Result<(), TransportError>;

    /// Receive the reply to the oldest unanswered request.
    fn recv(&mut self) -> Result<ClientReply, TransportError>;
}

/// Server (owner) half of one backend↔owner connection.
pub trait ServerTransport: Send + 'static {
    /// Next request, or `None` when the client is gone for good (clean
    /// goodbye, channel hangup, or an expired lease) — the owner exits.
    fn recv_request(&mut self) -> Option<Request>;

    /// Answer the current request; `false` when the client is gone.
    /// Reconnecting transports report `true` on a lost reply — the client
    /// replays the request after reconnecting, so serving continues.
    fn send_reply(&mut self, reply: OwnerReply) -> bool;

    /// Session id of the client whose request [`Self::recv_request`] last
    /// returned.  Dispatch keys its commit-replay windows by this, so two
    /// clients multiplexed onto one owner keep isolated replay memory.
    /// Transports that serve exactly one anonymous client report `0`.
    fn session(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_reach_exactly_the_requests_that_change_owner_state() {
        let lease = Request::Lease {
            session: 1,
            worker: 0,
            num_shards: 4,
            workers: 1,
            ttl_ms: 0,
        };
        let commit = Request::Commit {
            epoch: 3,
            seq: 9,
            batches: Vec::new(),
        };
        let cases = [
            (commit, Some((RequestKind::Commit, 3))),
            (
                Request::Advance { epoch: 4 },
                Some((RequestKind::Advance, 4)),
            ),
            (
                Request::FreezeEpoch { epoch: 5 },
                Some((RequestKind::FreezeEpoch, 5)),
            ),
            (
                Request::PublishEpoch { epoch: 6 },
                Some((RequestKind::PublishEpoch, 6)),
            ),
            (Request::Loads { epoch: 7 }, None),
            (Request::Dump { epoch: 8 }, None),
            (Request::TotalWrites, None),
            (lease, None),
            (Request::Goodbye, None),
        ];
        for (request, coordinates) in cases {
            assert_eq!(fault_coordinates(&request), coordinates, "{request:?}");
        }
    }
}
