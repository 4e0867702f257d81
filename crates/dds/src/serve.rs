//! The standalone DDS owner process: [`DdsServer`] / [`serve`].
//!
//! `RemoteBackend::new` and `TcpBackend::spawn_local` spawn their owners as
//! threads of the client process — fine for a simulation, useless for the
//! multi-host deployment the AMPC model actually assumes.  This module is
//! the other half of that story: a process that *only* owns shards, serving
//! any number of concurrent [`crate::TcpBackend`] clients of *other*
//! processes over the [`crate::proto`] wire protocol
//! (`TcpBackend::connect_remote` / `connect_cluster` on the client side, the
//! `quickstart --serve` / `--connect` / `--cluster <n>` examples end to
//! end).  An owner that panics here on a protocol violation ends its
//! session, and the panic goes to this process's stderr like any thread's;
//! its client sees the connection close.
//!
//! # Sessions
//!
//! Every client connection opens with a [`crate::proto::Request::Lease`]
//! naming `(session, worker)` plus the client's routing topology.  The
//! acceptor routes the connection to the per-`(session, worker)` owner —
//! spawning a fresh `transport::dispatch::Worker` for new coordinates,
//! derived from the announced topology — so concurrent clients coexist in
//! fully isolated sessions of one serving process.
//!
//! # The lease state machine
//!
//! ```text
//!        Lease frame                  socket drop (no Goodbye)
//!  (new) ───────────► GRANTED ─────────────────────────► EXPIRING
//!                      ▲   │ Goodbye                        │  reconnect
//!                      │   ▼                                │  (same session,
//!                      │ RELEASED (state freed now)         │   within ttl)
//!                      │                                    │
//!                      └────────────────────────────────────┘
//!                                         │ ttl elapsed
//!                                         ▼
//!                                     RECLAIMED (pending commits freed;
//!                                     a late reconnect gets resumed=false
//!                                     and the client aborts with
//!                                     TransportError::LeaseLost)
//! ```
//!
//! Expiry is only enforced while a session is *disconnected*: a slow round
//! on a healthy connection never loses its lease, while a dead client's
//! socket closes with its process and starts the countdown.  Reconnects
//! within the ttl resume the exact owner state — the commit sequence
//! deduplication and advance replay that make retransmission idempotent
//! also make resumption exact.

use crate::proto::{OwnerSlice, ShardMap, MAX_LEASE_SHARDS};
use crate::remote::owner_range;
use crate::transport::dispatch::Worker;
use crate::transport::{read_lease_frame, LeaseFrame, ServeHandoff, TcpServer};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll interval of the acceptor's nonblocking accept loop (also bounds
/// shutdown latency).
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Cap on concurrently in-flight handshake threads.  Each lives at most the
/// handshake timeout, so this bounds the thread cost of a pre-lease
/// connection flood; connections arriving beyond the cap are dropped, and a
/// legitimate client simply reconnects with backoff once the flood drains.
const MAX_INFLIGHT_HANDSHAKES: usize = 64;

/// This process's place in a DDS cluster: owner `node` of the topology
/// whose advertised endpoints are `peers` (indexed by node, every owner
/// passes the identical list).  The role only decides the [`ShardMap`]
/// every lease grant advertises; which shards a session holds comes from
/// the lease, like any serving process's (see `spawn_session`).
#[derive(Clone, Debug)]
pub struct ClusterRole {
    /// This owner's index into `peers`.
    pub node: usize,
    /// Every owner's client-reachable endpoint, in node order.
    pub peers: Vec<String>,
    /// Stamp on the advertised [`ShardMap`]; all owners of one topology
    /// must advertise the same stamp.
    pub map_epoch: u64,
}

impl ClusterRole {
    /// The shard map this topology advertises for a `num_shards`-shard
    /// session: peer `i`'s slice is its [`owner_range`], in node order.
    pub fn shard_map(&self, num_shards: usize) -> ShardMap {
        let n = self.peers.len();
        ShardMap {
            epoch: self.map_epoch,
            owners: self
                .peers
                .iter()
                .enumerate()
                .map(|(i, endpoint)| {
                    let shards = owner_range(i, n, num_shards);
                    OwnerSlice {
                        endpoint: endpoint.clone(),
                        start: shards.start as u64,
                        end: shards.end as u64,
                    }
                })
                .collect(),
        }
    }
}

/// One owner session: the mailbox feeding its serve thread new
/// (re)connections, plus liveness for reaping.
struct SessionEntry {
    streams: Sender<ServeHandoff>,
    alive: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

type SessionMap = HashMap<(u64, u64), SessionEntry>;

/// A running DDS owner process: accepts leased connections and serves each
/// `(session, worker)` pair with its own `transport::dispatch::Worker`.
///
/// Created by [`serve`]; dropped or [`DdsServer::shutdown`] stops accepting
/// new connections and reaps finished sessions (sessions still serving a
/// live client keep running on their own threads until that client says
/// goodbye or its lease expires).
pub struct DdsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    sessions: Arc<Mutex<SessionMap>>,
    acceptor: Option<JoinHandle<()>>,
}

/// Bind `addr` and start serving DDS sessions on a background acceptor
/// thread.  Bind to port 0 for an ephemeral port and read it back with
/// [`DdsServer::local_addr`].
pub fn serve(addr: impl ToSocketAddrs) -> io::Result<DdsServer> {
    serve_on(TcpListener::bind(addr)?, None)
}

/// Bind `addr` and serve as owner `node` of the cluster whose endpoints are
/// `peers` (node-indexed; every owner passes the identical list).  Each
/// lease grant carries the cluster's shard map so clients can discover the
/// topology from any single owner.
pub fn serve_cluster(
    addr: impl ToSocketAddrs,
    node: usize,
    peers: Vec<String>,
) -> io::Result<DdsServer> {
    serve_cluster_listener(TcpListener::bind(addr)?, node, peers)
}

/// [`serve_cluster`] on a pre-bound listener — for spawners that must bind
/// every owner's ephemeral port *before* any peer list can be written down.
pub fn serve_cluster_listener(
    listener: TcpListener,
    node: usize,
    peers: Vec<String>,
) -> io::Result<DdsServer> {
    if node >= peers.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cluster node {node} out of range for {} peers", peers.len()),
        ));
    }
    serve_on(
        listener,
        Some(ClusterRole {
            node,
            peers,
            map_epoch: 1,
        }),
    )
}

fn serve_on(listener: TcpListener, role: Option<ClusterRole>) -> io::Result<DdsServer> {
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let sessions: Arc<Mutex<SessionMap>> = Arc::new(Mutex::new(HashMap::new()));
    let acceptor = {
        let stop = stop.clone();
        let sessions = sessions.clone();
        std::thread::Builder::new()
            .name("dds-serve-acceptor".to_string())
            .spawn(move || accept_loop(listener, stop, sessions, role))?
    };
    Ok(DdsServer {
        addr,
        stop,
        sessions,
        acceptor: Some(acceptor),
    })
}

impl DdsServer {
    /// The address the server is accepting on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions whose owner threads are currently alive (granted or
    /// expiring; released/reclaimed sessions are reaped lazily).
    pub fn active_sessions(&self) -> usize {
        self.sessions
            .lock()
            .values()
            .filter(|entry| entry.alive.load(Ordering::Relaxed))
            .count()
    }

    /// Stop accepting new connections and reap every finished session.
    ///
    /// Sessions still serving a live client are left running detached —
    /// they end when their client says goodbye or their lease expires; a
    /// serving process being torn down hard (SIGKILL, container stop) ends
    /// them with the process, which is exactly the fault the client-side
    /// reconnect machinery absorbs.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let mut sessions = self.sessions.lock();
        for (_, mut entry) in sessions.drain() {
            // Dropping the sender wakes a disconnected session out of its
            // mailbox wait; a finished one joins instantly.  Sessions bound
            // to a live socket are detached (see `shutdown`).
            if !entry.alive.load(Ordering::Relaxed) {
                if let Some(handle) = entry.handle.take() {
                    let _ = handle.join();
                }
            }
        }
    }
}

impl Drop for DdsServer {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

impl std::fmt::Debug for DdsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DdsServer")
            .field("addr", &self.addr)
            .field("active_sessions", &self.active_sessions())
            .finish()
    }
}

/// The accept loop: hand each connection to a short-lived handshake thread
/// that lease-validates it and routes it to its `(session, worker)` owner,
/// spawning the owner on first contact.  The handshake runs off the
/// acceptor so a wedged pre-lease connection (port scanner, half-open
/// socket) stalls nobody but itself — the handshake read timeout bounds
/// each thread's lifetime.
fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    sessions: Arc<Mutex<SessionMap>>,
    role: Option<ClusterRole>,
) {
    let inflight = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Accepted sockets must block — some platforms inherit the
                // listener's nonblocking flag, which would turn every
                // handshake read into an instant WouldBlock.
                if stream.set_nonblocking(false).is_err() {
                    continue; // unconfigurable socket: drop it
                }
                if inflight.fetch_add(1, Ordering::Relaxed) >= MAX_INFLIGHT_HANDSHAKES {
                    inflight.fetch_sub(1, Ordering::Relaxed);
                    continue; // handshake flood: shed this connection
                }
                let guard = InflightGuard(inflight.clone());
                let sessions = sessions.clone();
                let role = role.clone();
                let handshake = std::thread::Builder::new()
                    .name("dds-serve-handshake".to_string())
                    .spawn(move || {
                        let _guard = guard;
                        if let Some(lease) = read_lease_frame(&stream) {
                            route(&sessions, stream, lease, &role);
                        } // else: not a protocol client; drop it
                    });
                drop(handshake); // detached; lifetime bounded by the timeout
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                reap(&sessions);
                #[allow(
                    clippy::disallowed_methods,
                    reason = "accept-loop idle poll: bounded by ACCEPT_POLL and only taken when no connection is pending; per-connection serving happens on other threads"
                )]
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break, // listener broken: stop serving
        }
    }
}

/// Decrements the in-flight handshake count when its thread ends, however
/// it ends (spawn failure drops the guard immediately).
struct InflightGuard(Arc<std::sync::atomic::AtomicUsize>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Hand a lease-validated connection to its session owner, spawning the
/// owner thread if these coordinates are new (or were reclaimed).
fn route(
    sessions: &Arc<Mutex<SessionMap>>,
    stream: TcpStream,
    lease: LeaseFrame,
    role: &Option<ClusterRole>,
) {
    let key = (lease.session, lease.worker);
    let mut handoff = ServeHandoff {
        stream,
        session: lease.session,
        ttl_ms: lease.ttl_ms,
    };
    let stale;
    {
        let mut sessions = sessions.lock();
        if let Some(entry) = sessions.get(&key) {
            if entry.alive.load(Ordering::Relaxed) {
                match entry.streams.send(handoff) {
                    Ok(()) => return, // resumed: the owner adopts the reconnect
                    Err(std::sync::mpsc::SendError(returned)) => handoff = returned,
                }
            }
            // The owner exited (goodbye or expiry) between reaps: reclaim
            // the slot and start the session fresh.  A reconnecting client
            // sees the fresh session's `resumed = false` grant and aborts
            // with the typed `TransportError::LeaseLost` — exactly the
            // reclaim semantics.
            stale = sessions.remove(&key);
        } else {
            stale = None;
        }
        // Spawning stays under the lock — it is microseconds, and it keeps
        // two concurrent handshakes for the same coordinates from racing
        // their owners.
        spawn_session(&mut sessions, key, &lease, role);
        if let Some(entry) = sessions.get(&key) {
            let _ = entry.streams.send(handoff);
        }
    }
    // Joining the dead owner's thread happens outside the lock: teardown
    // must stall neither concurrent handshakes nor the acceptor's reap.
    if let Some(entry) = stale {
        join_finished(entry);
    }
}

/// Spawn the owner thread of a brand-new session.  The lease's topology
/// places it: connection `worker` of `workers` holds [`owner_range`] of the
/// lease's `num_shards`, in cluster mode too, so a client may list a
/// cluster's endpoints in any order.  A cluster role adds only the shard
/// map every grant carries for that size.
fn spawn_session(
    sessions: &mut SessionMap,
    key: (u64, u64),
    lease: &LeaseFrame,
    role: &Option<ClusterRole>,
) {
    let num_shards = (lease.num_shards as usize).max(1);
    // Bounded like the shard count, so the placement's products stay small
    // whatever a hostile lease announces.
    let workers = lease.workers.clamp(1, MAX_LEASE_SHARDS) as usize;
    let worker = (lease.worker as usize).min(workers - 1);
    let shards = owner_range(worker, workers, num_shards);
    let shard_map = role.as_ref().map(|role| role.shard_map(num_shards));
    let (tx, rx) = channel::<ServeHandoff>();
    let alive = Arc::new(AtomicBool::new(true));
    let thread_alive = alive.clone();
    let handle = std::thread::Builder::new()
        .name(format!("dds-serve-{:x}-{}", key.0, key.1))
        .spawn(move || {
            // Clear the liveness flag even if the owner panics on a
            // protocol violation, so the slot can be reclaimed.
            struct AliveGuard(Arc<AtomicBool>);
            impl Drop for AliveGuard {
                fn drop(&mut self) {
                    self.0.store(false, Ordering::Relaxed);
                }
            }
            let _guard = AliveGuard(thread_alive);
            let mut server = TcpServer::from_mailbox(rx, worker).with_shard_map(shard_map);
            Worker::new(shards).serve(&mut server);
        });
    match handle {
        Ok(handle) => {
            sessions.insert(
                key,
                SessionEntry {
                    streams: tx,
                    alive,
                    handle: Some(handle),
                },
            );
        }
        Err(_) => drop(tx), // spawn failed: the client will retry and error
    }
}

/// Reap sessions whose owner threads have finished (goodbye or expiry).
/// Entries are unlinked under the lock, joined outside it — see `route`.
fn reap(sessions: &Arc<Mutex<SessionMap>>) {
    let finished: Vec<SessionEntry> = {
        let mut sessions = sessions.lock();
        let keys: Vec<(u64, u64)> = sessions
            .iter()
            .filter(|(_, entry)| !entry.alive.load(Ordering::Relaxed))
            .map(|(&key, _)| key)
            .collect();
        keys.into_iter()
            .filter_map(|key| sessions.remove(&key))
            .collect()
    };
    for entry in finished {
        join_finished(entry);
    }
}

fn join_finished(mut entry: SessionEntry) {
    if let Some(handle) = entry.handle.take() {
        // The owner may have panicked on a protocol violation; the panic
        // already ended the session, nothing to propagate here.
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::disallowed_methods,
        reason = "tests pace races with short sleeps; the discipline only binds the serve path"
    )]

    use super::*;
    use crate::backend::DdsBackend;
    use crate::key::{Key, KeyTag, Value};
    use crate::proto::{decode_reply, encode_request, read_frame, write_frame, Reply, Request};
    use crate::TcpBackend;
    use std::io::Write;

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    fn lease_frame(session: u64, worker: u64, ttl_ms: u64) -> Request {
        Request::Lease {
            session,
            worker,
            num_shards: 4,
            workers: 1,
            ttl_ms,
        }
    }

    fn send_request(stream: &mut TcpStream, request: &Request) {
        write_frame(stream, &encode_request(request)).unwrap();
        stream.flush().unwrap();
    }

    fn read_reply(stream: &mut TcpStream) -> Reply {
        let mut payload = Vec::new();
        read_frame(stream, &mut payload).unwrap();
        decode_reply(&payload).unwrap()
    }

    #[test]
    fn serve_hosts_isolated_concurrent_sessions() {
        let server = serve(("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr();

        let mut alpha = TcpBackend::connect_remote(addr, 8, 2).unwrap();
        let mut beta = TcpBackend::connect_remote(addr, 8, 2).unwrap();

        alpha.commit_round(
            vec![(0..20u64).map(|i| (k(i), Value::scalar(i))).collect()],
            1,
        );
        beta.commit_round(vec![vec![(k(1), Value::scalar(999))]], 1);
        let alpha_view = alpha.advance(1);
        let beta_view = beta.advance(1);

        // Sessions are fully isolated: same keys, different stores.
        assert_eq!(alpha_view.get(&k(1)), Some(Value::scalar(1)));
        assert_eq!(beta_view.get(&k(1)), Some(Value::scalar(999)));
        assert_eq!(alpha_view.len(), 20);
        assert_eq!(beta_view.len(), 1);
        assert_eq!(alpha.total_writes(), 20);
        assert_eq!(beta.total_writes(), 1);
        assert_eq!(server.active_sessions(), 4, "2 clients × 2 workers");

        // Goodbyes release sessions immediately (no lease wait).
        drop(alpha);
        drop(beta);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.active_sessions() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.active_sessions(), 0);
        server.shutdown();
    }

    #[test]
    fn reconnect_within_ttl_resumes_owner_state() {
        let server = serve(("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr();
        let session = 0xdead_beef;

        // First connection: lease, commit 3 pairs, then vanish abruptly
        // (no goodbye).
        let mut first = TcpStream::connect(addr).unwrap();
        send_request(&mut first, &lease_frame(session, 0, 60_000));
        assert_eq!(
            read_reply(&mut first),
            Reply::LeaseGranted {
                session,
                ttl_ms: 60_000,
                resumed: false,
                shard_map: None
            }
        );
        send_request(
            &mut first,
            &Request::Commit {
                epoch: 0,
                seq: 7,
                batches: vec![(0, vec![(k(1), Value::scalar(1)), (k(2), Value::scalar(2))])],
            },
        );
        assert_eq!(
            read_reply(&mut first),
            Reply::Committed {
                epoch: 0,
                accepted: 2
            }
        );
        first.shutdown(std::net::Shutdown::Both).unwrap();
        drop(first);

        // Reconnect within the lease: the grant reports resumption, the
        // replayed commit (same seq) is re-acked without re-applying, and
        // the owner's state is intact.
        let mut second = TcpStream::connect(addr).unwrap();
        send_request(&mut second, &lease_frame(session, 0, 60_000));
        assert_eq!(
            read_reply(&mut second),
            Reply::LeaseGranted {
                session,
                ttl_ms: 60_000,
                resumed: true,
                shard_map: None
            }
        );
        send_request(
            &mut second,
            &Request::Commit {
                epoch: 0,
                seq: 7,
                batches: vec![(0, vec![(k(1), Value::scalar(1)), (k(2), Value::scalar(2))])],
            },
        );
        assert_eq!(
            read_reply(&mut second),
            Reply::Committed {
                epoch: 0,
                accepted: 2
            },
            "the replayed commit must be re-acked, not re-applied"
        );
        send_request(&mut second, &Request::TotalWrites);
        assert_eq!(
            read_reply(&mut second),
            Reply::TotalWrites(2),
            "exactly-once application across the reconnect"
        );
        send_request(&mut second, &Request::Goodbye);
        server.shutdown();
    }

    #[test]
    fn expired_leases_reclaim_the_session() {
        let server = serve(("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr();
        let session = 0x5e55;

        let mut first = TcpStream::connect(addr).unwrap();
        send_request(&mut first, &lease_frame(session, 0, 50));
        assert!(matches!(
            read_reply(&mut first),
            Reply::LeaseGranted { resumed: false, .. }
        ));
        send_request(
            &mut first,
            &Request::Commit {
                epoch: 0,
                seq: 1,
                batches: vec![(0, vec![(k(9), Value::scalar(9))])],
            },
        );
        let _ = read_reply(&mut first);
        first.shutdown(std::net::Shutdown::Both).unwrap();
        drop(first);

        // Wait out the 50 ms lease: the owner thread must exit and the
        // session be reaped.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.active_sessions() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.active_sessions(), 0, "expiry must reclaim");

        // A late reconnect gets a fresh session — resumed=false tells the
        // client its pending commits are gone (TransportError::LeaseLost
        // at the transport layer).
        let mut late = TcpStream::connect(addr).unwrap();
        send_request(&mut late, &lease_frame(session, 0, 50));
        assert!(matches!(
            read_reply(&mut late),
            Reply::LeaseGranted { resumed: false, .. }
        ));
        send_request(&mut late, &Request::TotalWrites);
        assert_eq!(
            read_reply(&mut late),
            Reply::TotalWrites(0),
            "reclaimed sessions start from scratch"
        );
        send_request(&mut late, &Request::Goodbye);
        server.shutdown();
    }

    #[test]
    fn expiry_never_races_a_pipelined_burst_on_a_live_connection() {
        let server = serve(("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr();
        let session = 0xb0257;

        // A lease far shorter than the time this burst takes to be applied,
        // acknowledged and read back.  The countdown starts at *disconnect*,
        // never while the socket is up — not even while replies are still
        // being flushed toward a client that has not read them yet.
        let mut stream = TcpStream::connect(addr).unwrap();
        send_request(&mut stream, &lease_frame(session, 0, 50));
        assert!(matches!(
            read_reply(&mut stream),
            Reply::LeaseGranted { resumed: false, .. }
        ));

        const BURST: u64 = 32;
        for seq in 0..BURST {
            send_request(
                &mut stream,
                &Request::Commit {
                    epoch: 0,
                    seq,
                    batches: vec![(0, vec![(k(seq), Value::scalar(seq))])],
                },
            );
        }
        // Dwell several lease lifetimes with every ack unread: the replies
        // sit flushed in the socket while the connection idles.
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(
            server.active_sessions(),
            1,
            "a live connection must never be reclaimed, pipelined or idle"
        );
        for _ in 0..BURST {
            assert!(matches!(read_reply(&mut stream), Reply::Committed { .. }));
        }
        send_request(&mut stream, &Request::TotalWrites);
        assert_eq!(
            read_reply(&mut stream),
            Reply::TotalWrites(BURST),
            "every pipelined commit must be applied exactly once"
        );
        send_request(&mut stream, &Request::Goodbye);
        server.shutdown();
    }

    #[test]
    fn mid_stream_renewal_refreshes_the_ttl_and_reports_resumed() {
        let server = serve(("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr();
        let session = 0x001e_a5ed;

        let mut stream = TcpStream::connect(addr).unwrap();
        send_request(&mut stream, &lease_frame(session, 0, 60_000));
        assert!(matches!(
            read_reply(&mut stream),
            Reply::LeaseGranted { resumed: false, .. }
        ));
        send_request(
            &mut stream,
            &Request::Commit {
                epoch: 0,
                seq: 1,
                batches: vec![(0, vec![(k(3), Value::scalar(3))])],
            },
        );
        let _ = read_reply(&mut stream);

        // An explicit renewal on the live connection: the grant reports
        // `resumed = true` (the session's state is by definition intact
        // mid-stream) and carries the refreshed ttl; the owner keeps
        // serving with its state untouched.
        send_request(&mut stream, &lease_frame(session, 0, 120_000));
        assert_eq!(
            read_reply(&mut stream),
            Reply::LeaseGranted {
                session,
                ttl_ms: 120_000,
                resumed: true,
                shard_map: None
            }
        );
        send_request(&mut stream, &Request::TotalWrites);
        assert_eq!(read_reply(&mut stream), Reply::TotalWrites(1));
        send_request(&mut stream, &Request::Goodbye);
        server.shutdown();
    }

    /// A lease's `num_shards` sizes the owner it spawns — one map per
    /// shard, and a cluster node multiplies by it first — so a hostile
    /// count is refused where garbage handshakes are: the connection is
    /// dropped, nothing is granted, no owner is spawned.  (Unchecked, the
    /// 8 TiB the first lease asks for takes this whole process down, and
    /// the second overflows the placement's range arithmetic.)
    #[test]
    fn hostile_lease_shard_counts_are_refused_at_the_handshake() {
        let standalone = serve(("127.0.0.1", 0)).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let peers = vec![listener.local_addr().unwrap().to_string()];
        let node = serve_cluster_listener(listener, 0, peers.clone()).unwrap();
        for server in [&standalone, &node] {
            for num_shards in [1 << 40, u64::MAX] {
                let mut stream = TcpStream::connect(server.local_addr()).unwrap();
                let lease = Request::Lease {
                    session: 0xbad,
                    worker: 0,
                    num_shards,
                    workers: 1,
                    ttl_ms: 0,
                };
                send_request(&mut stream, &lease);
                let refused = read_frame(&mut stream, &mut Vec::new()).unwrap_err();
                assert_eq!(refused.kind(), io::ErrorKind::UnexpectedEof, "no grant");
                assert_eq!(server.active_sessions(), 0, "no owner");
            }
        }
        // Both roles still serve a legitimate client afterwards.
        let remote = TcpBackend::connect_remote(standalone.local_addr(), 2, 1).unwrap();
        let cluster = TcpBackend::connect_cluster(&peers, 4).unwrap();
        for mut backend in [remote, cluster] {
            backend.commit_round(vec![vec![(k(1), Value::scalar(1))]], 1);
            assert_eq!(backend.advance(1).get(&k(1)), Some(Value::scalar(1)));
        }
        standalone.shutdown();
        node.shutdown();
    }

    #[test]
    fn garbage_connections_do_not_stall_the_acceptor() {
        let server = serve(("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr();
        // A connection that never sends a lease is dropped on handshake
        // timeout; a real client connecting afterwards is served normally.
        let _garbage = TcpStream::connect(addr).unwrap();
        let mut backend = TcpBackend::connect_remote(addr, 2, 1).unwrap();
        backend.commit_round(vec![vec![(k(1), Value::scalar(1))]], 1);
        let view = backend.advance(1);
        assert_eq!(view.get(&k(1)), Some(Value::scalar(1)));
        drop(backend);
        server.shutdown();
    }
}
