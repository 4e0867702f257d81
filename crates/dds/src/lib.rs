//! # ampc-dds — Distributed Data Store substrate for the AMPC model
//!
//! The AMPC model (Behnezhad et al., SPAA 2019) extends MPC by writing every
//! message produced in round *i* into a **distributed data store** `D_i`.
//! In round *i + 1* all machines get random *read* access to `D_i`, and the
//! keys a machine reads may depend on the values returned by its earlier
//! reads in the same round ("adaptivity").
//!
//! This crate implements the data-store side of that model as an in-process,
//! sharded, epoch-versioned key-value store:
//!
//! * [`Key`] / [`Value`] — constant-size key-value pairs, exactly as the model
//!   requires (both consist of a constant number of machine words).
//! * [`ShardedStore`] — the *writable* store for the current round.  Writes
//!   are hashed to one of `P` shards; every shard counts the writes it took
//!   and, once frozen, the reads it served, so that the contention analysis
//!   of the paper (Lemma 2.1) can be validated empirically.
//! * [`Snapshot`] — an immutable, read-only view of a completed round, and
//!   the **one view type** every backend serves: a cheap-clone handle over
//!   one [`FrozenEpoch`] per owner group.  Machines in round *i* read from
//!   the snapshot of `D_{i-1}`; the snapshot never changes while a round is
//!   in flight, which is exactly the property the paper's fault-tolerance
//!   argument relies on.
//! * [`DdsChain`] — the sequence `D_0, D_1, …` of stores produced by a run.
//! * [`backend`] — the [`SnapshotView`] / [`DdsBackend`] trait pair that
//!   makes the store surface pluggable.  There is one view, one wire
//!   client, and any number of owners: [`LocalBackend`] wraps the chain
//!   above (one group, frozen in process), and [`RemoteBackend`] is the only
//!   client of the message-passing wire protocol (see below) —
//!   [`ChannelBackend`] over in-process channels, [`TcpBackend`] over
//!   sockets to owner threads (interleaved, or a local cluster of
//!   contiguous ranges), one serving process, or a cluster of N.
//! * [`contention`] — the weighted balls-into-bins experiment behind
//!   Lemma 2.1 of the paper.
//!
//! # Epoch lifecycle: freeze → publish → read
//!
//! An epoch moves through three stages.  Round *i* only writes `D_i` and
//! round *i + 1* only reads it, so a shard has one layout for each side
//! ([`slot`], the one module that knows both):
//!
//! 1. **Accumulate = append** — machines buffer writes; the runtime's
//!    commit partitions them by destination shard into exact-size buckets,
//!    and each writable shard — its pairs in commit order — takes its
//!    bucket as it is, or appends it ([`ShardedStore::commit_partitioned`];
//!    an owner appends a `Commit`'s pairs the same way).  Nothing is hashed
//!    into a table or looked up while a round is written.
//! 2. **Freeze = group by bucket** — [`ShardedStore::freeze`] lays each
//!    shard's pairs out by the directory bucket of their key's digest, in
//!    one stable counting sort, so each key's values are one contiguous
//!    run in commit order (the multi-value index order), under a bucket
//!    directory of `u16` offsets (`u32` past `u16::MAX` pairs).  Shards
//!    are frozen in parallel for large epochs;
//!    retiring an epoch later is two frees per shard.
//! 3. **Publish & serve** — the frozen shards are immutable from here on,
//!    so they are published as [`FrozenEpoch`]s behind `Arc`s and served
//!    lock-free through a [`Snapshot`] (cloned to every machine thread).
//!    On [`LocalBackend`] the snapshot holds the store's single group; on
//!    [`ChannelBackend`] each owner thread hands its frozen shard group's
//!    `Arc` to the backend in its `Advance` reply, so point and batched
//!    reads resolve against the shared shards with **zero channel
//!    traffic** — only commits, advances, and driver-side loads/dumps
//!    remain message-passing; on [`TcpBackend`] the epoch crosses the wire
//!    in one pass each way — the owner encodes the payload straight from
//!    its frozen shards, in layout order, and the client appends the pairs
//!    straight into a replica, which then freezes without a copy
//!    (validated as it goes: every count against the bytes present, no
//!    entry without values, no key twice in a shard, the owner's share of
//!    shards) — so every transport answers an advance with a
//!    ready-to-read [`FrozenEpoch`].  Reads are counted in per-shard
//!    atomics inside the published epoch, keeping the Lemma 2.1
//!    contention accounting observable from both sides.
//!
//! Views hand-for-hand outlive the stores that made them: a snapshot taken
//! at epoch `i` stays valid and byte-identical across later epochs and
//! after its backend is dropped (pinned by `tests/backend_conformance.rs`).
//!
//! # The wire protocol
//!
//! The write-side backend surface is small enough to be a *network
//! protocol*, and since the transport split it literally is one, layered in
//! three modules:
//!
//! * [`proto`] — the protocol as data: serializable [`proto::Request`] /
//!   [`proto::Reply`] types (`Commit` / `Advance` / `Loads` / `Dump` /
//!   `TotalWrites`), a byte codec built on a constant-size pair encoding
//!   (20-byte keys, 16-byte values), the epoch payload that carries frozen
//!   shards across a process boundary — one writer and one parser, each
//!   with a frozen-shard end (the serving path: frozen shards to bytes to
//!   frozen shards, nothing allocated per key) and a typed end
//!   ([`proto::EpochFrame`], the same
//!   bytes as plain data for tools and tests) — and length-prefixed
//!   framing with a hard size cap that refuses typed, on the side that
//!   would have produced the frame.
//! * [`transport`] — one connection between a backend and one shard-group
//!   owner, itself split into three layers: `transport::codec` (framing
//!   over reused buffers — zero steady-state allocations, and one socket
//!   call per *burst* of small frames at every end of the serve path), the
//!   session layer (the
//!   [`Transport`] / [`transport::ServerTransport`] trait pair, with
//!   [`MpscTransport`] — typed in-process channels, zero-copy `Arc` epoch
//!   publication — and [`TcpTransport`] — localhost sockets speaking the
//!   codec — shipping in-tree), and `transport::dispatch` (the owner state
//!   machine with the idempotency that makes replay safe).  The TCP path is
//!   **pipelined**: a client may keep up to a window of requests in flight
//!   per socket, and the server runs each connection as reader → dispatch →
//!   writer stages, decoding ahead of the request being applied and
//!   sending replies behind it (bounded at
//!   [`transport::PIPELINE_DEPTH`] frames per stage queue; replies stay
//!   strictly FIFO with requests).  Transports also honor request-level
//!   fault injection ([`RequestFaults`]: scheduled drop-then-retry and
//!   connection severs) and turn dead peers into typed [`TransportError`]s
//!   instead of hangs.
//! * [`remote`] — the one client of the protocol: [`RemoteBackend`]`<T>`
//!   drives any transport, and any number of owners, behind the
//!   [`DdsBackend`] surface; the owner loop is transport-generic, and every
//!   owner a backend spawns is a thread it joins.  [`ChannelBackend`] is
//!   `RemoteBackend<MpscTransport>`, [`TcpBackend`] is
//!   `RemoteBackend<TcpTransport>`, and the conformance + determinism
//!   suites hold both (and [`LocalBackend`]) to byte-identical behaviour.
//! * [`serve`] — the standalone owner *process*: [`DdsServer`] accepts any
//!   number of concurrent leased [`TcpBackend`] clients, each
//!   `(session, worker)` pair served by its own isolated owner
//!   (`quickstart --serve` / `--connect` runs it end to end).
//! * [`cluster`] — the cluster topology: how [`TcpBackend`] reaches owner
//!   processes, one ([`RemoteBackend::connect_remote`]) or a cluster of N
//!   ([`RemoteBackend::connect_cluster`]), and how it spawns a local
//!   cluster of owner threads ([`RemoteBackend::spawn_local`]).
//!
//! Reads never touch the wire: every view holds the frozen epoch locally
//! (shared `Arc` or fetched replica) and probes it lock-free, so the
//! protocol carries only the write-side and driver-side traffic — exactly
//! the deployment shape the paper assumes for its RDMA/Bigtable-style DHT.
//!
//! # Connection lifecycle: leases, reconnect, replay
//!
//! The store, not the workers, owns liveness.  Every TCP connection opens
//! with a [`proto::Request::Lease`] naming `(session, worker)`; the owner
//! answers [`proto::Reply::LeaseGranted`] and from then on runs the lease
//! state machine *grant → (implicit) renew → expire → reclaim* — expiry
//! counts down only while the session is **disconnected**, so a slow round
//! on a healthy socket never loses its lease, while a dead client's session
//! is reclaimed (pending commits freed) once its ttl elapses.  The client
//! side heals transparently: any socket failure triggers reconnect with
//! capped exponential backoff, a replayed lease handshake ([`TcpOptions`]),
//! and in-order replay of every request still awaiting a reply — the whole
//! pipeline of them, under pipelining.  Replay is safe because every
//! request is idempotent at the owner — `Commit` is deduplicated over a
//! window of recent sequence numbers deep enough to absorb a full replayed
//! pipeline, `Advance` re-publishes the already-frozen epoch,
//! `Loads`/`Dump`/`TotalWrites` are pure reads.  A clean shutdown drains
//! both sides before the goodbye releases the lease, and expiry never
//! counts down against a connected client, even one whose pipelined
//! replies are still being flushed.  A reconnect that finds its session
//! reclaimed surfaces as the typed [`TransportError::LeaseLost`].  The
//! full state machine is drawn in [`serve`], the client policy and
//! pipelining semantics in [`transport`]; `tests/reconnect.rs` proves
//! mid-round severs — including severs with a full pipeline outstanding —
//! heal byte-identically across thread counts.
//!
//! # Cluster topology
//!
//! One serving process scales to many clients; a cluster scales the store
//! itself to many owners.  A cluster is `N` owners, each owning a
//! **contiguous shard range** (`[i·S/N, (i+1)·S/N)` for owner `i` of `N`
//! over `S` shards — empty when `N > S`): owner processes started with
//! [`serve_cluster`], or the owner threads of a local cluster
//! ([`TcpBackend::spawn_local`], the `cluster` backend kind).  Either way
//! the client discovers them through the **shard-map handshake**: every
//! lease grant carries the cluster's epoch-stamped [`proto::ShardMap`]
//! (owner endpoints × shard ranges), and the client validates that all
//! owners advertise the identical contiguous map before routing a single
//! request.  `N` is a run-time number bounded only by that map; `N = 1` is
//! the remote backend.  The client is the same
//! [`RemoteBackend`] that talks to owner threads: commits route through one
//! shard → (owner, local shard) table, `Loads` / `TotalWrites` / `Dump` fan
//! out and aggregate, and what the grants carried decides the rest — owners
//! that advertised a map are placed by range and advanced through the
//! barrier below, owners that advertised none are placed by stride and
//! take the one-shot `Advance`.
//!
//! Epoch advance is the one step that must be atomic *across* processes,
//! and becomes a client-coordinated **two-phase barrier**: phase 1 sends
//! [`proto::Request::FreezeEpoch`] to every owner — each parks its
//! writable epoch as *prepared*, invisible to `Loads`/`Dump`, while
//! already accepting the next epoch's commits — and only after **all**
//! freeze acks does phase 2 send [`proto::Request::PublishEpoch`], so no
//! client can ever observe a mixed epoch.  Both phases follow the same
//! **per-owner replay rules** as every other request: a freeze replayed
//! after reconnect re-acks the prepared epoch, a publish replayed after
//! reconnect re-publishes the identical frozen data (a
//! prepared-but-unpublished epoch survives in the owner's session state),
//! and commit retransmissions are deduplicated per `(session, worker)`
//! window so concurrent clients of one owner cannot evict each other's
//! replay state.  `cluster(n)` legs of the conformance, determinism, and
//! reconnect suites hold the whole construction byte-identical to the
//! single-process backends, including with an owner severed mid-barrier.
//!
//! # Machine-checked invariants
//!
//! Several of the guarantees above span files.  Each is held by the
//! strongest checker the toolchain already has, beside the code it
//! constrains, on every `cargo build` / `cargo clippy` — there is no linter
//! of our own to run or to keep in step:
//!
//! | invariant | checker |
//! |---|---|
//! | every [`proto::Request`] has a dispatch arm, a kind, a declared [`proto::ReplayPolicy`], an encoder arm, a decoder arm, and says whether the fault schedule can address it | **E0004** (non-exhaustive patterns): `Worker::handle`, `Request::kind`, [`proto::RequestKind::replay_policy`], `encode_request_into`, `decode_request`, `decode_reply_as` and `fault_coordinates` are `match`es without a wildcard, and `#[deny(unreachable_patterns, clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]` on exactly those functions keeps one from being added (clippy files a wildcard that hides exactly one variant under the third name, any other under the second) |
//! | wire tags are unique per direction, and a request cannot exist without one | **E0081** (duplicate discriminant): the tags *are* the discriminants of `#[repr(u8)]` [`proto::RequestKind`] and of the private `ReplyTag`; the encoder writes `request.kind() as u8` |
//! | a kind is classified exactly once, under a policy that exists | E0004 / unreachable pattern / E0599 on `RequestKind::replay_policy` — "every request is idempotent at the owner" is a checked claim, not a comment |
//! | no reply layout is written or parsed outside `proto.rs` | **E0603** (private item): `ReplyTag` cannot be named from another module |
//! | inside `proto.rs` the epoch payload — one layout, two in-memory forms — has one writer and one parser | the one rule with no type-level form: the unit test `the_epoch_payload_has_one_writer_and_one_parser` over `include_str!("proto.rs")` |
//! | the wire numbers are the deployed ones (both ends renumbering together would pass every round trip) | the golden test `wire_tags_are_the_deployed_numbers` |
//! | the commit dedup window covers a fully replayed pipeline plus the traffic behind it (`COMMIT_REPLAY_WINDOW ≥ 2 × PIPELINE_DEPTH`, `≥ MAX_PIPELINE`) | a **`const` assertion** beside the window in `transport::dispatch` |
//! | the frame pool retains nothing larger than a legal frame | by construction: `transport::codec` compares against [`proto::MAX_FRAME_BYTES`] itself |
//! | non-test code in `ampc-dds` and `ampc-runtime` does not `unwrap()` / `expect(…)` / `panic!` unexplained (`todo!` / `unimplemented!` are denied workspace-wide) | **`clippy::unwrap_used`**, **`clippy::expect_used`**, **`clippy::panic`**, denied at both crate roots; test code is exempt (`clippy.toml`).  Intentional panics — owner-side protocol violations harvested into [`TransportError::PeerClosed`], provably-infallible conversions — carry `#[allow(clippy::…, reason = "…")]` |
//! | an allow without a reason is itself a finding | **`clippy::allow_attributes_without_reason`**, denied at both crate roots |
//! | no `thread::sleep` and no unbounded `read_to_end` / `read_to_string` anywhere in the workspace outside annotated, bounded waits | `clippy::disallowed_methods` (`clippy.toml`) |
//! | no decoder panics, overflows, over-allocates, or accepts a second spelling of a message, on any bytes | the decode mutation loop in `proto.rs`, run under the `release-checked` profile by CI |

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

pub mod backend;
pub mod cluster;
pub mod contention;
/// The unit tests' allocator: the counting shim `tests/framing_alloc.rs`
/// runs under, so `proto.rs` can hold its decoders to an allocation budget.
#[cfg(test)]
#[path = "../tests/counting_alloc/mod.rs"]
mod counting_alloc;
pub mod epoch;
pub mod hashing;
pub mod key;
pub mod proto;
pub mod remote;
pub mod serve;
mod slot;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod transport;

pub use backend::{DdsBackend, LocalBackend, SnapshotView};
pub use contention::{simulate_balls_into_bins, BallsInBinsReport};
pub use epoch::DdsChain;
pub use hashing::{FxBuildHasher, FxHashMap, FxHashSet};
pub use key::{Key, KeyTag, Value};
pub use remote::{ChannelBackend, RemoteBackend, TcpBackend};
pub use serve::{serve, serve_cluster, ClusterRole, DdsServer};
pub use snapshot::{FrozenEpoch, Snapshot};
pub use stats::{ShardLoad, StoreStats};
pub use store::{default_parallelism, ShardedStore};
pub use transport::{
    MpscTransport, RequestFaults, TcpOptions, TcpTransport, Transport, TransportError,
};
