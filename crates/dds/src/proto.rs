//! The DDS backend wire protocol: serializable requests, replies and frames.
//!
//! [`crate::ChannelBackend`] deliberately shrank the write-side backend
//! surface to a handful of message types so that a multi-process deployment
//! could speak it over a network.  This module promotes that protocol to a
//! first-class, *wire-level* API:
//!
//! * [`Request`] / [`Reply`] — the owner protocol as plain data.  Unlike the
//!   old private `enum Request` in `channel.rs`, no variant carries a reply
//!   channel: every request is answered by exactly one reply, and the
//!   pairing is positional (FIFO per connection), exactly like a
//!   length-prefixed RPC stream.
//! * [`encode_request`] / [`decode_request`] and [`encode_reply`] /
//!   [`decode_reply`] — the byte codec, built on the constant-size pair
//!   encoding of [`crate::codec`] (20-byte keys, 16-byte values).  Every
//!   integer is little-endian; every collection is a `u32` count followed by
//!   its elements.  Decoders reject truncated buffers, unknown tags and
//!   trailing garbage with a typed [`ProtoError`].
//! * The epoch payload ([`Reply::Epoch`]) — per-shard write counts plus
//!   every `(key, values)` entry: how a remote peer fetches the frozen maps
//!   that the in-process transport hands over as an `Arc` (see
//!   [`crate::transport`]).  Its layout is written by one walker and parsed
//!   by one walker, each with two ends.  The serving path never leaves the
//!   hash maps: an owner encodes a [`FrozenEpoch`] straight from its shard
//!   maps ([`encode_epoch_into`]) and a client decodes the bytes straight
//!   into shard maps ([`decode_reply_as`]) — one pass each way, no
//!   allocation per key.  [`EpochFrame`] is the *typed* form of the same
//!   bytes, for tools and tests that want to look at an epoch as plain data
//!   ([`encode_reply_into`] / [`decode_reply`]).
//! * [`write_frame`] / [`read_frame`] — length-prefixed framing over any
//!   `Write`/`Read`, with a hard [`MAX_FRAME_BYTES`] cap so a corrupt or
//!   hostile length prefix can never trigger an unbounded allocation.
//!
//! The protocol is versioned implicitly by the conformance suites: a remote
//! backend speaking these frames must produce byte-identical results to the
//! in-process backends (`tests/backend_conformance.rs`,
//! `tests/backend_determinism.rs`), and `crates/dds/tests/proto_roundtrip.rs`
//! pins the codec itself with property tests.

use crate::codec::{decode_key, ENCODED_KEY_BYTES, ENCODED_PAIR_BYTES, ENCODED_VALUE_BYTES};
use crate::key::{Key, Value};
use crate::snapshot::FrozenEpoch;
use crate::stats::ShardLoad;
use std::fmt;
use std::io::{IoSlice, Read, Write};

/// Hard ceiling on the size of a single protocol frame (payload bytes).
///
/// Large enough for any epoch this simulation produces (a frame of `k`
/// singleton entries costs ~40 bytes per entry), small enough that a corrupt
/// length prefix cannot drive an unbounded allocation.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// The kind of a [`Request`], without its payload.
///
/// Used by the fault-injection schedule ([`crate::transport::RequestFaults`])
/// to address "drop the `Commit` of epoch 3 on worker 1"-style coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RequestKind {
    /// [`Request::Commit`].
    Commit,
    /// [`Request::Advance`].
    Advance,
    /// [`Request::FreezeEpoch`].
    FreezeEpoch,
    /// [`Request::PublishEpoch`].
    PublishEpoch,
    /// [`Request::Loads`].
    Loads,
    /// [`Request::Dump`].
    Dump,
    /// [`Request::TotalWrites`].
    TotalWrites,
    /// [`Request::Lease`].
    Lease,
    /// [`Request::Goodbye`].
    Goodbye,
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RequestKind::Commit => "commit",
            RequestKind::Advance => "advance",
            RequestKind::FreezeEpoch => "freeze_epoch",
            RequestKind::PublishEpoch => "publish_epoch",
            RequestKind::Loads => "loads",
            RequestKind::Dump => "dump",
            RequestKind::TotalWrites => "total_writes",
            RequestKind::Lease => "lease",
            RequestKind::Goodbye => "goodbye",
        };
        f.write_str(name)
    }
}

/// A request to one shard-group owner.
///
/// `epoch` coordinates always name the epoch the request targets: `Commit`
/// and `Advance` target the *writable* epoch (the number of epochs the owner
/// has frozen so far — owners validate this and panic on a protocol
/// violation), `Loads` and `Dump` target a *completed* epoch.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Apply shard-partitioned pairs to the writable epoch.
    Commit {
        /// Index of the writable epoch the pairs belong to.
        epoch: usize,
        /// Per-connection monotone sequence number.  Owners acknowledge a
        /// retransmitted commit (same `seq` as the last one applied)
        /// without re-applying it, which is what makes the transport's
        /// retry-on-lost-ack safe — at-least-once delivery, exactly-once
        /// application.
        seq: u64,
        /// `batches[i]` = (local shard index within the owner's group,
        /// pairs in commit order).
        batches: Vec<(usize, Vec<(Key, Value)>)>,
    },
    /// Freeze the writable epoch in place, open the next one, and publish
    /// the frozen epoch (as a shared `Arc` in-process, as a
    /// [`Reply::Epoch`] payload over the wire).
    Advance {
        /// Index of the epoch being frozen.
        epoch: usize,
    },
    /// Phase 1 of the cluster's two-phase epoch barrier: freeze the
    /// writable epoch in place and hold it *prepared but unpublished*.
    /// Acknowledged with [`Reply::EpochFrozen`]; the coordinator must
    /// collect this ack from **every** owner before any
    /// [`Request::PublishEpoch`] goes out, so no client can observe a
    /// mixed epoch even if an owner dies mid-barrier.  Idempotent: a
    /// replayed freeze of an already-prepared (or already-published)
    /// epoch is re-acknowledged without re-freezing.
    FreezeEpoch {
        /// Index of the epoch being frozen.
        epoch: usize,
    },
    /// Phase 2 of the two-phase barrier: publish the epoch prepared by
    /// [`Request::FreezeEpoch`] and answer with its [`Reply::Epoch`].
    /// Idempotent: a replayed publish of an already-published epoch
    /// re-encodes the same frozen maps, which is what makes a sever between
    /// freeze and publish recoverable.
    PublishEpoch {
        /// Index of the prepared epoch being published.
        epoch: usize,
    },
    /// Report per-shard loads of a completed epoch (keyed by global shard
    /// id).
    Loads {
        /// Completed epoch to report on.
        epoch: usize,
    },
    /// Dump every `(key, values)` pair of a completed epoch (driver/tests).
    Dump {
        /// Completed epoch to dump.
        epoch: usize,
    },
    /// Report total writes accepted so far (all epochs, incl. writable).
    TotalWrites,
    /// Acquire — or, on a reconnect, resume — this connection's epoch
    /// lease.  The first frame of every TCP connection; also accepted
    /// mid-stream as an explicit renewal.  Handled entirely by the
    /// transport/serve layer: owner state machines never see it.
    Lease {
        /// Client-chosen session id.  One backend instance holds one
        /// session; its per-owner connections share it and are told apart
        /// by `worker`.
        session: u64,
        /// Index of the owner this connection addresses.
        worker: u64,
        /// Total shard count of the client's routing topology.  A serving
        /// process derives the owner's shard group as
        /// `(worker..num_shards).step_by(workers)`.
        num_shards: u64,
        /// Owner count of the client's routing topology.
        workers: u64,
        /// Lease duration in milliseconds; `0` asks for a lease that never
        /// expires.  The owner starts the expiry countdown when the
        /// connection drops, not while it is merely idle.
        ttl_ms: u64,
    },
    /// Clean-shutdown notice: the client is done and will not reconnect,
    /// so the owner may release the session immediately instead of holding
    /// its lease open for a reconnect that never comes.  Not answered.
    Goodbye,
}

impl Request {
    /// The kind of this request.
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::Commit { .. } => RequestKind::Commit,
            Request::Advance { .. } => RequestKind::Advance,
            Request::FreezeEpoch { .. } => RequestKind::FreezeEpoch,
            Request::PublishEpoch { .. } => RequestKind::PublishEpoch,
            Request::Loads { .. } => RequestKind::Loads,
            Request::Dump { .. } => RequestKind::Dump,
            Request::TotalWrites => RequestKind::TotalWrites,
            Request::Lease { .. } => RequestKind::Lease,
            Request::Goodbye => RequestKind::Goodbye,
        }
    }

    /// The declared [`ReplayPolicy`] of this request.  Total by
    /// construction: `ampc-lint` fails the build when a `Request` variant
    /// is missing from [`REPLAY_POLICY`].
    pub fn replay_policy(&self) -> ReplayPolicy {
        let kind = self.kind();
        REPLAY_POLICY
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, policy)| *policy)
            // lint: allow(panic) — REPLAY_POLICY totality is machine-checked by the proto-conformance pass
            .unwrap_or_else(|| panic!("REPLAY_POLICY has no entry for {kind}"))
    }
}

/// *Why* a [`Request`] is safe to retransmit — the machine-checked half of
/// the idempotent-replay guarantee.
///
/// After a reconnect the transport replays every request whose reply is
/// outstanding, so every request must be safe to reach the owner twice.
/// How each one achieves that is protocol design, not an implementation
/// accident, so it is declared in [`REPLAY_POLICY`] and cross-checked by
/// `ampc-lint`'s proto-conformance pass: adding a `Request` variant
/// without classifying its replay behavior is a CI failure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReplayPolicy {
    /// Applied at most once: a replay inside the dispatch layer's
    /// deduplication window is acknowledged without re-applying
    /// (`Commit`, keyed by its per-session sequence number).
    Deduped,
    /// Re-applying converges: the owner re-acknowledges with the same
    /// observable result (`Advance` / `FreezeEpoch` / `PublishEpoch`
    /// republish the already-frozen epoch; the session-layer `Lease` and
    /// `Goodbye` lifecycle re-attaches or re-releases).
    Idempotent,
    /// A pure read of completed state with no owner-side effect
    /// (`Loads`, `Dump`, `TotalWrites`).
    Pure,
}

/// The replay classification of every request kind.
///
/// `ampc-lint` checks this table for totality over `Request`'s variants,
/// rejects duplicate or unknown entries, and requires a dispatch match arm
/// for every classified variant; [`Request::replay_policy`] is the runtime
/// lookup.
pub const REPLAY_POLICY: &[(RequestKind, ReplayPolicy)] = &[
    (RequestKind::Commit, ReplayPolicy::Deduped),
    (RequestKind::Advance, ReplayPolicy::Idempotent),
    (RequestKind::FreezeEpoch, ReplayPolicy::Idempotent),
    (RequestKind::PublishEpoch, ReplayPolicy::Idempotent),
    (RequestKind::Loads, ReplayPolicy::Pure),
    (RequestKind::Dump, ReplayPolicy::Pure),
    (RequestKind::TotalWrites, ReplayPolicy::Pure),
    (RequestKind::Lease, ReplayPolicy::Idempotent),
    (RequestKind::Goodbye, ReplayPolicy::Idempotent),
];

/// The reply to one [`Request`] (same variant order as the request kinds).
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// [`Request::Commit`] acknowledged.
    Committed {
        /// Epoch the pairs were applied to.
        epoch: usize,
        /// Number of pairs accepted by this owner.
        accepted: u64,
    },
    /// [`Request::Advance`] / [`Request::PublishEpoch`] answered with the
    /// frozen epoch's contents.  This is the *typed* form of the payload,
    /// for tools and tests: owners encode it from their frozen maps and
    /// clients decode it into maps ([`crate::transport::ClientReply::SharedEpoch`])
    /// without ever materializing this variant, and in-process transports
    /// hand the `Arc` over as it is.
    Epoch(EpochFrame),
    /// [`Request::Loads`] answered.
    Loads(Vec<ShardLoad>),
    /// [`Request::Dump`] answered.
    Dump(Vec<(Key, Vec<Value>)>),
    /// [`Request::TotalWrites`] answered.
    TotalWrites(u64),
    /// [`Request::Lease`] answered: the lease is held.
    LeaseGranted {
        /// The session the lease covers (echoed back).
        session: u64,
        /// Granted lease duration in milliseconds (`0` = never expires).
        ttl_ms: u64,
        /// `true` if existing session state was resumed (a reconnect
        /// re-attached to a live owner), `false` if the owner started this
        /// session fresh.  A reconnecting client that receives
        /// `resumed == false` must abort: its lease expired and the owner
        /// reclaimed the session's pending commits.  Mid-stream renewals
        /// are always answered `resumed == true` — a connection that holds
        /// its grant has, by definition, intact session state — and clients
        /// only validate the flag during the handshake.
        resumed: bool,
        /// The cluster shard map, when the granting process serves as one
        /// node of a cluster (`None` from a standalone owner).  Carries
        /// every owner's endpoint and contiguous shard range, stamped with
        /// the map epoch, so a freshly leased client learns the whole
        /// topology from any single node's handshake.
        shard_map: Option<ShardMap>,
    },
    /// [`Request::FreezeEpoch`] acknowledged: the epoch is frozen and held
    /// prepared, awaiting [`Request::PublishEpoch`].
    EpochFrozen {
        /// The epoch that is now prepared (echoed back).
        epoch: usize,
    },
}

/// The cluster topology as advertised in every cluster node's
/// [`Reply::LeaseGranted`]: which owner serves which contiguous shard
/// range, stamped with a map epoch.
///
/// Map epochs are monotone (the Aura-style invariant): a client holding a
/// map of epoch `e` must treat any map of epoch `> e` as superseding it and
/// must never mix routes from two map epochs.  All nodes of one cluster
/// generation advertise the identical map, which the client validates at
/// connect time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// Monotone generation stamp of this map.
    pub epoch: u64,
    /// One entry per owner, ascending by shard range; the ranges partition
    /// `0..num_shards` contiguously.
    pub owners: Vec<OwnerSlice>,
}

/// One owner's slice of a [`ShardMap`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnerSlice {
    /// The owner's advertised `host:port` endpoint.
    pub endpoint: String,
    /// First shard (global id) the owner serves.
    pub start: u64,
    /// One past the last shard the owner serves (`start == end` is a valid
    /// empty slice when there are more owners than shards).
    pub end: u64,
}

impl ShardMap {
    /// Total shard count covered by the map (the `end` of the last slice).
    pub fn num_shards(&self) -> usize {
        self.owners.last().map_or(0, |slice| slice.end as usize)
    }

    /// `true` if the slices partition `0..num_shards` contiguously in
    /// order, which every well-formed map must.
    pub fn is_contiguous(&self) -> bool {
        let mut next = 0u64;
        for slice in &self.owners {
            if slice.start != next || slice.end < slice.start {
                return false;
            }
            next = slice.end;
        }
        true
    }
}

/// A frozen epoch of one owner's shard group as plain data: the typed form
/// of the payload a remote peer fetches in place of the in-process `Arc`
/// hand-off.  The serving path goes from hash maps to bytes to hash maps
/// without it; it exists for tools and tests.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct EpochFrame {
    /// `shards[local]` — the owner's `local`-th shard.
    pub shards: Vec<ShardFrame>,
}

/// One shard of an [`EpochFrame`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ShardFrame {
    /// Writes that built the shard.
    pub writes: u64,
    /// Every `(key, values)` entry of the shard, values in commit order.
    /// Entry order is unspecified (hash-map iteration order) — lookups are
    /// keyed, so replicas rebuilt from a frame read identically.
    pub entries: Vec<(Key, Vec<Value>)>,
}

/// Typed decode failure of a protocol frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer ended before the message did.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// An unknown message tag.
    UnknownTag {
        /// `"request"` or `"reply"`.
        kind: &'static str,
        /// The tag byte found.
        tag: u8,
    },
    /// The message decoded but the buffer kept going.
    Trailing {
        /// Bytes left over after the message.
        remaining: usize,
    },
    /// A frame (or a declared frame length) exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The offending length.
        len: usize,
        /// The cap it exceeds.
        max: usize,
    },
    /// A field decoded structurally but holds an invalid value (e.g. a
    /// shard-map endpoint that is not UTF-8).
    Malformed {
        /// What was being decoded.
        context: &'static str,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { context } => {
                write!(f, "frame truncated while decoding {context}")
            }
            ProtoError::UnknownTag { kind, tag } => {
                write!(f, "unknown {kind} tag {tag}")
            }
            ProtoError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after the message")
            }
            ProtoError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::Malformed { context } => {
                write!(f, "malformed {context} in frame")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

const TAG_COMMIT: u8 = 0;
const TAG_ADVANCE: u8 = 1;
const TAG_LOADS: u8 = 2;
const TAG_DUMP: u8 = 3;
const TAG_TOTAL_WRITES: u8 = 4;
const TAG_LEASE: u8 = 5;
const TAG_GOODBYE: u8 = 6;
const TAG_FREEZE_EPOCH: u8 = 7;
const TAG_PUBLISH_EPOCH: u8 = 8;

const TAG_COMMITTED: u8 = 0;
const TAG_EPOCH: u8 = 1;
const TAG_LOADS_REPLY: u8 = 2;
const TAG_DUMP_REPLY: u8 = 3;
const TAG_TOTAL_WRITES_REPLY: u8 = 4;
const TAG_LEASE_GRANTED: u8 = 5;
const TAG_EPOCH_FROZEN: u8 = 6;

fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn put_key(buf: &mut Vec<u8>, key: &Key) {
    // The layout of [`crate::codec::encode_key`], written in place: the hot
    // encode path of a commit frame must not allocate per pair.
    put_u32(buf, key.tag.code());
    put_u64(buf, key.a);
    put_u64(buf, key.b);
}

fn put_value(buf: &mut Vec<u8>, value: &Value) {
    // The layout of [`crate::codec::encode_value`], written in place.
    put_u64(buf, value.x);
    put_u64(buf, value.y);
}

fn put_entries<'a>(
    buf: &mut Vec<u8>,
    entries: impl ExactSizeIterator<Item = (&'a Key, &'a [Value])>,
) {
    put_u32(buf, entries.len() as u32);
    for (key, values) in entries {
        put_key(buf, key);
        put_u32(buf, values.len() as u32);
        for value in values {
            put_value(buf, value);
        }
    }
}

/// The one writer of the epoch payload: the tag, the shard count, then per
/// shard its write count and its entries.  `shards` is whatever holds the
/// epoch, walked in place — [`EpochFrame::walk`] for the typed form,
/// [`FrozenEpoch::walk`] for an owner's frozen maps — so the two cannot
/// disagree on the layout.
fn put_epoch<'a, E>(buf: &mut Vec<u8>, shards: impl ExactSizeIterator<Item = (u64, E)>)
where
    E: ExactSizeIterator<Item = (&'a Key, &'a [Value])>,
{
    buf.push(TAG_EPOCH);
    put_u32(buf, shards.len() as u32);
    for (writes, entries) in shards {
        put_u64(buf, writes);
        put_entries(buf, entries);
    }
}

/// Exact number of bytes [`put_epoch`] writes for `shards`.
fn epoch_len<'a, E>(shards: impl Iterator<Item = (u64, E)>) -> usize
where
    E: Iterator<Item = (&'a Key, &'a [Value])>,
{
    let entry_len =
        |(_, values): (&Key, &[Value])| ENCODED_KEY_BYTES + 4 + values.len() * ENCODED_VALUE_BYTES;
    let shard_len = |(_, entries): (u64, E)| 8 + 4 + entries.map(entry_len).sum::<usize>();
    1 + 4 + shards.map(shard_len).sum::<usize>()
}

impl EpochFrame {
    /// The frame as [`put_epoch`] walks it.
    fn walk(
        &self,
    ) -> impl ExactSizeIterator<Item = (u64, impl ExactSizeIterator<Item = (&Key, &[Value])>)> {
        self.shards.iter().map(|shard| {
            let entries = shard.entries.iter();
            (
                shard.writes,
                entries.map(|(key, values)| (key, values.as_slice())),
            )
        })
    }
}

/// Encode a frozen epoch **straight from its shard maps** as the
/// [`Reply::Epoch`] payload it is on the wire — the owner's half of "one
/// pass each way": the exact size is computed first, the buffer (cleared
/// first, capacity retained) is reserved once, and nothing is allocated per
/// key.  A retransmitted advance re-encodes from the retained epoch.
///
/// # Errors
/// [`ProtoError::Oversized`] — before a byte is written — if the payload
/// would exceed [`MAX_FRAME_BYTES`].
pub(crate) fn encode_epoch_into(buf: &mut Vec<u8>, epoch: &FrozenEpoch) -> Result<(), ProtoError> {
    let len = epoch_len(epoch.walk());
    frame_fits(len)?;
    buf.clear();
    buf.reserve(len);
    put_epoch(buf, epoch.walk());
    debug_assert_eq!(buf.len(), len);
    Ok(())
}

/// Encode a [`Request`] into its wire payload (no length prefix).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    encode_request_into(&mut buf, request);
    buf
}

/// Encode a [`Request`] into a reusable buffer (cleared first, capacity
/// retained) — the zero-allocation path of the codec layer: once the buffer
/// has grown to the connection's working frame size, encoding allocates
/// nothing.
pub fn encode_request_into(buf: &mut Vec<u8>, request: &Request) {
    buf.clear();
    match request {
        Request::Commit {
            epoch,
            seq,
            batches,
        } => {
            buf.push(TAG_COMMIT);
            put_u64(buf, *epoch as u64);
            put_u64(buf, *seq);
            put_u32(buf, batches.len() as u32);
            for (local, pairs) in batches {
                put_u32(buf, *local as u32);
                put_u32(buf, pairs.len() as u32);
                for (key, value) in pairs {
                    put_key(buf, key);
                    put_value(buf, value);
                }
            }
        }
        Request::Advance { epoch } => {
            buf.push(TAG_ADVANCE);
            put_u64(buf, *epoch as u64);
        }
        Request::FreezeEpoch { epoch } => {
            buf.push(TAG_FREEZE_EPOCH);
            put_u64(buf, *epoch as u64);
        }
        Request::PublishEpoch { epoch } => {
            buf.push(TAG_PUBLISH_EPOCH);
            put_u64(buf, *epoch as u64);
        }
        Request::Loads { epoch } => {
            buf.push(TAG_LOADS);
            put_u64(buf, *epoch as u64);
        }
        Request::Dump { epoch } => {
            buf.push(TAG_DUMP);
            put_u64(buf, *epoch as u64);
        }
        Request::TotalWrites => buf.push(TAG_TOTAL_WRITES),
        Request::Lease {
            session,
            worker,
            num_shards,
            workers,
            ttl_ms,
        } => {
            buf.push(TAG_LEASE);
            put_u64(buf, *session);
            put_u64(buf, *worker);
            put_u64(buf, *num_shards);
            put_u64(buf, *workers);
            put_u64(buf, *ttl_ms);
        }
        Request::Goodbye => buf.push(TAG_GOODBYE),
    }
}

/// Encode a [`Reply`] into its wire payload (no length prefix).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    encode_reply_into(&mut buf, reply);
    buf
}

/// Encode a [`Reply`] into a reusable buffer (cleared first, capacity
/// retained) — see [`encode_request_into`].
pub fn encode_reply_into(buf: &mut Vec<u8>, reply: &Reply) {
    buf.clear();
    match reply {
        Reply::Committed { epoch, accepted } => {
            buf.push(TAG_COMMITTED);
            put_u64(buf, *epoch as u64);
            put_u64(buf, *accepted);
        }
        Reply::Epoch(frame) => put_epoch(buf, frame.walk()),
        Reply::Loads(loads) => {
            buf.push(TAG_LOADS_REPLY);
            put_u32(buf, loads.len() as u32);
            for load in loads {
                put_u64(buf, load.shard as u64);
                put_u64(buf, load.keys);
                put_u64(buf, load.writes);
                put_u64(buf, load.reads);
            }
        }
        Reply::Dump(entries) => {
            buf.push(TAG_DUMP_REPLY);
            put_entries(
                buf,
                entries.iter().map(|(key, values)| (key, values.as_slice())),
            );
        }
        Reply::TotalWrites(total) => {
            buf.push(TAG_TOTAL_WRITES_REPLY);
            put_u64(buf, *total);
        }
        Reply::LeaseGranted {
            session,
            ttl_ms,
            resumed,
            shard_map,
        } => {
            buf.push(TAG_LEASE_GRANTED);
            put_u64(buf, *session);
            put_u64(buf, *ttl_ms);
            buf.push(u8::from(*resumed));
            match shard_map {
                None => buf.push(0),
                Some(map) => {
                    buf.push(1);
                    put_u64(buf, map.epoch);
                    put_u32(buf, map.owners.len() as u32);
                    for slice in &map.owners {
                        put_u32(buf, slice.endpoint.len() as u32);
                        buf.extend_from_slice(slice.endpoint.as_bytes());
                        put_u64(buf, slice.start);
                        put_u64(buf, slice.end);
                    }
                }
            }
        }
        Reply::EpochFrozen { epoch } => {
            buf.push(TAG_EPOCH_FROZEN);
            put_u64(buf, *epoch as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Byte cursor that turns out-of-bytes into typed [`ProtoError::Truncated`].
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ProtoError> {
        if self.bytes.len() < n {
            return Err(ProtoError::Truncated { context });
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, ProtoError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, ProtoError> {
        let bytes = self.take(4, context)?;
        // lint: allow(panic) — infallible: take() just returned exactly 4 bytes
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte take")))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, ProtoError> {
        let bytes = self.take(8, context)?;
        // lint: allow(panic) — infallible: take() just returned exactly 8 bytes
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte take")))
    }

    fn key(&mut self) -> Result<Key, ProtoError> {
        let bytes = self.take(ENCODED_KEY_BYTES, "key")?;
        // take() guaranteed the length, so the only way to fail is an
        // unassigned tag code — malformed, not truncated.
        decode_key(bytes).ok_or(ProtoError::Malformed { context: "key tag" })
    }

    fn value(&mut self) -> Result<Value, ProtoError> {
        Ok(value_at(self.take(ENCODED_VALUE_BYTES, "value")?))
    }

    /// A `u32` element count, validated against the bytes actually left
    /// (each element needs at least `min_element_bytes`), so a corrupt
    /// count can neither over-allocate nor masquerade as a short message.
    fn count(
        &mut self,
        min_element_bytes: usize,
        context: &'static str,
    ) -> Result<usize, ProtoError> {
        let count = self.u32(context)? as usize;
        if count.saturating_mul(min_element_bytes) > self.bytes.len() {
            return Err(ProtoError::Truncated { context });
        }
        Ok(count)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Trailing {
                remaining: self.bytes.len(),
            })
        }
    }
}

/// Where the one parser of the epoch payload ([`get_epoch`]) puts what it
/// reads: the typed [`EpochFrame`] (tools, tests) or the shard maps of a
/// [`FrozenEpoch`] (a client's replica).  Two sinks of one walker, so the
/// two cannot disagree on the layout; what a sink *accepts* is its own
/// business — a frame is plain data and takes any entry, a replica refuses
/// an entry without values and a key it already holds.
pub(crate) trait EpochSink: Sized {
    /// One shard under construction.
    type Shard;

    /// Start a shard built by `writes` writes that is about to receive
    /// `entries` entries — a count already checked against the bytes
    /// actually present, so it is safe to reserve for.
    fn shard(writes: u64, entries: usize) -> Self::Shard;

    /// Add one entry, its values in commit order.
    fn entry(
        shard: &mut Self::Shard,
        key: Key,
        values: impl ExactSizeIterator<Item = Value>,
    ) -> Result<(), ProtoError>;

    /// The epoch made of `shards`, in owner-local order.
    fn finish(shards: Vec<Self::Shard>) -> Self;
}

impl EpochSink for EpochFrame {
    type Shard = ShardFrame;

    fn shard(writes: u64, entries: usize) -> ShardFrame {
        ShardFrame {
            writes,
            entries: Vec::with_capacity(entries),
        }
    }

    fn entry(
        shard: &mut ShardFrame,
        key: Key,
        values: impl ExactSizeIterator<Item = Value>,
    ) -> Result<(), ProtoError> {
        shard.entries.push((key, values.collect()));
        Ok(())
    }

    fn finish(shards: Vec<ShardFrame>) -> EpochFrame {
        EpochFrame { shards }
    }
}

/// One encoded value, read in place (the layout of
/// [`crate::codec::decode_value`]); `chunk` is exactly
/// [`ENCODED_VALUE_BYTES`] long.
fn value_at(chunk: &[u8]) -> Value {
    let word = |at: usize| {
        let mut word = [0u8; 8];
        word.copy_from_slice(&chunk[at..at + 8]);
        u64::from_le_bytes(word)
    };
    Value {
        x: word(0),
        y: word(8),
    }
}

/// One counted list of `(key, values)` entries into a shard of `S`.  Every
/// count is validated against the bytes left before anything is reserved
/// for it, and a value run is handed to the sink as an iterator over the
/// payload, so nothing is allocated per key unless the sink does.
fn get_entries<S: EpochSink>(cursor: &mut Cursor<'_>, writes: u64) -> Result<S::Shard, ProtoError> {
    let count = cursor.count(ENCODED_KEY_BYTES + 4, "entries")?;
    let mut shard = S::shard(writes, count);
    for _ in 0..count {
        let key = cursor.key()?;
        let values = cursor.count(ENCODED_VALUE_BYTES, "values")?;
        let run = cursor.take(values * ENCODED_VALUE_BYTES, "values")?;
        S::entry(
            &mut shard,
            key,
            run.chunks_exact(ENCODED_VALUE_BYTES).map(value_at),
        )?;
    }
    Ok(shard)
}

/// The one parser of the epoch payload (what [`put_epoch`] wrote after the
/// tag), into whichever sink the caller reads epochs as.
fn get_epoch<S: EpochSink>(cursor: &mut Cursor<'_>) -> Result<S, ProtoError> {
    let shard_count = cursor.count(12, "epoch shards")?;
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let writes = cursor.u64("shard writes")?;
        shards.push(get_entries::<S>(cursor, writes)?);
    }
    Ok(S::finish(shards))
}

/// Decode a [`Request`] from its wire payload.
///
/// The whole buffer must be one message: truncated buffers, unknown tags and
/// trailing bytes are all rejected.
pub fn decode_request(bytes: &[u8]) -> Result<Request, ProtoError> {
    let mut cursor = Cursor::new(bytes);
    let request = match cursor.u8("request tag")? {
        TAG_COMMIT => {
            let epoch = cursor.u64("commit epoch")? as usize;
            let seq = cursor.u64("commit seq")?;
            let batch_count = cursor.count(8, "commit batches")?;
            let mut batches = Vec::with_capacity(batch_count);
            for _ in 0..batch_count {
                let local = cursor.u32("batch shard")? as usize;
                let pair_count = cursor.count(ENCODED_PAIR_BYTES, "batch pairs")?;
                let mut pairs = Vec::with_capacity(pair_count);
                for _ in 0..pair_count {
                    let key = cursor.key()?;
                    let value = cursor.value()?;
                    pairs.push((key, value));
                }
                batches.push((local, pairs));
            }
            Request::Commit {
                epoch,
                seq,
                batches,
            }
        }
        TAG_ADVANCE => Request::Advance {
            epoch: cursor.u64("advance epoch")? as usize,
        },
        TAG_FREEZE_EPOCH => Request::FreezeEpoch {
            epoch: cursor.u64("freeze epoch")? as usize,
        },
        TAG_PUBLISH_EPOCH => Request::PublishEpoch {
            epoch: cursor.u64("publish epoch")? as usize,
        },
        TAG_LOADS => Request::Loads {
            epoch: cursor.u64("loads epoch")? as usize,
        },
        TAG_DUMP => Request::Dump {
            epoch: cursor.u64("dump epoch")? as usize,
        },
        TAG_TOTAL_WRITES => Request::TotalWrites,
        TAG_LEASE => Request::Lease {
            session: cursor.u64("lease session")?,
            worker: cursor.u64("lease worker")?,
            num_shards: cursor.u64("lease shards")?,
            workers: cursor.u64("lease workers")?,
            ttl_ms: cursor.u64("lease ttl")?,
        },
        TAG_GOODBYE => Request::Goodbye,
        tag => {
            return Err(ProtoError::UnknownTag {
                kind: "request",
                tag,
            })
        }
    };
    cursor.finish()?;
    Ok(request)
}

/// Decode a [`Reply`] from its wire payload (same contract as
/// [`decode_request`]).  An epoch payload comes back typed, as an
/// [`EpochFrame`]; clients that read from it take [`decode_reply_as`].
pub fn decode_reply(bytes: &[u8]) -> Result<Reply, ProtoError> {
    Ok(match decode_reply_as::<EpochFrame>(bytes)? {
        Decoded::Wire(reply) => reply,
        Decoded::Epoch(frame) => Reply::Epoch(frame),
    })
}

/// A decoded reply whose epoch payload, if it is one, went into sink `S`.
pub(crate) enum Decoded<S> {
    /// Any reply but an epoch.
    Wire(Reply),
    /// An epoch payload, read into `S`.
    Epoch(S),
}

/// Decode a reply, reading an epoch payload **straight into** `S` — with
/// `S =` [`FrozenEpoch`], the client's half of "one pass each way": bytes to
/// shard maps with no [`EpochFrame`] in between.  The one place reply tags
/// are matched; same contract as [`decode_request`].
pub(crate) fn decode_reply_as<S: EpochSink>(bytes: &[u8]) -> Result<Decoded<S>, ProtoError> {
    let mut cursor = Cursor::new(bytes);
    let reply = match cursor.u8("reply tag")? {
        TAG_EPOCH => {
            let epoch = get_epoch::<S>(&mut cursor)?;
            cursor.finish()?;
            return Ok(Decoded::Epoch(epoch));
        }
        TAG_COMMITTED => Reply::Committed {
            epoch: cursor.u64("committed epoch")? as usize,
            accepted: cursor.u64("committed count")?,
        },
        TAG_LOADS_REPLY => {
            let count = cursor.count(32, "loads")?;
            let mut loads = Vec::with_capacity(count);
            for _ in 0..count {
                loads.push(ShardLoad {
                    shard: cursor.u64("load shard")? as usize,
                    keys: cursor.u64("load keys")?,
                    writes: cursor.u64("load writes")?,
                    reads: cursor.u64("load reads")?,
                });
            }
            Reply::Loads(loads)
        }
        // A dump is one shard's entry list without the write count.
        TAG_DUMP_REPLY => Reply::Dump(get_entries::<EpochFrame>(&mut cursor, 0)?.entries),
        TAG_TOTAL_WRITES_REPLY => Reply::TotalWrites(cursor.u64("total writes")?),
        TAG_LEASE_GRANTED => Reply::LeaseGranted {
            session: cursor.u64("lease session")?,
            ttl_ms: cursor.u64("lease ttl")?,
            resumed: match cursor.u8("lease resumed")? {
                0 => false,
                1 => true,
                tag => return Err(ProtoError::UnknownTag { kind: "reply", tag }),
            },
            shard_map: match cursor.u8("shard map flag")? {
                0 => None,
                1 => {
                    let epoch = cursor.u64("shard map epoch")?;
                    let owner_count = cursor.count(20, "shard map owners")?;
                    let mut owners = Vec::with_capacity(owner_count);
                    for _ in 0..owner_count {
                        let len = cursor.count(1, "owner endpoint")?;
                        let bytes = cursor.take(len, "owner endpoint")?;
                        let endpoint = std::str::from_utf8(bytes)
                            .map_err(|_| ProtoError::Malformed {
                                context: "owner endpoint",
                            })?
                            .to_owned();
                        owners.push(OwnerSlice {
                            endpoint,
                            start: cursor.u64("owner range start")?,
                            end: cursor.u64("owner range end")?,
                        });
                    }
                    Some(ShardMap { epoch, owners })
                }
                tag => return Err(ProtoError::UnknownTag { kind: "reply", tag }),
            },
        },
        TAG_EPOCH_FROZEN => Reply::EpochFrozen {
            epoch: cursor.u64("frozen epoch")? as usize,
        },
        tag => return Err(ProtoError::UnknownTag { kind: "reply", tag }),
    };
    cursor.finish()?;
    Ok(Decoded::Wire(reply))
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// `Ok` if a payload of `len` bytes fits one frame, else the typed refusal.
pub(crate) fn frame_fits(len: usize) -> Result<(), ProtoError> {
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    Ok(())
}

/// The framing layer's refusal as an I/O error: `InvalidData`, carrying
/// the typed [`ProtoError::Oversized`] for [`frame_refusal`] to find.
fn refused(refusal: ProtoError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, refusal)
}

/// The typed refusal inside a framing error, if that is what `err` is.  A
/// refused frame never reached (or never left) the socket, so callers must
/// not treat it as a dead connection — reconnecting cannot make it fit.
pub(crate) fn frame_refusal(err: &std::io::Error) -> Option<ProtoError> {
    err.get_ref()?.downcast_ref::<ProtoError>().cloned()
}

/// Write one length-prefixed frame (`u32` little-endian payload length, then
/// the payload).
///
/// Header and payload go out through a single `write_vectored` call, so a
/// small frame costs one syscall instead of two.  The OS may accept fewer
/// bytes than offered (a *short* vectored write — guaranteed on plain
/// `Write` adapters whose `write_vectored` forwards to `write` of the first
/// buffer); the loop tracks a byte offset across both slices and re-offers
/// the remainder until the frame is fully out.  Allocates nothing.
///
/// # Errors
/// `InvalidData` if the payload exceeds [`MAX_FRAME_BYTES`]; `WriteZero` if
/// the writer stops accepting bytes mid-frame; otherwise any I/O error of
/// the underlying writer.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> std::io::Result<()> {
    frame_fits(payload.len()).map_err(refused)?;
    let header = (payload.len() as u32).to_le_bytes();
    let total = header.len() + payload.len();
    let mut written = 0usize;
    while written < total {
        let result = if written < header.len() {
            writer.write_vectored(&[IoSlice::new(&header[written..]), IoSlice::new(payload)])
        } else {
            writer.write(&payload[written - header.len()..])
        };
        match result {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "writer stopped accepting bytes mid-frame",
                ))
            }
            Ok(n) => written += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

/// Read one length-prefixed frame written by [`write_frame`] into `payload`,
/// a reusable scratch buffer (cleared first, capacity retained).
///
/// A connection-lived scratch makes steady-state reads allocation-free: the
/// buffer grows to the largest frame seen and is reused from then on
/// (pinned by `crates/dds/tests/framing_alloc.rs` with a counting
/// allocator).
///
/// # Errors
/// `InvalidData` if the declared length exceeds [`MAX_FRAME_BYTES`] (the
/// payload is not read, let alone allocated); `UnexpectedEof` if the stream
/// ends mid-frame; otherwise any I/O error of the underlying reader.  On
/// error the scratch contents are unspecified.
pub fn read_frame<R: Read>(reader: &mut R, payload: &mut Vec<u8>) -> std::io::Result<()> {
    let mut prefix = [0u8; 4];
    reader.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    frame_fits(len).map_err(refused)?;
    payload.clear();
    payload.resize(len, 0);
    reader.read_exact(payload)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyTag;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Commit {
                epoch: 3,
                seq: 41,
                batches: vec![
                    (0, vec![(Key::of(KeyTag::Scalar, 1), Value::scalar(10))]),
                    (
                        2,
                        vec![
                            (Key::with_index(KeyTag::Adjacency, 7, 1), Value::pair(1, 2)),
                            (Key::of(KeyTag::Custom(9), u64::MAX), Value::scalar(0)),
                        ],
                    ),
                    (5, Vec::new()),
                ],
            },
            Request::Advance { epoch: 0 },
            Request::FreezeEpoch { epoch: 5 },
            Request::PublishEpoch { epoch: 5 },
            Request::Loads { epoch: 17 },
            Request::Dump {
                epoch: usize::MAX >> 8,
            },
            Request::TotalWrites,
            Request::Lease {
                session: u64::MAX,
                worker: 3,
                num_shards: 1024,
                workers: 8,
                ttl_ms: 30_000,
            },
            Request::Goodbye,
        ]
    }

    fn sample_replies() -> Vec<Reply> {
        vec![
            Reply::Committed {
                epoch: 4,
                accepted: 1234,
            },
            Reply::Epoch(EpochFrame {
                shards: vec![
                    ShardFrame {
                        writes: 3,
                        entries: vec![
                            (Key::of(KeyTag::Degree, 0), vec![Value::scalar(1)]),
                            (
                                Key::of(KeyTag::Scalar, 9),
                                vec![Value::scalar(2), Value::pair(3, 4)],
                            ),
                        ],
                    },
                    ShardFrame {
                        writes: 0,
                        entries: Vec::new(),
                    },
                ],
            }),
            Reply::Loads(vec![
                ShardLoad {
                    shard: 0,
                    keys: 1,
                    writes: 2,
                    reads: 3,
                },
                ShardLoad {
                    shard: 9,
                    keys: 0,
                    writes: 0,
                    reads: u64::MAX,
                },
            ]),
            Reply::Dump(vec![(
                Key::of(KeyTag::Successor, 5),
                vec![Value::scalar(6), Value::scalar(7)],
            )]),
            Reply::TotalWrites(42),
            Reply::LeaseGranted {
                session: 7,
                ttl_ms: 0,
                resumed: true,
                shard_map: None,
            },
            Reply::LeaseGranted {
                session: u64::MAX,
                ttl_ms: 86_400_000,
                resumed: false,
                shard_map: None,
            },
            Reply::LeaseGranted {
                session: 9,
                ttl_ms: 30_000,
                resumed: false,
                shard_map: Some(ShardMap {
                    epoch: 1,
                    owners: vec![
                        OwnerSlice {
                            endpoint: "127.0.0.1:7471".to_owned(),
                            start: 0,
                            end: 5,
                        },
                        OwnerSlice {
                            endpoint: "127.0.0.1:7472".to_owned(),
                            start: 5,
                            end: 5,
                        },
                        OwnerSlice {
                            endpoint: "[::1]:80".to_owned(),
                            start: 5,
                            end: 8,
                        },
                    ],
                }),
            },
            Reply::EpochFrozen { epoch: 11 },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for request in sample_requests() {
            let bytes = encode_request(&request);
            assert_eq!(decode_request(&bytes), Ok(request));
        }
    }

    #[test]
    fn replies_round_trip() {
        for reply in sample_replies() {
            let bytes = encode_reply(&reply);
            assert_eq!(decode_reply(&bytes), Ok(reply));
        }
    }

    #[test]
    fn truncated_messages_are_rejected_at_every_length() {
        for request in sample_requests() {
            let bytes = encode_request(&request);
            for len in 0..bytes.len() {
                assert!(
                    decode_request(&bytes[..len]).is_err(),
                    "request prefix of {len} bytes must not decode"
                );
            }
        }
        for reply in sample_replies() {
            let bytes = encode_reply(&reply);
            for len in 0..bytes.len() {
                assert!(
                    decode_reply(&bytes[..len]).is_err(),
                    "reply prefix of {len} bytes must not decode"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_request(&Request::TotalWrites);
        bytes.push(0);
        assert_eq!(
            decode_request(&bytes),
            Err(ProtoError::Trailing { remaining: 1 })
        );
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(
            decode_request(&[200]),
            Err(ProtoError::UnknownTag {
                kind: "request",
                tag: 200
            })
        );
        assert_eq!(
            decode_reply(&[99]),
            Err(ProtoError::UnknownTag {
                kind: "reply",
                tag: 99
            })
        );
    }

    #[test]
    fn corrupt_key_tags_fail_decoding_instead_of_panicking() {
        let mut bytes = encode_request(&Request::Commit {
            epoch: 0,
            seq: 1,
            batches: vec![(0, vec![(Key::of(KeyTag::Scalar, 7), Value::scalar(8))])],
        });
        // The key's 4-byte tag code is the first field of the encoded pair;
        // overwrite it with a code in the unassigned gap (11..0x1_0000).
        let key_at = bytes.len() - crate::codec::ENCODED_PAIR_BYTES;
        bytes[key_at..key_at + 4].copy_from_slice(&999u32.to_le_bytes());
        assert_eq!(
            decode_request(&bytes),
            Err(ProtoError::Malformed { context: "key tag" })
        );
    }

    #[test]
    fn replay_policy_is_total_over_request_kinds() {
        // The lint checks the table against the enum *textually*; this
        // pins the runtime lookup for every constructible kind.
        let requests = [
            Request::Commit {
                epoch: 0,
                seq: 0,
                batches: Vec::new(),
            },
            Request::Advance { epoch: 0 },
            Request::FreezeEpoch { epoch: 0 },
            Request::PublishEpoch { epoch: 0 },
            Request::Loads { epoch: 0 },
            Request::Dump { epoch: 0 },
            Request::TotalWrites,
            Request::Lease {
                session: 0,
                worker: 0,
                num_shards: 1,
                workers: 1,
                ttl_ms: 0,
            },
            Request::Goodbye,
        ];
        assert_eq!(requests.len(), REPLAY_POLICY.len());
        for request in &requests {
            let policy = request.replay_policy(); // must not panic
            match request.kind() {
                RequestKind::Commit => assert_eq!(policy, ReplayPolicy::Deduped),
                RequestKind::Loads | RequestKind::Dump | RequestKind::TotalWrites => {
                    assert_eq!(policy, ReplayPolicy::Pure)
                }
                _ => assert_eq!(policy, ReplayPolicy::Idempotent),
            }
        }
    }

    #[test]
    fn bogus_lease_resumed_flags_are_rejected() {
        let mut bytes = encode_reply(&Reply::LeaseGranted {
            session: 1,
            ttl_ms: 2,
            resumed: false,
            shard_map: None,
        });
        let resumed_at = bytes.len() - 2; // [.., resumed, shard-map flag]
        bytes[resumed_at] = 9; // neither 0 nor 1
        assert_eq!(
            decode_reply(&bytes),
            Err(ProtoError::UnknownTag {
                kind: "reply",
                tag: 9
            })
        );
    }

    #[test]
    fn bogus_shard_map_flags_and_endpoints_are_rejected() {
        let granted = |shard_map| Reply::LeaseGranted {
            session: 1,
            ttl_ms: 2,
            resumed: false,
            shard_map,
        };
        // A shard-map flag that is neither "absent" nor "present".
        let mut bytes = encode_reply(&granted(None));
        *bytes.last_mut().unwrap() = 7;
        assert_eq!(
            decode_reply(&bytes),
            Err(ProtoError::UnknownTag {
                kind: "reply",
                tag: 7
            })
        );
        // An endpoint that is not UTF-8 is malformed, not a panic.
        let map = ShardMap {
            epoch: 3,
            owners: vec![OwnerSlice {
                endpoint: "ab".to_owned(),
                start: 0,
                end: 4,
            }],
        };
        let mut bytes = encode_reply(&granted(Some(map)));
        let endpoint_at = bytes.len() - 18; // "ab" sits before start+end
        bytes[endpoint_at] = 0xFF;
        assert_eq!(
            decode_reply(&bytes),
            Err(ProtoError::Malformed {
                context: "owner endpoint"
            })
        );
    }

    #[test]
    fn shard_map_contiguity_is_checkable() {
        let map = |ranges: &[(u64, u64)]| ShardMap {
            epoch: 1,
            owners: ranges
                .iter()
                .map(|&(start, end)| OwnerSlice {
                    endpoint: "x:1".to_owned(),
                    start,
                    end,
                })
                .collect(),
        };
        assert!(map(&[(0, 4), (4, 8)]).is_contiguous());
        assert!(map(&[(0, 0), (0, 8)]).is_contiguous());
        assert_eq!(map(&[(0, 4), (4, 9)]).num_shards(), 9);
        assert!(!map(&[(0, 4), (5, 8)]).is_contiguous());
        assert!(!map(&[(1, 4), (4, 8)]).is_contiguous());
        assert!(!map(&[(0, 4), (4, 2)]).is_contiguous());
    }

    #[test]
    fn corrupt_counts_cannot_over_allocate() {
        // A Dump reply declaring u32::MAX entries in a 9-byte buffer must be
        // rejected by the count validation, not by an allocation attempt.
        let mut bytes = vec![TAG_DUMP_REPLY];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(
            decode_reply(&bytes),
            Err(ProtoError::Truncated { context: "entries" })
        );
    }

    // -----------------------------------------------------------------
    // One epoch layout, four code paths: typed-frame and map-backed
    // encoders, typed-frame and map-backed decoders.
    // -----------------------------------------------------------------

    use crate::slot::{Slot, SlotMap};
    use proptest::prelude::*;

    /// An owner's frozen epoch holding `shards` (a repeated key keeps its
    /// last values, as any map would).
    fn frozen(shards: Vec<ShardFrame>) -> FrozenEpoch {
        let slot = |values: Vec<Value>| match values.as_slice() {
            [value] => Slot::One(*value),
            _ => Slot::Many(values),
        };
        let (writes, maps): (Vec<u64>, Vec<SlotMap>) = shards
            .into_iter()
            .map(|shard| {
                let entries = shard.entries.into_iter();
                let map = entries.map(|(key, values)| (key, slot(values))).collect();
                (shard.writes, map)
            })
            .unzip();
        FrozenEpoch::new(maps, writes)
    }

    /// The typed form of `epoch`, entries in the maps' iteration order.
    fn frame_of(epoch: &FrozenEpoch) -> EpochFrame {
        EpochFrame {
            shards: epoch
                .walk()
                .map(|(writes, entries)| ShardFrame {
                    writes,
                    entries: entries
                        .map(|(key, values)| (*key, values.to_vec()))
                        .collect(),
                })
                .collect(),
        }
    }

    fn encode_maps(epoch: &FrozenEpoch) -> Vec<u8> {
        let mut bytes = vec![0xEE; 7]; // stale contents must be cleared
        encode_epoch_into(&mut bytes, epoch).expect("a small epoch fits a frame");
        bytes
    }

    fn decode_maps(bytes: &[u8]) -> Result<FrozenEpoch, ProtoError> {
        match decode_reply_as::<FrozenEpoch>(bytes)? {
            Decoded::Epoch(epoch) => Ok(epoch),
            Decoded::Wire(reply) => panic!("an epoch payload decoded as {reply:?}"),
        }
    }

    fn arbitrary_shards() -> impl Strategy<Value = Vec<ShardFrame>> {
        let key = (0u32..8, any::<u64>(), 0u64..4).prop_map(|(tag, a, b)| Key {
            tag: KeyTag::from_code(tag),
            a: a % 24, // few enough keys that shards repeat some
            b,
        });
        let value = (any::<u64>(), any::<u64>()).prop_map(|(x, y)| Value { x, y });
        let values = proptest::collection::vec(value, 1..5);
        let entries = proptest::collection::vec((key, values), 0..12);
        let shard = (any::<u64>(), entries);
        proptest::collection::vec(
            shard.prop_map(|(writes, entries)| ShardFrame { writes, entries }),
            0..6,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

        /// Shard counts 0..=5, empty shards, single- and multi-value keys:
        /// whichever encoder wrote an epoch and whichever decoder reads it,
        /// the contents are the same — and so are the bytes.
        #[test]
        fn every_encoder_and_decoder_of_an_epoch_agrees(shards in arbitrary_shards()) {
            let epoch = frozen(shards);
            let frame = frame_of(&epoch);

            // (a) maps → bytes → typed frame.
            let from_maps = encode_maps(&epoch);
            prop_assert_eq!(decode_reply(&from_maps), Ok(Reply::Epoch(frame.clone())));

            // (b) typed frame → bytes → maps.
            let from_frame = encode_reply(&Reply::Epoch(frame));
            let replica = decode_maps(&from_frame).expect("a well-formed epoch decodes");
            prop_assert_eq!(&replica.shards, &epoch.shards);
            prop_assert_eq!(&replica.writes, &epoch.writes);

            // (c) one layout: same iteration order, same bytes.
            prop_assert_eq!(from_maps, from_frame);
        }

        /// No prefix of an epoch payload decodes, into either sink.
        #[test]
        fn truncated_epochs_are_rejected_at_every_length(shards in arbitrary_shards()) {
            let bytes = encode_maps(&frozen(shards));
            for len in 0..bytes.len() {
                prop_assert!(decode_maps(&bytes[..len]).is_err(), "map prefix of {len} bytes");
                prop_assert!(decode_reply(&bytes[..len]).is_err(), "frame prefix of {len} bytes");
            }
        }
    }

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    /// The payload of `shards` as the typed encoder writes it — which takes
    /// anything, including what no owner's map can hold.
    fn crafted(shards: Vec<Vec<(Key, Vec<Value>)>>) -> Vec<u8> {
        encode_reply(&Reply::Epoch(EpochFrame {
            shards: shards
                .into_iter()
                .map(|entries| ShardFrame {
                    writes: entries.len() as u64,
                    entries,
                })
                .collect(),
        }))
    }

    #[test]
    fn epoch_entries_without_values_are_rejected_by_replicas() {
        let bytes = crafted(vec![vec![(k(1), vec![Value::scalar(1)]), (k(2), vec![])]]);
        assert_eq!(
            decode_maps(&bytes).err(),
            Some(ProtoError::Malformed {
                context: "epoch entry without values"
            })
        );
        // The typed form is plain data and holds it as it came.
        assert!(decode_reply(&bytes).is_ok());
    }

    #[test]
    fn epoch_keys_repeated_within_a_shard_are_rejected_by_replicas() {
        let twice = vec![
            (k(7), vec![Value::scalar(1)]),
            (k(7), vec![Value::scalar(2), Value::scalar(3)]),
        ];
        assert_eq!(
            decode_maps(&crafted(vec![vec![], twice.clone()])).err(),
            Some(ProtoError::Malformed {
                context: "epoch key repeated within a shard"
            })
        );
        // The same key in two *different* shards is two entries.
        let apart = crafted(twice.into_iter().map(|entry| vec![entry]).collect());
        assert_eq!(decode_maps(&apart).map(|epoch| epoch.shards.len()), Ok(2));
    }

    #[test]
    fn inflated_epoch_counts_fail_before_anything_is_reserved() {
        // [tag][shards u32][writes u64][entries u32][key 20][values u32][value 16]
        let bytes = crafted(vec![vec![(k(1), vec![Value::scalar(1)])]]);
        let (shards_at, entries_at, values_at) = (1, 13, 37);
        assert_eq!(bytes.len(), values_at + 4 + ENCODED_VALUE_BYTES);
        for (at, context) in [
            (shards_at, "epoch shards"),
            (entries_at, "entries"),
            (values_at, "values"),
        ] {
            for count in [1u32 << 20, u32::MAX] {
                let mut bytes = bytes.clone();
                bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
                // The count is checked against the bytes actually present
                // before a map, a `Vec` or a value list is sized by it.
                let expected = Some(ProtoError::Truncated { context });
                assert_eq!(decode_maps(&bytes).err(), expected, "{context} × {count}");
                assert_eq!(decode_reply(&bytes).err(), expected, "{context} × {count}");
            }
            // Off by one: the bytes run out somewhere further in.
            let mut bytes = bytes.clone();
            bytes[at..at + 4].copy_from_slice(&2u32.to_le_bytes());
            for err in [decode_maps(&bytes).err(), decode_reply(&bytes).err()] {
                assert!(matches!(err, Some(ProtoError::Truncated { .. })), "{err:?}");
            }
        }
    }

    #[test]
    fn epochs_with_trailing_bytes_or_unassigned_key_tags_are_rejected() {
        let bytes = crafted(vec![vec![(k(1), vec![Value::scalar(1)])], vec![]]);
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0, 0, 0]);
        let expected = Some(ProtoError::Trailing { remaining: 3 });
        assert_eq!(decode_maps(&trailing).err(), expected);
        assert_eq!(decode_reply(&trailing).err(), expected);

        // The key's 4-byte tag code follows the first shard's header; 999
        // sits in the unassigned gap (11..0x1_0000).
        let mut corrupt = bytes;
        corrupt[17..21].copy_from_slice(&999u32.to_le_bytes());
        let expected = Some(ProtoError::Malformed { context: "key tag" });
        assert_eq!(decode_maps(&corrupt).err(), expected);
        assert_eq!(decode_reply(&corrupt).err(), expected);
    }

    #[test]
    fn oversized_frames_are_refused_with_the_typed_error_inside() {
        // Lazily zeroed and never read: the cap is checked on the length.
        let oversized = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &oversized).unwrap_err();
        let refusal = ProtoError::Oversized {
            len: MAX_FRAME_BYTES + 1,
            max: MAX_FRAME_BYTES,
        };
        assert_eq!(frame_refusal(&err), Some(refusal.clone()));
        assert_eq!(err.to_string(), refusal.to_string());
        assert!(sink.is_empty(), "nothing may hit the wire");
        // A dead socket is not a refusal.
        let dead = std::io::Error::from(std::io::ErrorKind::BrokenPipe);
        assert_eq!(frame_refusal(&dead), None);
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let payload = encode_request(&Request::Advance { epoch: 2 });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(wire.len(), payload.len() + 4);
        let mut reader: &[u8] = &wire;
        let mut scratch = Vec::new();
        read_frame(&mut reader, &mut scratch).unwrap();
        assert_eq!(scratch, payload);
        assert!(reader.is_empty());

        // A length prefix past the cap is rejected without reading further.
        let huge = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        let mut reader: &[u8] = &huge;
        let err = read_frame(&mut reader, &mut scratch).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // A frame cut short mid-payload is an UnexpectedEof.
        let mut short = Vec::new();
        write_frame(&mut short, &payload).unwrap();
        short.truncate(short.len() - 1);
        let mut reader: &[u8] = &short;
        let err = read_frame(&mut reader, &mut scratch).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
