//! The DDS backend wire protocol: serializable requests, replies and frames.
//!
//! The write side of every message-passing backend is a handful of message
//! types — commits, epoch advances, the driver's audits and the session
//! lease — which one client ([`crate::RemoteBackend`]) speaks to its owners
//! over any transport, in-process channels and sockets alike:
//!
//! * [`Request`] / [`Reply`] — the owner protocol as plain data.  No
//!   variant carries a reply channel: every request is answered by exactly
//!   one reply, and the pairing is positional (FIFO per connection),
//!   exactly like a length-prefixed RPC stream.
//! * [`encode_request`] / [`decode_request`] and [`encode_reply`] /
//!   [`decode_reply`] — the byte codec, built on a constant-size pair
//!   encoding (20-byte keys, 16-byte values).  Every
//!   integer is little-endian; every collection is a `u32` count followed by
//!   its elements.  Decoders reject truncated buffers, unknown tags and
//!   trailing garbage with a typed [`ProtoError`].
//! * The epoch payload ([`Reply::Epoch`]) — per-shard write counts plus
//!   every `(key, values)` entry: how a remote peer fetches the frozen shards
//!   that the in-process transport hands over as an `Arc` (see
//!   [`crate::transport`]).  Its layout is written by one walker and parsed
//!   by one walker, each with two ends.  The serving path never leaves the
//!   frozen shards: an owner encodes a [`FrozenEpoch`] straight from its
//!   shards (`encode_epoch_into`) and a client decodes the bytes straight
//!   into shards (`decode_reply_as`) — one pass each way, no
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

use crate::key::{Key, KeyTag, Value};
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

/// Size of an encoded [`Key`] in bytes: 4 (tag) + 8 (a) + 8 (b).
const ENCODED_KEY_BYTES: usize = 20;
/// Size of an encoded [`Value`] in bytes: 8 (x) + 8 (y).
const ENCODED_VALUE_BYTES: usize = 16;
/// Size of an encoded key-value pair in bytes.
const ENCODED_PAIR_BYTES: usize = ENCODED_KEY_BYTES + ENCODED_VALUE_BYTES;

/// Most shards a [`Request::Lease`] may announce.  The count sizes the owner
/// the lease spawns (one pair list per shard it holds), so it is bounded
/// where the frame enters, like a frame's length: 64× the runtime's
/// `MAX_SHARDS`, a few MB of empty shards at worst.
pub const MAX_LEASE_SHARDS: u64 = 65_536;

/// The kind of a [`Request`], without its payload — and, as `kind as u8`,
/// the first byte of its encoding.
///
/// The discriminants *are* the request wire tags: two kinds sharing a value
/// do not compile (E0081), and [`encode_request_into`] writes
/// `request.kind() as u8`, so a kind cannot exist without its tag.  Also the
/// keyspace of the fault-injection schedule
/// ([`crate::transport::RequestFaults`]): "drop the `Commit` of epoch 3 on
/// worker 1".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum RequestKind {
    /// [`Request::Commit`].
    Commit = 0,
    /// [`Request::Advance`].
    Advance = 1,
    /// [`Request::Loads`].
    Loads = 2,
    /// [`Request::Dump`].
    Dump = 3,
    /// [`Request::TotalWrites`].
    TotalWrites = 4,
    /// [`Request::Lease`].
    Lease = 5,
    /// [`Request::Goodbye`].
    Goodbye = 6,
    /// [`Request::FreezeEpoch`] (retired; every owner refuses it).
    FreezeEpoch = 7,
    /// [`Request::PublishEpoch`] (retired; every owner refuses it).
    PublishEpoch = 8,
}

impl RequestKind {
    /// Every kind, for reading a tag byte back.  A kind left out is one the
    /// decoder refuses, which the round-trip and golden-tag tests catch:
    /// their sample builder is a wildcard-free `match` over this enum.
    const ALL: [RequestKind; 9] = [
        RequestKind::Commit,
        RequestKind::Advance,
        RequestKind::Loads,
        RequestKind::Dump,
        RequestKind::TotalWrites,
        RequestKind::Lease,
        RequestKind::Goodbye,
        RequestKind::FreezeEpoch,
        RequestKind::PublishEpoch,
    ];

    fn from_tag(tag: u8) -> Option<RequestKind> {
        Self::ALL.into_iter().find(|kind| *kind as u8 == tag)
    }

    /// *Why* a request of this kind is safe to retransmit.  A wildcard-free
    /// `match`: a kind that is unclassified, unknown or classified twice
    /// does not compile (E0004, E0599, unreachable pattern).
    #[deny(
        unreachable_patterns,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub const fn replay_policy(self) -> ReplayPolicy {
        match self {
            RequestKind::Commit => ReplayPolicy::Deduped,
            RequestKind::Advance => ReplayPolicy::Idempotent,
            RequestKind::FreezeEpoch => ReplayPolicy::Idempotent,
            RequestKind::PublishEpoch => ReplayPolicy::Idempotent,
            RequestKind::Loads => ReplayPolicy::Pure,
            RequestKind::Dump => ReplayPolicy::Pure,
            RequestKind::TotalWrites => ReplayPolicy::Pure,
            RequestKind::Lease => ReplayPolicy::Idempotent,
            RequestKind::Goodbye => ReplayPolicy::Idempotent,
        }
    }
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
/// violation), `Loads` and `Dump` target the newest *completed* epoch (an
/// owner retires an epoch's shards when it publishes the next, so an older
/// one is as much a violation as one not frozen yet).
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
    /// Freeze the writable epoch, open the next one, and publish
    /// the frozen epoch (as a shared `Arc` in-process, as a
    /// [`Reply::Epoch`] payload over the wire).
    Advance {
        /// Index of the epoch being frozen.
        epoch: usize,
    },
    /// Retired: phase 1 of the two-phase advance barrier that clusters
    /// once used instead of [`Request::Advance`].  Every owner refuses it
    /// and ends the session.  The variant and its tag 7 stay only because
    /// tools that tap the wire still decode it.
    FreezeEpoch {
        /// Index of the epoch being frozen.
        epoch: usize,
    },
    /// Retired: phase 2 of the two-phase barrier, refused like
    /// [`Request::FreezeEpoch`].  Its tag 8 stays for the same reason.
    PublishEpoch {
        /// Index of the epoch being published.
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
        /// Total shard count of the client's routing topology, at most
        /// [`MAX_LEASE_SHARDS`] (a serving process drops the connection
        /// beyond it).  A serving process places the owner by
        /// [`crate::remote::owner_range`]`(worker, workers, num_shards)`.
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
    #[deny(
        unreachable_patterns,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
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

    /// The epoch this request names, if it names one: the writable epoch
    /// of a `Commit` / `Advance` / `FreezeEpoch` / `PublishEpoch`, the
    /// completed epoch of a `Loads` / `Dump`.
    #[deny(
        unreachable_patterns,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn epoch(&self) -> Option<usize> {
        match self {
            Request::Commit { epoch, .. }
            | Request::Advance { epoch }
            | Request::FreezeEpoch { epoch }
            | Request::PublishEpoch { epoch }
            | Request::Loads { epoch }
            | Request::Dump { epoch } => Some(*epoch),
            Request::TotalWrites | Request::Lease { .. } | Request::Goodbye => None,
        }
    }
}

/// *Why* a [`Request`] is safe to retransmit — the compiler-checked half of
/// the idempotent-replay guarantee.
///
/// After a reconnect the transport replays every request whose reply is
/// outstanding, so every request must be safe to reach the owner twice.
/// How each one achieves that is protocol design, not an implementation
/// accident, so it is declared in [`RequestKind::replay_policy`], a `match`
/// without a wildcard: a `Request` variant that does not say how it replays
/// does not build.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReplayPolicy {
    /// Applied at most once: a replay inside the dispatch layer's
    /// deduplication window is acknowledged without re-applying
    /// (`Commit`, keyed by its per-session sequence number).
    Deduped,
    /// Re-applying converges: the owner re-acknowledges with the same
    /// observable result (`Advance` republishes the already-frozen epoch;
    /// the session-layer `Lease` and `Goodbye` lifecycle re-attaches or
    /// re-releases; the retired `FreezeEpoch` / `PublishEpoch` are refused
    /// every time).
    Idempotent,
    /// A pure read of completed state with no owner-side effect
    /// (`Loads`, `Dump`, `TotalWrites`).
    Pure,
}

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
    /// [`Request::Advance`] answered with the frozen epoch's contents.  This is the *typed* form of the payload,
    /// for tools and tests: owners encode it from their frozen shards and
    /// clients decode it into shards ([`crate::transport::ClientReply::SharedEpoch`])
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
    /// One entry per owner, in owner order: slice `i` of `N` is
    /// [`crate::remote::owner_range`]`(i, N, num_shards)`.
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

/// A frozen epoch of one owner's shard group as plain data: the typed form
/// of the payload a remote peer fetches in place of the in-process `Arc`
/// hand-off.  The serving path goes from frozen shards to bytes to frozen
/// shards without it; it exists for tools and tests.
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
    /// An owner sends them in its shard's layout order (bucket, then key),
    /// which a replica takes without a copy; any other order reads
    /// identically, since lookups are keyed.
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

/// The first byte of an encoded [`Reply`].  Private to this module, so the
/// reply layout cannot be written or parsed anywhere else (E0603); two tags
/// sharing a value do not compile (E0081).  Requests need no second enum:
/// their tag is `RequestKind as u8`.  Tag 6 was the retired barrier's
/// freeze ack; it stays reserved and is never reused.
#[derive(Clone, Copy)]
#[repr(u8)]
enum ReplyTag {
    Committed = 0,
    Epoch = 1,
    Loads = 2,
    Dump = 3,
    TotalWrites = 4,
    LeaseGranted = 5,
}

impl ReplyTag {
    /// Every tag, for reading the byte back — see [`RequestKind::ALL`].
    const ALL: [ReplyTag; 6] = [
        ReplyTag::Committed,
        ReplyTag::Epoch,
        ReplyTag::Loads,
        ReplyTag::Dump,
        ReplyTag::TotalWrites,
        ReplyTag::LeaseGranted,
    ];

    fn from_tag(tag: u8) -> Option<ReplyTag> {
        Self::ALL.into_iter().find(|known| *known as u8 == tag)
    }
}

fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn put_key(buf: &mut Vec<u8>, key: &Key) {
    // Written in place: the hot encode path of a commit frame must not
    // allocate per pair.
    put_u32(buf, key.tag.code());
    put_u64(buf, key.a);
    put_u64(buf, key.b);
}

fn put_value(buf: &mut Vec<u8>, value: &Value) {
    put_u64(buf, value.x);
    put_u64(buf, value.y);
}

fn put_entries<'a, V>(buf: &mut Vec<u8>, entries: impl ExactSizeIterator<Item = (&'a Key, V)>)
where
    V: ExactSizeIterator<Item = &'a Value>,
{
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
/// [`FrozenEpoch::walk`] for an owner's frozen shards — so the two cannot
/// disagree on the layout.
fn put_epoch<'a, E, V>(buf: &mut Vec<u8>, shards: impl ExactSizeIterator<Item = (u64, E)>)
where
    E: ExactSizeIterator<Item = (&'a Key, V)>,
    V: ExactSizeIterator<Item = &'a Value>,
{
    buf.push(ReplyTag::Epoch as u8);
    put_u32(buf, shards.len() as u32);
    for (writes, entries) in shards {
        put_u64(buf, writes);
        put_entries(buf, entries);
    }
}

/// Exact number of bytes [`put_epoch`] writes for `shards`.
fn epoch_len<'a, E, V>(shards: impl Iterator<Item = (u64, E)>) -> usize
where
    E: Iterator<Item = (&'a Key, V)>,
    V: ExactSizeIterator<Item = &'a Value>,
{
    let entry_len =
        |(_, values): (&Key, V)| ENCODED_KEY_BYTES + 4 + values.len() * ENCODED_VALUE_BYTES;
    let shard_len = |(_, entries): (u64, E)| 8 + 4 + entries.map(entry_len).sum::<usize>();
    1 + 4 + shards.map(shard_len).sum::<usize>()
}

impl EpochFrame {
    /// The frame as [`put_epoch`] walks it.
    fn walk(
        &self,
    ) -> impl ExactSizeIterator<
        Item = (
            u64,
            impl ExactSizeIterator<Item = (&Key, impl ExactSizeIterator<Item = &Value>)>,
        ),
    > {
        self.shards.iter().map(|shard| {
            let entries = shard.entries.iter();
            (
                shard.writes,
                entries.map(|(key, values)| (key, values.iter())),
            )
        })
    }
}

/// Encode a frozen epoch **straight from its shards** as the
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
#[deny(
    unreachable_patterns,
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn encode_request_into(buf: &mut Vec<u8>, request: &Request) {
    buf.clear();
    buf.push(request.kind() as u8);
    match request {
        Request::Commit {
            epoch,
            seq,
            batches,
        } => {
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
        Request::Advance { epoch }
        | Request::FreezeEpoch { epoch }
        | Request::PublishEpoch { epoch }
        | Request::Loads { epoch }
        | Request::Dump { epoch } => put_u64(buf, *epoch as u64),
        Request::TotalWrites | Request::Goodbye => {}
        Request::Lease {
            session,
            worker,
            num_shards,
            workers,
            ttl_ms,
        } => {
            put_u64(buf, *session);
            put_u64(buf, *worker);
            put_u64(buf, *num_shards);
            put_u64(buf, *workers);
            put_u64(buf, *ttl_ms);
        }
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
            buf.push(ReplyTag::Committed as u8);
            put_u64(buf, *epoch as u64);
            put_u64(buf, *accepted);
        }
        Reply::Epoch(frame) => put_epoch(buf, frame.walk()),
        Reply::Loads(loads) => {
            buf.push(ReplyTag::Loads as u8);
            put_u32(buf, loads.len() as u32);
            for load in loads {
                put_u64(buf, load.shard as u64);
                put_u64(buf, load.keys);
                put_u64(buf, load.writes);
                put_u64(buf, load.reads);
            }
        }
        Reply::Dump(entries) => {
            buf.push(ReplyTag::Dump as u8);
            put_entries(
                buf,
                entries.iter().map(|(key, values)| (key, values.iter())),
            );
        }
        Reply::TotalWrites(total) => {
            buf.push(ReplyTag::TotalWrites as u8);
            put_u64(buf, *total);
        }
        Reply::LeaseGranted {
            session,
            ttl_ms,
            resumed,
            shard_map,
        } => {
            buf.push(ReplyTag::LeaseGranted as u8);
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
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Byte cursor that turns out-of-bytes into typed [`ProtoError::Truncated`].
#[derive(Clone)]
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
        #[allow(
            clippy::expect_used,
            reason = "infallible: take() just returned exactly 4 bytes"
        )]
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte take")))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, ProtoError> {
        let bytes = self.take(8, context)?;
        #[allow(
            clippy::expect_used,
            reason = "infallible: take() just returned exactly 8 bytes"
        )]
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte take")))
    }

    fn key(&mut self) -> Result<Key, ProtoError> {
        let bytes = self.take(ENCODED_KEY_BYTES, "key")?;
        // take() guaranteed the length, so the only way to fail is an
        // unassigned tag code — malformed, not truncated.
        key_at(bytes).ok_or(ProtoError::Malformed { context: "key tag" })
    }

    fn value(&mut self) -> Result<Value, ProtoError> {
        Ok(value_at(self.take(ENCODED_VALUE_BYTES, "value")?))
    }

    /// One `(key, values)` entry: the key and its encoded value run.
    fn entry(&mut self) -> Result<(Key, &'a [u8]), ProtoError> {
        let key = self.key()?;
        let values = self.count(ENCODED_VALUE_BYTES, "values")?;
        Ok((key, self.take(values * ENCODED_VALUE_BYTES, "values")?))
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
/// reads: the typed [`EpochFrame`] (tools, tests) or the shards of a
/// [`FrozenEpoch`] (a client's replica).  Two sinks of one walker, so the
/// two cannot disagree on the layout; what a sink *accepts* is its own
/// business — a frame is plain data and takes any entry, a replica refuses
/// an entry without values and a key it already holds.
pub(crate) trait EpochSink: Sized {
    /// One shard under construction.
    type Shard;

    /// An epoch about to receive `shards` shards.  Every count handed to a
    /// sink is already checked against the bytes actually present, so it
    /// is safe to reserve for.
    fn with_shards(shards: usize) -> Self;

    /// Start a shard built by `writes` writes that is about to receive
    /// `entries` entries holding `values` values in all.
    fn shard(writes: u64, entries: usize, values: usize) -> Self::Shard;

    /// Add one entry, its values in commit order.
    fn entry(
        shard: &mut Self::Shard,
        key: Key,
        values: impl ExactSizeIterator<Item = Value>,
    ) -> Result<(), ProtoError>;

    /// Add a complete shard after the ones before it (owner-local order).
    fn push(&mut self, shard: Self::Shard) -> Result<(), ProtoError>;
}

impl EpochSink for EpochFrame {
    type Shard = ShardFrame;

    fn with_shards(shards: usize) -> EpochFrame {
        EpochFrame {
            shards: Vec::with_capacity(shards),
        }
    }

    fn shard(writes: u64, entries: usize, _values: usize) -> ShardFrame {
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

    fn push(&mut self, shard: ShardFrame) -> Result<(), ProtoError> {
        self.shards.push(shard);
        Ok(())
    }
}

/// One encoded key, read in place (the layout [`put_key`] writes); `chunk`
/// is exactly [`ENCODED_KEY_BYTES`] long.  `None` if the tag code is not one
/// a well-formed encoder can produce — a corrupt frame must fail decoding,
/// not panic the decoder's thread.
fn key_at(chunk: &[u8]) -> Option<Key> {
    let mut code = [0u8; 4];
    code.copy_from_slice(&chunk[..4]);
    let word = |at: usize| {
        let mut word = [0u8; 8];
        word.copy_from_slice(&chunk[at..at + 8]);
        u64::from_le_bytes(word)
    };
    Some(Key {
        tag: KeyTag::try_from_code(u32::from_le_bytes(code))?,
        a: word(4),
        b: word(12),
    })
}

/// One encoded value, read in place (the layout [`put_value`] writes);
/// `chunk` is exactly [`ENCODED_VALUE_BYTES`] long.
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
/// payload, so nothing is allocated per key unless the sink does.  A first
/// pass totals the entries' values (failing where the second pass would),
/// so the sink can size a shard's pairs exactly instead of growing them.
fn get_entries<S: EpochSink>(cursor: &mut Cursor<'_>, writes: u64) -> Result<S::Shard, ProtoError> {
    let count = cursor.count(ENCODED_KEY_BYTES + 4, "entries")?;
    let mut ahead = cursor.clone();
    let mut values = 0;
    for _ in 0..count {
        values += ahead.entry()?.1.len() / ENCODED_VALUE_BYTES;
    }
    let mut shard = S::shard(writes, count, values);
    for _ in 0..count {
        let (key, run) = cursor.entry()?;
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
    let mut epoch = S::with_shards(shard_count);
    for _ in 0..shard_count {
        let writes = cursor.u64("shard writes")?;
        epoch.push(get_entries::<S>(cursor, writes)?)?;
    }
    Ok(epoch)
}

/// Decode a [`Request`] from its wire payload.
///
/// The whole buffer must be one message: truncated buffers, unknown tags and
/// trailing bytes are all rejected.
#[deny(
    unreachable_patterns,
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn decode_request(bytes: &[u8]) -> Result<Request, ProtoError> {
    let mut cursor = Cursor::new(bytes);
    let tag = cursor.u8("request tag")?;
    let kind = RequestKind::from_tag(tag).ok_or(ProtoError::UnknownTag {
        kind: "request",
        tag,
    })?;
    let request = match kind {
        RequestKind::Commit => {
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
        RequestKind::Advance => Request::Advance {
            epoch: cursor.u64("advance epoch")? as usize,
        },
        RequestKind::FreezeEpoch => Request::FreezeEpoch {
            epoch: cursor.u64("freeze epoch")? as usize,
        },
        RequestKind::PublishEpoch => Request::PublishEpoch {
            epoch: cursor.u64("publish epoch")? as usize,
        },
        RequestKind::Loads => Request::Loads {
            epoch: cursor.u64("loads epoch")? as usize,
        },
        RequestKind::Dump => Request::Dump {
            epoch: cursor.u64("dump epoch")? as usize,
        },
        RequestKind::TotalWrites => Request::TotalWrites,
        RequestKind::Lease => Request::Lease {
            session: cursor.u64("lease session")?,
            worker: cursor.u64("lease worker")?,
            num_shards: cursor.u64("lease shards")?,
            workers: cursor.u64("lease workers")?,
            ttl_ms: cursor.u64("lease ttl")?,
        },
        RequestKind::Goodbye => Request::Goodbye,
    };
    cursor.finish()?;
    Ok(request)
}

/// Decode a [`Reply`] from its wire payload (same contract as
/// [`decode_request`]).  An epoch payload comes back typed, as an
/// [`EpochFrame`]; clients that read from it take `decode_reply_as`.
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
/// frozen shards with no [`EpochFrame`] in between.  The one place reply tags
/// are matched; same contract as [`decode_request`].
#[deny(
    unreachable_patterns,
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(crate) fn decode_reply_as<S: EpochSink>(bytes: &[u8]) -> Result<Decoded<S>, ProtoError> {
    let mut cursor = Cursor::new(bytes);
    let tag = cursor.u8("reply tag")?;
    let tag = ReplyTag::from_tag(tag).ok_or(ProtoError::UnknownTag { kind: "reply", tag })?;
    let reply = match tag {
        ReplyTag::Epoch => {
            let epoch = get_epoch::<S>(&mut cursor)?;
            cursor.finish()?;
            return Ok(Decoded::Epoch(epoch));
        }
        ReplyTag::Committed => Reply::Committed {
            epoch: cursor.u64("committed epoch")? as usize,
            accepted: cursor.u64("committed count")?,
        },
        ReplyTag::Loads => {
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
        ReplyTag::Dump => Reply::Dump(get_entries::<EpochFrame>(&mut cursor, 0)?.entries),
        ReplyTag::TotalWrites => Reply::TotalWrites(cursor.u64("total writes")?),
        ReplyTag::LeaseGranted => Reply::LeaseGranted {
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
pub(crate) fn refused(refusal: ProtoError) -> std::io::Error {
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

    /// One sample per request kind.  A `match` without a wildcard, so a new
    /// kind cannot stay out of the round-trip, truncation, golden-tag and
    /// mutation tests below.
    fn sample_request(kind: RequestKind) -> Request {
        match kind {
            RequestKind::Commit => Request::Commit {
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
            RequestKind::Advance => Request::Advance { epoch: 0 },
            RequestKind::FreezeEpoch => Request::FreezeEpoch { epoch: 5 },
            RequestKind::PublishEpoch => Request::PublishEpoch { epoch: 5 },
            RequestKind::Loads => Request::Loads { epoch: 17 },
            RequestKind::Dump => Request::Dump {
                epoch: usize::MAX >> 8,
            },
            RequestKind::TotalWrites => Request::TotalWrites,
            RequestKind::Lease => Request::Lease {
                session: u64::MAX,
                worker: 3,
                num_shards: 1024,
                workers: 8,
                ttl_ms: 30_000,
            },
            RequestKind::Goodbye => Request::Goodbye,
        }
    }

    fn sample_requests() -> Vec<Request> {
        RequestKind::ALL.map(sample_request).to_vec()
    }

    /// The samples of one reply tag, held complete the same way.
    fn sample_replies_of(tag: ReplyTag) -> Vec<Reply> {
        let granted = |session, ttl_ms, resumed, shard_map| Reply::LeaseGranted {
            session,
            ttl_ms,
            resumed,
            shard_map,
        };
        let slice = |endpoint: &str, start, end| OwnerSlice {
            endpoint: endpoint.to_owned(),
            start,
            end,
        };
        match tag {
            ReplyTag::Committed => vec![Reply::Committed {
                epoch: 4,
                accepted: 1234,
            }],
            ReplyTag::Epoch => vec![Reply::Epoch(EpochFrame {
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
            })],
            ReplyTag::Loads => vec![Reply::Loads(vec![
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
            ])],
            ReplyTag::Dump => vec![Reply::Dump(vec![(
                Key::of(KeyTag::Successor, 5),
                vec![Value::scalar(6), Value::scalar(7)],
            )])],
            ReplyTag::TotalWrites => vec![Reply::TotalWrites(42)],
            ReplyTag::LeaseGranted => vec![
                granted(7, 0, true, None),
                granted(u64::MAX, 86_400_000, false, None),
                granted(
                    9,
                    30_000,
                    false,
                    Some(ShardMap {
                        epoch: 1,
                        owners: vec![
                            slice("127.0.0.1:7471", 0, 5),
                            slice("127.0.0.1:7472", 5, 5),
                            slice("[::1]:80", 5, 8),
                        ],
                    }),
                ),
            ],
        }
    }

    fn sample_replies() -> Vec<Reply> {
        let tags = ReplyTag::ALL.into_iter();
        tags.flat_map(sample_replies_of).collect()
    }

    /// Both ends renumbering together would pass every round-trip test and
    /// every `wire.*` count, and break an owner that is already running.
    #[test]
    fn wire_tags_are_the_deployed_numbers() {
        let requests = [
            (RequestKind::Commit, 0u8),
            (RequestKind::Advance, 1),
            (RequestKind::Loads, 2),
            (RequestKind::Dump, 3),
            (RequestKind::TotalWrites, 4),
            (RequestKind::Lease, 5),
            (RequestKind::Goodbye, 6),
            (RequestKind::FreezeEpoch, 7),
            (RequestKind::PublishEpoch, 8),
        ];
        assert_eq!(requests.len(), RequestKind::ALL.len());
        for (kind, tag) in requests {
            assert_eq!(encode_request(&sample_request(kind))[0], tag, "{kind}");
        }
        let replies = [
            (ReplyTag::Committed, 0u8),
            (ReplyTag::Epoch, 1),
            (ReplyTag::Loads, 2),
            (ReplyTag::Dump, 3),
            (ReplyTag::TotalWrites, 4),
            (ReplyTag::LeaseGranted, 5),
        ];
        assert_eq!(replies.len(), ReplyTag::ALL.len());
        for (tag, byte) in replies {
            for reply in sample_replies_of(tag) {
                assert_eq!(encode_reply(&reply)[0], byte, "{reply:?}");
            }
        }
        // Reply tag 6, the retired barrier's freeze ack, stays reserved:
        // the frame it framed decodes as no reply at all.
        assert_eq!(
            decode_reply(&[6, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ProtoError::UnknownTag {
                kind: "reply",
                tag: 6
            })
        );
    }

    /// The one rule no type carries: inside this file the epoch payload has
    /// one writer and one parser, so its two in-memory forms (typed frame,
    /// frozen shards) cannot grow two layouts.  Outside this file the tag
    /// cannot be named at all (`ReplyTag` is private).
    #[test]
    fn the_epoch_payload_has_one_writer_and_one_parser() {
        let source = include_str!("proto.rs");
        let code = &source[..source.find("#[cfg(test)]").expect("tests follow the code")];
        let uses = code.matches("ReplyTag::Epoch").count();
        // Its entry in `ReplyTag::ALL`, the push in `put_epoch`, the arm in
        // `decode_reply_as` — and nothing else.
        assert_eq!(uses, 3, "the epoch tag is named at a new site");
        assert_eq!(code.matches("ReplyTag::Epoch as u8").count(), 1, "writers");
        assert_eq!(code.matches("ReplyTag::Epoch =>").count(), 1, "parsers");
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
        let key_at = bytes.len() - ENCODED_PAIR_BYTES;
        bytes[key_at..key_at + 4].copy_from_slice(&999u32.to_le_bytes());
        assert_eq!(
            decode_request(&bytes),
            Err(ProtoError::Malformed { context: "key tag" })
        );
    }

    #[test]
    fn replay_policies_are_the_declared_ones() {
        for kind in RequestKind::ALL {
            let expected = match kind {
                RequestKind::Commit => ReplayPolicy::Deduped,
                RequestKind::Loads | RequestKind::Dump | RequestKind::TotalWrites => {
                    ReplayPolicy::Pure
                }
                _ => ReplayPolicy::Idempotent,
            };
            assert_eq!(kind.replay_policy(), expected, "{kind}");
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
    fn corrupt_counts_cannot_over_allocate() {
        // A Dump reply declaring u32::MAX entries in a 9-byte buffer must be
        // rejected by the count validation, not by an allocation attempt.
        let mut bytes = vec![ReplyTag::Dump as u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(
            decode_reply(&bytes),
            Err(ProtoError::Truncated { context: "entries" })
        );
    }

    // -----------------------------------------------------------------
    // One epoch layout, four code paths: typed-frame and frozen-shard
    // encoders, typed-frame and frozen-shard decoders.
    // -----------------------------------------------------------------

    use crate::slot::Shard;
    use proptest::prelude::*;

    /// An owner's frozen epoch holding `shards` (a repeated key's values
    /// join one run, as an owner's appends would).
    fn frozen(shards: Vec<ShardFrame>) -> FrozenEpoch {
        let (writes, shards): (Vec<u64>, Vec<Shard>) = shards
            .into_iter()
            .map(|shard| {
                let entries = shard.entries.into_iter();
                let pairs =
                    entries.flat_map(|(key, values)| values.into_iter().map(move |v| (key, v)));
                (shard.writes, Shard::freeze(pairs.collect()))
            })
            .unzip();
        FrozenEpoch::new(shards, writes)
    }

    /// The typed form of `epoch`, entries in layout order.
    fn frame_of(epoch: &FrozenEpoch) -> EpochFrame {
        EpochFrame {
            shards: epoch
                .walk()
                .map(|(writes, entries)| ShardFrame {
                    writes,
                    entries: entries
                        .map(|(key, values)| (*key, values.copied().collect()))
                        .collect(),
                })
                .collect(),
        }
    }

    fn encode_frozen(epoch: &FrozenEpoch) -> Vec<u8> {
        let mut bytes = vec![0xEE; 7]; // stale contents must be cleared
        encode_epoch_into(&mut bytes, epoch).expect("a small epoch fits a frame");
        bytes
    }

    fn decode_frozen(bytes: &[u8]) -> Result<FrozenEpoch, ProtoError> {
        match decode_reply_as::<FrozenEpoch>(bytes)? {
            Decoded::Epoch(epoch) => Ok(epoch),
            Decoded::Wire(reply) => panic!("an epoch payload decoded as {reply:?}"),
        }
    }

    fn arbitrary_shards() -> impl Strategy<Value = Vec<ShardFrame>> {
        let key = (0usize..8, any::<u64>(), 0u64..4).prop_map(|(tag, a, b)| Key {
            tag: KeyTag::NAMED[tag],
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

            // (a) frozen shards → bytes → typed frame.
            let from_frozen = encode_frozen(&epoch);
            prop_assert_eq!(decode_reply(&from_frozen), Ok(Reply::Epoch(frame.clone())));

            // (b) typed frame → bytes → frozen shards.
            let from_frame = encode_reply(&Reply::Epoch(frame));
            let replica = decode_frozen(&from_frame).expect("a well-formed epoch decodes");
            prop_assert_eq!(&replica.shards, &epoch.shards);
            prop_assert_eq!(&replica.writes, &epoch.writes);

            // (c) one layout: same iteration order, same bytes.
            prop_assert_eq!(from_frozen, from_frame);
        }

        /// No prefix of an epoch payload decodes, into either sink.
        #[test]
        fn truncated_epochs_are_rejected_at_every_length(shards in arbitrary_shards()) {
            let bytes = encode_frozen(&frozen(shards));
            for len in 0..bytes.len() {
                prop_assert!(decode_frozen(&bytes[..len]).is_err(), "replica prefix of {len} bytes");
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
            decode_frozen(&bytes).err(),
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
            decode_frozen(&crafted(vec![vec![], twice.clone()])).err(),
            Some(ProtoError::Malformed {
                context: "epoch key repeated within a shard"
            })
        );
        // The same key in two *different* shards is two entries.
        let apart = crafted(twice.into_iter().map(|entry| vec![entry]).collect());
        assert_eq!(decode_frozen(&apart).map(|epoch| epoch.shards.len()), Ok(2));
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
                // before a shard's pairs, a `Vec` or a value list is sized
                // by it.
                let expected = Some(ProtoError::Truncated { context });
                assert_eq!(decode_frozen(&bytes).err(), expected, "{context} × {count}");
                assert_eq!(decode_reply(&bytes).err(), expected, "{context} × {count}");
            }
            // Off by one: the bytes run out somewhere further in.
            let mut bytes = bytes.clone();
            bytes[at..at + 4].copy_from_slice(&2u32.to_le_bytes());
            for err in [decode_frozen(&bytes).err(), decode_reply(&bytes).err()] {
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
        assert_eq!(decode_frozen(&trailing).err(), expected);
        assert_eq!(decode_reply(&trailing).err(), expected);

        // The key's 4-byte tag code follows the first shard's header; 999
        // sits in the unassigned gap (11..0x1_0000).
        let mut corrupt = bytes;
        corrupt[17..21].copy_from_slice(&999u32.to_le_bytes());
        let expected = Some(ProtoError::Malformed { context: "key tag" });
        assert_eq!(decode_frozen(&corrupt).err(), expected);
        assert_eq!(decode_reply(&corrupt).err(), expected);
    }

    // -----------------------------------------------------------------
    // Any bytes: no decoder panics, over-allocates, or accepts a second
    // spelling of a message.
    // -----------------------------------------------------------------

    /// Every truncation of `bytes`, every single-bit flip of its first 64
    /// bytes, and `u32::MAX` written over every four-byte window — so over
    /// every count field, wherever the layout puts it.
    fn mutants(bytes: &[u8]) -> Vec<Vec<u8>> {
        let truncations = (0..bytes.len()).map(|len| bytes[..len].to_vec());
        let flips = (0..bytes.len().min(64) * 8).map(|bit| {
            let mut mutant = bytes.to_vec();
            mutant[bit / 8] ^= 1 << (bit % 8);
            mutant
        });
        let counts = (0..bytes.len().saturating_sub(3)).map(|at| {
            let mut mutant = bytes.to_vec();
            mutant[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            mutant
        });
        truncations.chain(flips).chain(counts).collect()
    }

    /// Run one decoder over one mutant, holding what it asks the allocator
    /// for to a fixed multiple of the bytes it was handed: every count is
    /// checked against the bytes left before anything is sized by it.  The
    /// most built per wire byte is a replica's: a 16-byte value becomes a
    /// 40-byte pair in a buffer sized exactly (2.5 bytes per wire byte),
    /// copied at most once into bucket order (2.5), under a directory of at
    /// most two 4-byte slots per pair (0.5); an empty 12-byte shard costs a
    /// 56-byte shard header, its write count and its read counter (6).
    fn decoded_within_budget<T>(mutant: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
        let before = crate::counting_alloc::allocated_bytes();
        let decoded = decode(mutant);
        let spent = crate::counting_alloc::allocated_bytes() - before;
        let budget = 8 * mutant.len() as u64 + 256;
        assert!(
            spent <= budget,
            "decoding {} bytes allocated {spent}: {mutant:?}",
            mutant.len()
        );
        decoded
    }

    /// The entries of each shard in key order: what two decodes of one
    /// payload must agree on when one of them put it in layout order.
    fn sorted(mut frame: EpochFrame) -> EpochFrame {
        for shard in &mut frame.shards {
            shard.entries.sort_by_key(|(key, _)| *key);
        }
        frame
    }

    /// ROADMAP's decode mutation loop.  A mutant either fails typed or
    /// decodes to a value whose encoding is the mutant, byte for byte — the
    /// codec is canonical, so nothing a peer sends is silently read as
    /// something else — and it never panics (under `release-checked`:
    /// never overflows) nor allocates past [`decoded_within_budget`].  An
    /// epoch read into a replica comes back in layout order, so there the
    /// replica must hold exactly what the typed decode of the same bytes
    /// holds.
    #[test]
    fn mutated_frames_fail_typed_or_decode_to_what_they_encode() {
        for request in sample_requests() {
            for mutant in mutants(&encode_request(&request)) {
                if let Ok(decoded) = decoded_within_budget(&mutant, decode_request) {
                    assert_eq!(encode_request(&decoded), mutant, "{decoded:?}");
                }
            }
        }
        let owner_walked = frozen(vec![
            ShardFrame {
                writes: 5,
                entries: (0..6)
                    .map(|a| (k(a), vec![Value::scalar(a); 1 + a as usize % 3]))
                    .collect(),
            },
            ShardFrame::default(),
        ]);
        let mut payloads: Vec<Vec<u8>> = sample_replies().iter().map(encode_reply).collect();
        payloads.push(encode_frozen(&owner_walked));
        for bytes in payloads {
            for mutant in mutants(&bytes) {
                let typed = decoded_within_budget(&mutant, decode_reply);
                if let Ok(decoded) = &typed {
                    assert_eq!(encode_reply(decoded), mutant, "{decoded:?}");
                }
                match decoded_within_budget(&mutant, decode_reply_as::<FrozenEpoch>) {
                    // A replica refuses what a typed frame holds as it came
                    // (an entry without values, a repeated key) — never
                    // the other way round.
                    Err(_) => {}
                    Ok(Decoded::Wire(reply)) => assert_eq!(Ok(reply), typed),
                    Ok(Decoded::Epoch(replica)) => {
                        let Ok(Reply::Epoch(frame)) = typed else {
                            panic!("a replica of what decodes typed as {typed:?}");
                        };
                        assert_eq!(sorted(frame_of(&replica)), sorted(frame));
                    }
                }
            }
        }
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
