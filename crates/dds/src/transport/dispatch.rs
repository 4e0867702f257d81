//! Dispatch layer: applying decoded requests against the owner state.
//!
//! [`Worker`] is the single-threaded state machine of one shard-group
//! owner.  It is transport-generic — the identical loop runs behind
//! in-process channels, paired sockets and `ampc_dds::serve` sessions — and
//! it owns the *idempotency* that makes the session layer's replay safe:
//!
//! * `Commit` requests are deduplicated over a bounded window of recently
//!   applied sequence numbers, kept **per `(session, worker)`**: each
//!   session that reaches this worker gets its own window, so two clients
//!   of one owner can never evict each other's replay memory.  The window
//!   must be at least as deep as the client's maximum pipeline of
//!   outstanding commits: a reconnect replays *all* of them, and every
//!   already-applied one must be re-acknowledged from the window rather
//!   than re-applied.  (A single-entry "last seq" memory — sufficient when
//!   one request was in flight at a time — would re-apply every replayed
//!   commit but the newest.)
//! * `Advance` retransmissions re-publish the already-frozen epoch — the
//!   newest one, which is the only one whose maps the owner retains: an
//!   epoch is retired the moment its successor is published (a view a
//!   client holds stays valid through its own `Arc`), so a session of any
//!   length holds one frozen epoch, not all of them.
//! * `FreezeEpoch` / `PublishEpoch` — the cluster's two-phase barrier —
//!   are each idempotent: a replayed freeze of a prepared (or published)
//!   epoch is re-acked, a replayed publish re-sends the published frame,
//!   and a prepared-but-unpublished epoch survives a reconnect and is
//!   publishable afterwards.
//! * `Loads` / `Dump` / `TotalWrites` are pure reads.
//!
//! Connection-lifecycle requests (`Lease`, `Goodbye`) are consumed entirely
//! by the session layer and never reach dispatch.

use crate::hashing::FxHashMap;
use crate::proto::{Reply, Request};
use crate::slot::{freeze_in_place, push_pair, SlotMap};
use crate::snapshot::FrozenEpoch;
use crate::stats::ShardLoad;
use crate::transport::session::{MAX_PIPELINE, PIPELINE_DEPTH};
use crate::transport::{OwnerReply, ServerTransport};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Commit acknowledgements remembered for deduplication.  Must exceed the
/// deepest request pipeline a client can have outstanding
/// ([`PIPELINE_DEPTH`] decode-ahead plus the frames buffered in the
/// sockets), so a reconnect's full replay is absorbed without re-applying.
const COMMIT_REPLAY_WINDOW: usize = 256;

// A reconnect replays up to a full pipeline of outstanding commits, and the
// window must still recognize all of them plus the new traffic pipelined
// behind the replay — or a replayed commit is applied twice.
const _: () =
    assert!(COMMIT_REPLAY_WINDOW >= 2 * PIPELINE_DEPTH && COMMIT_REPLAY_WINDOW >= MAX_PIPELINE);

/// The single-threaded state of one shard-group owner, serving
/// [`crate::proto`] requests over any [`ServerTransport`].
pub(crate) struct Worker {
    /// Global shard ids owned by this worker (ascending).
    shard_ids: Vec<usize>,
    /// Writable maps of the current epoch, one per owned shard.
    writable: Vec<SlotMap>,
    /// Writes accepted into the current epoch, per owned shard.
    writable_writes: Vec<u64>,
    /// Epochs published so far.
    published: usize,
    /// The newest published epoch (`published - 1`): what a retransmitted
    /// `Advance` / `PublishEpoch` re-sends and what `Loads` / `Dump` serve.
    /// Publishing its successor drops the owner's handle on it.
    latest: Option<Arc<FrozenEpoch>>,
    /// An epoch frozen by `FreezeEpoch` but not yet released by
    /// `PublishEpoch` — phase 1 of the two-phase barrier parks it here, so
    /// it is never observable through `Loads` / `Dump` (which only see
    /// `latest`) until every owner has acked its freeze and the coordinator
    /// publishes.
    prepared: Option<Arc<FrozenEpoch>>,
    /// Total writes accepted across all epochs.
    total_writes: u64,
    /// `(seq, accepted)` of recently applied commits, oldest first, bounded
    /// by [`COMMIT_REPLAY_WINDOW`] **per session**: a retransmitted commit
    /// (its ack lost in transit, or a severed pipeline replayed) is
    /// re-acknowledged from here without being re-applied — at-least-once
    /// delivery, exactly-once application.  Keyed by session so that when
    /// one worker serves several clients, their seq spaces stay isolated
    /// and one client's burst cannot evict another's replay window.
    recent_commits: FxHashMap<u64, VecDeque<(u64, u64)>>,
}

impl Worker {
    pub(crate) fn new(shard_ids: Vec<usize>) -> Worker {
        Worker {
            writable: vec![SlotMap::default(); shard_ids.len()],
            writable_writes: vec![0; shard_ids.len()],
            shard_ids,
            published: 0,
            latest: None,
            prepared: None,
            total_writes: 0,
            recent_commits: FxHashMap::default(),
        }
    }

    /// Serve requests until the client goes away.  Transport-generic: the
    /// identical loop runs behind in-process channels and sockets.  Behind
    /// the pipelined TCP server this loop *is* the dispatch stage — the
    /// reader stage decodes ahead and the writer stage flushes behind, so
    /// `recv_request` and `send_reply` only touch bounded in-process
    /// queues.
    pub(crate) fn serve<S: ServerTransport>(mut self, transport: &mut S) {
        while let Some(request) = transport.recv_request() {
            let session = transport.session();
            let reply = self.handle(session, request);
            if !transport.send_reply(reply) {
                break;
            }
        }
    }

    /// The completed epoch `epoch`, validated (protocol violations are owner
    /// bugs or a confused client and panic — the transport layer turns the
    /// dead connection into a typed error on the client side).  Only the
    /// newest completed epoch can be served; an older one is refused like
    /// one that never existed.
    fn completed(&self, epoch: usize, what: &str) -> &Arc<FrozenEpoch> {
        assert!(
            epoch < self.published,
            "owner asked to {what} unknown epoch {epoch} ({} completed)",
            self.published
        );
        #[allow(
            clippy::panic,
            reason = "owner-side protocol violation: panics are the owner's error surface, harvested into TransportError::PeerClosed at the round boundary"
        )]
        self.newest(epoch).unwrap_or_else(|| {
            panic!(
                "owner asked to {what} retired epoch {epoch} (of {} completed, only the newest is retained)",
                self.published
            )
        })
    }

    /// The newest published epoch, if `epoch` names it — the one a
    /// retransmitted `Advance` / `PublishEpoch` is answered with again.
    fn newest(&self, epoch: usize) -> Option<&Arc<FrozenEpoch>> {
        self.latest.as_ref().filter(|_| epoch + 1 == self.published)
    }

    /// Publish `epoch` as the newest completed one, retiring its
    /// predecessor.
    fn publish(&mut self, epoch: Arc<FrozenEpoch>) -> OwnerReply {
        self.published += 1;
        self.latest = Some(epoch.clone());
        OwnerReply::Epoch(epoch)
    }

    /// Freeze the writable maps in place and hand them over as one epoch;
    /// shared by `Advance` (freeze + publish in one step) and
    /// `FreezeEpoch` (phase 1 of the barrier, which parks the result).
    fn freeze_writable(&mut self) -> Arc<FrozenEpoch> {
        let shard_count = self.shard_ids.len();
        // In-place freeze: reuse the writable maps as the frozen maps,
        // only shrinking the rare multi-value slots.
        let mut shards =
            std::mem::replace(&mut self.writable, vec![SlotMap::default(); shard_count]);
        freeze_in_place(&mut shards, 1);
        let writes = std::mem::replace(&mut self.writable_writes, vec![0; shard_count]);
        Arc::new(FrozenEpoch::new(shards, writes))
    }

    /// Index of the epoch commits currently build: the published count,
    /// plus one if an epoch is frozen-but-unpublished (its successor is
    /// already accepting writes while the barrier completes).
    fn writable_epoch(&self) -> usize {
        self.published + usize::from(self.prepared.is_some())
    }

    #[deny(
        unreachable_patterns,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn handle(&mut self, session: u64, request: Request) -> OwnerReply {
        match request {
            Request::Commit {
                epoch,
                seq,
                batches,
            } => {
                // Deduplicate before validating the epoch: a replayed
                // pipeline can carry commits of an epoch that has since
                // been frozen, and those must be re-acked, not asserted on.
                let window = self.recent_commits.entry(session).or_default();
                if let Some(&(_, accepted)) = window.iter().find(|&&(applied, _)| applied == seq) {
                    return OwnerReply::Wire(Reply::Committed { epoch, accepted });
                }
                assert_eq!(
                    epoch,
                    self.writable_epoch(),
                    "commit must target the writable epoch"
                );
                let mut accepted = 0u64;
                for (local, pairs) in batches {
                    accepted += pairs.len() as u64;
                    self.writable_writes[local] += pairs.len() as u64;
                    self.total_writes += pairs.len() as u64;
                    let map = &mut self.writable[local];
                    map.reserve(pairs.len());
                    for (key, value) in pairs {
                        push_pair(map, key, value);
                    }
                }
                #[allow(
                    clippy::expect_used,
                    reason = "infallible: the entry was inserted a few lines up"
                )]
                let window = self
                    .recent_commits
                    .get_mut(&session)
                    .expect("window created above");
                window.push_back((seq, accepted));
                if window.len() > COMMIT_REPLAY_WINDOW {
                    window.pop_front();
                }
                OwnerReply::Wire(Reply::Committed { epoch, accepted })
            }
            Request::Advance { epoch } => {
                assert!(
                    self.prepared.is_none(),
                    "advance while an epoch is prepared: a connection must \
                     speak either the one-shot advance or the two-phase \
                     barrier, not both"
                );
                // Retransmission of the advance that froze the last epoch
                // (its reply was lost): republish it unchanged.
                if let Some(replay) = self.newest(epoch) {
                    return OwnerReply::Epoch(replay.clone());
                }
                assert_eq!(
                    epoch, self.published,
                    "advance must freeze the writable epoch"
                );
                let epoch = self.freeze_writable();
                self.publish(epoch)
            }
            Request::FreezeEpoch { epoch } => {
                if self.prepared.is_some() {
                    // A replayed freeze of the epoch already parked: re-ack
                    // without touching the writable maps (which now belong
                    // to the next epoch).
                    assert_eq!(
                        epoch, self.published,
                        "freeze replay must name the prepared epoch"
                    );
                    return OwnerReply::Wire(Reply::EpochFrozen { epoch });
                }
                if epoch + 1 == self.published {
                    // Freeze and publish both completed before the replay
                    // arrived (the sever hit after the barrier finished).
                    return OwnerReply::Wire(Reply::EpochFrozen { epoch });
                }
                assert_eq!(
                    epoch, self.published,
                    "freeze must target the writable epoch"
                );
                self.prepared = Some(self.freeze_writable());
                OwnerReply::Wire(Reply::EpochFrozen { epoch })
            }
            Request::PublishEpoch { epoch } => {
                // Retransmission of a publish whose reply was lost: re-send
                // the identical frame.
                if let Some(replay) = self.newest(epoch) {
                    return OwnerReply::Epoch(replay.clone());
                }
                assert_eq!(
                    epoch, self.published,
                    "publish must name the prepared epoch"
                );
                #[allow(
                    clippy::expect_used,
                    reason = "owner-side protocol violation: panics are the owner's error surface, harvested into TransportError::PeerClosed at the round boundary"
                )]
                let prepared = self
                    .prepared
                    .take()
                    .expect("publish without a prepared freeze");
                self.publish(prepared)
            }
            Request::Loads { epoch } => {
                let epoch = self.completed(epoch, "report loads of");
                let loads = self
                    .shard_ids
                    .iter()
                    .enumerate()
                    .map(|(local, &shard)| ShardLoad {
                        shard,
                        keys: epoch.shards[local].len() as u64,
                        writes: epoch.writes[local],
                        reads: epoch.reads[local].load(Ordering::Relaxed),
                    })
                    .collect();
                OwnerReply::Wire(Reply::Loads(loads))
            }
            Request::Dump { epoch } => {
                let epoch = self.completed(epoch, "dump");
                let mut entries = Vec::new();
                for shard in &epoch.shards {
                    for (key, slot) in shard {
                        entries.push((*key, slot.as_slice().to_vec()));
                    }
                }
                OwnerReply::Wire(Reply::Dump(entries))
            }
            Request::TotalWrites => OwnerReply::Wire(Reply::TotalWrites(self.total_writes)),
            // Connection-lifecycle requests are consumed by the transport /
            // serve layer and must never reach the owner state machine; one
            // arriving here is a protocol bug, surfaced like any other
            // owner-side violation (panic, harvested into a typed error).
            #[allow(
                clippy::panic,
                reason = "owner-side protocol violation: panics are the owner's error surface, harvested into TransportError::PeerClosed at the round boundary"
            )]
            Request::Lease { .. } | Request::Goodbye => {
                panic!("connection-lifecycle request leaked into the owner state machine")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{Key, KeyTag, Value};

    fn commit(seq: u64, epoch: usize, pairs: u64) -> Request {
        Request::Commit {
            epoch,
            seq,
            batches: vec![(
                0,
                (0..pairs)
                    .map(|i| (Key::of(KeyTag::Scalar, seq * 100 + i), Value::scalar(i)))
                    .collect(),
            )],
        }
    }

    fn accepted(reply: OwnerReply) -> u64 {
        match reply {
            OwnerReply::Wire(Reply::Committed { accepted, .. }) => accepted,
            _ => panic!("expected a commit ack"),
        }
    }

    #[test]
    fn replayed_pipelines_are_reacked_from_the_window_not_reapplied() {
        let mut worker = Worker::new(vec![0]);
        // A pipeline of six commits lands…
        for seq in 0..6 {
            assert_eq!(accepted(worker.handle(0, commit(seq, 0, 3))), 3);
        }
        assert_eq!(worker.total_writes, 18);
        // …then the connection severs and the client replays all six (its
        // acks were in flight).  Every one must be re-acked with the
        // original count, none re-applied — a single-entry "last seq"
        // memory would only catch seq 5.
        for seq in 0..6 {
            assert_eq!(accepted(worker.handle(0, commit(seq, 0, 3))), 3);
        }
        assert_eq!(worker.total_writes, 18, "replay must not double-apply");

        // Fresh sequence numbers still apply normally after the replay.
        assert_eq!(accepted(worker.handle(0, commit(6, 0, 2))), 2);
        assert_eq!(worker.total_writes, 20);
    }

    #[test]
    fn replayed_commits_of_a_frozen_epoch_are_reacked() {
        let mut worker = Worker::new(vec![0]);
        assert_eq!(accepted(worker.handle(0, commit(0, 0, 4))), 4);
        // The epoch freezes while the commit's ack is lost in flight…
        let OwnerReply::Epoch(_) = worker.handle(0, Request::Advance { epoch: 0 }) else {
            panic!("advance must publish the epoch");
        };
        // …and the replayed commit still names epoch 0.  The window must
        // re-ack it (the epoch assert would otherwise reject the replay).
        assert_eq!(accepted(worker.handle(0, commit(0, 0, 4))), 4);
        assert_eq!(worker.total_writes, 4);
    }

    #[test]
    fn the_window_is_bounded() {
        let mut worker = Worker::new(vec![0]);
        for seq in 0..(2 * COMMIT_REPLAY_WINDOW as u64) {
            worker.handle(0, commit(seq, 0, 1));
        }
        let window = &worker.recent_commits[&0];
        assert_eq!(window.len(), COMMIT_REPLAY_WINDOW);
        // The retained half is the most recent — the half a replay can
        // still name.
        assert_eq!(
            window.front().map(|&(seq, _)| seq),
            Some(COMMIT_REPLAY_WINDOW as u64)
        );
    }

    #[test]
    fn concurrent_sessions_cannot_evict_each_others_replay_windows() {
        // Two clients of one owner, overlapping seq spaces.  Session B
        // bursts a full window's worth of commits; session A's older seqs
        // must still be re-acked from A's own window — with a single
        // shared window, B's burst would have evicted them and the replay
        // would double-apply.
        let mut worker = Worker::new(vec![0]);
        for seq in 0..4 {
            assert_eq!(accepted(worker.handle(7, commit(seq, 0, 2))), 2);
        }
        for seq in 0..COMMIT_REPLAY_WINDOW as u64 {
            assert_eq!(accepted(worker.handle(8, commit(seq, 0, 1))), 1);
        }
        let before = worker.total_writes;
        // Both clients sever and replay concurrently (interleaved).
        for seq in 0..4 {
            assert_eq!(
                accepted(worker.handle(7, commit(seq, 0, 2))),
                2,
                "session 7's replay of seq {seq} must re-ack, not re-apply"
            );
            assert_eq!(accepted(worker.handle(8, commit(seq, 0, 1))), 1);
        }
        assert_eq!(
            worker.total_writes, before,
            "neither session's replay may double-apply"
        );
    }

    #[test]
    fn freeze_then_publish_equals_advance_and_is_idempotent() {
        let mut worker = Worker::new(vec![0]);
        assert_eq!(accepted(worker.handle(0, commit(0, 0, 3))), 3);

        // Phase 1: the epoch freezes but stays unpublished — Loads/Dump
        // must not see it yet (no mixed epoch is ever observable).
        let OwnerReply::Wire(Reply::EpochFrozen { epoch: 0 }) =
            worker.handle(0, Request::FreezeEpoch { epoch: 0 })
        else {
            panic!("freeze must be acked");
        };
        assert_eq!(worker.published, 0, "prepared epochs are not published");

        // A replayed freeze (reply lost, connection replayed) re-acks.
        let OwnerReply::Wire(Reply::EpochFrozen { epoch: 0 }) =
            worker.handle(0, Request::FreezeEpoch { epoch: 0 })
        else {
            panic!("freeze replay must be re-acked");
        };
        assert_eq!(worker.published, 0);

        // Commits for the *next* epoch are already accepted while the
        // barrier is still completing.
        assert_eq!(accepted(worker.handle(0, commit(1, 1, 2))), 2);

        // Phase 2 publishes the prepared epoch…
        let OwnerReply::Epoch(published) = worker.handle(0, Request::PublishEpoch { epoch: 0 })
        else {
            panic!("publish must answer with the epoch");
        };
        assert_eq!(published.writes, vec![3]);
        assert_eq!(worker.published, 1);

        // …and a replayed publish after a reconnect re-sends the same
        // frame (a prepared-but-unpublished epoch must be re-publishable
        // idempotently; an already-published one re-publishes).
        let OwnerReply::Epoch(replayed) = worker.handle(0, Request::PublishEpoch { epoch: 0 })
        else {
            panic!("publish replay must answer with the epoch");
        };
        assert!(Arc::ptr_eq(&published, &replayed));
        assert_eq!(worker.published, 1, "replay must not double-publish");

        // A replayed freeze of the now-published epoch is also re-acked.
        let OwnerReply::Wire(Reply::EpochFrozen { epoch: 0 }) =
            worker.handle(0, Request::FreezeEpoch { epoch: 0 })
        else {
            panic!("freeze replay after publish must be re-acked");
        };
        assert_eq!(worker.published, 1);
    }

    #[test]
    fn a_thousand_advances_retain_one_epoch_and_every_write() {
        let mut worker = Worker::new(vec![0]);
        let mut views = Vec::new();
        let mut sent = 0u64;
        for epoch in 0..1_000usize {
            let pairs = epoch as u64 % 5;
            assert_eq!(
                accepted(worker.handle(0, commit(epoch as u64, epoch, pairs))),
                pairs
            );
            sent += pairs;
            let OwnerReply::Epoch(published) = worker.handle(0, Request::Advance { epoch }) else {
                panic!("advance must publish the epoch");
            };
            assert_eq!(published.writes, vec![pairs]);
            views.push(Arc::downgrade(&published));
            // The client drops its view; whether the maps live on is now
            // the owner's decision alone.
        }
        // Every superseded epoch is gone; the newest is held, re-sent to a
        // retransmitted advance, and still served.
        let (latest, retired) = views.split_last().unwrap();
        assert!(retired.iter().all(|epoch| epoch.upgrade().is_none()));
        let latest = latest.upgrade().expect("the newest epoch is retained");
        let OwnerReply::Epoch(replayed) = worker.handle(0, Request::Advance { epoch: 999 }) else {
            panic!("advance replay must republish the epoch");
        };
        assert!(Arc::ptr_eq(&latest, &replayed));
        let OwnerReply::Wire(Reply::Loads(loads)) = worker.handle(0, Request::Loads { epoch: 999 })
        else {
            panic!("loads of the newest epoch must be served");
        };
        assert_eq!(loads[0].writes, 999 % 5);
        // The audit is exact without any of the retired maps.
        let OwnerReply::Wire(Reply::TotalWrites(total)) = worker.handle(0, Request::TotalWrites)
        else {
            panic!("total-writes must be answered");
        };
        assert_eq!(total, sent);
        // A view the client kept outlives the owner's handle on it.
        drop(replayed);
        worker.handle(0, Request::Advance { epoch: 1_000 });
        assert_eq!(Arc::strong_count(&latest), 1, "the owner let go of it");
        assert_eq!(latest.writes, vec![999 % 5]);
    }

    #[test]
    #[should_panic(expected = "dump retired epoch 0")]
    fn a_retired_epoch_is_refused_like_an_unknown_one() {
        let mut worker = Worker::new(vec![0]);
        worker.handle(0, Request::Advance { epoch: 0 });
        worker.handle(0, Request::Advance { epoch: 1 });
        worker.handle(0, Request::Dump { epoch: 0 });
    }

    #[test]
    #[should_panic(expected = "publish without a prepared freeze")]
    fn publish_without_freeze_is_a_protocol_violation() {
        let mut worker = Worker::new(vec![0]);
        worker.handle(0, Request::PublishEpoch { epoch: 0 });
    }
}
