//! The per-machine handle used inside a round.
//!
//! A [`MachineContext`] is what an algorithm's per-machine closure receives.
//! It exposes exactly the operations the model allows within a round:
//!
//! * adaptive **reads** against the snapshot of the previous round's store
//!   (`D_{i-1}`) — each read may depend on the values returned by earlier
//!   reads, which is the defining "adaptive" capability of AMPC.  Reads of
//!   *independent* keys can be batched into one flight with
//!   [`MachineContext::read_many_slice`], or — when the independent keys are
//!   not all in hand at once — queued into the **auto-batching window**
//!   ([`MachineContext::queue_read`] / [`MachineContext::take_read`]),
//!   which coalesces adjacent point reads into one such flight on
//!   whatever backend serves the view.  Either way a batch of `k` keys is
//!   accounted as exactly `k` queries, so batching never changes budget
//!   semantics, only wall-clock cost;
//! * buffered **writes** destined for the current round's store (`D_i`) —
//!   they become visible only after the round completes, committed by the
//!   runtime shard-parallel in deterministic (machine id, write order)
//!   order;
//! * per-machine randomness and the query/write accounting the model's
//!   `O(S)` budgets are stated in.
//!
//! The context is generic over the [`SnapshotView`] it reads, and machine
//! code cannot tell what serves it: the local shared-memory snapshot, a
//! zero-copy epoch published by a channel owner thread, or a replica
//! fetched over the `ampc_dds::proto` wire protocol from a socket-backed
//! owner — the budget ledger and results are identical by construction on
//! all of them.

use crate::config::AmpcConfig;
use ampc_dds::{Key, Snapshot, SnapshotView, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Handle through which a machine interacts with the DDS during one round.
///
/// Generic over the [`SnapshotView`] it reads from, so the same algorithm
/// closure runs unchanged against any DDS backend; `V` defaults to the local
/// [`Snapshot`] view.  Budget accounting lives here, *not* in the view —
/// every backend debits queries identically by construction.
pub struct MachineContext<V: SnapshotView = Snapshot> {
    machine_id: usize,
    round: usize,
    snapshot: V,
    writes: Vec<(Key, Value)>,
    queries: u64,
    budget: u64,
    rng: StdRng,
    /// Auto-batching window: keys queued by [`MachineContext::queue_read`]
    /// but not yet flown.
    queued_reads: Vec<Key>,
    /// Results of the most recent flight, reused flight over flight so the
    /// window runs in O(1) memory with every access cache-hot.
    resolved_now: Vec<Option<Value>>,
    /// Results of the flight before that (tickets stay redeemable across
    /// one subsequent flight — see [`MachineContext::take_read`]).
    resolved_prev: Vec<Option<Value>>,
    /// Absolute ticket index of `resolved_now[0]`.
    resolved_base: usize,
    /// Absolute ticket index of `resolved_prev[0]`.
    prev_base: usize,
    /// Tickets issued so far (the next ticket's absolute index).
    next_ticket: usize,
}

/// Handle to one read queued into the auto-batching window of a
/// [`MachineContext`] (see [`MachineContext::queue_read`]).
///
/// Tickets are only meaningful on the context that issued them, within the
/// round that issued them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadTicket(usize);

impl<V: SnapshotView> MachineContext<V> {
    /// Create the context for `machine_id` in `round`, reading from
    /// `snapshot` (the frozen `D_{round-1}`).
    pub(crate) fn new(machine_id: usize, round: usize, snapshot: V, config: &AmpcConfig) -> Self {
        // Derive a per-(round, machine) RNG stream from the run seed so that
        // re-executing a failed machine reproduces its random choices — the
        // property the paper's fault-tolerance argument needs.
        let stream = config
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((round as u64) << 32)
            .wrapping_add(machine_id as u64);
        MachineContext {
            machine_id,
            round,
            snapshot,
            writes: Vec::new(),
            queries: 0,
            budget: config.round_budget(),
            rng: StdRng::seed_from_u64(stream),
            queued_reads: Vec::new(),
            resolved_now: Vec::new(),
            resolved_prev: Vec::new(),
            resolved_base: 0,
            prev_base: 0,
            next_ticket: 0,
        }
    }

    /// Id of this machine within the round.
    pub fn machine_id(&self) -> usize {
        self.machine_id
    }

    /// Index of the round being executed.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The per-round query/write budget (`O(S)`).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Queries issued so far in this round.
    pub fn queries_issued(&self) -> u64 {
        self.queries
    }

    /// Writes issued so far in this round.
    pub fn writes_issued(&self) -> u64 {
        self.writes.len() as u64
    }

    /// Remaining budget before this machine exceeds `O(S)` communication.
    pub fn remaining_budget(&self) -> u64 {
        self.budget
            .saturating_sub(self.queries + self.writes_issued())
    }

    /// `true` once the machine has used up its communication budget.
    pub fn budget_exhausted(&self) -> bool {
        self.remaining_budget() == 0
    }

    /// Adaptive read: first value stored under `key` in `D_{round-1}`.
    pub fn read(&mut self, key: Key) -> Option<Value> {
        self.queries += 1;
        self.snapshot.get(&key)
    }

    /// Batched adaptive read: look up every key of `keys` in `D_{round-1}`,
    /// `out[i]` receiving the result for `keys[i]`.  Callers pass fixed-size
    /// stack buffers, so a hot loop batches without heap allocation.
    ///
    /// Counts as `keys.len()` queries — budget semantics are *identical* to
    /// issuing [`MachineContext::read`] once per key.  The batch models a
    /// real deployment pipelining independent lookups over the network in
    /// one flight, and in process it overlaps the keys' cache misses, so it
    /// costs less per key than point reads; adaptivity is unaffected
    /// because the next batch may depend on this batch's results.
    ///
    /// # Panics
    /// If `out` is shorter than `keys`.
    pub fn read_many_slice(&mut self, keys: &[Key], out: &mut [Option<Value>]) {
        self.queries += keys.len() as u64;
        self.snapshot.get_many_slice(keys, out);
    }

    /// Width of the auto-batching window: queuing this many reads flushes
    /// the window even before a result is demanded, bounding both the
    /// flight size and the pending-key buffer.
    ///
    /// Sized to match the explicit-batching flight size algorithms use, so
    /// the windowed path pays the same per-flight fixed costs as
    /// [`MachineContext::read_many_slice`] — 64 was 4× the flush (and
    /// result-buffer regrowth) traffic per read, which is exactly the
    /// overhead that showed up as the windowed-vs-batched latency gap in
    /// the `read_latency_backends` bench series.
    pub const READ_WINDOW: usize = 256;

    /// Queue an adaptive point read into the auto-batching window, debiting
    /// one query — exactly what [`MachineContext::read`] would debit.
    ///
    /// The read is not flown yet: it coalesces with every other queued read
    /// into a single [`SnapshotView::get_many_slice`] flight when a result
    /// is first demanded ([`MachineContext::take_read`]), when the window
    /// fills ([`MachineContext::READ_WINDOW`] pending keys), or on an
    /// explicit [`MachineContext::flush_reads`].  Queued reads must
    /// therefore be *independent* — each key was known before any queued
    /// result came back — which is precisely the condition under which the
    /// model lets a real deployment pipeline lookups over the network.
    /// Adaptivity is unaffected: the next window may depend on this
    /// window's results.
    ///
    /// The window runs in **O(1) memory**: it retains the results of the
    /// current flight and the one before it, in two buffers reused for the
    /// whole round, so queuing and redemption never touch cold memory and
    /// never allocate after the first two flights.  Redeem tickets
    /// promptly — a result is gone once two further flights have flown
    /// (see [`MachineContext::take_read`]).
    #[inline]
    pub fn queue_read(&mut self, key: Key) -> ReadTicket {
        self.queries += 1;
        let ticket = ReadTicket(self.next_ticket);
        self.next_ticket += 1;
        self.queued_reads.push(key);
        if self.queued_reads.len() >= Self::READ_WINDOW {
            self.flush_reads();
        }
        ticket
    }

    /// Result of a queued read, flushing the window in one batched flight if
    /// the ticket is still pending.  Free of further query cost — the query
    /// was debited by [`MachineContext::queue_read`].
    ///
    /// # Panics
    /// If the ticket has *expired*: results stay redeemable for the flight
    /// they flew in and one flight beyond, after which the reused window
    /// buffers have moved on.  (For a full window that is at least
    /// [`MachineContext::READ_WINDOW`] subsequent reads.)  Queue → redeem →
    /// queue the next batch, the pipelining pattern the window exists for,
    /// never expires.  Also panics if `ticket` was issued by a *different*
    /// context (tickets are only meaningful on the context — and therefore
    /// the round — that issued them); a foreign ticket whose index happens
    /// to be in range yields another read's value instead, so never carry
    /// tickets across rounds.
    #[inline]
    pub fn take_read(&mut self, ticket: ReadTicket) -> Option<Value> {
        if ticket.0 >= self.resolved_base + self.resolved_now.len() {
            self.flush_reads();
        }
        if ticket.0 >= self.resolved_base {
            return self.resolved_now[ticket.0 - self.resolved_base];
        }
        let lag = ticket.0.wrapping_sub(self.prev_base);
        if ticket.0 >= self.prev_base && lag < self.resolved_prev.len() {
            return self.resolved_prev[lag];
        }
        #[allow(
            clippy::panic,
            reason = "documented contract: an expired ticket is a caller bug (use-after-window), and returning stale data would corrupt the round silently"
        )]
        {
            panic!(
                "read ticket {} expired: the window retains only the current and previous flights (redeem tickets promptly)",
                ticket.0
            )
        }
    }

    /// Fly every read still pending in the auto-batching window as one
    /// batched lookup.  A no-op when nothing is pending; never debits
    /// queries (queuing already did).
    pub fn flush_reads(&mut self) {
        if self.queued_reads.is_empty() {
            return;
        }
        // Rotate the two resolution buffers — the previous flight stays
        // redeemable, the one before it is forgotten — and resolve the
        // pending keys into the freshly reused (cache-hot) buffer.
        std::mem::swap(&mut self.resolved_now, &mut self.resolved_prev);
        self.prev_base = self.resolved_base;
        self.resolved_base = self.next_ticket - self.queued_reads.len();
        self.resolved_now.clear();
        self.resolved_now.resize(self.queued_reads.len(), None);
        self.snapshot
            .get_many_slice(&self.queued_reads, &mut self.resolved_now);
        self.queued_reads.clear();
    }

    /// Reads queued in the auto-batching window but not yet flown.
    pub fn pending_reads(&self) -> usize {
        self.queued_reads.len()
    }

    /// Adaptive read of the `index`-th value stored under `key` (zero-based),
    /// the model's `(x, i)` multi-value addressing.
    pub fn read_indexed(&mut self, key: Key, index: usize) -> Option<Value> {
        self.queries += 1;
        self.snapshot.get_indexed(&key, index)
    }

    /// Number of values stored under `key`.
    pub fn multiplicity(&mut self, key: Key) -> usize {
        self.queries += 1;
        self.snapshot.multiplicity(&key)
    }

    /// Buffer a write of `(key, value)` into `D_round`.
    ///
    /// Writes become visible to other machines only in the next round, after
    /// the runtime commits them.
    pub fn write(&mut self, key: Key, value: Value) {
        self.writes.push((key, value));
    }

    /// Per-machine random number generator.
    ///
    /// Deterministic given (run seed, round, machine id), so a restarted
    /// machine replays the same random choices.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Consume the context, returning its buffered writes and its counters
    /// `(writes, queries)`.
    ///
    /// Flies any reads still pending in the auto-batching window first:
    /// their queries were debited at queue time, so the DDS-side read
    /// accounting must see them even if the machine never redeemed the
    /// tickets — otherwise per-shard read counters would under-count
    /// relative to the budget ledger.
    pub(crate) fn into_parts(mut self) -> (Vec<(Key, Value)>, u64) {
        self.flush_reads();
        (self.writes, self.queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_dds::{KeyTag, ShardedStore};
    use rand::Rng;

    fn test_config() -> AmpcConfig {
        AmpcConfig::for_graph(100, 100, 0.5).with_budget_factor(1.0)
    }

    fn snapshot_with(pairs: &[(u64, u64)]) -> Snapshot {
        let store = ShardedStore::new(4);
        for &(k, v) in pairs {
            store.write(Key::of(KeyTag::Scalar, k), Value::scalar(v));
        }
        store.freeze()
    }

    #[test]
    fn reads_hit_previous_round_snapshot() {
        let snap = snapshot_with(&[(1, 10), (2, 20)]);
        let cfg = test_config();
        let mut ctx = MachineContext::new(0, 1, snap, &cfg);
        assert_eq!(
            ctx.read(Key::of(KeyTag::Scalar, 1)),
            Some(Value::scalar(10))
        );
        assert_eq!(ctx.read(Key::of(KeyTag::Scalar, 3)), None);
        assert_eq!(ctx.queries_issued(), 2);
    }

    #[test]
    fn writes_are_buffered_not_readable() {
        let snap = snapshot_with(&[]);
        let cfg = test_config();
        let mut ctx = MachineContext::new(0, 1, snap, &cfg);
        let key = Key::of(KeyTag::Scalar, 7);
        ctx.write(key, Value::scalar(70));
        // The model forbids reading your own round's writes.
        assert_eq!(ctx.read(key), None);
        assert_eq!(ctx.writes_issued(), 1);
        let (writes, queries) = ctx.into_parts();
        assert_eq!(writes, vec![(key, Value::scalar(70))]);
        assert_eq!(queries, 1);
    }

    #[test]
    fn budget_accounting_counts_reads_and_writes() {
        let snap = snapshot_with(&[]);
        let cfg = test_config(); // budget = 1.0 * sqrt(100) = 10
        let mut ctx = MachineContext::new(0, 1, snap, &cfg);
        assert_eq!(ctx.budget(), 10);
        for i in 0..6u64 {
            let _ = ctx.read(Key::of(KeyTag::Scalar, i));
        }
        for i in 0..4u64 {
            ctx.write(Key::of(KeyTag::Scalar, i), Value::scalar(i));
        }
        assert_eq!(ctx.remaining_budget(), 0);
        assert!(ctx.budget_exhausted());
    }

    #[test]
    fn rng_is_deterministic_per_round_and_machine() {
        let cfg = test_config();
        let draw = |machine: usize, round: usize| -> u64 {
            let mut ctx = MachineContext::new(machine, round, snapshot_with(&[]), &cfg);
            ctx.rng().gen()
        };
        assert_eq!(draw(3, 2), draw(3, 2));
        assert_ne!(draw(3, 2), draw(4, 2));
        assert_ne!(draw(3, 2), draw(3, 3));
    }

    #[test]
    fn batched_read_budget_accounting_matches_single_reads_exactly() {
        let pairs: Vec<(u64, u64)> = (0..40).map(|i| (i, i * 2)).collect();
        let cfg = test_config();
        let keys: Vec<Key> = (0..60u64).map(|i| Key::of(KeyTag::Scalar, i)).collect();

        // One context issues 60 single reads, the other one batched read.
        let mut singles = MachineContext::new(0, 1, snapshot_with(&pairs), &cfg);
        let single_results: Vec<Option<Value>> = keys.iter().map(|&k| singles.read(k)).collect();

        let mut batched = MachineContext::new(0, 1, snapshot_with(&pairs), &cfg);
        let mut batch_results = vec![Some(Value::scalar(999)); keys.len()]; // stale contents must go
        batched.read_many_slice(&keys, &mut batch_results);

        assert_eq!(single_results, batch_results);
        assert_eq!(singles.queries_issued(), 60);
        assert_eq!(batched.queries_issued(), singles.queries_issued());
        assert_eq!(batched.remaining_budget(), singles.remaining_budget());
        assert_eq!(batched.budget_exhausted(), singles.budget_exhausted());
    }

    #[test]
    fn queued_reads_debit_budgets_identically_to_point_reads() {
        // The auto-batching window proof: the same key sequence through
        // queue_read/take_read and through read must produce identical
        // results AND identical budget ledgers at every step.
        let pairs: Vec<(u64, u64)> = (0..40).map(|i| (i, i * 3)).collect();
        let cfg = test_config();
        let keys: Vec<Key> = (0..60u64).map(|i| Key::of(KeyTag::Scalar, i)).collect();

        let mut point = MachineContext::new(0, 1, snapshot_with(&pairs), &cfg);
        let mut windowed = MachineContext::new(0, 1, snapshot_with(&pairs), &cfg);

        let point_results: Vec<Option<Value>> = keys.iter().map(|&k| point.read(k)).collect();
        let tickets: Vec<ReadTicket> = keys.iter().map(|&k| windowed.queue_read(k)).collect();
        // Queuing alone already debited every query, before any flight.
        assert_eq!(windowed.queries_issued(), point.queries_issued());
        assert_eq!(windowed.remaining_budget(), point.remaining_budget());
        let windowed_results: Vec<Option<Value>> =
            tickets.iter().map(|&t| windowed.take_read(t)).collect();

        assert_eq!(windowed_results, point_results);
        assert_eq!(windowed.queries_issued(), 60);
        assert_eq!(windowed.queries_issued(), point.queries_issued());
        assert_eq!(windowed.remaining_budget(), point.remaining_budget());
        assert_eq!(windowed.budget_exhausted(), point.budget_exhausted());
        // The view-side read accounting agrees too: one query per key on
        // both paths.
        assert_eq!(point.snapshot.total_reads(), 60);
        assert_eq!(windowed.snapshot.total_reads(), 60);
    }

    #[test]
    fn unredeemed_queued_reads_still_reach_the_view_accounting() {
        // A machine may queue reads and return without taking them; the
        // queries were debited at queue time, so the round-end teardown
        // must fly them or the DDS-side read counters would under-count.
        let snap = snapshot_with(&[(1, 10), (2, 20)]);
        let cfg = test_config();
        let mut ctx = MachineContext::new(0, 1, snap.clone(), &cfg);
        let _ = ctx.queue_read(Key::of(KeyTag::Scalar, 1));
        let _ = ctx.queue_read(Key::of(KeyTag::Scalar, 999));
        assert_eq!(snap.total_reads(), 0, "window still pending");
        let (_, queries) = ctx.into_parts();
        assert_eq!(queries, 2);
        assert_eq!(snap.total_reads(), 2, "teardown must flush the window");
    }

    #[test]
    fn read_window_flushes_at_capacity_and_on_demand() {
        let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i, i + 1)).collect();
        let cfg = AmpcConfig::for_graph(100_000, 0, 0.5);
        let mut ctx = MachineContext::new(0, 1, snapshot_with(&pairs), &cfg);

        // Below the window width nothing flies until a result is demanded.
        let early = ctx.queue_read(Key::of(KeyTag::Scalar, 0));
        assert_eq!(ctx.pending_reads(), 1);
        assert_eq!(ctx.snapshot.total_reads(), 0);
        assert_eq!(ctx.take_read(early), Some(Value::scalar(1)));
        assert_eq!(ctx.pending_reads(), 0);
        assert_eq!(ctx.snapshot.total_reads(), 1);

        // Filling the window flushes it in one flight, unprompted.
        type Ctx = MachineContext;
        for i in 0..Ctx::READ_WINDOW as u64 - 1 {
            let _ = ctx.queue_read(Key::of(KeyTag::Scalar, i));
            assert_eq!(ctx.pending_reads(), i as usize + 1);
        }
        let last = ctx.queue_read(Key::of(KeyTag::Scalar, 99));
        assert_eq!(ctx.pending_reads(), 0, "full window must auto-flush");
        // Already resolved: taking it costs nothing further.
        let queries_before = ctx.queries_issued();
        assert_eq!(ctx.take_read(last), Some(Value::scalar(100)));
        assert_eq!(ctx.queries_issued(), queries_before);

        // Tickets stay redeemable (and stable) after later windows resolve.
        let stale = ctx.queue_read(Key::of(KeyTag::Scalar, 10));
        let _ = ctx.queue_read(Key::of(KeyTag::Scalar, 11));
        ctx.flush_reads();
        assert_eq!(ctx.take_read(stale), Some(Value::scalar(11)));
        assert_eq!(ctx.take_read(last), Some(Value::scalar(100)));
    }

    #[test]
    #[should_panic(expected = "read ticket 0 expired")]
    fn stale_tickets_panic_instead_of_yielding_other_reads() {
        // The window retains the current and previous flights only (O(1)
        // memory); a ticket held across two further flights must fail
        // loudly, never alias another read's slot.
        let pairs: Vec<(u64, u64)> = (0..10).map(|i| (i, i)).collect();
        let cfg = AmpcConfig::for_graph(100_000, 0, 0.5);
        let mut ctx = MachineContext::new(0, 1, snapshot_with(&pairs), &cfg);
        let stale = ctx.queue_read(Key::of(KeyTag::Scalar, 0));
        ctx.flush_reads(); // flight 1: [stale]
        let _ = ctx.queue_read(Key::of(KeyTag::Scalar, 1));
        ctx.flush_reads(); // flight 2: stale now previous
        let _ = ctx.queue_read(Key::of(KeyTag::Scalar, 2));
        ctx.flush_reads(); // flight 3: stale forgotten
        let _ = ctx.take_read(stale);
    }

    #[test]
    fn multiplicity_and_indexed_reads() {
        let store = ShardedStore::new(2);
        let key = Key::of(KeyTag::Scalar, 5);
        store.write(key, Value::scalar(1));
        store.write(key, Value::scalar(2));
        let cfg = test_config();
        let mut ctx = MachineContext::new(0, 1, store.freeze(), &cfg);
        assert_eq!(ctx.multiplicity(key), 2);
        assert_eq!(ctx.read_indexed(key, 1), Some(Value::scalar(2)));
        assert_eq!(ctx.read_indexed(key, 2), None);
        assert_eq!(ctx.queries_issued(), 3);
    }
}
