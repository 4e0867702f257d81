//! Fault injection for exercising the model's fault-tolerance story.
//!
//! Section 2.1 of the paper argues AMPC is as fault tolerant as MPC: because
//! the contents of `D_{i-1}` never change within round `i`, a failed machine
//! can simply be re-executed from scratch against the same snapshot.  The
//! [`FaultPlan`] lets tests and benches schedule two classes of fault:
//!
//! * **Machine failures** at chosen `(round, machine)` coordinates — the
//!   runtime discards the failed attempt's writes and re-runs the machine.
//! * **Request-level faults** at chosen `(epoch, worker)` coordinates — a
//!   write-side protocol request (`Commit` / `Advance`) is delivered, its
//!   reply is lost in transit, and the transport layer of a
//!   message-passing backend retransmits it, so the owner must apply the
//!   duplicate exactly once (see [`ampc_dds::RequestFaults`]).  Backends
//!   without a transport have nothing to retransmit and ignore these
//!   entries.
//! * **Connection severs** at chosen `(epoch, worker)` coordinates — the
//!   TCP connection to an owner is cut mid-round, right before the commit
//!   targeting that epoch, or the `Advance` freezing it, goes out.  The
//!   socket transport must reconnect (capped exponential backoff), replay
//!   its lease handshake and the outstanding requests idempotently, and
//!   leave the run byte-identical.  Every socket backend advances with the
//!   one `Advance`, a cluster's owners too, so these two hooks reach every
//!   write-side request.  Only the socket backends have a connection to
//!   cut; other backends leave sever entries untouched.
//!
//! In every case the accompanying tests assert results are byte-identical
//! to a fault-free run — the immutable-epoch property that makes restarts
//! and retries safe.

use ampc_dds::proto::RequestKind;
use ampc_dds::RequestFaults;
use std::collections::HashSet;

/// A deterministic schedule of machine failures and request-level faults.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    failures: HashSet<(usize, usize)>,
    /// Scheduled request drops: (kind, epoch, worker).  Epoch coordinates
    /// name the epoch the request targets: `load_input` builds epoch 0, the
    /// round-`r` commit of a run that loaded input builds epoch `r + 1`.
    request_drops: HashSet<(RequestKind, usize, usize)>,
    /// Scheduled connection severs, same coordinates as `request_drops`.
    severs: HashSet<(RequestKind, usize, usize)>,
}

impl FaultPlan {
    /// A plan with no failures.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Schedule the first execution attempt of `machine` in `round` to fail.
    pub fn fail(mut self, round: usize, machine: usize) -> Self {
        self.failures.insert((round, machine));
        self
    }

    /// Schedule failures for every machine of `round`.
    pub fn fail_round(mut self, round: usize, machines: usize) -> Self {
        for m in 0..machines {
            self.failures.insert((round, m));
        }
        self
    }

    /// Schedule the `Commit` request targeting `epoch` on owner `worker`
    /// to lose its reply in transit, forcing the transport to retransmit
    /// it (the owner must apply the duplicate exactly once).  Fires only
    /// if that owner actually receives pairs for the epoch.
    pub fn drop_commit(mut self, epoch: usize, worker: usize) -> Self {
        self.request_drops
            .insert((RequestKind::Commit, epoch, worker));
        self
    }

    /// Schedule the `Advance` request freezing `epoch` on owner `worker`
    /// to lose its reply in transit, forcing the transport to retransmit
    /// it (the owner republishes the already-frozen epoch).
    pub fn drop_advance(mut self, epoch: usize, worker: usize) -> Self {
        self.request_drops
            .insert((RequestKind::Advance, epoch, worker));
        self
    }

    /// Schedule the TCP connection to owner `worker` to be severed
    /// mid-round, right before the `Commit` targeting `epoch` is
    /// transmitted.  The socket transport must reconnect and replay
    /// idempotently; results must stay byte-identical (pinned by
    /// `tests/reconnect.rs`).  Fires only if that owner actually receives
    /// pairs for the epoch; backends without a connection ignore it.
    pub fn sever_connection(mut self, epoch: usize, worker: usize) -> Self {
        self.severs.insert((RequestKind::Commit, epoch, worker));
        self
    }

    /// Like [`FaultPlan::sever_connection`], but cutting the connection
    /// right before the `Advance` freezing `epoch` — the other mid-round
    /// write-side request.  Advances go to every owner, in owner order, so
    /// this fires unconditionally on the socket backends, and on a
    /// cluster owner `worker > 0` after the lower owners' advances of the
    /// same epoch have gone out.
    pub fn sever_before_advance(mut self, epoch: usize, worker: usize) -> Self {
        self.severs.insert((RequestKind::Advance, epoch, worker));
        self
    }

    /// Does the first attempt of `machine` in `round` fail?
    pub fn should_fail(&self, round: usize, machine: usize) -> bool {
        self.failures.contains(&(round, machine))
    }

    /// The scheduled request drops as a transport-level fault schedule
    /// (empty if none are scheduled).
    pub fn request_faults(&self) -> RequestFaults {
        let faults = RequestFaults::none();
        for &(kind, epoch, worker) in &self.request_drops {
            faults.schedule_drop(kind, epoch, worker);
        }
        for &(kind, epoch, worker) in &self.severs {
            faults.schedule_sever(kind, epoch, worker);
        }
        faults
    }

    /// `true` if any request-level faults (drops or severs) are scheduled.
    pub fn has_request_faults(&self) -> bool {
        !self.request_drops.is_empty() || !self.severs.is_empty()
    }

    /// Number of scheduled faults (machine failures, request drops, and
    /// connection severs).
    pub fn len(&self) -> usize {
        self.failures.len() + self.request_drops.len() + self.severs.len()
    }

    /// `true` if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty() && self.request_drops.is_empty() && self.severs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fails() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.should_fail(0, 0));
        assert!(!plan.should_fail(5, 3));
        assert!(!plan.has_request_faults());
        assert!(plan.request_faults().is_empty());
    }

    #[test]
    fn scheduled_failures_fire_once() {
        let plan = FaultPlan::none().fail(2, 1).fail(3, 0);
        assert_eq!(plan.len(), 2);
        assert!(plan.should_fail(2, 1));
        assert!(plan.should_fail(3, 0));
        assert!(!plan.should_fail(2, 0));
        assert!(!plan.should_fail(1, 1));
    }

    #[test]
    fn fail_round_covers_all_machines() {
        let plan = FaultPlan::none().fail_round(1, 4);
        assert_eq!(plan.len(), 4);
        for m in 0..4 {
            assert!(plan.should_fail(1, m));
        }
        assert!(!plan.should_fail(1, 4));
        assert!(!plan.should_fail(0, 0));
    }

    #[test]
    fn request_drops_translate_to_a_transport_schedule() {
        let plan = FaultPlan::none()
            .drop_commit(1, 0)
            .drop_advance(2, 3)
            .fail(0, 0);
        assert_eq!(plan.len(), 3);
        assert!(plan.has_request_faults());
        assert!(!plan.is_empty());

        let faults = plan.request_faults();
        assert!(!faults.is_empty());
        // Exactly the scheduled coordinates fire, each exactly once.
        assert!(!faults.should_drop(RequestKind::Commit, 1, 1));
        assert!(!faults.should_drop(RequestKind::Advance, 1, 0));
        assert!(faults.should_drop(RequestKind::Commit, 1, 0));
        assert!(!faults.should_drop(RequestKind::Commit, 1, 0));
        assert!(faults.should_drop(RequestKind::Advance, 2, 3));
        assert_eq!(faults.dropped(), 2);
        assert!(faults.is_empty());

        // The plan is a pure schedule: converting again starts fresh.
        assert_eq!(plan.request_faults().dropped(), 0);
        assert!(!plan.request_faults().is_empty());
    }

    #[test]
    fn severs_translate_to_a_transport_schedule() {
        let plan = FaultPlan::none()
            .sever_connection(1, 0)
            .sever_before_advance(2, 1);
        assert_eq!(plan.len(), 2);
        assert!(plan.has_request_faults());
        assert!(!plan.is_empty());

        let faults = plan.request_faults();
        assert!(!faults.is_empty());
        assert!(!faults.should_sever(RequestKind::Commit, 1, 1));
        assert!(!faults.should_sever(RequestKind::Advance, 1, 0));
        assert!(faults.should_sever(RequestKind::Commit, 1, 0));
        assert!(!faults.should_sever(RequestKind::Commit, 1, 0));
        assert!(faults.should_sever(RequestKind::Advance, 2, 1));
        assert_eq!(faults.severed(), 2);
        assert_eq!(faults.dropped(), 0);
        assert!(faults.is_empty());
    }
}
