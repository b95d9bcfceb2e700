//! The global epoch-dependency DAG (paper Fig. 7, §VI-A).
//!
//! Epochs are nodes; edges point from an epoch to the epochs it depends
//! on: its predecessor on the same thread (intra-thread persist-barrier
//! order) and at most one cross-thread source epoch. The paper's
//! Lemma 0.1 argues this graph is acyclic because both endpoints of a
//! cross dependency start *new* epochs when the dependency is created;
//! [`DepGraph::topological_order`] machine-checks that on every graph we
//! build (Theorem 1's existence of a safe epoch follows from it).
//!
//! The graph also records which epochs committed before a crash, which the
//! [`oracle`](crate::oracle) needs to verify Lemma 1.1 (committed epochs
//! are durable).
//!
//! ## Storage
//!
//! Per-thread epoch timestamps are small consecutive integers (the engine
//! opens them with `cur_ts + 1`), so all per-epoch state lives in dense
//! per-thread vectors indexed by timestamp — no hashing anywhere, and
//! every iterator walks threads in id order and epochs in timestamp
//! order, keeping iteration deterministic. The acyclicity check runs
//! Kahn's algorithm over the same lanes (the same-thread edge implicit,
//! the cross edges in one CSR array), so it is linear in epochs plus
//! edges; the oracle runs it at every checked crash point.

use asap_sim_core::{EpochId, ThreadId};

/// Per-epoch record, indexed by `[thread][ts]`.
#[derive(Debug, Clone, Default)]
struct EpochSlot {
    /// Whether this epoch was ever registered (the vectors grow past
    /// unregistered timestamps when a later epoch is ensured first).
    exists: bool,
    committed: bool,
    /// Cross-thread source epochs this epoch depends on.
    cross: Vec<EpochId>,
    /// Clock value at which the epoch was first registered.
    created_at: Option<u64>,
    /// Clock value at which the epoch committed.
    committed_at: Option<u64>,
}

/// The epoch dependency graph of one simulation run.
///
/// # Example
///
/// ```
/// use asap_core::DepGraph;
/// use asap_sim_core::{EpochId, ThreadId};
///
/// let mut g = DepGraph::new();
/// let a = EpochId::new(ThreadId(0), 0);
/// let b = EpochId::new(ThreadId(1), 0);
/// g.ensure(a);
/// g.ensure(b);
/// g.add_cross_dep(b, a); // b depends on a
/// assert_eq!(g.direct_deps(b), vec![a]);
/// // Acyclic, so a topological order exists; a comes first.
/// assert_eq!(g.topological_order(), Some(vec![a, b]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Dense per-thread epoch state, indexed `[thread.0][ts]`.
    threads: Vec<Vec<EpochSlot>>,
    /// Registered-epoch count (slots with `exists`).
    num_epochs: usize,
    /// Monotonic registration/commit clock. The simulator is
    /// single-threaded, so "epoch A committed before epoch B was even
    /// created" is a sound real-time ordering witness: every write of A
    /// was durable before any write of B executed. The persist-race
    /// detector uses it to suppress pairs the dependency edges alone
    /// cannot order (edges are only recorded when the hardware needs
    /// them — an already-committed source epoch never gets one).
    clock: u64,
    /// Monotonic mutation counter, distinct from `clock`: bumped on every
    /// structural change (new epoch registered, cross edge recorded,
    /// epoch committed). `clock` deliberately does *not* advance when a
    /// cross edge is added to an existing epoch — its stamps feed the
    /// race detector — so the crash-space explorer keys its pruning
    /// digest on this counter instead.
    version: u64,
}

impl DepGraph {
    /// Create an empty graph.
    pub fn new() -> DepGraph {
        DepGraph::default()
    }

    #[inline]
    fn slot(&self, e: EpochId) -> Option<&EpochSlot> {
        self.threads
            .get(e.thread.0)?
            .get(e.ts as usize)
            .filter(|s| s.exists)
    }

    /// Register an epoch as existing.
    pub fn ensure(&mut self, e: EpochId) {
        let t = e.thread.0;
        if t >= self.threads.len() {
            self.threads.resize_with(t + 1, Vec::new);
        }
        let ts = e.ts as usize;
        let lane = &mut self.threads[t];
        if ts >= lane.len() {
            lane.resize_with(ts + 1, EpochSlot::default);
        }
        let slot = &mut lane[ts];
        if !slot.exists {
            slot.exists = true;
            self.clock += 1;
            self.version += 1;
            slot.created_at = Some(self.clock);
            self.num_epochs += 1;
        }
    }

    /// Record that `dependent` must persist after `source` (cross-thread
    /// dependency from coherence / acquire-release).
    pub fn add_cross_dep(&mut self, dependent: EpochId, source: EpochId) {
        self.ensure(dependent);
        self.ensure(source);
        self.version += 1;
        self.threads[dependent.thread.0][dependent.ts as usize]
            .cross
            .push(source);
    }

    /// Mark an epoch committed.
    pub fn mark_committed(&mut self, e: EpochId) {
        self.ensure(e);
        let slot = &mut self.threads[e.thread.0][e.ts as usize];
        if !slot.committed {
            slot.committed = true;
            self.clock += 1;
            self.version += 1;
            slot.committed_at = Some(self.clock);
        }
    }

    /// Whether an epoch committed before the end of the run.
    pub fn is_committed(&self, e: EpochId) -> bool {
        self.slot(e).is_some_and(|s| s.committed)
    }

    /// All committed epochs, in (thread, timestamp) order.
    pub fn committed(&self) -> impl Iterator<Item = EpochId> + '_ {
        self.iter_slots()
            .filter(|&(_, s)| s.committed)
            .map(|(e, _)| e)
    }

    /// Number of registered epochs.
    pub fn len(&self) -> usize {
        self.num_epochs
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.num_epochs == 0
    }

    /// All registered epochs, in (thread, timestamp) order.
    pub fn nodes(&self) -> impl Iterator<Item = EpochId> + '_ {
        self.iter_slots().map(|(e, _)| e)
    }

    /// Registered slots, in (thread, timestamp) order.
    fn iter_slots(&self) -> impl Iterator<Item = (EpochId, &EpochSlot)> + '_ {
        self.lane_slots().filter(|(_, s)| s.exists)
    }

    /// Every lane slot, gap slots included, in (thread, timestamp) order.
    fn lane_slots(&self) -> impl Iterator<Item = (EpochId, &EpochSlot)> + '_ {
        self.threads.iter().enumerate().flat_map(|(t, lane)| {
            lane.iter()
                .enumerate()
                .map(move |(ts, s)| (EpochId::new(ThreadId(t), ts as u64), s))
        })
    }

    /// Recorded cross-thread dependencies of `e` (excluding the implicit
    /// same-thread predecessor).
    pub fn cross_deps_of(&self, e: EpochId) -> &[EpochId] {
        self.slot(e).map(|s| s.cross.as_slice()).unwrap_or(&[])
    }

    /// Registration-clock stamp of `e` (see the `clock` field), if `e`
    /// was ever registered.
    pub fn creation_stamp(&self, e: EpochId) -> Option<u64> {
        self.slot(e).and_then(|s| s.created_at)
    }

    /// Commit-clock stamp of `e`, if `e` committed.
    pub fn commit_stamp(&self, e: EpochId) -> Option<u64> {
        self.slot(e).and_then(|s| s.committed_at)
    }

    /// Current value of the registration/commit clock. The engine stamps
    /// each journalled write's execution instant with this value so the
    /// race detector can compare "epoch committed" against "write
    /// executed" in real time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Monotonic mutation counter (see the field docs): strictly
    /// increases on every registration, cross edge, and commit.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Real-time ordering witness: `a` had committed before `b` was even
    /// registered, so all of `a`'s writes were durable before any write
    /// of `b` executed (let alone persisted).
    pub fn committed_before_creation(&self, a: EpochId, b: EpochId) -> bool {
        match (self.commit_stamp(a), self.creation_stamp(b)) {
            (Some(ca), Some(cb)) => ca < cb,
            _ => false,
        }
    }

    /// Direct dependencies of `e`: its same-thread predecessor (if any)
    /// plus recorded cross dependencies.
    pub fn direct_deps(&self, e: EpochId) -> Vec<EpochId> {
        let mut out = Vec::new();
        if e.ts > 0 {
            out.push(EpochId::new(e.thread, e.ts - 1));
        }
        out.extend(self.cross_deps_of(e).iter().copied());
        out
    }

    /// Kahn's algorithm over the dense lanes: returns a topological
    /// order of every lane slot (registered epochs and the gap slots
    /// below them), or `None` if the graph has a cycle (which would
    /// falsify the paper's Lemma 0.1 and indicate a protocol bug).
    ///
    /// The same-thread edge `(t, ts-1) -> (t, ts)` stays implicit; the
    /// cross edges are laid out once, grouped by source slot, in a CSR
    /// array. The output doubles as the FIFO of ready slots, so one call
    /// costs O(slots + cross edges).
    pub fn topological_order(&self) -> Option<Vec<EpochId>> {
        // Slot (t, ts) is numbered base[t] + ts.
        let mut base = Vec::with_capacity(self.threads.len());
        let mut slots = 0;
        for lane in &self.threads {
            base.push(slots);
            slots += lane.len();
        }
        let index = |e: EpochId| base[e.thread.0] + e.ts as usize;

        // In-degrees, and every slot's cross successors in one CSR
        // array: slot i's are succ[start[i]..start[i + 1]].
        let mut indegree = vec![0u32; slots];
        let mut start = vec![0usize; slots + 1];
        for (e, slot) in self.lane_slots() {
            indegree[index(e)] = u32::from(e.ts > 0) + slot.cross.len() as u32;
            for &src in &slot.cross {
                start[index(src)] += 1;
            }
        }
        // Running sums make start[i] the end of slot i's range; filling
        // each range from its end leaves start[i] at its beginning.
        for i in 1..=slots {
            start[i] += start[i - 1];
        }
        let mut succ = vec![EpochId::new(ThreadId(0), 0); start[slots]];
        for (e, slot) in self.lane_slots() {
            for &src in &slot.cross {
                let end = &mut start[index(src)];
                *end -= 1;
                succ[*end] = e;
            }
        }

        // Only a lane's first slot can start ready: every later one
        // waits on its predecessor.
        let mut order = Vec::with_capacity(slots);
        order.extend(
            (0..self.threads.len())
                .filter(|&t| self.threads[t].first().is_some_and(|s| s.cross.is_empty()))
                .map(|t| EpochId::new(ThreadId(t), 0)),
        );
        let mut head = 0;
        while let Some(&e) = order.get(head) {
            head += 1;
            let i = index(e);
            let same_thread = (e.ts + 1 < self.threads[e.thread.0].len() as u64).then(|| e.next());
            for next in same_thread
                .into_iter()
                .chain(succ[start[i]..start[i + 1]].iter().copied())
            {
                let d = &mut indegree[index(next)];
                *d -= 1;
                if *d == 0 {
                    order.push(next);
                }
            }
        }
        (order.len() == slots).then_some(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(t: usize, ts: u64) -> EpochId {
        EpochId::new(ThreadId(t), ts)
    }

    #[test]
    fn intra_thread_deps_are_implicit() {
        let mut g = DepGraph::new();
        g.ensure(ep(0, 2));
        let deps = g.direct_deps(ep(0, 2));
        assert_eq!(deps, vec![ep(0, 1)]);
        // The gap slots below (0,2) are ordered before it, in lane order.
        assert_eq!(
            g.topological_order(),
            Some(vec![ep(0, 0), ep(0, 1), ep(0, 2)])
        );
    }

    #[test]
    fn cross_deps_compose_transitively() {
        let mut g = DepGraph::new();
        g.add_cross_dep(ep(1, 1), ep(0, 3));
        let order = g.topological_order().expect("acyclic");
        let pos = |e: EpochId| order.iter().position(|&x| x == e).unwrap();
        // (0,0) reaches (1,1) only through the cross edge from (0,3).
        assert!(pos(ep(0, 0)) < pos(ep(0, 3)));
        assert!(pos(ep(0, 3)) < pos(ep(1, 1)));
        assert!(pos(ep(1, 0)) < pos(ep(1, 1)));
        assert_eq!(order.len(), 6, "four slots on thread 0, two on thread 1");
    }

    #[test]
    fn committed_tracking() {
        let mut g = DepGraph::new();
        g.mark_committed(ep(0, 0));
        assert!(g.is_committed(ep(0, 0)));
        assert!(!g.is_committed(ep(0, 1)));
        assert_eq!(g.committed().count(), 1);
    }

    #[test]
    fn topological_order_exists_for_dag() {
        let mut g = DepGraph::new();
        // The Fig. 7 shape: cross deps between threads both directions,
        // but on *different* epochs — acyclic.
        g.add_cross_dep(ep(1, 1), ep(0, 0));
        g.add_cross_dep(ep(0, 2), ep(1, 1));
        let order = g.topological_order().expect("acyclic");
        let pos = |e: EpochId| order.iter().position(|&x| x == e).unwrap();
        assert!(pos(ep(0, 0)) < pos(ep(1, 1)));
        assert!(pos(ep(1, 1)) < pos(ep(0, 2)));
        assert!(pos(ep(0, 0)) < pos(ep(0, 2)));
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = DepGraph::new();
        // A hand-constructed violation of the epoch-splitting rule: two
        // epochs depending on each other.
        g.add_cross_dep(ep(0, 0), ep(1, 0));
        g.add_cross_dep(ep(1, 0), ep(0, 0));
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn first_epochs_have_no_deps() {
        let mut g = DepGraph::new();
        g.ensure(ep(3, 0));
        assert!(g.direct_deps(ep(3, 0)).is_empty());
        assert_eq!(g.topological_order(), Some(vec![ep(3, 0)]));
    }

    #[test]
    fn stamps_order_creation_and_commit() {
        let mut g = DepGraph::new();
        g.ensure(ep(0, 0));
        g.mark_committed(ep(0, 0));
        g.ensure(ep(1, 0));
        // (0,0) committed before (1,0) existed: ordering witness holds
        // one way and not the other.
        assert!(g.committed_before_creation(ep(0, 0), ep(1, 0)));
        assert!(!g.committed_before_creation(ep(1, 0), ep(0, 0)));
        // An uncommitted epoch never witnesses.
        assert!(!g.committed_before_creation(ep(1, 0), ep(0, 0)));
        assert!(g.creation_stamp(ep(0, 0)).unwrap() < g.commit_stamp(ep(0, 0)).unwrap());
        assert_eq!(g.commit_stamp(ep(1, 0)), None);
    }

    #[test]
    fn nodes_and_cross_deps_accessors() {
        let mut g = DepGraph::new();
        g.add_cross_dep(ep(1, 1), ep(0, 3));
        let mut ns: Vec<EpochId> = g.nodes().collect();
        ns.sort();
        assert_eq!(ns, vec![ep(0, 3), ep(1, 1)]);
        assert_eq!(g.cross_deps_of(ep(1, 1)), &[ep(0, 3)]);
        assert!(g.cross_deps_of(ep(0, 3)).is_empty());
    }

    #[test]
    fn len_and_empty() {
        let mut g = DepGraph::new();
        assert!(g.is_empty());
        g.ensure(ep(0, 0));
        g.ensure(ep(0, 0));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn unregistered_gap_slots_are_invisible() {
        // Ensuring ts=3 grows the lane past 0..2; those gap slots must
        // not count as registered nodes.
        let mut g = DepGraph::new();
        g.ensure(ep(0, 3));
        assert_eq!(g.len(), 1);
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![ep(0, 3)]);
        assert_eq!(g.creation_stamp(ep(0, 1)), None);
        assert!(!g.is_committed(ep(0, 1)));
    }
}
