//! The ORAM-controller timing engine.
//!
//! The engine executes [`AccessPlan`]s against the DRAM model. Plans carry
//! their *intra-request* dependencies; the engine adds the *inter-request*
//! ordering required by the scheduling policy:
//!
//! * [`SchedulePolicy::Serial`] — the multi-issue baseline controller used
//!   for PathORAM, RingORAM, PageORAM, PrORAM and IR-ORAM: a request may
//!   only begin once the previous request has finished all of its reads
//!   (writes are posted), so ORAM requests are served one after another.
//! * [`SchedulePolicy::PalermoMesh`] — the Palermo PE mesh: each request
//!   occupies one PE column; a request's `LoadMetadata` at level ℓ may begin
//!   as soon as the *previous* request's tree-modifying phases at level ℓ
//!   (`EarlyReshuffle`, `EvictPath`) have been **issued**, which is the
//!   minimal write-to-read critical section of §IV-B.
//! * [`SchedulePolicy::PalermoSoftware`] — the software-only variant
//!   (Palermo-SW): the same protocol but with coarse-grained synchronisation,
//!   so the per-level hand-off waits for the predecessor's modifications to
//!   **complete** and the position-map check is additionally serialised
//!   behind the predecessor's PosMap1 read.

use crate::stats::ControllerStats;
use palermo_dram::{DramSystem, MemRequest};
use palermo_oram::access_plan::{AccessPlan, PhaseKind};
use palermo_oram::types::SubOram;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// Multiplicative hasher for the sequential `u64` ids the engine keys its
/// maps by; the default SipHash costs more than the map operation itself on
/// the per-DRAM-op hot path.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            // audit:allow(wrapping, FNV-style byte mixing is modular by design)
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        // audit:allow(wrapping, Fibonacci hashing is modular by design)
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

// The sanctioned escape hatch for audit lint D01: `IdHasher` above is a pure
// function of the key — no `RandomState` — so the map's bucket order, and
// therefore any iteration over it, is a deterministic function of the
// insert/remove history alone: identical across runs, executors and
// steppers. New keyed-id maps on hot paths should reuse this pattern rather
// than reach for `HashMap::new()`.
// audit:allow(map-iter, deterministic IdHasher; order is a pure function of op history)
type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// Inter-request scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// Serve ORAM requests one after the other (baseline controllers).
    Serial,
    /// Palermo protocol-hardware co-design: per-level wavefront overlap with
    /// issue-time hand-off.
    PalermoMesh,
    /// Palermo protocol with software-style coarse synchronisation.
    PalermoSoftware,
}

/// Static configuration of the controller engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Scheduling policy.
    pub policy: SchedulePolicy,
    /// Number of PE columns, i.e. ORAM requests that may be in flight
    /// concurrently (Table III uses a 3×8 mesh; the serial baseline
    /// effectively uses one column plus one staged request).
    pub pe_columns: usize,
    /// Maximum DRAM requests the controller may issue per cycle (port width
    /// towards the memory controller).
    pub issue_width: usize,
}

impl ControllerConfig {
    /// The paper's Palermo configuration: 3×8 PE mesh.
    pub fn palermo_default() -> Self {
        ControllerConfig {
            policy: SchedulePolicy::PalermoMesh,
            pe_columns: 8,
            issue_width: 16,
        }
    }

    /// The serial multi-issue baseline controller.
    pub fn serial_default() -> Self {
        ControllerConfig {
            policy: SchedulePolicy::Serial,
            pe_columns: 2,
            issue_width: 16,
        }
    }

    /// The software-only Palermo variant.
    pub fn palermo_sw_default() -> Self {
        ControllerConfig {
            policy: SchedulePolicy::PalermoSoftware,
            pe_columns: 8,
            issue_width: 16,
        }
    }
}

/// A retired ORAM request with its service timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishedRequest {
    /// The protocol-level request id (`GlobalID`).
    pub request_id: u64,
    /// Cycle at which the controller accepted the request.
    pub submitted_at: u64,
    /// Cycle at which every phase of the request had finished.
    pub finished_at: u64,
    /// Whether the request was a controller-injected dummy.
    pub is_dummy: bool,
    /// DRAM bursts (reads + writes) issued on behalf of this request —
    /// the request's share of memory demand, used by the per-tenant
    /// attribution in the simulator.
    pub dram_ops: u64,
}

impl FinishedRequest {
    /// End-to-end ORAM response latency in controller cycles.
    pub fn latency(&self) -> u64 {
        self.finished_at.saturating_sub(self.submitted_at)
    }
}

/// The issue-side state of one plan node. The node's static description
/// (addresses, dependencies, compute latency) stays in the request's
/// [`AccessPlan`]; readiness, completion and countdown membership live in
/// the request's node masks.
#[derive(Debug, Clone, Copy, Default)]
struct NodeRuntime {
    /// Issue cursors into the plan node's read and write lists.
    reads_issued: usize,
    writes_issued: usize,
    outstanding_reads: usize,
    /// Absolute countdown-clock value at which the node's compute finishes,
    /// set when the node enters its request's countdown set. Storing the
    /// deadline instead of a per-tick decremented counter lets the step-2
    /// sweep skip entirely on ticks where no deadline is due, and lets bulk
    /// cycle skips advance one clock instead of every tracked node.
    compute_expiry: u64,
    /// The nodes this node depends on.
    deps: u64,
    /// The nodes that depend on this node.
    dependents: u64,
    /// The DRAM channel that turned the node's next operation away, if it
    /// was turned away. The operation stays the node's next one until it
    /// issues, so while that channel is full the node is rejected again
    /// without building or mapping a request.
    parked_on: Option<u32>,
}

/// The single-bit mask of node `n`. Plans hold at most
/// [`AccessPlan::MAX_NODES`] nodes, so every node index fits a `u64` mask.
fn bit(n: usize) -> u64 {
    1 << n
}

/// Iterates the set bits of `mask`, lowest (oldest plan node) first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let n = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(n)
    })
}

#[derive(Debug, Clone)]
struct InflightRequest {
    plan: AccessPlan,
    nodes: Vec<NodeRuntime>,
    submitted_at: u64,
    /// Per level: the request id of the previous request that also touches
    /// that level (the west sibling in the PE mesh).
    predecessor: [Option<u64>; SubOram::COUNT],
    /// One bit per plan node (bit `i` is node `i`): every node of the plan.
    all: u64,
    /// Nodes with memory operations left to issue. Pending work is
    /// monotone, so bits only ever clear; a clear bit means every operation
    /// of the node has been handed to the DRAM model.
    pending: u64,
    /// Nodes whose memory traffic and compute have finished.
    complete: u64,
    /// Nodes with at least one incomplete dependency. Bits clear only when
    /// a dependency completes, which the countdown sweep sees, so the issue
    /// pass never re-evaluates a dependency-blocked node.
    unmet: u64,
    /// Nodes in compute countdown (memory done, dependencies met).
    counting: u64,
    /// Nodes gated on the predecessor request at their level: the first
    /// read phase of each level (LoadMetadata for Ring/Palermo, ReadPath for
    /// the Path family, whose plans have no LoadMetadata node).
    gate: u64,
    /// Per level: every node of that level (blocked-level attribution).
    level: [u64; SubOram::COUNT],
    /// Per level: the first EarlyReshuffle and EvictPath node — the phases
    /// that modify the level's tree, whose issue is the mesh hand-off.
    modifies: [u64; SubOram::COUNT],
    /// Per level: the first ReadPath node.
    read_path: [u64; SubOram::COUNT],
    /// Reads issued and not yet returned, across every node.
    outstanding_reads: usize,
    /// DRAM bursts issued so far on behalf of this request.
    dram_ops: u64,
}

impl InflightRequest {
    fn new(plan: AccessPlan, submitted_at: u64) -> Self {
        assert!(
            plan.nodes.len() <= AccessPlan::MAX_NODES,
            "plan {} has {} nodes; the controller tracks at most {}",
            plan.request_id,
            plan.nodes.len(),
            AccessPlan::MAX_NODES
        );
        let mut nodes = vec![NodeRuntime::default(); plan.nodes.len()];
        let (mut pending, mut complete, mut gate) = (0, 0, 0);
        let mut level = [0; SubOram::COUNT];
        let mut modifies = [0; SubOram::COUNT];
        let mut read_path = [0; SubOram::COUNT];
        // `AccessPlan::node_id` semantics: the first node of a (level,
        // phase) pair is the one the hand-off rules look at.
        let first = |sub: SubOram, phase: PhaseKind| {
            plan.node_id(sub, phase).map_or(0, |id| bit(id.0 as usize))
        };
        for sub in SubOram::ALL {
            let s = sub.index();
            modifies[s] = first(sub, PhaseKind::EarlyReshuffle) | first(sub, PhaseKind::EvictPath);
            read_path[s] = first(sub, PhaseKind::ReadPath);
        }
        for (i, node) in plan.nodes.iter().enumerate() {
            let b = bit(i);
            level[node.sub.index()] |= b;
            if node.is_empty() {
                if node.compute_cycles == 0 {
                    complete |= b;
                }
            } else {
                pending |= b;
            }
            let gated = match node.phase {
                PhaseKind::LoadMetadata => true,
                PhaseKind::ReadPath => plan.node_id(node.sub, PhaseKind::LoadMetadata).is_none(),
                _ => false,
            };
            if gated {
                gate |= b;
            }
            for d in &node.deps {
                let d = d.0 as usize;
                nodes[i].deps |= bit(d);
                nodes[d].dependents |= b;
            }
        }
        let mut unmet = 0;
        for (i, node) in nodes.iter().enumerate() {
            if node.deps & !complete != 0 {
                unmet |= bit(i);
            }
        }
        let all = if plan.nodes.len() == AccessPlan::MAX_NODES {
            u64::MAX
        } else {
            bit(plan.nodes.len()) - 1
        };
        InflightRequest {
            plan,
            nodes,
            submitted_at,
            predecessor: [None; SubOram::COUNT],
            all,
            pending,
            complete,
            unmet,
            counting: 0,
            gate,
            level,
            modifies,
            read_path,
            outstanding_reads: 0,
            dram_ops: 0,
        }
    }

    fn is_finished(&self) -> bool {
        self.complete == self.all
    }

    /// `true` once every node in `mask` has completed.
    fn completed(&self, mask: u64) -> bool {
        mask & !self.complete == 0
    }

    /// Adds `n` to the countdown set if it is countdown-eligible — memory
    /// traffic fully issued and returned, dependencies met, not yet
    /// complete — and not already tracked.
    ///
    /// `base` is the countdown-clock value such that the node's deadline is
    /// `base + compute_cycles` — the clock value of the sweep *before* the
    /// first one that decrements it in the per-cycle reference (the current
    /// clock at every call site except the mid-sweep cascade, which passes
    /// `clock - 1` because the running sweep still counts). Returns the
    /// stored deadline when newly tracked, so the controller can maintain
    /// its running countdown minimum.
    fn track_countdown(&mut self, n: usize, base: u64) -> Option<u64> {
        let b = bit(n);
        if (self.pending | self.complete | self.unmet | self.counting) & b != 0
            || self.nodes[n].outstanding_reads != 0
        {
            return None;
        }
        self.counting |= b;
        let expiry = base + u64::from(self.plan.nodes[n].compute_cycles);
        self.nodes[n].compute_expiry = expiry;
        Some(expiry)
    }

    /// Marks `n` complete and releases its dependents: each dependent whose
    /// last dependency this was loses its `unmet` bit and, if its memory
    /// traffic is done, starts its countdown with deadline base `base`.
    fn complete_node(&mut self, n: usize, base: u64) {
        self.complete |= bit(n);
        for d in bits(self.nodes[n].dependents & self.unmet) {
            if self.completed(self.nodes[d].deps) {
                self.unmet &= !bit(d);
                self.track_countdown(d, base);
            }
        }
    }

    /// For the serial policy: all reads done, all writes handed to the
    /// memory controller.
    fn ordering_complete(&self) -> bool {
        self.pending == 0 && self.outstanding_reads == 0
    }
}

/// Controller-side records of the DRAM reads in flight, indexed by
/// `dram_id - base`. DRAM ids are handed out sequentially, so the live ids
/// span a short window: the slab grows at the back as reads issue and
/// shrinks from the front as the oldest slots empty. Posted writes take an
/// id but no record: they are done when the DRAM issues them and return no
/// completion.
#[derive(Debug, Default)]
struct OutstandingReads {
    base: u64,
    slots: VecDeque<Option<(u64, u32)>>,
}

impl OutstandingReads {
    /// Records that read `id` belongs to (request id, node index).
    fn insert(&mut self, id: u64, owner: (u64, u32)) {
        if self.slots.is_empty() {
            self.base = id;
        }
        debug_assert!(
            id >= self.base + self.slots.len() as u64,
            "DRAM ids must increase"
        );
        while self.base + (self.slots.len() as u64) < id {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(owner));
    }

    /// Removes and returns the owner of `id`, if `id` is a recorded read.
    fn remove(&mut self, id: u64) -> Option<(u64, u32)> {
        let slot = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let owner = self.slots.get_mut(slot)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        owner
    }
}

/// What one issue pass did, as the rest of [`OramController::tick`] needs
/// it. A skipped pass is the default: nothing issued, nothing cut short.
#[derive(Debug, Clone, Copy, Default)]
struct IssuePass {
    /// DRAM operations issued.
    issued: usize,
    /// The issue width ran out before the walk reached every pending node.
    width_limited: bool,
    /// Some reached pending node was not ready.
    blocked_any: bool,
    /// Some ready node kept operations it could not issue.
    leftover_pending: bool,
}

/// What one [`OramController::tick`] observably did.
///
/// The event-driven runner only skips cycles after a tick in which nothing
/// happened: a quiet tick proves the controller state is frozen except for
/// compute countdowns (predicted by [`OramController::next_wakeup`]) and
/// DRAM-side events (predicted by the DRAM model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickActivity {
    /// DRAM read completions routed back to a live plan node.
    pub completions_routed: u64,
    /// Plan nodes whose `complete` flag flipped this tick.
    pub nodes_completed: u64,
    /// DRAM operations issued this tick.
    pub ops_issued: u64,
    /// ORAM requests retired this tick.
    pub requests_retired: u64,
    /// `true` when the controller provably cannot act on the next cycle
    /// without an external event: the issue pass drained every ready node
    /// (it did not stop at the issue-width limit), no request retired, and
    /// whatever remains pending is dependency-blocked or was turned away by
    /// a full DRAM queue (see [`OramController::retry_ready`]). Combined
    /// with [`OramController::next_wakeup`] and the DRAM model's event
    /// prediction this makes the tick skip-eligible even if it was active.
    pub settled: bool,
}

impl TickActivity {
    /// `true` if the tick changed any controller state.
    pub fn any(&self) -> bool {
        self.completions_routed > 0
            || self.nodes_completed > 0
            || self.ops_issued > 0
            || self.requests_retired > 0
    }
}

/// The cycle-level ORAM controller model.
#[derive(Debug)]
pub struct OramController {
    config: ControllerConfig,
    inflight: Vec<InflightRequest>,
    /// Request id -> index into `inflight`.
    by_request_id: IdMap<usize>,
    /// Most recently submitted request id per level (for sibling chaining).
    last_at_level: [Option<u64>; SubOram::COUNT],
    /// DRAM read id -> (request id, node index).
    outstanding_dram: OutstandingReads,
    next_dram_id: u64,
    finished: Vec<FinishedRequest>,
    stats: ControllerStats,
    /// Reused buffer for draining DRAM completions without per-tick allocs.
    completion_buf: Vec<palermo_dram::MemCompletion>,
    /// Whether the last issue pass saw nodes with pending memory operations
    /// (the `any_pending` input to the stall-accounting rule).
    last_any_pending: bool,
    /// Per-level dependency-blocked flags observed by the last issue pass.
    last_blocked_levels: [bool; SubOram::COUNT],
    /// One bit per DRAM channel that turned away an operation the last
    /// issue pass had ready (bit `c` is channel `c`;
    /// [`palermo_dram::DramConfig::MAX_CHANNELS`] bounds the channel count).
    rejected: u64,
    /// Whether an input of the issue pass changed since the last pass ran:
    /// a submit, a node completing, a request's last outstanding read
    /// returning, a retire, or a tick that did not settle. Together with
    /// [`OramController::retry_ready`] at tick start this is every way a
    /// pass can find work the last one did not, so a tick without either
    /// skips the pass (it would issue nothing).
    issue_inputs_changed: bool,
    /// Monotone clock counting countdown-bearing cycles: +1 per tick's
    /// step-2 sweep, +`total` per bulk skip. Node deadlines
    /// (`compute_expiry`) live in this clock's domain.
    countdown_clock: u64,
    /// Exact minimum `compute_expiry` over every tracked countdown node
    /// (`u64::MAX` when none are tracked), maintained so
    /// [`OramController::next_wakeup`] answers in O(1) and the step-2 sweep
    /// runs only on ticks where a deadline is actually due: every track
    /// site min-merges the new deadline, and the sweep (which walks every
    /// tracked node when it does run) rebuilds the minimum exactly.
    countdown_min: u64,
}

impl OramController {
    /// Creates an idle controller.
    pub fn new(config: ControllerConfig) -> Self {
        OramController {
            config,
            inflight: Vec::new(),
            by_request_id: IdMap::default(),
            last_at_level: [None; SubOram::COUNT],
            outstanding_dram: OutstandingReads::default(),
            next_dram_id: 0,
            finished: Vec::new(),
            stats: ControllerStats::default(),
            completion_buf: Vec::new(),
            last_any_pending: false,
            last_blocked_levels: [false; SubOram::COUNT],
            rejected: 0,
            issue_inputs_changed: false,
            countdown_clock: 0,
            countdown_min: u64::MAX,
        }
    }

    /// Whether the last tick had a DRAM operation ready to issue but was
    /// turned away by a full channel queue. [`OramController::retry_ready`]
    /// tells whether such a retry can now succeed.
    pub fn enqueue_blocked(&self) -> bool {
        self.rejected != 0
    }

    /// Whether a channel that turned away one of the last tick's enqueues
    /// can now accept. Only a DRAM column issue frees queue space, and a
    /// rejected operation stays its node's next operation, so while this is
    /// `false` a settled controller's next tick issues nothing new: every
    /// ready node would be turned away again. Always `false` when the last
    /// tick was not [enqueue-blocked](OramController::enqueue_blocked).
    pub fn retry_ready(&self, dram: &DramSystem) -> bool {
        bits(self.rejected).any(|channel| dram.channel_can_accept(channel))
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Number of ORAM requests currently being serviced.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Returns `true` if a new request can be accepted this cycle.
    pub fn can_accept(&self) -> bool {
        self.inflight.len() < self.config.pe_columns
    }

    /// Accumulated controller statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Offers a plan to the controller. Returns `false` (plan handed back via
    /// the `Err`) when all PE columns are occupied.
    ///
    /// # Panics
    ///
    /// Panics if the plan has more than [`AccessPlan::MAX_NODES`] nodes
    /// (such a plan is not well formed).
    pub fn try_submit(&mut self, plan: AccessPlan, cycle: u64) -> Result<(), AccessPlan> {
        if !self.can_accept() {
            return Err(plan);
        }
        let mut req = InflightRequest::new(plan, cycle);
        for sub in SubOram::ALL {
            if req.level[sub.index()] != 0 {
                req.predecessor[sub.index()] = self.last_at_level[sub.index()];
                self.last_at_level[sub.index()] = Some(req.plan.request_id);
            }
        }
        self.by_request_id
            .insert(req.plan.request_id, self.inflight.len());
        self.stats.requests_accepted += 1;
        self.issue_inputs_changed = true;
        for i in 0..req.nodes.len() {
            if let Some(exp) = req.track_countdown(i, self.countdown_clock) {
                self.countdown_min = self.countdown_min.min(exp);
            }
        }
        self.inflight.push(req);
        Ok(())
    }

    /// Drains requests that retired since the last call.
    pub fn drain_finished(&mut self) -> Vec<FinishedRequest> {
        std::mem::take(&mut self.finished)
    }

    fn predecessor_allows(&self, req: &InflightRequest, sub: SubOram) -> bool {
        let Some(pred_id) = req.predecessor[sub.index()] else {
            return true;
        };
        let Some(&pred_idx) = self.by_request_id.get(&pred_id) else {
            return true; // predecessor already retired
        };
        let pred = &self.inflight[pred_idx];
        let s = sub.index();
        match self.config.policy {
            SchedulePolicy::Serial => pred.ordering_complete(),
            // The predecessor's tree-modifying phases at this level have
            // issued all of their traffic.
            SchedulePolicy::PalermoMesh => pred.pending & pred.modifies[s] == 0,
            SchedulePolicy::PalermoSoftware => {
                // Coarse software locks: wait for the predecessor's tree
                // modifications (and its read of the level) to complete,
                // and serialise the recursion entry (PosMap2) behind the
                // predecessor's PosMap1 read — the mutex around the PosMap
                // check described in §IV-C.
                let mut mask = pred.modifies[s] | pred.read_path[s];
                if sub == SubOram::Pos2 {
                    mask |= pred.read_path[SubOram::Pos1.index()];
                }
                pred.completed(mask)
            }
        }
    }

    /// Advances the controller by one cycle: consumes DRAM completions,
    /// counts down compute latencies, issues ready memory operations and
    /// retires finished requests. The returned [`TickActivity`] tells the
    /// event-driven runner whether any state changed.
    pub fn tick(&mut self, dram: &mut DramSystem) -> TickActivity {
        let cycle = dram.cycle();
        self.stats.cycles += 1;
        let mut activity = TickActivity::default();
        // A slot in a channel that turned the last pass away is an issue-
        // pass input too; read it before this cycle's completions land.
        if self.retry_ready(dram) {
            self.issue_inputs_changed = true;
        }

        // 1. Route DRAM completions back to their plan nodes.
        let mut completions = std::mem::take(&mut self.completion_buf);
        dram.drain_completed_into(&mut completions);
        for completion in &completions {
            let Some((req_id, n)) = self.outstanding_dram.remove(completion.id.0) else {
                continue; // not a read this controller recorded
            };
            let Some(&idx) = self.by_request_id.get(&req_id) else {
                continue;
            };
            let req = &mut self.inflight[idx];
            let node = &mut req.nodes[n as usize];
            node.outstanding_reads = node.outstanding_reads.saturating_sub(1);
            req.outstanding_reads = req.outstanding_reads.saturating_sub(1);
            activity.completions_routed += 1;
            if req.outstanding_reads == 0 {
                // The Serial hand-off waits for the predecessor's last read.
                self.issue_inputs_changed = true;
            }
            if node.outstanding_reads == 0 {
                // Min-merge so the conditional sweep below knows whether
                // this deadline is already due.
                if let Some(exp) = req.track_countdown(n as usize, self.countdown_clock) {
                    self.countdown_min = self.countdown_min.min(exp);
                }
            }
        }
        completions.clear();
        self.completion_buf = completions;

        // 2. Update node completion states (compute countdown happens once a
        //    node's dependencies are met and its memory traffic is done).
        //    Deadlines are absolute in the countdown clock's domain, so a
        //    tick where the running minimum lies in the future provably
        //    completes nothing and skips the sweep outright. When the sweep
        //    does run, a node completing may make its dependents (which
        //    always sit later in the plan) countdown-eligible within the
        //    same cycle, exactly as the per-cycle reference's in-order sweep
        //    did: they join the set of bits still to visit, so they are
        //    reached — completed or counted — in this same pass, which is
        //    why the sweep rebuilds the exact countdown minimum. (Mid-sweep
        //    tracks pass `clock - 1` as the deadline base: the reference
        //    decremented such nodes in this very sweep.)
        self.countdown_clock += 1;
        let clock = self.countdown_clock;
        if self.countdown_min <= clock {
            let mut countdown_min = u64::MAX;
            for req in &mut self.inflight {
                let mut rest = req.counting;
                while rest != 0 {
                    let n = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let expiry = req.nodes[n].compute_expiry;
                    if expiry > clock {
                        countdown_min = countdown_min.min(expiry);
                        continue;
                    }
                    req.counting &= !bit(n);
                    activity.nodes_completed += 1;
                    // The completion may satisfy the last dependency of an
                    // otherwise-finished dependent; its countdown starts and
                    // it joins this sweep.
                    let counting = req.counting;
                    req.complete_node(n, clock - 1);
                    rest |= req.counting & !counting;
                }
            }
            self.countdown_min = countdown_min;
            if activity.nodes_completed > 0 {
                self.issue_inputs_changed = true;
            }
        }

        // 3. Issue ready memory operations, unless no input of the pass
        //    changed since it last ran: the pass would then see the ready
        //    set the last one left behind, all of it turned away by
        //    channels that are still full, and issue nothing. Such a cycle
        //    accounts its stall from the last pass's flags, as a skipped
        //    cycle does.
        let ran_pass = std::mem::take(&mut self.issue_inputs_changed);
        let pass = if ran_pass {
            self.issue_pass(dram)
        } else {
            IssuePass::default()
        };
        let issued_this_cycle = pass.issued;

        // 4. Stall accounting for the Fig. 3 breakdown: a cycle in which the
        //    controller had work but could not issue anything, while the
        //    memory queues were starved, is an ORAM-sync stall attributed to
        //    the levels whose nodes were dependency-blocked.
        if issued_this_cycle == 0 {
            self.account_stalls(u64::from(dram.queued() < 4));
        } else {
            self.stats.issue_cycles += 1;
        }
        self.stats.issued_ops += issued_this_cycle as u64;
        activity.ops_issued = issued_this_cycle as u64;

        // 5. Retire finished requests; the requests behind a retired one
        //    move down one slot.
        let mut idx = 0;
        while idx < self.inflight.len() {
            if !self.inflight[idx].is_finished() {
                idx += 1;
                continue;
            }
            let req = self.inflight.remove(idx);
            self.by_request_id.remove(&req.plan.request_id);
            for later in &self.inflight[idx..] {
                if let Some(i) = self.by_request_id.get_mut(&later.plan.request_id) {
                    *i -= 1;
                }
            }
            self.stats.requests_finished += 1;
            activity.requests_retired += 1;
            self.finished.push(FinishedRequest {
                request_id: req.plan.request_id,
                submitted_at: req.submitted_at,
                finished_at: cycle,
                is_dummy: req.plan.is_dummy,
                dram_ops: req.dram_ops,
            });
        }

        // 6. Settling: decide whether the controller can possibly act next
        //    cycle without an external event. A retire may unblock a
        //    predecessor chain (and the runner's staged plan), and a width-
        //    limited issue pass resumes next cycle, so neither settles, and
        //    both make the next tick run its issue pass. For a settled-but-
        //    active tick whose pass ran, the in-loop `any_pending` may
        //    describe nodes that fully drained this very cycle, so the saved
        //    value is rebuilt from the post-tick facts gathered during the
        //    pass: dependency-blocked nodes survive the tick untouched
        //    (their readiness is frozen until the next event) and leftover
        //    pending ops on a settled tick can only be DRAM-rejected work. A
        //    tick that skipped its pass changed no pending work, so the
        //    saved flags stay as the last pass left them. Skipped cycles
        //    then account stalls exactly as the per-cycle reference would
        //    have.
        activity.settled = activity.requests_retired == 0 && !pass.width_limited;
        if !activity.settled {
            self.issue_inputs_changed = true;
        } else if ran_pass && activity.any() {
            self.last_any_pending = pass.blocked_any || pass.leftover_pending;
        }
        activity
    }

    /// Step 3 of [`OramController::tick`]: issues ready memory operations,
    /// oldest request first, and within a request in plan order. Readiness
    /// is a mask expression; the blocked-level flags the stall rule reads
    /// cover only the nodes the walk reaches before the issue width runs
    /// out. Saves those flags and `any_pending` for the stall rule.
    fn issue_pass(&mut self, dram: &mut DramSystem) -> IssuePass {
        let width = self.config.issue_width;
        let mut issued_this_cycle = 0usize;
        let mut blocked_levels = [false; SubOram::COUNT];
        let mut any_pending = false;
        let mut width_limited = false;
        let mut blocked_any = false;
        let mut leftover_pending = false;
        self.rejected = 0;
        for idx in 0..self.inflight.len() {
            if issued_this_cycle >= width {
                width_limited = true;
                break;
            }
            let req = &self.inflight[idx];
            let pending = req.pending;
            if pending == 0 {
                // Fully drained: nothing to issue, stall on or block.
                continue;
            }
            any_pending = true;
            // The predecessor sits earlier in `inflight`, so this sees the
            // hand-offs its issues made earlier in this same tick.
            let mut ready = pending & !req.unmet;
            for g in bits(ready & req.gate) {
                if !self.predecessor_allows(req, req.plan.nodes[g].sub) {
                    ready &= !bit(g);
                }
            }
            let mut reached = pending;
            let req = &mut self.inflight[idx];
            for n in bits(ready) {
                // Issue as many of this node's operations as the memory
                // controller will take this cycle.
                let plan_node = &req.plan.nodes[n];
                let node = &mut req.nodes[n];
                let mut rejected = false;
                while issued_this_cycle < width {
                    let (addr, is_write) = if node.reads_issued < plan_node.reads.len() {
                        (plan_node.reads[node.reads_issued], false)
                    } else if node.writes_issued < plan_node.writes.len() {
                        (plan_node.writes[node.writes_issued], true)
                    } else {
                        break;
                    };
                    if let Some(channel) = node.parked_on {
                        if !dram.channel_can_accept(channel as usize) {
                            self.rejected |= bit(channel as usize);
                            rejected = true;
                            break;
                        }
                    }
                    let dram_id = self.next_dram_id;
                    let mem_req = if is_write {
                        MemRequest::write(dram_id, addr)
                    } else {
                        MemRequest::read(dram_id, addr)
                    };
                    if let Err(channel) = dram.enqueue(mem_req) {
                        node.parked_on = Some(channel as u32);
                        self.rejected |= bit(channel);
                        rejected = true;
                        break;
                    }
                    node.parked_on = None;
                    self.next_dram_id += 1;
                    issued_this_cycle += 1;
                    req.dram_ops += 1;
                    if is_write {
                        node.writes_issued += 1;
                        self.stats.dram_writes_issued += 1;
                    } else {
                        node.reads_issued += 1;
                        node.outstanding_reads += 1;
                        req.outstanding_reads += 1;
                        self.stats.dram_reads_issued += 1;
                        self.outstanding_dram
                            .insert(dram_id, (req.plan.request_id, n as u32));
                    }
                }
                if node.reads_issued < plan_node.reads.len()
                    || node.writes_issued < plan_node.writes.len()
                {
                    // Ready work left over because the issue width ran out
                    // mid-node (not because DRAM pushed back) means the
                    // controller will issue again next cycle: the tick
                    // cannot settle.
                    leftover_pending = true;
                    if !rejected {
                        width_limited = true;
                    }
                } else {
                    req.pending &= !bit(n);
                    if node.outstanding_reads == 0 {
                        // A node fully issued with nothing outstanding
                        // (posted writes only) starts its compute countdown
                        // next cycle; the clock already counted this tick's
                        // sweep, so the current value is the correct base.
                        if let Some(exp) = req.track_countdown(n, self.countdown_clock) {
                            self.countdown_min = self.countdown_min.min(exp);
                        }
                    }
                }
                if issued_this_cycle >= width {
                    // The walk stops at node `n + 1`: only the pending
                    // nodes up to `n` count as reached, and the pass is
                    // width-limited if the plan has any node after `n`,
                    // pending or not.
                    reached &= u64::MAX >> (63 - n);
                    if n + 1 < req.nodes.len() {
                        width_limited = true;
                    }
                    break;
                }
            }
            let blocked = reached & !ready;
            if blocked != 0 {
                blocked_any = true;
                for sub in SubOram::ALL {
                    if blocked & req.level[sub.index()] != 0 {
                        blocked_levels[sub.index()] = true;
                    }
                }
            }
        }

        // Remember the stall-accounting inputs: they stay frozen until the
        // next pass, so skipped passes and skipped cycles replay the rule
        // exactly.
        self.last_any_pending = any_pending;
        self.last_blocked_levels = blocked_levels;
        IssuePass {
            issued: issued_this_cycle,
            width_limited,
            blocked_any,
            leftover_pending,
        }
    }

    /// The stall rule for cycles that issue nothing, `stalled` of which had
    /// a DRAM queue depth below the threshold: with pending work, each such
    /// cycle is an ORAM-sync stall attributed to the levels the last issue
    /// pass found dependency-blocked.
    fn account_stalls(&mut self, stalled: u64) {
        if self.last_any_pending && stalled > 0 {
            self.stats.sync_stall_cycles += stalled;
            for sub in SubOram::ALL {
                if self.last_blocked_levels[sub.index()] {
                    self.stats.sync_stall_by_level[sub.index()] += stalled;
                }
            }
        }
    }

    /// The earliest absolute cycle at which a future [`OramController::tick`]
    /// could change controller state on its own, assuming no DRAM completions
    /// and no new submissions arrive in between — i.e. the tick in which the
    /// nearest running compute countdown reaches zero. `now` is the cycle the
    /// next tick would execute at. Returns `None` when no node is counting
    /// down (the controller is then fully at the mercy of DRAM events).
    ///
    /// A node whose deadline stands `k` clock steps ahead after a quiet tick
    /// completes during the tick at `now + k - 1`; every earlier tick merely
    /// advances the clock, which [`OramController::skip_cycles_window`]
    /// replays in bulk.
    pub fn next_wakeup(&self, now: u64) -> Option<u64> {
        debug_assert_eq!(
            self.countdown_min,
            self.debug_recompute_countdown_min(),
            "running countdown minimum diverged from the node state"
        );
        if self.countdown_min == u64::MAX {
            return None;
        }
        // After a settled tick every tracked deadline is at or past the
        // clock (the sweep just retired everything due); max(1) keeps the
        // prediction safe ("wake immediately") for a deadline landing on
        // the very next sweep.
        debug_assert!(self.countdown_min >= self.countdown_clock);
        let remaining = self.countdown_min - self.countdown_clock;
        Some(now + remaining.max(1) - 1)
    }

    /// O(nodes) recomputation of the running countdown minimum, used only by
    /// debug assertions guarding the incremental bookkeeping.
    fn debug_recompute_countdown_min(&self) -> u64 {
        let mut min = u64::MAX;
        for req in &self.inflight {
            for n in bits(req.counting) {
                min = min.min(req.nodes[n].compute_expiry);
            }
        }
        min
    }

    /// Accounts `total` provably-quiet cycles in bulk, of which `stalled`
    /// had a DRAM queue depth below the stall threshold: cycle and stall
    /// counters advance exactly as if [`OramController::tick`] had run
    /// `total` times with no completions, no new issues and no node
    /// finishing, and every running compute countdown decrements by
    /// `total`. The settled-window stepper replays many skip segments per
    /// window (one per interior DRAM command), and the only per-segment
    /// input is the queue depth — everything else (`last_any_pending`, the
    /// blocked-level mask, every countdown) is frozen, so segments fold into
    /// two counters and one clock advance.
    ///
    /// Callers must only skip cycles after a settled tick, strictly before
    /// [`OramController::next_wakeup`], the DRAM model's next completion and
    /// the first DRAM issue that makes [`OramController::retry_ready`]
    /// true. They accumulate `stalled` per segment with the same `< 4` queue
    /// test [`OramController::tick`] applies, then call this once; deadlines
    /// are absolute, so the whole skip is one addition to the countdown
    /// clock, bounded by the nearest deadline.
    pub fn skip_cycles_window(&mut self, total: u64, stalled: u64) {
        debug_assert!(stalled <= total);
        self.stats.cycles += total;
        self.account_stalls(stalled);
        self.countdown_clock += total;
        debug_assert!(
            total == 0
                || self.countdown_min == u64::MAX
                || self.countdown_min > self.countdown_clock,
            "skip of {total} cycles overran the nearest compute deadline"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palermo_dram::DramConfig;
    use palermo_oram::access_plan::AccessPlanBuilder;
    use palermo_oram::types::{OramOp, PhysAddr};

    /// Spreads plan base addresses across DRAM banks and rows the way real
    /// ORAM traffic does (random leaf selection); a regular power-of-two
    /// stride would alias every plan onto one bank and measure bank-conflict
    /// serialisation instead of controller behaviour.
    fn scattered_base(i: u64) -> u64 {
        (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 34) << 6
    }

    fn simple_plan(id: u64, base_addr: u64, reads_per_node: usize) -> AccessPlan {
        let mut b = AccessPlanBuilder::new(id, PhysAddr::new(0), OramOp::Read);
        let mut addr = base_addr;
        let mut mk = |n: usize| {
            let v: Vec<u64> = (0..n).map(|i| addr + i as u64 * 64).collect();
            addr += n as u64 * 64;
            v
        };
        let lm2 = b.push(
            SubOram::Pos2,
            PhaseKind::LoadMetadata,
            mk(reads_per_node),
            vec![],
            vec![],
            0,
        );
        let rp2 = b.push(
            SubOram::Pos2,
            PhaseKind::ReadPath,
            mk(reads_per_node),
            vec![],
            vec![lm2],
            2,
        );
        let er2 = b.push(
            SubOram::Pos2,
            PhaseKind::EarlyReshuffle,
            vec![],
            mk(2),
            vec![lm2],
            0,
        );
        let lm1 = b.push(
            SubOram::Pos1,
            PhaseKind::LoadMetadata,
            mk(reads_per_node),
            vec![],
            vec![rp2],
            0,
        );
        let rp1 = b.push(
            SubOram::Pos1,
            PhaseKind::ReadPath,
            mk(reads_per_node),
            vec![],
            vec![lm1],
            2,
        );
        let lm0 = b.push(
            SubOram::Data,
            PhaseKind::LoadMetadata,
            mk(reads_per_node),
            vec![],
            vec![rp1],
            0,
        );
        let _rp0 = b.push(
            SubOram::Data,
            PhaseKind::ReadPath,
            mk(reads_per_node),
            vec![],
            vec![lm0],
            2,
        );
        let _ = er2;
        b.build()
    }

    fn run_to_completion(
        controller: &mut OramController,
        dram: &mut DramSystem,
        plans: Vec<AccessPlan>,
        limit: u64,
    ) -> Vec<FinishedRequest> {
        let mut queue: std::collections::VecDeque<AccessPlan> = plans.into();
        let total = queue.len();
        let mut finished = Vec::new();
        while finished.len() < total {
            if let Some(plan) = queue.pop_front() {
                if let Err(plan) = controller.try_submit(plan, dram.cycle()) {
                    queue.push_front(plan);
                }
            }
            controller.tick(dram);
            dram.tick();
            finished.extend(controller.drain_finished());
            assert!(dram.cycle() < limit, "simulation did not converge");
        }
        finished
    }

    #[test]
    fn single_plan_completes() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::serial_default());
        let finished = run_to_completion(&mut ctrl, &mut dram, vec![simple_plan(0, 0, 4)], 100_000);
        assert_eq!(finished.len(), 1);
        assert!(finished[0].latency() > 0);
        assert_eq!(ctrl.stats().requests_finished, 1);
        assert_eq!(ctrl.inflight(), 0);
        // Every burst the controller issued belongs to the one request.
        assert_eq!(finished[0].dram_ops, ctrl.stats().issued_ops);
        assert!(finished[0].dram_ops > 0);
    }

    #[test]
    fn per_request_dram_ops_sum_to_the_issue_counters() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::palermo_sw_default());
        let plans: Vec<AccessPlan> = (0..6).map(|i| simple_plan(i, i % 3, 4)).collect();
        let finished = run_to_completion(&mut ctrl, &mut dram, plans, 500_000);
        assert_eq!(finished.len(), 6);
        let per_request: u64 = finished.iter().map(|f| f.dram_ops).sum();
        assert_eq!(per_request, ctrl.stats().issued_ops);
        assert_eq!(
            per_request,
            ctrl.stats().dram_reads_issued + ctrl.stats().dram_writes_issued
        );
        assert!(finished.iter().all(|f| f.dram_ops > 0));
    }

    #[test]
    fn serial_policy_orders_requests() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::serial_default());
        let plans: Vec<AccessPlan> = (0..4)
            .map(|i| simple_plan(i, scattered_base(i), 4))
            .collect();
        let finished = run_to_completion(&mut ctrl, &mut dram, plans, 500_000);
        assert_eq!(finished.len(), 4);
        // Completion order must match submission order for the serial policy.
        let order: Vec<u64> = finished.iter().map(|f| f.request_id).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn palermo_mesh_overlaps_requests() {
        // The same plan stream must finish in fewer cycles under the mesh
        // policy than under the serial policy — the core co-design claim.
        let run = |config: ControllerConfig| {
            let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
            let mut ctrl = OramController::new(config);
            let plans: Vec<AccessPlan> = (0..24)
                .map(|i| simple_plan(i, scattered_base(i), 16))
                .collect();
            run_to_completion(&mut ctrl, &mut dram, plans, 2_000_000);
            dram.cycle()
        };
        let serial = run(ControllerConfig::serial_default());
        let mesh = run(ControllerConfig::palermo_default());
        assert!(
            (mesh as f64) < serial as f64 * 0.8,
            "mesh {mesh} not faster than serial {serial}"
        );
    }

    #[test]
    fn palermo_sw_is_between_serial_and_mesh() {
        let run = |config: ControllerConfig| {
            let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
            let mut ctrl = OramController::new(config);
            let plans: Vec<AccessPlan> = (0..24)
                .map(|i| simple_plan(i, scattered_base(i), 16))
                .collect();
            run_to_completion(&mut ctrl, &mut dram, plans, 2_000_000);
            dram.cycle()
        };
        let serial = run(ControllerConfig::serial_default());
        let sw = run(ControllerConfig::palermo_sw_default());
        let mesh = run(ControllerConfig::palermo_default());
        assert!(mesh <= sw, "mesh {mesh} vs sw {sw}");
        assert!(sw <= serial, "sw {sw} vs serial {serial}");
    }

    #[test]
    fn capacity_is_respected() {
        let mut ctrl = OramController::new(ControllerConfig {
            policy: SchedulePolicy::PalermoMesh,
            pe_columns: 2,
            issue_width: 8,
        });
        assert!(ctrl.try_submit(simple_plan(0, 0, 2), 0).is_ok());
        assert!(ctrl
            .try_submit(simple_plan(1, scattered_base(1), 2), 0)
            .is_ok());
        assert!(!ctrl.can_accept());
        assert!(ctrl
            .try_submit(simple_plan(2, scattered_base(2), 2), 0)
            .is_err());
        assert_eq!(ctrl.inflight(), 2);
    }

    #[test]
    fn stats_track_issue_and_stall_cycles() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::serial_default());
        run_to_completion(
            &mut ctrl,
            &mut dram,
            vec![simple_plan(0, 0, 8), simple_plan(1, scattered_base(1), 8)],
            200_000,
        );
        let stats = ctrl.stats();
        assert!(stats.dram_reads_issued > 0);
        assert!(stats.dram_writes_issued > 0);
        assert!(stats.cycles > 0);
        assert!(stats.sync_stall_cycles > 0, "serial execution must stall");
        assert_eq!(stats.requests_accepted, 2);
        assert_eq!(stats.requests_finished, 2);
    }

    /// `count` distinct block addresses that map to DRAM channel `channel`.
    fn channel_addrs(config: DramConfig, channel: u32, count: usize) -> Vec<u64> {
        let mapper = palermo_dram::address::AddressMapper::new(config);
        (0..)
            .map(|i: u64| i * 64)
            .filter(|&a| mapper.map(a).channel == channel)
            .take(count)
            .collect()
    }

    /// A plan of independent Data-level read nodes, one per address list.
    fn read_nodes_plan(id: u64, nodes: &[Vec<u64>]) -> AccessPlan {
        let mut b = AccessPlanBuilder::new(id, PhysAddr::new(0), OramOp::Read);
        for reads in nodes {
            b.push(
                SubOram::Data,
                PhaseKind::ReadPath,
                reads.clone(),
                vec![],
                vec![],
                0,
            );
        }
        b.build()
    }

    #[test]
    fn retry_waits_for_the_channel_that_turned_the_enqueue_away() {
        let mut config = DramConfig::ddr4_3200_quad_channel();
        config.queue_capacity = 2;
        let mut dram = DramSystem::new(config);
        let ch0 = channel_addrs(config, 0, 3);
        let ch1 = channel_addrs(config, 1, 2);
        // Channel 1 fills first, so it also frees its first slot first.
        for (i, &a) in ch1.iter().enumerate() {
            assert!(dram.try_enqueue(MemRequest::read(1_000 + i as u64, a)));
        }
        for _ in 0..4 {
            dram.tick();
        }
        for (i, &a) in ch0[..2].iter().enumerate() {
            assert!(dram.try_enqueue(MemRequest::read(2_000 + i as u64, a)));
        }
        let mut ctrl = OramController::new(ControllerConfig::palermo_default());
        ctrl.try_submit(read_nodes_plan(0, &[vec![ch0[2]]]), dram.cycle())
            .unwrap();
        let activity = ctrl.tick(&mut dram);
        assert_eq!(activity.ops_issued, 0);
        assert!(activity.settled);
        assert!(ctrl.enqueue_blocked());
        assert!(!ctrl.retry_ready(&dram));

        let mut other_channel_freed = false;
        while !dram.can_accept(ch0[2]) {
            dram.tick();
            assert!(dram.cycle() < 10_000, "channel 0 never freed a slot");
            if dram.can_accept(ch1[0]) && !dram.can_accept(ch0[2]) {
                other_channel_freed = true;
                assert!(
                    !ctrl.retry_ready(&dram),
                    "a slot in a channel that rejected nothing must not wake the retry"
                );
            }
        }
        assert!(other_channel_freed, "channel 1 never freed a slot first");
        assert!(ctrl.retry_ready(&dram));
        // The retry then goes through.
        let activity = ctrl.tick(&mut dram);
        assert_eq!(activity.ops_issued, 1);
        assert!(!ctrl.enqueue_blocked());
        assert!(!ctrl.retry_ready(&dram));
    }

    #[test]
    fn serial_successor_issues_on_the_tick_its_predecessors_last_read_returns() {
        // The predecessor's one node computes for a while after its read
        // returns, so no node completes on the return tick: only the
        // returning read itself can tell the issue pass that the Serial
        // hand-off (all reads back) now lets the successor go.
        let one_read = |id: u64, addr: u64, compute_cycles: u32| {
            let mut b = AccessPlanBuilder::new(id, PhysAddr::new(0), OramOp::Read);
            b.push(
                SubOram::Data,
                PhaseKind::LoadMetadata,
                vec![addr],
                vec![],
                vec![],
                compute_cycles,
            );
            b.build()
        };
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::serial_default());
        ctrl.try_submit(one_read(0, scattered_base(1), 50), 0)
            .unwrap();
        ctrl.try_submit(one_read(1, scattered_base(2), 0), 0)
            .unwrap();
        assert_eq!(
            ctrl.tick(&mut dram).ops_issued,
            1,
            "only the predecessor issues"
        );
        loop {
            dram.tick();
            let activity = ctrl.tick(&mut dram);
            if activity.completions_routed > 0 {
                assert_eq!(activity.nodes_completed, 0);
                assert_eq!(
                    activity.ops_issued, 1,
                    "the successor waited past the hand-off"
                );
                break;
            }
            assert_eq!(
                activity.ops_issued, 0,
                "the successor issued before the hand-off"
            );
            assert!(
                dram.cycle() < 10_000,
                "the predecessor's read never returned"
            );
        }
    }

    #[test]
    fn a_parked_node_forgets_its_channel_once_the_operation_issues() {
        // A node's first read is turned away by full channel 0; once channel
        // 0 frees a slot the read takes it, filling the channel again. The
        // node's next read goes to channel 1, which has room, so both issue
        // in the same tick — the node must not stay parked on channel 0.
        let mut config = DramConfig::ddr4_3200_quad_channel();
        config.queue_capacity = 2;
        let mut dram = DramSystem::new(config);
        let ch0 = channel_addrs(config, 0, 3);
        let ch1 = channel_addrs(config, 1, 1);
        for (i, &a) in ch0[..2].iter().enumerate() {
            assert!(dram.try_enqueue(MemRequest::read(1_000 + i as u64, a)));
        }
        let mut ctrl = OramController::new(ControllerConfig::palermo_default());
        ctrl.try_submit(read_nodes_plan(0, &[vec![ch0[2], ch1[0]]]), dram.cycle())
            .unwrap();
        assert_eq!(ctrl.tick(&mut dram).ops_issued, 0);
        assert!(ctrl.enqueue_blocked());
        while !ctrl.retry_ready(&dram) {
            dram.tick();
            assert!(dram.cycle() < 10_000, "channel 0 never freed a slot");
        }
        let activity = ctrl.tick(&mut dram);
        assert_eq!(activity.ops_issued, 2);
        assert!(!ctrl.enqueue_blocked());
    }

    #[test]
    fn a_width_limited_pass_resumes_on_the_next_tick() {
        // Nothing but the unsettled tick itself tells the next tick that
        // ready work is left: no submit, completion or freed slot follows.
        let config = ControllerConfig {
            policy: SchedulePolicy::PalermoMesh,
            pe_columns: 8,
            issue_width: 2,
        };
        let base = scattered_base(1);
        let reads: Vec<u64> = (0..4).map(|i| base + i * 64).collect();
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(config);
        ctrl.try_submit(read_nodes_plan(0, &[reads]), 0).unwrap();
        let first = ctrl.tick(&mut dram);
        assert_eq!(first.ops_issued, 2);
        assert!(!first.settled);
        dram.tick();
        let second = ctrl.tick(&mut dram);
        assert_eq!(second.completions_routed, 0);
        assert_eq!(second.ops_issued, 2);
        assert!(second.settled);
    }

    #[test]
    fn width_running_out_on_the_last_node_still_settles() {
        let config = ControllerConfig {
            policy: SchedulePolicy::PalermoMesh,
            pe_columns: 8,
            issue_width: 2,
        };
        let two_reads = |i: u64| vec![scattered_base(i), scattered_base(i) + 64];

        // The width runs out on the last node of the last request: nothing
        // is left for the next cycle, so the tick settles.
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(config);
        ctrl.try_submit(read_nodes_plan(0, &[two_reads(1)]), 0)
            .unwrap();
        let activity = ctrl.tick(&mut dram);
        assert_eq!(activity.ops_issued, 2);
        assert!(activity.settled);

        // A node after the one that used up the width — even one with
        // nothing left to issue — means the issue pass stopped early.
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(config);
        ctrl.try_submit(read_nodes_plan(0, &[two_reads(1), vec![]]), 0)
            .unwrap();
        let activity = ctrl.tick(&mut dram);
        assert_eq!(activity.ops_issued, 2);
        assert!(!activity.settled);

        // So does a later request.
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(config);
        ctrl.try_submit(read_nodes_plan(0, &[two_reads(1)]), 0)
            .unwrap();
        ctrl.try_submit(read_nodes_plan(1, &[two_reads(2)]), 0)
            .unwrap();
        let activity = ctrl.tick(&mut dram);
        assert_eq!(activity.ops_issued, 2);
        assert!(!activity.settled);
    }

    #[test]
    fn finished_latency_is_consistent() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::palermo_default());
        let finished = run_to_completion(&mut ctrl, &mut dram, vec![simple_plan(3, 0, 4)], 100_000);
        assert_eq!(finished[0].request_id, 3);
        assert!(finished[0].finished_at >= finished[0].submitted_at);
        assert!(!finished[0].is_dummy);
    }
}
