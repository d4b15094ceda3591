//! Concurrent multi-query execution: closed-loop sessions sharing one
//! simulated machine.
//!
//! The paper's experiments run one query at a time; real servers admit many.
//! [`MultiEngine`] interleaves N *sessions* — each a closed loop of
//! range-MAX queries separated by seeded think time — on **one**
//! [`SimContext`]: one device, one buffer pool, one CPU scheduler.
//!
//! The scheduler is O(owners) per event: sessions live in a dense slab
//! keyed by their index, think-time wakeups ride tagged virtual timers
//! through the context's calendar queue (`tag = 1 + session`, so a wakeup
//! routes to its owner without a side table or a scan), and each machine
//! event goes only to the solo drivers that own it. The engine stamps
//! every driver call with the query's owner token; the context records
//! that token on the I/O and compute the driver issues, adds it to a
//! deduplicated page read's owner set, and hands the set back with the
//! completion. Queries attached to the shared-scan hub
//! ([`crate::shared::ScanHub`], enabled by [`WorkloadSpec::shared_scans`])
//! own no events at all: one circular cursor serves every attached
//! consumer, so a 100K-session workload costs one stream of device events.
//! Owners are visited in the order of the dense running-solo list, so the
//! interleaving is exact and byte-deterministic for a given
//! [`WorkloadSpec`] seed.
//!
//! Plan choice is delegated to an [`AdmissionPlanner`]: the engine tells it
//! how many queries are already running when a new one arrives, and the
//! planner answers with the [`PlanSpec`] to execute — or, under shared
//! scans, with [`SharedChoice::Attach`] to ride the hub's cursor at
//! marginal cost. The trivial [`FixedPlanner`] always picks the same plan;
//! the QDTT-aware planner in the optimizer crate hands out queue-depth
//! leases from the device budget and re-costs every candidate under its
//! lease, charging the shared cursor's lease **once** no matter how many
//! consumers attach.
//!
//! Determinism invariants: per-session randomness comes from
//! `SimRng::derive(spec.seed, session)`, think time advances on virtual
//! [`Event::Timer`]s, and all engine state lives in ordered or dense
//! collections.

use crate::driver::{QueryAnswer, QueryDriver};
use crate::engine::{Event, ExecError, IoProfile, ResilienceStats, SimContext};
use crate::execute::{make_driver, PlanSpec};
use crate::fts::FtsConfig;
use crate::query::{Predicate, QuerySpec};
use crate::shared::{ScanHub, SharedScanStats};
use crate::write::{WriteConfig, WriteStats, WriteSystem};
use pioqo_bufpool::{BufferPool, PoolStats};
use pioqo_device::IoStatus;
use pioqo_obs::{HistSet, Histogram};
use pioqo_simkit::{SimDuration, SimRng, SimTime};
use pioqo_storage::range_for_selectivity;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Plan label recorded for queries served by the shared-scan hub.
const SHARED_LABEL: &str = "FTS+shared";

/// Distribution of the pause between a session's consecutive queries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ThinkTime {
    /// The same pause every time.
    Fixed(SimDuration),
    /// Exponentially distributed pause (memoryless arrivals, the classic
    /// closed-loop client model).
    Exponential {
        /// Mean of the distribution.
        mean: SimDuration,
    },
}

impl ThinkTime {
    /// Draw one pause from the session's generator.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            ThinkTime::Fixed(d) => d,
            ThinkTime::Exponential { mean } => {
                // Inverse CDF on (0, 1]: -ln(1-u) is Exp(1).
                let u = rng.unit();
                mean * (-(1.0 - u).ln())
            }
        }
    }
}

/// A multi-session closed-loop workload, fully described (and so fully
/// reproducible: the spec plus the machine is the experiment).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of concurrent closed-loop sessions.
    pub sessions: u32,
    /// Queries each session issues before it stops.
    pub queries_per_session: u32,
    /// Pause between a session's queries (sampled per query).
    pub think: ThinkTime,
    /// Selectivities cycled through by each session (query `i` uses
    /// `selectivities[i % len]`).
    pub selectivities: Vec<f64>,
    /// Master seed; session `s` draws from `SimRng::derive(seed, s)`.
    pub seed: u64,
    /// Stop issuing new queries past this much virtual time (in-flight
    /// queries still finish). `None` means every session runs its full
    /// query count. A horizon makes per-session completion counts diverge,
    /// which is what the fairness metrics are for.
    pub horizon: Option<SimDuration>,
    /// The write workload running beside the scans, if any (populated by
    /// [`MultiEngine::run_with_writes`] so reports stay self-describing).
    pub writes: Option<WriteConfig>,
    /// Route table-scan queries through the cooperative shared-scan hub:
    /// overlapping consumers ride one circular cursor instead of each
    /// issuing their own device stream. Answers are identical either way;
    /// only the simulated machine usage (and the wall-clock cost of the
    /// simulation itself) changes.
    pub shared_scans: bool,
    /// Keep at most this many per-query [`QueryRecord`]s in the report
    /// (`None` = keep all). At 100K sessions the full record vector is the
    /// dominant memory cost; aggregates and histograms always cover every
    /// query regardless of the cap.
    pub record_limit: Option<u64>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            sessions: 4,
            queries_per_session: 4,
            think: ThinkTime::Exponential {
                mean: SimDuration::from_micros_f64(2_000.0),
            },
            selectivities: vec![0.001, 0.01, 0.05],
            seed: 42,
            horizon: None,
            writes: None,
            shared_scans: false,
            record_limit: None,
        }
    }
}

/// What the engine tells the planner about a query asking for admission.
#[derive(Debug, Clone, Copy)]
pub struct QueryAdmission {
    /// The issuing session.
    pub session: u32,
    /// The session-local query index (0-based).
    pub query_index: u32,
    /// Queries of *other* sessions running at admission time (this query
    /// will make it `active + 1`).
    pub active: u32,
    /// The query's predicate selectivity.
    pub selectivity: f64,
    /// Predicate lower bound (inclusive).
    pub low: u32,
    /// Predicate upper bound (inclusive).
    pub high: u32,
}

/// The planner's answer under shared scans: run a plan of your own, or
/// attach to the shared circular cursor at marginal cost.
#[derive(Debug, Clone)]
pub enum SharedChoice {
    /// Execute a dedicated plan (the classic path).
    Solo(PlanSpec),
    /// Attach to the shared-scan hub's cursor (starting it if idle).
    Attach,
}

/// Chooses the physical plan for each admitted query.
///
/// Implementations see the live concurrency level and buffer pool, so they
/// can be as simple as [`FixedPlanner`] or as involved as the optimizer
/// crate's QDTT admission layer (lease out device queue depth, re-cost all
/// candidates under the lease). [`AdmissionPlanner::complete`] is the
/// engine's promise that every admission is paired with exactly one
/// completion — the hook where leases are returned.
pub trait AdmissionPlanner {
    /// Choose the plan for `q`. Called once per query, at admission.
    fn admit(&mut self, q: &QueryAdmission, pool: &BufferPool) -> PlanSpec;

    /// Choose between a dedicated plan and attaching to the shared scan
    /// cursor (`cursor_active` says whether one is already streaming).
    /// Only called when the workload enables shared scans. The default
    /// never attaches.
    fn admit_shared(
        &mut self,
        q: &QueryAdmission,
        pool: &BufferPool,
        cursor_active: bool,
    ) -> SharedChoice {
        let _ = cursor_active;
        SharedChoice::Solo(self.admit(q, pool))
    }

    /// The shared cursor is starting: lease it a queue depth (in block
    /// submissions). Charged once per cursor start, not per consumer.
    fn cursor_start(&mut self, pool: &BufferPool) -> u32 {
        let _ = pool;
        8
    }

    /// The shared cursor went idle; the paired release of
    /// [`cursor_start`](Self::cursor_start).
    fn cursor_stop(&mut self) {}

    /// The query admitted for `session` finished (successfully or not).
    fn complete(&mut self, session: u32) {
        let _ = session;
    }

    /// Background writeback (checkpoint flushing) became active: planners
    /// managing a device budget should carve out a share for it, so
    /// concurrent scans are admitted with less queue depth while the
    /// flusher's writes contend for the device. The default ignores it.
    fn background_acquire(&mut self) {}

    /// Background writeback went idle again; the paired release of
    /// [`background_acquire`](Self::background_acquire).
    fn background_release(&mut self) {}

    /// Instantaneous lease accounting for metrics: `(active_leases,
    /// depth_limit)`. Planners that manage no queue-depth budget report
    /// `(0, 0)` and the engine's admission gauges stay flat at zero.
    fn depth_gauges(&self) -> (u32, u32) {
        (0, 0)
    }
}

/// The null admission policy: every query runs the same plan. Under
/// shared scans, full-table-scan plans attach to the shared cursor.
#[derive(Debug, Clone)]
pub struct FixedPlanner {
    /// The plan to run.
    pub plan: PlanSpec,
}

impl AdmissionPlanner for FixedPlanner {
    fn admit(&mut self, _q: &QueryAdmission, _pool: &BufferPool) -> PlanSpec {
        self.plan.clone()
    }

    fn admit_shared(
        &mut self,
        q: &QueryAdmission,
        pool: &BufferPool,
        _cursor_active: bool,
    ) -> SharedChoice {
        match self.plan {
            PlanSpec::Fts(_) => SharedChoice::Attach,
            _ => SharedChoice::Solo(self.admit(q, pool)),
        }
    }
}

/// Passing `&mut planner` lets the caller keep the planner (and whatever
/// journal it accumulated) after [`MultiEngine::run`] consumes the engine.
impl<P: AdmissionPlanner + ?Sized> AdmissionPlanner for &mut P {
    fn admit(&mut self, q: &QueryAdmission, pool: &BufferPool) -> PlanSpec {
        (**self).admit(q, pool)
    }

    fn admit_shared(
        &mut self,
        q: &QueryAdmission,
        pool: &BufferPool,
        cursor_active: bool,
    ) -> SharedChoice {
        (**self).admit_shared(q, pool, cursor_active)
    }

    fn cursor_start(&mut self, pool: &BufferPool) -> u32 {
        (**self).cursor_start(pool)
    }

    fn cursor_stop(&mut self) {
        (**self).cursor_stop();
    }

    fn complete(&mut self, session: u32) {
        (**self).complete(session);
    }

    fn background_acquire(&mut self) {
        (**self).background_acquire();
    }

    fn background_release(&mut self) {
        (**self).background_release();
    }

    fn depth_gauges(&self) -> (u32, u32) {
        (**self).depth_gauges()
    }
}

/// One completed query, as the workload report records it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryRecord {
    /// The issuing session.
    pub session: u32,
    /// The session-local query index.
    pub query_index: u32,
    /// The predicate selectivity the query ran with.
    pub selectivity: f64,
    /// Label of the plan the planner chose ("FTS", "PIS8+pf4",
    /// "FTS+shared", ...).
    pub plan: String,
    /// The plan's parallel degree.
    pub degree: u32,
    /// Concurrent queries (other sessions) when this one was admitted.
    pub active_at_admit: u32,
    /// Virtual admission time.
    pub submitted: SimTime,
    /// Admission-to-answer virtual latency.
    pub latency: SimDuration,
    /// The query answer.
    pub max_c1: Option<u32>,
    /// Rows matching the predicate.
    pub rows_matched: u64,
}

/// Per-session accounting in the workload report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSummary {
    /// The session.
    pub session: u32,
    /// Queries the session completed.
    pub completed: u32,
    /// Mean query latency, µs.
    pub mean_latency_us: f64,
}

/// Everything a [`MultiEngine`] run reports.
///
/// The fixed-size aggregates are boxed, so a report is a couple of
/// hundred bytes to move and to keep in bulk (grids and repeated runs
/// hold many); reading a field is unchanged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// The spec that produced this report (self-describing exports).
    pub spec: Box<WorkloadSpec>,
    /// Completed queries in completion order (capped by
    /// [`WorkloadSpec::record_limit`]).
    pub records: Vec<QueryRecord>,
    /// Per-session accounting.
    pub per_session: Vec<SessionSummary>,
    /// How often each plan label was chosen.
    pub plan_counts: BTreeMap<String, u64>,
    /// Query latencies across all sessions, µs.
    pub query_latency_us: Box<Histogram>,
    /// 95th-percentile query latency across all sessions, µs.
    pub p95_latency_us: u64,
    /// 99th-percentile query latency across all sessions, µs.
    pub p99_latency_us: u64,
    /// First admission to last completion, virtual time.
    pub makespan: SimDuration,
    /// Device-level I/O profile over the whole workload.
    pub io: Box<IoProfile>,
    /// Buffer-pool counters over the whole workload.
    pub pool: Box<PoolStats>,
    /// Fault-handling counters over the whole workload.
    pub resilience: ResilienceStats,
    /// Machine-level histograms (I/O latency, queue depth, page waits).
    pub hists: Box<HistSet>,
    /// Shared-scan hub counters (all zero when sharing is off).
    pub shared: Box<SharedScanStats>,
    /// Machine events the engine dispatched (I/O and compute completions
    /// and timers).
    pub events_dispatched: u64,
    /// Calls to solo drivers' `on_event`. Owner routing makes this about
    /// one per I/O or compute completion; a deduplicated read shared by
    /// several queries adds one per extra owner.
    pub driver_callbacks: u64,
    /// Write-path counters, when a write workload ran beside the scans.
    pub writes: Option<Box<WriteStats>>,
}

impl WorkloadReport {
    /// Total queries completed across all sessions.
    pub fn total_completed(&self) -> u64 {
        self.per_session.iter().map(|s| s.completed as u64).sum()
    }

    /// Fraction of completed queries served by the shared-scan hub.
    pub fn shared_attach_rate(&self) -> f64 {
        let total = self.total_completed();
        if total == 0 {
            0.0
        } else {
            self.shared.attaches as f64 / total as f64
        }
    }

    /// Max/min completed-query ratio across sessions: 1.0 is perfectly
    /// fair, `f64::INFINITY` means a session starved completely. Only
    /// meaningful for horizon-bounded workloads (without a horizon every
    /// session completes its full count and the ratio is trivially 1).
    pub fn fairness_ratio(&self) -> f64 {
        let min = self.per_session.iter().map(|s| s.completed).min();
        let max = self.per_session.iter().map(|s| s.completed).max();
        match (min, max) {
            (Some(0), Some(0)) | (None, _) | (_, None) => 1.0,
            (Some(0), Some(_)) => f64::INFINITY,
            (Some(min), Some(max)) => max as f64 / min as f64,
        }
    }

    /// The report as pretty JSON (the byte-identity artifact the
    /// determinism tests and CI compare).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// A query running solo (its own driver) on one session.
struct ActiveQuery<'q> {
    driver: Box<dyn QueryDriver + 'q>,
    submitted: SimTime,
    query_index: u32,
    selectivity: f64,
    /// Empty when the record cap was already reached at admission (the
    /// label would never be recorded, so it is never materialized).
    plan_label: String,
    degree: u32,
    active_at_admit: u32,
}

/// A query riding the shared-scan hub on one session.
struct AttachedQuery {
    submitted: SimTime,
    query_index: u32,
    selectivity: f64,
    active_at_admit: u32,
}

enum SessState<'q> {
    /// Waiting on a tagged think timer.
    Thinking,
    /// Running a dedicated driver (on the dense running-solo list).
    Running(ActiveQuery<'q>),
    /// Attached to the shared-scan hub (off the running-solo list).
    Attached(AttachedQuery),
    Finished,
}

struct Sess<'q> {
    rng: SimRng,
    track: u32,
    issued: u32,
    completed: u32,
    latency_sum_us: f64,
    /// Index into the dense running-solo list while `Running`, else
    /// `u32::MAX`.
    run_idx: u32,
    state: SessState<'q>,
}

/// The dispatch owner token of session `s`'s query number `query_index`.
/// The query index keeps a late completion of a finished query from
/// reaching the session's next query.
fn owner_token(s: usize, query_index: u32) -> u64 {
    ((s as u64) << 32) | u64::from(query_index)
}

fn token_session(token: u64) -> usize {
    (token >> 32) as usize
}

/// Index on the running-solo list of the query `token` names, if that
/// query is still running.
fn owner_index(sessions: &[Sess<'_>], token: u64) -> Option<usize> {
    let sess = sessions.get(token_session(token))?;
    match &sess.state {
        SessState::Running(q) if q.query_index == token as u32 => Some(sess.run_idx as usize),
        _ => None,
    }
}

/// Metadata shared by both completion paths.
struct FinishedMeta {
    submitted: SimTime,
    query_index: u32,
    selectivity: f64,
    /// `None` means the shared-scan label.
    plan: Option<String>,
    degree: u32,
    active_at_admit: u32,
}

/// The mutable run-loop state outside the session slab.
struct RunState {
    records: Vec<QueryRecord>,
    plan_counts: BTreeMap<String, u64>,
    query_latency: Histogram,
    last_complete: SimTime,
    /// Dense list of sessions whose query is running solo. An event's
    /// owners are visited in this list's order.
    running_solo: Vec<u32>,
    /// Owner tokens of the event being dispatched.
    owner_buf: Vec<u64>,
    events_dispatched: u64,
    driver_callbacks: u64,
    /// Hub consumer slot -> owning session.
    attached_owner: Vec<u32>,
    /// Sessions not yet `Finished` (the loop condition, maintained
    /// incrementally instead of scanning the slab).
    unfinished: u32,
    /// Queries currently in flight (solo + attached).
    active_queries: u32,
    /// Whether the engine believes the shared cursor holds a lease.
    cursor_active: bool,
    /// Reusable plan-label scratch (no per-query allocation).
    label_buf: String,
    /// Reusable shared-completion drain buffer.
    completions_buf: Vec<(u32, QueryAnswer)>,
}

/// The concurrent multi-query engine. See the module docs.
///
/// ```
/// use pioqo_exec::{
///     CpuConfig, CpuCosts, FixedPlanner, MultiEngine, PlanSpec, QuerySpec,
///     SimContext, SortedIsConfig, WorkloadSpec,
/// };
/// use pioqo_bufpool::BufferPool;
/// use pioqo_device::presets::consumer_pcie_ssd;
/// use pioqo_storage::{BTreeIndex, HeapTable, TableSpec, Tablespace};
///
/// let spec = TableSpec::paper_table(33, 20_000, 7);
/// let mut ts = Tablespace::new(4 * spec.n_pages() + 1000);
/// let table = HeapTable::create(spec, &mut ts).unwrap();
/// let index = BTreeIndex::build(
///     "c2_idx", table.data().c2_entries(), table.spec().page_size, &mut ts,
/// ).unwrap();
/// let mut dev = consumer_pcie_ssd(ts.capacity(), 7);
/// let mut pool = BufferPool::new(4096);
/// let mut ctx = SimContext::new(
///     &mut dev, &mut pool, CpuConfig::paper_xeon(), CpuCosts::default(),
/// );
/// let engine = MultiEngine::new(
///     WorkloadSpec { sessions: 2, queries_per_session: 2, ..WorkloadSpec::default() },
///     QuerySpec::range_max(&table, Some(&index), 0, 0),
///     FixedPlanner { plan: PlanSpec::SortedIs(SortedIsConfig::default()) },
/// );
/// let report = engine.run(&mut ctx).unwrap();
/// assert_eq!(report.total_completed(), 4);
/// ```
pub struct MultiEngine<'q, P: AdmissionPlanner> {
    spec: WorkloadSpec,
    base: QuerySpec<'q>,
    planner: P,
}

impl<'q, P: AdmissionPlanner> MultiEngine<'q, P> {
    /// An engine for `spec` over the given base query, with `planner`
    /// choosing each query's plan. Each query runs the base spec with its
    /// own predicate window from the selectivity cycle: a base predicate
    /// that is `True` or a pure `C2 BETWEEN` range is *replaced* by the
    /// per-query window; any richer predicate tree is ANDed with it. The
    /// base's plan field is ignored — the planner decides per query.
    pub fn new(spec: WorkloadSpec, base: QuerySpec<'q>, planner: P) -> MultiEngine<'q, P> {
        assert!(spec.sessions >= 1, "a workload needs at least one session");
        assert!(
            !spec.selectivities.is_empty(),
            "a workload needs at least one selectivity"
        );
        MultiEngine {
            spec,
            base,
            planner,
        }
    }

    /// Run the workload to completion on `ctx` and report.
    ///
    /// Returns `ExecError::Internal` if the event loop stalls with sessions
    /// outstanding (an engine bug, not a caller error), or the underlying
    /// error if any query's own I/O fails.
    pub fn run(self, ctx: &mut SimContext<'_>) -> Result<WorkloadReport, ExecError> {
        self.run_inner(ctx, None)
    }

    /// Run the workload with a [`WriteSystem`] sharing the machine: its
    /// group-commit and writeback I/O goes through the same device queue
    /// the scans use, so checkpoints visibly perturb scan latency — and
    /// the planner's [`AdmissionPlanner::background_acquire`] hook fires
    /// while writeback is in flight, shifting admission decisions.
    ///
    /// Returns [`ExecError::Crashed`] as soon as the device halts (a
    /// [`pioqo_device::Crashable`] plan firing); the write system then
    /// holds the exact pre-crash WAL/media state for
    /// [`crate::recovery::recover`].
    pub fn run_with_writes(
        mut self,
        ctx: &mut SimContext<'_>,
        ws: &mut WriteSystem,
    ) -> Result<WorkloadReport, ExecError> {
        self.spec.writes = Some(ws.config().clone());
        self.run_inner(ctx, Some(ws))
    }

    fn run_inner(
        mut self,
        ctx: &mut SimContext<'_>,
        mut ws: Option<&mut WriteSystem>,
    ) -> Result<WorkloadReport, ExecError> {
        let start = ctx.now();
        let pool_before = ctx.pool.stats().clone();
        let tracing = ctx.trace_enabled();
        let mut sessions: Vec<Sess<'q>> = Vec::with_capacity(self.spec.sessions as usize);
        for s in 0..self.spec.sessions {
            let track = if tracing {
                ctx.trace_track(&format!("session{s}"))
            } else {
                0
            };
            let mut rng = SimRng::derive(self.spec.seed, s as u64);
            // Initial stagger: sessions do not all arrive at t=0. The tag
            // routes the wakeup straight back to this session.
            let delay = self.spec.think.sample(&mut rng);
            ctx.schedule_timer_tagged(delay, 1 + s as u64);
            sessions.push(Sess {
                rng,
                track,
                issued: 0,
                completed: 0,
                latency_sum_us: 0.0,
                run_idx: u32::MAX,
                state: SessState::Thinking,
            });
        }
        let mut hub: Option<ScanHub<'q>> = self
            .spec
            .shared_scans
            .then(|| ScanHub::new(self.base.table, FtsConfig::default().block_pages));

        if let Some(w) = ws.as_deref_mut() {
            w.start(ctx);
        }

        let mut st = RunState {
            records: Vec::new(),
            plan_counts: BTreeMap::new(),
            query_latency: Histogram::new(),
            last_complete: start,
            running_solo: Vec::new(),
            owner_buf: Vec::new(),
            events_dispatched: 0,
            driver_callbacks: 0,
            attached_owner: Vec::new(),
            unfinished: self.spec.sessions,
            active_queries: 0,
            cursor_active: false,
            label_buf: String::new(),
            completions_buf: Vec::new(),
        };
        let mut events: Vec<Event> = Vec::new();
        let mut background_active = false;

        while st.unfinished > 0 || ws.as_deref().is_some_and(|w| !w.finished()) {
            if ctx.device_crashed() {
                return Err(ExecError::Crashed);
            }
            events.clear();
            if !ctx.step(&mut events) {
                if ctx.device_crashed() {
                    return Err(ExecError::Crashed);
                }
                return Err(ExecError::Internal {
                    detail: "multi-query engine stalled with sessions outstanding",
                });
            }
            st.events_dispatched += events.len() as u64;
            for (e, &ev) in events.iter().enumerate() {
                // The write system sees every event first; a `true` return
                // means the event was one of its own timers, which sessions
                // must never interpret as theirs.
                if let Some(w) = ws.as_deref_mut() {
                    let consumed = w.on_event(ctx, &ev)?;
                    let active = w.checkpoint_active();
                    if active != background_active {
                        background_active = active;
                        if active {
                            self.planner.background_acquire();
                        } else {
                            self.planner.background_release();
                        }
                    }
                    if consumed {
                        continue;
                    }
                }
                // Land every successful read in the pool up front. Drivers
                // admit their own pages anyway (admission is idempotent);
                // this covers completions whose owning query already
                // finished — and the shared cursor's block reads — so a
                // stray prefetch still warms the pool exactly as
                // `SimContext::quiesce` would have in single-query mode.
                match ev {
                    Event::IoPage {
                        device_page,
                        status: IoStatus::Ok,
                        ..
                    } => {
                        let _ = ctx.pool.admit_prefetched(device_page);
                    }
                    Event::IoBlock {
                        start,
                        len,
                        status: IoStatus::Ok,
                        ..
                    } => {
                        for p in start..start + len as u64 {
                            let _ = ctx.pool.admit_prefetched(p);
                        }
                    }
                    _ => {}
                }
                if let Event::Timer { tag, .. } = ev {
                    // Tag 0 timers belong to the write system (handled
                    // above); tags >= 1 route to session `tag - 1`.
                    if tag >= 1 {
                        let s = (tag - 1) as usize;
                        self.start_query(ctx, &mut sessions, hub.as_mut(), &mut st, s)?;
                        if matches!(&sessions[s].state, SessState::Running(q) if q.driver.done()) {
                            // Degenerate (empty-range) query: finished at
                            // admission time.
                            let i = sessions[s].run_idx as usize;
                            self.complete_solo(ctx, &mut sessions, &mut st, i);
                        }
                    }
                    continue;
                }
                // The shared cursor's own I/O and evaluation completions
                // have no solo owner.
                if let Some(h) = hub.as_mut() {
                    if h.on_event(ctx, &ev)? {
                        let mut comps = std::mem::take(&mut st.completions_buf);
                        comps.clear();
                        h.take_completions(&mut comps);
                        for &(slot, answer) in &comps {
                            self.complete_attached(ctx, &mut sessions, &mut st, slot, answer);
                        }
                        st.completions_buf = comps;
                        if st.cursor_active && !h.is_active() {
                            self.planner.cursor_stop();
                            st.cursor_active = false;
                        }
                        continue;
                    }
                }
                st.owner_buf.clear();
                st.owner_buf.extend_from_slice(ctx.event_owners(e));
                self.dispatch_to_owners(ctx, &mut sessions, &mut st, &ev)?;
            }
        }
        ctx.metric_counter("engine_events_dispatched_total", st.events_dispatched);
        ctx.metric_counter("engine_driver_callbacks_total", st.driver_callbacks);

        let write_stats = ws.as_deref().map(|w| w.stats());
        let io = ctx.io_profile();
        let resilience = ctx.resilience();
        ctx.quiesce();
        let hists = ctx.take_histograms();
        let pool = ctx.pool.stats().diff(&pool_before);
        let per_session = sessions
            .iter()
            .enumerate()
            .map(|(s, sess)| SessionSummary {
                session: s as u32,
                completed: sess.completed,
                mean_latency_us: if sess.completed == 0 {
                    0.0
                } else {
                    sess.latency_sum_us / sess.completed as f64
                },
            })
            .collect();
        let shared = hub.map(|h| h.stats().clone()).unwrap_or_default();
        Ok(WorkloadReport {
            spec: Box::new(self.spec),
            records: st.records,
            per_session,
            plan_counts: st.plan_counts,
            p95_latency_us: st.query_latency.quantile_lo(95, 100),
            p99_latency_us: st.query_latency.quantile_lo(99, 100),
            query_latency_us: Box::new(st.query_latency),
            makespan: st.last_complete.since(start),
            io: Box::new(io),
            pool: Box::new(pool),
            resilience,
            hists: Box::new(hists),
            shared: Box::new(shared),
            events_dispatched: st.events_dispatched,
            driver_callbacks: st.driver_callbacks,
            writes: write_stats.map(Box::new),
        })
    }

    /// Deliver `ev` to the solo drivers among `st.owner_buf` whose query
    /// is still running, in running-solo list order. Positions are re-read
    /// after every call: a completing driver is swap-removed, which moves
    /// the list's last entry into its index, and an owner moved there is
    /// next in line (the order the whole list would be walked in).
    fn dispatch_to_owners(
        &mut self,
        ctx: &mut SimContext<'_>,
        sessions: &mut [Sess<'q>],
        st: &mut RunState,
        ev: &Event,
    ) -> Result<(), ExecError> {
        let mut owners = std::mem::take(&mut st.owner_buf);
        while let Some((i, pos)) = owners
            .iter()
            .enumerate()
            .filter_map(|(pos, &token)| Some((owner_index(sessions, token)?, pos)))
            .min()
        {
            let token = owners.swap_remove(pos);
            let SessState::Running(q) = &mut sessions[token_session(token)].state else {
                break;
            };
            st.driver_callbacks += 1;
            ctx.set_dispatch_owner(Some(token));
            let res = q.driver.on_event(ctx, ev);
            ctx.set_dispatch_owner(None);
            res?;
            if q.driver.done() {
                self.complete_solo(ctx, sessions, st, i);
            }
        }
        st.owner_buf = owners;
        Ok(())
    }

    /// A session's think timer fired: admit its next query, or retire the
    /// session if its count is done or the horizon has passed.
    fn start_query(
        &mut self,
        ctx: &mut SimContext<'_>,
        sessions: &mut [Sess<'q>],
        hub: Option<&mut ScanHub<'q>>,
        st: &mut RunState,
        s: usize,
    ) -> Result<(), ExecError> {
        let now = ctx.now();
        let horizon_passed = self
            .spec
            .horizon
            .is_some_and(|h| now.since(SimTime::ZERO) >= h);
        if sessions[s].issued >= self.spec.queries_per_session || horizon_passed {
            sessions[s].state = SessState::Finished;
            st.unfinished -= 1;
            return Ok(());
        }
        let active = st.active_queries;
        let query_index = sessions[s].issued;
        sessions[s].issued += 1;
        let selectivity =
            self.spec.selectivities[query_index as usize % self.spec.selectivities.len()];
        let (low, high) = range_for_selectivity(selectivity, self.base.table.spec().c2_max);
        let admission = QueryAdmission {
            session: s as u32,
            query_index,
            active,
            selectivity,
            low,
            high,
        };
        // The hub's cursor computes the pure range-MAX answer over
        // `(low, high)`; a base query with a join, a residual predicate or
        // a non-default aggregate cannot ride it and always runs solo.
        let hub_eligible = self.base.join.is_none()
            && matches!(
                self.base.aggregate,
                crate::query::Aggregate::Max(crate::query::Col::C1)
            )
            && (matches!(self.base.predicate, Predicate::True)
                || self.base.predicate.is_pure_c2_range());
        let choice = match hub {
            Some(_) if self.spec.shared_scans && hub_eligible => {
                let cursor_active = st.cursor_active;
                self.planner
                    .admit_shared(&admission, ctx.pool, cursor_active)
            }
            _ => SharedChoice::Solo(self.planner.admit(&admission, ctx.pool)),
        };
        ctx.metric_counter("admission_total", 1);
        // Admission is synchronous today: a query never queues for a lease,
        // it is granted a (possibly clipped) depth immediately. The wait
        // histogram exists so the contract is visible the day batched
        // admission introduces a real queue.
        ctx.metric_hist("admission_lease_wait_us", 0);
        let (leased, limit) = self.planner.depth_gauges();
        ctx.metric_sample("admission_active_leases", u64::from(leased));
        ctx.metric_sample("admission_depth_limit", u64::from(limit));
        let cap = self.spec.record_limit.unwrap_or(u64::MAX);
        let plan = match (choice, hub) {
            (SharedChoice::Attach, Some(h)) => {
                if !h.is_active() {
                    let depth = self.planner.cursor_start(ctx.pool);
                    h.set_window(depth);
                    st.cursor_active = true;
                }
                let slot = h.attach(ctx, low, high);
                if st.attached_owner.len() <= slot as usize {
                    st.attached_owner.resize(slot as usize + 1, 0);
                }
                st.attached_owner[slot as usize] = s as u32;
                match st.plan_counts.get_mut(SHARED_LABEL) {
                    Some(n) => *n += 1,
                    None => {
                        st.plan_counts.insert(SHARED_LABEL.to_string(), 1);
                    }
                }
                ctx.trace_span_begin(sessions[s].track, "query");
                sessions[s].state = SessState::Attached(AttachedQuery {
                    submitted: now,
                    query_index,
                    selectivity,
                    active_at_admit: active,
                });
                st.active_queries += 1;
                return Ok(());
            }
            (SharedChoice::Solo(plan), _) => plan,
            // An Attach verdict with no hub (a planner ignoring its
            // `cursor_active` argument on an unshared workload) must not
            // strand the query: fall back to the solo admission path.
            (SharedChoice::Attach, None) => self.planner.admit(&admission, ctx.pool),
        };
        st.label_buf.clear();
        plan.label_into(&mut st.label_buf);
        match st.plan_counts.get_mut(st.label_buf.as_str()) {
            Some(n) => *n += 1,
            None => {
                st.plan_counts.insert(st.label_buf.clone(), 1);
            }
        }
        ctx.set_retry_policy(plan.retry().clone());
        let window = Predicate::c2_between(low, high);
        let mut q = self.base.clone();
        q.plan = plan;
        q.predicate = if matches!(self.base.predicate, Predicate::True)
            || self.base.predicate.is_pure_c2_range()
        {
            window
        } else {
            Predicate::And(vec![self.base.predicate.clone(), window])
        };
        let mut driver = make_driver(&q)?;
        let plan = q.plan;
        ctx.trace_span_begin(sessions[s].track, "query");
        ctx.set_dispatch_owner(Some(owner_token(s, query_index)));
        let started = driver.start(ctx);
        ctx.set_dispatch_owner(None);
        started?;
        let plan_label = if (st.records.len() as u64) < cap {
            st.label_buf.clone()
        } else {
            String::new()
        };
        sessions[s].run_idx = st.running_solo.len() as u32;
        st.running_solo.push(s as u32);
        st.active_queries += 1;
        sessions[s].state = SessState::Running(ActiveQuery {
            driver,
            submitted: now,
            query_index,
            selectivity,
            plan_label,
            degree: plan.degree(),
            active_at_admit: active,
        });
        Ok(())
    }

    /// The solo query at dense index `i` produced its answer.
    fn complete_solo(
        &mut self,
        ctx: &mut SimContext<'_>,
        sessions: &mut [Sess<'q>],
        st: &mut RunState,
        i: usize,
    ) {
        let Some(&s32) = st.running_solo.get(i) else {
            return;
        };
        let s = s32 as usize;
        let q = match std::mem::replace(&mut sessions[s].state, SessState::Thinking) {
            SessState::Running(q) => q,
            other => {
                // A completion for a session that isn't running solo would
                // be an event-loop bug; library code may not panic, so put
                // the state back and drop the spurious completion.
                sessions[s].state = other;
                return;
            }
        };
        st.running_solo.swap_remove(i);
        sessions[s].run_idx = u32::MAX;
        if let Some(&moved) = st.running_solo.get(i) {
            sessions[moved as usize].run_idx = i as u32;
        }
        st.active_queries -= 1;
        let answer = q.driver.answer();
        self.finish_query(
            ctx,
            sessions,
            st,
            s,
            FinishedMeta {
                submitted: q.submitted,
                query_index: q.query_index,
                selectivity: q.selectivity,
                plan: Some(q.plan_label),
                degree: q.degree,
                active_at_admit: q.active_at_admit,
            },
            answer,
        );
    }

    /// The hub delivered the answer for attached consumer `slot`.
    fn complete_attached(
        &mut self,
        ctx: &mut SimContext<'_>,
        sessions: &mut [Sess<'q>],
        st: &mut RunState,
        slot: u32,
        answer: QueryAnswer,
    ) {
        let Some(&s32) = st.attached_owner.get(slot as usize) else {
            return;
        };
        let s = s32 as usize;
        let q = match std::mem::replace(&mut sessions[s].state, SessState::Thinking) {
            SessState::Attached(q) => q,
            other => {
                sessions[s].state = other;
                return;
            }
        };
        st.active_queries -= 1;
        self.finish_query(
            ctx,
            sessions,
            st,
            s,
            FinishedMeta {
                submitted: q.submitted,
                query_index: q.query_index,
                selectivity: q.selectivity,
                plan: None,
                degree: 1,
                active_at_admit: q.active_at_admit,
            },
            answer,
        );
    }

    /// Shared completion tail: record, return the lease, arm the next
    /// think pause (or retire the session).
    fn finish_query(
        &mut self,
        ctx: &mut SimContext<'_>,
        sessions: &mut [Sess<'q>],
        st: &mut RunState,
        s: usize,
        meta: FinishedMeta,
        answer: QueryAnswer,
    ) {
        let sess = &mut sessions[s];
        let latency = ctx.now().since(meta.submitted);
        ctx.trace_span_end(sess.track, "query");
        let latency_us = latency.as_nanos() / 1000;
        st.query_latency.record(latency_us);
        sess.latency_sum_us += latency.as_micros_f64();
        sess.completed += 1;
        st.last_complete = st.last_complete.max(ctx.now());
        let cap = self.spec.record_limit.unwrap_or(u64::MAX);
        if (st.records.len() as u64) < cap {
            st.records.push(QueryRecord {
                session: s as u32,
                query_index: meta.query_index,
                selectivity: meta.selectivity,
                plan: meta.plan.unwrap_or_else(|| SHARED_LABEL.to_string()),
                degree: meta.degree,
                active_at_admit: meta.active_at_admit,
                submitted: meta.submitted,
                latency,
                max_c1: answer.max_c1,
                rows_matched: answer.rows_matched,
            });
        }
        self.planner.complete(s as u32);
        let sess = &mut sessions[s];
        if sess.issued >= self.spec.queries_per_session {
            sess.state = SessState::Finished;
            st.unfinished -= 1;
        } else {
            let delay = self.spec.think.sample(&mut sess.rng);
            ctx.schedule_timer_tagged(delay, 1 + s as u64);
            sess.state = SessState::Thinking;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuConfig;
    use crate::engine::CpuCosts;
    use crate::is::IsConfig;
    use crate::sorted_is::SortedIsConfig;
    use pioqo_device::presets::consumer_pcie_ssd;
    use pioqo_storage::{BTreeIndex, HeapTable, TableSpec, Tablespace};

    fn fixture(rows: u64, rpp: u32) -> (HeapTable, BTreeIndex, u64) {
        let spec = TableSpec::paper_table(rpp, rows, 31);
        let mut ts = Tablespace::new(4 * spec.n_pages() + 1000);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        let index = BTreeIndex::build(
            "c2_idx",
            table.data().c2_entries(),
            table.spec().page_size,
            &mut ts,
        )
        .expect("fits");
        let cap = ts.capacity();
        (table, index, cap)
    }

    fn run_workload(
        fx: &(HeapTable, BTreeIndex, u64),
        spec: WorkloadSpec,
        plan: PlanSpec,
    ) -> WorkloadReport {
        let mut dev = consumer_pcie_ssd(fx.2, 13);
        let mut pool = BufferPool::new(4096);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let engine = MultiEngine::new(
            spec,
            QuerySpec::range_max(&fx.0, Some(&fx.1), 0, 0),
            FixedPlanner { plan },
        );
        engine.run(&mut ctx).expect("workload runs")
    }

    #[test]
    fn every_query_answers_the_oracle() {
        let fx = fixture(20_000, 33);
        let spec = WorkloadSpec {
            sessions: 3,
            queries_per_session: 3,
            ..WorkloadSpec::default()
        };
        let report = run_workload(&fx, spec, PlanSpec::Is(IsConfig::default()));
        assert_eq!(report.total_completed(), 9);
        assert_eq!(report.records.len(), 9);
        for r in &report.records {
            let (low, high) = range_for_selectivity(r.selectivity, fx.0.spec().c2_max);
            assert_eq!(
                r.max_c1,
                fx.0.data().naive_max_c1(low, high),
                "session {} query {}",
                r.session,
                r.query_index
            );
        }
        assert_eq!(report.fairness_ratio(), 1.0);
        assert!(report.makespan > SimDuration::ZERO);
    }

    #[test]
    fn concurrent_run_is_deterministic() {
        let fx = fixture(20_000, 33);
        let spec = WorkloadSpec {
            sessions: 4,
            queries_per_session: 2,
            ..WorkloadSpec::default()
        };
        let a = run_workload(
            &fx,
            spec.clone(),
            PlanSpec::SortedIs(SortedIsConfig::default()),
        );
        let b = run_workload(&fx, spec, PlanSpec::SortedIs(SortedIsConfig::default()));
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "double run must be byte-identical"
        );
    }

    #[test]
    fn sessions_overlap_in_time() {
        let fx = fixture(40_000, 33);
        let spec = WorkloadSpec {
            sessions: 8,
            ..WorkloadSpec::default()
        };
        let report = run_workload(&fx, spec, PlanSpec::Is(IsConfig::default()));
        assert!(
            report.records.iter().any(|r| r.active_at_admit > 0),
            "8 closed-loop sessions with short think time must overlap"
        );
    }

    #[test]
    fn shared_scans_answer_the_oracle_and_charge_one_cursor() {
        let fx = fixture(9_900, 33);
        let spec = WorkloadSpec {
            sessions: 8,
            queries_per_session: 2,
            selectivities: vec![0.4],
            shared_scans: true,
            ..WorkloadSpec::default()
        };
        let report = run_workload(&fx, spec.clone(), PlanSpec::Fts(FtsConfig::default()));
        assert_eq!(report.total_completed(), 16);
        for r in &report.records {
            let (low, high) = range_for_selectivity(r.selectivity, fx.0.spec().c2_max);
            assert_eq!(r.max_c1, fx.0.data().naive_max_c1(low, high));
            assert_eq!(r.plan, "FTS+shared");
        }
        assert_eq!(report.shared.attaches, 16);
        assert!(
            report.shared.cursor_starts >= 1,
            "at least one cursor must have streamed"
        );
        assert!(
            report.shared.cursor_starts < 16,
            "overlapping consumers must share cursors, got {} starts",
            report.shared.cursor_starts
        );
        // Answers are identical with sharing off.
        let solo = run_workload(
            &fx,
            WorkloadSpec {
                shared_scans: false,
                ..spec
            },
            PlanSpec::Fts(FtsConfig::default()),
        );
        let key = |r: &QueryRecord| (r.session, r.query_index, r.max_c1, r.rows_matched);
        let mut a: Vec<_> = report.records.iter().map(key).collect();
        let mut b: Vec<_> = solo.records.iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "sharing must not change any answer");
    }

    #[test]
    fn record_limit_caps_memory_not_aggregates() {
        let fx = fixture(20_000, 33);
        let spec = WorkloadSpec {
            sessions: 4,
            queries_per_session: 4,
            record_limit: Some(3),
            ..WorkloadSpec::default()
        };
        let report = run_workload(&fx, spec, PlanSpec::Is(IsConfig::default()));
        assert_eq!(report.records.len(), 3, "records are capped");
        assert_eq!(report.total_completed(), 16, "aggregates are not");
        assert_eq!(report.query_latency_us.count, 16);
    }

    #[test]
    fn scans_and_writes_share_the_machine() {
        use crate::write::{WriteConfig, WriteSystem};
        use pioqo_device::MediaStore;
        use pioqo_storage::decode_heap_page;

        let spec = TableSpec::paper_table(33, 20_000, 31);
        let mut ts = Tablespace::new(4 * spec.n_pages() + 1000);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        let index = BTreeIndex::build(
            "c2_idx",
            table.data().c2_entries(),
            table.spec().page_size,
            &mut ts,
        )
        .expect("fits");
        let wspec = TableSpec {
            name: "W33".into(),
            ..TableSpec::paper_table(33, 3_000, 77)
        };
        let wtable = HeapTable::create(wspec, &mut ts).expect("fits");
        let wal = ts.alloc("wal", 512).expect("fits");

        let run = || {
            let mut dev = consumer_pcie_ssd(ts.capacity(), 13);
            let mut pool = BufferPool::new(4096);
            let mut ctx = SimContext::new(
                &mut dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            let mut ws = WriteSystem::new(
                WriteConfig::default(),
                &wtable,
                wal,
                MediaStore::new(wtable.spec().page_size),
            );
            let engine = MultiEngine::new(
                WorkloadSpec {
                    sessions: 2,
                    queries_per_session: 2,
                    ..WorkloadSpec::default()
                },
                QuerySpec::range_max(&table, Some(&index), 0, 0),
                FixedPlanner {
                    plan: PlanSpec::Is(IsConfig::default()),
                },
            );
            let report = engine.run_with_writes(&mut ctx, &mut ws).expect("runs");
            (report, ws)
        };
        let (report, ws) = run();
        // Scans still answer the oracle while writers churn.
        assert_eq!(report.total_completed(), 4);
        for r in &report.records {
            let (low, high) = range_for_selectivity(r.selectivity, table.spec().c2_max);
            assert_eq!(r.max_c1, table.data().naive_max_c1(low, high));
        }
        // The report is self-describing and carries the write counters.
        let stats = report.writes.as_ref().expect("write stats present");
        assert!(report.spec.writes.is_some());
        let cfg = WriteConfig::default();
        assert_eq!(
            stats.commits_acked,
            (cfg.writers * cfg.commits_per_writer) as u64
        );
        // The write path quiesced cleanly and its media decodes.
        assert!(ws.finished());
        for dp in ws.touched_pages() {
            let image = ws.media().read(dp).expect("flushed");
            let page = decode_heap_page(ws.table_spec(), image).expect("decodes");
            assert_eq!(page.rows, ws.current_rows(dp));
        }
        // Byte-determinism holds with writers in the mix.
        let (report2, _) = run();
        assert_eq!(report.to_json(), report2.to_json());
    }

    #[test]
    fn horizon_caps_issuance() {
        let fx = fixture(20_000, 33);
        let spec = WorkloadSpec {
            sessions: 2,
            queries_per_session: 1000,
            horizon: Some(SimDuration::from_micros_f64(30_000.0)),
            ..WorkloadSpec::default()
        };
        let report = run_workload(&fx, spec, PlanSpec::Is(IsConfig::default()));
        let total = report.total_completed();
        assert!(total > 0, "some queries run before the horizon");
        assert!(total < 2000, "the horizon must stop issuance");
    }
}
