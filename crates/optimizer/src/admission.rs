//! QDTT-aware admission control: the bridge between the optimizer and the
//! concurrent multi-query engine.
//!
//! §4.3's future-work paragraph says the optimizer "needs to pass a lower
//! queue depth number to the QDTT model" when queries run concurrently.
//! [`QdttAdmission`] operationalizes that: it implements the executor's
//! [`AdmissionPlanner`] hook, and on every admission it
//!
//! 1. takes a queue-depth lease from the shared [`QdBudget`] (the device's
//!    beneficial depth split over the active queries),
//! 2. gathers live [`TableStats`] — including what is *currently cached*,
//!    which under concurrency reflects the other sessions' footprints,
//! 3. re-runs plan selection with `max_queue_depth` capped at the lease, and
//! 4. lowers the winning [`Plan`] to an executable [`PlanSpec`] whose
//!    prefetch depths respect the lease.
//!
//! The lease is returned when the engine reports the query complete, so a
//! lull re-grants the full depth. Every decision is journaled in an
//! [`AdmissionDecision`] — the experiment harness reads that log to show
//! plan choice and parallel degree shifting with the concurrency level.

use crate::concurrency::{QdBudget, QdLease};
use crate::cost::QdttCost;
use crate::join::{choose_join, join_plan_to_spec, JoinMethod, JoinStats};
use crate::optimizer::{AccessMethod, IndexCard, Optimizer, OptimizerConfig, Plan};
use crate::stats::TableStats;
use pioqo_bufpool::BufferPool;
use pioqo_core::Qdtt;
use pioqo_exec::{
    AdmissionPlanner, FtsConfig, IsConfig, PlanSpec, QueryAdmission, SharedChoice, SortedIsConfig,
};
use pioqo_storage::{BTreeIndex, HeapTable};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Lower a costed [`Plan`] to the executor's [`PlanSpec`].
///
/// The operator configuration is sized from the plan's costing assumptions:
/// an index scan gets the per-worker prefetch depth the cost model assumed,
/// scaled down when a queue-depth cap clipped the plan's depth, and a
/// sorted index scan sizes its fetch ring to the plan's queue depth.
pub fn plan_to_spec(plan: &Plan, cfg: &OptimizerConfig) -> PlanSpec {
    match plan.method {
        AccessMethod::TableScan => PlanSpec::Fts(FtsConfig {
            workers: plan.degree,
            ..FtsConfig::default()
        }),
        AccessMethod::IndexScan => {
            let per_worker = if cfg.is_prefetch_depth == 0 {
                0
            } else {
                // `plan.queue_depth = (degree * pf).min(cap)`: recover the
                // per-worker share so the executor's outstanding I/O stays
                // within what the plan was costed (and leased) for.
                cfg.is_prefetch_depth
                    .min((plan.queue_depth / plan.degree.max(1)).max(1))
            };
            PlanSpec::Is(IsConfig {
                workers: plan.degree,
                prefetch_depth: per_worker,
                ..IsConfig::default()
            })
        }
        AccessMethod::SortedIndexScan => PlanSpec::SortedIs(SortedIsConfig {
            prefetch_depth: plan.queue_depth.max(1),
            leaf_prefetch: plan.queue_depth.clamp(1, 8),
            ..SortedIsConfig::default()
        }),
    }
}

/// One admission decision, journaled for the concurrency experiments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmissionDecision {
    /// The admitted session.
    pub session: u32,
    /// The session-local query index.
    pub query_index: u32,
    /// Queries of other sessions running at admission time.
    pub active: u32,
    /// Queue depth the lease granted this query.
    pub lease_depth: u32,
    /// The query's selectivity.
    pub selectivity: f64,
    /// The chosen access method.
    pub method: AccessMethod,
    /// The chosen parallel degree.
    pub degree: u32,
    /// Queue depth the winning plan was costed with (≤ `lease_depth`).
    pub queue_depth: u32,
    /// Executable plan label ("PIS8+pf4", ...).
    pub plan: String,
    /// The query attached to the shared-scan cursor instead of taking a
    /// lease of its own (`lease_depth`/`queue_depth` are 0 in that case:
    /// the cursor's lease, taken once at cursor start, covers it).
    pub attached: bool,
}

/// One join admission decision, journaled separately from the scan
/// decisions (a join chooses among join operators, not access paths).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinDecision {
    /// The admitted session.
    pub session: u32,
    /// Queries of other sessions running at admission time.
    pub active: u32,
    /// Queue depth the lease granted this query.
    pub lease_depth: u32,
    /// The query's outer selectivity.
    pub selectivity: f64,
    /// The chosen join operator.
    pub method: JoinMethod,
    /// Queue depth the winning plan was costed with (≤ `lease_depth`).
    pub queue_depth: u32,
    /// Hash partitions (1 for INL).
    pub partitions: u32,
    /// Executable plan label ("INL+qd8", "HHJ8").
    pub plan: String,
}

/// How many distinct cardinality keys [`CardMemo`] keeps. Workloads cycle
/// through a handful of selectivities over one table and pool, so a few
/// entries catch every repeat.
const CARD_MEMO_ENTRIES: usize = 8;

/// Everything an [`IndexCard`] depends on: `(pages, rows, k,
/// buffer_frames, leaf_fanout)`.
type CardKey = (u64, u64, u64, u64, u32);

/// [`IndexCard`]s of recent admissions. A hit returns the very values a
/// fresh computation would, so plans stay bit-identical. A full memo is
/// emptied before the next insert.
#[derive(Debug, Default)]
struct CardMemo(BTreeMap<CardKey, IndexCard>);

impl CardMemo {
    fn get(&mut self, stats: &TableStats, sel: f64) -> IndexCard {
        let key = (
            stats.pages,
            stats.rows,
            IndexCard::qualifying_rows(stats, sel),
            stats.buffer_frames,
            stats.index.leaf_fanout,
        );
        if let Some(card) = self.0.get(&key) {
            return *card;
        }
        if self.0.len() == CARD_MEMO_ENTRIES {
            self.0.clear();
        }
        let card = IndexCard::new(stats, sel);
        self.0.insert(key, card);
        card
    }
}

/// The QDTT-aware admission planner. See the module docs.
pub struct QdttAdmission<'a> {
    table: &'a HeapTable,
    index: &'a BTreeIndex,
    /// When set, every admission is a join against this inner table and
    /// plan choice runs through [`choose_join`] instead of the scan
    /// optimizer.
    join: Option<(&'a HeapTable, &'a BTreeIndex)>,
    join_decisions: Vec<JoinDecision>,
    model: QdttCost,
    cfg: OptimizerConfig,
    /// Per-admission working copy of `cfg` with `max_queue_depth` capped at
    /// the live lease — cloned once at construction, mutated in place on
    /// every admission instead of cloning the degree list per query.
    run_cfg: OptimizerConfig,
    /// Reused candidate buffer for `Optimizer::choose_with_card`.
    plan_scratch: Vec<Plan>,
    /// Cardinality terms of recent admissions: re-costing under a new
    /// lease changes only the queue depth, never these.
    cards: CardMemo,
    budget: QdBudget,
    leases: BTreeMap<u32, QdLease>,
    /// The lease held on behalf of the shared-scan cursor, while one is
    /// streaming. Charged once no matter how many consumers attach.
    cursor: Option<QdLease>,
    /// Journal of cursor-lease depths, one entry per cursor start — the
    /// artifact the tests use to assert sharing takes exactly one lease.
    cursor_leases: Vec<u32>,
    /// The lease held on behalf of background writeback (checkpoint
    /// flushing), while it is active. It contends exactly like a query:
    /// holding it shrinks every concurrent scan's share.
    background: Option<QdLease>,
    decisions: Vec<AdmissionDecision>,
}

impl<'a> QdttAdmission<'a> {
    /// An admission planner over the calibrated `model`, choosing plans for
    /// queries against `table`/`index` with `cfg` as the *uncontended*
    /// configuration (its `max_queue_depth` is the single-query cap; leases
    /// can only lower it). The queue-depth budget is derived from the
    /// model's beneficial depth.
    pub fn new(
        table: &'a HeapTable,
        index: &'a BTreeIndex,
        model: Qdtt,
        cfg: OptimizerConfig,
    ) -> QdttAdmission<'a> {
        let budget = QdBudget::from_model(&model);
        let run_cfg = cfg.clone();
        QdttAdmission {
            table,
            index,
            join: None,
            join_decisions: Vec::new(),
            model: QdttCost(model),
            cfg,
            run_cfg,
            plan_scratch: Vec::new(),
            cards: CardMemo::default(),
            budget,
            leases: BTreeMap::new(),
            cursor: None,
            cursor_leases: Vec::new(),
            background: None,
            decisions: Vec::new(),
        }
    }

    /// Turn the planner into a join planner: every admitted query joins
    /// the base table (as the outer side) against `right` through
    /// `right_index`, and admission picks INL vs. hybrid hash from the
    /// QDTT costs under the live queue-depth lease.
    pub fn with_join(
        mut self,
        right: &'a HeapTable,
        right_index: &'a BTreeIndex,
    ) -> QdttAdmission<'a> {
        self.join = Some((right, right_index));
        self
    }

    /// The join admission journal, in admission order (empty unless
    /// [`with_join`](Self::with_join) was used).
    pub fn join_decisions(&self) -> &[JoinDecision] {
        &self.join_decisions
    }

    /// True while the planner holds a lease for background writeback.
    pub fn background_lease_held(&self) -> bool {
        self.background.is_some()
    }

    /// The shared queue-depth budget (for reporting).
    pub fn budget(&self) -> &QdBudget {
        &self.budget
    }

    /// The admission journal so far, in admission order.
    pub fn decisions(&self) -> &[AdmissionDecision] {
        &self.decisions
    }

    /// Queue-depth lease granted at each shared-cursor start, in order.
    /// Its length equals the number of cursor starts: the whole point of
    /// the shared scan is that this list stays short while the number of
    /// attached consumers grows without bound.
    pub fn cursor_leases(&self) -> &[u32] {
        &self.cursor_leases
    }

    /// Consume the planner, keeping its journal.
    pub fn into_decisions(self) -> Vec<AdmissionDecision> {
        self.decisions
    }
}

impl AdmissionPlanner for QdttAdmission<'_> {
    fn admit(&mut self, q: &QueryAdmission, pool: &BufferPool) -> PlanSpec {
        if let Some((right, right_index)) = self.join {
            let lease = self.budget.acquire();
            let left = TableStats::gather(self.table, self.index, pool);
            let right_stats = TableStats::gather(right, right_index, pool);
            let js = JoinStats {
                left: &left,
                right: &right_stats,
                key_cardinality: (right.spec().c2_max as u64 + 1).min(right.spec().rows),
            };
            let max_qd = self.cfg.max_queue_depth.min(lease.depth);
            let plan = choose_join(&self.model, &self.cfg.est, &js, q.selectivity, max_qd);
            let spec = join_plan_to_spec(&plan);
            self.join_decisions.push(JoinDecision {
                session: q.session,
                active: q.active,
                lease_depth: lease.depth,
                selectivity: q.selectivity,
                method: plan.method,
                queue_depth: plan.queue_depth,
                partitions: plan.partitions,
                plan: spec.label(),
            });
            if let Some(stale) = self.leases.insert(q.session, lease) {
                debug_assert!(false, "session {} admitted twice", q.session);
                self.budget.release(stale);
            }
            return spec;
        }
        let lease = self.budget.acquire();
        let stats = TableStats::gather(self.table, self.index, pool);
        self.run_cfg.max_queue_depth = self.cfg.max_queue_depth.min(lease.depth);
        let card = self.cards.get(&stats, q.selectivity);
        let mut scratch = std::mem::take(&mut self.plan_scratch);
        let plan = Optimizer::with_cfg(&self.model, &self.run_cfg).choose_with_card(
            &stats,
            &card,
            &mut scratch,
        );
        self.plan_scratch = scratch;
        let spec = plan_to_spec(&plan, &self.run_cfg);
        self.decisions.push(AdmissionDecision {
            session: q.session,
            query_index: q.query_index,
            active: q.active,
            lease_depth: lease.depth,
            selectivity: q.selectivity,
            method: plan.method,
            degree: plan.degree,
            queue_depth: plan.queue_depth,
            plan: spec.label(),
            attached: false,
        });
        // The engine pairs every admit with one complete, so a session can
        // never hold two leases; release defensively if it somehow does.
        if let Some(stale) = self.leases.insert(q.session, lease) {
            debug_assert!(false, "session {} admitted twice", q.session);
            self.budget.release(stale);
        }
        spec
    }

    fn admit_shared(
        &mut self,
        q: &QueryAdmission,
        pool: &BufferPool,
        cursor_active: bool,
    ) -> SharedChoice {
        let stats = TableStats::gather(self.table, self.index, pool);
        // Marginal cost of riding the shared cursor: pure CPU (one pass
        // over every page and row). Its device stream is already paid for
        // by the cursor's own lease, so no I/O term and no new lease.
        let attached_cpu = stats.pages as f64 * self.cfg.est.page_us
            + stats.rows as f64 * self.cfg.est.row_scan_us;
        // Cost the best solo plan under the lease this query WOULD get if
        // it were admitted on its own (hypothetical: no lease is taken).
        let depth = self.budget.share_at(self.budget.active() as u32 + 1);
        self.run_cfg.max_queue_depth = self.cfg.max_queue_depth.min(depth);
        let card = self.cards.get(&stats, q.selectivity);
        let mut scratch = std::mem::take(&mut self.plan_scratch);
        let solo = Optimizer::with_cfg(&self.model, &self.run_cfg).choose_with_card(
            &stats,
            &card,
            &mut scratch,
        );
        self.plan_scratch = scratch;
        // With a cursor already streaming, attach whenever riding it is
        // cheaper than the best dedicated plan. With no cursor, attach
        // exactly when a table scan would win anyway — the first consumer
        // starts the cursor and pays its lease.
        let attach = if cursor_active {
            attached_cpu < solo.est_total_us
        } else {
            solo.method == AccessMethod::TableScan
        };
        if attach {
            self.decisions.push(AdmissionDecision {
                session: q.session,
                query_index: q.query_index,
                active: q.active,
                lease_depth: 0,
                selectivity: q.selectivity,
                method: AccessMethod::TableScan,
                degree: 1,
                queue_depth: 0,
                plan: "FTS+shared".to_string(),
                attached: true,
            });
            SharedChoice::Attach
        } else {
            SharedChoice::Solo(self.admit(q, pool))
        }
    }

    fn cursor_start(&mut self, pool: &BufferPool) -> u32 {
        let _ = pool;
        let lease = self.budget.acquire();
        let depth = lease.depth;
        self.cursor_leases.push(depth);
        if let Some(stale) = self.cursor.replace(lease) {
            debug_assert!(false, "shared cursor started twice");
            self.budget.release(stale);
        }
        depth
    }

    fn cursor_stop(&mut self) {
        if let Some(lease) = self.cursor.take() {
            self.budget.release(lease);
        }
    }

    fn complete(&mut self, session: u32) {
        if let Some(lease) = self.leases.remove(&session) {
            self.budget.release(lease);
        }
    }

    fn background_acquire(&mut self) {
        // Writeback became active: take one lease so subsequent query
        // admissions see a smaller share. Idempotent — repeated activity
        // transitions while a lease is held keep the same lease.
        if self.background.is_none() {
            self.background = Some(self.budget.acquire());
        }
    }

    fn background_release(&mut self) {
        if let Some(lease) = self.background.take() {
            self.budget.release(lease);
        }
    }

    fn depth_gauges(&self) -> (u32, u32) {
        (self.budget.active() as u32, self.budget.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioqo_storage::{TableSpec, Tablespace};

    fn fixture() -> (HeapTable, BTreeIndex) {
        let spec = TableSpec::paper_table(33, 100_000, 5);
        let mut ts = Tablespace::new(4 * spec.n_pages() + 2000);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        let index = BTreeIndex::build(
            "c2_idx",
            table.data().c2_entries(),
            table.spec().page_size,
            &mut ts,
        )
        .expect("fits");
        (table, index)
    }

    /// SSD-like synthetic QDTT: per-page cost halves with every doubling of
    /// queue depth, at every band size.
    fn ssd_model() -> Qdtt {
        Qdtt::new(
            vec![1, 1 << 20],
            vec![1, 2, 4, 8, 16, 32],
            vec![
                100.0, 100.0, 50.0, 50.0, 25.0, 25.0, 12.0, 12.0, 6.0, 6.0, 3.0, 3.0,
            ],
        )
    }

    fn admission(session: u32, active: u32, sel: f64) -> QueryAdmission {
        QueryAdmission {
            session,
            query_index: 0,
            active,
            selectivity: sel,
            low: 0,
            high: 0,
        }
    }

    #[test]
    fn leases_shrink_and_degree_steps_down_under_concurrency() {
        let (table, index) = fixture();
        let pool = BufferPool::new(4096);
        // Index-scan-only configuration so the lease effect shows up in the
        // parallel degree (with sorted IS enabled, a serial deep-ring plan
        // can dominate at every lease level).
        let cfg = OptimizerConfig {
            consider_sorted_is: false,
            ..OptimizerConfig::fine_grained()
        };
        let mut adm = QdttAdmission::new(&table, &index, ssd_model(), cfg);
        // Admit 16 sessions without completing any: the lease shrinks from
        // the full 32 down to 2, and the chosen plans must follow.
        for s in 0..16 {
            adm.admit(&admission(s, s, 0.01), &pool);
        }
        let d = adm.decisions();
        assert_eq!(d[0].lease_depth, 32);
        assert_eq!(d[15].lease_depth, 2);
        assert!(
            d[15].queue_depth < d[0].queue_depth,
            "costed queue depth must shrink with the lease: {} vs {}",
            d[0].queue_depth,
            d[15].queue_depth
        );
        assert!(
            d[0].degree > 1,
            "uncontended, the query should parallelize: {:?}",
            d[0]
        );
        assert!(
            d[15].degree < d[0].degree,
            "parallel degree must step down as leases shrink: {} vs {}",
            d[0].degree,
            d[15].degree
        );
    }

    #[test]
    fn a_reused_planner_journals_what_fresh_planners_do() {
        let (table, index) = fixture();
        let mut pool = BufferPool::new(1024);
        // Without sorted IS the synthetic model's winner moves with the
        // selectivity (index scans low, table scans high), so a stale card
        // changes the journal.
        let cfg = OptimizerConfig {
            consider_sorted_is: false,
            ..OptimizerConfig::fine_grained()
        };
        let mut reused = QdttAdmission::new(&table, &index, ssd_model(), cfg.clone());
        // Eleven selectivities, more than the memo holds, in a scrambled
        // order; 0.05 and up put k past the exact-product limit.
        let sels = [
            0.0, 1e-4, 5e-4, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3,
        ];
        let mut outstanding: Vec<u32> = Vec::new();
        for i in 0..50u32 {
            let sel = sels[(i as usize * 7) % sels.len()];
            // Warm the pool as admissions go on, so live stats move.
            for p in 0..(i as u64 * 20) {
                let dp = table.device_page(p % table.spec().n_pages());
                pool.admit_prefetched(dp).expect("unpinned frames to evict");
            }
            // A fresh planner holding as many leases as the reused one.
            let mut fresh = QdttAdmission::new(&table, &index, ssd_model(), cfg.clone());
            for &s in &outstanding {
                fresh.admit(&admission(s, 0, 0.01), &pool);
            }
            let q = QueryAdmission {
                query_index: i,
                ..admission(i, outstanding.len() as u32, sel)
            };
            reused.admit(&q, &pool);
            fresh.admit(&q, &pool);
            // `{:?}` prints each f64 in its shortest round-trip form, so
            // equal strings mean equal bits.
            let a = format!("{:?}", reused.decisions().last());
            let b = format!("{:?}", fresh.decisions().last());
            assert_eq!(a, b, "admission {i} (sel {sel})");
            outstanding.push(i);
            if outstanding.len() > 3 {
                reused.complete(outstanding.remove(0));
            }
        }
        let plans: std::collections::BTreeSet<&str> =
            reused.decisions().iter().map(|d| d.plan.as_str()).collect();
        assert!(
            plans.len() >= 3,
            "the mix must exercise several plans: {plans:?}"
        );
    }

    #[test]
    fn completion_returns_the_lease() {
        let (table, index) = fixture();
        let pool = BufferPool::new(4096);
        let mut adm =
            QdttAdmission::new(&table, &index, ssd_model(), OptimizerConfig::fine_grained());
        adm.admit(&admission(0, 0, 0.01), &pool);
        assert_eq!(adm.budget().active(), 1);
        adm.complete(0);
        assert_eq!(adm.budget().active(), 0);
        adm.admit(&admission(1, 0, 0.01), &pool);
        assert_eq!(
            adm.decisions()[1].lease_depth,
            adm.decisions()[0].lease_depth,
            "after a completion the next query gets the full depth again"
        );
    }

    #[test]
    fn completing_an_unknown_session_is_a_no_op() {
        let (table, index) = fixture();
        let mut adm =
            QdttAdmission::new(&table, &index, ssd_model(), OptimizerConfig::fine_grained());
        adm.complete(7); // engine never admitted session 7: nothing to release
        assert_eq!(adm.budget().active(), 0);
    }

    #[test]
    fn background_lease_contends_like_a_query() {
        let (table, index) = fixture();
        let pool = BufferPool::new(4096);
        let mut adm =
            QdttAdmission::new(&table, &index, ssd_model(), OptimizerConfig::fine_grained());
        adm.admit(&admission(0, 0, 0.01), &pool);
        let solo = adm.decisions()[0].lease_depth;
        adm.complete(0);
        adm.background_acquire();
        assert!(adm.background_lease_held());
        assert_eq!(adm.budget().active(), 1);
        adm.background_acquire(); // idempotent while active
        assert_eq!(adm.budget().active(), 1);
        adm.admit(&admission(1, 0, 0.01), &pool);
        assert!(
            adm.decisions()[1].lease_depth < solo,
            "writeback must shrink concurrent admissions: {} vs {}",
            solo,
            adm.decisions()[1].lease_depth
        );
        adm.complete(1);
        adm.background_release();
        assert!(!adm.background_lease_held());
        assert_eq!(adm.budget().active(), 0);
        adm.background_release(); // releasing while idle is a no-op
        assert_eq!(adm.budget().active(), 0);
    }

    #[test]
    fn plan_to_spec_respects_the_costed_queue_depth() {
        let cfg = OptimizerConfig::fine_grained();
        let plan = Plan {
            method: AccessMethod::IndexScan,
            degree: 8,
            queue_depth: 8, // capped: 8 workers x pf4 = 32 assumed, leased to 8
            band: 1000,
            est_page_fetches: 10.0,
            est_io_us: 100.0,
            est_cpu_us: 10.0,
            est_total_us: 110.0,
        };
        let PlanSpec::Is(is) = plan_to_spec(&plan, &cfg) else {
            panic!("index plan must lower to an index scan");
        };
        assert_eq!(is.workers, 8);
        assert_eq!(is.prefetch_depth, 1, "8 workers share a depth-8 lease");
        let sorted = Plan {
            method: AccessMethod::SortedIndexScan,
            degree: 1,
            queue_depth: 4,
            ..plan
        };
        let PlanSpec::SortedIs(s) = plan_to_spec(&sorted, &cfg) else {
            panic!("sorted plan must lower to a sorted index scan");
        };
        assert_eq!(s.prefetch_depth, 4);
        assert_eq!(s.leaf_prefetch, 4);
    }
}
