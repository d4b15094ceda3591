//! Access-path selection.
//!
//! The optimizer enumerates `{table scan, index scan} × degree ∈
//! {1, 2, 4, 8, 16, 32}` (plus the sorted-index-scan extension when
//! enabled), costs each plan with the configured [`IoCostModel`], and
//! picks the cheapest. Swapping [`DttCost`](crate::cost::DttCost) for
//! [`QdttCost`](crate::cost::QdttCost) is the entire difference between
//! the paper's old and new optimizers (§4.3).
//!
//! Estimated runtime of a plan: `max(est_io, est_cpu / capacity(degree))
//! plus degree × startup` for parallel plans — scans overlap CPU with I/O,
//! so the slower resource bounds the runtime, and parallelism pays a
//! per-worker coordination overhead.

use crate::card::{leaf_pages_touched, mackert_lohman_fetches, yao_pages};
use crate::cost::{EstCpuCosts, IoCostModel};
use crate::stats::TableStats;
use pioqo_exec::CpuConfig;
use serde::{Deserialize, Serialize};

/// The access methods the optimizer chooses among.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessMethod {
    /// (Parallel) full table scan.
    TableScan,
    /// (Parallel) index scan on `C2`.
    IndexScan,
    /// Sorted index scan (extension; §3.1 notes SQL Anywhere lacks it).
    SortedIndexScan,
}

impl std::fmt::Display for AccessMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessMethod::TableScan => write!(f, "FTS"),
            AccessMethod::IndexScan => write!(f, "IS"),
            AccessMethod::SortedIndexScan => write!(f, "SortedIS"),
        }
    }
}

/// A costed plan candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Plan {
    /// Access method.
    pub method: AccessMethod,
    /// Parallel degree (1 = serial).
    pub degree: u32,
    /// Queue depth passed to the I/O cost model.
    pub queue_depth: u32,
    /// Band size passed to the I/O cost model (pages).
    pub band: u64,
    /// Estimated page fetches (I/O operations that miss the pool).
    pub est_page_fetches: f64,
    /// Estimated I/O time, µs.
    pub est_io_us: f64,
    /// Estimated (parallelism-adjusted) CPU time, µs.
    pub est_cpu_us: f64,
    /// Estimated total runtime, µs — what the optimizer minimizes.
    pub est_total_us: f64,
}

impl Plan {
    /// Short human-readable plan label ("FTS", "PIS8", "SortedIS"),
    /// matching the executor-side `PlanSpec::label` family.
    pub fn label(&self) -> String {
        match (self.method, self.degree) {
            (AccessMethod::TableScan, 1) => "FTS".to_string(),
            (AccessMethod::TableScan, d) => format!("PFTS{d}"),
            (AccessMethod::IndexScan, 1) => "IS".to_string(),
            (AccessMethod::IndexScan, d) => format!("PIS{d}"),
            (AccessMethod::SortedIndexScan, _) => "SortedIS".to_string(),
        }
    }
}

/// The selectivity-only cardinality terms of an index access: qualifying
/// rows, Yao distinct data pages, Mackert–Lohman fetches through the
/// buffer and index leaves touched. They depend on the table shape and the
/// selectivity but not on degree or queue depth, so plan selection
/// computes them once and every index candidate reads them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IndexCard {
    /// Qualifying rows, `ceil(sel × rows)`.
    k: u64,
    /// Expected distinct data pages touched ([`yao_pages`]).
    distinct: f64,
    /// Expected data-page fetches through an LRU buffer
    /// ([`mackert_lohman_fetches`]).
    fetches_lru: f64,
    /// Index leaf pages touched.
    leaves: f64,
}

impl IndexCard {
    /// Qualifying rows for selectivity `sel` (clamped to `[0, 1]`).
    pub(crate) fn qualifying_rows(stats: &TableStats, sel: f64) -> u64 {
        (sel.clamp(0.0, 1.0) * stats.rows as f64).ceil() as u64
    }

    /// The terms for selectivity `sel` over `stats`.
    pub(crate) fn new(stats: &TableStats, sel: f64) -> IndexCard {
        let k = IndexCard::qualifying_rows(stats, sel);
        IndexCard {
            k,
            distinct: yao_pages(stats.pages, stats.rows, k),
            fetches_lru: mackert_lohman_fetches(stats.pages, k, stats.buffer_frames),
            leaves: leaf_pages_touched(k, stats.index.leaf_fanout) as f64,
        }
    }
}

/// Optimizer knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Parallel degrees to consider (always includes 1). SQL Anywhere
    /// considers serial vs. the maximum allowable degree (32 in §4.3 —
    /// "in all three experiments a parallel plan with parallel degree 32
    /// is selected"); intermediate degrees can be added for ablations.
    pub degrees: Vec<u32>,
    /// Consider the sorted-index-scan extension.
    pub consider_sorted_is: bool,
    /// Per-worker index-scan prefetch depth assumed by the cost model
    /// (multiplies the queue depth passed to QDTT; the paper's §4.3
    /// experiments pass the parallel degree alone, i.e. depth 0).
    pub is_prefetch_depth: u32,
    /// Cap on the queue depth passed to the model ("the maximum beneficial
    /// queue depth, here 32" — §4.3).
    pub max_queue_depth: u32,
    /// CPU geometry used to discount parallel CPU work.
    pub cpu: CpuConfig,
    /// The optimizer's CPU estimate constants.
    pub est: EstCpuCosts,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            degrees: vec![1, 32],
            consider_sorted_is: false,
            is_prefetch_depth: 0,
            max_queue_depth: 32,
            cpu: CpuConfig::paper_xeon(),
            est: EstCpuCosts::default(),
        }
    }
}

impl OptimizerConfig {
    /// The configuration the admission layer uses under concurrency: all
    /// intermediate degrees plus the sorted-IS extension, and a per-worker
    /// prefetch assumption, so a shrinking queue-depth lease has degrees to
    /// step down through instead of a binary serial/32 choice.
    pub fn fine_grained() -> OptimizerConfig {
        OptimizerConfig {
            degrees: vec![1, 2, 4, 8, 16, 32],
            consider_sorted_is: true,
            is_prefetch_depth: 4,
            ..OptimizerConfig::default()
        }
    }
}

/// The access-path optimizer. Generic over the I/O cost model — the same
/// code is the paper's old optimizer with [`DttCost`](crate::cost::DttCost)
/// and the new one with [`QdttCost`](crate::cost::QdttCost).
pub struct Optimizer<'m> {
    model: &'m dyn IoCostModel,
    cfg: std::borrow::Cow<'m, OptimizerConfig>,
}

impl<'m> Optimizer<'m> {
    /// Build an optimizer over `model`, taking ownership of `cfg`.
    pub fn new(model: &'m dyn IoCostModel, cfg: OptimizerConfig) -> Optimizer<'m> {
        assert!(cfg.degrees.contains(&1), "serial plans must be considered");
        Optimizer {
            model,
            cfg: std::borrow::Cow::Owned(cfg),
        }
    }

    /// Build an optimizer over `model` borrowing `cfg` — the per-admission
    /// hot path re-costs under a shrunken queue-depth cap without cloning
    /// the configuration (and its degree list) every time.
    pub fn with_cfg(model: &'m dyn IoCostModel, cfg: &'m OptimizerConfig) -> Optimizer<'m> {
        assert!(cfg.degrees.contains(&1), "serial plans must be considered");
        Optimizer {
            model,
            cfg: std::borrow::Cow::Borrowed(cfg),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// The underlying I/O model's name ("DTT" / "QDTT").
    pub fn model_name(&self) -> &'static str {
        self.model.model_name()
    }

    /// Enumerate every candidate plan for the query
    /// `SELECT MAX(C1) FROM t WHERE C2 BETWEEN …` with selectivity `sel`.
    pub fn enumerate(&self, stats: &TableStats, sel: f64) -> Vec<Plan> {
        let mut plans = Vec::new();
        self.enumerate_into(stats, &IndexCard::new(stats, sel), &mut plans);
        plans
    }

    fn enumerate_into(&self, stats: &TableStats, card: &IndexCard, plans: &mut Vec<Plan>) {
        plans.clear();
        for &d in &self.cfg.degrees {
            plans.push(self.cost_fts(stats, d));
            plans.push(self.cost_is(stats, card, d));
        }
        if self.cfg.consider_sorted_is {
            plans.push(self.cost_sorted_is(stats, card));
        }
    }

    /// Pick the cheapest plan (ties break toward lower degree, which the
    /// enumeration order guarantees).
    pub fn choose(&self, stats: &TableStats, sel: f64) -> Plan {
        let mut scratch = Vec::new();
        self.choose_into(stats, sel, &mut scratch)
    }

    /// [`choose`](Self::choose) writing candidates into a caller-owned
    /// scratch vector, so repeated admissions reuse one allocation.
    pub fn choose_into(&self, stats: &TableStats, sel: f64, scratch: &mut Vec<Plan>) -> Plan {
        self.choose_with_card(stats, &IndexCard::new(stats, sel), scratch)
    }

    /// [`choose_into`](Self::choose_into) with the cardinality terms
    /// supplied by the caller, so an admission loop that sees the same
    /// selectivity over and over can reuse them.
    pub(crate) fn choose_with_card(
        &self,
        stats: &TableStats,
        card: &IndexCard,
        scratch: &mut Vec<Plan>,
    ) -> Plan {
        self.enumerate_into(stats, card, scratch);
        scratch
            .iter()
            .min_by(|a, b| {
                a.est_total_us
                    .partial_cmp(&b.est_total_us)
                    .expect("finite costs")
            })
            .expect("at least one plan")
            .clone()
    }

    /// Cost one specific `(method, degree)` candidate — used by the
    /// model-accuracy harness to compare estimates against simulated
    /// runtimes plan-by-plan.
    pub fn cost_access(
        &self,
        stats: &TableStats,
        sel: f64,
        method: AccessMethod,
        degree: u32,
    ) -> Plan {
        match method {
            AccessMethod::TableScan => self.cost_fts(stats, degree),
            AccessMethod::IndexScan => self.cost_is(stats, &IndexCard::new(stats, sel), degree),
            AccessMethod::SortedIndexScan => {
                self.cost_sorted_is(stats, &IndexCard::new(stats, sel))
            }
        }
    }

    fn parallel_overhead(&self, degree: u32) -> f64 {
        if degree > 1 {
            degree as f64 * self.cfg.est.startup_us
        } else {
            0.0
        }
    }

    fn combine(&self, io_us: f64, cpu_us: f64, degree: u32) -> f64 {
        let cap = self.cfg.cpu.capacity(degree as usize);
        io_us.max(cpu_us / cap) + self.parallel_overhead(degree)
    }

    /// Full table scan with `degree` workers: sequential I/O over the
    /// table extent; pages already cached are skipped.
    fn cost_fts(&self, stats: &TableStats, degree: u32) -> Plan {
        let qd = degree.min(self.cfg.max_queue_depth);
        let fetches = (stats.pages - stats.cached_pages) as f64;
        let io = fetches * self.model.page_cost_us(1, qd);
        let cpu = stats.pages as f64 * self.cfg.est.page_us
            + stats.rows as f64 * self.cfg.est.row_scan_us;
        Plan {
            method: AccessMethod::TableScan,
            degree,
            queue_depth: qd,
            band: 1,
            est_page_fetches: fetches,
            est_io_us: io,
            est_cpu_us: cpu,
            est_total_us: self.combine(io, cpu, degree),
        }
    }

    /// Index scan with `degree` workers: random I/O over the table extent,
    /// Yao distinct pages, Mackert–Lohman refetch through the buffer pool.
    fn cost_is(&self, stats: &TableStats, card: &IndexCard, degree: u32) -> Plan {
        let qd = (degree * self.cfg.is_prefetch_depth.max(1)).min(self.cfg.max_queue_depth);
        let band = stats.extent.pages;

        // Data-page fetches: distinct pages by Yao, inflated by LRU
        // refetches when the buffer is smaller than the touched set,
        // discounted by the already-cached fraction.
        let data_fetches = card.distinct.max(card.fetches_lru) * (1.0 - stats.cached_fraction());

        // Index I/O: root path + qualifying leaves.
        let leaves = card.leaves;
        let index_fetches = (leaves + stats.index.height.saturating_sub(1) as f64).max(1.0);

        let io = data_fetches * self.model.page_cost_us(band, qd)
            + index_fetches * self.model.page_cost_us(stats.index.extent.pages.max(1), qd);
        let cpu = card.k as f64 * self.cfg.est.row_lookup_us + leaves * self.cfg.est.leaf_us;
        Plan {
            method: AccessMethod::IndexScan,
            degree,
            queue_depth: qd,
            band,
            est_page_fetches: data_fetches + index_fetches,
            est_io_us: io,
            est_cpu_us: cpu,
            est_total_us: self.combine(io, cpu, degree),
        }
    }

    /// Sorted index scan (extension): each distinct page fetched once, deep
    /// prefetch ring, plus the rid sort.
    fn cost_sorted_is(&self, stats: &TableStats, card: &IndexCard) -> Plan {
        let k = card.k;
        let qd = self.cfg.max_queue_depth;
        let band = stats.extent.pages;
        let distinct = card.distinct * (1.0 - stats.cached_fraction());
        let leaves = card.leaves;
        let io = distinct * self.model.page_cost_us(band, qd)
            + leaves * self.model.page_cost_us(stats.index.extent.pages.max(1), qd);
        let k_f = k as f64;
        let sort_cpu = if k > 1 { k_f * k_f.log2() * 0.02 } else { 0.0 };
        let cpu = k_f * self.cfg.est.row_lookup_us + leaves * self.cfg.est.leaf_us + sort_cpu;
        Plan {
            method: AccessMethod::SortedIndexScan,
            degree: 1,
            queue_depth: qd,
            band,
            est_page_fetches: distinct + leaves,
            est_io_us: io,
            est_cpu_us: cpu,
            est_total_us: self.combine(io, cpu, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DttCost, QdttCost};
    use pioqo_core::{CalibrationConfig, Calibrator, Method};
    use pioqo_device::presets::{consumer_pcie_ssd, hdd_7200};
    use pioqo_storage::Extent;

    fn stats(pages: u64, rpp: u32, buffer: u64) -> TableStats {
        TableStats {
            pages,
            rows: pages * rpp as u64,
            rows_per_page: rpp,
            page_size: 4096,
            extent: Extent { base: 0, pages },
            cached_pages: 0,
            buffer_frames: buffer,
            index: crate::stats::IndexStats {
                leaves: (pages * rpp as u64).div_ceil(338),
                height: 3,
                leaf_fanout: 338,
                extent: Extent {
                    base: pages,
                    pages: (pages * rpp as u64).div_ceil(338) + 4,
                },
                cached_pages: 0,
            },
        }
    }

    fn models(ssd: bool, capacity: u64) -> (pioqo_core::Dtt, pioqo_core::Qdtt) {
        let cfg = CalibrationConfig {
            band_sizes: vec![1, 64, 4096, capacity],
            queue_depths: vec![1, 2, 4, 8, 16, 32],
            max_reads: 800,
            method: Method::ActiveWait,
            repetitions: 1,
            early_stop_pct: None,
            stop_fill_factor: 1.02,
            seed: 7,
        };
        let cal = Calibrator::new(cfg);
        if ssd {
            let mut dev = consumer_pcie_ssd(capacity, 3);
            let (q, _) = cal.calibrate_qdtt(&mut dev);
            (q.to_dtt(), q)
        } else {
            let mut dev = hdd_7200(capacity, 3);
            let (q, _) = cal.calibrate_qdtt(&mut dev);
            (q.to_dtt(), q)
        }
    }

    #[test]
    fn dtt_optimizer_prefers_serial_plans() {
        let (dtt, _) = models(true, 1 << 20);
        let model = DttCost(dtt);
        let opt = Optimizer::new(&model, OptimizerConfig::default());
        let st = stats(100_000, 33, 16_384);
        for sel in [0.001, 0.01, 0.2, 0.9] {
            let plan = opt.choose(&st, sel);
            assert_eq!(plan.degree, 1, "old optimizer must stay serial (sel={sel})");
        }
    }

    #[test]
    fn qdtt_optimizer_parallelizes_on_ssd() {
        let (_, qdtt) = models(true, 1 << 20);
        let model = QdttCost(qdtt);
        let opt = Optimizer::new(&model, OptimizerConfig::default());
        let st = stats(100_000, 33, 16_384);
        let low = opt.choose(&st, 0.001);
        assert_eq!(low.method, AccessMethod::IndexScan);
        assert!(low.degree >= 16, "PIS with high degree expected: {low:?}");
        let high = opt.choose(&st, 0.9);
        assert_eq!(high.method, AccessMethod::TableScan);
        assert!(high.degree >= 8, "PFTS expected at high selectivity");
    }

    #[test]
    fn break_even_shifts_right_under_qdtt_on_ssd() {
        // Table 2's central claim: the IS/FTS crossover moves to much
        // higher selectivity when the optimizer knows about parallel I/O.
        let (dtt, qdtt) = models(true, 1 << 20);
        let old_model = DttCost(dtt);
        let new_model = QdttCost(qdtt);
        let old = Optimizer::new(&old_model, OptimizerConfig::default());
        let new = Optimizer::new(&new_model, OptimizerConfig::default());
        let st = stats(100_000, 33, 16_384);
        let crossover = |opt: &Optimizer<'_>| {
            let mut lo = 0.0f64;
            let mut hi = 1.0f64;
            for _ in 0..40 {
                let mid = (lo + hi) / 2.0;
                match opt.choose(&st, mid).method {
                    AccessMethod::IndexScan => lo = mid,
                    _ => hi = mid,
                }
            }
            (lo + hi) / 2.0
        };
        let np = crossover(&old);
        let p = crossover(&new);
        assert!(
            p > np * 1.5,
            "parallel break-even must sit well beyond the serial one: {np} vs {p}"
        );
    }

    #[test]
    fn hdd_break_even_shift_is_far_smaller_than_ssd() {
        // §4.2: on a single spindle the QDTT degenerates to (almost) the
        // DTT; Table 2: the HDD break-even shift (0.02% -> 0.05%) is tiny
        // next to the SSD one (0.4% -> 2.1%).
        let st = stats(100_000, 33, 16_384);
        let crossover = |opt: &Optimizer<'_>| {
            let mut lo = 0.0f64;
            let mut hi = 1.0f64;
            for _ in 0..40 {
                let mid = (lo + hi) / 2.0;
                match opt.choose(&st, mid).method {
                    AccessMethod::IndexScan => lo = mid,
                    _ => hi = mid,
                }
            }
            (lo + hi) / 2.0
        };
        let shift = |ssd: bool| {
            let (dtt, qdtt) = models(ssd, 1 << 20);
            let old_model = DttCost(dtt);
            let new_model = QdttCost(qdtt);
            let old = Optimizer::new(&old_model, OptimizerConfig::default());
            let new = Optimizer::new(&new_model, OptimizerConfig::default());
            crossover(&new) / crossover(&old)
        };
        let hdd_shift = shift(false);
        let ssd_shift = shift(true);
        assert!(hdd_shift < 5.0, "HDD shift should stay modest: {hdd_shift}");
        assert!(
            ssd_shift > hdd_shift,
            "SSD shift ({ssd_shift}) must exceed HDD shift ({hdd_shift})"
        );
    }

    #[test]
    fn zero_selectivity_picks_index_scan() {
        let (_, qdtt) = models(true, 1 << 20);
        let model = QdttCost(qdtt);
        let opt = Optimizer::new(&model, OptimizerConfig::default());
        let plan = opt.choose(&stats(100_000, 33, 16_384), 0.0);
        assert_eq!(plan.method, AccessMethod::IndexScan);
    }

    #[test]
    fn cached_table_discounts_io() {
        let (_, qdtt) = models(true, 1 << 20);
        let model = QdttCost(qdtt);
        let opt = Optimizer::new(&model, OptimizerConfig::default());
        let cold = stats(100_000, 33, 200_000);
        let mut warm = cold.clone();
        warm.cached_pages = 100_000; // fully cached
        let p_cold = opt.choose(&cold, 0.5);
        let p_warm = opt.choose(&warm, 0.5);
        assert!(p_warm.est_io_us < p_cold.est_io_us * 0.2);
    }

    #[test]
    fn sorted_is_wins_midrange_when_enabled() {
        let (_, qdtt) = models(true, 1 << 20);
        let model = QdttCost(qdtt);
        let cfg = OptimizerConfig {
            consider_sorted_is: true,
            ..OptimizerConfig::default()
        };
        let opt = Optimizer::new(&model, cfg);
        // Small buffer: plain IS refetches heavily in the midrange.
        let st = stats(100_000, 33, 2_000);
        let methods: Vec<_> = [0.02, 0.05, 0.1]
            .iter()
            .map(|&s| opt.choose(&st, s).method)
            .collect();
        assert!(
            methods.contains(&AccessMethod::SortedIndexScan),
            "sorted IS should win somewhere in the midrange: {methods:?}"
        );
    }

    fn plan_bits(p: &Plan) -> (AccessMethod, u32, u32, u64, [u64; 4]) {
        (
            p.method,
            p.degree,
            p.queue_depth,
            p.band,
            [
                p.est_page_fetches.to_bits(),
                p.est_io_us.to_bits(),
                p.est_cpu_us.to_bits(),
                p.est_total_us.to_bits(),
            ],
        )
    }

    #[test]
    fn choose_into_matches_the_minimum_over_cost_access_bit_for_bit() {
        let (_, qdtt) = models(true, 1 << 20);
        let model = QdttCost(qdtt);
        // (pages, rows per page, buffer frames, cached pages): small and
        // large pools, cold and partly cached.
        let shapes = [
            (300, 33, 32, 0),
            (300, 33, 512, 120),
            (3_031, 33, 128, 0),
            (100_000, 33, 16_384, 0),
            (100_000, 33, 2_000, 40_000),
        ];
        // 0, k below EXACT_K_LIMIT (4096) and k above it.
        let sels = [0.0, 1e-5, 0.0005, 0.001, 0.03, 0.4, 1.0];
        let mut scratch = Vec::new();
        for (pages, rpp, buffer, cached) in shapes {
            let mut st = stats(pages, rpp, buffer);
            st.cached_pages = cached;
            for cap in [1, 4, 32] {
                for base in [OptimizerConfig::default(), OptimizerConfig::fine_grained()] {
                    let cfg = OptimizerConfig {
                        max_queue_depth: cap,
                        ..base
                    };
                    let opt = Optimizer::new(&model, cfg.clone());
                    for sel in sels {
                        let chosen = opt.choose_into(&st, sel, &mut scratch);
                        let mut candidates = Vec::new();
                        for &d in &cfg.degrees {
                            candidates.push(opt.cost_access(&st, sel, AccessMethod::TableScan, d));
                            candidates.push(opt.cost_access(&st, sel, AccessMethod::IndexScan, d));
                        }
                        if cfg.consider_sorted_is {
                            candidates.push(opt.cost_access(
                                &st,
                                sel,
                                AccessMethod::SortedIndexScan,
                                1,
                            ));
                        }
                        let best = candidates
                            .iter()
                            .min_by(|a, b| a.est_total_us.partial_cmp(&b.est_total_us).unwrap())
                            .unwrap();
                        assert_eq!(
                            plan_bits(&chosen),
                            plan_bits(best),
                            "pages {pages} buffer {buffer} cached {cached} cap {cap} sel {sel}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn enumerate_covers_all_degrees() {
        let (_, qdtt) = models(true, 1 << 20);
        let model = QdttCost(qdtt);
        let opt = Optimizer::new(&model, OptimizerConfig::default());
        let plans = opt.enumerate(&stats(1000, 33, 100), 0.1);
        assert_eq!(plans.len(), 4); // {1, 32} x {FTS, IS}
        assert!(plans.iter().all(|p| p.est_total_us.is_finite()));
    }
}
