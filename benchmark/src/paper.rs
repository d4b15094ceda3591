//! `paper_queries`: the paper's per-point protocol.
//!
//! Every query runs alone on a cold device with a flushed pool. The grid is
//! every access method × a selectivity sweep × the Table-1 tables on HDD,
//! SSD and RAID8, plus both join operators across device × queue-depth
//! lease. Each grid point also runs the optimizer's own pick, so plan
//! regret and the optimizer's estimate error come out of the same pass.
//!
//! Sizing at scale 8: T1 is 262K pages (16× the 16K-frame pool), T33 ~30K
//! pages (~2×) and T500 8K pages (fits), so one table fits the cache and
//! the others do not.

use crate::layers::{run_traced, DeviceClock, LoopClock, TimedDevice};
use crate::report::{
    mean, measure, median, ns_since, put_host_metrics, put_sim_latency, put_trace_overhead,
    quantile, ratio, Layers, Outcome, PassCore, Setup, SetupTimes,
};
use crate::Seeds;
use pioqo_bufpool::{BufferPool, PoolStats};
use pioqo_core::{CalibrationConfig, Calibrator, Qdtt};
use pioqo_device::{presets, DeviceModel};
use pioqo_exec::{
    execute, oracle, CpuConfig, CpuCosts, ExecError, JoinClause, PlanSpec, Predicate, QuerySpec,
    RowAcc, ScanMetrics, SimContext,
};
use pioqo_optimizer::{
    choose_join, enumerate_joins, join_plan_to_spec, EstCpuCosts, JoinMethod, JoinPlan, JoinStats,
    Optimizer, OptimizerConfig, QdBudget, QdttCost, TableStats,
};
use pioqo_storage::{range_for_selectivity, BTreeIndex, Extent, HeapTable, TableSpec, Tablespace};
use pioqo_workload::{
    calibrate, plan_to_method, DeviceKind, Experiment, ExperimentConfig, MethodSpec,
};
use std::rc::Rc;
use std::time::Instant;

const DEVICES: [DeviceKind; 3] = [DeviceKind::Hdd, DeviceKind::Ssd, DeviceKind::Raid8];

/// Candidate access methods run at every scan grid point.
const METHODS: [MethodSpec; 5] = [
    MethodSpec::Fts { workers: 1 },
    MethodSpec::Fts { workers: 8 },
    MethodSpec::Is {
        workers: 1,
        prefetch: 0,
    },
    MethodSpec::Is {
        workers: 8,
        prefetch: 4,
    },
    MethodSpec::SortedIs { prefetch: 16 },
];

/// Workload size. `full` is what the benchmark runs; tests use `tiny`.
#[derive(Debug, Clone)]
pub struct Size {
    /// Table-1 row counts are divided by this.
    pub scale: u64,
    pub selectivities: Vec<f64>,
    pub join_left_rows: u64,
    pub join_right_rows: u64,
    /// Open-session counts whose queue-depth share sets the join lease.
    pub join_sessions: Vec<u32>,
}

impl Size {
    pub fn full() -> Size {
        Size {
            scale: 8,
            selectivities: vec![0.0001, 0.001, 0.01, 0.05],
            join_left_rows: 40_000,
            join_right_rows: 80_000,
            join_sessions: vec![1, 4, 16],
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            scale: 400,
            selectivities: vec![0.001, 0.05],
            join_left_rows: 2_000,
            join_right_rows: 4_000,
            join_sessions: vec![1, 16],
        }
    }
}

struct Table {
    exp: Experiment,
    stats: TableStats,
    models: Vec<Qdtt>,
}

struct JoinFixture {
    left: HeapTable,
    left_index: BTreeIndex,
    right: HeapTable,
    right_index: BTreeIndex,
    spill: Extent,
    capacity: u64,
    models: Vec<Qdtt>,
    device_seed: u64,
}

const JOIN_KEY_MAX: u32 = 9_999;
const JOIN_SELECTIVITY: f64 = 0.01;
const JOIN_FRAMES: usize = 2_048;

struct Fixture {
    tables: Vec<Table>,
    join: JoinFixture,
}

/// A cold device of `kind`, seeded the way `Experiment::make_device` seeds
/// it.
fn cold_device(kind: DeviceKind, capacity: u64, seed: u64) -> Box<dyn DeviceModel> {
    match kind {
        DeviceKind::Hdd => Box::new(presets::hdd_7200(capacity, seed ^ 0xD15C)),
        DeviceKind::Ssd => Box::new(presets::consumer_pcie_ssd(capacity, seed ^ 0xF1A5)),
        DeviceKind::Raid8 => Box::new(presets::raid_15k(8, capacity, seed ^ 0x8A1D)),
    }
}

fn setup(seeds: &Seeds, size: &Size) -> (Fixture, SetupTimes) {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let mut tables = Vec::new();
    for (i, rpp) in [1u32, 33, 500].into_iter().enumerate() {
        let mut cfg = ExperimentConfig::by_name(&format!("E{rpp}-SSD"))
            .expect("Table 1 row")
            .scaled_down(size.scale);
        cfg.seed = seeds.dataset ^ (i as u64 + 1);
        let t = Instant::now();
        let mut exp = Experiment::build(cfg);
        let stats = TableStats::gather(exp.dataset.table(), exp.dataset.index(), &exp.make_pool());
        times.build_ns += ns_since(t);
        let mut models = Vec::new();
        for (d, kind) in DEVICES.into_iter().enumerate() {
            exp.cfg.device = kind;
            let t = Instant::now();
            models.push(calibrate(&exp).qdtt);
            times.calibrate_ns[d] += ns_since(t);
        }
        tables.push(Table { exp, stats, models });
    }

    let t = Instant::now();
    let lspec = TableSpec {
        c2_max: JOIN_KEY_MAX,
        ..TableSpec::paper_table(33, size.join_left_rows, seeds.dataset ^ 0x10)
    };
    let rspec = TableSpec {
        name: "T_inner".to_string(),
        c2_max: JOIN_KEY_MAX,
        ..TableSpec::paper_table(33, size.join_right_rows, seeds.dataset ^ 0x20)
    };
    let mut ts = Tablespace::new(5 * (lspec.n_pages() + rspec.n_pages()) + 4_000);
    let left = HeapTable::create(lspec, &mut ts).expect("tablespace sized to fit");
    let right = HeapTable::create(rspec, &mut ts).expect("tablespace sized to fit");
    let left_index = BTreeIndex::build(
        "outer_c2",
        left.data().c2_entries(),
        left.spec().page_size,
        &mut ts,
    )
    .expect("tablespace sized to fit");
    let right_index = BTreeIndex::build(
        "inner_c2",
        right.data().c2_entries(),
        right.spec().page_size,
        &mut ts,
    )
    .expect("tablespace sized to fit");
    let spill = ts
        .alloc("join_spill", 2 * (left.n_pages() + right.n_pages()) + 64)
        .expect("tablespace sized to fit");
    let capacity = ts.capacity();
    times.build_ns += ns_since(t);
    let device_seed = seeds.dataset ^ 0x30;
    let mut models = Vec::new();
    for (d, kind) in DEVICES.into_iter().enumerate() {
        let t = Instant::now();
        let cal = Calibrator::new(CalibrationConfig::for_device(
            capacity,
            device_seed ^ 0xCA11,
        ));
        models.push(
            cal.calibrate_qdtt_with(|| cold_device(kind, capacity, device_seed))
                .0,
        );
        times.calibrate_ns[d] += ns_since(t);
    }
    let join = JoinFixture {
        left,
        left_index,
        right,
        right_index,
        spill,
        capacity,
        models,
        device_seed,
    };
    times.total_ns = ns_since(started);
    (Fixture { tables, join }, times)
}

#[derive(Debug, Clone, Copy)]
enum Point {
    Scan {
        table: usize,
        device: usize,
        sel: f64,
    },
    Join {
        device: usize,
        sessions: u32,
    },
}

fn points(size: &Size) -> Vec<Point> {
    let mut v = Vec::new();
    for table in 0..3 {
        for device in 0..DEVICES.len() {
            for &sel in &size.selectivities {
                v.push(Point::Scan { table, device, sel });
            }
        }
    }
    for device in 0..DEVICES.len() {
        for &sessions in &size.join_sessions {
            v.push(Point::Join { device, sessions });
        }
    }
    v
}

fn scan_query(t: &Table, sel: f64) -> QuerySpec<'_> {
    let (low, high) = range_for_selectivity(sel, t.exp.dataset.c2_max());
    QuerySpec::range_max(
        t.exp.dataset.table(),
        Some(t.exp.dataset.index()),
        low,
        high,
    )
}

fn join_query(j: &JoinFixture, plan: PlanSpec) -> QuerySpec<'_> {
    let (low, high) = range_for_selectivity(JOIN_SELECTIVITY, JOIN_KEY_MAX);
    QuerySpec::scan(&j.left)
        .filter(Predicate::c2_between(low, high))
        .with_plan(plan)
        .join(JoinClause {
            right: &j.right,
            right_index: Some(&j.right_index),
            spill: Some(j.spill),
        })
}

/// What the traced pass accumulates per layer.
#[derive(Default)]
struct Trace {
    device: Rc<DeviceClock>,
    clock: LoopClock,
    choose_ns: Vec<f64>,
    fts_driver_self_ns: u64,
    fts_rows: u64,
    rows_examined: u64,
    rows_matched: u64,
    pool: PoolStats,
    /// Sim-time-weighted queue depth and I/O-weighted latency sums.
    depth_x_time: f64,
    sim_time_us: f64,
    latency_x_ops: f64,
    io_ops: u64,
    spans: String,
}

/// Run one query on a fresh device and pool, traced or not. Returns the
/// metrics and the host nanoseconds the query took.
fn run_query(
    make_device: impl FnOnce() -> Box<dyn DeviceModel>,
    frames: usize,
    q: &QuerySpec<'_>,
    trace: Option<&mut Trace>,
) -> (Result<ScanMetrics, ExecError>, u64) {
    let t = Instant::now();
    let mut device = make_device();
    let mut pool = BufferPool::new(frames);
    let Some(tr) = trace else {
        let mut ctx = SimContext::new(
            &mut *device,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let out = execute(&mut ctx, q);
        return (out, ns_since(t));
    };
    let mut timed = TimedDevice::new(&mut *device, tr.device.clone());
    let mut ctx = SimContext::new(
        &mut timed,
        &mut pool,
        CpuConfig::paper_xeon(),
        CpuCosts::default(),
    );
    let mut clock = LoopClock::default();
    let out = run_traced(&mut ctx, q, &tr.device, &mut clock);
    let host = ns_since(t);
    if let Ok(m) = &out {
        let driver_self = clock.driver_ns - clock.driver_device_ns;
        if matches!(q.plan, PlanSpec::Fts(_)) {
            tr.fts_driver_self_ns += driver_self;
            tr.fts_rows += m.rows_examined;
        }
        tr.rows_examined += m.rows_examined;
        tr.rows_matched += m.rows_matched;
        tr.pool.merge(&m.pool);
        let sim_us = m.runtime.as_micros_f64();
        tr.depth_x_time += m.io.mean_queue_depth * sim_us;
        tr.sim_time_us += sim_us;
        tr.latency_x_ops += m.io.mean_latency_us * m.io.io_ops as f64;
        tr.io_ops += m.io.io_ops;
        tr.spans.push_str(&format!(
            "{},{},{},{},{}\n",
            q.plan.label(),
            clock.loop_ns,
            clock.step_ns - clock.step_device_ns,
            driver_self,
            clock.step_device_ns + clock.driver_device_ns
        ));
    }
    tr.clock.merge(&clock);
    (out, host)
}

/// One pass over the grid. Each query is a timed unit.
#[derive(Default)]
struct Pass {
    core: PassCore,
    wall_ns: u64,
    sim_ms: Vec<f64>,
    regret: Vec<f64>,
    cost_error: Vec<f64>,
}

impl crate::report::Pass for Pass {
    fn core(&self) -> &PassCore {
        &self.core
    }
}

impl Pass {
    fn record(
        &mut self,
        what: &str,
        out: Result<ScanMetrics, ExecError>,
        host_ns: u64,
        want: &RowAcc,
    ) -> Option<f64> {
        let core = &mut self.core;
        core.unit_ns.push(host_ns);
        core.attempted += 1;
        core.digest.str(what);
        match out {
            Ok(m) => {
                core.ops += 1;
                core.digest.u64(m.runtime.as_nanos());
                core.digest.opt(m.max_c1);
                core.digest.u64(m.rows_matched);
                core.digest.u64(m.fingerprint);
                if (m.max_c1, m.rows_matched, m.fingerprint)
                    != (want.agg, want.matched, want.fingerprint)
                {
                    core.wrong.push(format!(
                        "{what}: got ({:?}, {}, {:#x}), oracle ({:?}, {}, {:#x})",
                        m.max_c1,
                        m.rows_matched,
                        m.fingerprint,
                        want.agg,
                        want.matched,
                        want.fingerprint
                    ));
                }
                let sim = m.runtime.as_micros_f64();
                self.sim_ms.push(sim / 1e3);
                Some(sim)
            }
            Err(e) => {
                core.digest.str(&e.to_string());
                core.failed += 1;
                None
            }
        }
    }

    fn score(&mut self, chosen_us: Option<f64>, best_us: f64, est_us: f64) {
        if let Some(c) = chosen_us {
            self.regret.push(ratio(c, best_us));
            self.cost_error.push((est_us / c).max(c / est_us));
        }
    }
}

fn best_join(plans: &[JoinPlan], method: JoinMethod) -> JoinPlan {
    plans
        .iter()
        .filter(|p| p.method == method)
        .min_by(|a, b| a.est_total_us.total_cmp(&b.est_total_us))
        .cloned()
        .expect("join enumeration covers both methods")
}

fn pass(fx: &Fixture, grid: &[Point], oracles: &[RowAcc], mut trace: Option<&mut Trace>) -> Pass {
    let started = Instant::now();
    let opt_cfg = OptimizerConfig::fine_grained();
    let mut p = Pass::default();
    for (point, want) in grid.iter().zip(oracles) {
        match *point {
            Point::Scan { table, device, sel } => {
                let t = &fx.tables[table];
                let kind = DEVICES[device];
                let cost = QdttCost(t.models[device].clone());
                let opt = Optimizer::with_cfg(&cost, &opt_cfg);
                let tc = Instant::now();
                let plan = opt.choose(&t.stats, sel);
                if let Some(tr) = trace.as_deref_mut() {
                    tr.choose_ns.push(ns_since(tc) as f64);
                }
                let chosen = plan_to_method(&plan, opt_cfg.is_prefetch_depth);
                let mut best = f64::INFINITY;
                let mut chosen_us = None;
                let mut runs = METHODS.to_vec();
                if !runs.contains(&chosen) {
                    runs.push(chosen);
                }
                for m in runs {
                    let q = scan_query(t, sel).with_plan(m.to_plan_spec());
                    let what = format!("{}/{kind}/sel={sel}/{m}", t.exp.cfg.table);
                    let (out, host) = run_query(
                        || cold_device(kind, t.exp.dataset.device_capacity(), t.exp.cfg.seed),
                        t.exp.cfg.buffer_frames,
                        &q,
                        trace.as_deref_mut(),
                    );
                    let sim = p.record(&what, out, host, want);
                    if let Some(s) = sim {
                        best = best.min(s);
                    }
                    if m == chosen {
                        chosen_us = sim;
                    }
                }
                p.score(chosen_us, best, plan.est_total_us);
            }
            Point::Join { device, sessions } => {
                let j = &fx.join;
                let kind = DEVICES[device];
                let model = &j.models[device];
                let lease = QdBudget::from_model(model).share_at(sessions).max(1);
                let pool = BufferPool::new(JOIN_FRAMES);
                let left = TableStats::gather(&j.left, &j.left_index, &pool);
                let right = TableStats::gather(&j.right, &j.right_index, &pool);
                let js = JoinStats {
                    left: &left,
                    right: &right,
                    key_cardinality: u64::from(JOIN_KEY_MAX) + 1,
                };
                let cost = QdttCost(model.clone());
                let est = EstCpuCosts::default();
                let tc = Instant::now();
                let chosen = choose_join(&cost, &est, &js, JOIN_SELECTIVITY, lease);
                if let Some(tr) = trace.as_deref_mut() {
                    tr.choose_ns.push(ns_since(tc) as f64);
                }
                let plans = enumerate_joins(&cost, &est, &js, JOIN_SELECTIVITY, lease);
                let mut best = f64::INFINITY;
                let mut chosen_us = None;
                for method in [JoinMethod::IndexNestedLoop, JoinMethod::HybridHash] {
                    let plan = best_join(&plans, method);
                    let q = join_query(j, join_plan_to_spec(&plan));
                    let what = format!("join/{kind}/lease={lease}/{}", plan.label());
                    let (out, host) = run_query(
                        || cold_device(kind, j.capacity, j.device_seed),
                        JOIN_FRAMES,
                        &q,
                        trace.as_deref_mut(),
                    );
                    let sim = p.record(&what, out, host, want);
                    if let Some(s) = sim {
                        best = best.min(s);
                    }
                    if method == chosen.method {
                        chosen_us = sim;
                    }
                }
                p.score(chosen_us, best, chosen.est_total_us);
            }
        }
    }
    p.wall_ns = ns_since(started);
    p
}

/// Ground truth per grid point, from `pioqo_exec::oracle`. The join
/// operators are also checked against each other through it.
fn oracles(fx: &Fixture, grid: &[Point]) -> Vec<RowAcc> {
    grid.iter()
        .map(|p| match *p {
            Point::Scan { table, sel, .. } => oracle(&scan_query(&fx.tables[table], sel)),
            Point::Join { .. } => oracle(&join_query(
                &fx.join,
                PlanSpec::Hash(pioqo_exec::HashJoinConfig::default()),
            )),
        })
        .collect()
}

pub fn run(seeds: &Seeds, size: &Size, seconds: f64, traced: bool) -> Outcome {
    let grid = points(size);
    let mut want = None;
    let mut out = Outcome::default();
    let (fx, setup, passes) = measure(
        seconds,
        &mut out,
        || setup(seeds, size),
        |fx| {
            let want = want.get_or_insert_with(|| oracles(fx, &grid));
            pass(fx, &grid, want, None)
        },
    );
    let want = want.expect("the first pass computed the oracles");
    put_host_metrics(&mut out, &passes, &setup);
    let first = &passes[0];
    let m = &mut out.metrics;
    let host_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.core.unit_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    m.put("query_ms_p50", median(&host_ms), "ms", host_ms.len() as u64);
    m.put(
        "query_ms_p90",
        quantile(&host_ms, 0.9),
        "ms",
        host_ms.len() as u64,
    );
    let n = first.sim_ms.len() as u64;
    m.put(
        "sim_qps",
        ratio(n as f64, first.sim_ms.iter().sum::<f64>() / 1e3),
        "1/sim_s",
        n,
    );
    put_sim_latency(m, &first.sim_ms);
    let nr = first.regret.len() as u64;
    m.put("plan_regret_mean", mean(&first.regret), "ratio", nr);
    m.put("plan_regret_max", quantile(&first.regret, 1.0), "ratio", nr);
    let log_err: Vec<f64> = first.cost_error.iter().map(|e| e.ln()).collect();
    m.put("cost_error_gmean", mean(&log_err).exp(), "ratio", nr);

    if traced {
        let mut tr = Trace::default();
        let p = pass(&fx, &grid, &want, Some(&mut tr));
        out.same_digest("traced pass", p.core.digest);
        out.wrong.extend(p.core.wrong.iter().cloned());
        put_trace_overhead(&mut out.metrics, &p, &passes);
        out.layers = Some(layers(&mut out.metrics, &tr, p.wall_ns, &setup));
    }
    out
}

fn layers(m: &mut crate::report::Metrics, tr: &Trace, wall_ns: u64, setup: &Setup) -> Layers {
    let c = &tr.clock;
    let dev_ns = tr.device.ns.get();
    let dev_calls = tr.device.calls.get();
    let engine_self = c.step_ns - c.step_device_ns;
    let driver_self = c.driver_ns - c.driver_device_ns;
    let choose_ns: f64 = tr.choose_ns.iter().sum();
    m.put("exec.engine.steps", c.steps as f64, "count", c.steps);
    m.put("exec.engine.events", c.events as f64, "count", c.events);
    m.put(
        "exec.engine.self_ns_per_event",
        ratio(engine_self as f64, c.events as f64),
        "ns",
        c.events,
    );
    m.put(
        "exec.driver.self_ns_per_event",
        ratio(driver_self as f64, c.events as f64),
        "ns",
        c.events,
    );
    m.put(
        "exec.query.self_ns_per_row",
        ratio(tr.fts_driver_self_ns as f64, tr.fts_rows as f64),
        "ns",
        tr.fts_rows,
    );
    m.put(
        "exec.query.rows_examined_per_match",
        ratio(tr.rows_examined as f64, tr.rows_matched as f64),
        "ratio",
        tr.rows_matched,
    );
    crate::put_device_layers(
        m,
        &tr.device,
        wall_ns,
        tr.depth_x_time / tr.sim_time_us.max(1.0),
        ratio(tr.latency_x_ops, tr.io_ops as f64),
        tr.io_ops,
    );
    crate::put_pool_layers(m, &tr.pool);
    m.put(
        "optimizer.choose_us_p50",
        median(&tr.choose_ns) / 1e3,
        "us",
        tr.choose_ns.len() as u64,
    );

    let mut l = Layers {
        wall_ns,
        ..Layers::default()
    };
    crate::put_setup_layers(m, &mut l, "paper_queries", setup);
    l.add("device", dev_calls, dev_ns, dev_ns);
    l.add("exec.engine", c.steps, c.step_ns, engine_self);
    l.add("exec.driver", c.events, c.driver_ns, driver_self);
    let loop_other = c.loop_ns.saturating_sub(c.step_ns + c.driver_ns);
    l.add("exec.loop.other", 0, loop_other, loop_other);
    l.add(
        "optimizer",
        tr.choose_ns.len() as u64,
        choose_ns as u64,
        choose_ns as u64,
    );
    let harness = wall_ns.saturating_sub(c.loop_ns + choose_ns as u64);
    l.add("harness", 0, harness, harness);
    let w = "paper_queries";
    l.stack(format!("{w};query;exec.engine"), engine_self);
    l.stack(format!("{w};query;exec.engine;device"), c.step_device_ns);
    l.stack(format!("{w};query;exec.driver"), driver_self);
    l.stack(format!("{w};query;exec.driver;device"), c.driver_device_ns);
    l.stack(format!("{w};query"), loop_other);
    l.stack(format!("{w};optimizer.choose"), choose_ns as u64);
    l.stack(format!("{w};harness"), harness);
    l.spans = format!(
        "plan,loop_ns,engine_self_ns,driver_self_ns,device_ns\n{}",
        tr.spans
    );
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hand-driven loop behind the timed device returns exactly what
    /// `execute` returns, for every query of the workload.
    #[test]
    fn traced_loop_matches_execute_on_every_query() {
        let seeds = Seeds::new(11);
        let size = Size::tiny();
        let (fx, _) = setup(&seeds, &size);
        let mut tr = Trace::default();
        let mut checked = 0;
        for point in points(&size) {
            // (query, device kind, capacity, device seed, pool frames)
            let runs: Vec<_> = match point {
                Point::Scan { table, device, sel } => {
                    let t = &fx.tables[table];
                    let dev = (
                        DEVICES[device],
                        t.exp.dataset.device_capacity(),
                        t.exp.cfg.seed,
                    );
                    METHODS
                        .iter()
                        .map(|m| {
                            (
                                scan_query(t, sel).with_plan(m.to_plan_spec()),
                                dev,
                                t.exp.cfg.buffer_frames,
                            )
                        })
                        .collect()
                }
                Point::Join { device, .. } => {
                    let j = &fx.join;
                    let dev = (DEVICES[device], j.capacity, j.device_seed);
                    [
                        PlanSpec::Inl(pioqo_exec::InlConfig::default()),
                        PlanSpec::Hash(pioqo_exec::HashJoinConfig::default()),
                    ]
                    .into_iter()
                    .map(|plan| (join_query(j, plan), dev, JOIN_FRAMES))
                    .collect()
                }
            };
            for (q, (kind, capacity, seed), frames) in runs {
                let make = || cold_device(kind, capacity, seed);
                let (plain, _) = run_query(make, frames, &q, None);
                let (traced, _) = run_query(make, frames, &q, Some(&mut tr));
                let plain = format!("{:?}", plain.expect("clean device"));
                let traced = format!("{:?}", traced.expect("clean device"));
                assert_eq!(plain, traced, "{}", q.plan.label());
                checked += 1;
            }
        }
        assert!(
            checked > 20,
            "every access method and both joins were compared"
        );
        assert!(tr.device.calls.get() > 0 && tr.clock.events > 0);
    }
}
