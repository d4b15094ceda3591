//! `scan_sessions`: closed-loop overlapping-scan sessions on SSD under
//! `QdttAdmission`, with exponential think time.
//!
//! Two cells share one fixture. In the unshared cell every session runs its
//! own cursor, and every device completion is broadcast to every running
//! driver, so wall time grows with sessions². In the shared cell the
//! sessions ride one `ScanHub` cursor and admission (`admit_shared`)
//! dominates the wall. `paper_queries` bypasses both mechanisms.

use crate::layers::{DeviceClock, TimedDevice, TimedPlanner};
use crate::report::{
    measure, ns_since, put_host_metrics, put_trace_overhead, quantile, ratio, Layers, Outcome,
    PassCore, Setup, SetupTimes,
};
use crate::Seeds;
use pioqo_core::Qdtt;
use pioqo_device::DeviceModel;
use pioqo_exec::{
    CpuConfig, CpuCosts, ExecError, MultiEngine, QuerySpec, SimContext, WorkloadReport,
};
use pioqo_optimizer::{AdmissionDecision, OptimizerConfig, QdttAdmission};
use pioqo_workload::{calibrate, Experiment, SessionScaleConfig};
use std::rc::Rc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Size {
    pub unshared_sessions: u32,
    pub shared_sessions: u32,
}

impl Size {
    /// A pass takes about a second, so a 30-second run times each cell 30
    /// to 40 times. The mechanisms already dominate at this size: the
    /// broadcast dispatch takes ~80% of the unshared cell, `admit_shared`
    /// ~99% of the shared cell.
    pub fn full() -> Size {
        Size {
            unshared_sessions: 250,
            shared_sessions: 2_500,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            unshared_sessions: 40,
            shared_sessions: 400,
        }
    }
}

/// The session-scale fixture with the dataset seeded from `--seed`, a
/// small pool, and every record kept so every answer can be checked.
fn config(seeds: &Seeds) -> SessionScaleConfig {
    SessionScaleConfig {
        seed: seeds.dataset,
        record_limit: None,
        // Far below the 300-page table. With 128 frames, hits between the
        // 1K concurrent unshared scans depend on their arrival order, which
        // moves the unshared cell's simulated makespan by ±15% from seed to
        // seed; with 32 frames it moves by ±2%.
        buffer_frames: 32,
        ..SessionScaleConfig::default()
    }
}

struct Fixture {
    cfg: SessionScaleConfig,
    exp: Experiment,
    model: Qdtt,
    oracle: (Option<u32>, u64),
}

fn setup(seeds: &Seeds) -> (Fixture, SetupTimes) {
    let started = Instant::now();
    let cfg = config(seeds);
    let t = Instant::now();
    let exp = Experiment::build(cfg.experiment());
    let build_ns = ns_since(t);
    let t = Instant::now();
    let model = calibrate(&exp).qdtt;
    let calibrate_ns = [0, ns_since(t), 0];
    let total_ns = ns_since(started);
    let oracle = (
        exp.dataset.oracle_max(cfg.selectivity),
        exp.dataset.oracle_count(cfg.selectivity),
    );
    (
        Fixture {
            cfg,
            exp,
            model,
            oracle,
        },
        SetupTimes {
            total_ns,
            build_ns,
            calibrate_ns,
        },
    )
}

/// Per-cell figures the traced pass collects.
#[derive(Debug, Default)]
struct CellTrace {
    wall_ns: u64,
    admission_calls: u64,
    admission_ns: u64,
    device: DeviceClock,
    completed: u64,
}

struct Cell {
    report: WorkloadReport,
    decisions: Vec<AdmissionDecision>,
}

/// Run one cell on a fresh device and flushed pool.
fn cell(
    fx: &Fixture,
    seeds: &Seeds,
    sessions: u32,
    shared: bool,
    trace: Option<&mut CellTrace>,
) -> Result<Cell, ExecError> {
    let mut spec = fx.cfg.workload(sessions, shared);
    spec.seed = seeds.session;
    let table = fx.exp.dataset.table();
    let index = fx.exp.dataset.index();
    let started = Instant::now();
    let mut device = fx.exp.make_device();
    let mut pool = fx.exp.make_pool();
    let mut planner = QdttAdmission::new(
        table,
        index,
        fx.model.clone(),
        OptimizerConfig::fine_grained(),
    );
    let base = QuerySpec::range_max(table, Some(index), 0, 0);
    let report = match trace {
        None => {
            let mut ctx = SimContext::new(
                &mut *device,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            MultiEngine::new(spec, base, &mut planner).run(&mut ctx)?
        }
        Some(tr) => {
            let clock = Rc::new(DeviceClock::default());
            let mut timed_dev = TimedDevice::new(&mut *device, clock.clone());
            let mut timed = TimedPlanner::new(&mut planner);
            let mut ctx = SimContext::new(
                &mut timed_dev as &mut dyn DeviceModel,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            let report = MultiEngine::new(spec, base, &mut timed).run(&mut ctx)?;
            tr.wall_ns = ns_since(started);
            tr.admission_calls = timed.calls;
            tr.admission_ns = timed.ns;
            tr.completed = report.total_completed();
            drop(ctx);
            drop(timed_dev);
            tr.device = Rc::try_unwrap(clock).expect("the context is gone");
            report
        }
    };
    Ok(Cell {
        report,
        decisions: planner.into_decisions(),
    })
}

const CELLS: [&str; 2] = ["unshared", "shared"];

#[derive(Default)]
struct Pass {
    core: PassCore,
    makespan_s: f64,
    /// Simulated query latency per cell, in `CELLS` order.
    sim_ms: [Vec<f64>; 2],
    cells: Vec<Cell>,
}

impl crate::report::Pass for Pass {
    fn core(&self) -> &PassCore {
        &self.core
    }

    fn trim(&mut self) {
        self.cells.clear();
        self.sim_ms = Default::default();
    }
}

/// Each cell is one timed unit.
fn pass(fx: &Fixture, seeds: &Seeds, size: &Size, mut traces: Option<&mut [CellTrace; 2]>) -> Pass {
    let mut p = Pass::default();
    for (i, (sessions, shared)) in [
        (size.unshared_sessions, false),
        (size.shared_sessions, true),
    ]
    .into_iter()
    .enumerate()
    {
        let expected = u64::from(sessions) * u64::from(fx.cfg.queries_per_session);
        let core = &mut p.core;
        core.attempted += expected;
        let trace = traces.as_deref_mut().map(|t| &mut t[i]);
        let started = Instant::now();
        let c = cell(fx, seeds, sessions, shared, trace);
        core.unit_ns.push(ns_since(started));
        let c = match c {
            Ok(c) => c,
            Err(e) => {
                core.digest.str(&e.to_string());
                core.failed += expected;
                continue;
            }
        };
        let r = &c.report;
        core.ops += r.total_completed();
        p.makespan_s += r.makespan.as_secs_f64();
        if r.total_completed() != expected {
            core.wrong.push(format!(
                "{sessions} sessions (shared {shared}): {} of {expected} queries completed",
                r.total_completed()
            ));
        }
        core.digest.u64(r.makespan.as_nanos());
        core.digest.u64(r.shared.attaches);
        core.digest.u64(r.shared.cursor_starts);
        for rec in &r.records {
            core.digest.u64(u64::from(rec.session));
            core.digest.u64(u64::from(rec.query_index));
            core.digest.str(&rec.plan);
            core.digest.u64(rec.latency.as_nanos());
            core.digest.opt(rec.max_c1);
            core.digest.u64(rec.rows_matched);
            p.sim_ms[i].push(rec.latency.as_micros_f64() / 1e3);
            if (rec.max_c1, rec.rows_matched) != fx.oracle {
                core.wrong.push(format!(
                    "session {} query {} ({}): got ({:?}, {}), oracle {:?}",
                    rec.session, rec.query_index, rec.plan, rec.max_c1, rec.rows_matched, fx.oracle
                ));
            }
        }
        p.cells.push(c);
    }
    p
}

pub fn run(seeds: &Seeds, size: &Size, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (fx, setup, passes) = measure(
        seconds,
        &mut out,
        || setup(seeds),
        |fx| pass(fx, seeds, size, None),
    );
    put_host_metrics(&mut out, &passes, &setup);
    let first = &passes[0];
    let m = &mut out.metrics;
    let n: u64 = first.sim_ms.iter().map(|v| v.len() as u64).sum();
    m.put(
        "sim_qps",
        ratio(first.core.ops as f64, first.makespan_s),
        "1/sim_s",
        n,
    );
    // The cells' latencies differ by orders of magnitude, so quantiles over
    // both together would be the unshared cell's alone. The gated figures
    // are the geometric means of the per-cell quantiles, which move with
    // either cell.
    for (name, q) in [("sim_query_ms_p50", 0.5), ("sim_query_ms_p99", 0.99)] {
        let mut log_sum = 0.0;
        for (cell, ms) in CELLS.iter().zip(&first.sim_ms) {
            let v = quantile(ms, q);
            m.put(&format!("{name}.{cell}"), v, "sim_ms", ms.len() as u64);
            log_sum += v.ln();
        }
        m.put(name, (log_sum / 2.0).exp(), "sim_ms", n);
    }

    if traced {
        let mut traces = [CellTrace::default(), CellTrace::default()];
        let p = pass(&fx, seeds, size, Some(&mut traces));
        out.same_digest("traced pass", p.core.digest);
        out.wrong.extend(p.core.wrong.iter().cloned());
        put_trace_overhead(&mut out.metrics, &p, &passes);
        out.layers = Some(layers(&mut out.metrics, &p, &traces, &setup));
    }
    out
}

fn layers(
    m: &mut crate::report::Metrics,
    p: &Pass,
    traces: &[CellTrace; 2],
    setup: &Setup,
) -> Layers {
    let wall_ns: u64 = traces.iter().map(|t| t.wall_ns).sum();
    let adm_ns: u64 = traces.iter().map(|t| t.admission_ns).sum();
    let device = DeviceClock::default();
    for t in traces {
        device.merge(&t.device);
    }
    let mut pool = pioqo_bufpool::PoolStats::default();
    let (mut depth_x_time, mut time, mut lat_x_ops, mut ops) = (0.0, 0.0, 0.0, 0u64);
    for c in &p.cells {
        let r = &c.report;
        pool.merge(&r.pool);
        depth_x_time += r.io.mean_queue_depth * r.makespan.as_secs_f64();
        time += r.makespan.as_secs_f64();
        lat_x_ops += r.io.mean_latency_us * r.io.io_ops as f64;
        ops += r.io.io_ops;
    }
    crate::put_device_layers(
        m,
        &device,
        wall_ns,
        ratio(depth_x_time, time),
        ratio(lat_x_ops, ops as f64),
        ops,
    );
    crate::put_pool_layers(m, &pool);

    let mut l = Layers {
        wall_ns,
        ..Layers::default()
    };
    crate::put_setup_layers(m, &mut l, "scan_sessions", setup);
    l.spans
        .push_str("cell,wall_ns,admission_ns,device_ns,residual_ns,completed\n");
    for (t, name) in traces.iter().zip(CELLS) {
        let dev = t.device.ns.get();
        let residual = t.wall_ns.saturating_sub(t.admission_ns + dev);
        m.put(
            &format!("optimizer.admission.calls.{name}"),
            t.admission_calls as f64,
            "count",
            t.admission_calls,
        );
        m.put(
            &format!("optimizer.admission.us_per_call.{name}"),
            ratio(t.admission_ns as f64 / 1e3, t.admission_calls as f64),
            "us",
            t.admission_calls,
        );
        m.put(
            &format!("exec.session.residual_us_per_query.{name}"),
            ratio(residual as f64 / 1e3, t.completed as f64),
            "us",
            t.completed,
        );
        l.add(
            "optimizer.admission",
            t.admission_calls,
            t.admission_ns,
            t.admission_ns,
        );
        l.add("device", t.device.calls.get(), dev, dev);
        l.add("exec.session", t.completed, residual, residual);
        let cell = format!("scan_sessions;cell.{name}");
        l.stack(format!("{cell};optimizer.admission"), t.admission_ns);
        l.stack(format!("{cell};device"), dev);
        l.stack(cell, residual);
        l.spans.push_str(&format!(
            "{name},{},{},{dev},{residual},{}\n",
            t.wall_ns, t.admission_ns, t.completed
        ));
    }
    m.put(
        "optimizer.admission.share",
        ratio(adm_ns as f64, wall_ns as f64),
        "ratio",
        2,
    );
    let leased: Vec<f64> = p
        .cells
        .iter()
        .flat_map(|c| c.decisions.iter())
        .filter(|d| !d.attached)
        .map(|d| f64::from(d.lease_depth))
        .collect();
    m.put(
        "optimizer.admission.lease_depth_mean",
        crate::report::mean(&leased),
        "requests",
        leased.len() as u64,
    );
    let shared = p.cells.iter().find(|c| c.report.spec.shared_scans);
    let (attaches, admitted, starts) = shared.map_or((0, 0, 0), |c| {
        (
            c.report.shared.attaches,
            c.decisions.len() as u64,
            c.report.shared.cursor_starts,
        )
    });
    m.put(
        "optimizer.admission.attach_ratio",
        ratio(attaches as f64, admitted as f64),
        "ratio",
        admitted,
    );
    m.put("exec.shared.cursor_starts", starts as f64, "count", 1);
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timed device and timed planner change nothing the engine sees:
    /// reports and admission journals are identical with and without them.
    #[test]
    fn wrappers_are_pass_through() {
        let seeds = Seeds::new(5);
        let (fx, _) = setup(&seeds);
        for shared in [false, true] {
            let plain = cell(&fx, &seeds, 60, shared, None).expect("clean device");
            let mut tr = CellTrace::default();
            let timed = cell(&fx, &seeds, 60, shared, Some(&mut tr)).expect("clean device");
            assert_eq!(plain.report.to_json(), timed.report.to_json());
            assert_eq!(
                format!("{:?}", plain.decisions),
                format!("{:?}", timed.decisions)
            );
            assert_eq!(tr.admission_calls, 60);
            assert!(tr.device.calls.get() > 0);
        }
    }
}
