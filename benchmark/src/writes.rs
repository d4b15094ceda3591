//! `write_mix`: 16 unshared scan sessions plus WAL writers and the
//! background flusher on one SSD, through `MultiEngine::run_with_writes`.
//!
//! Each pass runs the mix once to completion, once more in a pool too small
//! for its two tables, then reruns it with the device crashing at seeded
//! instants. After every crash `recover()` must
//! restore the write table to exactly the durable WAL prefix, and every
//! acknowledged commit must lie inside that prefix. The session count stays
//! low so broadcast dispatch does not dominate; the pool, admission
//! (`background_acquire`) and the device carry writes beside reads.

use crate::layers::{DeviceClock, TimedDevice, TimedPlanner};
use crate::report::{
    measure, median, ns_since, put_host_metrics, put_sim_latency, put_trace_overhead, ratio,
    Layers, Outcome, PassCore, Setup, SetupTimes,
};
use crate::Seeds;
use pioqo_bufpool::wal::{Wal, WalOp};
use pioqo_bufpool::{BufferPool, PoolStats};
use pioqo_core::Qdtt;
use pioqo_device::{CrashPlan, Crashable, DeviceModel, MediaStore};
use pioqo_exec::{
    recover, CpuConfig, CpuCosts, ExecError, MultiEngine, QuerySpec, RecoveryStats, SimContext,
    ThinkTime, WorkloadReport, WorkloadSpec, WriteConfig, WriteStats, WriteSystem,
};
use pioqo_optimizer::{AdmissionDecision, OptimizerConfig, QdttAdmission};
use pioqo_simkit::{SimDuration, SimRng, SimTime};
use pioqo_storage::{decode_heap_page, encode_heap_page, Extent, HeapTable, TableSpec, Tablespace};
use pioqo_workload::{calibrate, Experiment, ExperimentConfig};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Size {
    pub scan_rows: u64,
    pub buffer_frames: usize,
    /// Pool of the pressure run, smaller than the two tables together.
    pub pressure_frames: usize,
    pub sessions: u32,
    pub queries_per_session: u32,
    pub write_rows: u64,
    pub writers: u32,
    pub commits_per_writer: u32,
    pub crashes: u32,
}

impl Size {
    pub fn full() -> Size {
        Size {
            scan_rows: 100_000,
            // Holds the 3K-page scan table and the 1K-page write table. With
            // a pool smaller than the scan table, which pages the concurrent
            // scans share depends on their arrival order, and simulated
            // latency moves by tens of percent from seed to seed.
            buffer_frames: 4_096,
            pressure_frames: 3_072,
            sessions: 16,
            queries_per_session: 64,
            write_rows: 33_000,
            writers: 8,
            commits_per_writer: 64,
            crashes: 3,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            scan_rows: 20_000,
            buffer_frames: 256,
            pressure_frames: 128,
            sessions: 4,
            queries_per_session: 4,
            write_rows: 3_000,
            writers: 2,
            commits_per_writer: 8,
            crashes: 2,
        }
    }
}

const SELECTIVITIES: [f64; 3] = [0.0005, 0.002, 0.01];
const WAL_PAGES: u64 = 4_096;

struct Fixture {
    exp: Experiment,
    model: Qdtt,
    /// The write table and its WAL, in the dataset's slack pages.
    table: HeapTable,
    wal: Extent,
    /// Oracle answer per selectivity.
    oracle: Vec<(Option<u32>, u64)>,
}

fn setup(seeds: &Seeds, size: &Size) -> (Fixture, SetupTimes) {
    let started = Instant::now();
    let t = Instant::now();
    let exp = Experiment::build(ExperimentConfig {
        rows: size.scan_rows,
        buffer_frames: size.buffer_frames,
        seed: seeds.dataset,
        ..ExperimentConfig::by_name("E33-SSD").expect("Table 1 row")
    });
    let used = exp.dataset.index().extent().end();
    let mut ts = Tablespace::new(exp.dataset.device_capacity());
    ts.alloc("scan-data", used)
        .expect("mirror of the dataset layout fits");
    let spec = TableSpec {
        name: "W33".to_string(),
        ..TableSpec::paper_table(33, size.write_rows, seeds.dataset ^ 0x57AB)
    };
    let table = HeapTable::create(spec, &mut ts).expect("write table fits in the dataset slack");
    let wal = ts
        .alloc("wal", WAL_PAGES)
        .expect("WAL fits in the dataset slack");
    let build_ns = ns_since(t);
    let t = Instant::now();
    let model = calibrate(&exp).qdtt;
    let calibrate_ns = [0, ns_since(t), 0];
    let total_ns = ns_since(started);
    let oracle = SELECTIVITIES
        .iter()
        .map(|&s| (exp.dataset.oracle_max(s), exp.dataset.oracle_count(s)))
        .collect();
    (
        Fixture {
            exp,
            model,
            table,
            wal,
            oracle,
        },
        SetupTimes {
            total_ns,
            build_ns,
            calibrate_ns,
        },
    )
}

fn workload(seeds: &Seeds, size: &Size) -> WorkloadSpec {
    WorkloadSpec {
        sessions: size.sessions,
        queries_per_session: size.queries_per_session,
        think: ThinkTime::Exponential {
            mean: SimDuration::from_micros(2_000),
        },
        selectivities: SELECTIVITIES.to_vec(),
        seed: seeds.session,
        horizon: None,
        writes: None,
        shared_scans: false,
        record_limit: None,
    }
}

fn write_config(seeds: &Seeds, size: &Size) -> WriteConfig {
    WriteConfig {
        writers: size.writers,
        commits_per_writer: size.commits_per_writer,
        think: SimDuration::from_micros_f64(300.0),
        group_commit: SimDuration::from_micros_f64(150.0),
        flush_interval: SimDuration::from_micros_f64(500.0),
        flush_batch: 8,
        seed: seeds.write,
        ..WriteConfig::default()
    }
}

/// The write table's pages as they stand before the workload.
fn base_media(table: &HeapTable) -> MediaStore {
    let mut m = MediaStore::new(table.spec().page_size);
    for local in 0..table.n_pages() {
        m.write(table.device_page(local), &table.page_image(local));
    }
    m
}

/// Host time of one traced mix run.
#[derive(Debug, Default)]
struct MixTrace {
    wall_ns: u64,
    admission_calls: u64,
    admission_ns: u64,
    device: DeviceClock,
}

/// One run of the mix on a fresh device and a flushed pool of `frames`,
/// optionally crashing at `crash`. Returns the engine's result, the write
/// system and the device's crash report.
fn mix(
    fx: &Fixture,
    seeds: &Seeds,
    size: &Size,
    frames: usize,
    crash: Option<(SimTime, u64)>,
    trace: Option<&mut MixTrace>,
) -> (
    Result<WorkloadReport, ExecError>,
    WriteSystem,
    Vec<AdmissionDecision>,
    Option<pioqo_device::CrashReport>,
) {
    let started = Instant::now();
    let mut crashable =
        crash.map(|(at, seed)| Crashable::new(fx.exp.make_device(), CrashPlan::at(at, seed)));
    let mut plain = crash.is_none().then(|| fx.exp.make_device());
    let device: &mut dyn DeviceModel = match (crashable.as_mut(), plain.as_mut()) {
        (Some(c), _) => c,
        (None, Some(d)) => &mut **d,
        (None, None) => unreachable!("one of the two devices exists"),
    };
    let mut pool = BufferPool::new(frames);
    let table = fx.exp.dataset.table();
    let index = fx.exp.dataset.index();
    let mut planner = QdttAdmission::new(
        table,
        index,
        fx.model.clone(),
        OptimizerConfig::fine_grained(),
    );
    let base = QuerySpec::range_max(table, Some(index), 0, 0);
    let mut ws = WriteSystem::new(
        write_config(seeds, size),
        &fx.table,
        fx.wal,
        base_media(&fx.table),
    );
    let engine_spec = workload(seeds, size);
    let result = match trace {
        None => {
            let mut ctx = SimContext::new(
                device,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            MultiEngine::new(engine_spec, base, &mut planner).run_with_writes(&mut ctx, &mut ws)
        }
        Some(tr) => {
            let clock = Rc::new(DeviceClock::default());
            let mut timed_dev = TimedDevice::new(device, clock.clone());
            let mut timed = TimedPlanner::new(&mut planner);
            let mut ctx = SimContext::new(
                &mut timed_dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            let r =
                MultiEngine::new(engine_spec, base, &mut timed).run_with_writes(&mut ctx, &mut ws);
            tr.wall_ns = ns_since(started);
            tr.admission_calls = timed.calls;
            tr.admission_ns = timed.ns;
            drop(ctx);
            drop(timed_dev);
            tr.device = Rc::try_unwrap(clock).expect("the context is gone");
            r
        }
    };
    let report = crashable.and_then(|c| c.crash_report().cloned());
    (result, ws, planner.into_decisions(), report)
}

/// The durable-prefix oracle: replay the WAL prefix on `media` with an
/// interpreter of its own. Pages it never mentions keep their generated
/// image.
fn oracle_rows(fx: &Fixture, media: &MediaStore) -> (u64, BTreeMap<u64, Vec<(u32, u32)>>) {
    let spec = fx.table.spec();
    let scan = Wal::scan(fx.wal.base, fx.wal.pages, spec.page_size, |p| {
        media.read(p).map(<[u8]>::to_vec)
    });
    let mut rows: BTreeMap<u64, Vec<(u32, u32)>> = BTreeMap::new();
    for rec in &scan.records {
        match &rec.op {
            WalOp::PageImage { page, image } => {
                let p = decode_heap_page(spec, image).expect("logged image decodes");
                rows.insert(*page, p.rows);
            }
            WalOp::Update { page, slot, value } => {
                if let Some(r) = rows.get_mut(page) {
                    r[*slot as usize].0 = *value;
                }
            }
            WalOp::Checkpoint { .. } => {}
        }
    }
    (scan.durable_lsn, rows)
}

#[derive(Default)]
struct Pass {
    core: PassCore,
    recover_ms: Vec<f64>,
    sim_ms: Vec<f64>,
    makespan_s: f64,
    commit_p99_ms: f64,
    report: Option<WorkloadReport>,
    writes: Option<WriteStats>,
    /// Pool counters of both crash-free runs.
    pool: PoolStats,
    recovery: Vec<RecoveryStats>,
    decisions: Vec<AdmissionDecision>,
}

impl crate::report::Pass for Pass {
    fn core(&self) -> &PassCore {
        &self.core
    }

    fn trim(&mut self) {
        self.report = None;
        self.recovery.clear();
        self.decisions.clear();
        self.sim_ms.clear();
    }
}

fn check_records(p: &mut PassCore, fx: &Fixture, r: &WorkloadReport) {
    for rec in &r.records {
        p.digest.u64(u64::from(rec.session));
        p.digest.u64(u64::from(rec.query_index));
        p.digest.str(&rec.plan);
        p.digest.u64(rec.latency.as_nanos());
        p.digest.opt(rec.max_c1);
        p.digest.u64(rec.rows_matched);
        let want = SELECTIVITIES
            .iter()
            .position(|&s| s == rec.selectivity)
            .map(|i| fx.oracle[i]);
        if want != Some((rec.max_c1, rec.rows_matched)) {
            p.wrong.push(format!(
                "session {} query {} ({} at {}): got ({:?}, {}), oracle {want:?}",
                rec.session,
                rec.query_index,
                rec.plan,
                rec.selectivity,
                rec.max_c1,
                rec.rows_matched
            ));
        }
    }
}

/// A crash-free run of the mix: checks its answers and commit count and
/// folds them into the digest.
fn clean_run(
    p: &mut Pass,
    fx: &Fixture,
    seeds: &Seeds,
    size: &Size,
    frames: usize,
    traces: &mut Option<&mut Vec<MixTrace>>,
) -> Option<(WorkloadReport, WriteStats, Vec<AdmissionDecision>)> {
    let queries = u64::from(size.sessions) * u64::from(size.queries_per_session);
    let commits = u64::from(size.writers) * u64::from(size.commits_per_writer);
    let core = &mut p.core;
    core.attempted += queries + commits;
    let mut tr = traces.as_ref().map(|_| MixTrace::default());
    let (result, ws, decisions, _) = mix(fx, seeds, size, frames, None, tr.as_mut());
    if let (Some(all), Some(t)) = (traces.as_deref_mut(), tr) {
        all.push(t);
    }
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            core.digest.str(&e.to_string());
            core.failed += queries + commits;
            return None;
        }
    };
    let stats = ws.stats();
    if report.total_completed() != queries || stats.commits_acked != commits {
        core.wrong.push(format!(
            "crash-free run ({frames} frames) completed {} of {queries} queries and {} of {commits} commits",
            report.total_completed(),
            stats.commits_acked
        ));
    }
    check_records(core, fx, &report);
    core.digest.u64(report.makespan.as_nanos());
    core.digest.u64(stats.commits_acked);
    core.digest.u64(stats.wal_pages);
    core.digest.u64(stats.data_page_flushes);
    p.pool.merge(&report.pool);
    Some((report, stats, decisions))
}

/// The crash-free run, the only timed unit; a crash-free run under pool
/// pressure; and the crashes.
fn pass(fx: &Fixture, seeds: &Seeds, size: &Size, mut traces: Option<&mut Vec<MixTrace>>) -> Pass {
    let mut p = Pass::default();
    let started = Instant::now();
    let clean = clean_run(&mut p, fx, seeds, size, size.buffer_frames, &mut traces);
    p.core.unit_ns.push(ns_since(started));
    let Some((report, stats, decisions)) = clean else {
        return p;
    };
    p.core.ops = report.total_completed() + stats.commits_acked;
    // The same mix in a pool smaller than the two tables, so that dirty
    // frames, which cannot be evicted until the flusher writes them back,
    // crowd the scans' pages out. Only its counters are reported: its
    // simulated latency, and its host time (300 or 700 ms, by seed), depend
    // on the scans' arrival order too much to gate.
    clean_run(&mut p, fx, seeds, size, size.pressure_frames, &mut traces);
    p.sim_ms = report
        .records
        .iter()
        .map(|r| r.latency.as_micros_f64() / 1e3)
        .collect();
    p.makespan_s = report.makespan.as_secs_f64();
    p.commit_p99_ms = report.hists.commit_ack_us.quantile_lo(99, 100) as f64 / 1e3;
    let end = report.makespan;

    // Crashes at seeded instants inside the run, each followed by recovery.
    let mut rng = SimRng::derive(seeds.crash, 0);
    for _ in 0..size.crashes {
        let at = SimTime::ZERO + end * (0.1 + 0.8 * rng.unit());
        let tear_seed = rng.next_u64();
        let core = &mut p.core;
        core.attempted += 1;
        let mut tr = traces.as_ref().map(|_| MixTrace::default());
        let (result, mut ws, _, crash) = mix(
            fx,
            seeds,
            size,
            size.buffer_frames,
            Some((at, tear_seed)),
            tr.as_mut(),
        );
        if let (Some(all), Some(t)) = (traces.as_deref_mut(), tr) {
            all.push(t);
        }
        let Some(crash) = crash.filter(|_| matches!(result, Err(ExecError::Crashed))) else {
            core.wrong.push(format!(
                "crash at {at} did not halt the run: {:?}",
                result.err()
            ));
            continue;
        };
        ws.apply_crash(&crash, tear_seed);
        let acked = ws.acked_lsns().to_vec();
        let mut media = ws.into_media();
        let (durable, want) = oracle_rows(fx, &media);
        if let Some(lsn) = acked.iter().find(|&&l| l > durable) {
            core.wrong.push(format!(
                "crash at {at}: acked lsn {lsn} past durable lsn {durable}"
            ));
        }
        let t = Instant::now();
        let rec = recover(&mut media, fx.wal, fx.table.spec(), fx.table.extent());
        p.recover_ms.push(ns_since(t) as f64 / 1e6);
        if !rec.fully_recovered() || rec.durable_lsn != durable {
            core.wrong
                .push(format!("crash at {at}: recovery incomplete: {rec:?}"));
        }
        let spec = fx.table.spec();
        for local in 0..fx.table.n_pages() {
            let dp = fx.table.device_page(local);
            let expect = match want.get(&dp) {
                Some(rows) => encode_heap_page(spec, local, rows),
                None => fx.table.page_image(local),
            };
            if media.read(dp) != Some(&expect[..]) {
                core.wrong.push(format!(
                    "crash at {at}: page {dp} differs from the durable-prefix oracle"
                ));
                break;
            }
        }
        core.digest.u64(at.as_nanos());
        core.digest.u64(rec.durable_lsn);
        core.digest.u64(rec.records_replayed);
        core.digest.u64(rec.torn_pages_detected);
        p.recovery.push(rec);
    }
    p.report = Some(report);
    p.writes = Some(stats);
    p.decisions = decisions;
    p
}

pub fn run(seeds: &Seeds, size: &Size, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (fx, setup, passes) = measure(
        seconds,
        &mut out,
        || setup(seeds, size),
        |fx| pass(fx, seeds, size, None),
    );
    put_host_metrics(&mut out, &passes, &setup);
    let first = &passes[0];
    let m = &mut out.metrics;
    let n = first.sim_ms.len() as u64;
    m.put("sim_qps", ratio(n as f64, first.makespan_s), "1/sim_s", n);
    put_sim_latency(m, &first.sim_ms);
    let recover_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.recover_ms.iter().copied())
        .collect();
    m.put(
        "recover_ms_p50",
        median(&recover_ms),
        "ms",
        recover_ms.len() as u64,
    );
    let commits = first.writes.as_ref().map_or(0, |w| w.commits_acked);
    m.put("sim_commit_ms_p99", first.commit_p99_ms, "sim_ms", commits);

    if traced {
        let mut traces = Vec::new();
        let p = pass(&fx, seeds, size, Some(&mut traces));
        out.same_digest("traced pass", p.core.digest);
        out.wrong.extend(p.core.wrong.iter().cloned());
        put_trace_overhead(&mut out.metrics, &p, &passes);
        out.layers = Some(layers(&mut out.metrics, &p, &traces, &setup));
    }
    out
}

fn layers(m: &mut crate::report::Metrics, p: &Pass, traces: &[MixTrace], setup: &Setup) -> Layers {
    // The crash-free run is the first trace, the pressure run the second;
    // the crash runs follow.
    let recover_ns: u64 = (p.recover_ms.iter().sum::<f64>() * 1e6) as u64;
    let runs_ns: u64 = traces.iter().map(|t| t.wall_ns).sum();
    let wall_ns = runs_ns + recover_ns;
    let clean = traces.first();
    let device = DeviceClock::default();
    if let Some(t) = clean {
        device.merge(&t.device);
    }
    let clean_wall = clean.map_or(0, |t| t.wall_ns);
    let (depth, lat, ops) = p.report.as_ref().map_or((0.0, 0.0, 0), |r| {
        (r.io.mean_queue_depth, r.io.mean_latency_us, r.io.io_ops)
    });
    crate::put_device_layers(m, &device, clean_wall, depth, lat, ops);
    crate::put_pool_layers(m, &p.pool);
    let (adm_calls, adm_ns) = clean.map_or((0, 0), |t| (t.admission_calls, t.admission_ns));
    m.put(
        "optimizer.admission.calls.unshared",
        adm_calls as f64,
        "count",
        adm_calls,
    );
    m.put(
        "optimizer.admission.us_per_call.unshared",
        ratio(adm_ns as f64 / 1e3, adm_calls as f64),
        "us",
        adm_calls,
    );
    m.put(
        "optimizer.admission.share",
        ratio(adm_ns as f64, clean_wall as f64),
        "ratio",
        1,
    );
    let leased: Vec<f64> = p
        .decisions
        .iter()
        .map(|d| f64::from(d.lease_depth))
        .collect();
    m.put(
        "optimizer.admission.lease_depth_mean",
        crate::report::mean(&leased),
        "requests",
        leased.len() as u64,
    );
    let completed = p.report.as_ref().map_or(0, |r| r.total_completed());
    let dev_ns = device.ns.get();
    let residual = clean_wall.saturating_sub(adm_ns + dev_ns);
    m.put(
        "exec.session.residual_us_per_query.unshared",
        ratio(residual as f64 / 1e3, completed as f64),
        "us",
        completed,
    );
    if let (Some(w), Some(r)) = (&p.writes, &p.report) {
        m.put(
            "exec.write.commits_acked",
            w.commits_acked as f64,
            "count",
            w.commits_acked,
        );
        m.put(
            "exec.write.wal_pages",
            w.wal_pages as f64,
            "count",
            w.commits_acked,
        );
        m.put(
            "exec.write.data_page_flushes",
            w.data_page_flushes as f64,
            "count",
            w.commits_acked,
        );
        m.put(
            "exec.write.pages_written_per_update",
            ratio(r.io.pages_written as f64, w.updates_applied as f64),
            "ratio",
            w.updates_applied,
        );
    }
    let calls = p.recovery.len() as u64;
    m.put(
        "exec.recovery.ms_per_call",
        ratio(recover_ns as f64 / 1e6, calls as f64),
        "ms",
        calls,
    );
    let replayed: u64 = p.recovery.iter().map(|r| r.records_replayed).sum();
    m.put(
        "exec.recovery.records_replayed",
        replayed as f64,
        "count",
        calls,
    );
    let torn: u64 = p.recovery.iter().map(|r| r.torn_pages_detected).sum();
    m.put(
        "exec.recovery.torn_pages_detected",
        torn as f64,
        "count",
        calls,
    );

    let mut l = Layers {
        wall_ns,
        ..Layers::default()
    };
    crate::put_setup_layers(m, &mut l, "write_mix", setup);
    l.spans
        .push_str("run,wall_ns,admission_ns,device_ns,residual_ns\n");
    for (i, t) in traces.iter().enumerate() {
        let dev = t.device.ns.get();
        let residual = t.wall_ns.saturating_sub(t.admission_ns + dev);
        let run = ["mix.clean", "mix.pressure"].get(i).unwrap_or(&"mix.crash");
        l.add(
            "optimizer.admission",
            t.admission_calls,
            t.admission_ns,
            t.admission_ns,
        );
        l.add("device", t.device.calls.get(), dev, dev);
        l.add("exec.session", 1, residual, residual);
        l.stack(
            format!("write_mix;{run};optimizer.admission"),
            t.admission_ns,
        );
        l.stack(format!("write_mix;{run};device"), dev);
        l.stack(format!("write_mix;{run}"), residual);
        l.spans.push_str(&format!(
            "{run},{},{},{dev},{residual}\n",
            t.wall_ns, t.admission_ns
        ));
    }
    l.add("exec.recovery", calls, recover_ns, recover_ns);
    l.stack("write_mix;exec.recovery".to_string(), recover_ns);
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With the wrappers in place the mix, its run under pool pressure, its
    /// crash and its crash report are unchanged.
    #[test]
    fn wrappers_are_pass_through_with_writes_and_crashes() {
        let seeds = Seeds::new(5);
        let size = Size::tiny();
        let (fx, _) = setup(&seeds, &size);
        let (plain, _, _, _) = mix(&fx, &seeds, &size, size.buffer_frames, None, None);
        let end = plain.as_ref().expect("clean device").makespan;
        let at = SimTime::ZERO + end * 0.5;
        for (frames, crash) in [
            (size.buffer_frames, None),
            (size.pressure_frames, None),
            (size.buffer_frames, Some((at, 3))),
        ] {
            let (a, ws_a, dec_a, rep_a) = mix(&fx, &seeds, &size, frames, crash, None);
            let mut tr = MixTrace::default();
            let (b, ws_b, dec_b, rep_b) = mix(&fx, &seeds, &size, frames, crash, Some(&mut tr));
            assert_eq!(
                format!("{:?}", a.map(|r| r.to_json())),
                format!("{:?}", b.map(|r| r.to_json()))
            );
            assert_eq!(ws_a.stats(), ws_b.stats());
            assert_eq!(ws_a.acked_lsns(), ws_b.acked_lsns());
            assert_eq!(format!("{dec_a:?}"), format!("{dec_b:?}"));
            assert_eq!(format!("{rep_a:?}"), format!("{rep_b:?}"));
            assert!(tr.admission_calls > 0 && tr.device.calls.get() > 0);
        }
    }
}
