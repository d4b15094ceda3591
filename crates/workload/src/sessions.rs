//! Session-scale study: how far the closed-loop session count can grow
//! before the engine (not the simulated machine) becomes the bottleneck.
//!
//! The concurrency grid ([`crate::concurrent`]) stops at 16 sessions —
//! enough to show plan choice shifting under queue-depth leases. This
//! module pushes the same machinery to 1K/10K/100K sessions running an
//! *overlapping-scan* workload (every query is a selectivity-0.4 range
//! MAX, i.e. a table scan), and compares two execution modes on identical
//! specs:
//!
//! * **unshared** — every admitted query runs its own (P)FTS cursor;
//! * **shared** — queries ride the cooperative [`pioqo_exec::ScanHub`]
//!   cursor, admitted at marginal cost by `QdttAdmission::admit_shared`.
//!
//! Answers are byte-identical either way (the tests assert it); what
//! changes is the simulated device traffic and, dominantly, the harness
//! wall-clock — one circular cursor replaces N interleaved scan drivers.
//! Virtual-time throughput and tail latency land in
//! [`SessionScaleCell`]; wall-clock throughput is measured by the bench
//! binary, which re-runs single cells under a timer (this crate stays
//! wall-clock-free so results remain byte-deterministic).

use crate::concurrent::run_cell;
use crate::experiments::{DeviceKind, Experiment, ExperimentConfig};
use crate::opteval::calibrate;
use pioqo_core::Qdtt;
use pioqo_exec::{ExecError, ThinkTime, WorkloadSpec};
use pioqo_optimizer::OptimizerConfig;
use pioqo_simkit::par::par_map_threads;
use pioqo_simkit::SimDuration;
use serde::{Deserialize, Serialize};

/// Configuration of the session-scale sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionScaleConfig {
    /// Rows in the shared table (kept small: the point is session count,
    /// not table size).
    pub rows: u64,
    /// Rows per page.
    pub rows_per_page: u32,
    /// Buffer pool frames shared by all sessions.
    pub buffer_frames: usize,
    /// Session counts to sweep.
    pub session_counts: Vec<u32>,
    /// Queries each session issues.
    pub queries_per_session: u32,
    /// The single (scan-friendly) selectivity every query uses.
    pub selectivity: f64,
    /// Mean exponential think time between a session's queries, µs.
    pub think_mean_us: u64,
    /// Per-query record cap in the report ([`WorkloadSpec::record_limit`]);
    /// at 100K sessions the full record vector dominates memory.
    pub record_limit: Option<u64>,
    /// Largest session count that still runs an *unshared* cell. Each
    /// completion reaches only the drivers that own it, but every
    /// unshared scan is runnable on the CPU scheduler at once, and its
    /// processor-sharing step is linear in runnable tasks; the 10K
    /// baseline takes about 36 s of harness time (1K: 0.4 s). `None`
    /// removes the cap.
    pub unshared_cap: Option<u32>,
    /// Master seed.
    pub seed: u64,
}

impl Default for SessionScaleConfig {
    fn default() -> SessionScaleConfig {
        SessionScaleConfig {
            rows: 9_900,
            rows_per_page: 33,
            // Smaller than the 300-page table on purpose: a pool that
            // swallows the whole table turns every plan into cached CPU
            // and there is nothing left to share.
            buffer_frames: 128,
            session_counts: vec![1_000, 10_000, 100_000],
            queries_per_session: 1,
            selectivity: 0.4,
            think_mean_us: 2_000,
            record_limit: Some(10_000),
            unshared_cap: Some(1_000),
            seed: 42,
        }
    }
}

impl SessionScaleConfig {
    /// The experiment fixture (SSD — the device where shared scans earn
    /// their keep; a spindle serializes everything anyway).
    pub fn experiment(&self) -> ExperimentConfig {
        ExperimentConfig {
            name: format!("S{}-SSD", self.rows_per_page),
            table: format!("T{}", self.rows_per_page),
            rows_per_page: self.rows_per_page,
            rows: self.rows,
            device: DeviceKind::Ssd,
            buffer_frames: self.buffer_frames,
            seed: self.seed,
        }
    }

    /// The workload spec for one cell.
    pub fn workload(&self, sessions: u32, shared: bool) -> WorkloadSpec {
        WorkloadSpec {
            sessions,
            queries_per_session: self.queries_per_session,
            think: ThinkTime::Exponential {
                mean: SimDuration::from_micros(self.think_mean_us),
            },
            selectivities: vec![self.selectivity],
            seed: self.seed,
            horizon: None,
            writes: None,
            shared_scans: shared,
            record_limit: self.record_limit,
        }
    }
}

/// One (session count, execution mode) point of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionScaleCell {
    /// Concurrent sessions.
    pub sessions: u32,
    /// Whether queries rode the shared-scan cursor.
    pub shared: bool,
    /// Queries completed across all sessions.
    pub completed: u64,
    /// First admission to last completion, milliseconds of virtual time.
    pub makespan_ms: f64,
    /// Mean query latency, µs.
    pub mean_latency_us: f64,
    /// 99th-percentile query latency bucket, µs.
    pub p99_latency_us: u64,
    /// Max/min completed-query ratio across sessions.
    pub fairness: f64,
    /// Consumers that attached to a shared cursor.
    pub attaches: u64,
    /// Shared cursors started (device streams paid for).
    pub cursor_starts: u64,
    /// `attaches / completed`.
    pub attach_rate: f64,
    /// Completed queries per second of *virtual* time.
    pub queries_per_sim_s: f64,
}

impl SessionScaleCell {
    /// CSV header matching [`SessionScaleCell::csv_row`].
    pub fn csv_header() -> &'static str {
        "sessions,shared,completed,makespan_ms,mean_latency_us,p99_latency_us,\
         fairness,attaches,cursor_starts,attach_rate,queries_per_sim_s"
    }

    /// One CSV row.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.3},{:.1},{},{:.3},{},{},{:.4},{:.1}",
            self.sessions,
            self.shared,
            self.completed,
            self.makespan_ms,
            self.mean_latency_us,
            self.p99_latency_us,
            self.fairness,
            self.attaches,
            self.cursor_starts,
            self.attach_rate,
            self.queries_per_sim_s,
        )
    }
}

/// Build the sweep's fixture once: dataset plus the calibrated QDTT model
/// every cell shares (calibration is deterministic per seed, so sharing it
/// changes nothing except wall-clock).
pub fn session_scale_fixture(cfg: &SessionScaleConfig) -> (Experiment, Qdtt) {
    let exp = Experiment::build(cfg.experiment());
    let model = calibrate(&exp).qdtt;
    (exp, model)
}

/// Run one cell on a fresh device and flushed pool.
pub fn session_scale_cell(
    exp: &Experiment,
    model: &Qdtt,
    cfg: &SessionScaleConfig,
    sessions: u32,
    shared: bool,
) -> Result<SessionScaleCell, ExecError> {
    let opt_cfg = OptimizerConfig::fine_grained();
    let (report, _admissions) = run_cell(exp, model, &opt_cfg, cfg.workload(sessions, shared))?;
    let makespan_s = report.makespan.as_micros_f64() / 1_000_000.0;
    Ok(SessionScaleCell {
        sessions,
        shared,
        completed: report.total_completed(),
        makespan_ms: report.makespan.as_micros_f64() / 1_000.0,
        mean_latency_us: report.query_latency_us.mean(),
        p99_latency_us: report.p99_latency_us,
        fairness: report.fairness_ratio(),
        attaches: report.shared.attaches,
        cursor_starts: report.shared.cursor_starts,
        attach_rate: report.shared_attach_rate(),
        queries_per_sim_s: if makespan_s > 0.0 {
            report.total_completed() as f64 / makespan_s
        } else {
            0.0
        },
    })
}

/// Sweep `session_counts` × {unshared, shared}. Cells fan out over
/// `threads` harness workers; output is byte-identical for any thread
/// count, including 1.
pub fn session_scale_sweep(
    cfg: &SessionScaleConfig,
    threads: usize,
) -> Result<Vec<SessionScaleCell>, ExecError> {
    let fixture = session_scale_fixture(cfg);
    let mut cells: Vec<(u32, bool)> = Vec::new();
    for &s in &cfg.session_counts {
        if cfg.unshared_cap.is_none_or(|cap| s <= cap) {
            cells.push((s, false));
        }
        cells.push((s, true));
    }
    let results = par_map_threads(
        threads,
        cfg.seed ^ 0x5E55,
        &cells,
        |_rng, &(sessions, shared)| {
            session_scale_cell(&fixture.0, &fixture.1, cfg, sessions, shared)
        },
    );
    results.into_iter().collect()
}

/// Render sweep rows as the `repro --session-scale` CSV.
pub fn session_scale_csv(cells: &[SessionScaleCell]) -> String {
    let mut out = String::from(SessionScaleCell::csv_header());
    out.push('\n');
    for cell in cells {
        out.push_str(&cell.csv_row());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SessionScaleConfig {
        SessionScaleConfig {
            rows: 3_300,
            buffer_frames: 48,
            session_counts: vec![64],
            ..SessionScaleConfig::default()
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant_and_repeatable() {
        let cfg = tiny();
        let a = session_scale_sweep(&cfg, 1).expect("threads=1");
        let b = session_scale_sweep(&cfg, 4).expect("threads=4");
        let c = session_scale_sweep(&cfg, 1).expect("rerun");
        assert_eq!(session_scale_csv(&a), session_scale_csv(&b));
        assert_eq!(session_scale_csv(&a), session_scale_csv(&c));
    }

    #[test]
    fn shared_cells_attach_and_answer_like_unshared() {
        let cfg = tiny();
        let cells = session_scale_sweep(&cfg, 2).expect("sweep");
        assert_eq!(cells.len(), 2);
        let unshared = &cells[0];
        let shared = &cells[1];
        assert!(!unshared.shared);
        assert!(shared.shared);
        assert_eq!(unshared.completed, 64);
        assert_eq!(shared.completed, 64);
        assert_eq!(unshared.attaches, 0);
        assert!(
            shared.attach_rate > 0.9,
            "an all-scan workload should attach nearly always: {}",
            shared.attach_rate
        );
        assert!(
            shared.cursor_starts < shared.attaches,
            "cursors must be shared: {} starts for {} attaches",
            shared.cursor_starts,
            shared.attaches
        );
    }
}
