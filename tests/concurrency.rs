//! Concurrent-engine regression suite: the 8-session workload must be
//! byte-identical across double runs and across harness thread counts,
//! closed-loop sessions must share the device fairly, every answer must
//! still match the oracle, and admission control must actually shrink
//! queue-depth leases (and with them plan choice) as concurrency rises.
//!
//! The second half covers cooperative shared scans: the session-scale
//! sweep must be byte-identical and fair at 1K/10K sessions, flipping
//! `shared_scans` must change no answer, the admission journal must
//! charge exactly one queue-depth lease per shared cursor, and the
//! [`ScanHub`] itself must survive property-tested late joins (wrap
//! around the table end) and mid-lap detach/reattach.

use pioqo::exec::{Event, QueryAnswer, QueryRecord, ScanHub};
use pioqo::prelude::*;
use pioqo::simkit::par::par_map_threads;
use pioqo::storage::range_for_selectivity;
use pioqo::workload::{
    calibrate, concurrency_grid, grid_csv, run_cell, session_export, session_scale_csv,
    session_scale_fixture, session_scale_sweep, ConcurrencyConfig, SessionScaleConfig,
};
use proptest::prelude::*;

/// A grid config small enough for debug-build CI.
fn tiny() -> ConcurrencyConfig {
    ConcurrencyConfig {
        rows: 8_000,
        session_counts: vec![1, 8],
        queries_per_session: 2,
        selectivities: vec![0.01],
        ..ConcurrencyConfig::default()
    }
}

#[test]
fn eight_session_export_is_byte_identical_across_double_runs() {
    let a = session_export(42).expect("first export runs");
    let b = session_export(42).expect("second export runs");
    assert_eq!(
        a.report_json, b.report_json,
        "workload report must survive a double run"
    );
    assert_eq!(
        a.chrome_json, b.chrome_json,
        "per-session Chrome trace must survive a double run"
    );
    let aj = serde_json::to_string(&a.admissions).expect("admissions serialize");
    let bj = serde_json::to_string(&b.admissions).expect("admissions serialize");
    assert_eq!(aj, bj, "admission journal must survive a double run");
}

#[test]
fn grid_with_eight_sessions_is_identical_across_thread_counts() {
    // `threads` is the harness fan-out knob (the `--threads` flag / the
    // PIOQO_THREADS variable): the engine itself is a serial event loop,
    // so the grid — 8-session cell included — must not move at all.
    let cfg = tiny();
    let opt = OptimizerConfig::fine_grained();
    let devices = [DeviceKind::Ssd];
    let t1 = concurrency_grid(&devices, &cfg, &opt, 1).expect("threads=1");
    let t4 = concurrency_grid(&devices, &cfg, &opt, 4).expect("threads=4");
    let again = concurrency_grid(&devices, &cfg, &opt, 4).expect("rerun");
    assert_eq!(
        grid_csv(&t1),
        grid_csv(&t4),
        "grid must not depend on the harness thread count"
    );
    assert_eq!(grid_csv(&t4), grid_csv(&again), "grid must survive a rerun");
}

#[test]
fn sessions_complete_fairly_under_a_truncating_horizon() {
    // A horizon makes per-session completion counts diverge — that spread
    // must stay bounded: the shared event loop and the admission budget
    // may not starve any session.
    let cfg = tiny();
    let exp = Experiment::build(cfg.experiment(DeviceKind::Ssd));
    let model = calibrate(&exp).qdtt;
    let mut spec = cfg.workload(8);
    spec.queries_per_session = 16;
    spec.horizon = Some(SimDuration::from_micros(15_000));
    let (report, _) =
        run_cell(&exp, &model, &OptimizerConfig::fine_grained(), spec).expect("cell runs");
    assert!(
        report.total_completed() < 8 * 16,
        "horizon must actually truncate the workload"
    );
    for s in &report.per_session {
        assert!(
            s.completed >= 1,
            "session {} starved: every session's t=0 query must complete",
            s.session
        );
    }
    let fairness = report.fairness_ratio();
    assert!(
        fairness.is_finite() && (1.0..=16.0).contains(&fairness),
        "unbounded completion spread across sessions: {fairness}"
    );
}

#[test]
fn every_concurrent_answer_matches_the_oracle() {
    let cfg = tiny();
    let exp = Experiment::build(cfg.experiment(DeviceKind::Ssd));
    let model = calibrate(&exp).qdtt;
    let (report, _) = run_cell(
        &exp,
        &model,
        &OptimizerConfig::fine_grained(),
        cfg.workload(8),
    )
    .expect("cell runs");
    assert_eq!(report.total_completed(), 16);
    for r in &report.records {
        let (lo, hi) = range_for_selectivity(r.selectivity, exp.dataset.c2_max());
        assert_eq!(
            r.max_c1,
            exp.dataset.table().data().naive_max_c1(lo, hi),
            "session {} query {} returned a wrong MAX under concurrency",
            r.session,
            r.query_index
        );
    }
}

#[test]
fn admission_leases_shrink_through_the_db_facade() {
    // The same shift, exercised end to end through the public API: more
    // sessions → smaller queue-depth leases at admission.
    let mean_lease = |sessions: u32| {
        let mut db = Db::builder().storage(StorageKind::Ssd).rows(8_000).build();
        let out = db
            .run_workload(WorkloadSpec {
                sessions,
                queries_per_session: 2,
                selectivities: vec![0.01],
                ..WorkloadSpec::default()
            })
            .expect("workload runs");
        assert_eq!(out.report.total_completed(), sessions as u64 * 2);
        let n = out.admissions.len().max(1) as f64;
        out.admissions
            .iter()
            .map(|a| a.lease_depth as f64)
            .sum::<f64>()
            / n
    };
    let solo = mean_lease(1);
    let crowded = mean_lease(8);
    assert!(
        crowded < solo,
        "admission must shrink leases under concurrency: {solo} vs {crowded}"
    );
}

/// A session-scale config small enough for debug-build CI: a 100-page
/// table behind a 48-frame pool (scans stay I/O-bound, so sharing is
/// actually chosen), one scan query per session.
fn scale_cfg() -> SessionScaleConfig {
    SessionScaleConfig {
        rows: 3_300,
        buffer_frames: 48,
        session_counts: vec![1_000, 10_000],
        ..SessionScaleConfig::default()
    }
}

#[test]
fn session_scale_sweep_is_byte_identical_and_fair_at_1k_and_10k() {
    let cfg = scale_cfg();
    let t1 = session_scale_sweep(&cfg, 1).expect("threads=1");
    let t4 = session_scale_sweep(&cfg, 4).expect("threads=4");
    assert_eq!(
        session_scale_csv(&t1),
        session_scale_csv(&t4),
        "session-scale sweep must not depend on the harness thread count"
    );
    // 1K runs both modes; 10K is shared-only (the unshared baseline is
    // capped by `SessionScaleConfig::unshared_cap`).
    assert_eq!(t1.len(), 3);
    for c in &t1 {
        assert_eq!(
            c.completed, c.sessions as u64,
            "every session's single query must complete at {} sessions",
            c.sessions
        );
        assert_eq!(
            c.fairness, 1.0,
            "one query per session leaves no room for unfairness"
        );
    }
    let shared_10k = &t1[2];
    assert!(shared_10k.shared && shared_10k.sessions == 10_000);
    assert!(
        shared_10k.attach_rate > 0.9,
        "overlapping scans at 10K sessions should ride the shared cursor: {}",
        shared_10k.attach_rate
    );
}

#[test]
fn unshared_completions_reach_only_their_owners_at_any_thread_count() {
    // Every completion goes to the drivers that own it, so driver
    // callbacks track events one for one (a deduplicated read shared by
    // several scans adds one per extra owner). Broadcasting each event to
    // all ~200 running drivers would put the ratio near 200.
    let cfg = scale_cfg();
    let (exp, model) = session_scale_fixture(&cfg);
    let opt = OptimizerConfig::fine_grained();
    let seeds = [42u64, 987_654];
    let run = |threads: usize| {
        par_map_threads(threads, 7, &seeds, |_rng, &seed| {
            let spec = WorkloadSpec {
                seed,
                ..cfg.workload(200, false)
            };
            let (report, decisions) = run_cell(&exp, &model, &opt, spec).expect("cell runs");
            let decisions = serde_json::to_string(&decisions).expect("journal serializes");
            (report, decisions)
        })
    };
    let t1 = run(1);
    let t4 = run(4);
    for ((a, da), (b, db)) in t1.iter().zip(&t4) {
        assert_eq!(a.to_json(), b.to_json(), "report moved with --threads");
        assert_eq!(da, db, "admission journal moved with --threads");
        assert_eq!(a.total_completed(), 200);
        assert!(a.events_dispatched > 0 && a.driver_callbacks > 0);
        let per_event = a.driver_callbacks as f64 / a.events_dispatched as f64;
        assert!(
            per_event <= 1.5,
            "seed {}: {} callbacks for {} events ({per_event:.2} per event)",
            a.spec.seed,
            a.driver_callbacks,
            a.events_dispatched
        );
    }
}

/// The `Db`-facade fixture for the shared-scan tests: `buffer_mb(0)`
/// clamps the pool to its 64-frame floor, well under the 243-page table,
/// so selectivity-0.4 queries stay scans instead of cached index probes.
fn shared_db() -> Db {
    Db::builder()
        .storage(StorageKind::Ssd)
        .rows(8_000)
        .buffer_mb(0)
        .seed(7)
        .build()
}

fn shared_spec(shared: bool) -> WorkloadSpec {
    WorkloadSpec {
        sessions: 32,
        queries_per_session: 2,
        selectivities: vec![0.4],
        shared_scans: shared,
        ..WorkloadSpec::default()
    }
}

#[test]
fn flipping_shared_scans_changes_no_answer() {
    let answers = |shared: bool| -> Vec<(u32, u32, Option<u32>, u64)> {
        let out = shared_db()
            .run_workload(shared_spec(shared))
            .expect("workload runs");
        assert_eq!(out.report.total_completed(), 64);
        if shared {
            assert!(
                out.report.shared.attaches > 0,
                "the shared run must actually share"
            );
        }
        // Completion order differs between modes (the hub completes whole
        // laps at once); the per-query answers may not.
        let mut keyed: Vec<(u32, u32, Option<u32>, u64)> = out
            .report
            .records
            .iter()
            .map(|r: &QueryRecord| (r.session, r.query_index, r.max_c1, r.rows_matched))
            .collect();
        keyed.sort_unstable();
        keyed
    };
    assert_eq!(
        answers(false),
        answers(true),
        "sharing may change the cursor, never the answers"
    );
}

#[test]
fn shared_cursor_is_charged_exactly_one_lease() {
    let out = shared_db()
        .run_workload(shared_spec(true))
        .expect("workload runs");
    let shared = &out.report.shared;
    assert!(shared.attaches > 0, "workload must exercise the hub");
    assert!(shared.cursor_starts >= 1);
    assert!(
        shared.cursor_starts < shared.attaches,
        "cursors must be shared: {} starts for {} attaches",
        shared.cursor_starts,
        shared.attaches
    );
    // The journal's invariant: the device stream is paid for once per
    // cursor start, and attached consumers ride it lease-free.
    assert_eq!(
        out.cursor_leases.len() as u64,
        shared.cursor_starts,
        "exactly one queue-depth lease per cursor start"
    );
    for depth in &out.cursor_leases {
        assert!(*depth >= 1, "a cursor lease must grant positive depth");
    }
    let attached: Vec<_> = out.admissions.iter().filter(|a| a.attached).collect();
    assert_eq!(
        attached.len() as u64,
        shared.attaches,
        "every hub attach must come from an attached admission decision"
    );
    for a in attached {
        assert_eq!(a.lease_depth, 0, "attached queries must not hold a lease");
        assert_eq!(a.queue_depth, 0);
        assert_eq!(a.plan, "FTS+shared");
    }
}

// ---------------------------------------------------------------------
// ScanHub property tests: drive the hub directly on a SimContext.
// ---------------------------------------------------------------------

/// A 30-page table behind a 16-frame pool on a simulated SSD.
fn hub_experiment() -> Experiment {
    Experiment::build(ExperimentConfig {
        name: "HUB-SSD".to_string(),
        table: "T33".to_string(),
        rows_per_page: 33,
        rows: 990,
        device: DeviceKind::Ssd,
        buffer_frames: 16,
        seed: 9,
    })
}

/// Land a successful read's pages in the pool, as the engine's event loop
/// does before handing the event to the hub.
fn admit_pages(ctx: &mut SimContext<'_>, ev: &Event) {
    match *ev {
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
}

/// Step the simulation until the hub goes idle, draining completions.
fn drain_hub(
    ctx: &mut SimContext<'_>,
    hub: &mut ScanHub<'_>,
    done: &mut Vec<(u32, QueryAnswer)>,
) -> Result<(), TestCaseError> {
    let mut events = Vec::new();
    while hub.is_active() {
        events.clear();
        prop_assert!(ctx.step(&mut events), "hub stalled with consumers live");
        for &ev in &events {
            admit_pages(ctx, &ev);
            hub.on_event(ctx, &ev).expect("hub event");
        }
        hub.take_completions(done);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A consumer that attaches mid-stream starts mid-table, wraps at the
    /// end, and still aggregates every page exactly once: its answer (max
    /// AND match count — a double-delivered page would inflate the count)
    /// equals the oracle, for any attach offset and predicate pair.
    #[test]
    fn late_joiner_wraps_and_answers_the_oracle(
        k in 0u32..70,
        sel_a in 0.05f64..1.0,
        sel_b in 0.05f64..1.0,
    ) {
        let exp = hub_experiment();
        let data = exp.dataset.table().data();
        let c2_max = exp.dataset.c2_max();
        let (lo_a, hi_a) = range_for_selectivity(sel_a, c2_max);
        let (lo_b, hi_b) = range_for_selectivity(sel_b, c2_max);
        let mut device = exp.make_device();
        let mut pool = exp.make_pool();
        let mut ctx = SimContext::new(
            device.as_mut(),
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let mut hub = ScanHub::new(exp.dataset.table(), 4);
        hub.set_window(2);
        let mut done: Vec<(u32, QueryAnswer)> = Vec::new();
        let mut events = Vec::new();

        let slot_a = hub.attach(&mut ctx, lo_a, hi_a);
        // Advance the stream k evaluation completions so the second
        // consumer attaches mid-lap (k past one lap: it never attaches —
        // the cursor went idle — which is also a valid outcome).
        let mut cpu_seen = 0u32;
        while cpu_seen < k && hub.is_active() {
            events.clear();
            prop_assert!(ctx.step(&mut events), "hub stalled");
            for &ev in &events {
                admit_pages(&mut ctx, &ev);
                let was_cpu = matches!(ev, Event::Cpu(_));
                if hub.on_event(&mut ctx, &ev).expect("hub event") && was_cpu {
                    cpu_seen += 1;
                }
            }
            hub.take_completions(&mut done);
        }
        let slot_b = hub
            .is_active()
            .then(|| hub.attach(&mut ctx, lo_b, hi_b));
        drain_hub(&mut ctx, &mut hub, &mut done)?;

        let a = done.iter().find(|(s, _)| *s == slot_a).expect("A completes");
        prop_assert_eq!(a.1.max_c1, data.naive_max_c1(lo_a, hi_a));
        prop_assert_eq!(a.1.rows_matched, data.count_matching(lo_a, hi_a));
        if let Some(slot_b) = slot_b {
            let b = done
                .iter()
                .find(|(s, _)| *s == slot_b)
                .expect("late joiner completes");
            prop_assert_eq!(b.1.max_c1, data.naive_max_c1(lo_b, hi_b));
            prop_assert_eq!(b.1.rows_matched, data.count_matching(lo_b, hi_b));
            prop_assert_eq!(b.1.rows_examined, data.rows());
        }
    }

    /// Detaching a consumer mid-lap hands back a partial whose immediate
    /// reattach resumes the lap: the recombined answer equals the oracle
    /// and covers every row exactly once, for any detach point.
    #[test]
    fn detach_midlap_then_reattach_answers_the_oracle(
        k in 1u32..25,
        sel in 0.05f64..1.0,
    ) {
        let exp = hub_experiment();
        let data = exp.dataset.table().data();
        let c2_max = exp.dataset.c2_max();
        let (lo, hi) = range_for_selectivity(sel, c2_max);
        let mut device = exp.make_device();
        let mut pool = exp.make_pool();
        let mut ctx = SimContext::new(
            device.as_mut(),
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        // Single-page blocks and a one-block window: the evaluation
        // frontier advances one page per CPU completion and catches up
        // with the scheduling frontier between blocks, giving a reattach
        // point after every page.
        let mut hub = ScanHub::new(exp.dataset.table(), 1);
        hub.set_window(1);
        let mut done: Vec<(u32, QueryAnswer)> = Vec::new();

        // A full-range keeper rides the whole lap so the cursor never
        // goes idle while the target consumer is detached.
        let keeper = hub.attach(&mut ctx, 0, c2_max);
        let target = hub.attach(&mut ctx, lo, hi);

        // Advance exactly k page evaluations (k < 30 pages: both laps are
        // still unfinished), stashing the tail of the final event batch.
        let mut pending: Vec<Event> = Vec::new();
        let mut events = Vec::new();
        let mut cpu_seen = 0u32;
        'advance: loop {
            events.clear();
            prop_assert!(ctx.step(&mut events), "hub stalled");
            for i in 0..events.len() {
                let ev = events[i];
                admit_pages(&mut ctx, &ev);
                let was_cpu = matches!(ev, Event::Cpu(_));
                if hub.on_event(&mut ctx, &ev).expect("hub event") && was_cpu {
                    cpu_seen += 1;
                    if cpu_seen == k {
                        pending.extend_from_slice(&events[i + 1..]);
                        break 'advance;
                    }
                }
            }
        }

        let det = hub
            .detach(&mut ctx, target)
            .expect("target is still mid-lap");
        prop_assert_eq!(det.pages_seen, k as u64);
        prop_assert!(det.pages_left > 0);
        // The frontier has not moved since the detach, so the stream is
        // exactly at the partial's resume page.
        let target2 = match hub.reattach(&mut ctx, det) {
            Ok(slot) => slot,
            Err(det) => {
                return Err(TestCaseError::fail(format!(
                    "reattach at the detach point must succeed: {det:?}"
                )))
            }
        };
        for ev in pending {
            admit_pages(&mut ctx, &ev);
            hub.on_event(&mut ctx, &ev).expect("hub event");
        }
        drain_hub(&mut ctx, &mut hub, &mut done)?;

        let t = done
            .iter()
            .find(|(s, _)| *s == target2)
            .expect("reattached consumer completes");
        prop_assert_eq!(t.1.max_c1, data.naive_max_c1(lo, hi));
        prop_assert_eq!(t.1.rows_matched, data.count_matching(lo, hi));
        prop_assert_eq!(
            t.1.rows_examined,
            data.rows(),
            "partial + residual must cover every row exactly once"
        );
        let kp = done.iter().find(|(s, _)| *s == keeper).expect("keeper completes");
        prop_assert_eq!(kp.1.max_c1, data.naive_max_c1(0, c2_max));
    }
}
