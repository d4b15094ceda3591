//! Cooperative shared scans: one circular PFTS cursor, many consumers.
//!
//! [`ScanHub`] is the push-based storage-manager idea (one in-flight scan
//! per table, consumers attach to the stream) specialised to this
//! engine's range-MAX queries. A single circular cursor streams the heap
//! in block-sized submissions; every admitted consumer attaches at the
//! cursor's current position, rides the stream for exactly one lap
//! (`n_pages` page deliveries, wrapping at the table end) and completes
//! with the full-table answer. Because `MAX`/`COUNT` over a static table
//! are start-position independent, the hub evaluates each table page
//! **once per distinct predicate** as it streams past, no matter how many
//! consumers share that predicate or where they attached — N consumers
//! cost one device stream plus near-marginal CPU, not N scans.
//!
//! The device stream is one block submission window (sized by the shared
//! cursor's queue-depth lease, charged **once** by the admission layer —
//! see `QdttAdmission::cursor_start`), and evaluation is one in-flight
//! CPU task at a time over contiguous ready runs, so the hub adds O(1)
//! simulator events per delivered block regardless of consumer count.
//!
//! Positions are absolute **ticks**: tick `t` denotes table page
//! `t % n_pages`. Ticks only grow, which makes attach/finish bookkeeping
//! a pair of ordered maps and keeps wrap-around arithmetic out of the
//! hot path.

use crate::driver::QueryAnswer;
use crate::engine::{io_failure, Event, ExecError, SimContext};
use crate::fts::{evaluate_page, merge_max};
use pioqo_device::IoStatus;
use pioqo_storage::HeapTable;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counters describing one hub's lifetime, surfaced in workload reports.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SharedScanStats {
    /// Consumers attached to a shared cursor (fresh or resumed).
    pub attaches: u64,
    /// Times the circular cursor went from idle to streaming (each one
    /// costs exactly one queue-depth lease at the admission layer).
    pub cursor_starts: u64,
    /// Consumers detached before completing their lap.
    pub detaches: u64,
    /// Page deliveries evaluated by the shared stream (each table page
    /// counts once per tick it streamed past, not once per consumer).
    pub pages_delivered: u64,
    /// Block read submissions issued by the cursor.
    pub blocks_fetched: u64,
    /// Pages satisfied from the buffer pool without a device read.
    pub resident_pages: u64,
    /// Device page reads avoided by the shared stream: each delivered page
    /// would have cost one read per live rider running solo, but the
    /// cursor fetched it once — `(riders - 1)` saved per delivered page.
    pub pages_saved: u64,
}

/// A consumer's state carried across [`ScanHub::detach`] /
/// [`ScanHub::reattach`]: the partial aggregate over the pages already
/// seen plus where the stream must resume for the remainder.
#[derive(Debug, Clone)]
pub struct Detached {
    /// Predicate lower bound (inclusive).
    pub low: u32,
    /// Predicate upper bound (inclusive).
    pub high: u32,
    /// `MAX(C1)` over the pages seen before detaching.
    pub partial_max: Option<u32>,
    /// Matching rows over the pages seen before detaching.
    pub partial_matched: u64,
    /// Rows examined over the pages seen before detaching.
    pub partial_examined: u64,
    /// Row fingerprint (all columns projected) over the pages seen.
    pub partial_fp: u64,
    /// Pages already delivered to this consumer.
    pub pages_seen: u64,
    /// Table page the stream must be at when the consumer reattaches.
    pub resume_page: u64,
    /// Pages still owed after resuming.
    pub pages_left: u64,
}

/// How a reattached consumer finishes: the carried partial is combined
/// with a direct evaluation of the residual page range (the shared
/// predicate accumulator covers a *full* lap and would double count).
#[derive(Debug, Clone)]
enum ConsumerKind {
    /// Fresh attach: answer comes from the shared predicate accumulator.
    Fresh { pred: usize },
    /// Resumed after a detach: answer = carried partial + residual pages.
    Resumed { det: Detached, resume_tick: u64 },
}

#[derive(Debug, Clone)]
struct Consumer {
    kind: ConsumerKind,
    /// Tick (exclusive) at which this consumer has seen a full lap.
    finish: u64,
}

/// Sentinel `start_tick` for a predicate whose lap was interrupted by the
/// cursor going idle (every consumer detached before the lap finished):
/// its partial accumulator is invalid, so it restarts from scratch on the
/// next attach. Completed predicates are never parked — their full-lap
/// accumulator stays reusable forever (the table is static).
const PRED_PARKED: u64 = u64::MAX;

/// One distinct predicate's shared accumulator. The hub evaluates each
/// table page once for each predicate, starting at the tick the predicate
/// first appeared; after `n_pages` evaluated pages the accumulator holds
/// the full-table answer and is reusable by any later consumer.
#[derive(Debug, Clone)]
struct PredState {
    low: u32,
    high: u32,
    start_tick: u64,
    pages_done: u64,
    max_c1: Option<u32>,
    matched: u64,
    fp: u64,
}

/// The shared-scan hub for one heap table. See the module docs.
pub struct ScanHub<'q> {
    table: &'q HeapTable,
    n_pages: u64,
    block_pages: u32,
    /// Fetch window in pages (cursor queue-depth lease × block size).
    window_pages: u64,
    active: bool,
    /// Next tick to be scheduled into CPU evaluation.
    sched: u64,
    /// Evaluation frontier: ticks below this are fully evaluated.
    done: u64,
    /// Next tick to fetch (>= sched; fetched-but-not-ready runs are in
    /// `my_blocks`, ready-but-not-scheduled runs in `ready`).
    fetched: u64,
    /// Exclusive max tick any live consumer still needs.
    need: u64,
    /// The single in-flight evaluation task: (task id, run start, len).
    eval: Option<(crate::cpu::TaskId, u64, u64)>,
    /// Outstanding block reads: io id -> (tick of first page, pages).
    my_blocks: BTreeMap<u64, (u64, u32)>,
    /// Resident runs awaiting evaluation: tick -> pages.
    ready: BTreeMap<u64, u32>,
    slots: Vec<Option<Consumer>>,
    free: Vec<u32>,
    live: u32,
    preds: Vec<PredState>,
    pred_ids: BTreeMap<(u32, u32), usize>,
    /// finish tick -> consumer slots completing there.
    finish_at: BTreeMap<u64, Vec<u32>>,
    completions: Vec<(u32, QueryAnswer)>,
    stats: SharedScanStats,
}

impl<'q> ScanHub<'q> {
    /// Build an idle hub over `table`, streaming in `block_pages`-page
    /// device submissions.
    pub fn new(table: &'q HeapTable, block_pages: u32) -> ScanHub<'q> {
        assert!(block_pages >= 1, "shared cursor needs a positive block");
        assert!(
            table.n_pages() >= 1,
            "shared cursor needs a non-empty table"
        );
        ScanHub {
            table,
            n_pages: table.n_pages(),
            block_pages,
            window_pages: block_pages as u64,
            active: false,
            sched: 0,
            done: 0,
            fetched: 0,
            need: 0,
            eval: None,
            my_blocks: BTreeMap::new(),
            ready: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            preds: Vec::new(),
            pred_ids: BTreeMap::new(),
            finish_at: BTreeMap::new(),
            completions: Vec::new(),
            stats: SharedScanStats::default(),
        }
    }

    /// Whether the circular cursor is streaming (any live consumer).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &SharedScanStats {
        &self.stats
    }

    /// Size the fetch window from the cursor's queue-depth lease: `depth`
    /// block submissions may be in flight ahead of the evaluation frontier.
    pub fn set_window(&mut self, depth: u32) {
        self.window_pages = depth.max(1) as u64 * self.block_pages as u64;
    }

    fn page_of(&self, tick: u64) -> u64 {
        tick % self.n_pages
    }

    fn pred_index(&mut self, low: u32, high: u32) -> usize {
        if let Some(&i) = self.pred_ids.get(&(low, high)) {
            // A pred parked by `go_idle` mid-lap restarts a fresh lap at
            // the current frontier; a completed pred is reused as-is.
            if self.preds[i].start_tick == PRED_PARKED {
                self.preds[i].start_tick = self.sched;
            }
            return i;
        }
        let i = self.preds.len();
        self.preds.push(PredState {
            low,
            high,
            start_tick: self.sched,
            pages_done: 0,
            max_c1: None,
            matched: 0,
            fp: 0,
        });
        self.pred_ids.insert((low, high), i);
        i
    }

    fn alloc_slot(&mut self, c: Consumer) -> u32 {
        self.live += 1;
        if let Some(s) = self.free.pop() {
            self.slots[s as usize] = Some(c);
            s
        } else {
            self.slots.push(Some(c));
            (self.slots.len() - 1) as u32
        }
    }

    /// Attach a fresh consumer for `BETWEEN low AND high` at the cursor's
    /// current position; it completes after one full circular lap.
    /// Returns the consumer slot (stable until completion or detach).
    pub fn attach(&mut self, ctx: &mut SimContext<'_>, low: u32, high: u32) -> u32 {
        if !self.active {
            self.active = true;
            self.stats.cursor_starts += 1;
        }
        self.stats.attaches += 1;
        let pred = self.pred_index(low, high);
        let finish = self.sched + self.n_pages;
        let slot = self.alloc_slot(Consumer {
            kind: ConsumerKind::Fresh { pred },
            finish,
        });
        self.need = self.need.max(finish);
        self.finish_at.entry(finish).or_default().push(slot);
        ctx.metric_counter("shared_attach_total", 1);
        ctx.metric_sample("shared_live_consumers", u64::from(self.live));
        self.pump(ctx);
        slot
    }

    /// Detach `slot` mid-lap (cancellation / plan divergence). Returns the
    /// partial aggregate over the pages the consumer saw, or `None` when
    /// the slot already completed. Detaching does not rewind the stream:
    /// other consumers keep riding it.
    pub fn detach(&mut self, ctx: &mut SimContext<'_>, slot: u32) -> Option<Detached> {
        let c = self.slots.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        self.live -= 1;
        self.stats.detaches += 1;
        ctx.metric_counter("shared_detach_total", 1);
        ctx.metric_sample("shared_live_consumers", u64::from(self.live));
        if let Some(v) = self.finish_at.get_mut(&c.finish) {
            v.retain(|&s| s != slot);
            if v.is_empty() {
                self.finish_at.remove(&c.finish);
            }
        }
        let det = match c.kind {
            ConsumerKind::Fresh { pred } => {
                let p = &self.preds[pred];
                let attach_tick = c.finish - self.n_pages;
                let pages_seen = self.done.saturating_sub(attach_tick).min(self.n_pages);
                let (max, matched, examined, fp) =
                    self.eval_run_host(attach_tick, pages_seen, p.low, p.high);
                Detached {
                    low: p.low,
                    high: p.high,
                    partial_max: max,
                    partial_matched: matched,
                    partial_examined: examined,
                    partial_fp: fp,
                    pages_seen,
                    resume_page: self.page_of(attach_tick + pages_seen),
                    pages_left: self.n_pages - pages_seen,
                }
            }
            ConsumerKind::Resumed { det, resume_tick } => {
                let pages_seen = self.done.saturating_sub(resume_tick).min(det.pages_left);
                let (max, matched, examined, fp) =
                    self.eval_run_host(resume_tick, pages_seen, det.low, det.high);
                Detached {
                    partial_max: merge_max(det.partial_max, max),
                    partial_matched: det.partial_matched + matched,
                    partial_examined: det.partial_examined + examined,
                    partial_fp: det.partial_fp.wrapping_add(fp),
                    pages_seen: det.pages_seen + pages_seen,
                    resume_page: self.page_of(resume_tick + pages_seen),
                    pages_left: det.pages_left - pages_seen,
                    ..det
                }
            }
        };
        if self.live == 0 {
            self.go_idle();
        }
        Some(det)
    }

    /// Re-admit a detached consumer. The stream must be positioned at the
    /// consumer's resume page (`page_of(evaluation frontier)`); otherwise
    /// the carried state is handed back and the caller re-admits solo.
    pub fn reattach(&mut self, ctx: &mut SimContext<'_>, det: Detached) -> Result<u32, Detached> {
        if det.pages_left == 0
            || self.page_of(self.done) != det.resume_page
            || self.sched != self.done
        {
            return Err(det);
        }
        if !self.active {
            self.active = true;
            self.stats.cursor_starts += 1;
        }
        self.stats.attaches += 1;
        // Register the predicate so shared evaluation CPU cost covers it;
        // the answer itself comes from the carried partial + residual.
        let _ = self.pred_index(det.low, det.high);
        let resume_tick = self.done;
        let finish = resume_tick + det.pages_left;
        let slot = self.alloc_slot(Consumer {
            kind: ConsumerKind::Resumed { det, resume_tick },
            finish,
        });
        self.need = self.need.max(finish);
        self.finish_at.entry(finish).or_default().push(slot);
        ctx.metric_counter("shared_attach_total", 1);
        ctx.metric_sample("shared_live_consumers", u64::from(self.live));
        self.pump(ctx);
        Ok(slot)
    }

    /// Drain completed consumers as `(slot, answer)` pairs, in completion
    /// order.
    pub fn take_completions(&mut self, out: &mut Vec<(u32, QueryAnswer)>) {
        out.append(&mut self.completions);
    }

    /// Feed one engine event to the hub. Returns `Ok(true)` when the event
    /// belonged to the shared cursor (the caller must not also dispatch it
    /// to solo queries), `Ok(false)` otherwise.
    pub fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: &Event) -> Result<bool, ExecError> {
        match *ev {
            Event::IoBlock {
                io,
                start,
                status,
                attempts,
                ..
            } => {
                let Some((tick, len)) = self.my_blocks.remove(&io) else {
                    return Ok(false);
                };
                if status == IoStatus::Error {
                    return Err(io_failure("shared_scan", start, attempts));
                }
                if self.active {
                    // The engine's global admit already moved the block's
                    // pages into the pool; the run is now evaluable.
                    self.ready.insert(tick, len);
                    self.pump(ctx);
                }
                Ok(true)
            }
            Event::Cpu(task) => {
                let Some((t, run_start, run_len)) = self.eval else {
                    return Ok(false);
                };
                if t != task {
                    return Ok(false);
                }
                self.eval = None;
                if self.active {
                    self.finish_run(run_start, run_len);
                    self.pump(ctx);
                }
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Evaluate a completed run for every predicate whose lap covers it,
    /// advance the frontier and pop consumers whose lap is complete.
    fn finish_run(&mut self, run_start: u64, run_len: u64) {
        self.stats.pages_delivered += run_len;
        self.stats.pages_saved += run_len * u64::from(self.live).saturating_sub(1);
        for p in &mut self.preds {
            for t in run_start..run_start + run_len {
                if t >= p.start_tick && p.pages_done < self.n_pages {
                    let page = t % self.n_pages;
                    let (m, cnt, _ex, fp) = evaluate_page(self.table, page, p.low, p.high);
                    p.max_c1 = merge_max(p.max_c1, m);
                    p.matched += cnt;
                    p.fp = p.fp.wrapping_add(fp);
                    p.pages_done += 1;
                }
            }
        }
        self.done = run_start + run_len;
        let total_rows = self.table.spec().rows;
        while let Some((&finish, _)) = self.finish_at.iter().next() {
            if finish > self.done {
                break;
            }
            let slots = self.finish_at.remove(&finish).expect("key just observed");
            for slot in slots {
                let Some(c) = self.slots[slot as usize].take() else {
                    continue;
                };
                self.free.push(slot);
                self.live -= 1;
                let answer = match c.kind {
                    ConsumerKind::Fresh { pred } => {
                        let p = &self.preds[pred];
                        debug_assert_eq!(p.pages_done, self.n_pages);
                        QueryAnswer {
                            max_c1: p.max_c1,
                            rows_matched: p.matched,
                            rows_examined: total_rows,
                            fingerprint: p.fp,
                        }
                    }
                    ConsumerKind::Resumed { det, resume_tick } => {
                        let (max, matched, examined, fp) =
                            self.eval_run_host(resume_tick, det.pages_left, det.low, det.high);
                        QueryAnswer {
                            max_c1: merge_max(det.partial_max, max),
                            rows_matched: det.partial_matched + matched,
                            rows_examined: det.partial_examined + examined,
                            fingerprint: det.partial_fp.wrapping_add(fp),
                        }
                    }
                };
                self.completions.push((slot, answer));
            }
        }
        if self.live == 0 {
            self.go_idle();
        }
    }

    /// Directly evaluate `len` circular pages starting at `tick` (detach
    /// partials and residual ranges — control-plane work, not charged to
    /// the simulated CPU).
    fn eval_run_host(
        &self,
        tick: u64,
        len: u64,
        low: u32,
        high: u32,
    ) -> (Option<u32>, u64, u64, u64) {
        let mut max = None;
        let mut matched = 0u64;
        let mut examined = 0u64;
        let mut fp = 0u64;
        for t in tick..tick + len {
            let (m, cnt, ex, f) = evaluate_page(self.table, t % self.n_pages, low, high);
            max = merge_max(max, m);
            matched += cnt;
            examined += ex;
            fp = fp.wrapping_add(f);
        }
        (max, matched, examined, fp)
    }

    /// Keep the device window full and one evaluation task in flight.
    fn pump(&mut self, ctx: &mut SimContext<'_>) {
        if !self.active {
            return;
        }
        // Fetch: stay `window_pages` ahead of the scheduling frontier but
        // never past what consumers need. Blocks are clipped at the table
        // end so no submission spans the wrap.
        let limit = self.need.min(self.sched + self.window_pages);
        while self.fetched < limit {
            let page = self.page_of(self.fetched);
            let len = (self.block_pages as u64)
                .min(self.n_pages - page)
                .min(limit - self.fetched) as u32;
            let first_dp = self.table.device_page(page);
            let resident = (0..len as u64).all(|i| ctx.pool.contains(first_dp + i));
            if resident {
                self.stats.resident_pages += len as u64;
                self.ready.insert(self.fetched, len);
            } else {
                let io = ctx.read_block(first_dp, len);
                self.stats.blocks_fetched += 1;
                self.my_blocks.insert(io, (self.fetched, len));
            }
            self.fetched += len as u64;
        }
        // Evaluate: coalesce the contiguous ready run at the scheduling
        // frontier into one CPU task. Per-page work is the FTS page cost
        // with the row term scaled by the number of predicates whose lap
        // covers that tick (shared evaluation does each page once per
        // distinct predicate).
        if self.eval.is_some() {
            return;
        }
        let mut run_len = 0u64;
        while let Some(&len) = self.ready.get(&(self.sched + run_len)) {
            self.ready.remove(&(self.sched + run_len));
            run_len += len as u64;
        }
        if run_len == 0 {
            return;
        }
        let costs = ctx.costs().clone();
        let mut work = 0.0;
        for t in self.sched..self.sched + run_len {
            let rows = self.table.spec().rows_in_page(t % self.n_pages);
            let preds = self
                .preds
                .iter()
                .filter(|p| t >= p.start_tick && t - p.start_tick < self.n_pages)
                .count()
                .max(1);
            work += costs.page_overhead_us
                + (rows.end - rows.start) as f64 * costs.row_scan_us * preds as f64;
        }
        let task = ctx.submit_cpu(work);
        self.eval = Some((task, self.sched, run_len));
        self.sched += run_len;
    }

    /// All consumers gone: stop streaming and drop in-flight bookkeeping.
    /// (When every consumer ran to completion the frontier has caught up
    /// and there is nothing to drop; after detaches there may be stale
    /// blocks in flight, whose completions the engine's global pool admit
    /// still handles.)
    fn go_idle(&mut self) {
        self.active = false;
        self.ready.clear();
        self.my_blocks.clear();
        // Restart cleanly: the next attach streams from a fresh frontier.
        // Skipping the in-flight ticks [done, fetched) would leave a hole
        // in any unfinished predicate lap, so park those accumulators —
        // they restart from scratch when their predicate next appears.
        self.sched = self.sched.max(self.done).max(self.fetched);
        self.done = self.sched;
        self.fetched = self.sched;
        self.need = self.sched;
        for p in &mut self.preds {
            if p.pages_done < self.n_pages {
                p.start_tick = PRED_PARKED;
                p.pages_done = 0;
                p.max_c1 = None;
                p.matched = 0;
                p.fp = 0;
            }
        }
    }
}
