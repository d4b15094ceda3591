//! The crash-consistent write path: dirty pages, WAL group commit, and
//! background writeback — all inside the discrete-event loop.
//!
//! [`WriteSystem`] runs a set of closed-loop *writers* against a dedicated
//! write table. Each commit reads its target pages through the shared
//! buffer pool (contending with concurrent scans for frames and device
//! queue slots), applies row updates in memory, logs them to a [`Wal`]
//! (full page image on the first touch of each page, incremental records
//! afterwards — see the WAL module docs for why replay never reads data
//! pages), and then waits for a group-commit tick to seal the records into
//! a segment and write it through the *same* device queue the scans use.
//! A background flusher writes dirty data pages back (never ahead of their
//! log records), and periodic checkpoint records mark writeback progress.
//!
//! Bytes live in a [`MediaStore`] beside the timing model: a page image is
//! stored when (and only when) its write *completion* is durable, so
//! "what is on disk after a crash" is an exact, byte-comparable object.
//! After a crash ([`crate::ExecError::Crashed`]), [`WriteSystem::apply_crash`]
//! translates the device's [`CrashReport`] into torn/lost page images, and
//! [`crate::recovery::recover`] replays the WAL against the media.
//!
//! Determinism: per-writer randomness derives from the config seed, state
//! lives in ordered collections, and every decision happens at a virtual
//! instant — identical configs produce byte-identical WAL extents, media
//! stores and stats.

use crate::engine::{Event, ExecError, SimContext};
use pioqo_bufpool::wal::{Lsn, SealedSegment, Wal, WalOp};
use pioqo_device::{CrashReport, IoStatus, MediaStore};
use pioqo_obs::EventKind;
use pioqo_simkit::{SimDuration, SimRng, SimTime};
use pioqo_storage::{encode_heap_page, Extent, HeapTable, TableSpec};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of a [`WriteSystem`] workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WriteConfig {
    /// Closed-loop writer sessions.
    pub writers: u32,
    /// Commits each writer performs before it stops.
    pub commits_per_writer: u32,
    /// Row updates bundled into each commit.
    pub updates_per_commit: u32,
    /// Mean of the exponential think pause between a writer's commits.
    pub think: SimDuration,
    /// Group-commit tick interval: pending WAL records are sealed into a
    /// segment and written out at this cadence.
    pub group_commit: SimDuration,
    /// Background-flusher tick interval.
    pub flush_interval: SimDuration,
    /// Most dirty pages one flusher tick writes back.
    pub flush_batch: u32,
    /// A checkpoint record is logged every this many flusher ticks
    /// (0 disables periodic checkpoints; the closing checkpoint always
    /// happens).
    pub checkpoint_every: u32,
    /// Master seed; writer `w` draws from `SimRng::derive(seed, w)`.
    pub seed: u64,
}

impl Default for WriteConfig {
    fn default() -> Self {
        WriteConfig {
            writers: 2,
            commits_per_writer: 8,
            updates_per_commit: 4,
            think: SimDuration::from_micros_f64(500.0),
            group_commit: SimDuration::from_micros_f64(200.0),
            flush_interval: SimDuration::from_micros_f64(1_000.0),
            flush_batch: 4,
            checkpoint_every: 4,
            seed: 97,
        }
    }
}

/// Counters a [`WriteSystem`] accumulates (WAL counters are folded in when
/// the stats are read).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WriteStats {
    /// Commits acknowledged durable (their last record reached the
    /// contiguous-durable WAL prefix).
    pub commits_acked: u64,
    /// Row updates applied (and logged).
    pub updates_applied: u64,
    /// Page reads issued by writers to bring commit targets into the pool.
    pub reads_issued: u64,
    /// Group-commit ticks that sealed and submitted a segment.
    pub wal_flushes: u64,
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL segments sealed.
    pub wal_segments: u64,
    /// WAL-extent pages consumed.
    pub wal_pages: u64,
    /// Checkpoint records logged.
    pub checkpoints: u64,
    /// Dirty data pages submitted for writeback.
    pub data_page_flushes: u64,
    /// Background-flusher ticks that ran.
    pub flush_ticks: u64,
}

/// The staged row updates of one commit: `(device_page, slot, new_c1)`.
type CommitUpdates = Vec<(u64, u32, u32)>;

enum WriterState {
    /// Waiting on a think timer.
    Thinking,
    /// Waiting for the commit's target pages to arrive in the pool.
    Reading {
        pending: BTreeSet<u64>,
        updates: CommitUpdates,
    },
    /// Updates applied and logged; waiting for `durable_lsn` to cover them.
    WaitingCommit { lsn: Lsn, appended: SimTime },
    /// All commits done.
    Done,
}

struct Writer {
    rng: SimRng,
    commits_done: u32,
    state: WriterState,
}

/// The write path of one simulated machine. See the module docs.
pub struct WriteSystem {
    cfg: WriteConfig,
    spec: TableSpec,
    extent: Extent,
    wal_extent: Extent,
    /// Current row values of every page a writer ever touched
    /// (device page -> rows in slot order). Untouched pages keep the
    /// table's generated values.
    rows: BTreeMap<u64, Vec<(u32, u32)>>,
    /// Initial row values (the write table's generated data), used to
    /// materialize a page's rows on first touch.
    initial: pioqo_storage::ColumnData,
    wal: Wal,
    media: MediaStore,
    /// Latest update LSN per touched device page.
    page_lsn: BTreeMap<u64, Lsn>,
    /// Pages whose first-touch full image is already logged.
    fpw_done: BTreeSet<u64>,
    /// Oldest possibly-unflushed LSN per dirty page (drives the
    /// conservative checkpoint `flushed_through`).
    dirty_since: BTreeMap<u64, Lsn>,
    /// Sealed WAL segments whose write is in flight, by first WAL page.
    pending_wal: BTreeMap<u64, SealedSegment>,
    /// Data-page writebacks in flight: device page -> (LSN the image
    /// carries, the staged image).
    pending_flush: BTreeMap<u64, (Lsn, Vec<u8>)>,
    /// Writer indexes waiting on a logical read handle.
    read_waiters: BTreeMap<u64, Vec<usize>>,
    /// Timer ids this system owns -> what they drive.
    timers: BTreeMap<u64, TimerKind>,
    writers: Vec<Writer>,
    acked: Vec<Lsn>,
    /// Last LSN covered by a sealed segment; the delta to the next seal is
    /// the group-commit cohort size.
    last_sealed_lsn: Lsn,
    stats: WriteStats,
    final_checkpoint: bool,
    started: bool,
    track: u32,
}

#[derive(Debug, Clone, Copy)]
enum TimerKind {
    Think(usize),
    GroupCommit,
    Flush,
}

impl WriteSystem {
    /// A write system over `table` (its pages are the update targets),
    /// logging into `wal_extent` and persisting into `media`. The table's
    /// extent and the WAL extent must not overlap.
    pub fn new(cfg: WriteConfig, table: &HeapTable, wal_extent: Extent, media: MediaStore) -> Self {
        let extent = table.extent();
        assert!(
            wal_extent.base >= extent.end() || wal_extent.end() <= extent.base,
            "WAL extent overlaps the write table"
        );
        assert!(cfg.writers >= 1, "a write workload needs a writer");
        assert!(cfg.updates_per_commit >= 1, "a commit must update a row");
        let page_size = table.spec().page_size;
        let writers = (0..cfg.writers)
            .map(|w| Writer {
                rng: SimRng::derive(cfg.seed, w as u64),
                commits_done: 0,
                state: WriterState::Thinking,
            })
            .collect();
        WriteSystem {
            spec: table.spec().clone(),
            extent,
            wal_extent,
            rows: BTreeMap::new(),
            initial: table.data().clone(),
            wal: Wal::new(wal_extent.base, wal_extent.pages, page_size),
            media,
            page_lsn: BTreeMap::new(),
            fpw_done: BTreeSet::new(),
            dirty_since: BTreeMap::new(),
            pending_wal: BTreeMap::new(),
            pending_flush: BTreeMap::new(),
            read_waiters: BTreeMap::new(),
            timers: BTreeMap::new(),
            writers,
            acked: Vec::new(),
            last_sealed_lsn: 0,
            stats: WriteStats::default(),
            final_checkpoint: false,
            started: false,
            track: 0,
            cfg,
        }
    }

    /// The configuration this system runs.
    pub fn config(&self) -> &WriteConfig {
        &self.cfg
    }

    /// The media store (post-run/post-crash byte inspection).
    pub fn media(&self) -> &MediaStore {
        &self.media
    }

    /// Consume the system, keeping the media store for recovery.
    pub fn into_media(self) -> MediaStore {
        self.media
    }

    /// The write-ahead log (durability watermarks for assertions).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The WAL extent this system logs into.
    pub fn wal_extent(&self) -> Extent {
        self.wal_extent
    }

    /// The write table's spec.
    pub fn table_spec(&self) -> &TableSpec {
        &self.spec
    }

    /// The write table's extent.
    pub fn table_extent(&self) -> Extent {
        self.extent
    }

    /// LSNs of every acknowledged commit, in ack order. After a crash,
    /// recovery must find each of these within the durable WAL prefix —
    /// that is the durability contract the crash suite asserts.
    pub fn acked_lsns(&self) -> &[Lsn] {
        &self.acked
    }

    /// Counters so far (WAL counters folded in).
    pub fn stats(&self) -> WriteStats {
        let w = self.wal.stats();
        WriteStats {
            wal_records: w.records,
            wal_segments: w.segments,
            wal_pages: w.pages,
            checkpoints: w.checkpoints,
            ..self.stats.clone()
        }
    }

    /// True while data-page writeback is in flight — the signal the
    /// concurrent engine forwards to the admission planner's background
    /// hooks, so checkpoint writeback claims a queue-depth lease.
    pub fn checkpoint_active(&self) -> bool {
        !self.pending_flush.is_empty()
    }

    /// True once every writer committed, every record is durable, and the
    /// closing checkpoint landed.
    pub fn finished(&self) -> bool {
        self.started
            && self.final_checkpoint
            && self
                .writers
                .iter()
                .all(|w| matches!(w.state, WriterState::Done))
            && !self.wal.has_pending()
            && !self.wal.has_inflight()
            && self.pending_wal.is_empty()
            && self.pending_flush.is_empty()
            && self.read_waiters.is_empty()
    }

    /// Arm the initial think/group-commit/flusher timers. Call once before
    /// stepping the event loop.
    pub fn start(&mut self, ctx: &mut SimContext<'_>) {
        assert!(!self.started, "write system started twice");
        self.started = true;
        self.track = ctx.trace_track("writes");
        for w in 0..self.writers.len() {
            let delay = self.think_sample(w);
            let id = ctx.schedule_timer(delay);
            self.timers.insert(id, TimerKind::Think(w));
        }
        let id = ctx.schedule_timer(self.cfg.group_commit);
        self.timers.insert(id, TimerKind::GroupCommit);
        let id = ctx.schedule_timer(self.cfg.flush_interval);
        self.timers.insert(id, TimerKind::Flush);
    }

    fn think_sample(&mut self, w: usize) -> SimDuration {
        let u = self.writers[w].rng.unit();
        self.cfg.think * (-(1.0 - u).ln())
    }

    /// Handle one engine event. Returns `true` when the event was a timer
    /// owned by this system (sessions must not see it); the caller passes
    /// every other event on to the shared cursor and the owning queries.
    pub fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: &Event) -> Result<bool, ExecError> {
        match *ev {
            Event::Timer { id, .. } => {
                let Some(kind) = self.timers.remove(&id) else {
                    return Ok(false);
                };
                match kind {
                    TimerKind::Think(w) => self.begin_commit(ctx, w)?,
                    TimerKind::GroupCommit => {
                        self.group_commit_tick(ctx)?;
                        if !self.finished() {
                            let id = ctx.schedule_timer(self.cfg.group_commit);
                            self.timers.insert(id, TimerKind::GroupCommit);
                        }
                    }
                    TimerKind::Flush => {
                        self.flush_tick(ctx)?;
                        if !self.finished() {
                            let id = ctx.schedule_timer(self.cfg.flush_interval);
                            self.timers.insert(id, TimerKind::Flush);
                        }
                    }
                }
                Ok(true)
            }
            Event::IoPage {
                io,
                device_page,
                status,
                attempts,
            } => {
                let Some(waiters) = self.read_waiters.remove(&io) else {
                    return Ok(false);
                };
                if status == IoStatus::Error {
                    return Err(crate::engine::io_failure("write", device_page, attempts));
                }
                ctx.pool.admit_prefetched(device_page)?;
                for w in waiters {
                    let done = match &mut self.writers[w].state {
                        WriterState::Reading { pending, .. } => {
                            pending.remove(&io);
                            pending.is_empty()
                        }
                        _ => false,
                    };
                    if done {
                        self.apply_commit(ctx, w)?;
                    }
                }
                Ok(false)
            }
            Event::IoWrite {
                start,
                len,
                status,
                attempts,
                ..
            } => {
                if let Some(seg) = self.pending_wal.remove(&start) {
                    if status == IoStatus::Error {
                        return Err(crate::engine::io_failure("wal", start, attempts));
                    }
                    let ps = self.spec.page_size as usize;
                    for p in 0..seg.pages as u64 {
                        let from = (p as usize) * ps;
                        self.media.write(start + p, &seg.image[from..from + ps]);
                    }
                    self.wal.mark_durable(start);
                    ctx.emit(
                        EventKind::WalDurable,
                        self.track,
                        0,
                        start,
                        self.wal.durable_lsn(),
                    );
                    self.ack_commits(ctx);
                } else if let Some((lsn, image)) = self.pending_flush.remove(&start) {
                    if status == IoStatus::Error {
                        return Err(crate::engine::io_failure("flush", start, attempts));
                    }
                    debug_assert_eq!(len, 1, "data-page flushes are single-page");
                    self.media.write(start, &image);
                    if self.page_lsn.get(&start) == Some(&lsn) {
                        // No update raced the flush: the page is clean.
                        ctx.pool.mark_clean(start)?;
                        self.dirty_since.remove(&start);
                    } else {
                        // Updates landed while the flush was in flight; the
                        // oldest un-flushed one is at least lsn + 1.
                        self.dirty_since.insert(start, lsn + 1);
                    }
                }
                Ok(false)
            }
            _ => Ok(false),
        }
    }

    /// A writer's think timer fired: stage a commit's updates and fetch the
    /// target pages through the pool.
    fn begin_commit(&mut self, ctx: &mut SimContext<'_>, w: usize) -> Result<(), ExecError> {
        let mut updates: CommitUpdates = Vec::with_capacity(self.cfg.updates_per_commit as usize);
        for _ in 0..self.cfg.updates_per_commit {
            let rng = &mut self.writers[w].rng;
            let row = rng.below(self.spec.rows);
            let value = rng.next_u64() as u32;
            let dp = self.extent.device_page(self.spec.page_of_row(row));
            updates.push((dp, self.spec.slot_of_row(row), value));
        }
        let mut pending: BTreeSet<u64> = BTreeSet::new();
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        for &(dp, _, _) in &updates {
            if seen.insert(dp) && !ctx.pool.contains(dp) {
                let io = ctx.read_page(dp);
                self.read_waiters.entry(io).or_default().push(w);
                pending.insert(io);
                self.stats.reads_issued += 1;
            }
        }
        self.writers[w].state = WriterState::Reading { pending, updates };
        if matches!(&self.writers[w].state, WriterState::Reading { pending, .. } if pending.is_empty())
        {
            self.apply_commit(ctx, w)?;
        }
        Ok(())
    }

    /// Every target page is resident: apply the staged updates, log them,
    /// dirty the pages, and wait for durability.
    fn apply_commit(&mut self, ctx: &mut SimContext<'_>, w: usize) -> Result<(), ExecError> {
        let updates = match std::mem::replace(&mut self.writers[w].state, WriterState::Thinking) {
            WriterState::Reading { updates, .. } => updates,
            other => {
                self.writers[w].state = other;
                return Err(ExecError::Internal {
                    detail: "commit applied in a non-reading state",
                });
            }
        };
        let mut last = 0;
        for (dp, slot, value) in updates {
            // The page may have been evicted between its read completing
            // and the last of the commit's reads arriving; re-admit it (a
            // refetch the pool accounts for).
            if !ctx.pool.contains(dp) {
                ctx.pool.admit(dp)?;
            }
            let local = dp - self.extent.base;
            let spec = &self.spec;
            let initial = &self.initial;
            let rows = self.rows.entry(dp).or_insert_with(|| {
                spec.rows_in_page(local)
                    .map(|r| (initial.c1(r), initial.c2(r)))
                    .collect()
            });
            rows[slot as usize].0 = value;
            let lsn = if self.fpw_done.insert(dp) {
                // First touch ever: log the full post-update image so
                // replay never needs the (possibly torn) data page.
                let image = encode_heap_page(&self.spec, local, rows);
                self.wal.append(WalOp::PageImage {
                    page: dp,
                    image: image.to_vec(),
                })
            } else {
                self.wal.append(WalOp::Update {
                    page: dp,
                    slot,
                    value,
                })
            };
            self.page_lsn.insert(dp, lsn);
            self.dirty_since.entry(dp).or_insert(lsn);
            ctx.pool.mark_dirty(dp)?;
            self.stats.updates_applied += 1;
            last = lsn;
        }
        self.writers[w].state = WriterState::WaitingCommit {
            lsn: last,
            appended: ctx.now(),
        };
        Ok(())
    }

    /// Group commit: seal pending records into a segment and write it.
    fn group_commit_tick(&mut self, ctx: &mut SimContext<'_>) -> Result<(), ExecError> {
        if !self.wal.has_pending() {
            return Ok(());
        }
        self.submit_seal(ctx)
    }

    fn submit_seal(&mut self, ctx: &mut SimContext<'_>) -> Result<(), ExecError> {
        let Some(seg) = self.wal.seal() else {
            if self.wal.is_full() {
                return Err(ExecError::Internal {
                    detail: "WAL extent exhausted; size the extent for the workload",
                });
            }
            return Ok(());
        };
        ctx.emit(
            EventKind::WalFlush,
            self.track,
            0,
            seg.start_page,
            seg.pages as u64,
        );
        ctx.write_block(seg.start_page, seg.pages);
        ctx.metric_hist(
            "wal_group_commit_records",
            seg.last_lsn.saturating_sub(self.last_sealed_lsn),
        );
        self.last_sealed_lsn = seg.last_lsn;
        self.pending_wal.insert(seg.start_page, seg);
        self.stats.wal_flushes += 1;
        Ok(())
    }

    /// Background flusher: write back a batch of dirty pages whose records
    /// are durable, checkpoint on cadence, and close the log when the
    /// writers are done and everything is clean.
    fn flush_tick(&mut self, ctx: &mut SimContext<'_>) -> Result<(), ExecError> {
        self.stats.flush_ticks += 1;
        ctx.metric_sample(
            "wal_flush_lag_lsn",
            self.wal.last_lsn().saturating_sub(self.wal.durable_lsn()),
        );
        let mut dirty = Vec::new();
        ctx.pool.dirty_pages(&mut dirty);
        let durable = self.wal.durable_lsn();
        let mut submitted = 0u32;
        for dp in dirty {
            if submitted >= self.cfg.flush_batch {
                break;
            }
            if !self.extent.contains(dp) || self.pending_flush.contains_key(&dp) {
                continue;
            }
            let lsn = *self.page_lsn.get(&dp).expect("dirty page has an LSN");
            if lsn > durable {
                // WAL rule: never write a data page ahead of its log.
                continue;
            }
            let local = dp - self.extent.base;
            let rows = self.rows.get(&dp).expect("dirty page has rows");
            let image = encode_heap_page(&self.spec, local, rows);
            ctx.emit(EventKind::PageFlush, self.track, 0, dp, 0);
            ctx.write_page(dp);
            self.pending_flush.insert(dp, (lsn, image.to_vec()));
            self.stats.data_page_flushes += 1;
            submitted += 1;
        }
        let writers_done = self
            .writers
            .iter()
            .all(|w| matches!(w.state, WriterState::Done));
        if writers_done && !self.final_checkpoint {
            // Closing checkpoint: once every page is clean and no flush is
            // in flight, certify the whole log and stop.
            let all_clean = ctx.pool.dirty_count() == 0 && self.pending_flush.is_empty();
            if all_clean && !self.wal.has_pending() {
                self.append_checkpoint(ctx);
                self.final_checkpoint = true;
                self.submit_seal(ctx)?;
            }
        } else if self.cfg.checkpoint_every > 0
            && self
                .stats
                .flush_ticks
                .is_multiple_of(self.cfg.checkpoint_every as u64)
            && self.wal.last_lsn() > 0
        {
            self.append_checkpoint(ctx);
            self.submit_seal(ctx)?;
        }
        Ok(())
    }

    /// Log a writeback-progress checkpoint. `flushed_through` is the
    /// conservative largest LSN all of whose updates are durably on media.
    fn append_checkpoint(&mut self, ctx: &mut SimContext<'_>) {
        let flushed_through = match self.dirty_since.values().min() {
            Some(&oldest) => oldest.saturating_sub(1),
            None => self.wal.last_lsn(),
        };
        let lsn = self.wal.append(WalOp::Checkpoint { flushed_through });
        ctx.emit(EventKind::Checkpoint, self.track, 0, lsn, flushed_through);
    }

    /// Acknowledge every commit whose records the durable prefix covers.
    fn ack_commits(&mut self, ctx: &mut SimContext<'_>) {
        let durable = self.wal.durable_lsn();
        let now = ctx.now();
        for w in 0..self.writers.len() {
            let acked = match self.writers[w].state {
                WriterState::WaitingCommit { lsn, appended } if lsn <= durable => {
                    ctx.record_commit_ack(now.since(appended).as_nanos() / 1000);
                    self.acked.push(lsn);
                    true
                }
                _ => false,
            };
            if !acked {
                continue;
            }
            self.stats.commits_acked += 1;
            self.writers[w].commits_done += 1;
            if self.writers[w].commits_done >= self.cfg.commits_per_writer {
                self.writers[w].state = WriterState::Done;
            } else {
                self.writers[w].state = WriterState::Thinking;
                let delay = self.think_sample(w);
                let id = ctx.schedule_timer(delay);
                self.timers.insert(id, TimerKind::Think(w));
            }
        }
    }

    /// Translate a device [`CrashReport`] into media state: durable
    /// completions already landed through [`on_event`](Self::on_event);
    /// here every in-flight write becomes, per page and per the seeded
    /// coin, either nothing (lost), a full page, or a torn page.
    pub fn apply_crash(&mut self, report: &CrashReport, seed: u64) {
        for req in &report.torn_writes {
            let staged: Option<Vec<u8>> = if let Some(seg) = self.pending_wal.get(&req.offset) {
                Some(seg.image.clone())
            } else {
                self.pending_flush
                    .get(&req.offset)
                    .map(|(_, image)| image.clone())
            };
            let Some(bytes) = staged else {
                continue; // a write this system did not stage (foreign traffic)
            };
            let ps = self.spec.page_size as usize;
            for p in 0..req.len as u64 {
                let page = req.offset + p;
                let mut rng =
                    SimRng::seeded(seed ^ page.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x544F_524E);
                let u = rng.unit();
                if u < 0.25 {
                    // This sector never made it out of the device cache.
                    continue;
                }
                let from = (p as usize) * ps;
                self.media.write(page, &bytes[from..from + ps]);
                if u >= 0.5 {
                    // The adversarial (and most common) outcome: the sector
                    // landed, damaged.
                    self.media.tear(page, seed);
                }
            }
        }
        // Lost writes left no trace; either way nothing stays staged.
        self.pending_wal.clear();
        self.pending_flush.clear();
    }

    /// The current (in-memory) rows of device page `dp` — the crash-free
    /// oracle's view. Pages never touched return the generated data.
    pub fn current_rows(&self, dp: u64) -> Vec<(u32, u32)> {
        match self.rows.get(&dp) {
            Some(r) => r.clone(),
            None => {
                let local = dp - self.extent.base;
                self.spec
                    .rows_in_page(local)
                    .map(|r| (self.initial.c1(r), self.initial.c2(r)))
                    .collect()
            }
        }
    }

    /// Device pages a writer ever updated, in page order.
    pub fn touched_pages(&self) -> Vec<u64> {
        self.rows.keys().copied().collect()
    }
}

/// Drive a standalone write workload (no concurrent scans) to completion.
/// Returns [`ExecError::Crashed`] as soon as the device halts, leaving the
/// system's WAL/media state exactly as the crash left it.
pub fn drive_writes(ctx: &mut SimContext<'_>, ws: &mut WriteSystem) -> Result<(), ExecError> {
    ws.start(ctx);
    let mut events: Vec<Event> = Vec::new();
    while !ws.finished() {
        if ctx.device_crashed() {
            return Err(ExecError::Crashed);
        }
        events.clear();
        if !ctx.step(&mut events) {
            if ctx.device_crashed() {
                return Err(ExecError::Crashed);
            }
            return Err(ExecError::Internal {
                detail: "write workload stalled before finishing",
            });
        }
        for ev in &events {
            ws.on_event(ctx, ev)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuConfig;
    use crate::engine::CpuCosts;
    use pioqo_bufpool::BufferPool;
    use pioqo_device::presets::consumer_pcie_ssd;
    use pioqo_storage::{decode_heap_page, Tablespace};

    fn fixture() -> (HeapTable, Extent, u64) {
        let spec = TableSpec::paper_table(33, 3_000, 11);
        let mut ts = Tablespace::new(spec.n_pages() + 600);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        let wal = ts.alloc("wal", 512).expect("fits");
        (table, wal, ts.capacity())
    }

    fn run(cfg: WriteConfig) -> (WriteSystem, WriteStats) {
        let (table, wal, cap) = fixture();
        let mut dev = consumer_pcie_ssd(cap, 3);
        let mut pool = BufferPool::new(1024);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let mut ws = WriteSystem::new(cfg, &table, wal, MediaStore::new(4096));
        drive_writes(&mut ctx, &mut ws).expect("workload completes");
        let stats = ws.stats();
        (ws, stats)
    }

    #[test]
    fn every_commit_acks_and_media_matches_memory() {
        let cfg = WriteConfig::default();
        let expect = (cfg.writers * cfg.commits_per_writer) as u64;
        let (ws, stats) = run(cfg);
        assert_eq!(stats.commits_acked, expect);
        assert_eq!(ws.acked_lsns().len(), expect as usize);
        assert!(stats.wal_segments > 0 && stats.data_page_flushes > 0);
        assert!(ws.wal().durable_lsn() >= *ws.acked_lsns().last().expect("acked"));
        // Every touched page was flushed, and its media image decodes to
        // exactly the in-memory rows.
        for dp in ws.touched_pages() {
            let image = ws.media().read(dp).expect("touched page flushed");
            let page = decode_heap_page(ws.table_spec(), image).expect("clean page decodes");
            assert_eq!(page.rows, ws.current_rows(dp), "page {dp}");
        }
    }

    #[test]
    fn closing_checkpoint_certifies_the_whole_log() {
        let (ws, stats) = run(WriteConfig::default());
        assert!(stats.checkpoints >= 1);
        let scan = Wal::scan(
            ws.wal_extent().base,
            ws.wal_extent().pages,
            ws.table_spec().page_size,
            |p| ws.media().read(p).map(<[u8]>::to_vec),
        );
        // The closing checkpoint is the last record and certifies every
        // update before it.
        let last = scan.records.last().expect("non-empty log");
        match last.op {
            WalOp::Checkpoint { flushed_through } => {
                assert_eq!(
                    flushed_through,
                    last.lsn - 1,
                    "all updates flushed at close"
                );
            }
            ref other => panic!("log must close with a checkpoint, got {other:?}"),
        }
        assert_eq!(scan.durable_lsn, ws.wal().durable_lsn());
    }

    #[test]
    fn write_workload_is_deterministic() {
        let a = run(WriteConfig::default());
        let b = run(WriteConfig::default());
        assert_eq!(a.1, b.1, "stats must match");
        assert_eq!(a.0.acked_lsns(), b.0.acked_lsns());
        let pages_a: Vec<_> = a.0.media().pages().map(|(p, i)| (p, i.to_vec())).collect();
        let pages_b: Vec<_> = b.0.media().pages().map(|(p, i)| (p, i.to_vec())).collect();
        assert_eq!(pages_a, pages_b, "media must be byte-identical");
    }

    #[test]
    fn flusher_never_writes_ahead_of_the_log() {
        // White-box: with group commit much slower than the flusher, dirty
        // pages pile up waiting for durability; the run must still finish
        // with every flush gated behind its records.
        let cfg = WriteConfig {
            group_commit: SimDuration::from_micros_f64(2_000.0),
            flush_interval: SimDuration::from_micros_f64(300.0),
            ..WriteConfig::default()
        };
        let (ws, stats) = run(cfg);
        assert!(stats.commits_acked > 0);
        // Replaying the durable log must reproduce the media exactly —
        // which fails if any page was flushed ahead of its records.
        for dp in ws.touched_pages() {
            let image = ws.media().read(dp).expect("flushed");
            decode_heap_page(ws.table_spec(), image).expect("decodes");
        }
    }
}
