//! Per-layer timing from outside the program, across its public seams.
//!
//! * [`TimedDevice`] wraps any `DeviceModel` and times the calls that do
//!   its work;
//! * [`TimedPlanner`] wraps any `AdmissionPlanner` and times every hook;
//! * [`run_traced`] is `execute` rewritten over `make_driver`,
//!   `SimContext::step` and `QueryDriver::on_event`, timing the engine step
//!   and the driver callbacks separately.
//!
//! All three are pure pass-through: they forward every call unchanged and
//! only read the host clock. They are used only in traced runs; untraced
//! runs call the program directly, so no per-call clock read lands in the
//! end-to-end numbers.

use crate::report::ns_since;
use pioqo_bufpool::BufferPool;
use pioqo_device::{DeviceModel, IoCompletion, IoRequest};
use pioqo_exec::{
    make_driver, AdmissionPlanner, Event, ExecError, PlanSpec, QueryAdmission, QuerySpec,
    ScanMetrics, SharedChoice, SimContext,
};
use pioqo_simkit::SimTime;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

/// Host nanoseconds a timed span reads when it wraps no work: the part of
/// the two clock reads that falls inside the span. Measured once, as the
/// median of many empty spans, and taken off every timed call so that a
/// wrapped layer is not charged for its own clock; the rest of each clock
/// pair stays with the caller's time.
pub fn clock_ns() -> u64 {
    static CLOCK_NS: OnceLock<u64> = OnceLock::new();
    *CLOCK_NS.get_or_init(|| {
        let mut spans: Vec<u64> = (0..20_001)
            .map(|_| {
                let t = Instant::now();
                ns_since(t)
            })
            .collect();
        spans.sort_unstable();
        spans[spans.len() / 2]
    })
}

/// Host nanoseconds since `t`, less the clock's own share.
fn span_ns(t: Instant) -> u64 {
    ns_since(t).saturating_sub(clock_ns())
}

/// Counters a [`TimedDevice`] accumulates; shared with the code that reads
/// them between calls (the context holds the device mutably).
#[derive(Debug, Default)]
pub struct DeviceClock {
    /// Host time inside `submit`, `next_event`, `advance` and
    /// `reset_state`, clock cost taken off.
    pub ns: Cell<u64>,
    /// Every call, the counted-only accessors included.
    pub calls: Cell<u64>,
    /// The timed calls `ns` covers.
    pub timed: Cell<u64>,
    pub submits: Cell<u64>,
    pub pages_read: Cell<u64>,
    pub pages_written: Cell<u64>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

impl DeviceClock {
    fn fields(&self) -> [&Cell<u64>; 6] {
        [
            &self.ns,
            &self.calls,
            &self.timed,
            &self.submits,
            &self.pages_read,
            &self.pages_written,
        ]
    }

    /// Add `o`'s counters to these.
    pub fn merge(&self, o: &DeviceClock) {
        for (sum, part) in self.fields().into_iter().zip(o.fields()) {
            bump(sum, part.get());
        }
    }

    fn count(&self) {
        bump(&self.calls, 1);
    }

    fn charge(&self, t: Instant) {
        bump(&self.ns, span_ns(t));
        bump(&self.timed, 1);
        self.count();
    }
}

/// Pass-through device wrapper. It times the calls that do the device's
/// work (`submit`, `next_event`, `advance`, `reset_state`) and only counts
/// the accessors (`crashed`, `outstanding`, ...), which return a stored
/// value in a few nanoseconds: a clock pair around each would measure the
/// clock, not the device. Their time stays with the caller.
pub struct TimedDevice<'d> {
    inner: &'d mut dyn DeviceModel,
    clock: Rc<DeviceClock>,
}

impl<'d> TimedDevice<'d> {
    pub fn new(inner: &'d mut dyn DeviceModel, clock: Rc<DeviceClock>) -> Self {
        TimedDevice { inner, clock }
    }
}

impl DeviceModel for TimedDevice<'_> {
    fn page_size(&self) -> u32 {
        self.clock.count();
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.clock.count();
        self.inner.capacity_pages()
    }

    fn submit(&mut self, now: SimTime, req: IoRequest) {
        let c = &self.clock;
        bump(&c.submits, 1);
        let pages = if req.is_write() {
            &c.pages_written
        } else {
            &c.pages_read
        };
        bump(pages, u64::from(req.len));
        let t = Instant::now();
        self.inner.submit(now, req);
        self.clock.charge(t);
    }

    fn next_event(&self) -> Option<SimTime> {
        let t = Instant::now();
        let r = self.inner.next_event();
        self.clock.charge(t);
        r
    }

    fn advance(&mut self, now: SimTime, out: &mut Vec<IoCompletion>) {
        let t = Instant::now();
        self.inner.advance(now, out);
        self.clock.charge(t);
    }

    fn outstanding(&self) -> usize {
        self.clock.count();
        self.inner.outstanding()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reset_state(&mut self) {
        let t = Instant::now();
        self.inner.reset_state();
        self.clock.charge(t);
    }

    fn crashed(&self) -> bool {
        self.clock.count();
        self.inner.crashed()
    }

    fn channels(&self) -> u32 {
        self.clock.count();
        self.inner.channels()
    }

    fn channels_busy(&self, now: SimTime) -> u32 {
        self.clock.count();
        self.inner.channels_busy(now)
    }
}

/// Pass-through admission-planner wrapper. `calls` counts admissions
/// (`admit` and `admit_shared`); `ns` covers every hook, so lease releases
/// and cursor starts are charged to admission too.
pub struct TimedPlanner<P> {
    inner: P,
    pub calls: u64,
    pub ns: u64,
}

impl<P> TimedPlanner<P> {
    pub fn new(inner: P) -> Self {
        TimedPlanner {
            inner,
            calls: 0,
            ns: 0,
        }
    }

    fn time<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.ns += span_ns(t);
        r
    }
}

impl<P: AdmissionPlanner> AdmissionPlanner for TimedPlanner<P> {
    fn admit(&mut self, q: &QueryAdmission, pool: &BufferPool) -> PlanSpec {
        self.calls += 1;
        self.time(|p| p.admit(q, pool))
    }

    fn admit_shared(
        &mut self,
        q: &QueryAdmission,
        pool: &BufferPool,
        cursor_active: bool,
    ) -> SharedChoice {
        self.calls += 1;
        self.time(|p| p.admit_shared(q, pool, cursor_active))
    }

    fn cursor_start(&mut self, pool: &BufferPool) -> u32 {
        self.time(|p| p.cursor_start(pool))
    }

    fn cursor_stop(&mut self) {
        self.time(|p| p.cursor_stop());
    }

    fn complete(&mut self, session: u32) {
        self.time(|p| p.complete(session));
    }

    fn background_acquire(&mut self) {
        self.time(|p| p.background_acquire());
    }

    fn background_release(&mut self) {
        self.time(|p| p.background_release());
    }

    fn depth_gauges(&self) -> (u32, u32) {
        self.inner.depth_gauges()
    }
}

/// Host time of one traced query, split at the step/on_event seam.
#[derive(Debug, Default, Clone)]
pub struct LoopClock {
    pub steps: u64,
    pub events: u64,
    /// Whole loop: driver construction to final answer.
    pub loop_ns: u64,
    /// Engine side of the loop: `SimContext::step` and the crash checks
    /// around it, device calls included.
    pub step_ns: u64,
    /// Device calls made from the engine side.
    pub step_device_ns: u64,
    /// Driver side: `start`, `on_event` and `done`, device calls included.
    pub driver_ns: u64,
    /// Device calls made from the driver side.
    pub driver_device_ns: u64,
}

impl LoopClock {
    pub fn merge(&mut self, o: &LoopClock) {
        self.steps += o.steps;
        self.events += o.events;
        self.loop_ns += o.loop_ns;
        self.step_ns += o.step_ns;
        self.step_device_ns += o.step_device_ns;
        self.driver_ns += o.driver_ns;
        self.driver_device_ns += o.driver_device_ns;
    }
}

/// A running mark: each call charges the host and device time since the
/// previous call to one side of the loop, so the loop's time is split
/// without gaps and with one clock read per boundary.
struct Mark<'c> {
    at: Instant,
    device_ns: u64,
    device: &'c DeviceClock,
}

impl<'c> Mark<'c> {
    fn new(device: &'c DeviceClock) -> Self {
        Mark {
            at: Instant::now(),
            device_ns: device.ns.get(),
            device,
        }
    }

    fn charge(&mut self, host: &mut u64, device: &mut u64) {
        let now = Instant::now();
        *host += u64::try_from((now - self.at).as_nanos()).unwrap_or(u64::MAX);
        let d = self.device.ns.get();
        *device += d - self.device_ns;
        self.at = now;
        self.device_ns = d;
    }
}

/// `execute`, driven by hand so each layer's share of the loop can be
/// timed. Returns exactly what `execute` returns for the same query and
/// context (the tests hold it to that).
pub fn run_traced(
    ctx: &mut SimContext<'_>,
    q: &QuerySpec<'_>,
    device: &DeviceClock,
    clock: &mut LoopClock,
) -> Result<ScanMetrics, ExecError> {
    let loop_start = Instant::now();
    ctx.set_retry_policy(q.plan.retry().clone());
    let start = ctx.now();
    let pool_before = ctx.pool.stats().clone();
    let mut driver = make_driver(q)?;
    let mut mark = Mark::new(device);
    driver.start(ctx)?;
    let mut events: Vec<Event> = Vec::new();
    while !driver.done() {
        mark.charge(&mut clock.driver_ns, &mut clock.driver_device_ns);
        if ctx.device_crashed() {
            return Err(ExecError::Crashed);
        }
        events.clear();
        let progressed = ctx.step(&mut events);
        if !progressed && ctx.device_crashed() {
            return Err(ExecError::Crashed);
        }
        assert!(progressed, "scan deadlocked with work pending");
        clock.steps += 1;
        clock.events += events.len() as u64;
        mark.charge(&mut clock.step_ns, &mut clock.step_device_ns);
        for e in &events {
            driver.on_event(ctx, e)?;
        }
    }
    mark.charge(&mut clock.driver_ns, &mut clock.driver_device_ns);
    let answer = driver.answer();
    let runtime = ctx.now() - start;
    let io = ctx.io_profile();
    let resilience = ctx.resilience();
    ctx.quiesce();
    let hists = ctx.take_histograms();
    let pool = ctx.pool.stats().diff(&pool_before);
    clock.loop_ns += ns_since(loop_start);
    Ok(ScanMetrics {
        runtime,
        max_c1: answer.max_c1,
        rows_matched: answer.rows_matched,
        rows_examined: answer.rows_examined,
        fingerprint: answer.fingerprint,
        io,
        pool,
        resilience,
        hists,
    })
}
