//! The unified execution entry point: one function, any operator.
//!
//! [`execute`] takes a single [`QuerySpec`] — the physical plan *and* the
//! logical query (table, predicate tree, projection, aggregate, optional
//! join) — lowers it to a [`QueryDriver`] and pumps the context's event
//! loop until the answer is complete. This replaced the earlier
//! `(PlanSpec, ScanInputs)` pair (and, before that, six per-operator
//! `run_*` entry points): the `low`/`high` window of `ScanInputs` survives
//! as the sarg of a `C2 BETWEEN` predicate, so the paper's range-MAX is
//! now just one point in the query space.

use crate::driver::QueryDriver;
use crate::engine::{Event, ExecError, RetryPolicy, SimContext};
use crate::fts::{FtsConfig, FtsDriver};
use crate::is::{IsConfig, IsDriver};
use crate::join::{HashJoinConfig, HashJoinDriver, InlConfig, InlDriver};
use crate::metrics::ScanMetrics;
use crate::query::QuerySpec;
use crate::sorted_is::{SortedIsConfig, SortedIsDriver};
use serde::{Deserialize, Serialize};

/// What [`execute`] returns: the metrics bundle of one query.
pub type ScanOutput = ScanMetrics;

/// A physical plan, fully specified: the access method (or join operator)
/// plus its configuration. This is the executor-side twin of the
/// optimizer's `Plan` (the optimizer crate depends on this one, so the
/// lowering lives there).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PlanSpec {
    /// (Parallel) full table scan.
    Fts(FtsConfig),
    /// (Parallel) index scan.
    Is(IsConfig),
    /// Sorted index scan.
    SortedIs(SortedIsConfig),
    /// Index-nested-loop join (random probes, wants deep queues).
    Inl(InlConfig),
    /// Hybrid hash join (sequential partitioned I/O).
    Hash(HashJoinConfig),
}

impl PlanSpec {
    /// Short human-readable plan label ("FTS", "PIS8+pf4", "INL+qd8",
    /// "HHJ8").
    pub fn label(&self) -> String {
        let mut s = String::new();
        self.label_into(&mut s);
        s
    }

    /// Append the plan label to `buf` without allocating (hot admission
    /// paths reuse one scratch `String` across queries).
    pub fn label_into(&self, buf: &mut String) {
        use std::fmt::Write as _;
        match self {
            PlanSpec::Fts(c) if c.workers == 1 => buf.push_str("FTS"),
            PlanSpec::Fts(c) => {
                let _ = write!(buf, "PFTS{}", c.workers);
            }
            PlanSpec::Is(c) if c.workers == 1 && c.prefetch_depth == 0 => buf.push_str("IS"),
            PlanSpec::Is(c) if c.prefetch_depth == 0 => {
                let _ = write!(buf, "PIS{}", c.workers);
            }
            PlanSpec::Is(c) => {
                let _ = write!(buf, "PIS{}+pf{}", c.workers, c.prefetch_depth);
            }
            PlanSpec::SortedIs(_) => buf.push_str("SortedIS"),
            PlanSpec::Inl(c) => {
                let _ = write!(buf, "INL+qd{}", c.probe_depth);
            }
            PlanSpec::Hash(c) => {
                let _ = write!(buf, "HHJ{}", c.partitions);
            }
        }
    }

    /// The parallel degree the plan runs at.
    pub fn degree(&self) -> u32 {
        match self {
            PlanSpec::Fts(c) => c.workers,
            PlanSpec::Is(c) => c.workers,
            PlanSpec::SortedIs(_) | PlanSpec::Inl(_) | PlanSpec::Hash(_) => 1,
        }
    }

    /// Whether this is a join plan (needs a [`crate::query::JoinClause`]).
    pub fn is_join(&self) -> bool {
        matches!(self, PlanSpec::Inl(_) | PlanSpec::Hash(_))
    }

    /// The plan's retry/timeout policy (installed on the context by
    /// [`execute`]).
    pub fn retry(&self) -> &RetryPolicy {
        match self {
            PlanSpec::Fts(c) => &c.retry,
            PlanSpec::Is(c) => &c.retry,
            PlanSpec::SortedIs(c) => &c.retry,
            PlanSpec::Inl(c) => &c.retry,
            PlanSpec::Hash(c) => &c.retry,
        }
    }
}

/// Lower a query to its driver. Fails if the plan needs an index or join
/// clause the spec does not provide.
pub fn make_driver<'q>(q: &QuerySpec<'q>) -> Result<Box<dyn QueryDriver + 'q>, ExecError> {
    let need_index = || {
        q.index.ok_or(ExecError::Internal {
            detail: "index-scan plan without an index",
        })
    };
    let need_join = || {
        q.join.ok_or(ExecError::Internal {
            detail: "join plan without a join clause",
        })
    };
    let eval = q.row_eval();
    Ok(match &q.plan {
        PlanSpec::Fts(cfg) => Box::new(FtsDriver::new(cfg.clone(), q.table, eval)),
        PlanSpec::Is(cfg) => Box::new(IsDriver::new(cfg.clone(), q.table, need_index()?, eval)),
        PlanSpec::SortedIs(cfg) => Box::new(SortedIsDriver::new(
            cfg.clone(),
            q.table,
            need_index()?,
            eval,
        )),
        PlanSpec::Inl(cfg) => Box::new(InlDriver::new(cfg.clone(), q.table, need_join()?, eval)?),
        PlanSpec::Hash(cfg) => Box::new(HashJoinDriver::new(
            cfg.clone(),
            q.table,
            need_join()?,
            eval,
        )?),
    })
}

/// Execute one query to completion on `ctx` and return its metrics.
///
/// The context is not consumed: callers can run several queries back to
/// back on one context (warm pool, monotone virtual time) or install a
/// trace sink up front. The plan's retry policy is installed on the
/// context; each query's metrics cover only its own window (runtime is
/// measured from the context time at entry, pool stats are diffed).
pub fn execute(ctx: &mut SimContext<'_>, q: &QuerySpec<'_>) -> Result<ScanOutput, ExecError> {
    ctx.set_retry_policy(q.plan.retry().clone());
    let start = ctx.now();
    let pool_before = ctx.pool.stats().clone();
    let mut driver = make_driver(q)?;
    driver.start(ctx)?;
    drive(ctx, driver.as_mut())?;
    let answer = driver.answer();
    let runtime = ctx.now() - start;
    let io = ctx.io_profile();
    let resilience = ctx.resilience();
    ctx.quiesce();
    let hists = ctx.take_histograms();
    let pool = ctx.pool.stats().diff(&pool_before);
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

/// Feed every event of `ctx` to a started `driver` until it is done.
///
/// Returns [`ExecError::Crashed`] once the device halts, and
/// [`ExecError::Internal`] if the context runs out of pending work while
/// the driver is still waiting (a driver bug, reported rather than
/// panicking).
fn drive(ctx: &mut SimContext<'_>, driver: &mut dyn QueryDriver) -> Result<(), ExecError> {
    let mut events: Vec<Event> = Vec::new();
    while !driver.done() {
        if ctx.device_crashed() {
            return Err(ExecError::Crashed);
        }
        events.clear();
        if !ctx.step(&mut events) {
            if ctx.device_crashed() {
                return Err(ExecError::Crashed);
            }
            return Err(ExecError::Internal {
                detail: "scan deadlocked: driver not done and no work pending",
            });
        }
        for e in &events {
            driver.on_event(ctx, e)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuConfig;
    use crate::driver::QueryAnswer;
    use crate::engine::CpuCosts;
    use pioqo_bufpool::BufferPool;
    use pioqo_device::presets::consumer_pcie_ssd;

    /// A driver that issues nothing and never finishes.
    struct Stuck;

    impl QueryDriver for Stuck {
        fn operator(&self) -> &'static str {
            "stuck"
        }
        fn start(&mut self, _ctx: &mut SimContext<'_>) -> Result<(), ExecError> {
            Ok(())
        }
        fn on_event(&mut self, _ctx: &mut SimContext<'_>, _ev: &Event) -> Result<(), ExecError> {
            Ok(())
        }
        fn done(&self) -> bool {
            false
        }
        fn answer(&self) -> QueryAnswer {
            QueryAnswer::default()
        }
    }

    #[test]
    fn a_stalled_driver_is_a_typed_error_not_a_panic() {
        let mut dev = consumer_pcie_ssd(1 << 12, 1);
        let mut pool = BufferPool::new(16);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let mut driver = Stuck;
        driver.start(&mut ctx).expect("starts");
        match drive(&mut ctx, &mut driver) {
            Err(ExecError::Internal { detail }) => assert!(detail.contains("deadlocked")),
            other => panic!("expected a typed stall error, got {other:?}"),
        }
    }
}
