//! The event-driven query-driver abstraction behind [`crate::execute`] and
//! [`crate::MultiEngine`].
//!
//! A `QueryDriver` is one query's state machine, decoupled from the event
//! loop that feeds it: [`QueryDriver::start`] issues the initial I/O and
//! compute, and [`QueryDriver::on_event`] advances the machine on each
//! [`Event`] delivered by [`SimContext::step`]. Drivers track exactly which
//! I/O handles, compute tasks and timers belong to them and *silently
//! ignore everything else*, so a single-query loop can feed a driver every
//! event. The multi-query engine does not: the context records which
//! driver issued (or joined) each I/O and compute task, and the engine
//! hands each completion only to those owners. A driver returns an error
//! only for a failure on I/O it issued itself.
//!
//! Determinism: drivers hold ordered collections only, never consult
//! wall-clock time, and react to events in the order the context delivers
//! them — the same invariants as the rest of the sim crates (DESIGN.md §8).

use crate::engine::{Event, ExecError, SimContext};

/// The answer of one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryAnswer {
    /// The aggregate value (`MAX`); `None` when nothing matched or the
    /// aggregate is `COUNT` (reported via `rows_matched`).
    pub max_c1: Option<u32>,
    /// Rows satisfying the predicate (joined pairs for join queries).
    pub rows_matched: u64,
    /// Rows the operator actually evaluated.
    pub rows_examined: u64,
    /// Order-independent fingerprint of the projected matching rows (see
    /// `crate::query::row_fingerprint`).
    pub fingerprint: u64,
}

impl QueryAnswer {
    /// Build an answer from a finished row accumulator.
    pub fn from_acc(acc: &crate::query::RowAcc) -> QueryAnswer {
        QueryAnswer {
            max_c1: acc.agg,
            rows_matched: acc.matched,
            rows_examined: acc.examined,
            fingerprint: acc.fingerprint,
        }
    }
}

/// One query's scan state machine, drivable by any event loop over a
/// [`SimContext`] (see the module docs).
pub trait QueryDriver {
    /// The operator name used in traces and [`ExecError::Io`].
    fn operator(&self) -> &'static str;

    /// Issue the query's initial work (startup compute, root fetch,
    /// prefetch window). Called exactly once, before any event delivery.
    fn start(&mut self, ctx: &mut SimContext<'_>) -> Result<(), ExecError>;

    /// React to one context event. Events for I/O, compute or timers the
    /// driver does not own must be ignored (return `Ok`); an error on the
    /// driver's own I/O surfaces as `Err`.
    fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: &Event) -> Result<(), ExecError>;

    /// Whether the query has produced its final answer. A done driver
    /// receives no further events (stray completions of its outstanding
    /// prefetch are absorbed by the event loop).
    fn done(&self) -> bool;

    /// The final answer. Meaningful once [`QueryDriver::done`] is true.
    fn answer(&self) -> QueryAnswer;
}
