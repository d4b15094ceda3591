//! Metric records, the simulation digest, quantiles and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Host nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One reported metric: its value, unit and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Every metric a run produced, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        let prev = self.0.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
        assert!(prev.is_none(), "metric {name} reported twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }
}

/// FNV-1a over every simulated output of a pass: plan labels, simulated
/// runtimes and answers. Host timings never enter it, so a change that only
/// makes the simulator faster leaves it unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn opt(&mut self, v: Option<u32>) {
        self.u64(v.map_or(u64::MAX, u64::from));
    }
}

/// Nearest-rank quantile of `values` (`q` in (0, 1]); `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `a / b`, or `0.0` when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn max_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric, end-to-end and per-layer.
    pub metrics: Metrics,
    /// Operations attempted (queries plus commits).
    pub attempted: u64,
    /// Operations that ended in a typed error.
    pub failed: u64,
    /// Wrong answers, one line each. Any entry fails the run.
    pub wrong: Vec<String>,
    /// Digest of the first untraced pass.
    pub digest: Digest,
    /// Per-layer breakdown of the traced pass, when one ran.
    pub layers: Option<Layers>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    /// A pass that simulated something else than the first pass did is a
    /// wrong result.
    pub fn same_digest(&mut self, what: &str, d: Digest) {
        let first = self.digest;
        self.check(d == first, || {
            format!("{what} digest {:#x} != first pass {:#x}", d.0, first.0)
        });
    }
}

/// Host time of one set-up. `calibrate_ns` is per device: HDD, SSD, RAID8.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub total_ns: u64,
    pub build_ns: u64,
    pub calibrate_ns: [u64; 3],
}

/// Medians over the repeated set-ups.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub reps: u64,
    pub setup_s: f64,
    pub build_ms: f64,
    pub calibrate_ms: [f64; 3],
}

/// What every pass records besides its workload's own figures.
#[derive(Debug, Default)]
pub struct PassCore {
    /// Every simulated output of the pass.
    pub digest: Digest,
    /// Operations attempted (queries plus commits) and those that ended in
    /// a typed error.
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers, one line each.
    pub wrong: Vec<String>,
    /// Operations the timed units completed.
    pub ops: u64,
    /// Host nanoseconds of each timed unit, in the same order every pass.
    pub unit_ns: Vec<u64>,
}

/// One pass over a workload.
pub trait Pass {
    fn core(&self) -> &PassCore;

    /// Drop what only the first pass's metrics need, so memory does not
    /// grow with the number of passes a host manages.
    fn trim(&mut self) {}
}

/// Set up, then run one pass on the fresh fixture; repeat until the passes
/// have taken `seconds`, at least once, and return the last fixture, the
/// set-up medians and the passes. Set-up repeats before every pass (each
/// fixture freed before the next is built), so the median set-up time is
/// taken over the whole run, not over a burst at its start that one busy
/// second on the host would skew. Every later pass must reproduce the
/// first pass's digest.
pub fn measure<F, P: Pass>(
    seconds: f64,
    out: &mut Outcome,
    mut build: impl FnMut() -> (F, SetupTimes),
    mut pass: impl FnMut(&F) -> P,
) -> (F, Setup, Vec<P>) {
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut passes: Vec<P> = Vec::new();
    let mut fixture = None;
    let mut measured = 0.0;
    while passes.is_empty() || measured < seconds {
        drop(fixture.take());
        let (fx, t) = build();
        times.push(t);
        let started = Instant::now();
        let mut p = pass(&fx);
        measured += started.elapsed().as_secs_f64();
        fixture = Some(fx);
        if passes.is_empty() {
            out.digest = p.core().digest;
        } else {
            out.same_digest(&format!("pass {}", passes.len()), p.core().digest);
            p.trim();
        }
        passes.push(p);
    }
    let ms = |f: &dyn Fn(&SetupTimes) -> u64| {
        median(&times.iter().map(|t| f(t) as f64 / 1e6).collect::<Vec<_>>())
    };
    let setup = Setup {
        reps: times.len() as u64,
        setup_s: ms(&|t| t.total_ns) / 1e3,
        build_ms: ms(&|t| t.build_ns),
        calibrate_ms: [0, 1, 2].map(|d| ms(&|t| t.calibrate_ns[d])),
    };
    (fixture.expect("at least one pass"), setup, passes)
}

/// Host nanoseconds of one pass's timed units: each unit's fastest time
/// over all passes, summed. A busy host only ever slows a unit down, and on
/// a shared machine it does so by up to 2x for stretches of a fraction of a
/// second to tens of seconds; the fastest of a unit's repeats is the figure
/// those stretches, and the first pass's cold caches, disturb least.
pub fn units_ns<P: Pass>(passes: &[P]) -> f64 {
    let units = passes
        .iter()
        .map(|p| p.core().unit_ns.len())
        .min()
        .unwrap_or(0);
    (0..units)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.core().unit_ns[i])
                .min()
                .unwrap_or(0) as f64
        })
        .sum()
}

/// Fold every pass's tallies into `out`, and report `setup_s`,
/// `ops_per_s` (the timed units' operations over [`units_ns`]) and
/// `failed_ratio`.
pub fn put_host_metrics<P: Pass>(out: &mut Outcome, passes: &[P], setup: &Setup) {
    for p in passes {
        let c = p.core();
        out.wrong.extend(c.wrong.iter().cloned());
        out.failed += c.failed;
        out.attempted += c.attempted;
    }
    let m = &mut out.metrics;
    m.put("setup_s", setup.setup_s, "s", setup.reps);
    let timed: u64 = passes.iter().map(|p| p.core().unit_ns.len() as u64).sum();
    m.put(
        "ops_per_s",
        ratio(passes[0].core().ops as f64, units_ns(passes) / 1e9),
        "1/s",
        timed,
    );
    m.put(
        "failed_ratio",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
        out.attempted,
    );
}

/// `sim_query_ms_p50` and `sim_query_ms_p99` over `sim_ms`.
pub fn put_sim_latency(m: &mut Metrics, sim_ms: &[f64]) {
    let n = sim_ms.len() as u64;
    m.put("sim_query_ms_p50", median(sim_ms), "sim_ms", n);
    m.put("sim_query_ms_p99", quantile(sim_ms, 0.99), "sim_ms", n);
}

/// `trace_overhead`: the traced pass's timed units against the same units
/// in the median untraced pass (one traced pass against the fastest
/// repeats would read high on a busy host), and `trace.clock_ns`, the
/// clock cost taken off every timed call.
pub fn put_trace_overhead<P: Pass>(m: &mut Metrics, traced: &P, passes: &[P]) {
    let sum = |p: &P| p.core().unit_ns.iter().sum::<u64>() as f64;
    let untraced: Vec<f64> = passes.iter().map(sum).collect();
    m.put(
        "trace_overhead",
        ratio(sum(traced), median(&untraced)),
        "ratio",
        untraced.len() as u64,
    );
    m.put("trace.clock_ns", crate::layers::clock_ns() as f64, "ns", 1);
}

/// One row of the per-layer table: calls, inclusive and self host time.
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    pub calls: u64,
    pub host_ns: u64,
    pub self_ns: u64,
}

/// The traced pass, split by layer. `stacks` holds self nanoseconds per
/// collapsed-stack path (`workload;phase;layer`).
#[derive(Debug, Default)]
pub struct Layers {
    pub wall_ns: u64,
    pub rows: BTreeMap<&'static str, LayerRow>,
    pub stacks: BTreeMap<String, u64>,
    /// One CSV line per traced query or cell, with its layer split.
    pub spans: String,
}

impl Layers {
    pub fn add(&mut self, layer: &'static str, calls: u64, host_ns: u64, self_ns: u64) {
        let row = self.rows.entry(layer).or_default();
        row.calls += calls;
        row.host_ns += host_ns;
        row.self_ns += self_ns;
    }

    pub fn stack(&mut self, path: String, self_ns: u64) {
        *self.stacks.entry(path).or_insert(0) += self_ns;
    }

    /// Fixed-width table: calls, host ms, self ms and self share of the
    /// traced wall, heaviest self time first.
    pub fn table(&self) -> String {
        let mut rows: Vec<_> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<22} {:>12} {:>12} {:>12} {:>8}\n",
            "layer", "calls", "host_ms", "self_ms", "share"
        );
        let wall = self.wall_ns.max(1) as f64;
        for (name, r) in rows {
            let _ = writeln!(
                out,
                "{:<22} {:>12} {:>12.3} {:>12.3} {:>7.2}%",
                name,
                r.calls,
                r.host_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                r.self_ns as f64 * 100.0 / wall
            );
        }
        let _ = writeln!(out, "traced wall {:.3} ms", self.wall_ns as f64 / 1e6);
        out
    }

    /// The stacks in `pioqo-profiler`'s collapsed format (microseconds).
    pub fn collapsed(&self) -> String {
        pioqo_profiler::ProfileReport {
            stacks: self
                .stacks
                .iter()
                .map(|(path, ns)| (format!("main;{path}"), ns / 1_000))
                .collect(),
        }
        .collapsed()
    }
}

/// Render a number for JSON: finite values with full precision.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the named metrics.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &Metric)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.str("ab");
        a.str("c");
        let mut b = Digest::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a, b);
    }
}
