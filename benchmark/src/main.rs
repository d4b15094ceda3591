//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_queries --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one harness thread. It builds the workload's inputs from
//! `--seed`, measures for `--seconds`, checks every answer, prints every
//! metric by name with its unit and sample count, and ends with one JSON
//! line. `--trace 0` reports the end-to-end metrics; `--trace 1` adds one
//! traced pass and reports the per-layer metrics. A wrong answer makes the
//! run exit with code 1. See `benchmark/README.md`.

#![forbid(unsafe_code)]

mod layers;
mod paper;
mod report;
mod sessions;
mod writes;

use layers::DeviceClock;
use pioqo_bufpool::PoolStats;
use pioqo_simkit::SimRng;
use report::{ratio, Layers, Metric, Outcome, Setup};
use std::process::ExitCode;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("max_rss_mb", "MB"),
    ("sim_qps", "1/sim_s"),
    ("sim_query_ms_p99", "sim_ms"),
];

/// The per-layer metrics every traced run reports. A layer a workload
/// bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("exec.engine.steps", "count"),
    ("exec.engine.events", "count"),
    ("exec.engine.self_ns_per_event", "ns"),
    ("exec.driver.self_ns_per_event", "ns"),
    ("exec.query.self_ns_per_row", "ns"),
    ("exec.query.rows_examined_per_match", "ratio"),
    ("device.calls", "count"),
    ("device.submits", "count"),
    ("device.pages_read", "count"),
    ("device.pages_written", "count"),
    ("device.self_ns_per_call", "ns"),
    ("device.share", "ratio"),
    ("device.sim_mean_queue_depth", "requests"),
    ("device.sim_mean_latency_us", "sim_us"),
    ("bufpool.hit_ratio", "ratio"),
    ("bufpool.refetches", "count"),
    ("bufpool.evictions", "count"),
    ("bufpool.prefetch_useful_ratio", "ratio"),
    ("bufpool.pages_dirtied", "count"),
    ("bufpool.pages_flushed", "count"),
    ("optimizer.choose_us_p50", "us"),
    ("optimizer.admission.calls.unshared", "count"),
    ("optimizer.admission.calls.shared", "count"),
    ("optimizer.admission.us_per_call.unshared", "us"),
    ("optimizer.admission.us_per_call.shared", "us"),
    ("optimizer.admission.share", "ratio"),
    ("optimizer.admission.lease_depth_mean", "requests"),
    ("optimizer.admission.attach_ratio", "ratio"),
    ("exec.session.residual_us_per_query.unshared", "us"),
    ("exec.session.residual_us_per_query.shared", "us"),
    ("exec.shared.cursor_starts", "count"),
    ("exec.write.commits_acked", "count"),
    ("exec.write.wal_pages", "count"),
    ("exec.write.data_page_flushes", "count"),
    ("exec.write.pages_written_per_update", "ratio"),
    ("exec.recovery.ms_per_call", "ms"),
    ("exec.recovery.records_replayed", "count"),
    ("exec.recovery.torn_pages_detected", "count"),
    ("core.calibrate_ms.hdd", "ms"),
    ("core.calibrate_ms.ssd", "ms"),
    ("core.calibrate_ms.raid8", "ms"),
    ("storage.build_ms", "ms"),
    ("trace_overhead", "ratio"),
    ("trace.clock_ns", "ns"),
];

pub const WORKLOADS: [&str; 3] = ["paper_queries", "scan_sessions", "write_mix"];

/// Generator seeds, all derived from `--seed`. Device models are seeded
/// from their dataset's seed (as `Experiment::make_device` does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub dataset: u64,
    pub session: u64,
    pub write: u64,
    pub crash: u64,
}

impl Seeds {
    pub fn new(master: u64) -> Seeds {
        let mut rng = SimRng::derive(master, 0xBE7C);
        Seeds {
            dataset: rng.next_u64(),
            session: rng.next_u64(),
            write: rng.next_u64(),
            crash: rng.next_u64(),
        }
    }
}

/// `storage.build_ms` and `core.calibrate_ms.*` (HDD, SSD, RAID8), and
/// the set-up frames of the collapsed stacks.
pub fn put_setup_layers(m: &mut report::Metrics, l: &mut Layers, workload: &str, s: &Setup) {
    m.put("storage.build_ms", s.build_ms, "ms", s.reps);
    for (name, ms) in ["hdd", "ssd", "raid8"].iter().zip(s.calibrate_ms) {
        m.put(&format!("core.calibrate_ms.{name}"), ms, "ms", s.reps);
    }
    l.stack(
        format!("{workload};setup;storage.build"),
        (s.build_ms * 1e6) as u64,
    );
    let cal: f64 = s.calibrate_ms.iter().sum();
    l.stack(
        format!("{workload};setup;core.calibrate"),
        (cal * 1e6) as u64,
    );
}

/// The `device.*` metrics from a traced pass.
pub fn put_device_layers(
    m: &mut report::Metrics,
    d: &DeviceClock,
    wall_ns: u64,
    sim_mean_queue_depth: f64,
    sim_mean_latency_us: f64,
    io_ops: u64,
) {
    let calls = d.calls.get();
    m.put("device.calls", calls as f64, "count", calls);
    m.put("device.submits", d.submits.get() as f64, "count", calls);
    m.put(
        "device.pages_read",
        d.pages_read.get() as f64,
        "count",
        calls,
    );
    m.put(
        "device.pages_written",
        d.pages_written.get() as f64,
        "count",
        calls,
    );
    m.put(
        "device.self_ns_per_call",
        ratio(d.ns.get() as f64, d.timed.get() as f64),
        "ns",
        d.timed.get(),
    );
    m.put(
        "device.share",
        ratio(d.ns.get() as f64, wall_ns as f64),
        "ratio",
        calls,
    );
    m.put(
        "device.sim_mean_queue_depth",
        sim_mean_queue_depth,
        "requests",
        io_ops,
    );
    m.put(
        "device.sim_mean_latency_us",
        sim_mean_latency_us,
        "sim_us",
        io_ops,
    );
}

/// The `bufpool.*` metrics from a traced pass's pool counters.
pub fn put_pool_layers(m: &mut report::Metrics, p: &PoolStats) {
    let lookups = p.hits + p.misses;
    m.put(
        "bufpool.hit_ratio",
        ratio(p.hits as f64, lookups as f64),
        "ratio",
        lookups,
    );
    m.put("bufpool.refetches", p.refetches as f64, "count", lookups);
    m.put("bufpool.evictions", p.evictions as f64, "count", lookups);
    m.put(
        "bufpool.prefetch_useful_ratio",
        ratio(p.prefetch_hits as f64, p.prefetch_admissions as f64),
        "ratio",
        p.prefetch_admissions,
    );
    m.put(
        "bufpool.pages_dirtied",
        p.pages_dirtied as f64,
        "count",
        lookups,
    );
    m.put(
        "bufpool.pages_flushed",
        p.pages_flushed as f64,
        "count",
        lookups,
    );
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Run one workload at full size.
fn run_workload(workload: &str, seeds: &Seeds, seconds: f64, traced: bool) -> Outcome {
    let out = match workload {
        "paper_queries" => paper::run(seeds, &paper::Size::full(), seconds, traced),
        "scan_sessions" => sessions::run(seeds, &sessions::Size::full(), seconds, traced),
        "write_mix" => writes::run(seeds, &writes::Size::full(), seconds, traced),
        other => unreachable!("workload {other} was validated by parse_args"),
    };
    finish(out, traced)
}

/// Add the process-wide metrics, and read 0 for layers the workload
/// bypasses.
fn finish(mut out: Outcome, traced: bool) -> Outcome {
    out.metrics.put("max_rss_mb", report::max_rss_mb(), "MB", 1);
    if traced {
        for (name, unit) in PER_LAYER {
            if out.metrics.get(name).is_none() {
                out.metrics.put(name, 0.0, unit, 0);
            }
        }
    }
    out
}

/// Write the traced pass's layer table, collapsed stacks and spans next to
/// the benchmark's sources (under `out/`, which git ignores).
fn write_trace_files(workload: &str, layers: &Layers) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("{workload}.layers.txt")), layers.table())?;
    std::fs::write(dir.join(format!("{workload}.folded")), layers.collapsed())?;
    std::fs::write(dir.join(format!("{workload}.spans.csv")), &layers.spans)?;
    Ok(dir)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: pioqo-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // One harness thread: calibration's parallel map runs inline.
    std::env::set_var("PIOQO_THREADS", "1");
    let seeds = Seeds::new(args.seed);
    let out = run_workload(&args.workload, &seeds, args.seconds, args.trace);

    for (name, m) in &out.metrics.0 {
        println!("metric {name} = {} {} (n={})", m.value, m.unit, m.samples);
    }
    println!("digest {} {:#018x}", args.workload, out.digest.0);
    if let Some(layers) = &out.layers {
        print!("{}", layers.table());
        match write_trace_files(&args.workload, layers) {
            Ok(dir) => println!("trace files in {}", dir.display()),
            Err(e) => eprintln!("warning: could not write trace files: {e}"),
        }
    }
    for w in out.wrong.iter().take(20) {
        eprintln!("WRONG: {w}");
    }
    if out.wrong.len() > 20 {
        eprintln!("WRONG: ... {} wrong results in all", out.wrong.len());
    }
    let correct = out.wrong.is_empty();
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let reported: Vec<(&str, &Metric)> = names
        .iter()
        .map(|(name, _)| (*name, &out.metrics.0[*name]))
        .collect();
    println!(
        "{}",
        report::result_json(correct, out.attempted, out.failed, &reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn run_tiny(workload: &str, seeds: &Seeds, traced: bool) -> Outcome {
        let out = match workload {
            "paper_queries" => paper::run(seeds, &paper::Size::tiny(), 0.0, traced),
            "scan_sessions" => sessions::run(seeds, &sessions::Size::tiny(), 0.0, traced),
            "write_mix" => writes::run(seeds, &writes::Size::tiny(), 0.0, traced),
            other => panic!("unknown workload {other}"),
        };
        let out = finish(out, traced);
        assert!(out.wrong.is_empty(), "{workload}: {:?}", out.wrong);
        assert_eq!(out.failed, 0, "{workload}");
        out
    }

    fn names(out: &Outcome) -> BTreeSet<String> {
        out.metrics.0.keys().cloned().collect()
    }

    /// One seed gives one digest, two seeds give two, and the set of
    /// metric names does not depend on the seed.
    #[test]
    fn seed_gives_digest_and_names_stay_fixed() {
        for w in WORKLOADS {
            let a = run_tiny(w, &Seeds::new(1), false);
            let again = run_tiny(w, &Seeds::new(1), false);
            let b = run_tiny(w, &Seeds::new(2), false);
            assert_eq!(a.digest, again.digest, "{w}: same seed, same digest");
            assert_ne!(a.digest, b.digest, "{w}: another seed, another digest");
            assert_eq!(names(&a), names(&b), "{w}");
        }
    }

    /// Each generator seed reaches the simulation: changing only the
    /// dataset (and so device), session, writer or crash-instant seed
    /// changes the digest of every workload that uses that generator.
    #[test]
    fn every_generator_seed_reaches_the_simulation() {
        let base = Seeds::new(3);
        let other = Seeds::new(4);
        let cases: [(&str, Seeds, &[&str]); 4] = [
            (
                "dataset",
                Seeds {
                    dataset: other.dataset,
                    ..base
                },
                &WORKLOADS,
            ),
            (
                "session",
                Seeds {
                    session: other.session,
                    ..base
                },
                &["scan_sessions", "write_mix"],
            ),
            (
                "write",
                Seeds {
                    write: other.write,
                    ..base
                },
                &["write_mix"],
            ),
            (
                "crash",
                Seeds {
                    crash: other.crash,
                    ..base
                },
                &["write_mix"],
            ),
        ];
        for w in WORKLOADS {
            let reference = run_tiny(w, &base, false).digest;
            for (field, seeds, users) in &cases {
                if users.contains(&w) {
                    assert_ne!(
                        run_tiny(w, seeds, false).digest,
                        reference,
                        "{w}: {field} seed"
                    );
                }
            }
        }
    }

    /// Untraced runs report every end-to-end metric; traced runs every
    /// per-layer metric, with the units `BENCHMARK.json` declares, and the
    /// traced pass simulates exactly what the untraced passes did.
    #[test]
    fn every_listed_metric_is_reported_with_its_unit() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                spec.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks {w}"
            );
            let out = run_tiny(w, &Seeds::new(9), true);
            for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
                let m = out
                    .metrics
                    .0
                    .get(*name)
                    .unwrap_or_else(|| panic!("{w}: no {name}"));
                assert_eq!(m.unit, *unit, "{w}: {name}");
            }
            for (name, _) in END_TO_END {
                assert!(
                    out.metrics.0[name].value > 0.0,
                    "{w}: {name} must never be 0"
                );
            }
            assert!(out.layers.is_some(), "{w}: traced pass ran");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload write_mix --seed 4 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("write_mix", 4, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload write_mix --seed x --seconds 1 --trace 0",
            "--workload write_mix --seed 1 --seconds 0 --trace 0",
            "--workload write_mix --seed 1 --seconds 1 --trace 2",
            "--workload write_mix --seconds 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
