//! End-to-end and per-layer benchmark of the ADAPT stack.
//!
//! ```text
//! perfbench --workload <engine-zipf|serve-durable|serve-sync> \
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! instrumentation in the path. With `--trace 1` it wraps the layers in
//! the decorators of [`traced`] and reports per-layer metrics instead.
//! Either way the table lists every metric the workload measured, and
//! the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding exactly the
//! metrics `BENCHMARK.json` lists for that mode ([`report::END_TO_END`]
//! or [`report::PER_LAYER`]). The exit code is non-zero when a
//! correctness check failed or one of those metrics is missing. Scratch files (the durable
//! engine's data directory, span dumps) go under `.perfbench_run/` in the
//! working directory.

mod engine_zipf;
mod layers;
mod report;
mod serve_load;
mod spans;
mod stats;
mod traced;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch directory for data files and span dumps.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".perfbench_run")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Calibrate before any load so the floor is the recorder's own cost.
    let floor_ns = if args.trace { spans::measure_floor_ns() } else { 0.0 };
    let (seed, secs) = (args.seed, args.seconds);
    let mut report = match (args.workload.as_str(), args.trace) {
        ("engine-zipf", false) => engine_zipf::run(seed, secs),
        ("engine-zipf", true) => engine_zipf::run_traced(seed, secs, floor_ns),
        ("serve-durable", false) => serve_load::run(&serve_load::DURABLE, seed, secs),
        ("serve-durable", true) => {
            serve_load::run_traced(&serve_load::DURABLE, seed, secs, floor_ns)
        }
        ("serve-sync", false) => serve_load::run(&serve_load::SYNC, seed, secs),
        ("serve-sync", true) => serve_load::run_traced(&serve_load::SYNC, seed, secs, floor_ns),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for line in &report.notes {
        println!("# {line}");
    }
    let names: &[&str] = if args.trace { &report::PER_LAYER } else { &report::END_TO_END };
    for (name, value, unit) in &report.metrics {
        let only = if names.contains(name) { "" } else { " (table only)" };
        println!("{name:<32} {value:>16.6} {unit}{only}");
    }
    let json = report.json(names);
    println!("{json}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use crate::engine_zipf::{rep, Spec};
    use crate::traced::{TracedPolicy, TracedSink};
    use adapt_array::CountingArray;
    use adapt_core::Adapt;
    use adapt_lss::Lss;

    /// A small engine-zipf: enough churn for GC, demotion and a few
    /// shadow appends, fast in a debug build.
    const SMALL: Spec = Spec {
        volume_blocks: 16 * 1024,
        warmup_ops: 20_000,
        timed_ops: 120_000,
        gap_us: 2,
        zipf_alpha: 0.9,
        batch: 256,
    };

    #[test]
    fn traced_run_matches_untraced_run() {
        let (prefill, timed) = SMALL.trace(7);
        let (plain, _) = rep(
            &SMALL,
            |cfg| {
                Lss::builder(Adapt::new(&cfg), CountingArray::new(cfg.array_config()))
                    .config(cfg)
                    .build()
            },
            &prefill,
            &timed,
            false,
        );
        let (traced, spans) = rep(
            &SMALL,
            |cfg| {
                Lss::builder(
                    TracedPolicy(Adapt::new(&cfg)),
                    TracedSink(CountingArray::new(cfg.array_config())),
                )
                .config(cfg)
                .build()
            },
            &prefill,
            &timed,
            true,
        );
        assert!(plain.metrics.gc_passes > 0, "the run must exercise GC");
        assert_eq!(plain.metrics, traced.metrics);
        assert_eq!(plain.array, traced.array);
        assert_eq!(plain.memory_bytes, traced.memory_bytes);
        assert_eq!(plain.policy_bytes, traced.policy_bytes);
        assert!(plain.invariants_ok && traced.invariants_ok);
        assert!(spans.agg(crate::spans::Kind::PlaceUser).count >= SMALL.timed_ops as u64);
    }

    #[test]
    fn engine_zipf_counts_repeat_bit_exactly() {
        let run = || {
            let (prefill, timed) = SMALL.trace(11);
            rep(
                &SMALL,
                |cfg| {
                    Lss::builder(Adapt::new(&cfg), CountingArray::new(cfg.array_config()))
                        .config(cfg)
                        .build()
                },
                &prefill,
                &timed,
                false,
            )
            .0
        };
        let (a, b) = (run(), run());
        let w = |r: &crate::engine_zipf::Rep| crate::window::Window::of(&r.metrics);
        assert_eq!(w(&a).wa().to_bits(), w(&b).wa().to_bits());
        assert_eq!(w(&a).pad_ratio().to_bits(), w(&b).pad_ratio().to_bits());
        assert_eq!(w(&a).durability_mean_us().to_bits(), w(&b).durability_mean_us().to_bits());
        assert_eq!(
            (a.metrics.gc_passes, a.metrics.segments_reclaimed, a.metrics.blocks_migrated),
            (b.metrics.gc_passes, b.metrics.segments_reclaimed, b.metrics.blocks_migrated)
        );
    }
}
