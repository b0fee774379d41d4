//! `darkbench` — the repository benchmark. One command, two workloads:
//!
//! ```text
//! cargo run --release --manifest-path darkbench/Cargo.toml -- \
//!     --workload <offline_grid|stream_rt> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! It drives the program only through the public APIs of `darkside-core`
//! and `darkside-serve`, times every call from outside, and checks the
//! decoded words. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! splits the same work by layer and writes its spans to `.bench_out/`.
//! The last line of standard output is the result object; the line before
//! it carries host and run metadata. See `README.md` for why each workload
//! exists.

mod host;
mod metrics;
mod offline;
mod schedule;
mod serving;
mod setup;
mod spans;
mod stats;
mod stream;

use darkside_core::decoder::WerStats;
use darkside_core::trace::Json;
use metrics::{Values, END_TO_END};
use spans::SpanLog;
use stats::{ratio, reported, Kind, Window};
use std::process::ExitCode;

/// A traced run's parts must cover its whole wall time to within this
/// many percent (the rest is the benchmark's own bookkeeping).
const RECONCILE_TOLERANCE_PCT: f64 = 5.0;

/// Latency percentiles: name, what is timed, percentile. They are
/// printed with the run metadata, not as metrics: on `stream_rt` their
/// spread across runs on a shared 2-vCPU host exceeds the largest bound a
/// metric may declare (see README.md).
const LATENCIES: [(&str, Kind, f64); 4] = [
    ("partial_p50_ms", Kind::Partial, 0.50),
    ("partial_p75_ms", Kind::Partial, 0.75),
    ("final_p50_ms", Kind::Final, 0.50),
    ("final_p75_ms", Kind::Final, 0.75),
];

/// What one measured window produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations tried: utterance decodes offline, sessions when serving.
    pub attempted: u64,
    /// Operations that failed, were rejected, or returned wrong words.
    pub failed: u64,
    /// Of those, transcripts that differ from their reference.
    pub mismatches: u64,
    /// Frames decoded and time spent inside the program's calls, plus the
    /// latency samples: per 10-frame chunk, available to the program →
    /// words cover it (partial); per utterance, last frame available →
    /// final words (final).
    pub w: Window,
    /// Wall time of the window, drain included.
    pub wall_ns: u64,
    pub wer: WerStats,
    /// Traced runs: wall time not covered by the logged parts, percent.
    pub unaccounted_pct: f64,
    /// The open loop offered more than the engine could serve.
    pub overload: bool,
}

impl Outcome {
    pub fn new(start_ns: u64) -> Self {
        Self {
            w: Window::new(start_ns),
            ..Self::default()
        }
    }

    fn absorb(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.overload |= other.overload;
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    OfflineGrid,
    StreamRt,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "offline_grid" => Workload::OfflineGrid,
            "stream_rt" => Workload::StreamRt,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::OfflineGrid => "offline_grid",
            Workload::StreamRt => "stream_rt",
        }
    }

    /// Exports the set-up performs, and the policy they are exported under.
    fn exports(self) -> (&'static [&'static str], &'static str) {
        match self {
            Workload::OfflineGrid => (&metrics::VARIANTS, offline::EXPORT_POLICY),
            Workload::StreamRt => (&[stream::VARIANT], stream::POLICY),
        }
    }

    /// Threads the engine steps on (shards × workers); offline decoding
    /// runs on the calling thread.
    fn engine_threads(self, nproc: usize) -> (usize, usize) {
        match self {
            Workload::OfflineGrid => (1, 1),
            Workload::StreamRt => (1, nproc),
        }
    }

    fn run(
        self,
        setup: &setup::Setup,
        window_ns: u64,
        seed: u64,
        log: &mut SpanLog,
        layers: Option<&mut Values>,
    ) -> Outcome {
        match self {
            Workload::OfflineGrid => offline::run(setup, window_ns, seed, log, layers),
            Workload::StreamRt => stream::run(setup, window_ns, seed, log, layers, host::nproc()),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: darkbench --workload <offline_grid|stream_rt> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run the workload, print metadata and the result line; `Ok(false)` when
/// an output was wrong or a traced run did not reconcile.
fn run(args: &Args) -> Result<bool, darkside_core::Error> {
    let w = args.workload;
    let window_ns = args.seconds * 1_000_000_000;
    let (exports, export_policy) = w.exports();
    let mut log = SpanLog::new(false);
    let nproc = host::nproc();
    let (shards, workers) = w.engine_threads(nproc);
    let mut values = Values::default();
    let (out, mut correct, declared, fill) = if !args.trace {
        let (setup, setup_s) =
            setup::set_up(exports, export_policy, &mut log, &mut Values::default())?;
        let out = w.run(&setup, window_ns, args.seed, &mut log, None);
        values.set("setup_s", setup_s);
        values.set("decode_fps", out.w.decode_fps());
        values.set("wer_pct", out.wer.percent());
        let declared: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        (out, true, declared, None)
    } else {
        // Set up once with the program's recorder installed, then measure
        // the same window twice: untraced, then with spans recorded.
        log.set_recording(true);
        let setup = setup::set_up_traced(exports, export_policy, &mut log, &mut values)?;
        log.set_recording(false);
        let half = window_ns / 2;
        let mut plain = w.run(&setup, half, args.seed, &mut log, None);
        log.set_recording(true);
        let traced = w.run(&setup, half, args.seed, &mut log, Some(&mut values));
        let overhead = (ratio(plain.w.decode_fps(), traced.w.decode_fps()) - 1.0) * 100.0;
        values.set("trace.overhead_pct", overhead);
        values.set("trace.unaccounted_pct", traced.unaccounted_pct);
        let reconciled = traced.unaccounted_pct.abs() <= RECONCILE_TOLERANCE_PCT;
        if !reconciled {
            eprintln!(
                "trace does not reconcile: {:.2}% of wall time outside the logged parts \
                 (tolerance {RECONCILE_TOLERANCE_PCT}%)",
                traced.unaccounted_pct
            );
        }
        let path = std::path::PathBuf::from(format!(
            ".bench_out/{}-seed{}.spans.jsonl",
            w.name(),
            args.seed
        ));
        if let Err(e) = log.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        plain.absorb(&traced);
        (plain, reconciled, metrics::per_layer(), Some(0.0))
    };
    correct &= out.mismatches == 0;

    let meta = Json::obj(vec![(
        "meta",
        Json::obj(vec![
            ("workload", w.name().into()),
            ("seed", Json::U64(args.seed)),
            ("seconds", Json::U64(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("nproc", Json::U64(nproc as u64)),
            ("engine_shards", Json::U64(shards as u64)),
            ("engine_workers", Json::U64(workers as u64)),
            ("cpu_flags", host::cpu_flags()),
            ("commit", Json::Str(host::commit())),
            (
                "source_digest",
                Json::Str(host::source_digest(std::path::Path::new("."))),
            ),
            (
                "arrival_rate_per_s",
                if w == Workload::StreamRt {
                    stream::RATE_PER_S.into()
                } else {
                    Json::Null
                },
            ),
            (
                "partial_samples",
                Json::U64(out.w.samples(Kind::Partial) as u64),
            ),
            (
                "final_samples",
                Json::U64(out.w.samples(Kind::Final) as u64),
            ),
            (
                "latency_ms",
                Json::obj(
                    LATENCIES
                        .iter()
                        .map(|&(name, kind, q)| (name, reported(out.w.percentile(kind, q)).into()))
                        .collect(),
                ),
            ),
            ("frames", Json::U64(out.w.frames())),
            ("mismatches", Json::U64(out.mismatches)),
            ("overload", Json::Bool(out.overload)),
        ]),
    )]);
    println!("{}", meta.render());
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(out.attempted.max(1))),
        ("failed", Json::U64(out.failed)),
        ("metrics", values.render(&declared, fill)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "stream_rt",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::StreamRt);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "offline_grid", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "offline_grid", "--seed"]).is_err());
        assert!(parse(&["--workload", "offline_grid", "--bogus", "1"]).is_err());
    }
}
