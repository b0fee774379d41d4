//! What a serving workload needs besides its load generator: the
//! utterance pool with its one-shot reference transcripts, the check of
//! every served result, and the `serve.*` per-layer metrics.

use crate::metrics::{score_metric, Values};
use crate::spans::SpanLog;
use crate::stats::{ratio, Latencies, Window};
use crate::Outcome;
use darkside_core::acoustic::Utterance;
use darkside_core::decoder::{acoustic_costs, decode_with_policy, word_errors};
use darkside_core::nn::Rng;
use darkside_core::ModelBundle;
use darkside_serve::{ServedResult, ShardedScheduler};

/// Distinct utterances sessions draw from.
pub const POOL: usize = 128;
/// The pool is fixed; the seed decides the order sessions draw it in.
const POOL_SEED: u64 = 0x5E55_1045;

/// Utterances plus the words a one-shot `decode_with_policy` of the served
/// bundle returns for each (`None` when that decode failed).
pub struct Pool {
    pub utts: Vec<Utterance>,
    refs: Vec<Option<Vec<u32>>>,
    /// Utterances whose transcript already entered the WER tally.
    scored: Vec<bool>,
}

impl Pool {
    /// Draw the pool and decode every utterance once, untimed: the
    /// streaming == one-shot contract says a served transcript must equal
    /// this reference.
    pub fn new(corpus: &darkside_core::acoustic::Corpus, bundle: &ModelBundle) -> Self {
        let utts = corpus.sample_set(POOL, &mut Rng::new(POOL_SEED));
        let refs = utts
            .iter()
            .map(|u| {
                let costs = acoustic_costs(&bundle.scorer.score_frames(&u.frames), &bundle.beam);
                let mut policy = bundle.build_policy().ok()?;
                decode_with_policy(&bundle.graph, &costs, policy.as_mut())
                    .ok()
                    .map(|r| r.words)
            })
            .collect();
        let scored = vec![false; utts.len()];
        Self { utts, refs, scored }
    }
}

/// Decoder work of the served cell, summed over served sessions.
#[derive(Default)]
pub struct Served {
    frames: u64,
    arcs: u64,
    kept: u64,
}

/// Per-step engine observations.
#[derive(Default)]
pub struct Steps {
    pub count: u64,
    pub idle: u64,
    pub scored: u64,
    pub sessions: u64,
    /// Frames queued in the engine, read before each step.
    pub queued: Latencies,
}

impl Steps {
    /// Step the engine once, timing the call; returns when it ended.
    pub fn step(
        &mut self,
        engine: &mut ShardedScheduler,
        log: &mut SpanLog,
        w: &mut Window,
    ) -> u64 {
        self.queued.push(engine.queued_frames() as f64);
        let t0 = log.now();
        let st = engine.step().expect("engine step");
        let t1 = log.now();
        log.record("step", self.count, None, t0, t1);
        w.work(st.scored_frames as u64, t1 - t0);
        self.count += 1;
        if st.scored_frames == 0 {
            self.idle += 1;
        }
        self.scored += st.scored_frames as u64;
        self.sessions += st.batch_sessions as u64;
        t1
    }
}

/// Check one served result against the reference for pool utterance `utt`
/// and account it. Returns whether it was correct. `wer_pct` counts each
/// distinct utterance once: served words equal the reference, so repeats
/// would only weight the tally by how often the seed drew an utterance.
pub fn check(
    pool: &mut Pool,
    utt: usize,
    r: &ServedResult,
    out: &mut Outcome,
    served: &mut Served,
) -> bool {
    let reference = pool.refs[utt].as_ref();
    match &r.decode {
        Ok(d) if Some(&d.words) == reference => {
            if !std::mem::replace(&mut pool.scored[utt], true) {
                out.wer
                    .accumulate(&word_errors(&pool.utts[utt].words, &d.words));
            }
            let s = &d.stats;
            served.frames += s.arcs_expanded.len() as u64;
            served.arcs += s.arcs_expanded.iter().sum::<usize>() as u64;
            served.kept += s.active_tokens.iter().sum::<usize>() as u64;
            true
        }
        Ok(_) => {
            eprintln!("served transcript differs from the one-shot decode (utterance {utt})");
            out.mismatches += 1;
            out.failed += 1;
            false
        }
        Err(e) => {
            eprintln!("served decode failed (utterance {utt}): {e}");
            out.failed += 1;
            false
        }
    }
}

/// The `serve.*` and served-cell scoring and `decoder.*` metrics,
/// from the bench's spans, the step log and the engine's `metrics()`.
#[allow(clippy::too_many_arguments)]
pub fn layers(
    layers: &mut Values,
    engine: &ShardedScheduler,
    log: &SpanLog,
    steps: &Steps,
    served: &Served,
    (start_ns, wall_ns): (u64, u64),
    variant: &str,
    policy: &str,
) {
    let totals = log.totals(start_ns);
    let total = |name: &str| {
        totals
            .get(name)
            .map_or((0.0, 0.0), |&(ns, n)| (ns as f64, n as f64))
    };
    let mut step_us = Latencies::default();
    for ns in log.durations("step") {
        step_us.push(ns / 1e3);
    }
    let (step_ns, _) = total("step");
    let metrics = engine.metrics();
    let score_ns = metrics
        .spans
        .get("serve.score")
        .map_or(0.0, |s| s.total_ns as f64);
    let steps_n = steps.count as f64;
    layers.set("serve.step_us_p50", step_us.percentile(0.50));
    layers.set("serve.step_us_p99", step_us.percentile(0.99));
    layers.set("serve.frames_per_step", ratio(steps.scored as f64, steps_n));
    layers.set(
        "serve.sessions_per_step",
        ratio(steps.sessions as f64, steps_n),
    );
    layers.set("serve.queued_frames_p50", steps.queued.percentile(0.50));
    layers.set("serve.queued_frames_p99", steps.queued.percentile(0.99));
    layers.set("serve.busy_share", ratio(step_ns, wall_ns as f64));
    layers.set("serve.idle_step_share", ratio(steps.idle as f64, steps_n));
    // Shards score in parallel: compare against shard-time, not wall.
    layers.set(
        "serve.score_share",
        ratio(score_ns, step_ns * engine.shard_count() as f64),
    );
    let (push_ns, pushes) = total("push");
    layers.set("serve.push_us", ratio(push_ns, pushes) / 1e3);
    layers.set(
        "serve.arcs_per_frame",
        metrics
            .histograms
            .get("decode.frame.arcs")
            .map_or(0.0, |h| h.mean),
    );
    // The serve.score span wraps score_frames and acoustic_costs together.
    layers.set(
        score_metric(variant),
        ratio(score_ns, steps.scored as f64) / 1e3,
    );
    layers.set(
        "score.frames_per_call",
        ratio(steps.scored as f64, (steps.count - steps.idle) as f64),
    );
    let f = served.frames as f64;
    let key = format!("{variant}.{policy}");
    layers.set(
        format!("decoder.arcs_per_frame.{key}"),
        ratio(served.arcs as f64, f),
    );
    layers.set(
        format!("decoder.kept_per_expanded.{key}"),
        ratio(served.kept as f64, served.arcs as f64),
    );
}

/// Share of the `wall_ns` starting at `start_ns` that the logged spans do
/// not cover, percent. `names` are disjoint spans that together should
/// tile the run loop.
pub fn unaccounted_pct(log: &SpanLog, names: &[&str], (start_ns, wall_ns): (u64, u64)) -> f64 {
    let totals = log.totals(start_ns);
    let parts: u64 = names
        .iter()
        .filter_map(|n| totals.get(n).map(|&(ns, _)| ns))
        .sum();
    ratio(wall_ns as f64 - parts as f64, wall_ns as f64) * 100.0
}
