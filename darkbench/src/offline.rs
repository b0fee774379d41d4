//! `offline_grid`: the paper's study as a researcher runs it. Every
//! variant decodes a fixed held-out set under every policy, on the calling
//! thread, one utterance per scoring batch, with no serving layer:
//! `score_frames` → `acoustic_costs` → `decode_with_policy`.

use crate::metrics::{score_metric, Values, POLICIES, VARIANTS};
use crate::schedule::CHUNK_FRAMES;
use crate::setup::{self, Setup};
use crate::spans::SpanLog;
use crate::stats::{ratio, Kind};
use crate::Outcome;
use darkside_core::decoder::{acoustic_costs, decode_with_policy, word_errors};
use darkside_core::nn::Rng;

/// Held-out utterances per cell and pass (the first 24 of this draw decode
/// without a single word error in any cell, which would leave `wer_pct`
/// blind; 48 include errors from every variant).
const HELD_OUT: usize = 48;
/// The held-out set is fixed (the seed only orders the cells), so
/// `wer_pct` reads the same on every run of unchanged code.
const HELD_OUT_SEED: u64 = 0x0FF1_1E5E;

/// Bundles are exported under beam; each cell swaps in its policy.
pub const EXPORT_POLICY: &str = "beam";

/// Per-cell (variant × policy) work, summed over passes.
#[derive(Clone, Copy, Default)]
struct Cell {
    frames: u64,
    score_ns: u64,
    costs_ns: u64,
    search_ns: u64,
    arcs: u64,
    kept: u64,
    table_ops: u64,
    evictions: u64,
    overflows: u64,
}

/// Decode whole passes over the held-out set until `window_ns` has
/// elapsed; a pass decodes each utterance in all 12 cells, in an order
/// shuffled per utterance from `seed`, so drift on the host spreads over
/// every cell alike. Whole passes keep `wer_pct` independent of timing.
pub fn run(
    setup: &Setup,
    window_ns: u64,
    seed: u64,
    log: &mut SpanLog,
    layers: Option<&mut Values>,
) -> Outcome {
    let utts = setup
        .pipeline
        .corpus
        .sample_set(HELD_OUT, &mut Rng::new(HELD_OUT_SEED));
    let beam = setup::beam();
    let ncells = VARIANTS.len() * POLICIES.len();
    let mut cells = vec![Cell::default(); ncells];
    let mut words: Vec<Option<Vec<u32>>> = vec![None; ncells * HELD_OUT];
    let mut rng = Rng::new(seed);
    let start = log.now();
    let mut out = Outcome::new(start);
    let mut pass = 0u64;
    let mut order: Vec<usize> = (0..ncells).collect();
    loop {
        for (u, utt) in utts.iter().enumerate() {
            for i in (1..ncells).rev() {
                order.swap(i, rng.below(i + 1));
            }
            for &c in &order {
                let (v, p) = (c / POLICIES.len(), c % POLICIES.len());
                let bundle = setup.bundle(VARIANTS[v]);
                let kind = setup::policy(POLICIES[p]);
                let id = (pass * ncells as u64 + c as u64) * HELD_OUT as u64 + u as u64;
                let t0 = log.now();
                let scores = bundle.scorer.score_frames(&utt.frames);
                let t1 = log.now();
                let costs = acoustic_costs(&scores, &beam);
                let t2 = log.now();
                let decoded = kind.build(&beam).and_then(|mut policy| {
                    decode_with_policy(&bundle.graph, &costs, policy.as_mut())
                });
                let t3 = log.now();
                let parent = log.record("utterance", id, None, t0, t3);
                log.record("score_frames", id, parent, t0, t1);
                log.record("acoustic_costs", id, parent, t1, t2);
                log.record("decode_with_policy", id, parent, t2, t3);

                let n = utt.frames.len() as u64;
                let cell = &mut cells[c];
                cell.frames += n;
                cell.score_ns += t1 - t0;
                cell.costs_ns += t2 - t1;
                cell.search_ns += t3 - t2;
                out.w.work(n, t3 - t0);
                out.attempted += 1;
                // One-shot decoding covers every chunk when the call returns.
                let chunks = utt.frames.len().div_ceil(CHUNK_FRAMES);
                let ms = (t3 - t0) as f64 / 1e6;
                match decoded {
                    Ok(r) => {
                        out.w.latency(Kind::Final, t3, ms);
                        (0..chunks).for_each(|_| out.w.latency(Kind::Partial, t3, ms));
                        out.wer.accumulate(&word_errors(&utt.words, &r.words));
                        let s = &r.stats;
                        cell.arcs += s.arcs_expanded.iter().sum::<usize>() as u64;
                        cell.kept += s.active_tokens.iter().sum::<usize>() as u64;
                        cell.table_ops += s.table_reads + s.table_writes;
                        cell.evictions += s.evictions;
                        cell.overflows += s.overflows;
                        words[c * HELD_OUT + u] = Some(r.words);
                    }
                    Err(e) => {
                        eprintln!("decode failed ({} {}): {e}", VARIANTS[v], POLICIES[p]);
                        out.failed += 1;
                        out.w.fail(Kind::Final, t3);
                        (0..chunks).for_each(|_| out.w.fail(Kind::Partial, t3));
                        words[c * HELD_OUT + u] = None;
                    }
                }
            }
        }
        // UNFOLD's storage changes accounting, never the search: beam and
        // unfold must agree word for word on every utterance.
        for (v, variant) in VARIANTS.iter().enumerate() {
            let beam_cell = v * POLICIES.len();
            let unfold_cell = beam_cell + 1;
            for u in 0..HELD_OUT {
                let (b, f) = (
                    &words[beam_cell * HELD_OUT + u],
                    &words[unfold_cell * HELD_OUT + u],
                );
                if b.is_some() && f.is_some() && b != f {
                    eprintln!("beam/unfold mismatch: {variant} utterance {u}");
                    out.mismatches += 1;
                    out.failed += 1;
                }
            }
        }
        pass += 1;
        if log.now() - start >= window_ns {
            break;
        }
    }
    out.wall_ns = log.now() - start;

    if let Some(layers) = layers {
        let sum = |f: fn(&Cell) -> u64, range: std::ops::Range<usize>| -> f64 {
            cells[range].iter().map(f).sum::<u64>() as f64
        };
        let all = 0..ncells;
        let frames = sum(|c| c.frames, all.clone());
        for (v, variant) in VARIANTS.iter().enumerate() {
            let row = v * POLICIES.len()..(v + 1) * POLICIES.len();
            layers.set(
                score_metric(variant),
                ratio(sum(|c| c.score_ns, row.clone()), sum(|c| c.frames, row)) / 1e3,
            );
            for (p, policy) in POLICIES.iter().enumerate() {
                let c = &cells[v * POLICIES.len() + p];
                let (f, key) = (c.frames as f64, format!("{variant}.{policy}"));
                layers.set(
                    format!("decoder.search_us_per_frame.{key}"),
                    ratio(c.search_ns as f64, f) / 1e3,
                );
                layers.set(
                    format!("decoder.arcs_per_frame.{key}"),
                    ratio(c.arcs as f64, f),
                );
                layers.set(
                    format!("decoder.kept_per_expanded.{key}"),
                    ratio(c.kept as f64, c.arcs as f64),
                );
                if *policy != "beam" {
                    layers.set(
                        format!("viterbi_accel.table_ops_per_frame.{key}"),
                        ratio(c.table_ops as f64, f),
                    );
                }
                match *policy {
                    "nbest" => layers.set(
                        format!("viterbi_accel.evictions_per_frame.{key}"),
                        ratio(c.evictions as f64, f),
                    ),
                    "unfold" => layers.set(
                        format!("viterbi_accel.overflows_per_frame.{key}"),
                        ratio(c.overflows as f64, f),
                    ),
                    _ => {}
                }
            }
        }
        layers.set("score.frames_per_call", ratio(frames, out.attempted as f64));
        layers.set(
            "decoder.costs_us_per_frame",
            ratio(sum(|c| c.costs_ns, all.clone()), frames) / 1e3,
        );
        // Parts (score + costs + search) against the whole decode wall.
        let parts = sum(|c| c.score_ns + c.costs_ns + c.search_ns, all);
        out.unaccounted_pct = ratio(out.wall_ns as f64 - parts, out.wall_ns as f64) * 100.0;
    }
    out
}
