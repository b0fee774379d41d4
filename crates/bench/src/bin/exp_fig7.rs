//! Fig. 7 reproduction: the loose N-best table bounds the pruning-induced
//! workload explosion that inflates a pure beam search (ISSUE 3).
//!
//! Runs the pipeline's per-level × per-policy grid — Beam (the paper's
//! "Baseline" search), UNFOLD's hash + backup-buffer storage, and the
//! paper's K-way set-associative loose N-best table — over the same
//! scorers, so the columns differ only in hypothesis admission. Checked
//! shape targets (full run):
//!
//! * Beam hypotheses/frame at 90 % sparsity exceed 3× its dense count
//!   (the Fig. 4 explosion, re-measured per policy);
//! * N-best hypotheses/frame at 90 % stay under 1.5× its dense count
//!   (the table's capacity clamps survivors, so the explosion cannot
//!   propagate);
//! * UNFOLD tracks Beam exactly (it stores everything; the cost shows up
//!   as overflow traffic, not pruning).
//!
//! `--smoke` runs the CI-sized pipeline and checks the ordering only
//! (N-best growth < Beam growth), in seconds.
//!
//! `--structured` (ISSUE 6) re-runs every pruned level with register-tile
//! 8×8 structured pruning alongside the unstructured row, so the grid
//! reads off the structured-vs-unstructured WER gap at equal sparsity per
//! policy, and gates that the structured 90 % WER stays within +0.5 %
//! absolute of unstructured 90 % — the accuracy price of tiling must not
//! eat the serving win `serve_load` measures.
//!
//! `--quantized` adds int8-scored rows (dense, and every level on the
//! study's structure) at the *same* masked weights, and gates that the
//! quantized 90 % WER stays within +0.5 % absolute of f32 per policy — the
//! int8 bandwidth win must not cost accuracy either. Composes with
//! `--structured` for the serving deployment's exact recipe (tile-pruned,
//! int8-BSR-served).
//!
//! The rows are listed explicitly as [`ServableSpec`]s: dense, int8 dense,
//! then per level the unstructured row, the 8×8-tile row and the int8 row.

use darkside_bench::report::{
    check, json_arg, policy_grid_json, print_policy_grid, print_policy_latency, write_json_file,
};
use darkside_core::trace::{self, MemoryRecorder};
use darkside_core::viterbi_accel::{NBestTableConfig, UnfoldHashConfig};
use darkside_core::wfst::GraphSource;
use darkside_core::{
    Pipeline, PipelineConfig, PolicyGridReport, PolicyKind, Precision, PruneStructure, ServableSpec,
};
use std::rc::Rc;

/// The (level, structure, precision, policy) cell, panicking on absent
/// cells so a renamed label fails loudly instead of gating on the wrong
/// row. Precision joined the key in ISSUE 10: quantized rows share their
/// (level, structure) with the f32 rows they ablate.
fn cell<'r>(
    report: &'r PolicyGridReport,
    level: &str,
    structure: &str,
    precision: &str,
    policy: &str,
) -> &'r darkside_core::LevelReport {
    report
        .levels
        .iter()
        .find(|l| l.label == level && l.structure == structure && l.precision == precision)
        .and_then(|l| l.per_policy.iter().find(|c| c.policy == policy))
        .unwrap_or_else(|| {
            panic!("no ({level}, {structure}, {precision}, {policy}) cell in the grid")
        })
}

/// Hypotheses/frame for one unstructured f32 (level, policy) cell.
fn hyps(report: &PolicyGridReport, level: &str, policy: &str) -> f64 {
    cell(report, level, "unstructured", "f32", policy).mean_hypotheses
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let structured = std::env::args().any(|a| a == "--structured");
    let quantized = std::env::args().any(|a| a == "--quantized");
    let json_path = json_arg().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let start = std::time::Instant::now();

    let (config, nbest) = if smoke {
        // CI scale: a small table that still binds on the smoke graph.
        (
            PipelineConfig::smoke(),
            NBestTableConfig {
                entries: 64,
                ways: 8,
            },
        )
    } else {
        // 32 × 8 rather than the Table III scaled 256: the table must
        // already bind on the *dense* workload (256 entries leave mean
        // occupancy at ~97 — all slack, so pruning-induced growth passes
        // straight through at 2.7×; 64 entries still grow 1.6×). The
        // paper's Fig. 7 sweep picks N the same way — small enough to
        // clamp, large enough to keep WER at baseline (2.1 % vs 1.8 %
        // dense here).
        (
            PipelineConfig::default_scaled(),
            NBestTableConfig {
                entries: 32,
                ways: 8,
            },
        )
    };
    // The structured study runs the serving deployment's recipe: block
    // pruning removes whole 8×8 tiles, so the masked-retraining budget
    // that recovers element pruning in 3 epochs leaves a tile-pruned 90 %
    // model confidence-collapsed (8×+ WER). Longer retraining applies to
    // *both* structures — the WER gap is read at equal sparsity and equal
    // training, the only difference being the pruning granularity. The
    // N-best table is re-sized to 64×8 by the paper's own Fig. 7
    // procedure (pick N so table WER stays at the unbounded policies'
    // baseline): tile pruning leaves flatter posteriors even after
    // retraining, and a 32-entry table clamps the true path away (6.4 %
    // WER) where 64 entries keep it.
    let (config, nbest) = if structured {
        (
            config.with_training(14, 24),
            NBestTableConfig {
                entries: 64,
                ways: 8,
            },
        )
    } else {
        (config, nbest)
    };
    // `--quantized` composes with either mode: dense and every level gain
    // an int8-scored row at the *same* masked weights as the study's
    // structure, so the grid reads the quantization WER cost at equal
    // sparsity per policy — and gates it.
    let structure = if structured {
        PruneStructure::tile()
    } else {
        PruneStructure::Unstructured
    };
    let mut variants = vec![ServableSpec::dense()];
    if quantized {
        variants.push(ServableSpec::dense().with_precision(Precision::Int8));
    }
    for &target in &config.prune_levels {
        let study = ServableSpec::pruned(target).with_structure(structure);
        variants.push(ServableSpec::pruned(target));
        if structured {
            variants.push(study);
        }
        if quantized {
            variants.push(study.with_precision(Precision::Int8));
        }
    }
    let policies = [
        PolicyKind::Beam,
        PolicyKind::UnfoldHash(UnfoldHashConfig::scaled()),
        PolicyKind::LooseNBest(nbest),
    ];

    let pipeline = Pipeline::build(config).expect("pipeline build");
    // The grid runs under a MemoryRecorder so every cell carries per-frame
    // latency percentiles (ISSUE 4); trace_neutrality.rs pins that the
    // recorder cannot change the decode itself.
    let report = trace::with_recorder(Rc::new(MemoryRecorder::new()), || {
        pipeline.run_policy_grid(&variants, &policies)
    })
    .expect("policy grid");
    println!(
        "exp_fig7{}{}: graph {} states / {} arcs, nbest table {} entries × {} ways",
        if smoke { " (smoke)" } else { "" },
        if quantized { " (quantized)" } else { "" },
        pipeline.graph.num_states(),
        pipeline.graph.num_arcs(),
        nbest.entries,
        nbest.ways,
    );
    print_policy_grid(&report);
    println!();
    print_policy_latency(&report);
    println!("elapsed: {:.1}s", start.elapsed().as_secs_f64());
    if let Some(path) = &json_path {
        write_json_file(path, &policy_grid_json("exp_fig7", &report))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("recorded {path}");
    }

    let beam_growth = hyps(&report, "90%", "beam") / hyps(&report, "dense", "beam");
    let nbest_growth = hyps(&report, "90%", "nbest") / hyps(&report, "dense", "nbest");
    let unfold_growth = hyps(&report, "90%", "unfold") / hyps(&report, "dense", "unfold");

    let mut ok = check(
        "nbest grows less than beam",
        nbest_growth < beam_growth,
        format!("nbest {nbest_growth:.2}× vs beam {beam_growth:.2}×"),
    );
    ok &= check(
        "unfold tracks beam",
        (unfold_growth - beam_growth).abs() < 1e-9,
        format!("unfold {unfold_growth:.2}× vs beam {beam_growth:.2}×"),
    );
    // The absolute explosion magnitudes are shape targets of the *default*
    // training recipe (3 retrain epochs — the paper's confidence collapse
    // at its starkest). The structured study retrains much longer, which
    // partially restores confidence and softens the explosion; its
    // ordering checks above and the WER-gap gate below still apply.
    if !smoke && !structured {
        ok &= check(
            "beam explodes at 90%",
            beam_growth > 3.0,
            format!("{beam_growth:.2}× (target > 3×)"),
        );
        ok &= check(
            "nbest bounds the explosion",
            nbest_growth < 1.5,
            format!("{nbest_growth:.2}× (target < 1.5×)"),
        );
    }
    // Smoke's retrain-free toy model decodes at ~100% WER by design (the
    // smoke checks are ordering-only), so the accuracy gate is full-only.
    if structured && !smoke {
        let tag = structure.label();
        for policy in report.policies.clone() {
            let u = cell(&report, "90%", "unstructured", "f32", &policy).wer_percent;
            let s = cell(&report, "90%", &tag, "f32", &policy).wer_percent;
            ok &= check(
                &format!("structured 90% WER within +0.5% of unstructured ({policy})"),
                s <= u + 0.5,
                format!("{tag} {s:.2}% vs unstructured {u:.2}%"),
            );
        }
    }
    // The quantized rows score the *same* masked weights through the int8
    // store, so any WER delta is pure quantization error. Smoke's toy model
    // decodes at ~100% WER by design, so smoke only gates row presence; the
    // full run holds the quantized WER to +0.5% absolute of f32 at 90% for
    // every policy.
    if quantized {
        let tag = structure.label();
        for policy in report.policies.clone() {
            let q = cell(&report, "90%", &tag, "int8", &policy);
            let d = cell(&report, "dense", "unstructured", "int8", &policy);
            ok &= check(
                &format!("quantized rows present at dense and 90% ({policy})"),
                q.mean_hypotheses > 0.0 && d.mean_hypotheses > 0.0,
                format!(
                    "int8 90% {:.1} hyps/frame, int8 dense {:.1}",
                    q.mean_hypotheses, d.mean_hypotheses
                ),
            );
        }
        if !smoke {
            for policy in report.policies.clone() {
                let f = cell(&report, "90%", &tag, "f32", &policy).wer_percent;
                let q = cell(&report, "90%", &tag, "int8", &policy).wer_percent;
                ok &= check(
                    &format!("quantized 90% WER within +0.5% of f32 ({policy})"),
                    q <= f + 0.5,
                    format!("int8 {q:.2}% vs f32 {f:.2}% on {tag}"),
                );
            }
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}
