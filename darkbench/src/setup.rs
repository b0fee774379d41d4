//! The shared set-up: one trained pipeline on the 200-word task and the
//! servable exports a workload needs. Timed as `setup_s`.

use crate::metrics::Values;
use crate::spans::SpanLog;
use darkside_core::acoustic::CorpusConfig;
use darkside_core::decoder::BeamConfig;
use darkside_core::trace::{self, MemoryRecorder, Recorder as _};
use darkside_core::viterbi_accel::{NBestTableConfig, UnfoldHashConfig};
use darkside_core::{
    Error, ModelBundle, Pipeline, PipelineConfig, PolicyKind, Precision, PruneStructure,
    ServableSpec,
};
use std::rc::Rc;

/// The serving beam every workload decodes under.
pub fn beam() -> BeamConfig {
    BeamConfig {
        beam: 12.0,
        ..BeamConfig::default()
    }
}

/// The smoke pipeline at production model shape (512 × 4 blocks, 12
/// epochs + 8 masked-retrain epochs) on a 200-word task: large enough that
/// a pruned model's flatter posteriors inflate search, which the 30-word
/// smoke graph never shows.
pub fn config() -> PipelineConfig {
    PipelineConfig::smoke()
        .with_model_shape(512, 4, 4)
        .with_training(12, 8)
        .with_corpus(CorpusConfig::large_vocab(200))
        .with_beam(beam())
}

pub fn policy(name: &str) -> PolicyKind {
    match name {
        "beam" => PolicyKind::Beam,
        "unfold" => PolicyKind::UnfoldHash(UnfoldHashConfig::scaled()),
        "nbest" => PolicyKind::LooseNBest(NBestTableConfig::scaled()),
        other => panic!("unknown policy {other}"),
    }
}

fn spec(variant: &str) -> ServableSpec {
    let pruned = ServableSpec::pruned(0.9);
    match variant {
        "dense" => ServableSpec::dense(),
        "csr90" => pruned,
        "bsr90" => pruned.with_structure(PruneStructure::tile()),
        "int8bsr90" => pruned
            .with_structure(PruneStructure::tile())
            .with_precision(Precision::Int8),
        other => panic!("unknown variant {other}"),
    }
}

/// A built pipeline and one bundle per requested variant.
pub struct Setup {
    pub pipeline: Pipeline,
    pub bundles: Vec<(&'static str, ModelBundle)>,
}

impl Setup {
    pub fn bundle(&self, variant: &str) -> &ModelBundle {
        &self
            .bundles
            .iter()
            .find(|(v, _)| *v == variant)
            .expect("variant was exported")
            .1
    }
}

/// `Pipeline::build` plus every export in `variants` (each decoding under
/// `policy` at the serving beam). Returns the set-up and its wall time in
/// seconds; per-call spans go to `log`, per-layer times to `layers`.
pub fn set_up(
    variants: &[&'static str],
    policy_name: &str,
    log: &mut SpanLog,
    layers: &mut Values,
) -> Result<(Setup, f64), Error> {
    let t0 = log.now();
    let pipeline = Pipeline::build(config())?;
    let t1 = log.now();
    log.record("build", 0, None, t0, t1);
    layers.set("core.build_s", (t1 - t0) as f64 / 1e9);
    let mut bundles = Vec::new();
    for (i, &variant) in variants.iter().enumerate() {
        let s = log.now();
        let bundle = pipeline.servable(
            spec(variant)
                .with_beam(beam())
                .with_policy(policy(policy_name)),
        )?;
        let e = log.now();
        log.record("servable", i as u64, None, s, e);
        if variant != "dense" {
            layers.set(format!("core.export_s.{variant}"), (e - s) as f64 / 1e9);
        }
        bundles.push((variant, bundle));
    }
    let secs = (log.now() - t0) as f64 / 1e9;
    Ok((Setup { pipeline, bundles }, secs))
}

/// One set-up with a recorder installed, reading the stage spans the
/// program emits (`corpus`, `graph`, `train`, `prune`, `retrain`,
/// `quantize`) into the `core.*` per-layer metrics.
pub fn set_up_traced(
    variants: &[&'static str],
    policy_name: &str,
    log: &mut SpanLog,
    layers: &mut Values,
) -> Result<Setup, Error> {
    let recorder = Rc::new(MemoryRecorder::new());
    let (setup, _) = trace::with_recorder(recorder.clone(), || {
        set_up(variants, policy_name, log, layers)
    })?;
    let snapshot = recorder.snapshot().expect("memory recorder keeps state");
    let secs = |span: &str| {
        snapshot
            .spans
            .get(span)
            .map_or(0.0, |agg| agg.total_ns as f64 / 1e9)
    };
    for (metric, span) in [
        ("core.build.corpus_s", "corpus"),
        ("core.build.graph_s", "graph"),
        ("core.build.train_s", "train"),
        ("core.export.prune_s", "prune"),
        ("core.export.retrain_s", "retrain"),
        ("core.export.quantize_s", "quantize"),
    ] {
        layers.set(metric, secs(span));
    }
    Ok(setup)
}
