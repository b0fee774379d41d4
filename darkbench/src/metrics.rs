//! The metric catalogue (the names `BENCHMARK.json` declares) and the
//! result line every run prints last.

use darkside_core::trace::Json;
use std::collections::BTreeMap;

/// Model variants, in the order the study reports them.
pub const VARIANTS: [&str; 4] = ["dense", "csr90", "bsr90", "int8bsr90"];
/// Hypothesis-selection policies, in the order the study reports them.
pub const POLICIES: [&str; 3] = ["beam", "unfold", "nbest"];

/// End-to-end metrics: every workload measures every one of them.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("decode_fps", "frames/s"),
    ("wer_pct", "%"),
];

/// Per-layer metrics of the traced run, with units. A workload that never
/// enters a layer reports 0 for it (no work done there).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for name in [
        "core.build_s",
        "core.build.corpus_s",
        "core.build.graph_s",
        "core.build.train_s",
        "core.export_s.csr90",
        "core.export_s.bsr90",
        "core.export_s.int8bsr90",
        "core.export.prune_s",
        "core.export.retrain_s",
        "core.export.quantize_s",
    ] {
        add(name.into(), "s");
    }
    for v in VARIANTS {
        add(score_metric(v), "us");
    }
    add("score.frames_per_call".into(), "frames");
    add("decoder.costs_us_per_frame".into(), "us");
    for v in VARIANTS {
        for p in POLICIES {
            add(format!("decoder.search_us_per_frame.{v}.{p}"), "us");
            add(format!("decoder.arcs_per_frame.{v}.{p}"), "arcs/frame");
            add(format!("decoder.kept_per_expanded.{v}.{p}"), "ratio");
        }
    }
    for v in VARIANTS {
        add(
            format!("viterbi_accel.table_ops_per_frame.{v}.unfold"),
            "ops/frame",
        );
        add(
            format!("viterbi_accel.table_ops_per_frame.{v}.nbest"),
            "ops/frame",
        );
        add(
            format!("viterbi_accel.evictions_per_frame.{v}.nbest"),
            "1/frame",
        );
        add(
            format!("viterbi_accel.overflows_per_frame.{v}.unfold"),
            "1/frame",
        );
    }
    for (name, unit) in [
        ("serve.step_us_p50", "us"),
        ("serve.step_us_p99", "us"),
        ("serve.frames_per_step", "frames"),
        ("serve.sessions_per_step", "sessions"),
        ("serve.queued_frames_p50", "frames"),
        ("serve.queued_frames_p99", "frames"),
        ("serve.busy_share", "ratio"),
        ("serve.idle_step_share", "ratio"),
        ("serve.score_share", "ratio"),
        ("serve.push_us", "us"),
        ("serve.arcs_per_frame", "arcs/frame"),
        ("bench.gen_lag_p50_ms", "ms"),
        ("bench.gen_lag_p99_ms", "ms"),
        ("bench.backlog_frames_end", "frames"),
        ("bench.drain_s", "s"),
        ("trace.overhead_pct", "%"),
        ("trace.unaccounted_pct", "%"),
    ] {
        add(name.into(), unit);
    }
    out
}

/// The scoring metric of one variant, named after the crate whose kernel
/// serves it.
pub fn score_metric(variant: &str) -> String {
    let layer = match variant {
        "dense" => "nn",
        "int8bsr90" => "quant",
        _ => "pruning",
    };
    format!("{layer}.score_us_per_frame.{variant}")
}

/// Measured values by name; rendered against a declared list.
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `declared`, in its
    /// order. `fill` supplies names this run did not set (`None` means every
    /// declared name must be set).
    pub fn render(&self, declared: &[(String, &str)], fill: Option<f64>) -> Json {
        Json::Obj(
            declared
                .iter()
                .map(|(name, unit)| {
                    let value = self
                        .get(name)
                        .or(fill)
                        .unwrap_or_else(|| panic!("metric {name} was never measured"));
                    (
                        name.clone(),
                        Json::obj(vec![("value", value.into()), ("unit", (*unit).into())]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        names.extend(["offline_grid", "stream_rt"].map(String::from));
        for n in &names {
            assert!(
                text.contains(&format!("\"name\": \"{n}\"")),
                "{n} not declared"
            );
        }
        assert_eq!(text.matches("\"name\":").count(), names.len());
    }
}
