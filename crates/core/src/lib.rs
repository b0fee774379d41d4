//! # darkside-core — the ASR system façade
//!
//! DESIGN.md §3: glues the substrate crates into the paper's evaluation —
//! a grid of model variants × hypothesis-selection policies (Figs. 7,
//! 11/12) and the servable bundles a serving engine runs.
//!
//! Build a [`pipeline::Pipeline`] from a [`pipeline::PipelineConfig`]
//! (builder-style `with_*` methods, `default_scaled()` = DESIGN.md §4b).
//! A [`ServableSpec`] (sparsity × structure × precision × retrain) names
//! one model variant; the pipeline turns every spec into a scorer through
//! one build path, drawing each pruned scorer from a prune + masked-retrain
//! artifact memoized per (target, structure, retrain epochs).
//! [`pipeline::Pipeline::run`] is the full corpus → train → prune → decode
//! study over `[dense] + prune_levels`,
//! [`pipeline::Pipeline::run_policy_grid`] any list of variants under any
//! list of [`PolicyKind`]s, and [`pipeline::Pipeline::servable`] exports one
//! variant as a [`ModelBundle`].

pub mod bundle;
pub mod pipeline;
pub mod policy;

pub use bundle::{ModelBundle, ServableSpec};
pub use darkside_error::Error;
pub use darkside_nn::Precision;
pub use darkside_pruning::PruneStructure;
pub use pipeline::{
    DecodingGraph, GraphConfig, LevelReport, Pipeline, PipelineConfig, PipelineReport,
    PolicyGridLevel, PolicyGridReport,
};
pub use policy::PolicyKind;

pub use darkside_acoustic as acoustic;
pub use darkside_decoder as decoder;
pub use darkside_dnn_accel as dnn_accel;
pub use darkside_hwmodel as hwmodel;
pub use darkside_nn as nn;
pub use darkside_pruning as pruning;
pub use darkside_quant as quant;
pub use darkside_trace as trace;
pub use darkside_viterbi_accel as viterbi_accel;
pub use darkside_wfst as wfst;
