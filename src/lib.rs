//! # darkside — reproduction of *The Dark Side of DNN Pruning* (ISCA 2018)
//!
//! Umbrella crate: re-exports every workspace member under a short module
//! name so downstream users and the examples write `darkside::nn::Mlp`
//! instead of spelling out nine crate dependencies. See DESIGN.md for the
//! architecture and crate inventory, EXPERIMENTS.md for the reproduction
//! targets.

pub use darkside_acoustic as acoustic;
pub use darkside_core as core;
pub use darkside_decoder as decoder;
pub use darkside_dnn_accel as dnn_accel;
pub use darkside_hwmodel as hwmodel;
pub use darkside_nn as nn;
pub use darkside_pruning as pruning;
pub use darkside_quant as quant;
pub use darkside_serve as serve;
pub use darkside_trace as trace;
pub use darkside_viterbi_accel as viterbi_accel;
pub use darkside_wfst as wfst;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reaches_every_crate() {
        // One symbol per re-export, so a broken path fails to compile here
        // rather than in a downstream example.
        let _ = crate::acoustic::PhonemeInventory::default_scaled();
        let _ = crate::core::ServableSpec::dense();
        let _ = crate::decoder::BeamConfig::default();
        let _ = crate::dnn_accel::DnnAccelConfig::paper();
        let _ = crate::hwmodel::EnergyAccount::default();
        let _ = crate::nn::Matrix::zeros(1, 1);
        let _ = crate::pruning::Csr::from_dense(&crate::nn::Matrix::zeros(1, 1)).unwrap();
        let _ = crate::quant::quantize_value(0.0, 1.0);
        let _ = crate::serve::ServeConfig::default();
        let _ = crate::trace::MemoryRecorder::new();
        let _ = crate::viterbi_accel::NBestTableConfig::paper();
        let _ = crate::wfst::TropicalWeight::ONE;
    }
}
