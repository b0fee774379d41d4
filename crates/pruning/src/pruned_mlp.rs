//! A whole acoustic model served from CSR weights, scoring through the same
//! [`FrameScorer`] interface as the dense [`Mlp`] (ISSUE 2 API redesign).
//!
//! The decoder, the pipeline, and the accelerator simulators never branch on
//! dense-vs-pruned: they hold a `&dyn FrameScorer` and this type is simply
//! the implementation whose affine layers run SpMM over surviving weights.

use crate::blocked::PruneStructure;
use crate::magnitude::Mask;
use crate::pruned_layer::PrunedAffine;
use darkside_nn::{stack_frames, traced_score_frames, Frame, FrameScorer, Layer, Mlp, Scores};

/// One layer of a pruned model: either a sparse-compressed affine or a dense
/// pass-through (LDA, p-norm, renormalize, softmax are never pruned).
#[derive(Clone, Debug)]
enum ScoringLayer {
    Dense(Layer),
    Sparse(PrunedAffine),
}

/// An [`Mlp`] whose masked affine layers are compressed to CSR (unstructured
/// masks) or BSR (block-structured masks).
#[derive(Clone, Debug)]
pub struct PrunedMlp {
    layers: Vec<ScoringLayer>,
    input_dim: usize,
    classes: usize,
}

impl PrunedMlp {
    /// Compress `mlp` under `masks` (one entry per layer, `None` = keep
    /// dense), picking the storage backend from `structure`: CSR for
    /// [`PruneStructure::Unstructured`], BSR tiles otherwise. The masked
    /// weights of `mlp` should already be zero — i.e. call
    /// [`crate::ModelPruneResult::apply`] (and retrain) first — and the
    /// masks must respect the structure (whole serving tiles), which the
    /// structured pruners guarantee. Only the storage format changes, never
    /// the math: every output bit is identical whichever backend serves it.
    pub fn new(mlp: &Mlp, masks: &[Option<Mask>], structure: PruneStructure) -> Self {
        assert_eq!(masks.len(), mlp.layers.len(), "mask/layer count");
        let layers = mlp
            .layers
            .iter()
            .zip(masks)
            .map(|(layer, mask)| match (layer, mask) {
                (Layer::Affine(a), Some(mask)) => {
                    ScoringLayer::Sparse(PrunedAffine::from_dense_structured(a, mask, structure))
                }
                (layer, None) => ScoringLayer::Dense(layer.clone()),
                (layer, Some(_)) => {
                    panic!("mask on a non-affine layer {layer:?}")
                }
            })
            .collect();
        Self {
            layers,
            input_dim: mlp.input_dim(),
            classes: mlp.output_dim(),
        }
    }

    /// Global sparsity over the sparse layers (0 if nothing is compressed).
    pub fn sparsity(&self) -> f64 {
        let (mut nnz, mut total) = (0usize, 0usize);
        for layer in &self.layers {
            if let ScoringLayer::Sparse(p) = layer {
                nnz += p.w.nnz();
                total += p.in_dim() * p.out_dim();
            }
        }
        if total == 0 {
            0.0
        } else {
            1.0 - nnz as f64 / total as f64
        }
    }

    /// Surviving weights across the sparse layers.
    pub fn nnz(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                ScoringLayer::Sparse(p) => p.w.nnz(),
                ScoringLayer::Dense(_) => 0,
            })
            .sum()
    }
}

impl FrameScorer for PrunedMlp {
    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn score_frames(&self, frames: &[Frame]) -> Scores {
        traced_score_frames(frames.len(), || {
            let mut x = stack_frames(frames, self.input_dim);
            for layer in &self.layers {
                x = match layer {
                    ScoringLayer::Dense(l) => l.forward(x),
                    ScoringLayer::Sparse(p) => p.forward(&x),
                };
            }
            Scores { probs: x }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::prune_mlp_to_sparsity;
    use darkside_nn::check::assert_matrices_close;
    use darkside_nn::Rng;

    #[test]
    fn pruned_model_matches_masked_dense_through_the_trait() {
        let mut rng = Rng::new(0xC0);
        let mut mlp = Mlp::kaldi_style(24, 32, 4, 2, 7, &mut rng);
        let result = prune_mlp_to_sparsity(&mlp, 0.9, 0.005, PruneStructure::Unstructured);
        result.apply(&mut mlp);
        let pruned = PrunedMlp::new(&mlp, &result.masks, PruneStructure::Unstructured);
        assert!((pruned.sparsity() - result.sparsity).abs() < 1e-9);
        assert_eq!(pruned.input_dim, 24);
        assert_eq!(pruned.classes, 7);

        let frames: Vec<Frame> = (0..13)
            .map(|_| Frame((0..24).map(|_| rng.normal()).collect()))
            .collect();
        // Score both through the one interface, as every call site does.
        let scorers: [&dyn FrameScorer; 2] = [&mlp, &pruned];
        let dense_scores = scorers[0].score_frames(&frames);
        let sparse_scores = scorers[1].score_frames(&frames);
        assert_matrices_close(
            &sparse_scores.probs,
            &dense_scores.probs,
            1e-4,
            "pruned vs masked dense scoring",
        );
    }
}
