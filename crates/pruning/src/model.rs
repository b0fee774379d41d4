//! Model-level magnitude pruning: one global quality parameter across every
//! prunable layer (ISSUE 2 tentpole; the paper's Table I procedure).
//!
//! The paper prunes with a *single* quality knob — each layer's threshold is
//! `quality × stddev(that layer's weights)` — and searches the knob until the
//! *global* sparsity (over all prunable weights) hits the 70/80/90 % target.
//! Per-layer sparsities then spread naturally around the target, which is
//! exactly the per-layer column of Table I. The fixed LDA input layer is
//! excluded (Table I: FC0 unprunable), as are biases.

use crate::blocked::{prune_to_sparsity_balanced, prune_to_sparsity_blocked, PruneStructure};
use crate::magnitude::{mask_for_quality, Mask};
use darkside_nn::{Layer, Mlp};

/// Result of the global quality search over a whole model.
#[derive(Clone, Debug)]
pub struct ModelPruneResult {
    /// One entry per `Mlp::layers` index: `Some(mask)` for pruned affine
    /// layers, `None` for LDA/pooling/normalization/softmax layers.
    pub masks: Vec<Option<Mask>>,
    /// The global quality parameter that lands on the target.
    pub quality: f32,
    /// Achieved global sparsity over the prunable weights.
    pub sparsity: f64,
}

impl ModelPruneResult {
    /// Zero the masked-out weights of `mlp` in place. This is both the
    /// initial prune and the body of the masked-retraining hook: pass
    /// `|m| result.apply(m)` as `after_step` to `Trainer::train_epoch` and
    /// every gradient update is re-projected onto the pruned support —
    /// Han et al.'s retraining loop.
    pub fn apply(&self, mlp: &mut Mlp) {
        assert_eq!(self.masks.len(), mlp.layers.len(), "mask/layer count");
        for (layer, mask) in mlp.layers.iter_mut().zip(&self.masks) {
            if let (Layer::Affine(a), Some(mask)) = (layer, mask) {
                mask.apply(&mut a.w);
            }
        }
    }

    /// Per-layer sparsities in layer order (Table I's per-layer column).
    pub fn per_layer_sparsity(&self) -> Vec<f64> {
        self.masks.iter().flatten().map(|m| m.sparsity()).collect()
    }
}

/// Masks for one global quality value, plus the global sparsity they imply.
fn masks_at_quality(mlp: &Mlp, quality: f32) -> (Vec<Option<Mask>>, f64) {
    let mut masks = Vec::with_capacity(mlp.layers.len());
    let (mut kept, mut total) = (0usize, 0usize);
    for layer in &mlp.layers {
        match layer {
            Layer::Affine(a) => {
                let mask = mask_for_quality(&a.w, quality);
                kept += mask.num_kept();
                total += a.w.rows() * a.w.cols();
                masks.push(Some(mask));
            }
            _ => masks.push(None),
        }
    }
    let sparsity = if total == 0 {
        0.0
    } else {
        1.0 - kept as f64 / total as f64
    };
    (masks, sparsity)
}

/// Whole-model pruning at one global `target` sparsity under `structure`.
///
/// `Unstructured` runs the Table I procedure: a bisection search for the
/// single global quality parameter that lands within `tol` of the target.
///
/// [`PruneStructure`] block dims are in the *serving* orientation (`r` over
/// output units, `c` over inputs), but masks live on the dense layer weights
/// `w` (`in_dim × out_dim`) — so an `r×c` serving tile is a `c×r` block on
/// `w`, and that swap happens exactly here. `Block` runs the per-layer
/// quality bisection of [`prune_to_sparsity_blocked`] layer by layer at the
/// global target (block-norm distributions differ enough per layer that a
/// per-layer search lands tighter than one global knob); `Balanced` fixes
/// the kept-blocks-per-block-row count per layer.
pub fn prune_mlp_to_sparsity(
    mlp: &Mlp,
    target: f64,
    tol: f64,
    structure: PruneStructure,
) -> ModelPruneResult {
    assert!((0.0..1.0).contains(&target), "target sparsity in [0, 1)");
    let Some((r, c)) = structure.block_dims() else {
        return global_bisection(mlp, target, tol);
    };
    // Serving tile r×c on Wᵀ (out×in) = block c×r on dense w (in×out).
    let (br, bc) = (c, r);
    let balanced = matches!(structure, PruneStructure::Balanced { .. });
    let mut masks = Vec::with_capacity(mlp.layers.len());
    let (mut kept, mut total) = (0usize, 0usize);
    let mut quality = 0.0f32;
    for layer in &mlp.layers {
        match layer {
            Layer::Affine(a) => {
                let res = if balanced {
                    prune_to_sparsity_balanced(&a.w, target, br, bc)
                } else {
                    prune_to_sparsity_blocked(&a.w, target, tol, br, bc)
                };
                kept += res.mask.num_kept();
                total += a.w.rows() * a.w.cols();
                quality = quality.max(res.quality);
                masks.push(Some(res.mask));
            }
            _ => masks.push(None),
        }
    }
    let sparsity = if total == 0 {
        0.0
    } else {
        1.0 - kept as f64 / total as f64
    };
    ModelPruneResult {
        masks,
        quality,
        sparsity,
    }
}

/// The unstructured arm: bisect the one global quality knob.
fn global_bisection(mlp: &Mlp, target: f64, tol: f64) -> ModelPruneResult {
    let (mut lo, mut hi) = (0.0f32, 8.0f32);
    let (mut masks, mut sparsity) = masks_at_quality(mlp, lo);
    let mut quality = lo;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        let (m, s) = masks_at_quality(mlp, mid);
        (masks, sparsity, quality) = (m, s, mid);
        if (s - target).abs() <= tol {
            break;
        }
        if s < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    ModelPruneResult {
        masks,
        quality,
        sparsity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkside_nn::Rng;

    fn model() -> Mlp {
        let mut rng = Rng::new(0xAB);
        Mlp::kaldi_style(20, 32, 4, 2, 9, &mut rng)
    }

    #[test]
    fn global_bisection_hits_paper_targets() {
        let mlp = model();
        for target in [0.7, 0.8, 0.9] {
            let r = prune_mlp_to_sparsity(&mlp, target, 0.005, PruneStructure::Unstructured);
            assert!(
                (r.sparsity - target).abs() <= 0.005,
                "target {target}: got {}",
                r.sparsity
            );
            // Per-layer sparsities spread around the global target.
            let per_layer = r.per_layer_sparsity();
            assert_eq!(per_layer.len(), 3); // 2 hidden + output affine
            assert!(per_layer.iter().all(|s| (0.0..1.0).contains(s)));
        }
    }

    #[test]
    fn structured_search_hits_targets_with_whole_serving_tiles() {
        let mlp = model();
        for structure in [PruneStructure::tile(), PruneStructure::row_vector()] {
            let r = prune_mlp_to_sparsity(&mlp, 0.9, 0.03, structure);
            assert!(
                (r.sparsity - 0.9).abs() <= 0.05,
                "{}: got {}",
                structure.label(),
                r.sparsity
            );
            assert!(r.masks[0].is_none(), "LDA must stay unprunable");
            // Serving-orientation r×c tile = c×r block on dense w: verify
            // the mask is constant over each c×r region of each layer.
            let (sr, sc) = structure.block_dims().unwrap();
            let (br, bc) = (sc, sr);
            for mask in r.masks.iter().flatten() {
                for ib in 0..mask.rows().div_ceil(br) {
                    for jb in 0..mask.cols().div_ceil(bc) {
                        let first = mask.kept(ib * br, jb * bc);
                        for i in ib * br..mask.rows().min((ib + 1) * br) {
                            for j in jb * bc..mask.cols().min((jb + 1) * bc) {
                                assert_eq!(mask.kept(i, j), first, "ragged block");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lda_is_never_masked_and_apply_zeroes_the_rest() {
        let mut mlp = model();
        let r = prune_mlp_to_sparsity(&mlp, 0.8, 0.01, PruneStructure::Unstructured);
        assert!(r.masks[0].is_none(), "LDA must be unprunable");
        r.apply(&mut mlp);
        let mut zeros = 0usize;
        let mut total = 0usize;
        for (layer, mask) in mlp.layers.iter().zip(&r.masks) {
            if let (Layer::Affine(a), Some(mask)) = (layer, mask) {
                zeros += a.w.as_slice().iter().filter(|v| **v == 0.0).count();
                total += a.w.as_slice().len();
                assert_eq!(
                    a.w.as_slice().len() - mask.num_kept(),
                    a.w.as_slice().iter().filter(|v| **v == 0.0).count()
                );
            }
        }
        assert!((zeros as f64 / total as f64 - r.sparsity).abs() < 1e-9);
    }
}
