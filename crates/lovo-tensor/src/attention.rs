//! Multi-head scaled dot-product attention.
//!
//! The same module implements self-attention (queries, keys and values all
//! derived from one token matrix) and cross-attention (queries from one
//! modality, keys/values from the other), which is exactly the layer structure
//! the paper's feature enhancer and cross-modality decoder use (§VI-B):
//! image-to-text attention uses `Q_image, K_text, V_text`; text-to-image
//! attention swaps the roles.

use crate::nn::Linear;
use crate::ops::softmax_rows;
use crate::{Matrix, Result, TensorError};
use serde::{Deserialize, Serialize};

/// Multi-head scaled dot-product attention with separate Q/K/V/O projections.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadAttention {
    num_heads: usize,
    head_dim: usize,
    q_proj: Linear,
    k_proj: Linear,
    v_proj: Linear,
    out_proj: Linear,
}

impl MultiHeadAttention {
    /// Creates an attention block over `model_dim`-wide tokens with
    /// `num_heads` heads. `model_dim` must be divisible by `num_heads`.
    pub fn new(model_dim: usize, num_heads: usize, seed: u64, label: &str) -> Result<Self> {
        if num_heads == 0 || model_dim == 0 {
            return Err(TensorError::InvalidArgument(
                "attention dimensions must be non-zero".to_string(),
            ));
        }
        if model_dim % num_heads != 0 {
            return Err(TensorError::InvalidArgument(format!(
                "model_dim {model_dim} not divisible by num_heads {num_heads}"
            )));
        }
        Ok(Self {
            num_heads,
            head_dim: model_dim / num_heads,
            q_proj: Linear::new(model_dim, model_dim, seed, &format!("{label}.q")),
            k_proj: Linear::new(model_dim, model_dim, seed, &format!("{label}.k")),
            v_proj: Linear::new(model_dim, model_dim, seed, &format!("{label}.v")),
            out_proj: Linear::new(model_dim, model_dim, seed, &format!("{label}.o")),
        })
    }

    /// Model (token embedding) dimension.
    pub fn model_dim(&self) -> usize {
        self.num_heads * self.head_dim
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Self-attention: queries, keys and values all come from `tokens`.
    pub fn self_attention(&self, tokens: &Matrix) -> Result<Matrix> {
        self.cross_attention(tokens, tokens)
    }

    /// Cross-attention: queries come from `queries`, keys and values from
    /// `context`. Output has one row per query token. Equal to projecting
    /// with [`Self::project_q`], [`Self::project_k`] and [`Self::project_v`]
    /// and then calling [`Self::attend`], which is how it is computed.
    pub fn cross_attention(&self, queries: &Matrix, context: &Matrix) -> Result<Matrix> {
        self.attend(
            &self.project_q(queries)?,
            &self.project_k(context)?,
            &self.project_v(context)?,
        )
    }

    /// The query projection of `tokens`. Each output row depends only on
    /// the matching input row, so a row projected alone, inside any batch,
    /// or once into a lookup table is bit-identical.
    pub fn project_q(&self, tokens: &Matrix) -> Result<Matrix> {
        self.q_proj.forward(tokens)
    }

    /// The key projection of `tokens` (row-independent, like
    /// [`Self::project_q`]).
    pub fn project_k(&self, tokens: &Matrix) -> Result<Matrix> {
        self.k_proj.forward(tokens)
    }

    /// The value projection of `tokens` (row-independent, like
    /// [`Self::project_q`]).
    pub fn project_v(&self, tokens: &Matrix) -> Result<Matrix> {
        self.v_proj.forward(tokens)
    }

    /// Scaled dot-product attention over already-projected queries `q` and
    /// keys/values `k`, `v` (one row per context token), followed by the
    /// output projection. Output has one row per row of `q`; it is all zeros
    /// when either side has no tokens.
    pub fn attend(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Result<Matrix> {
        let model_dim = self.model_dim();
        if q.cols() != model_dim
            || k.cols() != model_dim
            || v.cols() != model_dim
            || k.rows() != v.rows()
        {
            return Err(TensorError::ShapeMismatch(format!(
                "attend: q {}x{}, k {}x{}, v {}x{}, model_dim {model_dim}",
                q.rows(),
                q.cols(),
                k.rows(),
                k.cols(),
                v.rows(),
                v.cols()
            )));
        }
        if q.rows() == 0 || k.rows() == 0 {
            return Ok(Matrix::zeros(q.rows(), model_dim));
        }

        let mut concat = Matrix::zeros(q.rows(), model_dim);
        for head in 0..self.num_heads {
            let start = head * self.head_dim;
            let end = start + self.head_dim;
            let head_out = self
                .head_weights(q, k, head)?
                .matmul(&v.columns(start, end)?)?;
            for r in 0..concat.rows() {
                concat.row_mut(r)[start..end].copy_from_slice(head_out.row(r));
            }
        }

        self.out_proj.forward(&concat)
    }

    /// One head's attention weights: `softmax(q_h k_h^T / sqrt(d_head))`
    /// over the head's column slice of the projected `q` and `k`.
    fn head_weights(&self, q: &Matrix, k: &Matrix, head: usize) -> Result<Matrix> {
        let start = head * self.head_dim;
        let end = start + self.head_dim;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut scores = q
            .columns(start, end)?
            .matmul_transposed(&k.columns(start, end)?)?
            .scale(scale);
        softmax_rows(&mut scores);
        Ok(scores)
    }

    /// Returns the attention weights (after softmax) between `queries` and
    /// `context`, averaged over heads. Shape `(num_queries, num_context)`.
    ///
    /// The rerank stage uses this to expose which image patch the query text
    /// attends to, which in turn drives box selection.
    pub fn attention_weights(&self, queries: &Matrix, context: &Matrix) -> Result<Matrix> {
        let q = self.project_q(queries)?;
        let k = self.project_k(context)?;
        let mut avg = Matrix::zeros(queries.rows(), context.rows());
        for head in 0..self.num_heads {
            avg = avg.add(&self.head_weights(&q, &k, head)?)?;
        }
        Ok(avg.scale(1.0 / self.num_heads as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_indivisible_heads() {
        assert!(MultiHeadAttention::new(10, 3, 0, "a").is_err());
        assert!(MultiHeadAttention::new(0, 1, 0, "a").is_err());
        assert!(MultiHeadAttention::new(12, 3, 0, "a").is_ok());
    }

    #[test]
    fn self_attention_preserves_shape() {
        let attn = MultiHeadAttention::new(16, 4, 7, "enc").unwrap();
        let tokens = Matrix::full(5, 16, 0.3);
        let out = attn.self_attention(&tokens).unwrap();
        assert_eq!(out.shape(), (5, 16));
    }

    #[test]
    fn cross_attention_output_rows_follow_queries() {
        let attn = MultiHeadAttention::new(8, 2, 7, "x").unwrap();
        let q = Matrix::full(3, 8, 0.1);
        let ctx = Matrix::full(6, 8, 0.2);
        let out = attn.cross_attention(&q, &ctx).unwrap();
        assert_eq!(out.shape(), (3, 8));
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let attn = MultiHeadAttention::new(8, 2, 7, "x").unwrap();
        let q = Matrix::zeros(0, 8);
        let ctx = Matrix::full(4, 8, 0.2);
        let out = attn.cross_attention(&q, &ctx).unwrap();
        assert_eq!(out.shape(), (0, 8));
    }

    #[test]
    fn attention_weights_are_row_stochastic() {
        let attn = MultiHeadAttention::new(8, 2, 3, "w").unwrap();
        let q = Matrix::from_vec(2, 8, (0..16).map(|v| v as f32 * 0.1).collect()).unwrap();
        let ctx = Matrix::from_vec(4, 8, (0..32).map(|v| (v % 7) as f32 * 0.2).collect()).unwrap();
        let w = attn.attention_weights(&q, &ctx).unwrap();
        assert_eq!(w.shape(), (2, 4));
        for r in 0..2 {
            let sum: f32 = w.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn identical_tokens_attend_uniformly() {
        let attn = MultiHeadAttention::new(8, 2, 3, "u").unwrap();
        let ctx = Matrix::full(5, 8, 0.4);
        let q = Matrix::full(1, 8, 0.4);
        let w = attn.attention_weights(&q, &ctx).unwrap();
        for j in 0..5 {
            assert!((w.get(0, j) - 0.2).abs() < 1e-5);
        }
    }

    #[test]
    fn attend_on_projections_equals_cross_attention() {
        let attn = MultiHeadAttention::new(8, 2, 5, "p").unwrap();
        let q =
            Matrix::from_vec(3, 8, (0..24).map(|v| (v % 5) as f32 * 0.3 - 0.5).collect()).unwrap();
        let ctx = Matrix::from_vec(4, 8, (0..32).map(|v| (v % 7) as f32 * 0.1).collect()).unwrap();
        let whole = attn.cross_attention(&q, &ctx).unwrap();
        // Project the context one row at a time and the queries in a batch
        // with extra rows: the rows `attend` sees are the same bits.
        let k_rows: Vec<Vec<f32>> = (0..4)
            .map(|r| {
                let row = Matrix::row_vector(ctx.row(r));
                attn.project_k(&row).unwrap().into_vec()
            })
            .collect();
        let k = Matrix::from_rows(&k_rows).unwrap();
        let v = attn.project_v(&ctx).unwrap();
        let padded = Matrix::vstack(&[&q, &ctx]).unwrap();
        let q_all = attn.project_q(&padded).unwrap();
        let q_proj = q_all.gather_rows(&[0, 1, 2]).unwrap();
        let split = attn.attend(&q_proj, &k, &v).unwrap();
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&whole), bits(&split));
    }

    #[test]
    fn attend_rejects_mismatched_keys_and_values() {
        let attn = MultiHeadAttention::new(8, 2, 5, "m").unwrap();
        let q = Matrix::zeros(2, 8);
        assert!(attn
            .attend(&q, &Matrix::zeros(3, 8), &Matrix::zeros(2, 8))
            .is_err());
        assert!(attn
            .attend(&q, &Matrix::zeros(3, 6), &Matrix::zeros(3, 6))
            .is_err());
    }

    #[test]
    fn shape_mismatch_is_error() {
        let attn = MultiHeadAttention::new(8, 2, 3, "e").unwrap();
        let q = Matrix::zeros(2, 6);
        let ctx = Matrix::zeros(3, 8);
        assert!(attn.cross_attention(&q, &ctx).is_err());
    }
}
