//! # lovo-encoder
//!
//! The model components of the LOVO reproduction: the decoupled visual and
//! text encoders (§IV-B, §VI-A), the object localization heads (§IV-C), the
//! cross-modality transformer used for reranking (§VI-B), and the simulated
//! predefined-class detectors used by the baseline systems.
//!
//! ## The substitution for pre-trained models
//!
//! The paper uses a pre-trained ViT-B/32 (Owl-ViT style) image encoder, a
//! BERT-style text encoder and a Grounding-DINO-style cross-modality
//! transformer. Pre-trained weights are not available in this environment, so
//! the encoders here are **attribute-grounded**: both modalities project the
//! *semantic attributes* of what they see (object class, colour, size,
//! activity, location, relations, accessories) into a shared embedding space
//! ([`space::AttributeSpace`]), then pass the result through genuine
//! transformer layers (`lovo-tensor` attention/MLP blocks) with controlled
//! noise. The shared projection plays the role CLIP pre-training plays in the
//! real system — it is the reason a text query lands near the visual
//! embeddings of matching objects — while the transformer layers and noise
//! keep the alignment imperfect in exactly the way that makes the paper's
//! two-stage design (coarse fast search + fine cross-modality rerank)
//! meaningful. The fast-search text embedding deliberately drops relations and
//! fine-grained details (as described in §VI-A), which the rerank stage then
//! recovers.

pub mod cross_modality;
pub mod detector;
pub mod space;
pub mod text;
pub mod visual;

pub use cross_modality::{
    rerank_order, CrossModalityConfig, CrossModalityTransformer, RerankedFrame,
};
pub use detector::{Detection, DetectorConfig, SimulatedDetector};
pub use space::{AttributeFacet, AttributeSpace};
pub use text::{QueryEmbedding, TextEncoder, TextEncoderConfig};
pub use visual::{FrameEncoding, PatchEncoding, VisualEncoder, VisualEncoderConfig};

/// Errors surfaced by the encoders.
#[derive(Debug)]
pub enum EncoderError {
    /// A tensor-level failure (shape mismatch in a layer).
    Tensor(lovo_tensor::TensorError),
    /// The configuration was invalid.
    InvalidConfig(String),
}

impl std::fmt::Display for EncoderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncoderError::Tensor(e) => write!(f, "tensor error: {e}"),
            EncoderError::InvalidConfig(msg) => write!(f, "invalid encoder config: {msg}"),
        }
    }
}

impl std::error::Error for EncoderError {}

impl From<lovo_tensor::TensorError> for EncoderError {
    fn from(e: lovo_tensor::TensorError) -> Self {
        EncoderError::Tensor(e)
    }
}

/// Result alias for encoder operations.
pub type Result<T> = std::result::Result<T, EncoderError>;
