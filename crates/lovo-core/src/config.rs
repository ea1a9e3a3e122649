//! System configuration: every knob the evaluation sweeps or ablates.

use lovo_encoder::{CrossModalityConfig, TextEncoderConfig, VisualEncoderConfig};
use lovo_index::IndexKind;
use lovo_video::keyframe::KeyframePolicy;
use serde::{Deserialize, Serialize};

/// Configuration of a LOVO deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LovoConfig {
    /// Visual encoder parameters (§IV-B).
    pub visual: VisualEncoderConfig,
    /// Text encoder parameters (§VI-A).
    pub text: TextEncoderConfig,
    /// Cross-modality rerank transformer parameters (§VI-B).
    pub cross_modality: CrossModalityConfig,
    /// Key-frame selection policy (§IV-A). `AllFrames` reproduces the
    /// "w/o Key frame" ablation of Table IV.
    pub keyframe_policy: KeyframePolicy,
    /// Index family backing the vector collection (Table V). `BruteForce`
    /// reproduces the "w/o ANNS" ablation of Table IV.
    pub index_kind: IndexKind,
    /// Number of candidate patches retrieved by the fast search (the `k` of
    /// Algorithm 2, stage 1).
    pub fast_search_k: usize,
    /// Number of frames returned to the user (the `n` of Algorithm 2).
    pub output_frames: usize,
    /// Upper bound on the distinct candidate frames handed to the
    /// cross-modality rerank. The fast search may touch many frames (its `k`
    /// counts patches); the expensive transformer stage processes at most this
    /// many of them, best fast-search score first, which keeps per-query
    /// latency bounded as collections grow (Fig. 10).
    pub rerank_frames: usize,
    /// Whether the cross-modality rerank runs at all. `false` reproduces the
    /// "w/o Rerank" ablation of Table IV (fast-search order is returned).
    pub enable_rerank: bool,
    /// Only index patches whose objectness exceeds this threshold. Zero keeps
    /// every patch (including pure background), matching the paper's
    /// class-agnostic indexing; small values trade recall for index size.
    pub min_objectness: f32,
    /// Worker threads for the ingest-time key-frame extraction and visual
    /// encoding fan-out. `0` (the default) uses all available parallelism.
    /// Codebook training when a segment seals or compacts uses the hardware
    /// threads whatever this value is.
    pub ingest_workers: usize,
    /// Rows at which a growing storage segment seals and builds its ANN
    /// index. Bounds per-segment build cost for incremental ingest; smaller
    /// values seal more eagerly at the price of a wider search fan-out.
    pub segment_capacity: usize,
}

impl Default for LovoConfig {
    fn default() -> Self {
        Self {
            visual: VisualEncoderConfig::default(),
            text: TextEncoderConfig::default(),
            cross_modality: CrossModalityConfig::default(),
            keyframe_policy: KeyframePolicy::default(),
            index_kind: IndexKind::IvfPq,
            fast_search_k: 400,
            output_frames: 20,
            rerank_frames: 64,
            enable_rerank: true,
            min_objectness: 0.0,
            ingest_workers: 0,
            segment_capacity: lovo_store::DEFAULT_SEGMENT_CAPACITY,
        }
    }
}

impl LovoConfig {
    /// Builder-style override of the index family.
    pub fn with_index_kind(mut self, kind: IndexKind) -> Self {
        self.index_kind = kind;
        self
    }

    /// Builder-style override of the key-frame policy.
    pub fn with_keyframe_policy(mut self, policy: KeyframePolicy) -> Self {
        self.keyframe_policy = policy;
        self
    }

    /// Builder-style toggle of the rerank stage.
    pub fn with_rerank(mut self, enabled: bool) -> Self {
        self.enable_rerank = enabled;
        self
    }

    /// Builder-style override of the fast-search candidate count.
    pub fn with_fast_search_k(mut self, k: usize) -> Self {
        self.fast_search_k = k.max(1);
        self
    }

    /// Builder-style override of the number of output frames.
    pub fn with_output_frames(mut self, n: usize) -> Self {
        self.output_frames = n.max(1);
        self
    }

    /// Builder-style override of the rerank candidate-frame budget.
    pub fn with_rerank_frames(mut self, n: usize) -> Self {
        self.rerank_frames = n.max(1);
        self
    }

    /// Builder-style override of the ingest worker count (`0` = all
    /// available parallelism).
    pub fn with_ingest_workers(mut self, workers: usize) -> Self {
        self.ingest_workers = workers;
        self
    }

    /// Builder-style override of the storage segment capacity.
    pub fn with_segment_capacity(mut self, capacity: usize) -> Self {
        self.segment_capacity = capacity.max(1);
        self
    }

    /// The "w/o Rerank" ablation configuration of Table IV.
    pub fn ablation_without_rerank() -> Self {
        Self::default().with_rerank(false)
    }

    /// The "w/o ANNS" ablation configuration of Table IV (exhaustive search).
    pub fn ablation_without_anns() -> Self {
        Self::default().with_index_kind(IndexKind::BruteForce)
    }

    /// The "w/o Key frame" ablation configuration of Table IV (index every frame).
    pub fn ablation_without_keyframe() -> Self {
        Self::default().with_keyframe_policy(KeyframePolicy::AllFrames)
    }

    /// Checks internal consistency: the three model components must share the
    /// class-embedding dimension and seed so they live in one attribute space.
    pub fn validate(&self) -> Result<(), String> {
        if self.visual.class_dim != self.text.class_dim
            || self.visual.class_dim != self.cross_modality.class_dim
        {
            return Err(format!(
                "class_dim mismatch: visual {}, text {}, cross-modality {}",
                self.visual.class_dim, self.text.class_dim, self.cross_modality.class_dim
            ));
        }
        if self.visual.seed != self.text.seed || self.visual.seed != self.cross_modality.seed {
            return Err("visual, text and cross-modality seeds must match (shared space)".into());
        }
        if self.fast_search_k == 0 || self.output_frames == 0 || self.rerank_frames == 0 {
            return Err("fast_search_k, output_frames and rerank_frames must be positive".into());
        }
        if self.segment_capacity == 0 {
            return Err("segment_capacity must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(LovoConfig::default().validate().is_ok());
    }

    #[test]
    fn mismatched_dims_or_seeds_rejected() {
        let mut c = LovoConfig::default();
        c.text.class_dim = 16;
        assert!(c.validate().is_err());
        let mut c2 = LovoConfig::default();
        c2.text.seed = 999;
        assert!(c2.validate().is_err());
    }

    #[test]
    fn ablation_presets_flip_the_right_switch() {
        assert!(!LovoConfig::ablation_without_rerank().enable_rerank);
        assert_eq!(
            LovoConfig::ablation_without_anns().index_kind,
            IndexKind::BruteForce
        );
        assert_eq!(
            LovoConfig::ablation_without_keyframe().keyframe_policy,
            KeyframePolicy::AllFrames
        );
        // Each preset leaves the other switches at their defaults.
        assert!(LovoConfig::ablation_without_anns().enable_rerank);
    }

    #[test]
    fn builders_clamp_to_positive() {
        let c = LovoConfig::default()
            .with_fast_search_k(0)
            .with_output_frames(0)
            .with_segment_capacity(0);
        assert_eq!(c.fast_search_k, 1);
        assert_eq!(c.output_frames, 1);
        assert_eq!(c.segment_capacity, 1);
    }

    #[test]
    fn ingest_workers_zero_means_auto() {
        let c = LovoConfig::default();
        assert_eq!(c.ingest_workers, 0);
        assert!(c.validate().is_ok());
        assert_eq!(
            LovoConfig::default().with_ingest_workers(3).ingest_workers,
            3
        );
    }
}
