//! Key-frame extraction (§IV-A).
//!
//! The paper represents each video by a sequence of key frames chosen with a
//! combination of a temporal strategy (fixed sampling interval / scene
//! changes) and a content strategy (frames with notable motion-vector change,
//! detected by the MVmed compressed-domain tracker). This module implements
//! both strategies over the synthetic [`MotionField`]s and exposes them behind
//! a single [`KeyframeExtractor`], which is the component the ablation
//! "w/o Key frame" (Table IV) switches off by selecting [`KeyframePolicy::AllFrames`].

use crate::motion::{MotionEstimator, MotionField, NoiseTable};
use crate::scene::Frame;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Which strategy the extractor uses to nominate key frames.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KeyframePolicy {
    /// MVmed-style: a frame is a key frame when the aggregate motion-vector
    /// change since the previous frame exceeds `motion_threshold`, or when
    /// `max_gap` frames have passed since the last key frame (temporal
    /// fallback so static stretches are still summarized).
    MotionAdaptive {
        /// Motion-change threshold that triggers a key frame.
        motion_threshold: f32,
        /// Maximum number of frames between key frames.
        max_gap: usize,
    },
    /// Plain fixed-interval sampling every `interval` frames.
    FixedInterval {
        /// Sampling period in frames.
        interval: usize,
    },
    /// Every frame is a key frame (the "w/o Key frame" ablation).
    AllFrames,
}

impl Default for KeyframePolicy {
    fn default() -> Self {
        KeyframePolicy::MotionAdaptive {
            motion_threshold: 2.0,
            max_gap: 30,
        }
    }
}

/// Extracts key frames from a sequence of frames.
#[derive(Debug, Clone, Default)]
pub struct KeyframeExtractor {
    /// Selection policy.
    pub policy: KeyframePolicy,
    /// Motion estimator used by the motion-adaptive policy.
    pub estimator: MotionEstimator,
}

impl KeyframeExtractor {
    /// Creates an extractor with the given policy and default block size.
    pub fn new(policy: KeyframePolicy) -> Self {
        Self {
            policy,
            estimator: MotionEstimator::default(),
        }
    }

    /// Returns the indices (into `frames`) of the selected key frames.
    ///
    /// The first frame of a non-empty video is always a key frame: something
    /// must summarize the opening content.
    pub fn select_indices(&self, frames: &[Frame]) -> Vec<usize> {
        let changes = if self.uses_motion() {
            self.motion_changes(frames, 0..frames.len())
        } else {
            Vec::new()
        };
        self.select_from_changes(frames.len(), &changes)
    }

    /// True when the policy reads per-frame motion changes, i.e. when
    /// [`KeyframeExtractor::motion_changes`] is worth computing.
    pub fn uses_motion(&self) -> bool {
        matches!(self.policy, KeyframePolicy::MotionAdaptive { .. })
    }

    /// The motion change of every frame in `range` against the frame
    /// before it (0 for a video's first frame): the statistic the
    /// motion-adaptive policy thresholds.
    ///
    /// The change of frame `i` reads only frames `i - 1` and `i`, so any
    /// split of a video into ranges yields the same values as one range
    /// over the whole video; a range re-estimates the frame before its
    /// start. At most two motion fields are alive at a time.
    pub fn motion_changes(&self, frames: &[Frame], range: Range<usize>) -> Vec<f32> {
        let frames_in_range = frames.get(range.clone()).unwrap_or_default();
        let mut changes = Vec::with_capacity(frames_in_range.len());
        let mut noise = NoiseTable::default();
        let mut previous = range
            .start
            .checked_sub(1)
            .and_then(|i| frames.get(i))
            .map(|frame| {
                let mut field = MotionField::default();
                self.estimator.estimate_into(frame, &mut field, &mut noise);
                field
            });
        let mut current = MotionField::default();
        for frame in frames_in_range {
            self.estimator
                .estimate_into(frame, &mut current, &mut noise);
            changes.push(
                previous
                    .as_ref()
                    .map_or(0.0, |prev| self.estimator.motion_change(prev, &current)),
            );
            // The field just estimated is the next frame's predecessor; the
            // old predecessor's buffer is reused for the next estimate.
            let spent = previous.replace(std::mem::take(&mut current));
            current = spent.unwrap_or_default();
        }
        changes
    }

    /// Selects the key frames of a `len`-frame video given its per-frame
    /// motion changes (`changes[i]` for frame `i`, as
    /// [`KeyframeExtractor::motion_changes`] computes them). Only the
    /// motion-adaptive policy reads `changes`; the others may pass an empty
    /// slice. A missing change counts as no motion.
    pub fn select_from_changes(&self, len: usize, changes: &[f32]) -> Vec<usize> {
        if len == 0 {
            return Vec::new();
        }
        match self.policy {
            KeyframePolicy::AllFrames => (0..len).collect(),
            KeyframePolicy::FixedInterval { interval } => {
                let step = interval.max(1);
                (0..len).step_by(step).collect()
            }
            KeyframePolicy::MotionAdaptive {
                motion_threshold,
                max_gap,
            } => {
                let max_gap = max_gap.max(1);
                let mut selected = vec![0];
                let mut last_selected = 0usize;
                for i in 1..len {
                    let change = changes.get(i).copied().unwrap_or(0.0);
                    let gap_exceeded = i - last_selected >= max_gap;
                    if change > motion_threshold || gap_exceeded {
                        selected.push(i);
                        last_selected = i;
                    }
                }
                selected
            }
        }
    }

    /// Convenience wrapper returning cloned key frames rather than indices.
    pub fn select<'a>(&self, frames: &'a [Frame]) -> Vec<&'a Frame> {
        self.select_indices(frames)
            .into_iter()
            .filter_map(|i| frames.get(i))
            .collect()
    }

    /// Ratio of key frames to total frames (1.0 when every frame is kept).
    pub fn compression_ratio(&self, frames: &[Frame]) -> f32 {
        if frames.is_empty() {
            return 0.0;
        }
        self.select_indices(frames).len() as f32 / frames.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BoundingBox;
    use crate::object::{ObjectAttributes, ObjectClass};
    use crate::scene::{SceneObject, TrackId};

    /// Builds a video where a car enters at frame `burst_at` and accelerates.
    fn video_with_burst(n: usize, burst_at: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| {
                let mut f = Frame::empty(i, i as f64 / 30.0, 640, 360);
                if i >= burst_at {
                    f.objects.push(SceneObject {
                        track: TrackId(1),
                        attributes: ObjectAttributes::simple(ObjectClass::Car),
                        bbox: BoundingBox::new(50.0 + i as f32 * 10.0, 150.0, 200.0, 100.0),
                        velocity: (10.0, 0.0),
                    });
                }
                f
            })
            .collect()
    }

    #[test]
    fn empty_video_selects_nothing() {
        let ex = KeyframeExtractor::default();
        assert!(ex.select_indices(&[]).is_empty());
    }

    #[test]
    fn first_frame_always_selected() {
        let ex = KeyframeExtractor::default();
        let frames = video_with_burst(10, 100);
        assert_eq!(ex.select_indices(&frames)[0], 0);
    }

    #[test]
    fn all_frames_policy_keeps_everything() {
        let ex = KeyframeExtractor::new(KeyframePolicy::AllFrames);
        let frames = video_with_burst(25, 5);
        assert_eq!(ex.select_indices(&frames).len(), 25);
        assert_eq!(ex.compression_ratio(&frames), 1.0);
    }

    #[test]
    fn fixed_interval_samples_periodically() {
        let ex = KeyframeExtractor::new(KeyframePolicy::FixedInterval { interval: 10 });
        let frames = video_with_burst(35, 100);
        assert_eq!(ex.select_indices(&frames), vec![0, 10, 20, 30]);
    }

    #[test]
    fn motion_burst_triggers_keyframe() {
        let ex = KeyframeExtractor::new(KeyframePolicy::MotionAdaptive {
            motion_threshold: 0.3,
            max_gap: 1000,
        });
        let frames = video_with_burst(60, 30);
        let selected = ex.select_indices(&frames);
        // Static prefix should not generate key frames beyond frame 0, while
        // the burst at frame 30 must be picked up within a couple of frames.
        assert!(
            selected.iter().any(|&i| (30..=32).contains(&i)),
            "burst not detected: {selected:?}"
        );
        assert!(
            selected.iter().filter(|&&i| i > 0 && i < 29).count() == 0,
            "static prefix produced key frames: {selected:?}"
        );
    }

    #[test]
    fn max_gap_fallback_covers_static_video() {
        let ex = KeyframeExtractor::new(KeyframePolicy::MotionAdaptive {
            motion_threshold: 100.0,
            max_gap: 10,
        });
        let frames = video_with_burst(45, 1000);
        let selected = ex.select_indices(&frames);
        assert_eq!(selected, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn split_ranges_reproduce_whole_video_motion_changes() {
        let ex = KeyframeExtractor::default();
        let frames = video_with_burst(40, 12);
        let whole = ex.motion_changes(&frames, 0..frames.len());
        assert_eq!(whole.len(), 40);
        assert_eq!(whole[0], 0.0);
        for cut in [1, 12, 13, 39] {
            let mut split = ex.motion_changes(&frames, 0..cut);
            split.extend(ex.motion_changes(&frames, cut..frames.len()));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&split), bits(&whole), "cut at {cut}");
        }
        assert!(ex.motion_changes(&frames, 50..60).is_empty());
        assert_eq!(
            ex.select_from_changes(frames.len(), &whole),
            ex.select_indices(&frames)
        );
    }

    #[test]
    fn keyframes_reduce_volume_on_mostly_static_video() {
        let ex = KeyframeExtractor::default();
        let frames = video_with_burst(120, 100);
        let ratio = ex.compression_ratio(&frames);
        assert!(ratio < 0.5, "expected compression, got ratio {ratio}");
    }
}
