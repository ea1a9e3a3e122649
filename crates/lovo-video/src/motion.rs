//! Synthetic motion-vector fields.
//!
//! MVmed (the key-frame / tracking algorithm the paper adopts in §IV-A) works
//! in the compressed domain: it reads the motion vectors the video codec
//! already computed and propagates detections along them, flagging frames with
//! large aggregate motion-vector change as scene changes or high-activity
//! moments. Real compressed bitstreams are not available here, so this module
//! synthesizes a plausible block-level motion-vector field directly from the
//! ground-truth kinematics: blocks covered by a moving object inherit its
//! velocity, all blocks inherit the camera motion, and a small deterministic
//! jitter models codec noise.

use crate::bbox::BoundingBox;
use crate::scene::{Frame, SceneObject};
use serde::{Deserialize, Serialize};

/// A block-level motion-vector field, as a codec would expose it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MotionField {
    /// Number of macro-block columns.
    pub blocks_x: usize,
    /// Number of macro-block rows.
    pub blocks_y: usize,
    /// Motion vector per block, row-major, in pixels/frame.
    pub vectors: Vec<(f32, f32)>,
}

impl MotionField {
    /// Mean motion magnitude over all blocks (pixels/frame).
    pub fn mean_magnitude(&self) -> f32 {
        if self.vectors.is_empty() {
            return 0.0;
        }
        self.vectors
            .iter()
            .map(|(dx, dy)| (dx * dx + dy * dy).sqrt())
            .sum::<f32>()
            / self.vectors.len() as f32
    }

    /// Fraction of blocks whose motion magnitude exceeds `threshold`.
    pub fn active_fraction(&self, threshold: f32) -> f32 {
        if self.vectors.is_empty() {
            return 0.0;
        }
        let active = self
            .vectors
            .iter()
            .filter(|(dx, dy)| (dx * dx + dy * dy).sqrt() > threshold)
            .count();
        active as f32 / self.vectors.len() as f32
    }
}

/// Synthesizes motion-vector fields from ground-truth frames.
#[derive(Debug, Clone)]
pub struct MotionEstimator {
    /// Macro-block size in pixels (16 matches H.264/H.265 defaults).
    pub block_size: u32,
    /// Amplitude of the deterministic codec-noise jitter in pixels/frame.
    pub noise: f32,
}

impl Default for MotionEstimator {
    fn default() -> Self {
        Self {
            block_size: 16,
            noise: 0.05,
        }
    }
}

impl MotionEstimator {
    /// Creates an estimator with the given macro-block size.
    pub fn new(block_size: u32) -> Self {
        Self {
            block_size: block_size.max(1),
            noise: 0.05,
        }
    }

    /// Computes the motion field of a frame from its camera motion and the
    /// velocities of the objects covering each block.
    pub fn estimate(&self, frame: &Frame) -> MotionField {
        let mut field = MotionField::default();
        self.estimate_into(frame, &mut field, &mut NoiseTable::default());
        field
    }

    /// [`MotionEstimator::estimate`] into an existing field, reusing its
    /// vector buffer, with codec-noise terms read from `noise` (refilled
    /// when this frame's phases fall outside it).
    ///
    /// A block's object is the one covering the largest share of it, then
    /// the lowest track, then the first listed — the winner of
    /// [`Frame::dominant_object_in_region`]. Only objects that overlap the
    /// block's row can cover it, so each row first collects those, and each
    /// block then takes one allocation-free pass over that short list,
    /// computing exactly the coverage `dominant_object_in_region` does.
    pub(crate) fn estimate_into(
        &self,
        frame: &Frame,
        field: &mut MotionField,
        noise: &mut NoiseTable,
    ) {
        let bs = self.block_size as f32;
        let blocks_x = (frame.width as usize).div_ceil(self.block_size as usize);
        let blocks_y = (frame.height as usize).div_ceil(self.block_size as usize);
        field.blocks_x = blocks_x;
        field.blocks_y = blocks_y;
        field.vectors.clear();
        field.vectors.reserve(blocks_x * blocks_y);
        if blocks_x == 0 || blocks_y == 0 {
            return;
        }
        let base = frame.index * 7;
        let terms = noise.window(base, base + (blocks_x - 1) * 31 + (blocks_y - 1) * 17);
        let mut row_objects: Vec<&SceneObject> = Vec::with_capacity(frame.objects.len());
        for by in 0..blocks_y {
            // Same top and bottom as every block region of this row, so a
            // zero vertical overlap here is a zero coverage there.
            let row = BoundingBox::new(0.0, by as f32 * bs, bs, bs);
            row_objects.clear();
            row_objects.extend(frame.objects.iter().filter(|o| {
                (row.bottom().min(o.bbox.bottom()) - row.y.max(o.bbox.y)).max(0.0) > 0.0
            }));
            for bx in 0..blocks_x {
                let region = BoundingBox::new(bx as f32 * bs, by as f32 * bs, bs, bs);
                let mut v = frame.camera_motion;
                if let Some(obj) = dominant_object(&region, &row_objects) {
                    v.0 += obj.velocity.0;
                    v.1 += obj.velocity.1;
                }
                // Deterministic pseudo-noise derived from the block position so
                // fields are reproducible without threading an RNG through.
                let (sin, cos) = terms[bx * 31 + by * 17];
                v.0 += self.noise * sin;
                v.1 += self.noise * cos;
                field.vectors.push(v);
            }
        }
    }

    /// Aggregate motion change between two consecutive frames: the mean
    /// per-block motion-vector delta over the blocks that are moving in either
    /// frame, after compensating each field for global (camera) motion. This
    /// is the statistic the key-frame extractor thresholds.
    ///
    /// Comparing *per-block* vectors rather than whole-field summary numbers
    /// is what lets the extractor see scene events: an object entering,
    /// leaving, or changing speed flips the vectors of the blocks it covers,
    /// which a difference of mean magnitudes cancels out in steady traffic.
    /// Global-motion compensation keeps a panning camera from counting every
    /// block as an event.
    pub fn motion_change(&self, previous: &MotionField, current: &MotionField) -> f32 {
        const ACTIVE_MAGNITUDE: f32 = 1.0;
        if previous.vectors.len() != current.vectors.len() {
            // Differently-sized fields (e.g. a resolution change) are by
            // definition a scene change.
            return f32::MAX;
        }
        let prev_mean = mean_vector(&previous.vectors);
        let cur_mean = mean_vector(&current.vectors);
        let mut delta_sum = 0.0f32;
        let mut active_either = 0usize;
        for (&(px, py), &(cx, cy)) in previous.vectors.iter().zip(&current.vectors) {
            let (px, py) = (px - prev_mean.0, py - prev_mean.1);
            let (cx, cy) = (cx - cur_mean.0, cy - cur_mean.1);
            let prev_active = px * px + py * py > ACTIVE_MAGNITUDE * ACTIVE_MAGNITUDE;
            let cur_active = cx * cx + cy * cy > ACTIVE_MAGNITUDE * ACTIVE_MAGNITUDE;
            if prev_active || cur_active {
                active_either += 1;
                let (dx, dy) = (cx - px, cy - py);
                delta_sum += (dx * dx + dy * dy).sqrt();
            }
        }
        if active_either == 0 {
            0.0
        } else {
            delta_sum / active_either as f32
        }
    }
}

/// Frames past the one that triggered a refill that a [`NoiseTable`]
/// covers.
const NOISE_LOOKAHEAD_FRAMES: usize = 64;

/// The codec-noise terms `(sin 0.7k, cos 1.3k)` of a window of integer block
/// phases `k`. Block `(bx, by)` of frame `i` has phase `31bx + 17by + 7i`,
/// so consecutive frames share almost all their phases: one table serves a
/// run of frames and replaces two trig calls per block with a lookup of the
/// very same values.
#[derive(Debug, Clone, Default)]
pub(crate) struct NoiseTable {
    first: usize,
    terms: Vec<(f32, f32)>,
}

impl NoiseTable {
    /// The terms of phases `lo..=hi`, refilling the table (with lookahead
    /// for the frames that follow) when it does not cover them.
    fn window(&mut self, lo: usize, hi: usize) -> &[(f32, f32)] {
        if lo < self.first || hi >= self.first + self.terms.len() {
            let end = hi.saturating_add(7 * NOISE_LOOKAHEAD_FRAMES);
            self.first = lo;
            self.terms.clear();
            self.terms.extend((lo..=end).map(|k| {
                let phase = k as f32;
                ((phase * 0.7).sin(), (phase * 1.3).cos())
            }));
        }
        &self.terms[lo - self.first..=hi - self.first]
    }
}

/// The candidate covering the largest share of `region`: largest coverage,
/// then lowest track, then first in `candidates`; `None` when none covers
/// any of it.
fn dominant_object<'a>(
    region: &BoundingBox,
    candidates: &[&'a SceneObject],
) -> Option<&'a SceneObject> {
    let mut best: Option<(&'a SceneObject, f32)> = None;
    for &object in candidates {
        let coverage = region.coverage_by(&object.bbox);
        if coverage.is_nan() || coverage <= 0.0 {
            continue;
        }
        let wins = match best {
            None => true,
            Some((leader, lead)) => {
                coverage > lead || (coverage == lead && object.track < leader.track)
            }
        };
        if wins {
            best = Some((object, coverage));
        }
    }
    best.map(|(object, _)| object)
}

/// Mean motion vector of a field (the global / camera component).
fn mean_vector(vectors: &[(f32, f32)]) -> (f32, f32) {
    if vectors.is_empty() {
        return (0.0, 0.0);
    }
    let (sx, sy) = vectors
        .iter()
        .fold((0.0f32, 0.0f32), |(sx, sy), &(x, y)| (sx + x, sy + y));
    (sx / vectors.len() as f32, sy / vectors.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectAttributes, ObjectClass};
    use crate::scene::{SceneObject, TrackId};

    fn frame_with_moving_object(index: usize, speed: f32) -> Frame {
        let mut f = Frame::empty(index, index as f64 / 30.0, 640, 360);
        f.objects.push(SceneObject {
            track: TrackId(0),
            attributes: ObjectAttributes::simple(ObjectClass::Car),
            bbox: BoundingBox::new(100.0, 100.0, 200.0, 120.0),
            velocity: (speed, 0.0),
        });
        f
    }

    #[test]
    fn field_dimensions_cover_frame() {
        let est = MotionEstimator::new(16);
        let field = est.estimate(&Frame::empty(0, 0.0, 640, 360));
        assert_eq!(field.blocks_x, 40);
        assert_eq!(field.blocks_y, 23); // ceil(360/16)
        assert_eq!(field.vectors.len(), 40 * 23);
    }

    #[test]
    fn static_frame_has_near_zero_motion() {
        let est = MotionEstimator::new(16);
        let field = est.estimate(&Frame::empty(0, 0.0, 640, 360));
        assert!(field.mean_magnitude() < 0.2);
        assert_eq!(field.active_fraction(1.0), 0.0);
    }

    #[test]
    fn moving_object_raises_motion() {
        let est = MotionEstimator::new(16);
        let still = est.estimate(&frame_with_moving_object(0, 0.0));
        let moving = est.estimate(&frame_with_moving_object(0, 12.0));
        assert!(moving.mean_magnitude() > still.mean_magnitude());
        assert!(moving.active_fraction(1.0) > 0.0);
    }

    #[test]
    fn camera_motion_affects_all_blocks() {
        let est = MotionEstimator::new(16);
        let mut f = Frame::empty(0, 0.0, 320, 160);
        f.camera_motion = (8.0, 0.0);
        let field = est.estimate(&f);
        assert!(field.active_fraction(1.0) > 0.99);
    }

    #[test]
    fn motion_change_detects_speed_jump() {
        let est = MotionEstimator::new(16);
        let a = est.estimate(&frame_with_moving_object(0, 2.0));
        let b = est.estimate(&frame_with_moving_object(1, 2.0));
        let c = est.estimate(&frame_with_moving_object(2, 20.0));
        assert!(est.motion_change(&a, &b) < est.motion_change(&b, &c));
    }

    /// The per-block estimate `estimate_into` replaced: every block sorts
    /// all of the frame's objects by coverage.
    fn estimate_reference(est: &MotionEstimator, frame: &Frame) -> Vec<(u32, u32)> {
        let bs = est.block_size as f32;
        let blocks_x = (frame.width as usize).div_ceil(est.block_size as usize);
        let blocks_y = (frame.height as usize).div_ceil(est.block_size as usize);
        let mut bits = Vec::new();
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let region = BoundingBox::new(bx as f32 * bs, by as f32 * bs, bs, bs);
                let mut v = frame.camera_motion;
                if let Some(obj) = frame.dominant_object_in_region(&region) {
                    v.0 += obj.velocity.0;
                    v.1 += obj.velocity.1;
                }
                let phase = (bx * 31 + by * 17 + frame.index * 7) as f32;
                v.0 += est.noise * (phase * 0.7).sin();
                v.1 += est.noise * (phase * 1.3).cos();
                bits.push((v.0.to_bits(), v.1.to_bits()));
            }
        }
        bits
    }

    fn field_bits(field: &MotionField) -> Vec<(u32, u32)> {
        field
            .vectors
            .iter()
            .map(|(x, y)| (x.to_bits(), y.to_bits()))
            .collect()
    }

    fn object(track: u64, bbox: BoundingBox, speed: f32) -> SceneObject {
        SceneObject {
            track: TrackId(track),
            attributes: ObjectAttributes::simple(ObjectClass::Car),
            bbox,
            velocity: (speed, -speed / 2.0),
        }
    }

    #[test]
    fn row_pass_and_noise_table_reproduce_the_per_block_estimate() {
        use crate::dataset::{DatasetConfig, DatasetKind, VideoCollection};
        let mut frames = Vec::new();
        // Generated footage from a fixed and a moving camera.
        for kind in [DatasetKind::Bellevue, DatasetKind::Cityscapes] {
            let videos = VideoCollection::generate(
                DatasetConfig::for_kind(kind)
                    .with_num_videos(2)
                    .with_frames_per_video(30)
                    .with_seed(41),
            );
            frames.extend(videos.videos.into_iter().flat_map(|v| v.frames));
        }
        // Ties: equal coverage under different tracks (listed high track
        // first), the same track twice (first listed wins), nested boxes,
        // boxes ending exactly on block edges and a zero-height box.
        let mut ties = Frame::empty(7, 0.2, 160, 96);
        ties.objects = vec![
            object(9, BoundingBox::new(16.0, 16.0, 48.0, 32.0), 3.0),
            object(4, BoundingBox::new(16.0, 16.0, 48.0, 32.0), 5.0),
            object(4, BoundingBox::new(16.0, 16.0, 48.0, 32.0), 7.0),
            object(2, BoundingBox::new(20.0, 20.0, 8.0, 8.0), 11.0),
            object(6, BoundingBox::new(64.0, 0.0, 32.0, 48.0), 13.0),
            object(1, BoundingBox::new(100.0, 40.0, 30.0, 0.0), 17.0),
            object(3, BoundingBox::new(90.0, 30.0, 60.0, 60.0), 19.0),
        ];
        frames.push(ties);
        // A late frame index: phases past the first table refills.
        let mut late = frames[3].clone();
        late.index = 100_003;
        frames.push(late);
        let est = MotionEstimator::default();
        let mut reused = MotionField::default();
        let mut noise = NoiseTable::default();
        for frame in &frames {
            let expected = estimate_reference(&est, frame);
            assert_eq!(
                field_bits(&est.estimate(frame)),
                expected,
                "frame {}",
                frame.index
            );
            est.estimate_into(frame, &mut reused, &mut noise);
            assert_eq!(field_bits(&reused), expected, "frame {}", frame.index);
        }
    }

    #[test]
    fn estimator_is_deterministic() {
        let est = MotionEstimator::default();
        let f = frame_with_moving_object(3, 6.0);
        assert_eq!(est.estimate(&f), est.estimate(&f));
    }
}
