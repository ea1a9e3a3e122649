//! The cross-modality rerank transformer (§VI-B, Algorithm 2).
//!
//! Takes the query text (as parsed constraints plus raw text) and the top-k
//! candidate key frames from the fast search, re-extracts fine-grained
//! features from each frame, fuses the two modalities with bidirectional
//! cross-attention (the *feature enhancer*), scores every frame against the
//! query, and emits the frames re-ranked with the bounding box of the object
//! that best grounds the query (the *decoder* role).
//!
//! Scoring follows the grounding-style alignment used by the paper's
//! references (GLIP / Grounding-DINO): each query constraint token looks for
//! its best-matching image token; the frame's score is the average of those
//! per-constraint maxima, so a frame only scores highly when *every* aspect of
//! the query (class, colour, relation, accessory, …) is grounded somewhere in
//! the frame. This is precisely the fine-grained evidence the fast-search
//! embedding deliberately discards, which is why the rerank stage recovers
//! accuracy on complex queries (Table IV).

use crate::space::{AttributeSpace, FineToken};
use crate::text::TextEncoder;
use crate::{EncoderError, Result};
use lovo_tensor::ops::dot;
use lovo_tensor::{Linear, Matrix, MultiHeadAttention};
use lovo_video::bbox::BoundingBox;
use lovo_video::query::QueryConstraints;
use lovo_video::scene::Frame;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

/// Configuration of the cross-modality transformer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossModalityConfig {
    /// Shared attribute-space dimension (must equal the encoders' `class_dim`).
    pub class_dim: usize,
    /// Internal model dimension of the enhancer/decoder layers.
    pub model_dim: usize,
    /// Number of feature-enhancer layers.
    pub enhancer_layers: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Weight of the cross-attention context added to each token per layer.
    pub fusion_strength: f32,
    /// Seed shared with the encoders.
    pub seed: u64,
}

impl Default for CrossModalityConfig {
    fn default() -> Self {
        Self {
            class_dim: 32,
            model_dim: 64,
            enhancer_layers: 2,
            heads: 4,
            fusion_strength: 0.15,
            seed: 0x0715,
        }
    }
}

impl CrossModalityConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.class_dim == 0 || self.model_dim == 0 {
            return Err(EncoderError::InvalidConfig(
                "class_dim and model_dim must be positive".into(),
            ));
        }
        if self.model_dim % self.heads != 0 {
            return Err(EncoderError::InvalidConfig(format!(
                "model_dim {} not divisible by heads {}",
                self.model_dim, self.heads
            )));
        }
        if !(0.0..=1.0).contains(&self.fusion_strength) {
            return Err(EncoderError::InvalidConfig(
                "fusion_strength must be in [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

/// A candidate key frame handed to the rerank stage.
#[derive(Debug, Clone)]
pub struct CandidateFrame<'a> {
    /// Video the frame belongs to.
    pub video_id: u32,
    /// The key frame (the rerank stage re-reads its content, exactly as the
    /// real system decodes the stored key frame image).
    pub frame: &'a Frame,
    /// The box suggested by the fast-search hit, if any; used as a fallback
    /// output when the frame contains no object grounding the query.
    pub seed_box: Option<BoundingBox>,
}

/// One reranked output frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RerankedFrame {
    /// Video the frame belongs to.
    pub video_id: u32,
    /// Frame index within the video.
    pub frame_index: usize,
    /// Timestamp of the frame in seconds.
    pub timestamp: f64,
    /// Cross-modality alignment score (higher is better).
    pub score: f32,
    /// Bounding box of the object that best grounds the query.
    pub bbox: BoundingBox,
}

/// The reranked output order over `(score, frame_index, video_id)`: score
/// descending under [`f32::total_cmp`] (so the order is total, with NaN and
/// ±0.0 in fixed places), then frame index ascending, then video id
/// ascending. [`CrossModalityTransformer::rerank_with_constraints`] sorts by
/// it, and the shard merge calls it too, so sharded answers reproduce the
/// single-engine sequence.
pub fn rerank_order(a: (f32, usize, u32), b: (f32, usize, u32)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

impl RerankedFrame {
    /// This frame's `(score, frame_index, video_id)` key for [`rerank_order`].
    fn order_key(&self) -> (f32, usize, u32) {
        (self.score, self.frame_index, self.video_id)
    }
}

/// The cross-modality transformer.
pub struct CrossModalityTransformer {
    config: CrossModalityConfig,
    space: AttributeSpace,
    image_proj: Linear,
    text_proj: Linear,
    /// Per layer: image-to-text attention and text-to-image attention.
    layers: Vec<(MultiHeadAttention, MultiHeadAttention)>,
}

impl CrossModalityTransformer {
    /// Creates the transformer with deterministic weights.
    pub fn new(config: CrossModalityConfig) -> Result<Self> {
        config.validate()?;
        let layers = (0..config.enhancer_layers)
            .map(|i| {
                Ok((
                    MultiHeadAttention::new(
                        config.model_dim,
                        config.heads,
                        config.seed,
                        &format!("xmod.layer{i}.i2t"),
                    )?,
                    MultiHeadAttention::new(
                        config.model_dim,
                        config.heads,
                        config.seed,
                        &format!("xmod.layer{i}.t2i"),
                    )?,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            space: AttributeSpace::new(config.class_dim, config.seed),
            image_proj: Linear::new(config.class_dim, config.model_dim, config.seed, "xmod.img"),
            text_proj: Linear::new(config.class_dim, config.model_dim, config.seed, "xmod.txt"),
            layers,
            config,
        })
    }

    /// The transformer configuration.
    pub fn config(&self) -> &CrossModalityConfig {
        &self.config
    }

    /// Scores one frame against the query constraints and returns the score
    /// together with the grounded bounding box: a one-candidate run of the
    /// rerank's scoring path.
    pub fn score_frame(
        &self,
        constraints: &QueryConstraints,
        frame: &Frame,
        seed_box: Option<BoundingBox>,
    ) -> Result<(f32, BoundingBox)> {
        let mut index = TokenIndex::default();
        let tokens = index.add(frame);
        let tables = self.query_tables(constraints, &index.distinct)?;
        self.score_tokens(tables.as_ref(), &tokens, frame, seed_box)
    }

    /// Reranks candidate frames against a query, best first (Algorithm 2).
    pub fn rerank(
        &self,
        query_text: &str,
        candidates: &[CandidateFrame<'_>],
    ) -> Result<Vec<RerankedFrame>> {
        let constraints = TextEncoder::parse(query_text);
        self.rerank_with_constraints(&constraints, candidates)
    }

    /// Reranks candidate frames against pre-parsed constraints, sorted by
    /// [`rerank_order`].
    ///
    /// Work is split by what it depends on. The constraint tokens, their
    /// text projection and layer 0's text-side projections run once per
    /// query. The image projection and layer 0's image-side projections run
    /// once per distinct image token of the candidate set, into a table the
    /// frames gather rows from. Layer-0 attention, the later layers and the
    /// grounding loop run per frame. Every row is computed by the same
    /// arithmetic as a frame scored alone, so scores are bit-identical to
    /// scoring each frame independently.
    pub fn rerank_with_constraints(
        &self,
        constraints: &QueryConstraints,
        candidates: &[CandidateFrame<'_>],
    ) -> Result<Vec<RerankedFrame>> {
        let mut index = TokenIndex::default();
        let tokens: Vec<FrameTokens> = candidates.iter().map(|c| index.add(c.frame)).collect();
        let tables = self.query_tables(constraints, &index.distinct)?;
        let mut out = candidates
            .iter()
            .zip(&tokens)
            .map(|(candidate, frame_tokens)| {
                let (score, bbox) = self.score_tokens(
                    tables.as_ref(),
                    frame_tokens,
                    candidate.frame,
                    candidate.seed_box,
                )?;
                Ok(RerankedFrame {
                    video_id: candidate.video_id,
                    frame_index: candidate.frame.index,
                    timestamp: candidate.frame.timestamp,
                    score,
                    bbox,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        out.sort_by(|a, b| rerank_order(a.order_key(), b.order_key()));
        Ok(out)
    }

    /// The per-query tables: the query's text rows and the rows of every
    /// distinct image token in `image_tokens`. `None` when the query has no
    /// constraint tokens, so there is nothing to ground.
    fn query_tables(
        &self,
        constraints: &QueryConstraints,
        image_tokens: &[FineToken],
    ) -> Result<Option<QueryTables>> {
        let text_tokens = AttributeSpace::fine_token_keys_of_constraints(constraints);
        if text_tokens.is_empty() {
            return Ok(None);
        }
        let layer0 = self.layers.first();
        Ok(Some(QueryTables {
            text: self.token_rows(
                &text_tokens,
                &self.text_proj,
                layer0.map(|(i2t, t2i)| (t2i, i2t)),
            )?,
            image: self.token_rows(
                image_tokens,
                &self.image_proj,
                layer0.map(|(i2t, t2i)| (i2t, t2i)),
            )?,
        }))
    }

    /// The rows of `tokens` through every stage that reads one modality
    /// only: the raw vectors, the input projection `proj`, and layer 0's
    /// projections — queries for `layer0.0`, keys and values for `layer0.1`.
    fn token_rows(
        &self,
        tokens: &[FineToken],
        proj: &Linear,
        layer0: Option<(&MultiHeadAttention, &MultiHeadAttention)>,
    ) -> Result<TokenRows> {
        let mut data = Vec::with_capacity(tokens.len() * self.space.dim());
        for &token in tokens {
            data.extend(self.space.fine_token_vector(token));
        }
        let raw = Matrix::from_vec(tokens.len(), self.space.dim(), data)?;
        let x = proj.forward(&raw)?;
        let layer0 = layer0
            .map(|(queries_with, context_of)| -> Result<Layer0Rows> {
                Ok(Layer0Rows {
                    q: queries_with.project_q(&x)?,
                    k: context_of.project_k(&x)?,
                    v: context_of.project_v(&x)?,
                })
            })
            .transpose()?;
        Ok(TokenRows { raw, x, layer0 })
    }

    /// Scores one frame from its gathered token rows; `tables` is `None`
    /// when the query has no constraint tokens.
    fn score_tokens(
        &self,
        tables: Option<&QueryTables>,
        tokens: &FrameTokens,
        frame: &Frame,
        seed_box: Option<BoundingBox>,
    ) -> Result<(f32, BoundingBox)> {
        let fallback = seed_box
            .unwrap_or_else(|| BoundingBox::new(0.0, 0.0, frame.width as f32, frame.height as f32));
        let tables = match tables {
            Some(tables) if !frame.objects.is_empty() => tables,
            // Nothing to ground: fall back to the fast-search box with a weak score.
            _ => return Ok((0.0, fallback)),
        };
        let text = &tables.text;
        let image = tables.image.gather(&tokens.rows)?;

        // Feature enhancer: bidirectional cross-attention layers. Layer 0
        // reads the projections already in the tables.
        let alpha = self.config.fusion_strength;
        let mut xi = image.x;
        let mut xt = text.x.clone();
        for (depth, (i2t, t2i)) in self.layers.iter().enumerate() {
            let (image_ctx, text_ctx) = match (depth, &image.layer0, &text.layer0) {
                (0, Some(img), Some(txt)) => (
                    i2t.attend(&img.q, &txt.k, &txt.v)?,
                    t2i.attend(&txt.q, &img.k, &img.v)?,
                ),
                _ => (
                    i2t.cross_attention(&xi, &xt)?,
                    t2i.cross_attention(&xt, &xi)?,
                ),
            };
            xi = xi.add(&image_ctx.scale(alpha))?;
            xt = xt.add(&text_ctx.scale(alpha))?;
        }

        // Alignment on the *raw* shared-space tokens carries the semantic
        // match; the enhanced features modulate it. Blend the two so random
        // fusion weights cannot erase the grounding signal.
        let raw_alignment = alignment_matrix(&image.raw, &text.raw);
        let fused_alignment = alignment_matrix(&normalize_rows(xi), &normalize_rows(xt));

        let mut best_score = f32::NEG_INFINITY;
        let mut best_box = fallback;
        for (obj, range) in frame.objects.iter().zip(&tokens.objects) {
            // For every query constraint token, the best-matching token of
            // this object; the object's score averages those maxima.
            let mut per_text_max = vec![f32::NEG_INFINITY; text.raw.rows()];
            for (raw_row, fused_row) in raw_alignment[range.clone()]
                .iter()
                .zip(&fused_alignment[range.clone()])
            {
                for ((slot, raw), fused) in per_text_max.iter_mut().zip(raw_row).zip(fused_row) {
                    let combined = 0.8 * raw + 0.2 * fused;
                    if combined > *slot {
                        *slot = combined;
                    }
                }
            }
            let score: f32 = per_text_max.iter().sum::<f32>() / per_text_max.len() as f32;
            if score > best_score {
                best_score = score;
                best_box = obj.bbox;
            }
        }
        Ok((best_score, best_box))
    }
}

/// The per-query tables of one rerank call.
struct QueryTables {
    /// One row per constraint token of the query.
    text: TokenRows,
    /// One row per distinct image token of the candidate set.
    image: TokenRows,
}

/// One token set's rows through the stages that read a single modality.
struct TokenRows {
    /// Raw (unit) shared-space token vectors.
    raw: Matrix,
    /// The tokens after the modality's input projection.
    x: Matrix,
    /// Layer 0's projections of `x`; `None` without enhancer layers.
    layer0: Option<Layer0Rows>,
}

/// Layer 0's projections of one modality's tokens. Text tokens are the
/// queries of text-to-image attention and the keys/values of image-to-text
/// attention; image tokens the other way round.
struct Layer0Rows {
    /// Queries of the attention this modality queries with.
    q: Matrix,
    /// Keys of the attention this modality is the context of.
    k: Matrix,
    /// Values of the attention this modality is the context of.
    v: Matrix,
}

impl TokenRows {
    /// The rows `indices` of every table, in that order.
    fn gather(&self, indices: &[usize]) -> Result<TokenRows> {
        let layer0 = self
            .layer0
            .as_ref()
            .map(|l| -> Result<Layer0Rows> {
                Ok(Layer0Rows {
                    q: l.q.gather_rows(indices)?,
                    k: l.k.gather_rows(indices)?,
                    v: l.v.gather_rows(indices)?,
                })
            })
            .transpose()?;
        Ok(TokenRows {
            raw: self.raw.gather_rows(indices)?,
            x: self.x.gather_rows(indices)?,
            layer0,
        })
    }
}

/// Assigns each image-token occurrence of a candidate set a row of the
/// per-query table, keyed by token identity, in first-seen order.
#[derive(Default)]
struct TokenIndex {
    rows: HashMap<FineToken, usize>,
    /// The distinct tokens; `distinct[row]` is the token of table row `row`.
    distinct: Vec<FineToken>,
    /// Scratch buffer for one object's token keys.
    keys: Vec<FineToken>,
}

/// One frame's image tokens as table rows, grouped by object.
struct FrameTokens {
    /// Table row of each token occurrence, object by object.
    rows: Vec<usize>,
    /// The span of `rows` belonging to each of the frame's objects.
    objects: Vec<Range<usize>>,
}

impl TokenIndex {
    /// Indexes the tokens of `frame`'s objects; each object contributes one
    /// token per facet.
    fn add(&mut self, frame: &Frame) -> FrameTokens {
        let mut tokens = FrameTokens {
            rows: Vec::new(),
            objects: Vec::with_capacity(frame.objects.len()),
        };
        for obj in &frame.objects {
            self.keys.clear();
            AttributeSpace::fine_token_keys_of_attributes(&obj.attributes, &mut self.keys);
            let start = tokens.rows.len();
            for &key in &self.keys {
                let next = self.distinct.len();
                let row = *self.rows.entry(key).or_insert(next);
                if row == next {
                    self.distinct.push(key);
                }
                tokens.rows.push(row);
            }
            tokens.objects.push(start..tokens.rows.len());
        }
        tokens
    }
}

/// Cosine alignment matrix between two sets of unit rows.
fn alignment_matrix(image: &Matrix, text: &Matrix) -> Vec<Vec<f32>> {
    image
        .iter_rows()
        .map(|img| text.iter_rows().map(|txt| dot(img, txt)).collect())
        .collect()
}

/// `m` with every row L2-normalized.
fn normalize_rows(mut m: Matrix) -> Matrix {
    for r in 0..m.rows() {
        lovo_tensor::ops::l2_normalize(m.row_mut(r));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use lovo_video::object::{
        Accessory, Activity, Color, Gender, Location, ObjectAttributes, ObjectClass, Relation,
        SizeClass,
    };
    use lovo_video::scene::{SceneObject, TrackId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn transformer() -> CrossModalityTransformer {
        CrossModalityTransformer::new(CrossModalityConfig::default()).unwrap()
    }

    /// Reference per-frame scorer: every token of the frame and the query
    /// is built, projected and attended from scratch, with no shared table.
    /// The differential test holds the table-driven path to it bit for bit.
    fn reference_score_frame(
        t: &CrossModalityTransformer,
        constraints: &QueryConstraints,
        frame: &Frame,
        seed_box: Option<BoundingBox>,
    ) -> (f32, BoundingBox) {
        let text_tokens = t.space.fine_tokens_of_constraints(constraints);
        if text_tokens.is_empty() || frame.objects.is_empty() {
            let fallback = seed_box.unwrap_or_else(|| {
                BoundingBox::new(0.0, 0.0, frame.width as f32, frame.height as f32)
            });
            return (0.0, fallback);
        }

        let mut image_rows: Vec<Vec<f32>> = Vec::new();
        let mut object_ranges: Vec<(usize, usize)> = Vec::new();
        for obj in &frame.objects {
            let start = image_rows.len();
            image_rows.extend(t.space.fine_tokens_of_attributes(&obj.attributes));
            object_ranges.push((start, image_rows.len()));
        }

        let text_matrix = Matrix::from_rows(&text_tokens).unwrap();
        let image_matrix = Matrix::from_rows(&image_rows).unwrap();
        let mut xi = t.image_proj.forward(&image_matrix).unwrap();
        let mut xt = t.text_proj.forward(&text_matrix).unwrap();

        let alpha = t.config.fusion_strength;
        for (i2t, t2i) in &t.layers {
            let image_ctx = i2t.cross_attention(&xi, &xt).unwrap().scale(alpha);
            let text_ctx = t2i.cross_attention(&xt, &xi).unwrap().scale(alpha);
            xi = xi.add(&image_ctx).unwrap();
            xt = xt.add(&text_ctx).unwrap();
        }

        let cosine = |image: &[Vec<f32>], text: &[Vec<f32>]| -> Vec<Vec<f32>> {
            image
                .iter()
                .map(|img| text.iter().map(|txt| dot(img, txt)).collect())
                .collect()
        };
        let norm_rows = |m: &Matrix| -> Vec<Vec<f32>> {
            (0..m.rows())
                .map(|r| {
                    let mut row = m.row(r).to_vec();
                    lovo_tensor::ops::l2_normalize(&mut row);
                    row
                })
                .collect()
        };
        let raw_alignment = cosine(&image_rows, &text_tokens);
        let fused_alignment = cosine(&norm_rows(&xi), &norm_rows(&xt));

        let mut best_score = f32::NEG_INFINITY;
        let mut best_box = seed_box
            .unwrap_or_else(|| BoundingBox::new(0.0, 0.0, frame.width as f32, frame.height as f32));
        for (obj_idx, &(start, end)) in object_ranges.iter().enumerate() {
            let mut per_text_max = vec![f32::NEG_INFINITY; text_tokens.len()];
            for img_token in start..end {
                for (ti, slot) in per_text_max.iter_mut().enumerate() {
                    let combined =
                        0.8 * raw_alignment[img_token][ti] + 0.2 * fused_alignment[img_token][ti];
                    if combined > *slot {
                        *slot = combined;
                    }
                }
            }
            let score: f32 = per_text_max.iter().sum::<f32>() / per_text_max.len() as f32;
            if score > best_score {
                best_score = score;
                best_box = frame.objects[obj_idx].bbox;
            }
        }
        (best_score, best_box)
    }

    fn pick<T: Copy>(rng: &mut SmallRng, values: &[T]) -> T {
        values[rng.gen_range(0..values.len())]
    }

    fn random_relation(rng: &mut SmallRng) -> Relation {
        let peer = pick(rng, &ObjectClass::ALL);
        pick(
            rng,
            &[
                Relation::None,
                Relation::SideBySideWith(peer),
                Relation::NextTo(peer),
            ],
        )
    }

    const GENDERS: [Gender; 3] = [Gender::Unspecified, Gender::Woman, Gender::Man];

    fn random_attributes(rng: &mut SmallRng) -> ObjectAttributes {
        let mut attrs = ObjectAttributes::simple(pick(rng, &ObjectClass::ALL))
            .with_color(pick(rng, &Color::ALL))
            .with_size(pick(rng, &SizeClass::ALL))
            .with_activity(pick(rng, &Activity::ALL))
            .with_location(pick(rng, &Location::ALL))
            .with_gender(pick(rng, &GENDERS))
            .with_relation(random_relation(rng));
        for _ in 0..rng.gen_range(0..3usize) {
            attrs = attrs.with_accessory(pick(rng, &Accessory::ALL));
        }
        attrs
    }

    /// Each facet constrained with probability 1/2; every fourth case has no
    /// constraints at all.
    fn random_constraints(rng: &mut SmallRng, case: usize) -> QueryConstraints {
        if case % 4 == 0 {
            return QueryConstraints::default();
        }
        let maybe = |rng: &mut SmallRng| rng.gen_range(0..2u8) == 1;
        QueryConstraints {
            class: maybe(rng).then(|| pick(rng, &ObjectClass::ALL)),
            color: maybe(rng).then(|| pick(rng, &Color::ALL)),
            size: maybe(rng).then(|| pick(rng, &SizeClass::ALL)),
            activity: maybe(rng).then(|| pick(rng, &Activity::ALL)),
            location: maybe(rng).then(|| pick(rng, &Location::ALL)),
            relation: maybe(rng).then(|| random_relation(rng)),
            accessories: (0..rng.gen_range(0..3usize))
                .map(|_| pick(rng, &Accessory::ALL))
                .collect(),
            gender: maybe(rng).then(|| pick(rng, &GENDERS)),
        }
    }

    /// 0–4 objects. Frame indices come from a small range so that index ties
    /// (broken by video id) occur.
    fn random_frame(rng: &mut SmallRng) -> Frame {
        let mut frame = Frame::empty(
            rng.gen_range(0..6usize),
            rng.gen_range(0.0..60.0f64),
            1280,
            720,
        );
        for i in 0..rng.gen_range(0..5usize) {
            frame.objects.push(SceneObject {
                track: TrackId(i as u64),
                attributes: random_attributes(rng),
                bbox: BoundingBox::new(
                    rng.gen_range(0.0..1000.0f32),
                    rng.gen_range(0.0..600.0f32),
                    rng.gen_range(10.0..200.0f32),
                    rng.gen_range(10.0..100.0f32),
                ),
                velocity: (0.0, 0.0),
            });
        }
        frame
    }

    fn assert_bit_identical(got: &[RerankedFrame], want: &[RerankedFrame]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.score.to_bits(), w.score.to_bits(), "{g:?} vs {w:?}");
            assert_eq!((g.video_id, g.frame_index), (w.video_id, w.frame_index));
            assert_eq!(g.timestamp.to_bits(), w.timestamp.to_bits());
            assert_eq!(g.bbox, w.bbox);
        }
    }

    #[test]
    fn rerank_matches_the_per_frame_reference_bit_for_bit() {
        let configs = [
            CrossModalityConfig::default(),
            CrossModalityConfig {
                enhancer_layers: 0,
                ..CrossModalityConfig::default()
            },
            CrossModalityConfig {
                enhancer_layers: 3,
                heads: 2,
                ..CrossModalityConfig::default()
            },
        ];
        let mut rng = SmallRng::seed_from_u64(0x5eed_0012);
        for config in configs {
            let t = CrossModalityTransformer::new(config).unwrap();
            for case in 0..24 {
                let constraints = random_constraints(&mut rng, case);
                let mut frames: Vec<Frame> = (0..rng.gen_range(0..7usize))
                    .map(|_| random_frame(&mut rng))
                    .collect();
                // A repeated frame: its copies tie on score and frame index.
                if let Some(first) = frames.first().cloned() {
                    frames.push(first);
                }
                let candidates: Vec<CandidateFrame> = frames
                    .iter()
                    .map(|frame| CandidateFrame {
                        video_id: rng.gen_range(0..3u32),
                        frame,
                        seed_box: (rng.gen_range(0..2u8) == 1)
                            .then(|| BoundingBox::new(1.0, 2.0, 30.0, 40.0)),
                    })
                    .collect();

                let mut want = Vec::with_capacity(candidates.len());
                for c in &candidates {
                    let (score, bbox) =
                        reference_score_frame(&t, &constraints, c.frame, c.seed_box);
                    let single = t.score_frame(&constraints, c.frame, c.seed_box).unwrap();
                    assert_eq!(single.0.to_bits(), score.to_bits());
                    assert_eq!(single.1, bbox);
                    want.push(RerankedFrame {
                        video_id: c.video_id,
                        frame_index: c.frame.index,
                        timestamp: c.frame.timestamp,
                        score,
                        bbox,
                    });
                }
                want.sort_by(|a, b| rerank_order(a.order_key(), b.order_key()));
                let got = t
                    .rerank_with_constraints(&constraints, &candidates)
                    .unwrap();
                assert_bit_identical(&got, &want);
            }
        }
    }

    #[test]
    fn rerank_order_is_total_over_nan_and_signed_zero() {
        let mut keys = vec![
            (0.5, 3, 0),
            (f32::NAN, 1, 0),
            (-0.0, 2, 0),
            (0.0, 2, 0),
            (1.0, 4, 1),
            (1.0, 4, 0),
            (1.0, 0, 2),
            (-f32::NAN, 0, 0),
            (f32::NEG_INFINITY, 5, 0),
        ];
        for a in &keys {
            assert_eq!(rerank_order(*a, *a), Ordering::Equal);
            for b in &keys {
                assert_eq!(rerank_order(*a, *b), rerank_order(*b, *a).reverse());
            }
        }
        keys.sort_by(|a, b| rerank_order(*a, *b));
        let order: Vec<(u32, usize, u32)> = keys
            .iter()
            .map(|&(score, frame, video)| (score.to_bits(), frame, video))
            .collect();
        let bits = |x: f32| x.to_bits();
        assert_eq!(
            order,
            vec![
                // Positive NaN sorts first, negative NaN last; +0.0 before -0.0.
                (bits(f32::NAN), 1, 0),
                (bits(1.0), 0, 2),
                (bits(1.0), 4, 0),
                (bits(1.0), 4, 1),
                (bits(0.5), 3, 0),
                (bits(0.0), 2, 0),
                (bits(-0.0), 2, 0),
                (bits(f32::NEG_INFINITY), 5, 0),
                (bits(-f32::NAN), 0, 0),
            ]
        );
    }

    fn frame_with(attrs: ObjectAttributes, index: usize) -> Frame {
        let mut f = Frame::empty(index, index as f64 / 30.0, 1280, 720);
        f.objects.push(SceneObject {
            track: TrackId(index as u64),
            attributes: attrs,
            bbox: BoundingBox::new(100.0, 100.0, 200.0, 120.0),
            velocity: (0.0, 0.0),
        });
        f
    }

    #[test]
    fn config_validation() {
        assert!(CrossModalityConfig::default().validate().is_ok());
        let c = CrossModalityConfig {
            heads: 5,
            ..CrossModalityConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CrossModalityConfig {
            fusion_strength: 2.0,
            ..CrossModalityConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn matching_frame_outranks_near_miss() {
        let t = transformer();
        let query = "a green bus with the white roof driving on the road";
        let target = frame_with(
            ObjectAttributes::simple(ObjectClass::Bus)
                .with_color(Color::Green)
                .with_accessory(Accessory::WhiteRoof),
            0,
        );
        let wrong_color = frame_with(
            ObjectAttributes::simple(ObjectClass::Bus).with_color(Color::White),
            1,
        );
        let wrong_class = frame_with(
            ObjectAttributes::simple(ObjectClass::Truck).with_color(Color::Green),
            2,
        );
        let candidates = vec![
            CandidateFrame {
                video_id: 0,
                frame: &wrong_color,
                seed_box: None,
            },
            CandidateFrame {
                video_id: 0,
                frame: &target,
                seed_box: None,
            },
            CandidateFrame {
                video_id: 0,
                frame: &wrong_class,
                seed_box: None,
            },
        ];
        let ranked = t.rerank(query, &candidates).unwrap();
        assert_eq!(ranked[0].frame_index, 0, "target frame should rank first");
        assert!(ranked[0].score > ranked[1].score);
    }

    #[test]
    fn relation_queries_distinguish_frames() {
        let t = transformer();
        let query = "a red car side by side with another car in the center of the road";
        let with_rel = frame_with(
            ObjectAttributes::simple(ObjectClass::Car)
                .with_color(Color::Red)
                .with_location(lovo_video::object::Location::RoadCenter)
                .with_relation(Relation::SideBySideWith(ObjectClass::Car)),
            0,
        );
        let without_rel = frame_with(
            ObjectAttributes::simple(ObjectClass::Car)
                .with_color(Color::Red)
                .with_location(lovo_video::object::Location::RoadCenter),
            1,
        );
        let candidates = vec![
            CandidateFrame {
                video_id: 0,
                frame: &without_rel,
                seed_box: None,
            },
            CandidateFrame {
                video_id: 0,
                frame: &with_rel,
                seed_box: None,
            },
        ];
        let ranked = t.rerank(query, &candidates).unwrap();
        assert_eq!(ranked[0].frame_index, 0);
    }

    #[test]
    fn grounded_box_is_the_matching_objects_box() {
        let t = transformer();
        let mut frame = Frame::empty(0, 0.0, 1280, 720);
        frame.objects.push(SceneObject {
            track: TrackId(1),
            attributes: ObjectAttributes::simple(ObjectClass::Person),
            bbox: BoundingBox::new(10.0, 10.0, 40.0, 100.0),
            velocity: (0.0, 0.0),
        });
        frame.objects.push(SceneObject {
            track: TrackId(2),
            attributes: ObjectAttributes::simple(ObjectClass::Bus).with_color(Color::Green),
            bbox: BoundingBox::new(600.0, 300.0, 260.0, 110.0),
            velocity: (0.0, 0.0),
        });
        let constraints = TextEncoder::parse("a green bus on the road");
        let (_, bbox) = t.score_frame(&constraints, &frame, None).unwrap();
        assert!(bbox.iou(&frame.objects[1].bbox) > 0.99);
    }

    #[test]
    fn empty_frame_or_query_falls_back_gracefully() {
        let t = transformer();
        let empty = Frame::empty(0, 0.0, 640, 360);
        let constraints = TextEncoder::parse("a red car");
        let seed = BoundingBox::new(5.0, 5.0, 50.0, 50.0);
        let (score, bbox) = t.score_frame(&constraints, &empty, Some(seed)).unwrap();
        assert_eq!(score, 0.0);
        assert_eq!(bbox, seed);

        let frame = frame_with(ObjectAttributes::simple(ObjectClass::Car), 0);
        let (score2, _) = t
            .score_frame(&QueryConstraints::default(), &frame, None)
            .unwrap();
        assert_eq!(score2, 0.0);
    }

    #[test]
    fn rerank_is_deterministic_and_sorted() {
        let t = transformer();
        let frames: Vec<Frame> = (0..5)
            .map(|i| {
                frame_with(
                    ObjectAttributes::simple(ObjectClass::Car).with_color(if i % 2 == 0 {
                        Color::Red
                    } else {
                        Color::Blue
                    }),
                    i,
                )
            })
            .collect();
        let candidates: Vec<CandidateFrame> = frames
            .iter()
            .map(|f| CandidateFrame {
                video_id: 0,
                frame: f,
                seed_box: None,
            })
            .collect();
        let a = t.rerank("a red car on the road", &candidates).unwrap();
        let b = t.rerank("a red car on the road", &candidates).unwrap();
        assert_eq!(a, b);
        for pair in a.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        // Red frames (even indices) must outrank blue ones.
        assert!(a[0].frame_index % 2 == 0);
        assert!(a[1].frame_index % 2 == 0);
    }
}
