//! The plan executor: runs [`QueryPlan`]s produced by the
//! [`crate::planner::QueryPlanner`] against a built [`Lovo`] system.
//!
//! One implementation serves every entry point — `Lovo::query`,
//! `Lovo::query_with_k`, `Lovo::query_spec` and `Lovo::query_batch` are all
//! thin wrappers over the crate-private `execute_batch`. The stages mirror
//! [`crate::planner::PlanStage`]:
//!
//! 1. **encode** — every text in the batch is encoded up front;
//! 2. **prune** — each plan's compiled predicate is resolved into a
//!    pushed-down filter (video-only predicates compile to an id bit test;
//!    time/class predicates join the metadata table once); provably-empty
//!    plans short-circuit to an empty result here;
//! 3. **coarse** — all remaining queries fan out over the storage segments
//!    *together* in one batched pass (one collection lock acquisition, one
//!    segment walk shared by the batch), each with its own filter;
//! 4. **rerank** — the cross-modality transformer re-scores each query's
//!    candidate frames;
//! 5. **aggregate** — frames are grouped, truncated and assembled into
//!    [`QueryResult`]s with per-stage timings.

use crate::engine::{Lovo, QueryResult, QueryTimings, RankedObject};
use crate::planner::QueryPlan;
use crate::summary::{split_patch_id, PATCH_COLLECTION};
use crate::{LovoError, Result};
use lovo_encoder::cross_modality::CandidateFrame;
use lovo_encoder::{rerank_order, QueryEmbedding, RerankedFrame};
use lovo_index::SearchStats;
use lovo_store::{BatchQuery, JoinedHit, PushdownFilter};
use lovo_video::bbox::BoundingBox;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::time::Instant;

/// One coarse-stage candidate patch in shard-portable form: the packed patch
/// id, its fast-search score, the patch's bounding box, and the owning key
/// frame's timestamp when the producing engine has published that key frame.
///
/// The shard router's coarse responses carry these across the router↔shard
/// boundary; the single-engine executor builds the same values internally,
/// so both paths aggregate through one implementation — which is what makes
/// sharded answers bit-identical to single-engine ones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoarseHit {
    /// Packed patch id (video / frame / patch, see `lovo_store::patch_id`).
    pub patch_id: u64,
    /// Fast-search similarity score of this patch.
    pub score: f32,
    /// The patch's bounding box.
    pub bbox: BoundingBox,
    /// Timestamp of the owning key frame in seconds, or `None` when the
    /// producing engine has not (yet) published the key frame — consumers
    /// skip such frames exactly as the single-engine ablation path does.
    pub timestamp: Option<f64>,
}

/// One candidate key frame after coarse hits are grouped: the frame key, its
/// best fast-search score and box (the rerank seed), and the frame's
/// timestamp when known. Produced by [`group_hits_by_frame`]; the shard
/// router ships these back to each frame's owning shard for the rerank
/// stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameSeed {
    /// Video the frame belongs to.
    pub video_id: u32,
    /// Key-frame index within the video.
    pub frame_index: u32,
    /// Best fast-search score among the frame's candidate patches.
    pub score: f32,
    /// Bounding box of the best-scoring candidate patch (the rerank seed).
    pub bbox: BoundingBox,
    /// Timestamp of the key frame in seconds, when known to the producer.
    pub timestamp: Option<f64>,
}

/// The coarse candidate order: score descending, packed patch id ascending —
/// the same total order the segment-level top-k merge uses, exposed as a
/// comparator so the shard router can merge concatenated per-shard lists
/// into exactly the sequence a single engine's fast search would return.
pub fn coarse_hit_order(a: &CoarseHit, b: &CoarseHit) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.patch_id.cmp(&b.patch_id))
}

/// The reranked output order, [`lovo_encoder::rerank_order`] — the sort
/// `rerank_with_constraints` applies internally — over ranked objects, so the
/// shard router's merge of per-shard reranked lists reproduces the
/// single-engine sequence.
pub fn reranked_order(a: &RankedObject, b: &RankedObject) -> Ordering {
    let key = |r: &RankedObject| (r.score, r.frame_index as usize, r.video_id);
    rerank_order(key(a), key(b))
}

/// The ablation (rerank-disabled) output order: fast-search score
/// descending, then `(video id, frame index)` ascending.
pub fn unreranked_order(a: &RankedObject, b: &RankedObject) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| (a.video_id, a.frame_index).cmp(&(b.video_id, b.frame_index)))
}

/// Merges per-shard coarse top-k lists into the global top-`k`, in the order
/// a single engine's fast search would return them ([`coarse_hit_order`]).
/// Correct because each shard returns *its* top-`k` under the same total
/// order, and every member of the global top-`k` residing on shard `s` is
/// necessarily in `s`'s local top-`k`.
pub fn merge_coarse(lists: Vec<Vec<CoarseHit>>, k: usize) -> Vec<CoarseHit> {
    let mut merged: Vec<CoarseHit> = lists.into_iter().flatten().collect();
    merged.sort_by(coarse_hit_order);
    merged.truncate(k);
    merged
}

/// Merges per-shard reranked result lists into the global output
/// ([`reranked_order`], truncated to `output_frames`). Exact because the
/// cross-modality model scores each frame independently and frames are
/// partitioned across shards, so the union of per-shard sorted lists is a
/// permutation-free merge of the single-engine list.
pub fn merge_reranked(lists: Vec<Vec<RankedObject>>, output_frames: usize) -> Vec<RankedObject> {
    let mut merged: Vec<RankedObject> = lists.into_iter().flatten().collect();
    merged.sort_by(reranked_order);
    merged.truncate(output_frames);
    merged
}

/// Groups coarse candidates (given best-first) into candidate frames: one
/// seed per key frame, listed in order of each frame's best patch's rank,
/// keeping the best score/box per frame (strictly-greater wins, so on score
/// ties the earlier — smaller-patch-id — box is kept). The single-engine
/// executor and the shard router both group through this one function,
/// which is what makes their frame ordering identical.
pub fn group_hits_by_frame(hits: &[CoarseHit]) -> Vec<FrameSeed> {
    let mut order: Vec<(u32, u32)> = Vec::new();
    let mut best: HashMap<(u32, u32), FrameSeed> = HashMap::new();
    for hit in hits {
        let (video_id, frame_index, _) = split_patch_id(hit.patch_id);
        let key = (video_id, frame_index);
        match best.get_mut(&key) {
            Some(existing) => {
                if hit.score > existing.score {
                    existing.score = hit.score;
                    existing.bbox = hit.bbox;
                }
                if existing.timestamp.is_none() {
                    existing.timestamp = hit.timestamp;
                }
            }
            None => {
                best.insert(
                    key,
                    FrameSeed {
                        video_id,
                        frame_index,
                        score: hit.score,
                        bbox: hit.bbox,
                        timestamp: hit.timestamp,
                    },
                );
                order.push(key);
            }
        }
    }
    order
        .iter()
        .filter_map(|key| best.get(key).copied())
        .collect()
}

/// Assembles the ablation (rerank-disabled) output from grouped frame seeds:
/// frames whose timestamp is unknown (key frame unpublished on the producing
/// engine) are skipped, the rest are sorted by [`unreranked_order`] and
/// truncated to `output_frames`.
pub fn assemble_unreranked(seeds: &[FrameSeed], output_frames: usize) -> Vec<RankedObject> {
    let mut ranked: Vec<RankedObject> = seeds
        .iter()
        .filter_map(|seed| {
            seed.timestamp.map(|timestamp| RankedObject {
                video_id: seed.video_id,
                frame_index: seed.frame_index,
                timestamp,
                score: seed.score,
                bbox: seed.bbox,
            })
        })
        .collect();
    ranked.sort_by(unreranked_order);
    ranked.truncate(output_frames);
    ranked
}

fn coarse_hit_from_joined(hit: &JoinedHit, timestamp: Option<f64>) -> CoarseHit {
    CoarseHit {
        patch_id: hit.patch_id,
        score: hit.score,
        bbox: BoundingBox::new(
            hit.record.bbox.0,
            hit.record.bbox.1,
            hit.record.bbox.2,
            hit.record.bbox.3,
        ),
        timestamp,
    }
}

/// Multi-engine plan execution entry points: one engine acting as a *shard*
/// runs a routed plan in two halves — the coarse stage against its local
/// segments, and the rerank stage over the frames the router assigned back
/// to it. Both take an already-compiled [`QueryPlan`] (compiled once at the
/// router), and both encode the query text locally: encoding is
/// content-deterministic, so every shard derives the same embedding the
/// router's twin engine would.
impl Lovo {
    /// Runs a plan's encode + prune + coarse stages against this engine
    /// only, returning candidate patches in fast-search order together with
    /// the work counters. Each hit carries its key frame's timestamp so a
    /// router can assemble rerank-disabled results without touching this
    /// engine again. Provably-empty plans return no candidates without
    /// searching. `intra_query_threads` sizes the segment fan-out (`0` =
    /// automatic).
    pub fn coarse_plan(
        &self,
        plan: &QueryPlan,
        intra_query_threads: usize,
    ) -> Result<(Vec<CoarseHit>, SearchStats)> {
        if plan.provably_empty {
            return Ok((Vec::new(), SearchStats::default()));
        }
        let embedding = self.text_encoder.encode(&plan.text)?;
        let filter: Option<PushdownFilter> = if plan.patch_predicate.is_unconstrained() {
            None
        } else {
            self.database.resolve_filter(&plan.patch_predicate)
        };
        let request = BatchQuery {
            query: embedding.embedding.as_slice(),
            k: plan.fast_search_k,
            filter: filter.as_ref(),
        };
        let mut results = self.database.search_batch_with_stats_opts(
            PATCH_COLLECTION,
            std::slice::from_ref(&request),
            intra_query_threads,
        )?;
        let (hits, stats) = results.pop().unwrap_or_default();
        let keyframes = self.keyframes.read();
        let coarse = hits
            .iter()
            .map(|hit| {
                let (video_id, frame_index, _) = split_patch_id(hit.patch_id);
                let timestamp = keyframes
                    .get(&(video_id, frame_index))
                    .map(|frame| frame.timestamp);
                coarse_hit_from_joined(hit, timestamp)
            })
            .collect();
        Ok((coarse, stats))
    }

    /// Runs a plan's rerank stage over the given candidate frames on this
    /// engine: frames whose key frame this engine does not hold are skipped
    /// (exactly as the single-engine path skips unpublished frames), and the
    /// reranked list comes back sorted by [`reranked_order`] but
    /// *untruncated* — the router applies the output budget globally after
    /// merging every shard's list.
    pub fn rerank_plan(&self, plan: &QueryPlan, seeds: &[FrameSeed]) -> Result<Vec<RankedObject>> {
        let embedding = self.text_encoder.encode(&plan.text)?;
        let keyframes = self.keyframes.read();
        let candidates: Vec<CandidateFrame<'_>> = seeds
            .iter()
            .filter_map(|seed| {
                keyframes
                    .get(&(seed.video_id, seed.frame_index))
                    .map(|frame| CandidateFrame {
                        video_id: seed.video_id,
                        frame,
                        seed_box: Some(seed.bbox),
                    })
            })
            .collect();
        let reranked: Vec<RerankedFrame> = self
            .rerank
            .rerank_with_constraints(&embedding.parsed, &candidates)?;
        Ok(reranked
            .into_iter()
            .map(|r| RankedObject {
                video_id: r.video_id,
                frame_index: r.frame_index as u32,
                timestamp: r.timestamp,
                score: r.score,
                bbox: r.bbox,
            })
            .collect())
    }
}

/// Executes a single plan.
pub(crate) fn execute(lovo: &Lovo, plan: &QueryPlan) -> Result<QueryResult> {
    let mut results = execute_batch(lovo, std::slice::from_ref(plan))?;
    results
        .pop()
        .ok_or_else(|| LovoError::InvalidState("executor returned no result for plan".into()))
}

/// Executes a batch of plans, sharing the encode pass and the segment
/// fan-out across the whole batch. Results come back in plan order.
pub(crate) fn execute_batch(lovo: &Lovo, plans: &[QueryPlan]) -> Result<Vec<QueryResult>> {
    execute_batch_opts(lovo, plans, 0)
}

/// [`execute_batch`] with an explicit intra-query fan-out worker count for
/// the coarse stage (`0` = automatic sizing in the storage layer).
pub(crate) fn execute_batch_opts(
    lovo: &Lovo,
    plans: &[QueryPlan],
    intra_query_threads: usize,
) -> Result<Vec<QueryResult>> {
    // --- Stage 1: encode every query text up front (§VI-A). ---
    let mut timings = vec![QueryTimings::default(); plans.len()];
    let mut embeddings: Vec<QueryEmbedding> = Vec::with_capacity(plans.len());
    for (plan, timing) in plans.iter().zip(&mut timings) {
        let start = Instant::now();
        embeddings.push(lovo.text_encoder.encode(&plan.text)?);
        timing.text_encoding_seconds = start.elapsed().as_secs_f64();
    }

    // --- Stage 2: prune — resolve each compiled predicate into a pushed-down
    // filter. Provably-empty plans stop here. Plans sharing one predicate
    // (the common shape of a batch: many texts, one scope) share one
    // resolution — the metadata join runs once per *distinct* predicate, not
    // once per query.
    let mut resolved: Vec<PushdownFilter> = Vec::new();
    // Predicate that first resolved each slot.
    let mut resolved_pred: Vec<&lovo_store::PatchPredicate> = Vec::new();
    let mut plan_filter: Vec<Option<usize>> = Vec::with_capacity(plans.len());
    for (plan, timing) in plans.iter().zip(&mut timings) {
        let start = Instant::now();
        let mut slot = None;
        if !plan.provably_empty && !plan.patch_predicate.is_unconstrained() {
            slot = resolved_pred
                .iter()
                .position(|&first| *first == plan.patch_predicate);
            if slot.is_none() {
                if let Some(filter) = lovo.database.resolve_filter(&plan.patch_predicate) {
                    resolved.push(filter);
                    resolved_pred.push(&plan.patch_predicate);
                    slot = Some(resolved.len() - 1);
                }
            }
        }
        if plan.is_filtered() {
            timing.prune_seconds = start.elapsed().as_secs_f64();
        }
        plan_filter.push(slot);
    }

    // --- Stage 3: coarse filtered search, batched (Algorithm 1). ---
    // All searchable plans fan out over the segments together; the batch's
    // wall-clock is attributed evenly since the pass is shared.
    let mut search_positions: Vec<usize> = Vec::new();
    let mut requests: Vec<BatchQuery<'_>> = Vec::new();
    for (position, ((plan, embedding), slot)) in
        plans.iter().zip(&embeddings).zip(&plan_filter).enumerate()
    {
        if plan.provably_empty {
            continue;
        }
        search_positions.push(position);
        requests.push(BatchQuery {
            query: embedding.embedding.as_slice(),
            k: plan.fast_search_k,
            filter: slot.and_then(|s| resolved.get(s)),
        });
    }
    let mut coarse: Vec<Option<(Vec<JoinedHit>, SearchStats)>> =
        plans.iter().map(|_| None).collect();
    if !requests.is_empty() {
        let search_start = Instant::now();
        let batch_results = lovo.database.search_batch_with_stats_opts(
            PATCH_COLLECTION,
            &requests,
            intra_query_threads,
        )?;
        let shared_seconds = search_start.elapsed().as_secs_f64() / requests.len() as f64;
        for (&position, result) in search_positions.iter().zip(batch_results) {
            // The positions were collected over these same vectors just
            // above, so the lookups cannot miss; `.get` keeps the hot path
            // structurally panic-free all the same.
            if let (Some(timing), Some(slot)) =
                (timings.get_mut(position), coarse.get_mut(position))
            {
                timing.fast_search_seconds = shared_seconds;
                *slot = Some(result);
            }
        }
    }

    // --- Stages 4 + 5: rerank and aggregate, per query. ---
    plans
        .iter()
        .zip(embeddings)
        .zip(coarse)
        .zip(timings)
        .map(|(((plan, embedding), searched), mut timing)| {
            let (hits, stats) = searched.unwrap_or_default();
            finish(lovo, plan, &embedding, hits, stats, &mut timing)
        })
        .collect()
}

/// Stages 4 (rerank) and 5 (aggregate) for one query: group candidate
/// patches by key frame, rerank the strongest frames, and assemble the
/// result.
fn finish(
    lovo: &Lovo,
    plan: &QueryPlan,
    embedding: &QueryEmbedding,
    hits: Vec<JoinedHit>,
    search_stats: SearchStats,
    timing: &mut QueryTimings,
) -> Result<QueryResult> {
    let fast_search_candidates = hits.len();

    // Group candidate patches by their key frame through the shared
    // implementation (the shard router groups through the same function, so
    // frame ordering is identical in both serving shapes). Timestamps are
    // attached lazily below, under the key-frame lock, only on the path
    // that needs them.
    let coarse: Vec<CoarseHit> = hits
        .iter()
        .map(|hit| coarse_hit_from_joined(hit, None))
        .collect();
    let mut seeds = group_hits_by_frame(&coarse);

    // Bound the expensive rerank stage: `seeds` lists frames in order of
    // their best patch's fast-search rank (the search returns patches
    // best-first and a frame is recorded at its first patch), so truncation
    // keeps the strongest candidate frames.
    if plan.enable_rerank {
        seeds.truncate(plan.rerank_frames);
    }

    // Hold the key-frame read lock across the rerank: candidates borrow
    // frames straight from the shared map. Readers never block each other;
    // ingest merges (the only writers) are short.
    let keyframes = lovo.keyframes.read();
    let rerank_start = Instant::now();
    let frames = if plan.enable_rerank {
        let candidates: Vec<CandidateFrame<'_>> = seeds
            .iter()
            .filter_map(|seed| {
                keyframes
                    .get(&(seed.video_id, seed.frame_index))
                    .map(|frame| CandidateFrame {
                        video_id: seed.video_id,
                        frame,
                        seed_box: Some(seed.bbox),
                    })
            })
            .collect();
        let reranked: Vec<RerankedFrame> = lovo
            .rerank
            .rerank_with_constraints(&embedding.parsed, &candidates)?;
        reranked
            .into_iter()
            .take(plan.output_frames)
            .map(|r| RankedObject {
                video_id: r.video_id,
                frame_index: r.frame_index as u32,
                timestamp: r.timestamp,
                score: r.score,
                bbox: r.bbox,
            })
            .collect()
    } else {
        // Ablation: return the fast-search frame order directly. Frames
        // whose key frame is not in the map (a query racing an append, see
        // `Lovo::add_videos`) are skipped — their timestamp stays `None` —
        // exactly as the rerank path skips them, not emitted with a
        // fabricated timestamp.
        for seed in &mut seeds {
            seed.timestamp = keyframes
                .get(&(seed.video_id, seed.frame_index))
                .map(|frame| frame.timestamp);
        }
        assemble_unreranked(&seeds, plan.output_frames)
    };
    timing.rerank_seconds = if plan.enable_rerank {
        rerank_start.elapsed().as_secs_f64()
    } else {
        0.0
    };

    Ok(QueryResult {
        query: plan.text.clone(),
        reranked_frames: if plan.enable_rerank { seeds.len() } else { 0 },
        frames,
        fast_search_candidates,
        timings: *timing,
        search_stats,
    })
}
