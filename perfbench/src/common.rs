//! Pieces every workload shares: timed set-up, answer quality, the ingest
//! log behind freshness, and the traced replay.

use crate::gen;
use crate::measure::{median, ms, percentile, written_bytes};
use crate::report::Report;
use crate::trace::{replay, StageTimes, Tracer};
use lovo_baselines::RankedHit;
use lovo_core::{IngestStats, Lovo, QueryResult, QuerySpec, RankedObject};
use lovo_encoder::TextEncoder;
use lovo_eval::metrics::{average_precision, GroundTruthIndex};
use lovo_video::{DatasetKind, VideoCollection};
use std::time::{Duration, Instant};

/// How one run is configured from the command line.
pub struct Run {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Served answers compared with a reference engine per run.
pub const SAMPLED_ANSWERS: usize = 16;
/// Batches of fresh footage the read-only workloads append after their
/// measured window, to measure freshness without concurrent reads.
pub const PROBE_BATCHES: usize = 20;

/// Builds the front end [`SETUPS`] times, dropping each before building
/// the next, and keeps the last. Returns it with the median set-up time.
pub fn timed_setups<T, E: std::fmt::Display>(
    mut setup: impl FnMut(usize) -> Result<T, E>,
) -> Result<(T, f64), String> {
    let mut seconds = Vec::new();
    let mut kept = None;
    for attempt in 0..SETUPS {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup(attempt).map_err(|e| format!("set-up failed: {e}"))?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    let kept = kept.ok_or("no set-up ran")?;
    Ok((kept, median(&seconds)))
}

/// Mean AveP of the Table II Bellevue queries answered by `answer`, with
/// ground truth over every video the front end holds.
pub fn mean_avep(
    corpus: &[&VideoCollection],
    mut answer: impl FnMut(QuerySpec) -> Result<Vec<RankedObject>, String>,
) -> Result<f64, String> {
    let queries = lovo_eval::workloads::queries_for(DatasetKind::Bellevue);
    let mut all = (*corpus.first().ok_or("empty corpus")?).clone();
    for extra in &corpus[1..] {
        all.videos.extend(extra.videos.iter().cloned());
    }
    let mut total = 0.0;
    for query in &queries {
        let frames = answer(QuerySpec::new(query.text.clone()))?;
        let hits: Vec<RankedHit> = frames
            .iter()
            .map(|f| RankedHit {
                video_id: f.video_id,
                frame_index: f.frame_index,
                bbox: f.bbox,
                score: f.score,
            })
            .collect();
        total += f64::from(average_precision(
            &hits,
            &GroundTruthIndex::build(&all, query),
        ));
    }
    Ok(total / queries.len() as f64)
}

/// Every `SAMPLE_STRIDE`-th query of a closed-loop stream, up to
/// [`SAMPLED_ANSWERS`] of them, keeps its answer for comparison with a
/// reference. The rest keep only their counters, so the benchmark's own
/// memory does not grow with throughput.
const SAMPLE_STRIDE: usize = 50;

pub fn sampled(index: usize) -> bool {
    index.is_multiple_of(SAMPLE_STRIDE) && index / SAMPLE_STRIDE < SAMPLED_ANSWERS
}

/// Drops the frames and text of an answer that is not sampled.
pub fn trim(result: &mut QueryResult, index: usize) {
    if !sampled(index) {
        result.frames = Vec::new();
        result.query = String::new();
    }
}

/// What the ingest path did: one entry per appended batch.
#[derive(Default)]
pub struct IngestLog {
    /// From the batch's due time until `add_videos` returned.
    pub freshness_ms: Vec<f64>,
    /// The `add_videos` call alone.
    pub batch_ms: Vec<f64>,
    pub stats: Vec<IngestStats>,
    pub failed: usize,
    pub written_bytes: u64,
}

impl IngestLog {
    pub fn push(
        &mut self,
        freshness_ms: f64,
        batch_ms: f64,
        result: &lovo_core::Result<IngestStats>,
    ) {
        match result {
            Ok(stats) => {
                self.freshness_ms.push(freshness_ms);
                self.batch_ms.push(batch_ms);
                self.stats.push(*stats);
            }
            Err(_) => self.failed += 1,
        }
    }

    pub fn frames(&self) -> usize {
        self.stats.iter().map(|s| s.total_frames).sum()
    }

    /// Freshness and the ingest- and store-layer write metrics.
    pub fn report(&self, report: &mut Report) {
        report.attempted += self.freshness_ms.len() + self.failed;
        report.failed += self.failed;
        report.set("freshness_p50_ms", median(&self.freshness_ms));
        report.set("freshness_p90_ms", percentile(&self.freshness_ms, 90.0));
        let per_batch =
            |f: fn(&IngestStats) -> f64| median(&self.stats.iter().map(f).collect::<Vec<_>>());
        report.set("ingest.batch_ms", median(&self.batch_ms));
        report.set(
            "ingest.keyframe_ms",
            per_batch(|s| s.keyframe_seconds * 1e3),
        );
        report.set("ingest.encode_ms", per_batch(|s| s.encoding_seconds * 1e3));
        report.set("ingest.index_ms", per_batch(|s| s.indexing_seconds * 1e3));
        let key_frames: usize = self.stats.iter().map(|s| s.key_frames).sum();
        report.set(
            "ingest.key_frames_per_frame",
            key_frames as f64 / self.frames().max(1) as f64,
        );
        report.set(
            "ingest.index_builds",
            self.stats.iter().map(|s| s.index_builds).sum::<usize>() as f64,
        );
        report.set(
            "store.write_bytes_per_frame",
            self.written_bytes as f64 / self.frames().max(1) as f64,
        );
        report.note(crate::measure::describe_latency(
            "freshness (due -> add_videos returned)",
            &self.freshness_ms,
        ));
    }
}

/// Appends [`PROBE_BATCHES`] fresh cameras one after another through
/// `add`, each timed from its call.
pub fn ingest_probe(
    mut add: impl FnMut(&VideoCollection) -> lovo_core::Result<IngestStats>,
) -> IngestLog {
    let batches: Vec<VideoCollection> = (0..PROBE_BATCHES).map(gen::batch).collect();
    let mut log = IngestLog::default();
    let written_before = written_bytes().unwrap_or(0);
    for batch in &batches {
        let start = Instant::now();
        let result = add(batch);
        let elapsed = ms(start.elapsed());
        log.push(elapsed, elapsed, &result);
    }
    log.written_bytes = written_bytes().unwrap_or(0).saturating_sub(written_before);
    log
}

/// Work counters of served answers computed by the engine (cache hits
/// carry the counters of the run that filled the cache, so they are left
/// out).
pub fn engine_counters(report: &mut Report, computed: &[&QueryResult]) {
    let of = |f: fn(&QueryResult) -> usize| {
        median(&computed.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    report.set(
        "coarse.vectors_scored",
        of(|r| r.search_stats.vectors_scored),
    );
    report.set(
        "coarse.segments_probed",
        of(|r| r.search_stats.segments_probed),
    );
    report.set(
        "coarse.segments_pruned",
        of(|r| r.search_stats.segments_pruned),
    );
    report.set("coarse.filtered_out", of(|r| r.search_stats.filtered_out));
    report.set("rerank.frames", of(|r| r.reranked_frames));
}

/// Replays each spec through its engine's stage calls, once with spans and
/// once without (alternating which runs first), and checks the composed
/// answer against `query_spec` on the same engine. Sets the stage metrics
/// and the tracing overhead (traced over untraced replay), and gates on
/// every composed answer equalling `query_spec`. A query during which the
/// engine's contents changed is replayed again.
pub fn replay_phase(
    report: &mut Report,
    queries: Vec<(&Lovo, QuerySpec)>,
    tracer: &Tracer,
    coverage_floor: Option<f64>,
) -> Result<(), String> {
    let config = queries.first().ok_or("nothing to replay")?.0.config();
    let encoder = TextEncoder::new(config.text).map_err(|e| e.to_string())?;
    let mut times: Vec<StageTimes> = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut mismatches = 0;
    for (n, (engine, spec)) in queries.into_iter().enumerate() {
        for attempt in 0.. {
            let epoch = engine.ingest_epoch();
            let plain = |untraced_ms: &mut Vec<f64>| {
                let start = Instant::now();
                let out = replay(engine, &encoder, &spec, None, n as u64);
                untraced_ms.push(ms(start.elapsed()));
                out
            };
            let traced = if n % 2 == 0 {
                plain(&mut untraced_ms).map_err(|e| format!("replay failed: {e}"))?;
                replay(engine, &encoder, &spec, Some(tracer), n as u64)
            } else {
                let traced = replay(engine, &encoder, &spec, Some(tracer), n as u64);
                plain(&mut untraced_ms).map_err(|e| format!("replay failed: {e}"))?;
                traced
            };
            let (frames, _, stage) = traced.map_err(|e| format!("replay failed: {e}"))?;
            let reference = engine
                .query_spec(&spec)
                .map_err(|e| format!("query_spec failed: {e}"))?;
            if engine.ingest_epoch() != epoch && attempt < 20 {
                // Background maintenance changed the engine mid-comparison.
                untraced_ms.pop();
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
            mismatches += usize::from(frames != reference.frames);
            times.push(stage);
            break;
        }
    }
    let of = |f: fn(&StageTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    report.set("trace.queries", times.len() as f64);
    report.set("trace.query_ms", of(|t| t.query));
    report.set("trace.self_ms", of(|t| t.self_ms()));
    let coverage = of(|t| t.stages() / t.query);
    report.set("trace.coverage", coverage);
    report.set(
        "trace.overhead_pct",
        (of(|t| t.query) / median(&untraced_ms) - 1.0) * 100.0,
    );
    report.set("plan.ms", of(|t| t.plan));
    report.set("encode.ms", of(|t| t.encode));
    report.set("prune.ms", of(|t| t.prune));
    report.set("coarse.ms", of(|t| t.coarse));
    report.set("rerank.ms", of(|t| t.rerank));
    report.set(
        "rerank.ms_per_frame",
        of(|t| t.rerank / t.rerank_frames.max(1) as f64),
    );
    report.set("aggregate.ms", of(|t| t.aggregate));
    report.gate(
        "traced_equals_query_spec",
        mismatches == 0 && !times.is_empty(),
        format!(
            "{} of {} replayed queries composed the query_spec answer",
            times.len() - mismatches,
            times.len()
        ),
    );
    if let Some(floor) = coverage_floor {
        report.gate(
            "stage_spans_cover_query",
            coverage >= floor,
            format!(
                "stage spans cover {:.2}% of the query span (floor {:.0}%)",
                coverage * 100.0,
                floor * 100.0
            ),
        );
    }
    report.note(format!(
        "traced replay: {} queries, query span p50 {:.3} ms traced vs {:.3} ms untraced",
        times.len(),
        of(|t| t.query),
        median(&untraced_ms)
    ));
    Ok(())
}

/// Store metrics of a set of engines at the end of a run.
pub fn store_shape(report: &mut Report, engines: &[&Lovo], segments_merged: u64) {
    let sealed: usize = engines
        .iter()
        .map(|e| e.collection_stats().sealed_segments)
        .sum();
    let bytes: usize = engines.iter().map(|e| e.storage_bytes()).sum();
    let patches: usize = engines.iter().map(|e| e.indexed_patches()).sum();
    report.set("store.sealed_segments", sealed as f64);
    report.set("store.segments_merged", segments_merged as f64);
    report.set(
        "store.bytes_per_patch",
        bytes as f64 / patches.max(1) as f64,
    );
}

/// The peak RSS of this process, read last.
pub fn finish(report: &mut Report) -> Result<(), String> {
    let rss =
        crate::measure::peak_rss_mb().ok_or("VmHWM is not readable from /proc/self/status")?;
    report.set("peak_rss_mb", rss);
    Ok(())
}
