//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory and are written out once, when the run ends. Spans
//! of one request share its query id; each names the span that caused it.
//! Nothing here is compiled into the program under test: the engine stages
//! are timed by replaying a query through the engine's public stage calls,
//! router legs by wrapping the shards the router talks to, and ingest by
//! timing `add_videos`.

use crate::measure::ms;
use lovo_core::{group_hits_by_frame, merge_reranked, Lovo, QuerySpec, RankedObject, SearchStats};
use lovo_encoder::TextEncoder;
use lovo_serve::{
    CoarseRequest, CoarseResponse, EngineShard, LocalShard, RerankRequest, RerankResponse,
};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub query: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        query: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.lock().expect("span lock").push(Span {
            id,
            parent,
            query,
            name,
            start_us: at(start),
            end_us: at(end),
        });
        id
    }

    /// Reserves an id for a span whose children finish before it does.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under an id from [`Tracer::reserve`].
    pub fn record_reserved(
        &self,
        id: u64,
        query: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.lock().expect("span lock").push(Span {
            id,
            parent: None,
            query,
            name,
            start_us: at(start),
            end_us: at(end),
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"query\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.id, s.query, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// The engine stages of one replayed query, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub query: f64,
    pub plan: f64,
    pub encode: f64,
    pub prune: f64,
    pub coarse: f64,
    pub rerank: f64,
    /// `group_hits_by_frame` + rerank budget, and the final merge.
    pub aggregate: f64,
    pub rerank_frames: usize,
}

impl StageTimes {
    /// Time of the query span its stage spans do not cover.
    pub fn self_ms(&self) -> f64 {
        self.query - self.stages()
    }

    pub fn stages(&self) -> f64 {
        self.plan + self.encode + self.prune + self.coarse + self.rerank + self.aggregate
    }
}

/// Replays one query through the engine's public stage calls, recording a
/// span per stage when given a tracer, and returns the composed answer —
/// which must equal `Lovo::query_spec` on the same engine — with the stage
/// times.
///
/// `Lovo::coarse_plan` and `Lovo::rerank_plan` each encode the text again
/// (and `coarse_plan` resolves the filter again), as a shard would, so the
/// `coarse` and `rerank` spans include one more encode, and `coarse` one
/// more prune, than the engine's own single-call path does.
pub fn replay(
    engine: &Lovo,
    encoder: &TextEncoder,
    spec: &QuerySpec,
    tracer: Option<&Tracer>,
    query: u64,
) -> lovo_core::Result<(Vec<RankedObject>, SearchStats, StageTimes)> {
    let root = tracer.map(Tracer::reserve);
    let begin = Instant::now();
    let mut mark = begin;
    let mut stage = |name: &'static str| {
        let now = Instant::now();
        if let Some(tracer) = tracer {
            tracer.record(query, root, name, mark, now);
        }
        let elapsed = ms(now.duration_since(mark));
        mark = now;
        elapsed
    };
    let mut times = StageTimes::default();

    let plan = engine.plan(spec);
    times.plan = stage("plan");
    std::hint::black_box(encoder.encode(&plan.text)?);
    times.encode = stage("encode");
    if !plan.patch_predicate.is_unconstrained() {
        std::hint::black_box(engine.database().resolve_filter(&plan.patch_predicate));
    }
    times.prune = stage("prune");
    let (hits, stats) = engine.coarse_plan(&plan, 0)?;
    times.coarse = stage("coarse");
    let mut seeds = group_hits_by_frame(&hits);
    if plan.enable_rerank {
        seeds.truncate(plan.rerank_frames);
    }
    let grouped = stage("group");
    let mut ranked = engine.rerank_plan(&plan, &seeds)?;
    ranked.truncate(plan.output_frames);
    times.rerank = stage("rerank");
    let frames = merge_reranked(vec![ranked], plan.output_frames);
    times.aggregate = grouped + stage("merge");
    let end = Instant::now();
    if let (Some(tracer), Some(root)) = (tracer, root) {
        tracer.record_reserved(root, query, "query", begin, end);
    }
    times.query = ms(end.duration_since(begin));
    times.rerank_frames = seeds.len();
    Ok((frames, stats, times))
}

/// A shard as the router sees it, with a span around each leg. Legs are
/// tagged with the plan fingerprint; every benchmark query has a distinct
/// fingerprint, which joins a leg to the query that caused it.
pub struct TracedShard {
    inner: Arc<LocalShard>,
    tracer: Arc<Tracer>,
}

impl TracedShard {
    pub fn new(inner: Arc<LocalShard>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    fn leg<T>(&self, name: &'static str, fingerprint: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.tracer
            .record(fingerprint, None, name, start, Instant::now());
        out
    }
}

impl EngineShard for TracedShard {
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn video_range(&self) -> Option<(u32, u32)> {
        self.inner.video_range()
    }

    fn coarse(&self, request: &CoarseRequest) -> Result<CoarseResponse, String> {
        self.leg("coarse_leg", request.plan.fingerprint(), || {
            self.inner.coarse(request)
        })
    }

    fn rerank(&self, request: &RerankRequest) -> Result<RerankResponse, String> {
        self.leg("rerank_leg", request.plan.fingerprint(), || {
            self.inner.rerank(request)
        })
    }
}

/// Length of the union of `[start, end)` intervals, in the spans' unit.
pub fn covered(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::covered;

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered(vec![]), 0.0);
        assert_eq!(covered(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(covered(vec![(4.0, 5.0), (0.0, 1.0), (0.5, 0.7)]), 2.0);
    }
}
