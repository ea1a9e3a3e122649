//! `live`: footage keeps arriving while standing queries run. An open-loop
//! writer appends one fresh camera per second to a durable engine, and an
//! open-loop poller reruns a fixed pool of standing queries through a
//! default `QueryService` in front of it.

use crate::adhoc::serve_counters;
use crate::common::{self, IngestLog, Run};
use crate::gen::{self, STANDING_QUERIES};
use crate::measure::{describe_latency, median, ms, open_loop, percentile, written_bytes};
use crate::report::Report;
use crate::trace::Tracer;
use lovo_core::{DurabilityConfig, Lovo, LovoConfig};
use lovo_serve::{QueryService, ServeConfig};
use lovo_video::VideoCollection;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Standing queries per second: 1,000 in under 17 seconds, enough for a
/// p99 with ten samples beyond it.
const POLL_RATE: u32 = 60;

/// A durable store's directory, removed when dropped.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(attempt: usize) -> Result<Self, String> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("live-{}-{attempt}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's store is left in it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

pub fn run(run: &Run, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let videos = gen::corpus();
    let durability = DurabilityConfig::default();
    report.note(format!(
        "durable store: fsync policy {:?}",
        durability.fsync
    ));
    // A dropped set-up closes its service before removing its directory.
    let ((service, _dir), setup_s) = common::timed_setups(|attempt| {
        let dir = StoreDir::new(attempt)?;
        let engine =
            Lovo::build_durable(&videos, LovoConfig::default(), &dir.0, durability.clone())
                .map_err(|e| e.to_string())?;
        let service = QueryService::start(Arc::new(engine), ServeConfig::default())
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((service, dir))
    })?;
    report.set("setup_s", setup_s);
    let engine = Arc::clone(service.engine());
    for n in 0..2 {
        service
            .submit(gen::warmup_spec(n))
            .map_err(|e| format!("warm-up failed: {e}"))?;
    }

    let standing = gen::standing_specs(run.seed);
    let writes_due = gen::write_schedule(run.seed, run.window);
    let polls_due = gen::poll_schedule(POLL_RATE, run.window);
    let batches: Vec<VideoCollection> = (0..writes_due.len()).map(gen::batch).collect();
    let before = service.stats();
    let written_before = written_bytes().unwrap_or(0);
    let start = Instant::now() + Duration::from_millis(10);
    let (writes, polls) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            open_loop(start, &writes_due, |k| {
                let call = Instant::now();
                let result = engine.add_videos(&batches[k]);
                (result, ms(call.elapsed()))
            })
        });
        let polls = open_loop(start, &polls_due, |n| {
            service.submit(standing[n % STANDING_QUERIES].clone())
        });
        (writer.join().expect("the writer panicked"), polls)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = service.stats();
    let mut ingest = IngestLog {
        written_bytes: written_bytes().unwrap_or(0).saturating_sub(written_before),
        ..IngestLog::default()
    };
    for w in &writes {
        ingest.push(w.latency_ms, w.result.1, &w.result.0);
    }
    report.note(format!(
        "load: open-loop writer, {} batches of {} frames, one per second; open-loop poller, {} standing queries at {POLL_RATE}/s; {wall_s:.2} s",
        writes.len(),
        gen::BATCH_FRAMES,
        STANDING_QUERIES,
    ));
    let lateness: Vec<f64> = polls.iter().map(|p| p.late_ms).collect();
    let writer_late: Vec<f64> = writes.iter().map(|w| w.late_ms).collect();
    report.note(describe_latency(
        "poller lateness behind schedule",
        &lateness,
    ));
    report.note(describe_latency(
        "writer lateness behind schedule",
        &writer_late,
    ));

    let served: Vec<_> = polls
        .iter()
        .filter_map(|p| p.result.as_ref().ok().map(|s| (p, s)))
        .collect();
    let latencies: Vec<f64> = served.iter().map(|(p, _)| p.latency_ms).collect();
    report.attempted += polls.len();
    report.failed += polls.len() - served.len();
    report.set("qps", served.len() as f64 / wall_s);
    report.set("query_p50_ms", median(&latencies));
    report.set("query_p99_ms", percentile(&latencies, 99.0));
    report.set("loadgen.queries", latencies.len() as f64);
    report.set("loadgen.late_p99_ms", percentile(&lateness, 99.0));
    report.note(describe_latency(
        "query latency (due -> answer)",
        &latencies,
    ));
    ingest.report(&mut report);
    report.set(
        "failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );

    let computed: Vec<_> = served
        .iter()
        .filter(|(_, s)| !s.cache_hit)
        .map(|(_, s)| &s.result)
        .collect();
    common::engine_counters(&mut report, &computed);
    let waits: Vec<f64> = computed.iter().map(|r| r.timings.wait_ms()).collect();
    report.set("serve.wait_ms", median(&waits));
    serve_counters(&mut report, &before, &stats);
    for name in [
        "router.shards_pruned_per_query",
        "router.coarse_leg_ms",
        "router.rerank_leg_ms",
        "router.self_ms",
        "router.result_hit_ratio",
        "router.outages",
    ] {
        report.set(name, 0.0);
    }

    // Gate, once writes stop: a computed and a cached answer of every
    // standing query equal the engine's own answer at the same epoch.
    let mut mismatched = 0;
    let mut unsettled = 0;
    for spec in &standing {
        let mut compared = false;
        for _ in 0..40 {
            let epoch = engine.ingest_epoch();
            let first = service.submit(spec.clone()).map_err(|e| e.to_string())?;
            let second = service.submit(spec.clone()).map_err(|e| e.to_string())?;
            let reference = engine.query_spec(spec).map_err(|e| e.to_string())?;
            if engine.ingest_epoch() != epoch {
                // Background compaction moved the epoch; try again.
                std::thread::sleep(Duration::from_millis(100));
                continue;
            }
            mismatched += usize::from(
                first.result.frames != reference.frames || second.result.frames != reference.frames,
            );
            compared = true;
            break;
        }
        unsettled += usize::from(!compared);
    }
    report.gate(
        "served_equals_query_spec",
        mismatched == 0 && unsettled == 0,
        format!(
            "{} of {STANDING_QUERIES} standing queries equal when computed and when cached; {unsettled} never saw a settled epoch",
            STANDING_QUERIES - mismatched - unsettled
        ),
    );

    let mut corpus: Vec<&VideoCollection> = vec![&videos];
    corpus.extend(&batches[..writes.len()]);
    let avep = common::mean_avep(&corpus, |spec| {
        service
            .submit(spec)
            .map(|s| s.result.frames)
            .map_err(|e| e.to_string())
    })?;
    report.set("mean_avep", avep);

    if run.trace {
        let queries = standing.iter().cycle().take(2 * STANDING_QUERIES);
        let queries = queries
            .map(|spec| (engine.as_ref(), spec.clone()))
            .collect();
        common::replay_phase(&mut report, queries, tracer, None)?;
    }
    let merged = service.stats().maintenance_segments_merged - before.maintenance_segments_merged;
    common::store_shape(&mut report, &[&engine], merged);
    drop(service);
    drop(engine);
    common::finish(&mut report)?;
    Ok(report)
}
