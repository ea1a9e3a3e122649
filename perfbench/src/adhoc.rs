//! `adhoc`: closed-loop clients submit unique unfiltered complex queries to
//! one engine behind a default `QueryService`.

use crate::common::{self, Run};
use crate::gen::{self, Texts, Workload};
use crate::measure::{closed_loop, describe_latency, median, percentile};
use crate::report::Report;
use crate::trace::Tracer;
use lovo_core::{Lovo, LovoConfig};
use lovo_serve::{QueryService, ServeConfig};
use std::collections::HashSet;
use std::sync::Arc;

pub fn run(run: &Run, clients: usize, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let videos = gen::corpus();
    let (service, setup_s) = common::timed_setups(|_| {
        let engine = Lovo::build(&videos, LovoConfig::default()).map_err(|e| e.to_string())?;
        QueryService::start(Arc::new(engine), ServeConfig::default()).map_err(|e| e.to_string())
    })?;
    report.set("setup_s", setup_s);
    let engine = Arc::clone(service.engine());
    for n in 0..2 * clients {
        service
            .submit(gen::warmup_spec(n))
            .map_err(|e| format!("warm-up failed: {e}"))?;
    }

    let texts = Texts::new(run.seed, Workload::Adhoc as u64);
    let before = service.stats();
    let (records, wall_s) = closed_loop(
        clients,
        run.window,
        |n| gen::think_time(run.seed, n),
        |n| {
            let mut served = service.submit(gen::adhoc_spec(&texts, n));
            if let Ok(served) = &mut served {
                common::trim(&mut served.result, n);
            }
            served
        },
    );
    let stats = service.stats();
    report.note(format!(
        "load: {clients} closed-loop clients with 0-6 ms think time for {wall_s:.2} s"
    ));

    let served: Vec<_> = records
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|s| (r, s)))
        .collect();
    let latencies: Vec<f64> = served.iter().map(|(r, _)| r.latency_ms).collect();
    report.attempted += records.len();
    report.failed += records.len() - served.len();
    report.set("qps", served.len() as f64 / wall_s);
    report.set("query_p50_ms", median(&latencies));
    report.set("query_p99_ms", percentile(&latencies, 99.0));
    report.set("loadgen.queries", latencies.len() as f64);
    report.set("loadgen.late_p99_ms", 0.0);
    report.set(
        "failed_ratio",
        (records.len() - served.len()) as f64 / records.len().max(1) as f64,
    );
    report.note(describe_latency(
        "query latency (submit -> answer)",
        &latencies,
    ));

    // Gates: the stream bypasses the cache by construction, and served
    // answers equal the engine's own.
    let fingerprints: HashSet<u64> = records
        .iter()
        .map(|r| engine.plan(&gen::adhoc_spec(&texts, r.index)).fingerprint())
        .collect();
    report.gate(
        "unique_plan_fingerprints",
        fingerprints.len() == records.len(),
        format!("{} distinct of {}", fingerprints.len(), records.len()),
    );
    let hits = served.iter().filter(|(_, s)| s.cache_hit).count();
    report.gate("cache_bypassed", hits == 0, format!("{hits} cache hits"));
    let (mut compared, mut mismatched) = (0, 0);
    for (record, answer) in served.iter().filter(|(r, _)| common::sampled(r.index)) {
        let reference = engine
            .query_spec(&gen::adhoc_spec(&texts, record.index))
            .map_err(|e| format!("reference query failed: {e}"))?;
        compared += 1;
        mismatched += usize::from(reference.frames != answer.result.frames);
    }
    report.gate(
        "served_equals_query_spec",
        mismatched == 0 && compared > 0,
        format!(
            "{} of {compared} sampled answers equal",
            compared - mismatched
        ),
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

    let avep = common::mean_avep(&[&videos], |spec| {
        service
            .submit(spec)
            .map(|s| s.result.frames)
            .map_err(|e| e.to_string())
    })?;
    report.set("mean_avep", avep);

    if run.trace {
        let queries = (0..48).map(|n| (engine.as_ref(), gen::adhoc_spec(&texts, n)));
        common::replay_phase(&mut report, queries.collect(), tracer, Some(0.98))?;
    }

    // Appends run alone: the service (and its maintenance thread) stops
    // first.
    let merged = service.stats().maintenance_segments_merged;
    drop(service);
    let ingest = common::ingest_probe(|batch| engine.add_videos(batch));
    ingest.report(&mut report);
    common::store_shape(&mut report, &[&engine], merged);
    common::finish(&mut report)?;
    Ok(report)
}

/// Service-layer counters over the measured window.
pub fn serve_counters(
    report: &mut Report,
    before: &lovo_serve::ServeStats,
    after: &lovo_serve::ServeStats,
) {
    let delta = |f: fn(&lovo_serve::ServeStats) -> u64| (f(after) - f(before)) as f64;
    report.set(
        "serve.batch_size",
        delta(|s| s.engine_queries) / delta(|s| s.engine_batches).max(1.0),
    );
    report.set(
        "serve.cache_hit_ratio",
        delta(|s| s.cache_hits) / delta(|s| s.submitted).max(1.0),
    );
    report.set("serve.stale_evictions", delta(|s| s.cache_stale_evictions));
    report.set("serve.rejected", delta(|s| s.rejected));
}
