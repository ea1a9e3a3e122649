//! `scoped`: closed-loop clients send unique one-camera, two-second queries
//! to a default `ShardRouter` over four hash-placed in-process shards.

use crate::common::{self, Run};
use crate::gen::{self, Texts, Workload};
use crate::measure::{closed_loop, describe_latency, median, percentile};
use crate::report::Report;
use crate::trace::{covered, TracedShard, Tracer};
use lovo_core::{Lovo, LovoConfig, QuerySpec};
use lovo_serve::{
    partition_videos, EngineShard, HashPlacement, LocalShard, Placement, ShardConfig, ShardRouter,
};
use lovo_video::QueryPredicate;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 4;

pub fn run(run: &Run, clients: usize, tracer: &Arc<Tracer>) -> Result<Report, String> {
    let mut report = Report::default();
    let videos = gen::corpus();
    let placement = Arc::new(HashPlacement::new(SHARDS));
    let ((router, shards), setup_s) = common::timed_setups(|_| {
        let mut shards = Vec::new();
        for part in partition_videos(&videos, placement.as_ref()) {
            let engine = Lovo::build(&part, LovoConfig::default()).map_err(|e| e.to_string())?;
            shards.push(Arc::new(LocalShard::new(Arc::new(engine))));
        }
        // With tracing on, each leg the router sends is timed by a wrapper.
        let routed: Vec<Arc<dyn EngineShard>> = shards
            .iter()
            .map(|shard| -> Arc<dyn EngineShard> {
                if run.trace {
                    Arc::new(TracedShard::new(Arc::clone(shard), Arc::clone(tracer)))
                } else {
                    Arc::clone(shard) as Arc<dyn EngineShard>
                }
            })
            .collect();
        let router = ShardRouter::new(
            routed,
            Arc::clone(&placement) as Arc<dyn Placement>,
            LovoConfig::default(),
            ShardConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        Ok::<_, String>((router, shards))
    })?;
    report.set("setup_s", setup_s);
    // Every scoped query names one camera, so one shard answers it: the
    // engine of that shard, queried directly, is the exact reference. (A
    // never-sharded engine is not: each shard trains its own IVF-PQ
    // codebooks, so approximate scores legitimately differ from one trained
    // over the whole corpus.)
    let owner = |spec: &QuerySpec| -> &Lovo {
        let video = match &spec.predicate {
            QueryPredicate::And(parts) => parts.iter().find_map(|p| match p {
                QueryPredicate::Videos(ids) => ids.first().copied(),
                _ => None,
            }),
            _ => None,
        };
        shards[placement.shard_of(video.unwrap_or(0))].engine()
    };
    let planner = shards[0].engine();
    for n in 0..2 * clients {
        router
            .query_spec(&gen::warmup_spec(n))
            .map_err(|e| format!("warm-up failed: {e}"))?;
    }

    let texts = Texts::new(run.seed, Workload::Scoped as u64);
    let spec = |n: usize| gen::scoped_spec(&texts, run.seed, n);
    let before = router.stats();
    let (records, wall_s) = closed_loop(
        clients,
        run.window,
        |_| Duration::ZERO,
        |n| {
            let spec = spec(n);
            let start = Instant::now();
            let mut result = router.query_spec(&spec);
            if let Ok(routed) = &mut result {
                common::trim(&mut routed.result, n);
            }
            if run.trace {
                let end = Instant::now();
                tracer.record(
                    planner.plan(&spec).fingerprint(),
                    None,
                    "router",
                    start,
                    end,
                );
            }
            result
        },
    );
    let stats = router.stats();
    report.note(format!(
        "load: {clients} closed-loop clients for {wall_s:.2} s over {SHARDS} shards"
    ));

    let served: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.result {
            Ok(s) if s.outages.is_empty() => Some((r, s)),
            _ => None,
        })
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
        "query latency (query_spec -> answer)",
        &latencies,
    ));

    let fingerprints: HashSet<u64> = records
        .iter()
        .map(|r| planner.plan(&spec(r.index)).fingerprint())
        .collect();
    report.gate(
        "unique_plan_fingerprints",
        fingerprints.len() == records.len(),
        format!("{} distinct of {}", fingerprints.len(), records.len()),
    );
    let off_target = served
        .iter()
        .filter(|(_, s)| s.shards_pruned != SHARDS - 1 || s.shards_probed != 1)
        .count();
    report.gate(
        "prunes_3_of_4_shards",
        off_target == 0 && served.len() == records.len(),
        format!(
            "{off_target} answers probed other than one shard; {} outages or errors",
            records.len() - served.len()
        ),
    );
    let hits = served
        .iter()
        .filter(|(_, s)| s.result_cache_hit || s.coarse_cache_hits > 0)
        .count();
    report.gate("cache_bypassed", hits == 0, format!("{hits} cache hits"));
    let (mut compared, mut mismatched) = (0, 0);
    for (record, answer) in served.iter().filter(|(r, _)| common::sampled(r.index)) {
        let spec = spec(record.index);
        let reference = owner(&spec)
            .query_spec(&spec)
            .map_err(|e| format!("reference query failed: {e}"))?;
        compared += 1;
        mismatched += usize::from(reference.frames != answer.result.frames);
    }
    report.gate(
        "served_equals_owning_shard",
        mismatched == 0 && compared > 0,
        format!(
            "{} of {compared} sampled answers equal",
            compared - mismatched
        ),
    );

    let computed: Vec<_> = served.iter().map(|(_, s)| &s.result).collect();
    common::engine_counters(&mut report, &computed);
    let delta = |f: fn(&lovo_serve::ShardStats) -> u64| (f(&stats) - f(&before)) as f64;
    report.set(
        "router.shards_pruned_per_query",
        delta(|s| s.shards_pruned) / delta(|s| s.queries).max(1.0),
    );
    report.set(
        "router.result_hit_ratio",
        delta(|s| s.result_hits) / delta(|s| s.queries).max(1.0),
    );
    report.set("router.outages", delta(|s| s.outages));
    for name in [
        "serve.wait_ms",
        "serve.batch_size",
        "serve.cache_hit_ratio",
        "serve.stale_evictions",
        "serve.rejected",
    ] {
        report.set(name, 0.0);
    }
    if run.trace {
        router_legs(&mut report, tracer);
    }

    let avep = common::mean_avep(&[&videos], |spec| {
        router
            .query_spec(&spec)
            .map(|s| s.result.frames)
            .map_err(|e| e.to_string())
    })?;
    report.set("mean_avep", avep);

    if run.trace {
        let queries = (0..200).map(|n| {
            let spec = spec(n);
            (owner(&spec), spec)
        });
        common::replay_phase(&mut report, queries.collect(), tracer, None)?;
    }

    // Fresh footage lands on the shard the placement assigns it to.
    let ingest = common::ingest_probe(|batch| {
        let owner = batch.videos.first().map_or(0, |v| placement.shard_of(v.id));
        shards[owner].engine().add_videos(batch)
    });
    ingest.report(&mut report);
    let engines: Vec<&Lovo> = shards.iter().map(|s| s.engine().as_ref()).collect();
    common::store_shape(&mut report, &engines, 0);
    drop(router);
    common::finish(&mut report)?;
    Ok(report)
}

/// Leg times and router self time from the spans of the measured window.
fn router_legs(report: &mut Report, tracer: &Tracer) {
    let spans = tracer.spans();
    // Only legs of measured queries: warm-up legs have no router span.
    let routed: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "router")
        .map(|s| s.query)
        .collect();
    let mut legs: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    let (mut coarse, mut rerank) = (Vec::new(), Vec::new());
    for span in spans.iter().filter(|s| routed.contains(&s.query)) {
        match span.name {
            "coarse_leg" => coarse.push(span.ms()),
            "rerank_leg" => rerank.push(span.ms()),
            _ => continue,
        }
        legs.entry(span.query)
            .or_default()
            .push((span.start_us, span.end_us));
    }
    let self_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "router")
        .map(|s| {
            let within: Vec<(f64, f64)> = legs
                .get(&s.query)
                .map(|l| {
                    l.iter()
                        .map(|&(a, b)| (a.max(s.start_us), b.min(s.end_us)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            (s.end_us - s.start_us - covered(within)) / 1e3
        })
        .collect();
    report.set("router.coarse_leg_ms", median(&coarse));
    report.set("router.rerank_leg_ms", median(&rerank));
    report.set("router.self_ms", median(&self_ms));
    report.note(format!(
        "router legs: {} coarse, {} rerank over {} routed queries",
        coarse.len(),
        rerank.len(),
        self_ms.len()
    ));
}
