//! Ingest output does not depend on the worker count. Key-frame extraction
//! and encoding run on `LovoConfig::ingest_workers` threads, yet an engine
//! built and appended to with one worker must equal one built with four: the
//! same ingest counts, the same collection, and bit-identical ranked
//! answers. (Codebook training uses the hardware threads in both engines;
//! the kmeans, pq and ivf unit tests vary its thread count.)

use lovo_core::{Lovo, LovoConfig, QueryResult, QuerySpec};
use lovo_eval::queries_for;
use lovo_video::{DatasetConfig, DatasetKind, VideoCollection};

/// Every bit of a ranked answer: frame identity, score, box and timestamp.
fn answer_bits(result: &QueryResult) -> Vec<(u32, u32, u32, [u32; 4], u64)> {
    result
        .frames
        .iter()
        .map(|f| {
            (
                f.video_id,
                f.frame_index,
                f.score.to_bits(),
                [
                    f.bbox.x.to_bits(),
                    f.bbox.y.to_bits(),
                    f.bbox.w.to_bits(),
                    f.bbox.h.to_bits(),
                ],
                f.timestamp.to_bits(),
            )
        })
        .collect()
}

#[test]
fn one_and_four_ingest_workers_give_bit_identical_engines() {
    let corpus = VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_num_videos(2)
            .with_frames_per_video(150)
            .with_seed(21),
    );
    // One fresh 300-frame camera, appended after the build.
    let mut batch = VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_num_videos(1)
            .with_frames_per_video(300)
            .with_seed(22),
    );
    batch.videos[0].id = 1000;

    let engines: Vec<Lovo> = [1, 4]
        .into_iter()
        .map(|workers| {
            Lovo::build(&corpus, LovoConfig::default().with_ingest_workers(workers)).expect("build")
        })
        .collect();
    let runs: Vec<_> = engines
        .iter()
        .map(|engine| engine.add_videos(&batch).expect("append"))
        .collect();

    let (serial, parallel) = (&engines[0], &engines[1]);
    let counts = |s: &lovo_core::IngestStats| {
        (
            s.total_frames,
            s.key_frames,
            s.patches_indexed,
            s.segments_sealed,
            s.index_builds,
        )
    };
    assert_eq!(counts(&runs[0]), counts(&runs[1]));
    assert_eq!(
        counts(&serial.ingest_stats()),
        counts(&parallel.ingest_stats())
    );
    assert!(runs[0].key_frames > 0 && runs[0].patches_indexed > 0);
    assert_eq!(serial.collection_stats(), parallel.collection_stats());

    let mut texts: Vec<String> = queries_for(DatasetKind::Bellevue)
        .into_iter()
        .map(|q| q.text)
        .collect();
    texts.push("a white truck turning left at the intersection".into());
    texts.push("a person walking next to a bicycle".into());
    let mut compared = 0;
    for text in &texts {
        let spec = QuerySpec::new(text.clone());
        let a = serial.query_spec(&spec).expect("query");
        let b = parallel.query_spec(&spec).expect("query");
        assert_eq!(answer_bits(&a), answer_bits(&b), "query {text:?}");
        compared += a.frames.len();
    }
    assert!(compared > 0, "no ranked frames compared");
    // The appended camera is searchable and reaches the answers.
    assert!(texts.iter().any(|text| {
        serial
            .query_spec(&QuerySpec::new(text.clone()))
            .expect("query")
            .frames
            .iter()
            .any(|f| f.video_id == 1000)
    }));
}
