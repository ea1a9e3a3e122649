//! The seeded workload generator. Everything the program under test sees is
//! made here. The corpus and the appended footage are fixed, so set-up time,
//! memory and answer quality compare like for like across seeds; `--seed`
//! chooses every query stream, scope and standing query. The same seed
//! gives the same inputs.

use lovo_core::QuerySpec;
use lovo_video::{DatasetConfig, DatasetKind, QueryPredicate, VideoCollection};
use std::time::Duration;

/// The corpus every workload starts from: 8 Bellevue cameras of 450 frames
/// (15 s each at 30 fps).
pub const VIDEOS: usize = 8;
pub const FRAMES_PER_VIDEO: usize = 450;
const FPS: f64 = 30.0;
const CORPUS_SEED: u64 = 0x10B0_0001;
/// Footage appended by the ingest paths: one fresh camera of 300 frames
/// (10 s) per batch, under ids that never collide with the corpus.
pub const BATCH_FRAMES: usize = 300;
const FIRST_BATCH_VIDEO: u32 = 1000;
/// Scoped queries search one camera over this many seconds.
pub const SCOPE_SECONDS: f64 = 2.0;

/// The workloads, each with the reason it is in the benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Adhoc,
    Scoped,
    Live,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Adhoc, Workload::Scoped, Workload::Live];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Adhoc => "adhoc",
            Workload::Scoped => "scoped",
            Workload::Live => "live",
        }
    }

    /// Why the workload was chosen: which layer it loads and which
    /// mechanism it exercises or bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Adhoc => {
                "2 closed-loop clients, unique unfiltered complex texts through QueryService: \
                 the cross-modal rerank is most of each query and the result cache is bypassed"
            }
            Workload::Scoped => {
                "2 closed-loop clients, unique one-camera 2 s queries through a 4-shard \
                 ShardRouter: 3 shards pruned, rerank small, so encode, prune, coarse and \
                 scatter/gather dominate"
            }
            Workload::Live => {
                "open-loop writer appends a camera every second to a durable engine while an \
                 open-loop poller reruns 8 standing queries: ingest, WAL, compaction and \
                 epoch-invalidated caching"
            }
        }
    }
}

/// SplitMix64: a small, fixed generator, so inputs do not depend on the
/// version of any random-number crate.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub fn corpus() -> VideoCollection {
    VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_num_videos(VIDEOS)
            .with_frames_per_video(FRAMES_PER_VIDEO)
            .with_seed(CORPUS_SEED),
    )
}

/// Batch `k` of appended footage: one camera with a fresh id.
pub fn batch(k: usize) -> VideoCollection {
    let mut rng = Rng::new(CORPUS_SEED, 0xBA7C_0000 + k as u64);
    let mut videos = VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_num_videos(1)
            .with_frames_per_video(BATCH_FRAMES)
            .with_seed(rng.next_u64()),
    );
    for video in &mut videos.videos {
        video.id = FIRST_BATCH_VIDEO + k as u32;
    }
    videos
}

// Words `lovo_encoder::TextEncoder::parse` understands, per attribute.
const PREFIXES: [&str; 6] = [
    "",
    "find ",
    "show me ",
    "look for ",
    "where is ",
    "any frame with ",
];
const SIZES: [&str; 3] = ["", "large ", "small "];
const COLORS: [&str; 8] = [
    "red",
    "green",
    "black",
    "white",
    "blue",
    "gray",
    "yellow-green",
    "light-colored",
];
const CLASSES: [&str; 5] = ["car", "suv", "bus", "truck", "person"];
const ACTIVITIES: [&str; 4] = ["driving", "parked", "walking", "moving"];
const LOCATIONS: [&str; 4] = [
    "in the center of the road",
    "at the intersection",
    "on the sidewalk",
    "on the road",
];
const RELATIONS: [&str; 3] = ["", " side by side with another car", " next to a woman"];
const PHRASINGS: u64 = (PREFIXES.len()
    * SIZES.len()
    * COLORS.len()
    * CLASSES.len()
    * ACTIVITIES.len()
    * LOCATIONS.len()
    * RELATIONS.len()) as u64;

/// A stream of distinct complex query texts: text `n` is a mixed-radix
/// decoding of a seeded affine permutation of `n`, so texts never repeat
/// within a stream (and past the phrasing space a counter keeps them
/// distinct). Distinct texts give distinct plan fingerprints, so no query
/// of a stream can be answered from a result cache.
pub struct Texts {
    multiplier: u64,
    offset: u64,
}

impl Texts {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng::new(seed, stream);
        // Any multiplier coprime with the phrasing count permutes it.
        let mut multiplier = rng.below(PHRASINGS - 1) + 1;
        while gcd(multiplier, PHRASINGS) != 1 {
            multiplier += 1;
        }
        Self {
            multiplier,
            offset: rng.below(PHRASINGS),
        }
    }

    pub fn text(&self, n: usize) -> String {
        let n = n as u64;
        let mut code = (n % PHRASINGS)
            .wrapping_mul(self.multiplier)
            .wrapping_add(self.offset)
            % PHRASINGS;
        let mut pick = |len: usize| {
            let digit = (code % len as u64) as usize;
            code /= len as u64;
            digit
        };
        let prefix = PREFIXES[pick(PREFIXES.len())];
        let size = SIZES[pick(SIZES.len())];
        let color = COLORS[pick(COLORS.len())];
        let class = CLASSES[pick(CLASSES.len())];
        let activity = ACTIVITIES[pick(ACTIVITIES.len())];
        let location = LOCATIONS[pick(LOCATIONS.len())];
        let relation = RELATIONS[pick(RELATIONS.len())];
        let mut text = format!("{prefix}a {size}{color} {class} {activity} {location}{relation}");
        let lap = n / PHRASINGS;
        if lap > 0 {
            text.push_str(&format!(" (take {lap})"));
        }
        text
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Warm-up queries share no phrasing with any measured stream.
pub fn warmup_spec(n: usize) -> QuerySpec {
    QuerySpec::new(format!("warm-up probe {n}: a car on the road"))
}

/// `adhoc` query `n`: an unfiltered complex text.
pub fn adhoc_spec(texts: &Texts, n: usize) -> QuerySpec {
    QuerySpec::new(texts.text(n))
}

/// `scoped` query `n`: a unique text restricted to one camera and a
/// 2-second window inside its footage.
pub fn scoped_spec(texts: &Texts, seed: u64, n: usize) -> QuerySpec {
    let mut rng = Rng::new(seed, 0x5C0_0000_0000 + n as u64);
    let video = rng.below(VIDEOS as u64) as u32;
    QuerySpec::new(texts.text(n)).with_predicate(camera_window(&mut rng, video))
}

/// One camera and a seeded 2-second window inside its footage.
fn camera_window(rng: &mut Rng, video: u32) -> QueryPredicate {
    let span = FRAMES_PER_VIDEO as f64 / FPS - SCOPE_SECONDS;
    let start = (rng.below(1000) as f64 / 1000.0 * span * 10.0).round() / 10.0;
    QueryPredicate::videos([video]).and(QueryPredicate::time_range(start, start + SCOPE_SECONDS))
}

/// Think time of an `adhoc` client after query `n`: seeded, uniform in
/// 0–6 ms. Without it the two clients fall into lockstep behind the
/// service's 0.5 ms micro-batch window (coalesced together, answered
/// together, resubmitting together), and a run settles into one of two
/// throughput modes by chance.
pub fn think_time(seed: u64, n: usize) -> Duration {
    Duration::from_micros(Rng::new(seed, 0x7417_0000_0000 + n as u64).below(6_000))
}

/// Due times of the `live` writer: one batch per second, each at a seeded
/// point of the first half of its second, so a run meets the background
/// maintenance at many phases rather than one.
pub fn write_schedule(seed: u64, window: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed, 0x3217_E000);
    (0..window.as_secs())
        .map(|k| Duration::from_secs(k) + Duration::from_millis(rng.below(500)))
        .collect()
}

/// Due times of the `live` poller: `rate` per second, evenly spaced.
pub fn poll_schedule(rate: u32, window: Duration) -> Vec<Duration> {
    let interval = Duration::from_secs(1) / rate;
    (0..)
        .map(|n| interval * n)
        .take_while(|due| *due < window)
        .collect()
}

/// The `live` poller's fixed pool of standing queries.
pub const STANDING_QUERIES: usize = 8;

/// One standing query per corpus camera, each watching a 2-second window
/// of it: cheap enough that the poller keeps its schedule while ingest
/// runs beside it, so latency measures interference rather than a backlog.
pub fn standing_specs(seed: u64) -> Vec<QuerySpec> {
    let texts = Texts::new(seed, 0x57A_0D00);
    let mut rng = Rng::new(seed, 0x57A_0D01);
    (0..STANDING_QUERIES)
        .map(|n| {
            let camera = (n % VIDEOS) as u32;
            QuerySpec::new(texts.text(n)).with_predicate(camera_window(&mut rng, camera))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn texts_are_distinct_and_seeded() {
        let texts = Texts::new(7, 1);
        let stream: HashSet<String> = (0..5000).map(|n| texts.text(n)).collect();
        assert_eq!(stream.len(), 5000);
        let past_lap: HashSet<String> = (PHRASINGS as usize - 2..PHRASINGS as usize + 2)
            .map(|n| texts.text(n))
            .collect();
        assert_eq!(past_lap.len(), 4);
        assert_eq!(texts.text(3), Texts::new(7, 1).text(3));
        assert_ne!(texts.text(3), Texts::new(8, 1).text(3));
    }

    #[test]
    fn texts_parse_to_complex_constraints() {
        let texts = Texts::new(3, 1);
        for n in 0..200 {
            let parsed = lovo_encoder::TextEncoder::parse(&texts.text(n));
            assert!(parsed.class.is_some() && parsed.color.is_some());
            assert!(parsed.location.is_some());
        }
    }

    #[test]
    fn scoped_windows_stay_inside_the_footage() {
        let texts = Texts::new(1, 2);
        for n in 0..500 {
            let spec = scoped_spec(&texts, 1, n);
            let QueryPredicate::And(parts) = &spec.predicate else {
                panic!("scoped predicate is a conjunction");
            };
            let QueryPredicate::TimeRange { start, end } = parts[1] else {
                panic!("second part is the window");
            };
            assert!(start >= 0.0 && end <= FRAMES_PER_VIDEO as f64 / FPS);
        }
    }

    #[test]
    fn batches_use_fresh_ids() {
        let ids: HashSet<u32> = (0..5).map(|k| batch(k).videos[0].id).collect();
        assert_eq!(ids.len(), 5);
        assert!(corpus().videos.iter().all(|v| !ids.contains(&v.id)));
    }
}
