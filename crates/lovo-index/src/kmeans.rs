//! Lloyd's k-means (the paper cites Lloyd's iteration for training PQ
//! codebooks, §V-B).
//!
//! The trainer is deterministic given its seed: initialization uses a
//! k-means++-style D² seeding driven by a `SmallRng`, followed by standard
//! assign/update iterations until assignments stop changing or the iteration
//! budget is exhausted. Empty clusters are re-seeded from the point farthest
//! from its centroid so the requested number of centroids is always produced.
//!
//! Every nearest-centroid decision — training, IVF cell assignment and PQ
//! encoding — goes through one kernel, [`Centroids::nearest`], which scores
//! a contiguous block of centroids with the 8-lane summation order of
//! [`squared_l2`]. `train_subspaces` runs the independent per-subspace
//! k-means of a codebook set concurrently; each run is seeded by its
//! subspace index, so the codebooks do not depend on the thread count.

use crate::metric::squared_l2;
use crate::{IndexError, Result};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Centroids per interleaved group of [`Centroids`]: one lane per centroid
/// in the nearest-centroid kernel's accumulators.
const GROUP: usize = 8;

/// Accumulator lanes of [`squared_l2`], which the kernel reproduces per
/// centroid.
const METRIC_LANES: usize = 8;

/// `k` centroids of `dim` values, stored contiguously twice: row-major for
/// reading one centroid, and interleaved in groups of eight centroids for
/// [`Centroids::nearest`]. In a group's block, value `j` of the group's
/// centroid `c` sits at `j * 8 + c`, so the kernel's inner loop reads eight
/// centroids' `j`-th values as one contiguous run; the last group is padded
/// with zero centroids that never win.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Centroids {
    dim: usize,
    rows: Vec<f32>,
    lanes: Vec<f32>,
}

impl Centroids {
    /// Packs row-major centroids (`rows.len()` a multiple of `dim`).
    pub(crate) fn from_rows(rows: Vec<f32>, dim: usize) -> Result<Self> {
        if dim == 0 || rows.len() % dim != 0 {
            return Err(IndexError::InvalidConfig(format!(
                "{} centroid values do not form rows of dim {dim}",
                rows.len()
            )));
        }
        let mut centroids = Self {
            dim,
            rows,
            lanes: Vec::new(),
        };
        centroids.repack();
        Ok(centroids)
    }

    /// Rebuilds the interleaved copy after the rows changed.
    fn repack(&mut self) {
        let block = GROUP * self.dim;
        self.lanes.clear();
        self.lanes
            .resize(self.rows.len().div_ceil(block) * block, 0.0);
        for (group, lanes) in self
            .rows
            .chunks(block)
            .zip(self.lanes.chunks_exact_mut(block))
        {
            for (c, row) in group.chunks_exact(self.dim).enumerate() {
                for (slot, &value) in lanes.iter_mut().skip(c).step_by(GROUP).zip(row) {
                    *slot = value;
                }
            }
        }
    }

    /// Values per centroid.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of centroids.
    pub fn len(&self) -> usize {
        self.rows.len() / self.dim
    }

    /// True when there are no centroids.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The centroids in index order, one `dim`-long slice each.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, f32> {
        self.rows.chunks_exact(self.dim)
    }

    /// Centroid `index`, if it exists.
    pub fn row(&self, index: usize) -> Option<&[f32]> {
        self.rows.get(index * self.dim..(index + 1) * self.dim)
    }

    /// Index of the centroid nearest `point` (of length `dim`) in squared
    /// L2 distance.
    ///
    /// Each distance is summed in exactly [`squared_l2`]'s order: eight
    /// lanes over the full 8-value chunks, the fixed lane reduction, then
    /// the remainder values in sequence. Each of those accumulators holds
    /// eight centroids side by side, so the kernel vectorizes at every
    /// dimension — including the 4-value PQ subspaces, whose distances are
    /// all remainder. The lowest index wins ties, a NaN distance never wins, and
    /// when no distance is below infinity the answer is 0.
    pub fn nearest(&self, point: &[f32]) -> usize {
        debug_assert_eq!(point.len(), self.dim);
        let mut best = 0;
        let mut best_dist = f32::INFINITY;
        let mut dists = [0.0f32; GROUP];
        let live = self.len();
        for (g, block) in self.lanes.chunks_exact(GROUP * self.dim).enumerate() {
            group_distances(point, block, &mut dists);
            let first = g * GROUP;
            for (c, &d) in dists.iter().enumerate().take(live.saturating_sub(first)) {
                if d < best_dist {
                    best_dist = d;
                    best = first + c;
                }
            }
        }
        best
    }
}

/// Squared L2 distances of `point` to the eight centroids of one
/// interleaved block, each summed in [`squared_l2`]'s order.
#[inline]
fn group_distances(point: &[f32], block: &[f32], out: &mut [f32; GROUP]) {
    let chunked = point.len() / METRIC_LANES * METRIC_LANES;
    let (head, tail) = point.split_at(chunked);
    let (head_block, tail_block) = block.split_at(chunked * GROUP);
    let mut lanes = [[0.0f32; GROUP]; METRIC_LANES];
    for (values, columns) in head
        .chunks_exact(METRIC_LANES)
        .zip(head_block.chunks_exact(METRIC_LANES * GROUP))
    {
        for ((lane, &p), column) in lanes
            .iter_mut()
            .zip(values)
            .zip(columns.chunks_exact(GROUP))
        {
            for (acc, &c) in lane.iter_mut().zip(column) {
                let d = p - c;
                *acc += d * d;
            }
        }
    }
    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
    *out = add(add(add(l0, l4), add(l1, l5)), add(add(l2, l6), add(l3, l7)));
    for (&p, column) in tail.iter().zip(tail_block.chunks_exact(GROUP)) {
        for (acc, &c) in out.iter_mut().zip(column) {
            let d = p - c;
            *acc += d * d;
        }
    }
}

/// Lane-wise `a + b`.
#[inline]
fn add(mut a: [f32; GROUP], b: [f32; GROUP]) -> [f32; GROUP] {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster centroids, `k` rows of `dim` values.
    pub centroids: Centroids,
    /// Index of the centroid assigned to each training point.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f32,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

/// Configuration of the trainer.
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl KMeansConfig {
    /// Creates a configuration with the default iteration budget (25).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iterations: 25,
            seed: 0x5eed,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style iteration budget override.
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters.max(1);
        self
    }
}

fn missing(what: &str) -> IndexError {
    IndexError::InvalidState(format!("k-means: {what} out of range"))
}

/// Runs Lloyd's algorithm on `points` (each of dimension `dim`).
///
/// Returns an error when there are no points, the dimension is zero, or `k`
/// is zero. When there are fewer points than clusters, duplicated points seed
/// the surplus centroids (every requested centroid is still produced, which is
/// what the PQ codebook training relies on).
pub fn lloyd(points: &[Vec<f32>], dim: usize, config: &KMeansConfig) -> Result<KMeansResult> {
    if config.k == 0 {
        return Err(IndexError::InvalidConfig("k must be positive".into()));
    }
    if dim == 0 {
        return Err(IndexError::InvalidConfig("dim must be positive".into()));
    }
    if points.is_empty() {
        return Err(IndexError::InvalidState(
            "cannot train k-means on zero points".into(),
        ));
    }
    if let Some(bad) = points.iter().find(|p| p.len() != dim) {
        return Err(IndexError::DimensionMismatch {
            expected: dim,
            actual: bad.len(),
        });
    }

    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut centroids = Centroids::from_rows(init_plus_plus(points, config.k, &mut rng)?, dim)?;
    let mut assignments = vec![0usize; points.len()];
    let mut sums = vec![0.0f32; config.k * dim];
    let mut counts = vec![0usize; config.k];
    let mut iterations = 0;

    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        // Assignment step.
        let mut changed = false;
        for (p, assigned) in points.iter().zip(assignments.iter_mut()) {
            let best = centroids.nearest(p);
            if *assigned != best {
                *assigned = best;
                changed = true;
            }
        }
        // Update step.
        sums.fill(0.0);
        counts.fill(0);
        for (p, &a) in points.iter().zip(assignments.iter()) {
            let count = counts.get_mut(a).ok_or_else(|| missing("assignment"))?;
            *count += 1;
            let sum = sums
                .get_mut(a * dim..(a + 1) * dim)
                .ok_or_else(|| missing("assignment"))?;
            for (s, v) in sum.iter_mut().zip(p.iter()) {
                *s += v;
            }
        }
        for (c, (sum, &count)) in centroids
            .rows
            .chunks_exact_mut(dim)
            .zip(sums.chunks_exact(dim).zip(counts.iter()))
        {
            if count > 0 {
                for (cv, sv) in c.iter_mut().zip(sum.iter()) {
                    *cv = sv / count as f32;
                }
            }
        }
        // Re-seed empty clusters from the worst-fit point. Every point's
        // distance is to its own (non-empty) cluster, which re-seeding never
        // moves, so one worst-fit point serves every empty cluster.
        if counts.contains(&0) {
            if let Some(worst) = worst_fit(points, &centroids, &assignments)? {
                let point = points
                    .get(worst)
                    .ok_or_else(|| missing("worst-fit point"))?;
                for (row, &count) in centroids.rows.chunks_exact_mut(dim).zip(counts.iter()) {
                    if count == 0 {
                        row.copy_from_slice(point);
                        changed = true;
                    }
                }
            }
        }
        centroids.repack();
        if !changed && iter > 0 {
            break;
        }
    }

    let mut inertia_terms = Vec::with_capacity(points.len());
    for (p, &a) in points.iter().zip(assignments.iter()) {
        let centroid = centroids.row(a).ok_or_else(|| missing("assignment"))?;
        inertia_terms.push(squared_l2(p, centroid));
    }
    let inertia = inertia_terms.into_iter().sum();

    Ok(KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    })
}

/// The point farthest from its assigned centroid, under `total_cmp` so the
/// pick is deterministic even over NaN distances (the last of equal maxima
/// wins, as `Iterator::max_by` keeps it).
fn worst_fit(
    points: &[Vec<f32>],
    centroids: &Centroids,
    assignments: &[usize],
) -> Result<Option<usize>> {
    let mut distances = Vec::with_capacity(points.len());
    for (p, &a) in points.iter().zip(assignments) {
        let centroid = centroids.row(a).ok_or_else(|| missing("assignment"))?;
        distances.push(squared_l2(p, centroid));
    }
    Ok(distances
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i))
}

/// Trains one codebook of `k` centroids per subspace of `sample`: subspace
/// `p` of a row is its `p`-th run of `sub_dim` values, and its k-means run
/// is seeded with `seed(p)`. Every row must hold `subspaces * sub_dim`
/// values.
///
/// The runs are independent, so they are claimed one at a time by up to
/// `threads` workers; `0` sizes the pool like the segment fan-out's
/// automatic mode, the hardware parallelism. Codebooks come back in
/// subspace order and are the same for every thread count.
pub(crate) fn train_subspaces(
    sample: &[&[f32]],
    sub_dim: usize,
    subspaces: usize,
    k: usize,
    seed: impl Fn(usize) -> u64 + Sync,
    threads: usize,
) -> Result<Vec<Centroids>> {
    let dim = sub_dim * subspaces;
    if let Some(bad) = sample.iter().find(|row| row.len() != dim) {
        return Err(IndexError::DimensionMismatch {
            expected: dim,
            actual: bad.len(),
        });
    }
    let train = |p: usize| -> Result<Centroids> {
        let points: Vec<Vec<f32>> = sample
            .iter()
            .map(|row| {
                row.get(p * sub_dim..(p + 1) * sub_dim)
                    .map(<[f32]>::to_vec)
                    .ok_or_else(|| missing("subspace"))
            })
            .collect::<Result<_>>()?;
        Ok(lloyd(&points, sub_dim, &KMeansConfig::new(k).with_seed(seed(p)))?.centroids)
    };
    let workers = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .min(subspaces);
    if workers <= 1 {
        return (0..subspaces).map(train).collect();
    }

    let next = AtomicUsize::new(0);
    let claim = || {
        let mut trained = Vec::new();
        loop {
            let p = next.fetch_add(1, Ordering::Relaxed);
            if p >= subspaces {
                return trained;
            }
            trained.push((p, train(p)));
        }
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        // Join every worker before looking at any result: a scope with an
        // unjoined panicked thread panics itself.
        handles.into_iter().map(|handle| handle.join()).collect()
    });
    let mut slots: Vec<Option<Result<Centroids>>> = (0..subspaces).map(|_| None).collect();
    for trained in joined {
        let trained = trained
            .map_err(|_| IndexError::InvalidState("codebook training worker panicked".into()))?;
        for (p, codebook) in trained {
            if let Some(slot) = slots.get_mut(p) {
                *slot = Some(codebook);
            }
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(missing("untrained subspace"))))
        .collect()
}

/// k-means++ D² seeding; returns the `k` seeds as row-major values.
fn init_plus_plus(points: &[Vec<f32>], k: usize, rng: &mut SmallRng) -> Result<Vec<f32>> {
    let pick = |i: usize| points.get(i).ok_or_else(|| missing("seed point"));
    let first = pick(rng.gen_range(0..points.len()))?;
    let mut seeds = Vec::with_capacity(k * first.len());
    seeds.extend_from_slice(first);
    let mut dists: Vec<f32> = points.iter().map(|p| squared_l2(p, first)).collect();
    for _ in 1..k {
        let total: f32 = dists.iter().sum();
        let next = if total.is_nan() || total <= f32::EPSILON {
            // All points coincide with existing centroids (or a NaN point
            // poisoned the sum, which no D² draw can sample); duplicate one.
            pick(rng.gen_range(0..points.len()))?
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            pick(chosen)?
        };
        for (d, p) in dists.iter_mut().zip(points.iter()) {
            *d = d.min(squared_l2(p, next));
        }
        seeds.extend_from_slice(next);
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-centroid loop [`Centroids::nearest`] replaced: the reference
    /// it must agree with.
    fn nearest_centroid(point: &[f32], centroids: &[Vec<f32>]) -> usize {
        let mut best = 0;
        let mut best_dist = f32::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = squared_l2(point, c);
            if d < best_dist {
                best_dist = d;
                best = i;
            }
        }
        best
    }

    const KERNEL_DIMS: [usize; 5] = [1, 4, 7, 16, 32];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Coarse values force exact distance ties; duplicated rows tie by
        // construction; NaN rows and points check that NaN never wins.
        #[test]
        fn block_kernel_matches_nearest_centroid(
            dim_pick in 0usize..5,
            k in 1usize..40,
            raw in prop::collection::vec(-2.0f32..2.0, 1400),
            coarse in any::<bool>(),
            duplicates in prop::collection::vec(0usize..64, 0..8),
            nan_rows in prop::collection::vec(0usize..64, 0..4),
            point_pick in 0usize..80,
            nan_point in 0u32..8,
        ) {
            let dim = KERNEL_DIMS[dim_pick];
            let value = |x: f32| if coarse { (x * 2.0).round() / 2.0 } else { x };
            let mut rows: Vec<Vec<f32>> = raw
                .chunks_exact(dim)
                .take(k)
                .map(|row| row.iter().map(|&x| value(x)).collect())
                .collect();
            for pair in duplicates.chunks_exact(2) {
                rows[pair[1] % k] = rows[pair[0] % k].clone();
            }
            for &r in &nan_rows {
                rows[r % k][r % dim] = f32::NAN;
            }
            let mut point: Vec<f32> = if point_pick < k {
                rows[point_pick].clone()
            } else {
                raw[raw.len() - dim..].iter().map(|&x| value(x)).collect()
            };
            if nan_point == 0 {
                point[dim / 2] = f32::NAN;
            }
            let block = Centroids::from_rows(rows.concat(), dim).unwrap();
            prop_assert_eq!(block.nearest(&point), nearest_centroid(&point, &rows));

            // Every distance, not just the winner, is bit-equal to squared_l2.
            let mut dists = [0.0f32; GROUP];
            for (g, lanes) in block.lanes.chunks_exact(GROUP * dim).enumerate() {
                group_distances(&point, lanes, &mut dists);
                for (c, row) in rows.iter().enumerate().skip(g * GROUP).take(GROUP) {
                    let expected = squared_l2(&point, row);
                    let got = dists[c - g * GROUP];
                    prop_assert!(
                        got.to_bits() == expected.to_bits() || (got.is_nan() && expected.is_nan()),
                        "dim {} row {}: {} vs {}", dim, c, got, expected
                    );
                }
            }
        }
    }

    #[test]
    fn worst_fit_is_total_over_nan() {
        let centroids = Centroids::from_rows(vec![0.0], 1).unwrap();
        let points = vec![vec![1.0], vec![f32::NAN], vec![3.0], vec![3.0]];
        // Under `total_cmp` a (positive) NaN distance is the greatest, so
        // the pick is that point, wherever it sits; the old
        // `partial_cmp`-or-Equal comparator picked index 3 here.
        assert_eq!(worst_fit(&points, &centroids, &[0; 4]).unwrap(), Some(1));
        // Equal maxima: the last one wins, as before.
        assert_eq!(
            worst_fit(&points[2..], &centroids, &[0; 2]).unwrap(),
            Some(1)
        );
        // And Lloyd runs over such data to completion, deterministically.
        let a = lloyd(&points, 1, &KMeansConfig::new(3)).unwrap();
        let b = lloyd(&points, 1, &KMeansConfig::new(3)).unwrap();
        assert_eq!(a.centroids.len(), 3);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn subspace_codebooks_do_not_depend_on_thread_count() {
        let rows: Vec<Vec<f32>> = (0..300)
            .map(|i| {
                (0..12)
                    .map(|j| ((i * 7 + j * 3) as f32 * 0.37).sin())
                    .collect()
            })
            .collect();
        let sample: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let seed = |p: usize| 0x77 ^ p as u64;
        let serial = train_subspaces(&sample, 4, 3, 16, seed, 1).unwrap();
        assert_eq!(serial.len(), 3);
        for threads in [0, 2, 3, 8] {
            assert_eq!(
                train_subspaces(&sample, 4, 3, 16, seed, threads).unwrap(),
                serial,
                "threads={threads}"
            );
        }
        // Each codebook is exactly that subspace's own k-means run.
        for (p, codebook) in serial.iter().enumerate() {
            let points: Vec<Vec<f32>> = rows
                .iter()
                .map(|r| r[p * 4..(p + 1) * 4].to_vec())
                .collect();
            let own = lloyd(&points, 4, &KMeansConfig::new(16).with_seed(seed(p))).unwrap();
            assert_eq!(&own.centroids, codebook);
        }
        let ragged = [&rows[0][..12], &rows[1][..11]];
        assert!(train_subspaces(&ragged, 4, 3, 2, seed, 2).is_err());
    }

    #[test]
    fn panicking_training_workers_are_an_error() {
        let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32; 12]).collect();
        let sample: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        // Subspaces 1 and 2 panic, so at least two workers die: every one
        // must still be joined and reported, not unwind out of the scope.
        let seed = |p: usize| {
            if p > 0 {
                panic!("training worker down");
            }
            0
        };
        let err = train_subspaces(&sample, 4, 3, 2, seed, 3).unwrap_err();
        assert!(matches!(err, IndexError::InvalidState(_)), "{err}");
    }

    fn two_blobs(n: usize) -> Vec<Vec<f32>> {
        // Two well-separated clusters around (0,0) and (10,10).
        (0..n)
            .map(|i| {
                let offset = if i % 2 == 0 { 0.0 } else { 10.0 };
                let jitter = (i as f32 * 0.37).sin() * 0.3;
                vec![offset + jitter, offset - jitter]
            })
            .collect()
    }

    #[test]
    fn separates_two_blobs() {
        let points = two_blobs(200);
        let result = lloyd(&points, 2, &KMeansConfig::new(2)).unwrap();
        assert_eq!(result.centroids.len(), 2);
        let mut centers: Vec<f32> = result.centroids.iter().map(|c| c[0]).collect();
        centers.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(centers[0].abs() < 1.0, "low centroid at {}", centers[0]);
        assert!(
            (centers[1] - 10.0).abs() < 1.0,
            "high centroid at {}",
            centers[1]
        );
        // Points alternate between blobs, so assignments must alternate too.
        assert_ne!(result.assignments[0], result.assignments[1]);
        assert_eq!(result.assignments[0], result.assignments[2]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let points = two_blobs(64);
        let a = lloyd(&points, 2, &KMeansConfig::new(4).with_seed(5)).unwrap();
        let b = lloyd(&points, 2, &KMeansConfig::new(4).with_seed(5)).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn produces_requested_k_even_with_few_points() {
        let points = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        let result = lloyd(&points, 2, &KMeansConfig::new(5)).unwrap();
        assert_eq!(result.centroids.len(), 5);
    }

    #[test]
    fn rejects_bad_inputs() {
        let points = vec![vec![1.0, 2.0]];
        assert!(lloyd(&points, 2, &KMeansConfig::new(0)).is_err());
        assert!(lloyd(&[], 2, &KMeansConfig::new(2)).is_err());
        assert!(lloyd(&points, 0, &KMeansConfig::new(2)).is_err());
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(lloyd(&ragged, 2, &KMeansConfig::new(2)).is_err());
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let points = two_blobs(100);
        let one = lloyd(&points, 2, &KMeansConfig::new(1)).unwrap();
        let four = lloyd(&points, 2, &KMeansConfig::new(4)).unwrap();
        assert!(four.inertia <= one.inertia);
    }

    #[test]
    fn identical_points_do_not_panic() {
        let points = vec![vec![3.0, 3.0]; 20];
        let result = lloyd(&points, 2, &KMeansConfig::new(4)).unwrap();
        assert_eq!(result.centroids.len(), 4);
        assert!(result.inertia < 1e-6);
    }

    #[test]
    fn nearest_centroid_picks_closest() {
        let centroids = vec![vec![0.0, 0.0], vec![5.0, 5.0]];
        assert_eq!(nearest_centroid(&[1.0, 1.0], &centroids), 0);
        assert_eq!(nearest_centroid(&[4.0, 6.0], &centroids), 1);
        let block = Centroids::from_rows(centroids.concat(), 2).unwrap();
        assert_eq!(block.nearest(&[1.0, 1.0]), 0);
        assert_eq!(block.nearest(&[4.0, 6.0]), 1);
    }
}
