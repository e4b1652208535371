//! Correctness checks computed apart from the program under test.
//!
//! Every checker here is written from the method's definition, not from the
//! program's code: the voxel counter re-derives the merged map size from
//! the raw points, the DP knapsack solves Definition 1 exactly, and the
//! plan checks test the properties any feasible dissemination plan must
//! have. A failed check is recorded in [`Checks`] and fails the run.

use erpd_core::DisseminationPlan;
use erpd_edge::{ServerFrame, Upload};
use erpd_pointcloud::PointCloud;
use erpd_tracking::ObjectId;
use std::collections::{BTreeSet, HashSet};

/// Collects check failures; the run is correct when none were recorded.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: u64,
}

impl Checks {
    /// Records the outcome of one check.
    pub fn check(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.passed += 1,
            Err(msg) => {
                // Keep the first few messages; one broken invariant tends
                // to fail on every frame after it.
                if self.failures.len() < 20 {
                    self.failures.push(msg);
                }
            }
        }
    }

    /// Records `cond`, with `msg` built only when it fails.
    pub fn expect(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        self.check(if cond { Ok(()) } else { Err(msg()) });
    }

    /// True when every recorded check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Checks that passed.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// The recorded failure messages (at most the first twenty).
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Nearest-rank quantile: the smallest sample such that at least `q·n`
/// samples are ≤ it (index `ceil(q·n) − 1` after sorting). `NaN` for an
/// empty set.
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Number of distinct voxels `⌊p / voxel_size⌋` occupied by the finite
/// points of `clouds` — the size of their voxel-deduplicated union.
pub fn distinct_voxels<'a>(
    clouds: impl IntoIterator<Item = &'a PointCloud>,
    voxel_size: f64,
) -> usize {
    let mut keys: HashSet<(i64, i64, i64)> = HashSet::new();
    for cloud in clouds {
        for p in cloud.iter() {
            if p.x.is_finite() && p.y.is_finite() && p.z.is_finite() {
                keys.insert((
                    (p.x / voxel_size).floor() as i64,
                    (p.y / voxel_size).floor() as i64,
                    (p.z / voxel_size).floor() as i64,
                ));
            }
        }
    }
    keys.len()
}

/// Checks the merged map size of one frame against [`distinct_voxels`]
/// over every object cloud of the frame's uploads.
pub fn check_merge(uploads: &[Upload], voxel_size: f64, map_points: usize) -> Result<(), String> {
    let expected = distinct_voxels(
        uploads
            .iter()
            .flat_map(|u| u.objects.iter().map(|o| &o.points)),
        voxel_size,
    );
    if expected == map_points {
        Ok(())
    } else {
        Err(format!(
            "merge: map has {map_points} points, {expected} distinct voxels expected"
        ))
    }
}

/// The knapsack items of a served frame: every (receiver, object) entry
/// of the relevance matrix whose object has perception data, as
/// `(relevance, bytes)`.
pub fn knapsack_items(sf: &ServerFrame) -> Vec<(f64, u64)> {
    sf.matrix
        .iter()
        .filter_map(|(_, object, relevance)| sf.sizes.get(&object).map(|&size| (relevance, size)))
        .collect()
}

/// Exact optimum of the 0/1 knapsack over `(value, weight)` items with an
/// integer byte budget (dynamic programme over weights, byte granularity).
/// Items of non-positive value never help and are skipped.
pub fn dp_optimum(items: &[(f64, u64)], budget: u64) -> f64 {
    let useful: Vec<(f64, u64)> = items
        .iter()
        .copied()
        .filter(|&(v, w)| v > 0.0 && w <= budget)
        .collect();
    let total_weight: u64 = useful.iter().map(|&(_, w)| w).sum();
    if total_weight <= budget {
        return useful.iter().map(|&(v, _)| v).sum();
    }
    let cap = budget as usize;
    let mut best = vec![0.0f64; cap + 1];
    for &(v, w) in &useful {
        let w = w as usize;
        for c in (w..=cap).rev() {
            let take = best[c - w] + v;
            if take > best[c] {
                best[c] = take;
            }
        }
    }
    best[cap]
}

/// Checks the shape every plan must have: within the downlink budget, each
/// `(object, receiver)` pair named at most once, and totals that add up.
pub fn check_plan_shape(plan: &DisseminationPlan, budget: u64) -> Result<(), String> {
    if plan.total_bytes > budget {
        return Err(format!(
            "plan: {} bytes exceed the {budget}-byte budget",
            plan.total_bytes
        ));
    }
    let bytes: u64 = plan.assignments.iter().map(|a| a.size_bytes).sum();
    if bytes != plan.total_bytes {
        return Err(format!(
            "plan: assignments sum to {bytes} bytes, total says {}",
            plan.total_bytes
        ));
    }
    let mut pairs: BTreeSet<(ObjectId, ObjectId)> = BTreeSet::new();
    for a in &plan.assignments {
        if !pairs.insert((a.object, a.receiver)) {
            return Err(format!(
                "plan: pair ({:?}, {:?}) scheduled twice",
                a.object, a.receiver
            ));
        }
    }
    Ok(())
}

/// Checks Algorithm 1's guarantee on one frame: the plan's value is at
/// least half of the exact optimum over the frame's candidate items.
pub fn check_plan_value(
    plan: &DisseminationPlan,
    items: &[(f64, u64)],
    budget: u64,
) -> Result<(), String> {
    let optimum = dp_optimum(items, budget);
    if plan.total_relevance + 1e-9 >= 0.5 * optimum {
        Ok(())
    } else {
        Err(format!(
            "plan: value {} is below half of the optimum {optimum}",
            plan.total_relevance
        ))
    }
}

/// Checks a decoded upload against its source: every fixed-width field is
/// exact and every point lies within the codec's quantisation step
/// (`extent / 65535` per axis of the source cloud's bounding box).
pub fn check_decoded(source: &Upload, vehicle_id: u64, decoded: &Upload) -> Result<(), String> {
    let fail = |what: &str| Err(format!("decode: vehicle {vehicle_id}: {what}"));
    if decoded.vehicle_id != vehicle_id {
        return fail("wrong vehicle id");
    }
    if decoded.pose != source.pose || decoded.bytes != source.bytes {
        return fail("pose or byte count changed");
    }
    if decoded.clustered_points != source.clustered_points
        || decoded.processing_time.to_bits() != source.processing_time.to_bits()
    {
        return fail("fixed-width fields changed");
    }
    if decoded.objects.len() != source.objects.len() {
        return fail("object count changed");
    }
    for (s, d) in source.objects.iter().zip(&decoded.objects) {
        if s.centroid != d.centroid || s.points.len() != d.points.len() {
            return fail("object header changed");
        }
        let Some((lo, hi)) = s.points.bounds() else {
            continue;
        };
        let step = [(hi.x - lo.x), (hi.y - lo.y), (hi.z - lo.z)].map(|e| e / 65535.0 + 1e-9);
        for (a, b) in s.points.iter().zip(d.points.iter()) {
            if (a.x - b.x).abs() > step[0]
                || (a.y - b.y).abs() > step[1]
                || (a.z - b.z).abs() > step[2]
            {
                return fail("a point moved by more than the quantisation step");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_core::Assignment;
    use erpd_geometry::Vec3;

    #[test]
    fn nearest_rank_matches_hand_ranks() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), 5.0);
        assert_eq!(nearest_rank(&xs, 0.9), 9.0);
        assert_eq!(nearest_rank(&xs, 0.91), 10.0);
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
        assert_eq!(nearest_rank(&xs, 1.0), 10.0);
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert!(nearest_rank(&[], 0.5).is_nan());
    }

    #[test]
    fn voxel_counter_dedups_and_skips_non_finite() {
        let cloud = PointCloud::from_points(vec![
            Vec3::new(0.01, 0.01, 0.01),
            Vec3::new(0.29, 0.29, 0.29), // same 0.3 m voxel as the first
            Vec3::new(0.31, 0.0, 0.0),   // next voxel along x
            Vec3::new(-0.01, 0.0, 0.0),  // floor, not truncation: voxel -1
            Vec3::new(f64::NAN, 0.0, 0.0),
            Vec3::new(0.0, f64::INFINITY, 0.0),
        ]);
        let other =
            PointCloud::from_points(vec![Vec3::new(0.1, 0.1, 0.1), Vec3::new(3.0, 3.0, 0.0)]);
        assert_eq!(distinct_voxels([&cloud], 0.3), 3);
        assert_eq!(distinct_voxels([&cloud, &other], 0.3), 4);
    }

    #[test]
    fn dp_finds_the_optimum_greedy_misses() {
        // Density order takes the 1-byte item first and then cannot fit
        // the 10-byte one; the optimum is the 10-byte item alone.
        let items = [(0.5, 1), (0.9, 10)];
        assert!((dp_optimum(&items, 10) - 0.9).abs() < 1e-12);
        // Classic instance: weights 1,3,4,5, values 1,4,5,7, budget 7 → 9.
        let items = [(1.0, 1), (4.0, 3), (5.0, 4), (7.0, 5)];
        assert!((dp_optimum(&items, 7) - 9.0).abs() < 1e-12);
        // Everything fits: the optimum is the sum of positive values.
        assert!((dp_optimum(&[(1.0, 2), (0.0, 1), (2.0, 3)], 100) - 3.0).abs() < 1e-12);
        assert_eq!(dp_optimum(&[(1.0, 200)], 100), 0.0);
    }

    fn assignment(object: u64, receiver: u64, relevance: f64, size: u64) -> Assignment {
        Assignment {
            object: ObjectId(object),
            receiver: ObjectId(receiver),
            relevance,
            size_bytes: size,
        }
    }

    #[test]
    fn plan_checks_catch_broken_plans() {
        let good = DisseminationPlan {
            assignments: vec![assignment(1, 10, 0.5, 40), assignment(1, 11, 0.25, 40)],
            total_relevance: 0.75,
            total_bytes: 80,
        };
        assert!(check_plan_shape(&good, 80).is_ok());
        assert!(check_plan_shape(&good, 79).is_err());
        let mut dup = good.clone();
        dup.assignments[1].receiver = ObjectId(10);
        assert!(check_plan_shape(&dup, 100).is_err());
        let mut miscounted = good.clone();
        miscounted.total_bytes = 70;
        assert!(check_plan_shape(&miscounted, 100).is_err());
        // Optimum over these items is 0.75 + 1.0 = 1.75 at budget 100:
        // 0.75 is below half of it only when the optimum exceeds 1.5.
        let items = [(0.5, 40), (0.25, 40), (1.0, 20)];
        assert!(check_plan_value(&good, &items, 100).is_err());
        assert!(check_plan_value(&good, &items[..2], 100).is_ok());
    }
}
