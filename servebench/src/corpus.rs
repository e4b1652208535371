//! The vehicle side, driven through the program's public calls: LiDAR
//! scans from `World`, extraction through `VehicleSide::process_in`, and
//! recorded upload corpora for the workloads that replay uploads.

use crate::trace;
use erpd_edge::{NetworkConfig, Strategy, Upload, VehicleScratch, VehicleSide};
use erpd_geometry::Vec2;
use erpd_sim::{IntersectionMap, LidarFrame, Scenario, ScenarioConfig, World};
use std::collections::BTreeMap;

/// Scans every connected vehicle, or only the vehicles in `only`, inside a
/// `sim.scan` span, and counts the materialised LiDAR points.
pub fn scan(world: &World, only: Option<&[u64]>) -> Vec<LidarFrame> {
    let guard = trace::span("sim.scan");
    let frames = match only {
        None => world.scan_connected(),
        Some(ids) => ids
            .iter()
            .filter_map(|&id| world.scan_vehicle(id))
            .collect(),
    };
    drop(guard);
    if trace::enabled() {
        let points: usize = frames
            .iter()
            .map(|f| {
                f.ground_sample.len() + f.objects.iter().map(|o| o.points.len()).sum::<usize>()
            })
            .sum();
        trace::count("sim.lidar_points", points as f64);
    }
    frames
}

/// Advances the world one step inside a `sim.step` span.
pub fn step(world: &mut World) {
    let _guard = trace::span("sim.step");
    world.step();
}

/// The vehicle fleet's on-board state: one `VehicleSide` per vehicle and
/// one shared scratch, as `System` keeps them with a single worker.
#[derive(Debug, Default)]
pub struct Fleet {
    sides: BTreeMap<u64, VehicleSide>,
    scratch: VehicleScratch,
}

impl Fleet {
    /// Turns one frame's scans into uploads, in scan order. Each vehicle's
    /// extraction is its own `vehicle.extract` span, run alone on this
    /// thread (uncontended, as on a real on-board unit).
    pub fn extract(&mut self, frames: &[LidarFrame], network: &NetworkConfig) -> Vec<Upload> {
        let positions: Vec<(u64, Vec2)> = frames
            .iter()
            .map(|f| (f.vehicle_id, f.sensor_pose.position))
            .collect();
        let mut uploads = Vec::with_capacity(frames.len());
        for f in frames {
            let side = self
                .sides
                .entry(f.vehicle_id)
                .or_insert_with(|| VehicleSide::new(Strategy::Ours, f.sensor_height));
            let guard = trace::span("vehicle.extract");
            let (upload, _) = side.process_in(f, &positions, network, &mut self.scratch);
            drop(guard);
            if trace::enabled() {
                trace::count("vehicle.clustered_points", upload.clustered_points as f64);
                trace::count("vehicle.upload_bytes", upload.bytes as f64);
            }
            uploads.push(upload);
        }
        uploads
    }
}

/// Uploads recorded from a scenario, frame by frame, keyed by the source
/// vehicle's id.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Per recorded frame, every source vehicle's upload.
    pub frames: Vec<BTreeMap<u64, Upload>>,
    /// The scenario's map (the edge must serve against the same map).
    pub map: IntersectionMap,
}

impl Corpus {
    /// Runs the scenario's vehicle pipeline and records `frames` frames of
    /// uploads after the first `skip` (the motion filter needs a few frames
    /// of history before it reports moving objects). `only` restricts the
    /// scans to those vehicles.
    pub fn record(
        scenario: ScenarioConfig,
        skip: usize,
        frames: usize,
        only: Option<&[u64]>,
        network: &NetworkConfig,
    ) -> Corpus {
        let mut s = Scenario::build(scenario);
        let mut fleet = Fleet::default();
        let mut out = Vec::with_capacity(frames);
        for k in 0..skip + frames {
            let scans = scan(&s.world, only);
            let uploads = fleet.extract(&scans, network);
            if k >= skip {
                out.push(uploads.into_iter().map(|u| (u.vehicle_id, u)).collect());
            }
            step(&mut s.world);
        }
        Corpus {
            frames: out,
            map: s.world.map.clone(),
        }
    }

    /// Every source vehicle id that uploads in some frame, ascending.
    pub fn sources(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.frames.iter().flat_map(|f| f.keys().copied()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}
