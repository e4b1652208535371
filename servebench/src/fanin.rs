//! `edge_fanin`: about a hundred vehicles' uploads per frame through the
//! edge's byte path — `WireMessage::decode_frame` of every upload, then
//! `ServingCore::serve`, then encoding the plan — with no simulation or
//! extraction in the timed frame.
//!
//! The uploads are recorded once from the paper scenario through
//! `VehicleSide` ([`Corpus::record`]) and replayed by [`REPLICAS`] replicas
//! per source vehicle, which keep their source's pose. Each replica is bound
//! to one source vehicle for its whole life: it uploads exactly when its
//! source does, so a replica whose source has left the scene stops. When
//! the replay wraps to the corpus's first frame, every replica comes back
//! under a fresh id. One round is one pass over the corpus.

use crate::checks::{
    check_decoded, check_merge, check_plan_shape, check_plan_value, knapsack_items, Checks,
};
use crate::corpus::Corpus;
use crate::{peak_rss_mb, repeat_setup, trace, Options, Report, Rounds};
use erpd_core::DisseminationPlan;
use erpd_edge::{NetworkConfig, ServerConfig, ServingCore, Upload, WireMessage};
use erpd_rand::{rngs::StdRng, Rng, SeedableRng};
use erpd_sim::{ScenarioConfig, ScenarioKind};
use std::time::Instant;

/// The corpus scenario: the unprotected left turn, scenario seed 0.
pub fn scenario() -> ScenarioConfig {
    ScenarioConfig::default()
        .with_kind(ScenarioKind::UnprotectedLeftTurn)
        .with_seed(0)
}
/// Simulated frames before recording starts. The recorded window, frames
/// 26–41, is where the scene is busiest and the edge frame's cost is
/// nearly flat, so the median frame sits in a dense part of the
/// distribution. It ends before frame 42, where the ego (no alerts reach
/// it while recording) collides and leaves the scan set, halving the
/// frame's cost.
pub const SKIP_FRAMES: usize = 26;
/// Recorded frames: one round.
pub const CORPUS_FRAMES: usize = 16;
/// Replicas per source vehicle (12 connected sources give 96 uploads).
pub const REPLICAS: usize = 8;
/// First replica id: above the scenario's vehicle ids, below the server's
/// track-id namespace.
pub const REPLICA_ID_BASE: u64 = 100_000;
/// Replica ids of successive wraps are `ID_STRIDE` apart.
const ID_STRIDE: u64 = 1_000;
/// Frames served during set-up before the first measured frame.
const WARMUP_FRAMES: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Decode and merge checks run on every this many frames; the exact
/// plan-value check on every `2 ×` this many.
const CHECK_EVERY: u64 = 5;

/// The replay: which replica uploads what, frame by frame.
#[derive(Debug)]
pub struct Replay {
    corpus: Corpus,
    sources: Vec<u64>,
    /// Replica slot (source index × REPLICAS + k) → id offset, drawn from
    /// the seed.
    slot_ids: Vec<u64>,
    /// Replay position in corpus frames since the start (the phase
    /// included); `position / corpus length` counts the wraps.
    position: usize,
}

/// One generated upload: the replica's id, its source's upload, and the
/// encoded wire frame.
#[derive(Debug)]
pub struct Generated<'a> {
    /// The replica's vehicle id.
    pub vehicle_id: u64,
    /// The source upload the replica replays.
    pub source: &'a Upload,
    /// `WireMessage::Upload` as it arrives at the edge.
    pub bytes: Vec<u8>,
}

impl Replay {
    /// A replay of `corpus` starting at the phase and replica ids `seed`
    /// draws.
    pub fn new(corpus: Corpus, replicas: usize, seed: u64) -> Replay {
        let sources = corpus.sources();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut slot_ids: Vec<u64> = (0..(sources.len() * replicas) as u64).collect();
        rng.shuffle(&mut slot_ids);
        let position = rng.gen_range(0..corpus.frames.len());
        Replay {
            corpus,
            sources,
            slot_ids,
            position,
        }
    }

    /// Frames in one pass over the corpus.
    pub fn frames_per_round(&self) -> usize {
        self.corpus.frames.len()
    }

    /// The corpus frame the next [`Replay::next_frame`] replays.
    fn corpus_index(&self) -> usize {
        self.position % self.frames_per_round()
    }

    /// Generates the next frame's uploads, each encoded as a wire frame
    /// tagged with `frame`, and advances the replay.
    pub fn next_frame(&mut self, frame: u64) -> Vec<Generated<'_>> {
        let index = self.corpus_index();
        let wrap = (self.position / self.frames_per_round()) as u64 % 64;
        self.position += 1;
        let replicas = self.slot_ids.len() / self.sources.len().max(1);
        let mut out = Vec::new();
        for (si, source_id) in self.sources.iter().enumerate() {
            let Some(source) = self.corpus.frames[index].get(source_id) else {
                continue; // the source has left the scene: its replicas stop
            };
            for k in 0..replicas {
                let vehicle_id =
                    REPLICA_ID_BASE + wrap * ID_STRIDE + self.slot_ids[si * replicas + k];
                let upload = Upload {
                    vehicle_id,
                    ..source.clone()
                };
                let bytes = WireMessage::Upload { frame, upload }.encode();
                out.push(Generated {
                    vehicle_id,
                    source,
                    bytes,
                });
            }
        }
        out
    }
}

/// The edge side of the workload: the serving core and its frame counter.
#[derive(Debug)]
pub struct Edge {
    core: ServingCore,
    frame: u64,
    network: NetworkConfig,
}

/// What one served frame produced.
#[derive(Debug)]
pub struct FrameOut {
    /// Wall milliseconds of decode + serve + plan encode.
    pub ms: f64,
    /// The decoded uploads, in arrival order.
    pub uploads: Vec<Upload>,
    /// The frame's plan.
    pub plan: DisseminationPlan,
    /// Points in the merged traffic map.
    pub map_points: usize,
    /// The knapsack items the plan was chosen from.
    pub items: Vec<(f64, u64)>,
    /// The encoded plan frame.
    pub plan_bytes: Vec<u8>,
}

impl Edge {
    /// One edge frame over encoded uploads: decode every upload, serve,
    /// encode the plan with its acks.
    pub fn serve(&mut self, batch: &[Generated<'_>]) -> Result<FrameOut, String> {
        let now = self.frame as f64 * self.network.frame_period;
        let budget = self.network.downlink_budget_bytes();
        let t0 = Instant::now();
        let frame_span = trace::span("frame");
        let mut uploads = Vec::with_capacity(batch.len());
        for g in batch {
            let span = trace::span("wire.decode");
            let decoded = WireMessage::decode_frame(&g.bytes);
            drop(span);
            match decoded {
                Ok(Some((WireMessage::Upload { upload, .. }, _))) => uploads.push(upload),
                other => return Err(format!("edge_fanin: upload did not decode: {other:?}")),
            }
        }
        let span = trace::span("edge.serve");
        let (sf, planned) = self
            .core
            .serve(now, &uploads, budget)
            .map_err(|e| format!("edge_fanin: serve failed: {e}"))?;
        drop(span);
        let acks = uploads.iter().map(|u| (u.vehicle_id, self.frame)).collect();
        let message = WireMessage::Plan {
            frame: self.frame,
            acks,
            plan: planned.artifact,
        };
        let span = trace::span("wire.encode");
        let plan_bytes = message.encode();
        drop(span);
        drop(frame_span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let WireMessage::Plan { plan, .. } = message else {
            unreachable!("built as a plan above")
        };
        self.frame += 1;
        if trace::enabled() {
            for g in batch {
                trace::count("wire.bytes", g.bytes.len() as f64);
            }
            trace::count("edge.budget_fill", plan.total_bytes as f64 / budget as f64);
        }
        Ok(FrameOut {
            ms,
            uploads,
            plan,
            map_points: sf.map_points,
            items: knapsack_items(&sf),
            plan_bytes,
        })
    }
}

/// Runs the workload.
pub fn run(opts: &Options, checks: &mut Checks) -> Report {
    let network = NetworkConfig::default();
    let server = ServerConfig::default();
    let (frames, replicas) = if opts.smoke {
        (4, 2)
    } else {
        (CORPUS_FRAMES, REPLICAS)
    };
    let mut report = Report::default();
    let ((mut replay, mut edge, warm), setup_s) =
        repeat_setup(if opts.smoke { 1 } else { SETUPS }, || {
            // Traced runs record the vehicle-side layers while the corpus
            // is built; warm-up frames stay out of the edge layers.
            trace::set_enabled(opts.trace);
            let corpus = Corpus::record(scenario(), SKIP_FRAMES, frames, None, &network);
            let core = trace::serving_core(server, corpus.map.clone(), opts.trace);
            let mut replay = Replay::new(corpus, replicas, opts.seed);
            let mut edge = Edge {
                core,
                frame: 0,
                network,
            };
            trace::set_enabled(false);
            let mut warm = Ok(());
            for _ in 0..WARMUP_FRAMES {
                let batch = replay.next_frame(edge.frame);
                if let Err(e) = edge.serve(&batch) {
                    warm = Err(e);
                    break;
                }
            }
            (replay, edge, warm)
        });
    report.measured.setup_s = setup_s;
    if let Err(e) = warm {
        checks.check(Err(e));
        return report;
    }
    let budget = network.downlink_budget_bytes();
    let mut rounds = Rounds::new(opts);
    'rounds: while let Some(round) = rounds.next_round() {
        let traced = opts.trace && round % 2 == 0;
        trace::set_enabled(traced);
        let served = if traced {
            &mut report.traced
        } else {
            &mut report.measured
        };
        for _ in 0..replay.frames_per_round() {
            let frame = edge.frame;
            let batch = replay.next_frame(frame);
            let out = match edge.serve(&batch) {
                Ok(out) => out,
                Err(e) => {
                    report.fail(e);
                    break 'rounds;
                }
            };
            checks.check(check_plan_shape(&out.plan, budget));
            checks.expect(
                matches!(WireMessage::decode(&out.plan_bytes), Ok((WireMessage::Plan { plan, .. }, _)) if plan == out.plan),
                || format!("edge_fanin: frame {frame}: the encoded plan does not decode to the plan"),
            );
            if frame % CHECK_EVERY == 0 {
                for (g, u) in batch.iter().zip(&out.uploads) {
                    checks.check(check_decoded(g.source, g.vehicle_id, u));
                }
                checks.check(check_merge(&out.uploads, server.voxel_size, out.map_points));
            }
            if frame % (2 * CHECK_EVERY) == 0 {
                checks.check(check_plan_value(&out.plan, &out.items, budget));
            }
            let bytes: usize = batch.iter().map(|g| g.bytes.len()).sum();
            served.frame(
                out.ms,
                out.ms / 1e3,
                batch.len() as u64,
                bytes as u64,
                out.plan.total_relevance,
            );
        }
    }
    trace::set_enabled(false);
    report.measured.peak_rss_mb = peak_rss_mb();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_geometry::{Pose2, Vec2};
    use erpd_sim::IntersectionMap;
    use std::collections::BTreeMap;

    fn upload(vehicle_id: u64) -> Upload {
        Upload {
            vehicle_id,
            pose: Pose2::new(Vec2::new(vehicle_id as f64, 0.0), 0.0),
            objects: Vec::new(),
            bytes: 64,
            processing_time: 0.0,
            clustered_points: 0,
        }
    }

    fn decoded_ids(batch: &[Generated<'_>]) -> Vec<(u64, u64)> {
        batch
            .iter()
            .map(|g| match WireMessage::decode(&g.bytes).unwrap().0 {
                WireMessage::Upload { upload, .. } => {
                    assert_eq!(upload.vehicle_id, g.vehicle_id);
                    (g.source.vehicle_id, g.vehicle_id)
                }
                other => panic!("not an upload: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn replicas_stay_bound_to_their_source_and_return_fresh_after_a_wrap() {
        // Source 2 leaves the scene after the first frame.
        let frames = vec![
            BTreeMap::from([(1, upload(1)), (2, upload(2))]),
            BTreeMap::from([(1, upload(1))]),
        ];
        let corpus = Corpus {
            frames,
            map: IntersectionMap::default(),
        };
        let mut replay = Replay::new(corpus, 3, 11);
        // Start from the corpus's first frame whatever phase the seed drew.
        while replay.corpus_index() != 0 {
            replay.next_frame(0);
        }
        let first = decoded_ids(&replay.next_frame(0));
        let second = decoded_ids(&replay.next_frame(1));
        assert_eq!(first.len(), 6);
        // Only source 1's replicas upload once source 2 has left, under the
        // same ids as before.
        let of_source_1: Vec<(u64, u64)> = first.iter().copied().filter(|&(s, _)| s == 1).collect();
        assert_eq!(second, of_source_1);
        // After the wrap every replica is back, each under a fresh id.
        let third = decoded_ids(&replay.next_frame(2));
        assert_eq!(third.len(), 6);
        for (s, id) in &third {
            assert!(
                first.iter().all(|&(_, old)| old != *id),
                "id {id} of source {s} reused"
            );
        }
    }
}
