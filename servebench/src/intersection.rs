//! `intersection`: `System::tick` in process over the paper's two conflict
//! scenarios at paper scale (40 vehicles, 30% connected, so 12 uploads per
//! frame), `Strategy::Ours` on the ideal network.
//!
//! One round runs every episode of [`KINDS`] × [`SCENARIO_SEEDS`] for
//! [`EPISODE_FRAMES`] frames, in an order drawn from `--seed`. Every round
//! holds the same frames, so the deterministic metrics are the same in
//! every run and the timed ones compare across seeds.
//!
//! The traced rounds run the frame composed from the public calls
//! `System::tick` is made of (scan, `process_in` per vehicle, serve,
//! alerts) with each layer in its own span, next to a `System` on a twin
//! world that must produce the same plan, frame for frame.

use crate::checks::{check_merge, check_plan_shape, check_plan_value, knapsack_items, Checks};
use crate::corpus::{self, Fleet};
use crate::{peak_rss_mb, repeat_setup, trace, Options, Report, Rounds, Served};
use erpd_core::{DisseminationPlan, Error};
use erpd_edge::{ServerFrame, ServingCore, Strategy, System, SystemConfig, Upload};
use erpd_rand::{rngs::StdRng, Rng, SeedableRng};
use erpd_sim::{Scenario, ScenarioConfig, ScenarioKind, World};
use std::time::Instant;

/// The paper's two conflict scenarios.
pub const KINDS: [ScenarioKind; 2] = [
    ScenarioKind::UnprotectedLeftTurn,
    ScenarioKind::RedLightViolation,
];
/// Scenario seeds every round cycles over.
pub const SCENARIO_SEEDS: std::ops::Range<u64> = 0..4;
/// Frames per episode: the protagonists meet 4.5 s in, so 5.5 s covers the
/// conflict and its resolution.
pub const EPISODE_FRAMES: usize = 55;
/// Frames ticked during set-up on a throwaway world of the default
/// scenario (unprotected left turn, scenario seed 0).
pub const WARMUP_FRAMES: usize = 10;
/// The plan-value check (exact DP) runs on every this many frames.
const VALUE_CHECK_EVERY: usize = 11;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The episodes of one round, in the order `seed` draws.
pub fn episodes(seed: u64) -> Vec<ScenarioConfig> {
    let mut out: Vec<ScenarioConfig> = KINDS
        .iter()
        .flat_map(|&kind| {
            SCENARIO_SEEDS.map(move |s| ScenarioConfig::default().with_kind(kind).with_seed(s))
        })
        .collect();
    StdRng::seed_from_u64(seed).shuffle(&mut out);
    out
}

/// Runs the workload.
pub fn run(opts: &Options, checks: &mut Checks) -> Report {
    let config = SystemConfig::new(Strategy::Ours);
    let mut episodes = episodes(opts.seed);
    let mut frames = EPISODE_FRAMES;
    if opts.smoke {
        episodes.truncate(2);
        frames = 4;
    }
    let mut report = Report::default();
    let (first, setup_s) = repeat_setup(if opts.smoke { 1 } else { SETUPS }, || {
        let scenario = Scenario::build(episodes[0]);
        let system = System::builder(config).build(&scenario.world);
        // Warm up on the same episode whatever the seed, so that set-up
        // costs the same in every run.
        let mut warm_world = Scenario::build(ScenarioConfig::default()).world;
        let mut warm = System::builder(config).build(&warm_world);
        for _ in 0..WARMUP_FRAMES {
            warm.tick(&mut warm_world)?;
            warm_world.step();
        }
        Ok::<_, Error>((scenario, system))
    });
    report.measured.setup_s = setup_s;
    let mut first = match first {
        Ok(v) => Some(v),
        Err(e) => {
            checks.check(Err(format!("intersection: warm-up tick failed: {e}")));
            return report;
        }
    };

    let mut rounds = Rounds::new(opts);
    'rounds: while let Some(round) = rounds.next_round() {
        let traced = opts.trace && round % 2 == 0;
        trace::set_enabled(traced);
        for cfg in &episodes {
            let result = if traced {
                traced_episode(*cfg, frames, config, &mut report.traced, checks)
            } else {
                let (scenario, system) = first.take().unwrap_or_else(|| {
                    let s = Scenario::build(*cfg);
                    let sys = System::builder(config).build(&s.world);
                    (s, sys)
                });
                episode(scenario, system, frames, &mut report.measured, checks)
            };
            if let Err(e) = result {
                report.fail(format!("intersection: {cfg:?}: {e}"));
                break 'rounds;
            }
        }
    }
    trace::set_enabled(false);
    report.measured.peak_rss_mb = peak_rss_mb();
    if !opts.trace && report.failed == 0 {
        // The untraced rounds never see the uploads `System::tick` served;
        // check the merge and the composed frame on the default scenario.
        let n = if opts.smoke { frames } else { 20 };
        let cfg = ScenarioConfig::default();
        if let Err(e) = traced_episode(cfg, n, config, &mut Served::default(), checks) {
            checks.check(Err(format!("intersection: verification episode: {e}")));
        }
    }
    report
}

/// One measured episode through `System::tick`.
fn episode(
    mut scenario: Scenario,
    mut system: System,
    frames: usize,
    served: &mut Served,
    checks: &mut Checks,
) -> Result<(), Error> {
    let budget = system.config().network.downlink_budget_bytes();
    for f in 0..frames {
        let t0 = Instant::now();
        let frame = system.tick(&mut scenario.world)?;
        let tick_s = t0.elapsed().as_secs_f64();
        scenario.world.step();
        let loop_s = t0.elapsed().as_secs_f64();

        let plan = system.last_plan();
        checks.expect(
            frame.expected_uploads > 0 && frame.delivered_uploads == frame.expected_uploads,
            || {
                format!(
                    "intersection: delivered {} of {} expected uploads",
                    frame.delivered_uploads, frame.expected_uploads
                )
            },
        );
        checks.check(check_plan_shape(plan, budget));
        if f % VALUE_CHECK_EVERY == 0 {
            checks.check(check_plan_value(
                plan,
                &knapsack_items(system.last_server_frame()),
                budget,
            ));
        }
        served.frame(
            tick_s * 1e3,
            loop_s,
            frame.upload_bytes.len() as u64,
            frame.upload_bytes.iter().sum(),
            plan.total_relevance,
        );
    }
    check_protagonists(&scenario, checks);
    Ok(())
}

/// One episode of the composed frame, checked plan for plan against
/// `System::tick` on a twin world; every frame is also merge-checked.
fn traced_episode(
    cfg: ScenarioConfig,
    frames: usize,
    config: SystemConfig,
    served: &mut Served,
    checks: &mut Checks,
) -> Result<(), Error> {
    let mut scenario = Scenario::build(cfg);
    let mut twin_world = scenario.world.clone();
    let mut twin = System::builder(config).build(&twin_world);
    let mut core = trace::serving_core(config.server, scenario.world.map.clone(), trace::enabled());
    let mut fleet = Fleet::default();
    let budget = config.network.downlink_budget_bytes();
    for f in 0..frames {
        let t0 = Instant::now();
        let frame = trace::span("frame");
        let (uploads, sf, plan) =
            composed_frame(&mut scenario.world, &mut fleet, &mut core, config)?;
        drop(frame);
        let frame_s = t0.elapsed().as_secs_f64();
        corpus::step(&mut scenario.world);
        let loop_s = t0.elapsed().as_secs_f64();

        twin.tick(&mut twin_world)?;
        twin_world.step();
        checks.expect(twin.last_plan() == &plan, || {
            format!("intersection: composed frame {f} of {cfg:?} differs from System::tick")
        });
        checks.check(check_merge(
            &uploads,
            config.server.voxel_size,
            sf.map_points,
        ));
        checks.check(check_plan_shape(&plan, budget));
        if f % VALUE_CHECK_EVERY == 0 {
            checks.check(check_plan_value(&plan, &knapsack_items(&sf), budget));
        }
        trace::count("edge.budget_fill", plan.total_bytes as f64 / budget as f64);
        let bytes = uploads.iter().map(|u| u.bytes).sum();
        served.frame(
            frame_s * 1e3,
            loop_s,
            uploads.len() as u64,
            bytes,
            plan.total_relevance,
        );
    }
    check_protagonists(&scenario, checks);
    Ok(())
}

/// The frame `System::tick` runs on the ideal network, from its public
/// parts: scan, per-vehicle extraction, serve, and the alerts.
fn composed_frame(
    world: &mut World,
    fleet: &mut Fleet,
    core: &mut ServingCore,
    config: SystemConfig,
) -> Result<(Vec<Upload>, ServerFrame, DisseminationPlan), Error> {
    let scans = corpus::scan(world, None);
    let uploads = fleet.extract(&scans, &config.network);
    let serve = trace::span("edge.serve");
    let (sf, planned) = core.serve(
        world.time(),
        &uploads,
        config.network.downlink_budget_bytes(),
    )?;
    drop(serve);
    for a in &planned.artifact.assignments {
        if a.relevance >= config.alert_threshold {
            world.alert(a.receiver.0);
        }
    }
    Ok((uploads, sf, planned.artifact))
}

/// No protagonist may collide: the ego must have received the hazard in
/// time.
fn check_protagonists(scenario: &Scenario, checks: &mut Checks) {
    let (ego, hazard) = (scenario.ego, scenario.hazard);
    let hit = scenario
        .world
        .collisions()
        .iter()
        .any(|&(a, b)| a == ego || b == ego || a == hazard || b == hazard);
    checks.expect(!hit, || {
        format!(
            "intersection: a protagonist collided in {:?}",
            scenario.config
        )
    });
}
