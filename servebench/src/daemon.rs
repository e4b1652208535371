//! `daemon_loop`: two TCP clients, driven from one generator thread,
//! against an in-process `EdgeDaemon`, in a closed loop: both clients
//! upload, both wait for the plan that acks them, and the loop repeats.
//!
//! The clients replay uploads recorded from two vehicles of the paper
//! scenario ([`SOURCES`]) and keep their poses, so the plans carry
//! relevance. They connect and upload at once, as real clients do, without
//! waiting for the daemon to register them. One round is one pass over the
//! recorded frames.
//!
//! The daemon's stages cannot be reached from outside, so after the loop
//! every served frame's acked uploads are replayed, in vehicle-id order
//! with `now = frame × frame_period`, through a fresh `ServingCore`: the
//! replayed plans must equal the received ones, and (traced) the replay's
//! serve time splits the client's wait into serving and socket/assembly.

use crate::checks::{check_plan_shape, Checks};
use crate::corpus::Corpus;
use crate::{peak_rss_mb, repeat_setup, trace, Options, Report, Rounds};
use erpd_core::DisseminationPlan;
use erpd_edge::{
    DaemonConfig, EdgeDaemon, NetworkConfig, ServerConfig, ServerHandle, Strategy, SystemConfig,
    TcpTransport, Upload, WireMessage,
};
use erpd_rand::{rngs::StdRng, Rng, SeedableRng};
use erpd_sim::{ScenarioConfig, ScenarioKind};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// The corpus scenario: the unprotected left turn, scenario seed 0.
pub fn scenario() -> ScenarioConfig {
    ScenarioConfig::default()
        .with_kind(ScenarioKind::UnprotectedLeftTurn)
        .with_seed(0)
}
/// The two source vehicles of that scenario: the ego (5) and connected
/// vehicle 15, the pair whose joint uploads carry the most relevance to
/// the ego over the recorded frames.
pub const SOURCES: [u64; 2] = [5, 15];
/// Client vehicle ids: `CLIENT_ID_BASE + source id`.
pub const CLIENT_ID_BASE: u64 = 200_000;
/// Simulated frames before recording starts. The recorded window, frames
/// 14–37, is where both vehicles upload the most and most plans carry
/// relevance; a narrower spread of frame costs keeps the median steady.
pub const SKIP_FRAMES: usize = 14;
/// Recorded frames: one round.
pub const CORPUS_FRAMES: usize = 24;
/// Closed-loop rounds of set-up before the first measured frame.
const WARMUP_FRAMES: u64 = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// How long a client waits for the plan that acks its upload.
const ACK_TIMEOUT: Duration = Duration::from_secs(5);

/// A running daemon and its two connected clients.
#[derive(Debug)]
struct Session {
    corpus: Corpus,
    handle: ServerHandle,
    clients: Vec<(u64, TcpTransport)>,
    /// Client frames sent so far.
    next_frame: u64,
    /// Corpus frame of client frame 0, drawn from the seed.
    phase: usize,
    /// Every plan received, by daemon frame: `(acks, plan)`.
    plans: BTreeMap<u64, (Vec<(u64, u64)>, DisseminationPlan)>,
}

/// One closed-loop client frame's measurements.
struct Round {
    /// First upload written → last acking plan read, seconds.
    frame_s: f64,
    /// The whole client frame (encode included), seconds.
    loop_s: f64,
    bytes: u64,
}

impl Session {
    fn start(corpus: Corpus, phase: usize) -> Result<Session, String> {
        let config = DaemonConfig::new(SystemConfig::new(Strategy::Ours));
        let handle = EdgeDaemon::spawn(config, corpus.map.clone(), "127.0.0.1:0")
            .map_err(|e| format!("daemon_loop: spawn failed: {e}"))?;
        let mut clients = Vec::new();
        for source in SOURCES {
            let vehicle_id = CLIENT_ID_BASE + source;
            let mut t = TcpTransport::connect(handle.addr())
                .map_err(|e| format!("daemon_loop: connect failed: {e}"))?;
            t.send_message(&WireMessage::Hello { vehicle_id })
                .map_err(|e| format!("daemon_loop: hello failed: {e}"))?;
            clients.push((vehicle_id, t));
        }
        Ok(Session {
            corpus,
            handle,
            clients,
            next_frame: 0,
            phase,
            plans: BTreeMap::new(),
        })
    }

    /// The upload client `vehicle` sends as client frame `frame`.
    fn upload(&self, vehicle: u64, frame: u64) -> Option<Upload> {
        let index = (self.phase + frame as usize) % self.corpus.frames.len();
        let source = self.corpus.frames[index].get(&vehicle.checked_sub(CLIENT_ID_BASE)?)?;
        Some(Upload {
            vehicle_id: vehicle,
            ..source.clone()
        })
    }

    /// One closed-loop client frame: encode both uploads, write both, then
    /// read each client's stream until the plan acking its upload.
    fn round(&mut self) -> Result<Round, String> {
        let start = Instant::now();
        let frame = self.next_frame;
        self.next_frame += 1;
        let mut encoded = Vec::with_capacity(self.clients.len());
        for &(vehicle, _) in &self.clients {
            let upload = self
                .upload(vehicle, frame)
                .expect("set-up checked every source is present");
            let span = trace::span("wire.encode");
            let bytes = WireMessage::Upload { frame, upload }.encode();
            drop(span);
            trace::count("wire.bytes", bytes.len() as f64);
            encoded.push(bytes);
        }
        let t0 = Instant::now();
        let span = trace::span("daemon.send");
        for ((_, client), bytes) in self.clients.iter().zip(&encoded) {
            let mut stream = client.stream();
            stream
                .write_all(bytes)
                .map_err(|e| format!("daemon_loop: upload write failed: {e}"))?;
        }
        drop(span);
        let span = trace::span("daemon.wait");
        for (vehicle_id, client) in &mut self.clients {
            loop {
                let msg = client
                    .recv_message(ACK_TIMEOUT)
                    .map_err(|e| format!("daemon_loop: no ack for ({vehicle_id}, {frame}): {e}"))?;
                match msg {
                    Some(WireMessage::Plan {
                        frame: served,
                        acks,
                        plan,
                    }) => {
                        let mine = acks.contains(&(*vehicle_id, frame));
                        let known = self
                            .plans
                            .entry(served)
                            .or_insert_with(|| (acks.clone(), plan.clone()));
                        if known.0 != acks || known.1 != plan {
                            return Err(format!(
                                "daemon_loop: clients received different plans for frame {served}"
                            ));
                        }
                        if mine {
                            break;
                        }
                    }
                    Some(_) => {}
                    None => return Err("daemon_loop: the daemon closed the connection".into()),
                }
            }
        }
        drop(span);
        let end = Instant::now();
        Ok(Round {
            frame_s: (end - t0).as_secs_f64(),
            loop_s: (end - start).as_secs_f64(),
            bytes: encoded.iter().map(|b| b.len() as u64).sum(),
        })
    }

    /// Says goodbye, stops the daemon and returns the frames it served.
    fn finish(&mut self) -> u64 {
        for (_, client) in &mut self.clients {
            let _ = client.send_message(&WireMessage::Bye);
        }
        // Shutdown joins the serve thread, which counts a frame only after
        // broadcasting its plan: read the count once it is final.
        self.handle.shutdown();
        self.handle.frames_served()
    }

    /// Checks the daemon's output: every upload acked exactly once, a plan
    /// received for every served frame, and each of those plans reproduced
    /// by a fresh `ServingCore` fed that frame's acked uploads in
    /// vehicle-id order at `now = frame × frame_period`.
    fn verify(&self, frames_served: u64, traced: bool, checks: &mut Checks) {
        let network = NetworkConfig::default();
        let budget = network.downlink_budget_bytes();
        let mut acked: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        for (acks, _) in self.plans.values() {
            for &ack in acks {
                *acked.entry(ack).or_default() += 1;
            }
        }
        let sent = self.next_frame as usize * self.clients.len();
        let once = acked.len() == sent
            && (0..self.next_frame).all(|f| {
                self.clients
                    .iter()
                    .all(|&(v, _)| acked.get(&(v, f)) == Some(&1))
            });
        checks.expect(once, || {
            format!("daemon_loop: the acks do not name each of the {sent} uploads once")
        });
        checks.expect(self.plans.keys().copied().eq(0..frames_served), || {
            format!(
                "daemon_loop: received plans for {} of {frames_served} served frames",
                self.plans.len()
            )
        });

        let mut core =
            trace::serving_core(ServerConfig::default(), self.corpus.map.clone(), traced);
        for (&served, (acks, plan)) in &self.plans {
            checks.check(check_plan_shape(plan, budget));
            let mut members = acks.clone();
            members.sort_unstable();
            let mut uploads = Vec::with_capacity(members.len());
            for (vehicle, frame) in members {
                let Some(upload) = self.upload(vehicle, frame) else {
                    checks.check(Err(format!(
                        "daemon_loop: frame {served} acks an unknown upload ({vehicle}, {frame})"
                    )));
                    return;
                };
                // The daemon serves what it decoded: replay the decoded copy.
                let bytes = WireMessage::Upload { frame, upload }.encode();
                let span = trace::span("wire.decode");
                let decoded = WireMessage::decode(&bytes);
                drop(span);
                match decoded {
                    Ok((WireMessage::Upload { upload, .. }, _)) => uploads.push(upload),
                    other => {
                        checks.check(Err(format!(
                            "daemon_loop: a replayed upload did not decode: {other:?}"
                        )));
                        return;
                    }
                }
            }
            let span = trace::span("daemon.serve");
            let replayed = core.serve(served as f64 * network.frame_period, &uploads, budget);
            drop(span);
            match replayed {
                Ok((_, p)) => {
                    trace::count(
                        "edge.budget_fill",
                        p.artifact.total_bytes as f64 / budget as f64,
                    );
                    checks.expect(&p.artifact == plan, || {
                        format!("daemon_loop: frame {served}: the replayed plan differs from the received one")
                    });
                }
                Err(e) => checks.check(Err(format!(
                    "daemon_loop: replay of frame {served} failed: {e}"
                ))),
            }
        }
    }
}

/// Runs the workload.
pub fn run(opts: &Options, checks: &mut Checks) -> Report {
    let network = NetworkConfig::default();
    let frames = if opts.smoke { 4 } else { CORPUS_FRAMES };
    let phase = StdRng::seed_from_u64(opts.seed).gen_range(0..frames);
    let mut report = Report::default();
    let (session, setup_s) = repeat_setup(if opts.smoke { 1 } else { SETUPS }, || {
        trace::set_enabled(opts.trace);
        let corpus = Corpus::record(scenario(), SKIP_FRAMES, frames, Some(&SOURCES), &network);
        trace::set_enabled(false);
        if let Some(k) = corpus
            .frames
            .iter()
            .position(|f| SOURCES.iter().any(|s| !f.contains_key(s)))
        {
            return Err(format!(
                "daemon_loop: a source vehicle is missing from corpus frame {k}"
            ));
        }
        let mut session = Session::start(corpus, phase)?;
        for _ in 0..WARMUP_FRAMES {
            session.round()?;
        }
        Ok(session)
    });
    report.measured.setup_s = setup_s;
    let mut session = match session {
        Ok(s) => s,
        Err(e) => {
            checks.check(Err(e));
            return report;
        }
    };

    let mut rounds = Rounds::new(opts);
    while let Some(round) = rounds.next_round() {
        let traced = opts.trace && round % 2 == 0;
        trace::set_enabled(traced);
        let served = if traced {
            &mut report.traced
        } else {
            &mut report.measured
        };
        for _ in 0..frames {
            let first_plan = session.plans.keys().next_back().map_or(0, |f| f + 1);
            match session.round() {
                Ok(r) => {
                    let relevance: f64 = session
                        .plans
                        .range(first_plan..)
                        .map(|(_, (_, p))| p.total_relevance)
                        .sum();
                    served.frame(r.frame_s * 1e3, r.loop_s, 2, r.bytes, relevance);
                }
                Err(e) => {
                    report.fail(e);
                    trace::set_enabled(false);
                    report.measured.peak_rss_mb = peak_rss_mb();
                    session.finish();
                    return report;
                }
            }
        }
    }
    report.measured.peak_rss_mb = peak_rss_mb();
    trace::set_enabled(opts.trace);
    let frames_served = session.finish();
    report.frames_per_client_frame = frames_served as f64 / session.next_frame as f64;
    session.verify(frames_served, opts.trace, checks);
    trace::set_enabled(false);
    report
}
