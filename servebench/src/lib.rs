//! End-to-end and per-layer benchmark of the ERPD serving path.
//!
//! Three workloads drive the program's public API:
//!
//! * [`intersection`] — `System::tick` in process over the paper's two
//!   conflict scenarios, cycled over scenario seeds;
//! * [`fanin`] — about a hundred replayed uploads per frame through
//!   `WireMessage` decoding, `ServingCore::serve` and plan encoding;
//! * [`daemon`] — two TCP clients in a closed loop against an in-process
//!   `EdgeDaemon`.
//!
//! Every time is taken with the benchmark's own clock around public calls.
//! Every run checks the program's outputs ([`checks`]) and prints one JSON
//! line: the end-to-end metrics, or with tracing the per-layer metrics
//! ([`trace`]). See `README.md` for the make-up of each workload.

pub mod checks;
pub mod corpus;
pub mod daemon;
pub mod fanin;
pub mod intersection;
pub mod trace;

use checks::{nearest_rank, Checks};
use std::time::Instant;

/// Where a traced run writes its spans: `traces/` next to this package's
/// manifest.
pub const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `System::tick` over the paper's intersection scenarios.
    Intersection,
    /// Bulk decode + serve + plan encode of ~100 uploads per frame.
    EdgeFanin,
    /// Two TCP clients in a closed loop against an `EdgeDaemon`.
    DaemonLoop,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Intersection,
        Workload::EdgeFanin,
        Workload::DaemonLoop,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Intersection => "intersection",
            Workload::EdgeFanin => "edge_fanin",
            Workload::DaemonLoop => "daemon_loop",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seeds the order and phase of the workload's inputs.
    pub seed: u64,
    /// Minimum wall seconds of measured rounds (whole rounds are run).
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// A few frames of each workload and one set-up: for the tests.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Served frames attempted in the measured rounds.
    pub attempted: u64,
    /// Served frames that failed.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones in a traced run.
    pub metrics: Vec<Metric>,
    /// Messages of the failed checks.
    pub failures: Vec<String>,
    /// Checks that passed.
    pub checks_passed: u64,
}

/// Runs one workload.
pub fn run(opts: &Options) -> Outcome {
    // One fork-join worker: with two cores a second worker competes with
    // the load generator and the daemon threads, and frame times spread
    // too far between runs to compare.
    erpd_par::set_max_threads(1);
    if !pin_to_one_cpu() {
        eprintln!("servebench: could not pin to one CPU; running unpinned");
    }
    if opts.trace {
        trace::install();
    }
    let mut checks = Checks::default();
    let report = match opts.workload {
        Workload::Intersection => intersection::run(opts, &mut checks),
        Workload::EdgeFanin => fanin::run(opts, &mut checks),
        Workload::DaemonLoop => daemon::run(opts, &mut checks),
    };
    let tracer = trace::take();
    let metrics = match (&tracer, opts.trace) {
        (Some(tracer), true) => {
            let path = std::path::Path::new(TRACE_DIR).join(format!(
                "{}-seed{}.jsonl",
                opts.workload.name(),
                opts.seed
            ));
            if let Err(e) = tracer.write_spans(&path) {
                eprintln!("servebench: could not write {}: {e}", path.display());
            }
            per_layer(tracer, &report)
        }
        _ => report.measured.end_to_end(),
    };
    for m in &metrics {
        checks.expect(m.value.is_finite(), || {
            format!("metric {} is not finite", m.name)
        });
    }
    Outcome {
        correct: checks.ok(),
        attempted: report.measured.frame_ms.len() as u64
            + report.traced.frame_ms.len() as u64
            + report.failed,
        failed: report.failed,
        metrics,
        failures: checks.failures().to_vec(),
        checks_passed: checks.passed(),
    }
}

/// What a workload hands back: its untraced measurement, the traced rounds'
/// measurement (empty unless tracing), and the one per-layer value only a
/// workload can compute.
#[derive(Debug, Default)]
pub struct Report {
    /// Untraced rounds (every round of an untraced run).
    pub measured: Served,
    /// Traced rounds of a traced run.
    pub traced: Served,
    /// Daemon frames served per client frame (`daemon_loop` only).
    pub frames_per_client_frame: f64,
    /// Frames whose serving returned an error. Such a frame ends the run.
    pub failed: u64,
}

impl Report {
    /// Counts a frame whose serving returned `error`.
    pub fn fail(&mut self, error: impl std::fmt::Display) {
        eprintln!("servebench: frame failed: {error}");
        self.failed += 1;
    }
}

/// End-to-end bookkeeping of served frames.
#[derive(Debug, Default)]
pub struct Served {
    /// Seconds of each set-up, start to first measured frame.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each served frame.
    pub frame_ms: Vec<f64>,
    /// Wall seconds of the measured loop's work (frames plus what the
    /// workload's loop does around them, e.g. `World::step`).
    pub loop_s: f64,
    /// Uploads served.
    pub uploads: u64,
    /// Uplink bytes of those uploads.
    pub upload_bytes: u64,
    /// Sum of `DisseminationPlan::total_relevance` over served frames.
    pub relevance: f64,
    /// Peak resident set, MB, read when the measured rounds ended (before
    /// any check that runs after them).
    pub peak_rss_mb: f64,
}

impl Served {
    /// Records one served frame.
    pub fn frame(
        &mut self,
        frame_ms: f64,
        loop_s: f64,
        uploads: u64,
        upload_bytes: u64,
        relevance: f64,
    ) {
        self.frame_ms.push(frame_ms);
        self.loop_s += loop_s;
        self.uploads += uploads;
        self.upload_bytes += upload_bytes;
        self.relevance += relevance;
    }

    /// The seven end-to-end metrics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let frames = self.frame_ms.len().max(1) as f64;
        let metric = |name, value, unit| Metric { name, value, unit };
        vec![
            metric("setup_s", nearest_rank(&self.setup_s, 0.5), "s"),
            metric("frame_ms_p50", nearest_rank(&self.frame_ms, 0.5), "ms"),
            metric("frame_ms_p90", nearest_rank(&self.frame_ms, 0.9), "ms"),
            metric("uploads_per_s", self.uploads as f64 / self.loop_s, "1/s"),
            metric(
                "upload_bytes_per_vehicle",
                self.upload_bytes as f64 / self.uploads.max(1) as f64,
                "bytes",
            ),
            metric(
                "plan_relevance_per_frame",
                self.relevance / frames,
                "relevance",
            ),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// Per-layer metrics: (name, unit, source). Times are medians over spans
/// (self times, except `daemon.serve_ms`, which is the whole replayed
/// serve); counts are means per sample; `trace.overhead_ms` is the traced
/// minus the untraced rounds' median frame time.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("sim.scan_ms", "ms", Source::SelfMs("sim.scan")),
    (
        "sim.lidar_points",
        "count",
        Source::Mean("sim.lidar_points"),
    ),
    ("sim.step_ms", "ms", Source::SelfMs("sim.step")),
    (
        "vehicle.extract_ms",
        "ms",
        Source::SelfMs("vehicle.extract"),
    ),
    (
        "vehicle.clustered_points",
        "count",
        Source::Mean("vehicle.clustered_points"),
    ),
    (
        "vehicle.upload_bytes",
        "bytes",
        Source::Mean("vehicle.upload_bytes"),
    ),
    ("wire.decode_us", "us", Source::SelfUs("wire.decode")),
    ("wire.encode_us", "us", Source::SelfUs("wire.encode")),
    ("wire.bytes", "bytes", Source::Mean("wire.bytes")),
    ("edge.merge_ms", "ms", Source::SelfMs("edge.merge")),
    ("edge.merge_hit_ratio", "ratio", Source::HitRatio),
    ("edge.map_voxels", "count", Source::Mean("edge.map_voxels")),
    ("edge.associate_ms", "ms", Source::SelfMs("edge.associate")),
    ("edge.clusters", "count", Source::Mean("edge.clusters")),
    ("edge.track_ms", "ms", Source::SelfMs("edge.track")),
    ("edge.tracks", "count", Source::Mean("edge.tracks")),
    ("edge.predict_ms", "ms", Source::SelfMs("edge.predict")),
    (
        "edge.trajectories",
        "count",
        Source::Mean("edge.trajectories"),
    ),
    ("edge.relevance_ms", "ms", Source::SelfMs("edge.relevance")),
    (
        "edge.relevance_pairs",
        "count",
        Source::Mean("edge.relevance_pairs"),
    ),
    (
        "edge.disseminate_ms",
        "ms",
        Source::SelfMs("edge.disseminate"),
    ),
    (
        "edge.assignments",
        "count",
        Source::Mean("edge.assignments"),
    ),
    (
        "edge.budget_fill",
        "ratio",
        Source::Mean("edge.budget_fill"),
    ),
    ("daemon.send_us", "us", Source::SelfUs("daemon.send")),
    ("daemon.wait_ms", "ms", Source::SelfMs("daemon.wait")),
    ("daemon.serve_ms", "ms", Source::TotalMs("daemon.serve")),
    (
        "daemon.frames_per_client_frame",
        "ratio",
        Source::FramesPerClientFrame,
    ),
    ("trace.overhead_ms", "ms", Source::Overhead),
];

#[derive(Debug, Clone, Copy)]
enum Source {
    SelfMs(&'static str),
    SelfUs(&'static str),
    TotalMs(&'static str),
    Mean(&'static str),
    HitRatio,
    Overhead,
    FramesPerClientFrame,
}

/// The per-layer metrics of a traced run. A layer that does not run on the
/// workload reports 0.
fn per_layer(tracer: &trace::Tracer, report: &Report) -> Vec<Metric> {
    let median = |xs: Vec<f64>| {
        if xs.is_empty() {
            0.0
        } else {
            nearest_rank(&xs, 0.5)
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, source)| {
            let value = match source {
                Source::SelfMs(span) => median(tracer.self_ms(span)),
                Source::SelfUs(span) => median(tracer.self_ms(span)) * 1e3,
                Source::TotalMs(span) => median(tracer.total_ms(span)),
                Source::Mean(samples) => tracer.mean(samples),
                Source::HitRatio => {
                    let hits: f64 = tracer.samples("edge.merge_hits").iter().sum();
                    let misses: f64 = tracer.samples("edge.merge_misses").iter().sum();
                    if hits + misses > 0.0 {
                        hits / (hits + misses)
                    } else {
                        0.0
                    }
                }
                Source::Overhead => {
                    nearest_rank(&report.traced.frame_ms, 0.5)
                        - nearest_rank(&report.measured.frame_ms, 0.5)
                }
                Source::FramesPerClientFrame => report.frames_per_client_frame,
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// Peak resident set (`VmHWM`) of this process, MB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pins the calling thread, and so every thread it spawns from now on, to
/// the last CPU it may run on (with `taskset`, before any thread starts).
///
/// On a two-vCPU virtual machine every hand-off between threads on
/// different vCPUs waits for the hypervisor to run the other vCPU; under
/// host load that took milliseconds, often enough that the daemon
/// workload's p90 doubled from one run to the next. On one CPU the
/// hand-offs are local context switches. The in-process workloads run one
/// thread anyway and only lose migrations.
pub fn pin_to_one_cpu() -> bool {
    let status = std::fs::read_to_string("/proc/self/status").ok();
    let cpu = status.as_deref().and_then(|s| {
        let list = s
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
        let last = list.trim().rsplit(',').next()?;
        last.rsplit('-').next().map(str::to_owned)
    });
    let tid = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|t| t.to_string_lossy().into_owned()));
    let (Some(cpu), Some(tid)) = (cpu, tid) else {
        return false;
    };
    std::process::Command::new("taskset")
        .args(["-c", "-p", &cpu, &tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Runs `setup` `n` times, dropping each result before the next set-up
/// starts, and returns the last result with every set-up's wall seconds.
pub fn repeat_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Decides how many whole rounds a run measures: at least `min`, then more
/// until `seconds` of wall time have passed since the first round began.
#[derive(Debug)]
pub struct Rounds {
    start: Instant,
    seconds: f64,
    done: usize,
    min: usize,
    max: usize,
}

impl Rounds {
    /// A schedule for `opts`: traced runs alternate traced and untraced
    /// rounds, so they measure at least two; smoke runs measure exactly the
    /// minimum.
    pub fn new(opts: &Options) -> Self {
        let min = if opts.trace { 2 } else { 1 };
        Rounds {
            start: Instant::now(),
            seconds: opts.seconds,
            done: 0,
            min,
            max: if opts.smoke { min } else { usize::MAX },
        }
    }

    /// The next round's index, or `None` when the run is over. In a traced
    /// run even rounds are traced and odd ones are not.
    pub fn next_round(&mut self) -> Option<usize> {
        let more = self.done < self.min || self.start.elapsed().as_secs_f64() < self.seconds;
        if self.done >= self.max || !more {
            return None;
        }
        self.done += 1;
        Some(self.done - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_reports_every_end_to_end_metric() {
        let mut s = Served {
            setup_s: vec![0.3, 0.1, 0.2],
            peak_rss_mb: 12.5,
            ..Served::default()
        };
        for k in 1..=10 {
            s.frame(k as f64, 0.01, 2, 100, 0.5);
        }
        let m = s.end_to_end();
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("frame_ms_p50"), 5.0);
        assert_eq!(get("frame_ms_p90"), 9.0);
        assert!((get("uploads_per_s") - 200.0).abs() < 1e-9);
        assert_eq!(get("upload_bytes_per_vehicle"), 50.0);
        assert_eq!(get("plan_relevance_per_frame"), 0.5);
        assert_eq!(get("peak_rss_mb"), 12.5);
        assert_eq!(m.len(), 7);
    }
}
