//! The traced mode: an in-memory span recorder, timing wrappers for the
//! six edge stages, and the per-layer summary.
//!
//! Spans are taken with the benchmark's own monotonic clock around public
//! calls. Nothing here reads the program's `StageSample`s, which hold the
//! program's own (partly scaled) timings; work counts are read from the
//! stage artifacts. A layer's time is its **self time**: the span's
//! duration minus the durations of the spans opened inside it.
//!
//! The recorder is thread-local and off unless [`install`]ed; every span
//! the workloads take is on the thread that drives them (the fork-join
//! pool is pinned to one worker).

use erpd_core::{DisseminationPlan, Error};
use erpd_edge::{
    AssociateStage, AssociatedDetections, FrameCx, GreedyDissemination, MergeStage,
    PipelineBuilder, PredictStage, Predictions, RelevanceStage, ServerConfig, ServerFrame,
    ServingCore, Stage, Staged, TrackStage, Tracks, TrafficMap,
};
use erpd_sim::IntersectionMap;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    depth: usize,
    start_ns: u64,
    dur_ns: u64,
    child_ns: u64,
}

/// The recorder: closed spans in opening order, the stack of open ones, and
/// per-name work-count samples.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs a fresh, enabled recorder on this thread.
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        })
    });
}

/// Removes and returns this thread's recorder.
pub fn take() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Pauses or resumes recording (untraced rounds of a traced run).
pub fn set_enabled(on: bool) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.enabled = on;
        }
    });
}

/// True when a recorder is installed and recording.
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().as_ref().is_some_and(|tr| tr.enabled))
}

/// An open span; closing happens on drop.
#[derive(Debug)]
pub struct SpanGuard {
    index: Option<usize>,
}

/// Opens a span named `name` (a no-op unless recording).
pub fn span(name: &'static str) -> SpanGuard {
    let index = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let tr = t.as_mut().filter(|tr| tr.enabled)?;
        let index = tr.spans.len();
        tr.spans.push(Span {
            name,
            depth: tr.open.len(),
            start_ns: tr.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            child_ns: 0,
        });
        tr.open.push(index);
        Some(index)
    });
    SpanGuard { index }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let Some(tr) = t.as_mut() else { return };
            let now = tr.epoch.elapsed().as_nanos() as u64;
            let dur = now - tr.spans[index].start_ns;
            tr.spans[index].dur_ns = dur;
            tr.open.pop();
            if let Some(&parent) = tr.open.last() {
                tr.spans[parent].child_ns += dur;
            }
        });
    }
}

/// Records one work-count sample under `name` (a no-op unless recording).
pub fn count(name: &'static str, value: f64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut().filter(|tr| tr.enabled) {
            tr.counts.entry(name).or_default().push(value);
        }
    });
}

impl Tracer {
    /// Self times, in milliseconds, of every span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.dur_ns - s.child_ns) as f64 / 1e6)
            .collect()
    }

    /// Whole durations, in milliseconds, of every span named `name`.
    pub fn total_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Every sample recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Mean of the samples recorded under `name` (0 when there are none).
    pub fn mean(&self, name: &str) -> f64 {
        let xs = self.samples(name);
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// Writes every span as one JSON object per line: name, nesting depth,
    /// start and duration in microseconds, and self time.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"depth\":{},\"start_us\":{:.3},\"dur_us\":{:.3},\"self_us\":{:.3}}}",
                s.name,
                s.depth,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                (s.dur_ns - s.child_ns) as f64 / 1e3
            )?;
        }
        out.flush()
    }
}

/// Work counts a stage artifact contributes to the per-layer report.
pub trait LayerCounts {
    /// Records this artifact's counts with [`count`].
    fn record(&self);
}

impl LayerCounts for TrafficMap {
    fn record(&self) {
        count("edge.map_voxels", self.map_points as f64);
        count("edge.merge_hits", self.merge_cache_hits as f64);
        count("edge.merge_misses", self.merge_cache_misses as f64);
    }
}

impl LayerCounts for AssociatedDetections {
    fn record(&self) {
        count("edge.clusters", self.clusters.len() as f64);
    }
}

impl LayerCounts for Tracks {
    fn record(&self) {
        count("edge.tracks", self.detections.len() as f64);
    }
}

impl LayerCounts for Predictions {
    fn record(&self) {
        count("edge.trajectories", self.predicted_trajectories as f64);
    }
}

impl LayerCounts for ServerFrame {
    fn record(&self) {
        count("edge.relevance_pairs", self.matrix.len() as f64);
    }
}

impl LayerCounts for DisseminationPlan {
    fn record(&self) {
        count("edge.assignments", self.assignments.len() as f64);
    }
}

/// Wraps a stage in a span named after its layer and records the counts of
/// what it produced. Delegates everything else to the wrapped stage.
#[derive(Debug)]
pub struct Timed<S> {
    inner: S,
    span: &'static str,
}

impl<In, Out: LayerCounts, S: Stage<In, Out>> Stage<In, Out> for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&mut self, cx: &FrameCx<'_>, input: In) -> Result<Staged<Out>, Error> {
        let guard = span(self.span);
        let out = self.inner.run(cx, input)?;
        drop(guard);
        if enabled() {
            out.artifact.record();
        }
        Ok(out)
    }

    fn export_handover(&mut self, handover: &mut erpd_core::VehicleHandover) {
        self.inner.export_handover(handover);
    }

    fn import_handover(&mut self, handover: &erpd_core::VehicleHandover) {
        self.inner.import_handover(handover);
    }
}

fn timed<S>(inner: S, span: &'static str) -> Box<Timed<S>> {
    Box::new(Timed { inner, span })
}

/// A serving core for `Strategy::Ours`: the paper's six stages, each
/// wrapped in a [`Timed`] span when `traced`, otherwise the plain default
/// stages.
pub fn serving_core(config: ServerConfig, map: IntersectionMap, traced: bool) -> ServingCore {
    let builder = PipelineBuilder::new(config, map);
    let (server, disseminate) = if traced {
        let map = Arc::clone(builder.map());
        builder
            .with_merge_stage(timed(MergeStage::new(&config), "edge.merge"))
            .with_association_stage(timed(AssociateStage::new(&config), "edge.associate"))
            .with_tracking_stage(timed(
                TrackStage::new(&config, Arc::clone(&map)),
                "edge.track",
            ))
            .with_prediction_stage(timed(PredictStage::new(&config, map), "edge.predict"))
            .with_relevance_stage(timed(RelevanceStage::new(&config), "edge.relevance"))
            .with_dissemination_stage(timed(GreedyDissemination, "edge.disseminate"))
            .build()
    } else {
        builder.build()
    };
    ServingCore::new(server, disseminate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        install();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
        set_enabled(false);
        drop(span("ignored"));
        count("ignored", 1.0);
        set_enabled(true);
        count("items", 2.0);
        count("items", 4.0);
        let tr = take().expect("installed");
        let outer = tr.self_ms("outer");
        let inner = tr.self_ms("inner");
        assert_eq!((outer.len(), inner.len()), (1, 1));
        // The outer span lasted over 22 ms; its self time leaves the
        // inner 20 ms out.
        assert!(
            inner[0] >= 20.0 && outer[0] >= 2.0 && outer[0] < 20.0,
            "{outer:?} {inner:?}"
        );
        assert!(tr.self_ms("ignored").is_empty() && tr.samples("ignored").is_empty());
        assert_eq!(tr.mean("items"), 3.0);
        assert!(!enabled());
    }
}
