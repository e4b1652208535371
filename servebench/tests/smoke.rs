//! Smoke runs: every workload, untraced and traced, for a few frames, with
//! every check on.

use servebench::{run, Options, Workload};

fn smoke(workload: Workload, trace: bool) -> servebench::Outcome {
    let outcome = run(&Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        smoke: true,
    });
    assert!(
        outcome.correct,
        "{}: {:?}",
        workload.name(),
        outcome.failures
    );
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
    outcome
}

#[test]
fn every_workload_reports_the_end_to_end_metrics() {
    let names = [
        "setup_s",
        "frame_ms_p50",
        "frame_ms_p90",
        "uploads_per_s",
        "upload_bytes_per_vehicle",
        "plan_relevance_per_frame",
        "peak_rss_mb",
    ];
    for workload in Workload::ALL {
        let outcome = smoke(workload, false);
        let got: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        assert_eq!(got, names, "{}", workload.name());
        for m in &outcome.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_report_each_layer_where_it_runs() {
    // Layers every workload runs: the vehicle side (live or while its
    // corpus is recorded) and the six edge stages.
    let everywhere = [
        "sim.scan_ms",
        "sim.lidar_points",
        "vehicle.extract_ms",
        "vehicle.upload_bytes",
        "edge.merge_ms",
        "edge.map_voxels",
        "edge.associate_ms",
        "edge.track_ms",
        "edge.predict_ms",
        "edge.relevance_ms",
        "edge.disseminate_ms",
    ];
    let wire = ["wire.decode_us", "wire.encode_us", "wire.bytes"];
    let daemon = [
        "daemon.send_us",
        "daemon.wait_ms",
        "daemon.serve_ms",
        "daemon.frames_per_client_frame",
    ];
    for workload in Workload::ALL {
        let outcome = smoke(workload, true);
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        assert_eq!(outcome.metrics.len(), 28);
        for name in everywhere {
            assert!(value(name) > 0.0, "{}: {name}", workload.name());
        }
        let runs_wire = workload != Workload::Intersection;
        for name in wire {
            assert_eq!(value(name) > 0.0, runs_wire, "{}: {name}", workload.name());
        }
        for name in daemon {
            assert_eq!(
                value(name) > 0.0,
                workload == Workload::DaemonLoop,
                "{}: {name}",
                workload.name()
            );
        }
        assert!(
            value("daemon.frames_per_client_frame") == 0.0
                || value("daemon.frames_per_client_frame") >= 1.0
        );
    }
}
