//! Smoke tier: every workload runs briefly, untraced and traced, on the
//! real socket stack and passes its own correctness checks.

use e2ebench::{run, Config, Workload};
use std::time::Duration;

fn smoke(workload: Workload, trace: bool) {
    let cfg = Config {
        workload,
        seed: 5,
        run: Duration::from_millis(400),
        trace,
    };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(report.correct, "{}: {}", workload.name(), report.detail);
    assert_eq!(report.failed, 0);
    assert!(report.attempted >= 1);
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let expected: &[&str] = if trace {
        &e2ebench::report::PER_LAYER
    } else {
        &e2ebench::report::END_TO_END
    };
    assert_eq!(names, expected, "{}", workload.name());
    let json = report.to_json();
    assert!(json.starts_with("{\"correct\":true,"), "{json}");
}

#[test]
fn mpi_pingpong_runs() {
    smoke(Workload::MpiPingpong, false);
    smoke(Workload::MpiPingpong, true);
}

#[test]
fn mpi_bulk_runs() {
    smoke(Workload::MpiBulk, false);
    smoke(Workload::MpiBulk, true);
}

#[test]
fn relay_churn_runs() {
    smoke(Workload::RelayChurn, false);
    smoke(Workload::RelayChurn, true);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_nonzero() {
    for w in Workload::ALL {
        let cfg = Config {
            workload: w,
            seed: 9,
            // Long enough that every world of `mpi_bulk` reaches a
            // striped op even when its first plain send stalls.
            run: Duration::from_secs(2),
            trace: false,
        };
        let report = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        for m in &report.metrics {
            assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
        }
    }
}
