//! End-to-end benchmark of the real-socket WACS stack: `gridmpi` over
//! `nexus` over `nexus-proxy`, across a `firewall::vnet` with a deny-in
//! inside site. See `e2ebench/README.md` for the workloads, metrics and
//! what each should move.
//!
//! One run builds several worlds (a world is a fresh `VNet` plus its
//! daemons): an untraced run splits its time across several worlds and
//! reports medians across them; a traced run measures an untraced, a
//! traced and a direct-path world in turn.

pub mod churn;
pub mod inputs;
pub mod mpi;
pub mod procfs;
pub mod report;
pub mod stack;
pub mod stats;
pub mod trace;

use nexus_proxy::ProxySnapshot;
use stack::{Drained, Path};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MpiPingpong,
    MpiBulk,
    RelayChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MpiPingpong,
        Workload::MpiBulk,
        Workload::RelayChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MpiPingpong => "mpi_pingpong",
            Workload::MpiBulk => "mpi_bulk",
            Workload::RelayChurn => "relay_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worlds per untraced run. Each is set up, measured for its share
    /// of the run and torn down; per-world figures are reported as
    /// medians, so a world disturbed by the host does not move the
    /// result. `relay_churn` runs fewer, longer worlds so each holds
    /// enough ops (150 at 30 s) for a p90 tail.
    pub fn worlds(self) -> u32 {
        match self {
            Workload::RelayChurn => 5,
            Workload::MpiPingpong | Workload::MpiBulk => 10,
        }
    }

    /// A generous upper bound on ops per second (direct path included),
    /// to size sample buffers.
    fn max_rate(self) -> u32 {
        match self {
            Workload::MpiPingpong => 30_000,
            Workload::MpiBulk => 1_000,
            Workload::RelayChurn => churn::RATE_PER_S + 1,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time per run, split across its worlds.
    pub run: Duration,
    pub trace: bool,
}

/// How one world runs.
#[derive(Debug, Clone, Copy)]
pub struct SegOpts {
    pub path: Path,
    /// Timed-loop length; zero builds the world, checks it and tears
    /// it down.
    pub run: Duration,
    pub trace: bool,
    /// Run the striped probe after the timed loop (workloads whose own
    /// ops do not stripe).
    pub probe: bool,
    /// Expected peak op rate, to size sample buffers before timing.
    pub max_rate: u32,
}

/// Verified payload moved by one kind of transfer: per-op rates and
/// totals.
#[derive(Debug, Clone, Default)]
pub struct Flow {
    pub bytes: u64,
    /// Per-op rate in MB (10^6 bytes) per second.
    pub rates: Vec<f64>,
}

impl Flow {
    pub fn add(&mut self, bytes: usize, d: Duration) {
        self.bytes += bytes as u64;
        let secs = d.as_secs_f64();
        if secs > 0.0 {
            self.rates.push(bytes as f64 / secs / 1e6);
        }
    }

    /// Median per-op rate: steady against the rare stalled op, which
    /// `p99_us` reports instead.
    pub fn mbps(&self) -> f64 {
        stats::median(&self.rates).unwrap_or(0.0)
    }
}

/// Everything one world measured.
#[derive(Debug, Default)]
pub struct Segment {
    pub setup_s: f64,
    /// Per-op latency of the timed loop.
    pub latencies_us: Vec<f64>,
    pub timed_s: f64,
    /// Closed loops: ops per second in each rate window of the timed
    /// loop (`mpi::RATE_WINDOW`).
    pub window_rates: Vec<f64>,
    pub cpu: procfs::Cpu,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub active_us: Vec<f64>,
    pub passive_us: Vec<f64>,
    pub plain: Flow,
    pub striped: Flow,
    /// Application payload bytes that crossed relays in the timed loop.
    pub payload_bytes: u64,
    /// Open loop only: how late each op started.
    pub late_us: Vec<f64>,
    pub spans: Vec<trace::Span>,
    /// Daemon counter deltas over the timed loop.
    pub outer: ProxySnapshot,
    pub inner: ProxySnapshot,
    pub drained: Drained,
    pub denied: u64,
    pub resends: u64,
    pub duplicates: u64,
    pub peak_threads: u64,
    /// `VmHWM` at the end of the timed loop.
    pub peak_rss_mb: f64,
}

/// A vector of `cap` elements' worth of touched memory, emptied: pushes
/// up to `cap` neither reallocate nor fault in pages, so peak RSS does
/// not depend on how many ops a run completes.
pub fn pretouched<T: Clone>(cap: usize, fill: T) -> Vec<T> {
    let mut v = vec![fill; cap];
    v.clear();
    v
}

impl SegOpts {
    /// Sample capacity for this world's timed loop.
    pub fn sample_cap(&self) -> usize {
        (self.run.as_secs_f64() * f64::from(self.max_rate)) as usize + 64
    }
}

impl Segment {
    /// Ops completed in the timed loop.
    pub fn ops(&self) -> usize {
        self.latencies_us.len()
    }

    /// Median rate over the rate windows; the open loop, which has
    /// none, runs at its offered rate, so there it is ops / timed time.
    pub fn ops_per_s(&self) -> f64 {
        match stats::median(&self.window_rates) {
            Some(r) => r,
            None if self.timed_s > 0.0 => self.ops() as f64 / self.timed_s,
            None => 0.0,
        }
    }
}

/// Field-wise `after - before` of two counter snapshots.
pub fn delta(after: ProxySnapshot, before: ProxySnapshot) -> ProxySnapshot {
    ProxySnapshot {
        relayed_bytes: after.relayed_bytes - before.relayed_bytes,
        control_accepts: after.control_accepts - before.control_accepts,
        connects_ok: after.connects_ok - before.connects_ok,
        connects_failed: after.connects_failed - before.connects_failed,
        binds: after.binds - before.binds,
        relays_ok: after.relays_ok - before.relays_ok,
        relays_failed: after.relays_failed - before.relays_failed,
        busy_rejected: after.busy_rejected - before.busy_rejected,
        idle_reaped: after.idle_reaped - before.idle_reaped,
        inner_deaths: after.inner_deaths - before.inner_deaths,
        inner_reconnects: after.inner_reconnects - before.inner_reconnects,
        relays_unauthorized: after.relays_unauthorized - before.relays_unauthorized,
        pump_clone_failures: after.pump_clone_failures - before.pump_clone_failures,
        pool_hits: after.pool_hits - before.pool_hits,
        pool_misses: after.pool_misses - before.pool_misses,
        pump_segments: after.pump_segments - before.pump_segments,
        pump_coalesced_writes: after.pump_coalesced_writes - before.pump_coalesced_writes,
    }
}

/// Seeded inputs shared by every world of a run.
pub struct Inputs {
    pub seed: u64,
    pub arena: inputs::Arena,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let len = match workload {
            Workload::MpiPingpong | Workload::RelayChurn => 2 * mpi::PROBE_BYTES,
            Workload::MpiBulk => mpi::BULK_STRIPED + mpi::BULK_PLAIN,
        };
        Inputs {
            seed,
            arena: inputs::Arena::new(seed, len),
        }
    }
}

/// Build, run and check one world of `workload`.
pub fn run_segment(
    workload: Workload,
    inputs: &Arc<Inputs>,
    opts: SegOpts,
) -> Result<Segment, String> {
    let mut seg = match workload {
        Workload::MpiPingpong => mpi::run_segment(mpi::Mpi::PingPong, inputs, opts),
        Workload::MpiBulk => mpi::run_segment(mpi::Mpi::Bulk, inputs, opts),
        Workload::RelayChurn => churn::run_segment(inputs, opts),
    }?;
    if !seg.drained.is_clean() {
        seg.errors.push(format!(
            "relays did not drain: {} active, {} admission slots held",
            seg.drained.active_relays, seg.drained.admission_active
        ));
    }
    if opts.path == Path::Proxied && seg.denied != 1 {
        seg.errors
            .push(format!("expected 1 denied direct dial, saw {}", seg.denied));
    }
    Ok(seg)
}

/// One benchmark run: the report whose metrics are the end-to-end set
/// (untraced) or the per-layer set (traced).
pub fn run(cfg: &Config) -> Result<report::Report, String> {
    let tw_start = procfs::tcp_time_wait();
    let inputs = Arc::new(Inputs::new(cfg.workload, cfg.seed));
    let world = |path, run, trace, probe| {
        run_segment(
            cfg.workload,
            &inputs,
            SegOpts {
                path,
                run,
                trace,
                probe,
                max_rate: cfg.workload.max_rate(),
            },
        )
    };
    let report = if cfg.trace {
        // Untraced, traced and direct worlds share the run 2:2:1.
        let fifth = cfg.run / 5;
        let untraced = world(Path::Proxied, fifth * 2, false, false)?;
        let traced = world(Path::Proxied, fifth * 2, true, false)?;
        let direct = world(Path::Direct, fifth, false, false)?;
        report::Report::per_layer(cfg, &untraced, &traced, &direct, tw_start)
    } else {
        let probe = cfg.workload != Workload::MpiBulk;
        let n = cfg.workload.worlds();
        let worlds = (0..n)
            .map(|_| world(Path::Proxied, cfg.run / n, false, probe))
            .collect::<Result<Vec<_>, _>>()?;
        report::Report::end_to_end(cfg, &worlds, tw_start)
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_per_s_is_the_median_window_rate_or_the_whole_loop_rate() {
        let mut seg = Segment {
            latencies_us: vec![1.0; 50],
            timed_s: 2.0,
            ..Segment::default()
        };
        assert_eq!(seg.ops_per_s(), 25.0);
        // One stalled window out of three does not move the median.
        seg.window_rates = vec![10_000.0, 500.0, 12_000.0];
        assert_eq!(seg.ops_per_s(), 10_000.0);
        assert_eq!(Segment::default().ops_per_s(), 0.0);
    }
}
