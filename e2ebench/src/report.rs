//! The result line: end-to-end metrics from an untraced run, per-layer
//! metrics from a traced one, and a detail line on stderr with sample
//! counts and host state.

use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::{durations_us, root_self_times_us};
use crate::{procfs, Config, Segment};
use nexus_proxy::ProxySnapshot;
use std::fmt::Write;

/// End-to-end metric names, in report order (untraced runs).
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "ops_per_s",
    "p50_us",
    "p99_us",
    "cpu_us_per_op",
    "peak_rss_MB",
    "plain_MBps",
    "striped_MBps",
    "active_p50_us",
    "passive_p50_us",
];

/// Per-layer metric names, in report order (traced runs).
pub const PER_LAYER: [&str; 33] = [
    "gridmpi.send_us",
    "gridmpi.recv_wait_us",
    "gridmpi.send_striped_us",
    "gridmpi.resends",
    "gridmpi.duplicates_dropped",
    "nexus_proxy.connect_us",
    "nexus_proxy.bind_us",
    "nexus_proxy.accept_wait_us",
    "vnet.dial_us",
    "vnet.denied",
    "outer.control_accepts_per_op",
    "outer.connects_per_op",
    "outer.binds_per_op",
    "relay.bytes_per_payload_byte",
    "pump.bytes_per_segment",
    "pump.coalesced_ratio",
    "pool.hit_ratio",
    "outer.busy_rejected",
    "outer.relays_failed",
    "outer.connects_failed",
    "inner.relays_unauthorized",
    "outer.active_relays_end",
    "outer.admission_active_end",
    "proc.cpu_user_us_per_op",
    "proc.cpu_sys_us_per_op",
    "proc.peak_threads",
    "env.tcp_tw_start",
    "env.tcp_tw_end",
    "gen.late_p99_us",
    "relay.share_p50",
    "trace.overhead_p50_us",
    "trace.overhead_cpu_us_per_op",
    "bench.op_self_us",
];

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Sample counts, percentiles used, host state, errors.
    pub detail: String,
    /// Spans of the traced world (empty when untraced).
    pub spans: Vec<crate::trace::Span>,
}

/// Median of `v`, zero when empty.
fn p50(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// The tail percentile of `v` by the ten-beyond rule, and which one.
fn tail(v: &[f64]) -> (f64, f64) {
    let p = tail_percentile(v.len());
    (percentile(&sorted(v.to_vec()), p).unwrap_or(0.0), p)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Correctness over every world of a run.
fn tally(segs: &[&Segment]) -> (bool, u64, u64, Vec<String>) {
    let attempted = segs.iter().map(|s| s.attempted).sum();
    let failed = segs.iter().map(|s| s.failed).sum();
    let errors: Vec<String> = segs.iter().flat_map(|s| s.errors.clone()).collect();
    (failed == 0 && errors.is_empty(), attempted, failed, errors)
}

impl Report {
    fn finish(
        cfg: &Config,
        segs: &[&Segment],
        metrics: Vec<Metric>,
        mut detail: String,
        tw_start: u64,
    ) -> Report {
        let (mut correct, attempted, failed, errors) = tally(segs);
        if metrics.iter().any(|m| !m.value.is_finite()) {
            correct = false;
        }
        let errs: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
        let _ = write!(
            detail,
            ",\"workload\":{},\"seed\":{},\"nproc\":{},\"tcp_tw_start\":{},\"tcp_tw_end\":{},\"errors\":[{}]}}",
            json_str(cfg.workload.name()),
            cfg.seed,
            std::thread::available_parallelism().map_or(0, usize::from),
            tw_start,
            procfs::tcp_time_wait(),
            errs.join(",")
        );
        Report {
            correct,
            attempted: attempted.max(1),
            failed,
            metrics,
            detail,
            spans: Vec::new(),
        }
    }

    /// Medians across the run's worlds of each world's figure, except
    /// `cpu_us_per_op` (summed over worlds) and `peak_rss_MB` (the first
    /// world's high-water mark, taken before later worlds' results are
    /// held in memory). A world's tail is the
    /// highest percentile up to p99 with ten samples beyond it.
    pub fn end_to_end(cfg: &Config, worlds: &[Segment], tw_start: u64) -> Report {
        // A world with no samples of a kind (a short world of `mpi_bulk`
        // may hold no striped op) reads 0 and is left out.
        let across = |f: &dyn Fn(&Segment) -> f64| {
            p50(&worlds
                .iter()
                .map(f)
                .filter(|&v| v > 0.0)
                .collect::<Vec<_>>())
        };
        let tail_pct = worlds
            .iter()
            .map(|w| tail_percentile(w.ops()))
            .fold(100.0, f64::min);
        let metric = |name, value, unit| Metric { name, value, unit };
        let metrics = vec![
            metric("setup_s", across(&|w| w.setup_s), "s"),
            metric("ops_per_s", across(&|w| w.ops_per_s()), "1/s"),
            metric("p50_us", across(&|w| p50(&w.latencies_us)), "us"),
            metric("p99_us", across(&|w| tail(&w.latencies_us).0), "us"),
            // Summed over worlds: CPU time comes in 10 ms ticks, too
            // coarse for one world of a low-rate workload.
            metric(
                "cpu_us_per_op",
                ratio(
                    worlds.iter().map(|w| w.cpu.total_us() as f64).sum(),
                    worlds.iter().map(|w| w.ops() as f64).sum(),
                ),
                "us",
            ),
            metric(
                "peak_rss_MB",
                worlds.first().map_or(0.0, |w| w.peak_rss_mb),
                "MB",
            ),
            metric("plain_MBps", across(&|w| w.plain.mbps()), "MB/s"),
            metric("striped_MBps", across(&|w| w.striped.mbps()), "MB/s"),
            metric("active_p50_us", across(&|w| p50(&w.active_us)), "us"),
            metric("passive_p50_us", across(&|w| p50(&w.passive_us)), "us"),
        ];
        let count = |f: &dyn Fn(&Segment) -> usize| worlds.iter().map(f).sum::<usize>();
        let per_world: Vec<String> = worlds
            .iter()
            .map(|w| {
                let lat = &w.latencies_us;
                format!("[{:.1},{:.1},{:.1}]", w.ops_per_s(), p50(lat), tail(lat).0)
            })
            .collect();
        let detail = format!(
            "{{\"worlds\":{},\"world_ops_per_s_p50_us_p99_us\":[{}],\"samples\":{{\"latency\":{},\"plain\":{},\"striped\":{},\"active\":{},\"passive\":{}}},\"p99_us_percentile\":{}",
            worlds.len(),
            per_world.join(","),
            count(&|w| w.ops()),
            count(&|w| w.plain.rates.len()),
            count(&|w| w.striped.rates.len()),
            count(&|w| w.active_us.len()),
            count(&|w| w.passive_us.len()),
            tail_pct
        );
        let all: Vec<&Segment> = worlds.iter().collect();
        Report::finish(cfg, &all, metrics, detail, tw_start)
    }

    /// Per-layer metrics of the traced world `t`, with the untraced
    /// world `u` for tracing overhead and the direct world `d` for the
    /// relay's share of latency.
    pub fn per_layer(cfg: &Config, u: &Segment, t: &Segment, d: &Segment, tw_start: u64) -> Report {
        let ops = t.ops() as f64;
        let spans = &t.spans;
        let span_p50 = |name, thread| p50(&durations_us(spans, name, thread));
        let (o, i): (&ProxySnapshot, &ProxySnapshot) = (&t.outer, &t.inner);
        let segments = (o.pump_segments + i.pump_segments) as f64;
        let relayed = (o.relayed_bytes + i.relayed_bytes) as f64;
        let pool = (o.pool_hits + i.pool_hits + o.pool_misses + i.pool_misses) as f64;
        let metric = |name, value, unit| Metric { name, value, unit };
        let metrics = vec![
            metric("gridmpi.send_us", span_p50("gridmpi.send", None), "us"),
            metric(
                "gridmpi.recv_wait_us",
                span_p50("gridmpi.recv", Some(0)),
                "us",
            ),
            metric(
                "gridmpi.send_striped_us",
                span_p50("gridmpi.send_striped", None),
                "us",
            ),
            metric("gridmpi.resends", t.resends as f64, "count"),
            metric("gridmpi.duplicates_dropped", t.duplicates as f64, "count"),
            metric(
                "nexus_proxy.connect_us",
                span_p50("nexus_proxy.connect", None),
                "us",
            ),
            metric(
                "nexus_proxy.bind_us",
                span_p50("nexus_proxy.bind", None),
                "us",
            ),
            metric(
                "nexus_proxy.accept_wait_us",
                span_p50("nexus_proxy.accept_wait", None),
                "us",
            ),
            metric("vnet.dial_us", span_p50("vnet.dial", None), "us"),
            metric("vnet.denied", t.denied as f64, "count"),
            metric(
                "outer.control_accepts_per_op",
                ratio(o.control_accepts as f64, ops),
                "1/op",
            ),
            metric(
                "outer.connects_per_op",
                ratio(o.connects_ok as f64, ops),
                "1/op",
            ),
            metric("outer.binds_per_op", ratio(o.binds as f64, ops), "1/op"),
            metric(
                "relay.bytes_per_payload_byte",
                ratio(relayed, t.payload_bytes as f64),
                "ratio",
            ),
            metric("pump.bytes_per_segment", ratio(relayed, segments), "B"),
            metric(
                "pump.coalesced_ratio",
                ratio(
                    (o.pump_coalesced_writes + i.pump_coalesced_writes) as f64,
                    segments,
                ),
                "ratio",
            ),
            metric(
                "pool.hit_ratio",
                ratio((o.pool_hits + i.pool_hits) as f64, pool),
                "ratio",
            ),
            metric("outer.busy_rejected", o.busy_rejected as f64, "count"),
            metric("outer.relays_failed", o.relays_failed as f64, "count"),
            metric("outer.connects_failed", o.connects_failed as f64, "count"),
            metric(
                "inner.relays_unauthorized",
                i.relays_unauthorized as f64,
                "count",
            ),
            metric(
                "outer.active_relays_end",
                t.drained.active_relays as f64,
                "count",
            ),
            metric(
                "outer.admission_active_end",
                t.drained.admission_active as f64,
                "count",
            ),
            metric(
                "proc.cpu_user_us_per_op",
                ratio(t.cpu.user_us as f64, ops),
                "us",
            ),
            metric(
                "proc.cpu_sys_us_per_op",
                ratio(t.cpu.sys_us as f64, ops),
                "us",
            ),
            metric("proc.peak_threads", t.peak_threads as f64, "count"),
            metric("env.tcp_tw_start", tw_start as f64, "count"),
            metric("env.tcp_tw_end", procfs::tcp_time_wait() as f64, "count"),
            metric("gen.late_p99_us", tail(&t.late_us).0, "us"),
            metric(
                "relay.share_p50",
                1.0 - ratio(p50(&d.latencies_us), p50(&u.latencies_us)),
                "ratio",
            ),
            metric(
                "trace.overhead_p50_us",
                p50(&t.latencies_us) - p50(&u.latencies_us),
                "us",
            ),
            metric(
                "trace.overhead_cpu_us_per_op",
                ratio(t.cpu.total_us() as f64, ops)
                    - ratio(u.cpu.total_us() as f64, u.ops() as f64),
                "us",
            ),
            metric(
                "bench.op_self_us",
                p50(&root_self_times_us(spans, "op")),
                "us",
            ),
        ];
        let detail = format!(
            "{{\"ops_untraced\":{},\"ops_traced\":{},\"ops_direct\":{},\"spans\":{}",
            u.ops(),
            t.ops(),
            d.ops(),
            spans.len()
        );
        let mut report = Report::finish(cfg, &[u, t, d], metrics, detail, tw_start);
        report.spans = t.spans.clone();
        report
    }

    /// The result line the benchmark prints last on stdout.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(m.name),
                    v,
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "p50_us",
                value: 12.5,
                unit: "us",
            }],
            detail: String::new(),
            spans: Vec::new(),
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"p50_us\":{\"value\":12.5,\"unit\":\"us\"}}}"
        );
    }

    /// `BENCHMARK.json` at the repo root names exactly these metrics.
    #[test]
    fn benchmark_json_names_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let names = END_TO_END.iter().chain(PER_LAYER.iter());
        for name in names.clone() {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        assert_eq!(text.matches("\"unit\"").count(), names.count());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
