//! `mpi_pingpong` and `mpi_bulk`: a closed loop over one rank pair.
//! Rank 0 is inside, behind the firewall, and reaches out through the
//! Nexus Proxy; rank 1 is outside and talks directly. Rank 0 → rank 1
//! is an active relay (outer server only); rank 1 → rank 0 is a passive
//! relay (outer server, then inner server).

use crate::inputs::{size_in, STREAM_PROBE, STREAM_SIZE};
use crate::procfs::{self, Cpu};
use crate::stack::{check_denied, Stack, INSIDE, OUTSIDE};
use crate::trace::Recorder;
use crate::{delta, pretouched, Inputs, SegOpts, Segment};
use gridmpi::{run_world, Comm, RankSpec};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const PINGPONG_MAX: usize = 4096;
pub const BULK_PLAIN: usize = 1 << 20;
pub const BULK_STRIPED: usize = 8 << 20;
pub const STRIPES: u16 = 2;
/// The striped probe: transfers a workload without striped ops runs
/// after its timed loop, so `striped_MBps` is measured on every run.
pub const PROBE_BYTES: usize = 1 << 20;
pub const PROBE_OPS: u64 = 16;

const TAG_OP: i32 = 1;
const TAG_REPLY: i32 = 2;
const TAG_PROBE: i32 = 3;
const TAG_END: i32 = 4;
const TAG_WARM: i32 = 5;
const RECV_TIMEOUT: Duration = Duration::from_secs(20);
/// How often a traced run samples the process thread count.
pub const THREAD_SAMPLE: Duration = Duration::from_millis(10);
/// Op-pattern repeats per rate window of the timed loop. `ops_per_s`
/// is the median window rate: a window is short enough (~3 ms on
/// `mpi_pingpong`) that an occasional host stall holds back only the
/// windows it hits, and long enough (~0.6 s on `mpi_bulk`) that a stall
/// recurring every few ops is inside every window.
pub const RATE_WINDOW: u64 = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mpi {
    /// Seeded sizes 1 B..=4 KiB, echoed back.
    PingPong,
    /// 1 MiB plain sends alternating with 4 MiB sends striped over two
    /// lanes, each acknowledged with 8 bytes.
    Bulk,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    pub len: usize,
    pub striped: bool,
}

impl Mpi {
    pub fn op(self, seed: u64, i: u64) -> OpSpec {
        match self {
            Mpi::PingPong => OpSpec {
                len: size_in(seed, i, 1, PINGPONG_MAX),
                striped: false,
            },
            Mpi::Bulk if i.is_multiple_of(2) => OpSpec {
                len: BULK_PLAIN,
                striped: false,
            },
            Mpi::Bulk => OpSpec {
                len: BULK_STRIPED,
                striped: true,
            },
        }
    }

    /// Ops in one repeat of the op pattern; a rate window holds whole
    /// repeats, so every window of `mpi_bulk` has the same mix.
    fn period(self) -> u64 {
        match self {
            Mpi::PingPong => 1,
            Mpi::Bulk => 2,
        }
    }

    /// What rank 1 sends back for a verified op: the echo, or an ack.
    fn reply(self, i: u64, payload: &[u8]) -> Vec<u8> {
        match self {
            Mpi::PingPong => payload.to_vec(),
            Mpi::Bulk => i.to_le_bytes().to_vec(),
        }
    }
}

struct Plan {
    kind: Mpi,
    inputs: Arc<Inputs>,
    opts: SegOpts,
    base: Instant,
    stack: Arc<Stack>,
}

impl Plan {
    fn payload(&self, i: u64) -> (OpSpec, &[u8]) {
        let spec = self.kind.op(self.inputs.seed, i);
        let bytes = self
            .inputs
            .arena
            .slice(self.inputs.seed, STREAM_SIZE, i, spec.len);
        (spec, bytes)
    }

    fn probe(&self, j: u64) -> &[u8] {
        self.inputs
            .arena
            .slice(self.inputs.seed, STREAM_PROBE, j, PROBE_BYTES)
    }
}

#[derive(Clone)]
struct Op0 {
    t0: Instant,
    t3: Instant,
    spec: OpSpec,
}

#[derive(Default)]
struct Rank0 {
    setup_done: Option<Instant>,
    ops: Vec<Op0>,
    seg: Segment,
}

#[derive(Default)]
struct Rank1 {
    /// `(received, replying)` instants per op.
    legs: Vec<(Instant, Instant)>,
    errors: Vec<String>,
    spans: Vec<crate::trace::Span>,
    resends: u64,
    duplicates: u64,
}

enum Out {
    Zero(Box<Rank0>),
    One(Box<Rank1>),
}

fn recv(comm: &Comm, tag: Option<i32>) -> io::Result<(i32, Vec<u8>)> {
    let peer = 1 - comm.rank();
    match comm.recv_timeout(Some(peer), tag, RECV_TIMEOUT)? {
        Some((_, tag, payload)) => Ok((tag, payload)),
        None => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "no message from peer",
        )),
    }
}

/// One exchange each way, so both startpoints are attached (and both
/// relays are up) before anything is timed.
fn warm_up(comm: &Comm) -> io::Result<()> {
    let peer = 1 - comm.rank();
    if comm.rank() == 0 {
        comm.send(peer, TAG_WARM, &[0])?;
        recv(comm, Some(TAG_WARM)).map(drop)
    } else {
        recv(comm, Some(TAG_WARM))?;
        comm.send(peer, TAG_WARM, &[1])
    }
}

fn rank0(comm: &Comm, p: &Plan) -> Rank0 {
    let mut out = Rank0::default();
    let mut rec = Recorder::new(p.base, 0, p.opts.trace);
    if let Err(e) = warm_up(comm) {
        out.seg.errors.push(format!("warm-up: {e}"));
        let _ = comm.send(1, TAG_END, &[]);
        return out;
    }
    out.setup_done = Some(Instant::now());
    match check_denied(&p.stack, &mut rec) {
        Ok(n) => out.seg.denied = n,
        Err(e) => out.seg.errors.push(e),
    }

    let now = Instant::now();
    let spec0 = OpSpec {
        len: 0,
        striped: false,
    };
    let cap = p.opts.sample_cap();
    out.ops = pretouched(
        cap,
        Op0 {
            t0: now,
            t3: now,
            spec: spec0,
        },
    );

    let per_window = RATE_WINDOW * p.kind.period();
    out.seg.window_rates = pretouched(cap / per_window as usize + 64, 0.0);

    let before = p.stack.snapshot();
    let cpu0 = Cpu::now();
    let start = Instant::now();
    let mut sampled = start;
    let (mut window, mut window_ops) = (start, 0u64);
    let mut i = 0u64;
    while start.elapsed() < p.opts.run {
        let (spec, payload) = p.payload(i);
        let op = rec.enter("op", i);
        let t0 = Instant::now();
        let sent = if spec.striped {
            rec.span("gridmpi.send_striped", i, || {
                comm.send_striped(1, TAG_OP, payload, STRIPES)
            })
        } else {
            rec.span("gridmpi.send", i, || comm.send(1, TAG_OP, payload))
        };
        let reply = sent.and_then(|()| rec.span("gridmpi.recv", i, || recv(comm, Some(TAG_REPLY))));
        let t3 = Instant::now();
        rec.exit(op);
        out.seg.attempted += 1;
        match reply {
            Ok((_, r)) => {
                if r != p.kind.reply(i, payload) {
                    out.seg.failed += 1;
                }
                out.ops.push(Op0 { t0, t3, spec });
                window_ops += 1;
                if window_ops == per_window {
                    let held = (t3 - window).as_secs_f64();
                    out.seg.window_rates.push(per_window as f64 / held);
                    (window, window_ops) = (t3, 0);
                }
            }
            Err(e) => {
                out.seg.failed += 1;
                out.seg.errors.push(format!("op {i}: {e}"));
                break;
            }
        }
        i += 1;
        if p.opts.trace && sampled.elapsed() >= THREAD_SAMPLE {
            out.seg.peak_threads = out.seg.peak_threads.max(procfs::threads());
            sampled = Instant::now();
        }
    }
    out.seg.timed_s = start.elapsed().as_secs_f64();
    out.seg.cpu = Cpu::now().since(cpu0);
    out.seg.peak_rss_mb = procfs::peak_rss_mb();
    let after = p.stack.snapshot();
    out.seg.outer = delta(after.0, before.0);
    out.seg.inner = delta(after.1, before.1);

    if p.opts.probe && out.seg.errors.is_empty() {
        for j in 0..PROBE_OPS {
            let payload = p.probe(j);
            let t = Instant::now();
            out.seg.attempted += 1;
            let acked = comm
                .send_striped(1, TAG_PROBE, payload, STRIPES)
                .and_then(|()| recv(comm, Some(TAG_REPLY)));
            match acked {
                Ok((_, r)) if r == j.to_le_bytes() => {
                    out.seg.striped.add(payload.len(), t.elapsed())
                }
                Ok(_) => out.seg.failed += 1,
                Err(e) => {
                    out.seg.failed += 1;
                    out.seg.errors.push(format!("probe {j}: {e}"));
                    break;
                }
            }
        }
    }
    let _ = comm.send(1, TAG_END, &[]);
    out.seg.resends = comm.resends();
    out.seg.duplicates = comm.duplicates_dropped();
    out.seg.spans = rec.into_spans();
    out
}

fn rank1(comm: &Comm, p: &Plan) -> Rank1 {
    let mut out = Rank1::default();
    let mut rec = Recorder::new(p.base, 1, p.opts.trace);
    if let Err(e) = warm_up(comm) {
        out.errors.push(format!("warm-up: {e}"));
        return out;
    }
    let now = Instant::now();
    out.legs = pretouched(p.opts.sample_cap(), (now, now));
    let (mut i, mut j) = (0u64, 0u64);
    loop {
        let got = rec.span("gridmpi.recv", i, || recv(comm, None));
        let t1 = Instant::now();
        let (tag, payload) = match got {
            Ok(m) => m,
            Err(e) => {
                out.errors.push(format!("rank 1 recv: {e}"));
                break;
            }
        };
        // A payload that fails verification is answered with an empty
        // reply, which rank 0 counts as a failed op.
        let reply = match tag {
            TAG_OP => {
                let (_, expected) = p.payload(i);
                if payload == expected {
                    p.kind.reply(i, &payload)
                } else {
                    Vec::new()
                }
            }
            TAG_PROBE if payload == p.probe(j) => j.to_le_bytes().to_vec(),
            TAG_PROBE => Vec::new(),
            TAG_END => break,
            other => {
                out.errors.push(format!("rank 1: unexpected tag {other}"));
                break;
            }
        };
        let t2 = Instant::now();
        let sent = rec.span("gridmpi.send", i, || comm.send(0, TAG_REPLY, &reply));
        if let Err(e) = sent {
            out.errors.push(format!("rank 1 send: {e}"));
            break;
        }
        if tag == TAG_OP {
            out.legs.push((t1, t2));
            i += 1;
        } else {
            j += 1;
        }
    }
    out.resends = comm.resends();
    out.duplicates = comm.duplicates_dropped();
    out.spans = rec.into_spans();
    out
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn run_segment(kind: Mpi, inputs: &Arc<Inputs>, opts: SegOpts) -> Result<Segment, String> {
    let base = Instant::now();
    let stack = Arc::new(Stack::build(opts.path).map_err(|e| format!("stack: {e}"))?);
    let specs = vec![
        RankSpec::new(stack.context(INSIDE)),
        RankSpec::new(stack.context(OUTSIDE)),
    ];
    let plan = Arc::new(Plan {
        kind,
        inputs: inputs.clone(),
        opts,
        base,
        stack: stack.clone(),
    });
    let body_plan = plan.clone();
    let outs = run_world(specs, move |comm| {
        if comm.rank() == 0 {
            Out::Zero(Box::new(rank0(comm, &body_plan)))
        } else {
            Out::One(Box::new(rank1(comm, &body_plan)))
        }
    })
    .map_err(|e| format!("run_world: {e}"))?;
    drop(plan);

    let (mut r0, mut r1) = (None, None);
    for out in outs {
        match out {
            Out::Zero(r) => r0 = Some(r),
            Out::One(r) => r1 = Some(r),
        }
    }
    let (Some(r0), Some(r1)) = (r0, r1) else {
        return Err("run_world returned the wrong ranks".into());
    };
    let Rank0 {
        setup_done,
        ops,
        mut seg,
    } = *r0;
    seg.setup_s = setup_done.map_or(0.0, |t| (t - base).as_secs_f64());
    for (k, op) in ops.iter().enumerate() {
        let d = op.t3 - op.t0;
        seg.latencies_us.push(us(d));
        let moved = match kind {
            Mpi::PingPong => 2 * op.spec.len,
            Mpi::Bulk => op.spec.len + 8,
        };
        seg.payload_bytes += moved as u64;
        // Verified payload: both directions of an echo, one of a send.
        if op.spec.striped {
            seg.striped.add(op.spec.len, d);
        } else if kind == Mpi::PingPong {
            seg.plain.add(moved, d);
        } else {
            seg.plain.add(op.spec.len, d);
        }
        if let Some(&(t1, t2)) = r1.legs.get(k) {
            seg.active_us.push(us(t1.saturating_duration_since(op.t0)));
            seg.passive_us.push(us(op.t3.saturating_duration_since(t2)));
        }
    }
    seg.errors.extend(r1.errors);
    seg.resends += r1.resends;
    seg.duplicates += r1.duplicates;
    seg.spans = crate::trace::merge(vec![std::mem::take(&mut seg.spans), r1.spans]);
    seg.drained = stack.drain();
    Ok(seg)
}
