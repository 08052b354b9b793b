//! `relay_churn`: an open loop at a fixed rate. Each op opens an active
//! relay (`nx_proxy_connect` to an outside echo sink) and a passive one
//! (`nx_proxy_bind`, an outside peer dials the rendezvous, the inside
//! client takes it with `NxListener::accept`), echoes 64 B over each and
//! closes both. Latency runs from the op's due time.

use crate::inputs::{STREAM_ECHO_ACTIVE, STREAM_ECHO_PASSIVE, STREAM_PROBE};
use crate::mpi::{PROBE_OPS, STRIPES, THREAD_SAMPLE};
use crate::procfs::{self, Cpu};
use crate::stack::{check_denied, Stack, INSIDE, OUTSIDE, PEER};
use crate::trace::Recorder;
use crate::{delta, Inputs, SegOpts, Segment};
use firewall::VListener;
use nexus_proxy::{nx_proxy_bind, nx_proxy_connect, StripePlan, StripeReceiver};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Ops per second. Modest on purpose: each op leaves six connections
/// in TIME_WAIT for 60 s, so 25 ops/s holds about 9k.
pub const RATE_PER_S: u32 = 25;
pub const ECHO_BYTES: usize = 64;
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Striped probe over relays. The client receives the lanes only after
/// sending, so each lane must fit in the socket buffers on its path.
pub const PROBE_BYTES: usize = 128 << 10;

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Echo sink: read one message, send it back, close.
fn sink_loop(listener: VListener, stop: Arc<AtomicBool>, errors: Arc<AtomicU64>) {
    loop {
        let Ok((s, _)) = listener.accept() else {
            errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let mut buf = [0u8; ECHO_BYTES];
        let echoed = s
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| (&s).read_exact(&mut buf))
            .and_then(|()| (&s).write_all(&buf));
        if echoed.is_err() {
            errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Write `msg` on `out`, have `echo` (when given) bounce it, read it
/// back on `out`, and compare.
fn echo_check(out: &TcpStream, echo: Option<&TcpStream>, msg: &[u8]) -> io::Result<bool> {
    out.set_read_timeout(Some(IO_TIMEOUT))?;
    (&*out).write_all(msg)?;
    if let Some(e) = echo {
        e.set_read_timeout(Some(IO_TIMEOUT))?;
        let mut buf = vec![0u8; msg.len()];
        (&*e).read_exact(&mut buf)?;
        (&*e).write_all(&buf)?;
    }
    let mut back = vec![0u8; msg.len()];
    (&*out).read_exact(&mut back)?;
    Ok(back == msg)
}

struct OpTimes {
    active: Duration,
    passive: Duration,
    ok: bool,
}

fn one_op(
    stack: &Stack,
    rec: &mut Recorder,
    inputs: &Inputs,
    sink_port: u16,
    k: u64,
) -> Result<OpTimes, String> {
    let (net, env) = (&stack.net, &stack.env);
    let a0 = Instant::now();
    let half = rec.enter("active", k);
    let s = rec
        .span("nexus_proxy.connect", k, || {
            nx_proxy_connect(net, env, INSIDE, (OUTSIDE, sink_port))
        })
        .map_err(io_err("nx_proxy_connect"))?;
    s.set_nodelay(true).map_err(io_err("set_nodelay"))?;
    let msg = inputs
        .arena
        .slice(inputs.seed, STREAM_ECHO_ACTIVE, k, ECHO_BYTES);
    let ok_a = rec
        .span("echo.active", k, || echo_check(&s, None, msg))
        .map_err(io_err("active echo"))?;
    drop(s);
    rec.exit(half);
    let a1 = Instant::now();

    let half = rec.enter("passive", k);
    let listener = rec
        .span("nexus_proxy.bind", k, || nx_proxy_bind(net, env, INSIDE))
        .map_err(io_err("nx_proxy_bind"))?;
    let (host, port) = listener.advertised.clone();
    let peer = rec
        .span("vnet.dial", k, || net.dial(PEER, &host, port))
        .map_err(io_err("rendezvous dial"))?;
    let client = rec
        .span("nexus_proxy.accept_wait", k, || listener.accept())
        .map_err(io_err("NxListener::accept"))?;
    peer.set_nodelay(true).map_err(io_err("set_nodelay"))?;
    client.set_nodelay(true).map_err(io_err("set_nodelay"))?;
    let msg = inputs
        .arena
        .slice(inputs.seed, STREAM_ECHO_PASSIVE, k, ECHO_BYTES);
    let ok_p = rec
        .span("echo.passive", k, || echo_check(&peer, Some(&client), msg))
        .map_err(io_err("passive echo"))?;
    drop((peer, client, listener));
    rec.exit(half);
    Ok(OpTimes {
        active: a1 - a0,
        passive: a1.elapsed(),
        ok: ok_a && ok_p,
    })
}

/// Striped probe over active relays: each transfer dials `STRIPES`
/// fresh lanes through the proxy to an outside listener and is
/// reassembled and compared there.
fn probe(stack: &Stack, inputs: &Inputs, seg: &mut Segment) -> Result<(), String> {
    let listener = stack.net.bind(OUTSIDE, 0).map_err(io_err("probe bind"))?;
    let port = listener.logical_port();
    let dial = |_stripe: u16, _attempt: u32| {
        nx_proxy_connect(&stack.net, &stack.env, INSIDE, (OUTSIDE, port))
    };
    for j in 0..PROBE_OPS {
        let payload = inputs
            .arena
            .slice(inputs.seed, STREAM_PROBE, j, PROBE_BYTES);
        let plan = StripePlan::new(PROBE_BYTES as u64, STRIPES, (PROBE_BYTES / 2) as u32)
            .map_err(|e| format!("stripe plan: {e}"))?;
        seg.attempted += 1;
        let t = Instant::now();
        nexus_proxy::send_striped(payload, &plan, j + 1, 0, 0, None, dial)
            .map_err(io_err("send_striped"))?;
        let rx = StripeReceiver::new();
        for _ in 0..STRIPES {
            let (lane, _) = listener.accept().map_err(io_err("probe accept"))?;
            lane.set_read_timeout(Some(IO_TIMEOUT))
                .map_err(io_err("probe lane"))?;
            rx.feed(&lane, None).map_err(io_err("probe feed"))?;
        }
        match rx.result() {
            Some((_, bytes)) if bytes == payload => seg.striped.add(payload.len(), t.elapsed()),
            _ => seg.failed += 1,
        }
    }
    Ok(())
}

fn timed_loop(
    stack: &Stack,
    rec: &mut Recorder,
    inputs: &Inputs,
    sink_port: u16,
    run: Duration,
    seg: &mut Segment,
) {
    let period = Duration::from_secs(1) / RATE_PER_S;
    let before = stack.snapshot();
    let cpu0 = Cpu::now();
    let start = Instant::now();
    let mut sampled = start;
    let mut k = 0u64;
    loop {
        let due = start + period * k as u32;
        if due >= start + run {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        let begin = Instant::now();
        seg.late_us.push((begin - due).as_secs_f64() * 1e6);
        seg.attempted += 1;
        let op = rec.enter("op", k);
        let times = one_op(stack, rec, inputs, sink_port, k);
        rec.exit(op);
        match times {
            Ok(t) => {
                seg.latencies_us
                    .push((Instant::now() - due).as_secs_f64() * 1e6);
                seg.active_us.push(t.active.as_secs_f64() * 1e6);
                seg.passive_us.push(t.passive.as_secs_f64() * 1e6);
                // Echo payload over the relays' whole lives: open, echo, close.
                seg.plain.add(4 * ECHO_BYTES, t.active + t.passive);
                seg.payload_bytes += 4 * ECHO_BYTES as u64;
                if !t.ok {
                    seg.failed += 1;
                }
            }
            Err(e) => {
                seg.failed += 1;
                seg.errors.push(format!("op {k}: {e}"));
                break;
            }
        }
        k += 1;
        if rec.enabled() && sampled.elapsed() >= THREAD_SAMPLE {
            seg.peak_threads = seg.peak_threads.max(procfs::threads());
            sampled = Instant::now();
        }
    }
    seg.timed_s = start.elapsed().as_secs_f64();
    seg.cpu = Cpu::now().since(cpu0);
    seg.peak_rss_mb = procfs::peak_rss_mb();
    let after = stack.snapshot();
    seg.outer = delta(after.0, before.0);
    seg.inner = delta(after.1, before.1);
}

pub fn run_segment(inputs: &Arc<Inputs>, opts: SegOpts) -> Result<Segment, String> {
    let base = Instant::now();
    let stack = Stack::build(opts.path).map_err(io_err("stack"))?;
    let sink = stack.net.bind(OUTSIDE, 0).map_err(io_err("sink bind"))?;
    let sink_port = sink.logical_port();
    let stop = Arc::new(AtomicBool::new(false));
    let sink_errors = Arc::new(AtomicU64::new(0));
    let sink_thread = {
        let (stop, errors) = (stop.clone(), sink_errors.clone());
        thread::Builder::new()
            .name("churn-sink".into())
            .spawn(move || sink_loop(sink, stop, errors))
            .map_err(io_err("sink thread"))?
    };
    let mut seg = Segment {
        setup_s: base.elapsed().as_secs_f64(),
        ..Segment::default()
    };

    let mut rec = Recorder::new(base, 0, opts.trace);
    match check_denied(&stack, &mut rec) {
        Ok(n) => seg.denied = n,
        Err(e) => seg.errors.push(e),
    }
    timed_loop(&stack, &mut rec, inputs, sink_port, opts.run, &mut seg);
    if opts.probe && seg.errors.is_empty() {
        if let Err(e) = probe(&stack, inputs, &mut seg) {
            seg.failed += 1;
            seg.errors.push(e);
        }
    }
    seg.spans = rec.into_spans();

    // Wake the sink with one last intra-site connection and wait for it.
    stop.store(true, Ordering::Relaxed);
    let _ = stack.net.dial(PEER, OUTSIDE, sink_port);
    if sink_thread.join().is_err() {
        seg.errors.push("sink thread panicked".into());
    }
    let sink_failed = sink_errors.load(Ordering::Relaxed);
    if sink_failed > 0 {
        seg.errors.push(format!("sink failed {sink_failed} echoes"));
    }
    seg.drained = stack.drain();
    Ok(seg)
}
