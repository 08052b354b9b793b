//! The stack under test, built fresh for every world: a `firewall::vnet`
//! with a deny-in `inside` site, the outer server in a `dmz` and an
//! open `outside` site — or, for the direct-path reference, one open
//! site and no proxy.

use firewall::{Policy, VNet, NXPORT, OUTER_PORT};
use nexus::NexusContext;
use nexus_proxy::{
    nx_proxy_bind, InnerConfig, InnerServer, OuterConfig, OuterServer, ProxyEnv, ProxySnapshot,
};
use std::io;
use std::thread;
use std::time::{Duration, Instant};

/// Inside host: MPI rank 0 and the churn client.
pub const INSIDE: &str = "inside0";
/// Outside host: MPI rank 1 and the churn echo sink.
pub const OUTSIDE: &str = "outside0";
/// Outside host that dials rendezvous ports and tries the denied dial.
pub const PEER: &str = "outside-peer";
const INNER: &str = "inside-inner";
const OUTER: &str = "dmz-outer";

/// How long a finished world may take to release its relays.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Inside host behind `Policy::typical_with_nxport`, reaching out
    /// through the Nexus Proxy.
    Proxied,
    /// Every host on one open site, no proxy.
    Direct,
}

pub struct Stack {
    pub net: VNet,
    pub env: ProxyEnv,
    pub path: Path,
    // Field order is drop order: outer before inner.
    outer: Option<OuterServer>,
    inner: Option<InnerServer>,
}

/// Relay-table state once a world has finished.
#[derive(Debug, Clone, Copy, Default)]
pub struct Drained {
    pub active_relays: u64,
    pub admission_active: u64,
}

impl Drained {
    pub fn is_clean(&self) -> bool {
        self.active_relays == 0 && self.admission_active == 0
    }
}

impl Stack {
    pub fn build(path: Path) -> io::Result<Stack> {
        let net = VNet::new();
        match path {
            Path::Direct => {
                let open = net.add_site("open", None);
                for host in [INSIDE, OUTSIDE, PEER] {
                    net.add_host(host, open);
                }
                Ok(Stack {
                    net,
                    env: ProxyEnv::direct(),
                    path,
                    outer: None,
                    inner: None,
                })
            }
            Path::Proxied => {
                let inside = net.add_site("inside", None);
                let dmz = net.add_site("dmz", None);
                let outside = net.add_site("outside", None);
                net.add_host(INSIDE, inside);
                let inner_ref = net.add_host(INNER, inside);
                net.add_host(OUTER, dmz);
                net.add_host(OUTSIDE, outside);
                net.add_host(PEER, outside);
                net.reload_policy(
                    inside,
                    Policy::typical_with_nxport("inside", inner_ref, NXPORT),
                );
                let inner = InnerServer::start(net.clone(), InnerConfig::new(INNER))?;
                let outer = OuterServer::start(
                    net.clone(),
                    OuterConfig::new(OUTER).with_inner(INNER, NXPORT),
                )?;
                Ok(Stack {
                    net,
                    env: ProxyEnv::via(OUTER, OUTER_PORT),
                    path,
                    outer: Some(outer),
                    inner: Some(inner),
                })
            }
        }
    }

    /// A Nexus context for `host`: via the proxy for the inside host of
    /// a proxied stack, direct otherwise.
    pub fn context(&self, host: &str) -> NexusContext {
        if self.path == Path::Proxied && host == INSIDE {
            NexusContext::via_proxy(self.net.clone(), host, (OUTER, OUTER_PORT))
        } else {
            NexusContext::direct(self.net.clone(), host)
        }
    }

    /// `(outer, inner)` counters; zero on the direct path.
    pub fn snapshot(&self) -> (ProxySnapshot, ProxySnapshot) {
        (
            self.outer
                .as_ref()
                .map(OuterServer::stats)
                .unwrap_or_default(),
            self.inner
                .as_ref()
                .map(InnerServer::stats)
                .unwrap_or_default(),
        )
    }

    /// Wait until the outer server holds no relay and no admission slot,
    /// up to a deadline; report what is left.
    pub fn drain(&self) -> Drained {
        let Some(outer) = &self.outer else {
            return Drained::default();
        };
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            let d = Drained {
                active_relays: outer.active_relays() as u64,
                admission_active: u64::from(outer.admission_active()),
            };
            if d.is_clean() || Instant::now() >= deadline {
                return d;
            }
            thread::sleep(Duration::from_millis(2));
        }
    }
}

/// The deliberate direct dial: an outside host dialing a listener on
/// the inside host's private address must be refused by the firewall.
/// On the direct path there is no firewall and nothing to check.
/// Returns the number of refused dials (1 on the proxied path).
pub fn check_denied(stack: &Stack, rec: &mut crate::trace::Recorder) -> Result<u64, String> {
    if stack.path == Path::Direct {
        return Ok(0);
    }
    let op = crate::trace::NO_OP;
    let listener = rec
        .span("nexus_proxy.bind", op, || {
            nx_proxy_bind(&stack.net, &stack.env, INSIDE)
        })
        .map_err(|e| format!("nx_proxy_bind for the denial check: {e}"))?;
    let (host, port) = listener.private_addr();
    match rec.span("vnet.dial_denied", op, || stack.net.dial(PEER, &host, port)) {
        Err(e) if e.kind() == io::ErrorKind::PermissionDenied => Ok(1),
        Err(e) => Err(format!(
            "direct dial to {host}:{port} failed but was not denied: {e}"
        )),
        Ok(_) => Err(format!("direct dial to {host}:{port} crossed the firewall")),
    }
}
