//! `advert_churn`: the registry's write path under service churn.
//!
//! Four mesh-federated registries share one in-memory `SimTransport`
//! bus. Services arrive at a home gateway (seeded, continuous virtual
//! arrival times), re-announce periodically, and depart by letting their
//! lease lapse. Each advert is recorded and cached at its home gateway;
//! gossip rounds carry it to the other three, where it lands through
//! `record_remote`/`warm_remote`. Sweeps reclaim lapsed leases. After
//! the measured window a settle phase must leave every gateway holding
//! exactly the ledger's live set, with agreeing content digests.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use indiss_core::{
    Event, EventStream, MeshConfig, MeshNode, RegistryConfig, SdpProtocol, ServiceRegistry, Symbol,
};
use indiss_net::{SimTime, SimTransport, Transport};

use crate::host::{self, RefKernel};
use crate::ledger::Rng;
use crate::metered::{Counters, Metered};
use crate::{trace, Outcome, RunCfg};

/// Federated gateways.
pub const GATEWAYS: usize = 4;
/// Registry shards per gateway.
pub const SHARDS: usize = 16;
/// Live services the arrival rate sustains.
pub const LIVE: usize = 2000;
/// Mean service lifetime (exponential), virtual seconds.
pub const MEAN_LIFETIME_S: f64 = 60.0;
/// Re-announcement period of a live service, virtual seconds.
pub const REANNOUNCE_S: f64 = 15.0;
/// Lease carried by every advert, seconds.
pub const TTL_S: u32 = 40;
/// Virtual time advanced per loop step.
const TICK: Duration = Duration::from_millis(50);
/// Churn run at the home gateways before gossip starts, so the mesh
/// starts at its steady state (lease of a departed service plus one
/// re-announcement period).
const HISTORY_S: u64 = TTL_S as u64 + REANNOUNCE_S as u64;
/// Gossip period of every gateway.
pub const GOSSIP: Duration = Duration::from_millis(500);

struct Svc {
    ty: String,
    url: String,
    home: usize,
    origin: SdpProtocol,
    ends_at: SimTime,
    /// Lease end of the last announcement.
    expires: SimTime,
}

struct Churn {
    regs: Vec<ServiceRegistry>,
    meshes: Vec<MeshNode>,
    counters: Arc<Counters>,
    svcs: HashMap<u64, Svc>,
    announce: BinaryHeap<Reverse<(SimTime, u64)>>,
    next_id: u64,
    next_arrival: SimTime,
    rng: Rng,
    seed: u64,
    now: SimTime,
    /// New services not yet cached at every gateway, with arrival time.
    pending: Vec<(u64, SimTime)>,
    delays_ms: Vec<f64>,
    adverts: u64,
    /// Gossip rounds (of gateway 0) from the start of gossip in
    /// [`build`] until every digest agreed.
    rounds_to_converge: u64,
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

impl Churn {
    fn new(seed: u64) -> Churn {
        let bus = Metered::new(Arc::new(SimTransport::new()));
        let counters = Arc::clone(&bus.counters);
        let bus: Arc<dyn Transport> = Arc::new(bus);
        let ports: Vec<u16> = (0..GATEWAYS as u16).map(|i| 7100 + i).collect();
        let mut regs = Vec::new();
        let mut meshes = Vec::new();
        for &port in &ports {
            let reg = ServiceRegistry::new(RegistryConfig {
                shards: SHARDS,
                advert_capacity: LIVE * 8,
                cache_capacity: LIVE * 8,
                cache_ttl: Duration::from_secs(u64::from(TTL_S)),
                ..RegistryConfig::default()
            });
            let mesh = MeshNode::new(
                reg.clone(),
                Arc::clone(&bus),
                MeshConfig {
                    port,
                    peers: ports.clone(),
                    gossip_interval: GOSSIP,
                    ..MeshConfig::default()
                },
            );
            mesh.start().expect("the in-memory bus always binds");
            regs.push(reg);
            meshes.push(mesh);
        }
        Churn {
            regs,
            meshes,
            counters,
            svcs: HashMap::new(),
            announce: BinaryHeap::new(),
            next_id: 0,
            next_arrival: SimTime::from_secs(1),
            rng: Rng::new(seed, 7),
            seed,
            now: SimTime::from_secs(1),
            pending: Vec::new(),
            delays_ms: Vec::new(),
            adverts: 0,
            rounds_to_converge: 0,
        }
    }

    fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.rng.unit()).ln()
    }

    /// Creates a service arriving at `at`, announces it, and schedules
    /// its next announcement.
    fn arrive(&mut self, at: SimTime, track: bool) {
        let id = self.next_id;
        self.next_id += 1;
        let home = self.rng.below(GATEWAYS as u64) as usize;
        let origin = match id % 3 {
            0 => SdpProtocol::Slp,
            1 => SdpProtocol::Upnp,
            _ => SdpProtocol::Jini,
        };
        let ty = format!("c{:x}n{id}", self.seed & 0xFFFF);
        let url = format!(
            "soap://10.{}.{}.{}:4004/{ty}",
            1 + id % 200,
            (id / 200) % 250,
            1 + self.rng.below(250)
        );
        let life = self.exp(MEAN_LIFETIME_S);
        self.svcs.insert(
            id,
            Svc { ty, url, home, origin, ends_at: at.saturating_add(secs(life)), expires: at },
        );
        self.announce_now(id, at, TTL_S);
        let next = at.saturating_add(secs(REANNOUNCE_S * (0.75 + 0.5 * self.rng.unit())));
        self.announce.push(Reverse((next, id)));
        if track {
            self.pending.push((id, at));
        }
    }

    /// Records and caches one advert at the service's home gateway.
    fn announce_now(&mut self, id: u64, at: SimTime, ttl: u32) {
        let svc = self.svcs.get_mut(&id).expect("announced service exists");
        svc.expires = at.saturating_add(Duration::from_secs(u64::from(ttl)));
        let span = trace::start();
        let sym = Symbol::intern(&svc.ty);
        trace::end("symbol.intern_ns", span);
        let advert = EventStream::framed(vec![
            Event::ServiceAlive,
            Event::ServiceType(sym.clone()),
            Event::ResServUrl(svc.url.clone()),
            Event::ResTtl(ttl),
        ]);
        let reg = &self.regs[svc.home];
        let span = trace::start();
        reg.record_advert(svc.origin, &advert, at);
        trace::end("registry.record_advert_us", span);
        let span = trace::start();
        reg.warm(sym, advert.clone(), at);
        trace::end("registry.warm_us", span);
        self.meshes[svc.home].publish(svc.origin, &advert, at);
        self.adverts += 1;
    }

    /// Advances virtual time by one tick: arrivals and re-announcements
    /// in time order, then due gossip rounds and sweeps.
    fn tick(&mut self, arrivals: bool) {
        self.tick_with(arrivals, true);
    }

    fn tick_with(&mut self, arrivals: bool, gossip: bool) {
        let end = self.now.saturating_add(TICK);
        loop {
            let next_announce = self.announce.peek().map(|Reverse((t, _))| *t);
            let next_arrival = if arrivals { Some(self.next_arrival) } else { None };
            let (at, is_arrival) = match (next_announce, next_arrival) {
                (Some(a), Some(b)) if b < a => (b, true),
                (Some(a), _) => (a, false),
                (None, Some(b)) => (b, true),
                (None, None) => break,
            };
            if at >= end {
                break;
            }
            if is_arrival {
                self.arrive(at, gossip);
                let gap = self.exp(MEAN_LIFETIME_S / LIVE as f64);
                self.next_arrival = at.saturating_add(secs(gap));
            } else {
                let Reverse((_, id)) = self.announce.pop().expect("peeked");
                let ended = self.svcs.get(&id).is_none_or(|s| s.ends_at <= at);
                if !ended {
                    self.announce_now(id, at, TTL_S);
                    let next =
                        at.saturating_add(secs(REANNOUNCE_S * (0.75 + 0.5 * self.rng.unit())));
                    self.announce.push(Reverse((next, id)));
                }
            }
        }
        self.now = end;
        self.rounds_and_sweeps(gossip);
    }

    fn rounds_and_sweeps(&mut self, gossip: bool) {
        let now = self.now;
        let mut gossiped = false;
        for mesh in self.meshes.iter().filter(|_| gossip) {
            if mesh.next_deadline().is_some_and(|d| d <= now) {
                let span = trace::start();
                mesh.tick(now);
                trace::end("mesh.round_us", span);
                gossiped = true;
            }
        }
        for reg in &self.regs {
            if reg.next_deadline().is_some_and(|d| d <= now) {
                let span = trace::start();
                reg.sweep(now);
                trace::end("registry.sweep_us", span);
            }
        }
        if gossiped {
            for reg in &self.regs {
                let span = trace::start();
                std::hint::black_box(reg.content_digest(now));
                trace::end("registry.content_digest_us", span);
            }
            let regs = &self.regs;
            let svcs = &self.svcs;
            let delays = &mut self.delays_ms;
            self.pending.retain(|&(id, at)| {
                let Some(svc) = svcs.get(&id) else {
                    return false;
                };
                if regs.iter().all(|r| r.cache_contains(svc.ty.as_str(), now)) {
                    delays.push((now - at).as_secs_f64() * 1e3);
                    false
                } else {
                    svc.expires > now
                }
            });
            // Forget departed services once their lease has lapsed
            // everywhere (remote expiries round up by at most a second).
            self.svcs.retain(|_, s| {
                s.ends_at > now || s.expires.saturating_add(Duration::from_secs(5)) > now
            });
        }
    }

    fn digests_agree(&self) -> bool {
        let d0 = self.regs[0].content_digest(self.now);
        self.regs.iter().all(|r| r.content_digest(self.now) == d0)
    }

    fn mesh_totals(&self) -> (u64, u64) {
        self.meshes.iter().fold((0, 0), |(r, a), m| {
            let s = m.stats();
            (r + s.rounds_run, a + s.records_applied)
        })
    }
}

/// Builds the federation at its steady state: the initial live set,
/// then [`HISTORY_S`] of churn at the home gateways only (so lapsed
/// leases are in flight as they would be on a running mesh), then gossip
/// until every gateway agrees. Each gateway then holds only its own
/// services, so the rounds this takes measure anti-entropy from a cold
/// start.
fn build(seed: u64) -> Churn {
    let mut c = Churn::new(seed);
    let t0 = c.now;
    for _ in 0..LIVE {
        c.arrive(t0, false);
    }
    let history_end = t0.saturating_add(Duration::from_secs(HISTORY_S));
    while c.now < history_end {
        c.tick_with(true, false);
    }
    let rounds0 = c.meshes[0].stats().rounds_run;
    for _ in 0..16 {
        c.tick_with(true, true);
        if c.digests_agree() {
            break;
        }
    }
    c.rounds_to_converge = c.meshes[0].stats().rounds_run - rounds0;
    c
}

pub fn run(cfg: RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let kernel = RefKernel::new();
    let (setup, mut c) = host::timed_setups(&kernel, 5, || build(cfg.seed));
    if !c.digests_agree() {
        out.fail(|| "the initial live set did not converge".into());
    }
    for _ in 0..20 {
        c.tick(true);
    }
    c.delays_ms.clear();

    let adverts0 = c.adverts;
    let bytes0 = Counters::get(&c.counters.bytes_sent);
    let (rounds0, applied0) = c.mesh_totals();
    let alloc0 = crate::alloc::allocated();
    let slices = host::closed_loop(&kernel, cfg.seconds, |_| {
        let before = c.adverts;
        for _ in 0..4 {
            c.tick(true);
        }
        c.adverts - before
    });
    let alloc = crate::alloc::allocated() - alloc0;
    let fig = host::loop_figures(&slices);
    let adverts = c.adverts - adverts0;
    let bytes = Counters::get(&c.counters.bytes_sent) - bytes0;
    let (rounds1, applied1) = c.mesh_totals();
    let rounds = rounds1 - rounds0;
    let delay_med = host::median(&c.delays_ms);
    let delay_samples = c.delays_ms.len();

    // Settle: arrivals stop and the live services stop departing; they
    // keep re-announcing while every departed lease runs out, then
    // gossip runs until every digest agrees.
    let settle_at = c.now;
    let live: Vec<u64> = {
        let mut ids: Vec<u64> =
            c.svcs.iter().filter(|(_, s)| s.ends_at > settle_at).map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids
    };
    for id in &live {
        c.svcs.get_mut(id).expect("live service").ends_at = SimTime::from_nanos(u64::MAX);
    }
    // A lapsed record can be re-applied from a peer whose copy lapses a
    // rounding quantum later, so its lease can outlive the home's by a
    // few seconds; wait two leases before checking the live records.
    let quiet = settle_at.saturating_add(Duration::from_secs(2 * u64::from(TTL_S) + 5));
    while c.now < quiet {
        c.tick(false);
    }
    for _ in 0..20 {
        c.now = c.now.saturating_add(GOSSIP);
        c.rounds_and_sweeps(true);
        if c.digests_agree() {
            break;
        }
    }
    check_settled(&c, &live, cfg.corrupt, &mut out);

    out.attempted += adverts;
    out.e2e("setup_s", setup.norm_s);
    // Not host-normalised: this loop's cost is allocation- and
    // copy-bound and does not follow the reference kernel (README).
    out.e2e("ops_per_s", fig.raw_rate);
    out.e2e("cpu_us_per_op", fig.raw_cpu_us);
    out.e2e("alloc_bytes_per_op", alloc as f64 / adverts as f64);
    out.e2e("rss_mb", host::peak_rss_mb());
    out.e2e("response_ms", delay_med);
    out.e2e("net_bytes_per_op", bytes as f64 / adverts as f64);

    for layer in [
        "registry.warm_us",
        "registry.record_advert_us",
        "registry.sweep_us",
        "registry.content_digest_us",
        "mesh.round_us",
    ] {
        out.layer(layer, trace::mean_ns(layer) / 1e3);
    }
    out.layer("symbol.intern_ns", trace::mean_ns("symbol.intern_ns"));
    out.layer("mesh.bytes_per_round", bytes as f64 / rounds.max(1) as f64);
    out.layer(
        "mesh.records_applied_per_round",
        (applied1 - applied0) as f64 / rounds.max(1) as f64,
    );
    out.layer("mesh.rounds_to_converge", c.rounds_to_converge as f64);
    out.layer("symbol.interned_bytes", Symbol::interned_bytes() as f64);
    out.cost_per_op = 1.0 / fig.raw_rate;

    out.detail("raw_setup_s", setup.raw_s);
    out.detail("setup_ref_ns", setup.ref_ns);
    out.detail("norm_ops_per_s", fig.norm_rate);
    out.detail("norm_cpu_us_per_op", fig.norm_cpu_us);
    out.detail("ref_ns", fig.ref_ns);
    out.detail("slices", slices.len() as f64);
    out.detail("virtual_s", (c.now - SimTime::from_secs(1)).as_secs_f64());
    out.detail("visibility_samples", delay_samples as f64);
    out.detail("live_at_settle", live.len() as f64);
    out
}

/// Every gateway must hold exactly the ledger's live set, answer each
/// live type from its cache with the ledger's URL, and agree on the
/// content digest.
fn check_settled(c: &Churn, live: &[u64], corrupt: bool, out: &mut Outcome) {
    let now = c.now;
    let want: HashMap<&str, &str> = live
        .iter()
        .map(|id| {
            let s = &c.svcs[id];
            (s.ty.as_str(), s.url.as_str())
        })
        .collect();
    let mut altered = corrupt;
    for (g, reg) in c.regs.iter().enumerate() {
        let held: Vec<(String, String)> = reg
            .adverts(now)
            .into_iter()
            .map(|(_, s)| {
                (
                    s.service_type().unwrap_or("").to_owned(),
                    s.service_url().unwrap_or("").to_owned(),
                )
            })
            .collect();
        if held.len() != want.len() {
            out.fail(|| {
                format!("gateway {g} holds {} live records, the ledger {}", held.len(), want.len())
            });
        }
        for (ty, url) in &held {
            if want.get(ty.as_str()) != Some(&url.as_str()) {
                out.fail(|| {
                    format!("gateway {g} holds {ty} at {url}, not in the ledger's live set")
                });
            }
        }
        for (ty, url) in &want {
            let got = reg.cached_response(*ty, now);
            let mut got_url = got.as_ref().and_then(|s| s.service_url()).unwrap_or("").to_owned();
            if altered {
                got_url.push_str("/altered");
                altered = false;
            }
            if got_url != *url {
                out.fail(|| format!("gateway {g} answers {ty} with {got_url:?}, ledger {url}"));
            }
        }
    }
    if !c.digests_agree() {
        out.fail(|| "content digests differ after settling".into());
    }
}
