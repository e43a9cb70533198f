//! `warm_lookup`: the read pipeline in a closed loop on one thread.
//!
//! Pre-encoded SLP, SSDP and DNS-SD requests (Zipf popularity over a
//! registry of warmed types, a share for types nobody offers) go through
//! `parse_slp_request` / `Unit::parse` → `GatewayCore::classify` → reply
//! encode with the protocol crates' codecs. DNS-SD requests stop after
//! classify: the program composes DNS-SD answers only inside a unit's or
//! the wire front-end's send path, which `udp_gateway` measures. No
//! socket, no thread handoff, no registry write.

use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::{Duration, Instant};

use indiss_core::{
    parse_slp_request, DescriptorUnit, Event, EventStream, GatewayCore, IndissConfig,
    ParsedMessage, SdpDescriptor, SdpProtocol, ThreadedGateway, Unit, UpnpUnit, UpnpUnitConfig,
    WarmDecision,
};
use indiss_net::{Datagram, SimTime, World};

use crate::host::{self, RefKernel};
use crate::ledger::{absent_type, slp_url, Ledger, Proto, Rng, Zipf};
use crate::{trace, Outcome, RunCfg};

/// Warmed types.
pub const TYPES: usize = 4096;
/// Zipf exponent of type popularity.
pub const ZIPF_S: f64 = 0.9;
/// Share of requests for a type no service offers.
pub const ABSENT_SHARE: f64 = 0.05;
/// Protocol mix of requests: SLP, SSDP, DNS-SD.
pub const MIX: [(Proto, f64); 3] = [(Proto::Slp, 0.5), (Proto::Ssdp, 0.25), (Proto::DnsSd, 0.25)];
/// Distinct pre-encoded requests the loop cycles through.
const REQUESTS: usize = 1 << 15;
/// Every n-th reply is decoded again and compared field by field.
const DECODE_EVERY: usize = 16;
/// Every n-th operation is timed on its own for `response_ms`.
const TIME_EVERY: usize = 8;

struct Request {
    proto: Proto,
    dgram: Datagram,
    /// Ledger index of the requested type, `None` for an absent type.
    service: Option<usize>,
    ty: String,
    xid: u16,
    st: String,
}

struct Bench {
    ledger: Ledger,
    core: GatewayCore,
    _gateway: ThreadedGateway,
    world: World,
    upnp: UpnpUnit,
    dnssd: DescriptorUnit,
    dnssd_proto: SdpProtocol,
    requests: Vec<Request>,
    now: SimTime,
}

fn response_stream(ty: &str, url: &str, ttl: u32) -> EventStream {
    EventStream::framed(vec![
        Event::ServiceResponse,
        Event::ResOk,
        Event::ServiceType(ty.into()),
        Event::ResTtl(ttl),
        Event::ResServUrl(url.to_owned()),
    ])
}

fn pick_proto(rng: &mut Rng) -> Proto {
    let u = rng.unit();
    let mut acc = 0.0;
    for (p, share) in MIX {
        acc += share;
        if u < acc {
            return p;
        }
    }
    Proto::DnsSd
}

fn encode_request(proto: Proto, ty: &str, xid: u16) -> (Vec<u8>, String) {
    match proto {
        Proto::Slp => {
            let mut header = indiss_slp::Header::new(
                indiss_slp::FunctionId::SrvRqst,
                xid,
                indiss_slp::DEFAULT_LANG,
            );
            header.flags = indiss_slp::FLAG_MCAST;
            let msg = indiss_slp::Message::new(
                header,
                indiss_slp::Body::SrvRqst(indiss_slp::SrvRqst {
                    prlist: String::new(),
                    service_type: format!("service:{ty}"),
                    scopes: "DEFAULT".into(),
                    predicate: String::new(),
                    spi: String::new(),
                }),
            );
            (msg.encode().expect("request encodes"), String::new())
        }
        Proto::Ssdp => {
            let st = indiss_ssdp::SearchTarget::device_urn(ty, 1);
            let text = st.to_string();
            (indiss_ssdp::MSearch::new(st, 0).to_bytes(), text)
        }
        Proto::DnsSd => (format!("DNSSD Q PTR _{ty}._tcp.local").into_bytes(), String::new()),
    }
}

/// One generated request: protocol, ledger index (`None` for an absent
/// type), type, SLP XID, wire bytes, SSDP search target.
type Generated = (Proto, Option<usize>, String, u16, Vec<u8>, String);

/// Builds the requests the loop cycles through (pure function of seed).
fn requests(seed: u64, ledger: &Ledger, n: usize) -> Vec<Generated> {
    let mut rng = Rng::new(seed, 2);
    let zipf = Zipf::new(ledger.services.len(), ZIPF_S);
    // Popularity rank → ledger index, shuffled so popular types spread
    // over shards and origins.
    let mut order: Vec<usize> = (0..ledger.services.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (0..n)
        .map(|_| {
            let proto = pick_proto(&mut rng);
            let (service, ty) = if rng.chance(ABSENT_SHARE) {
                (None, absent_type(seed, rng.below(512) as usize))
            } else {
                let idx = order[zipf.sample(&mut rng)];
                (Some(idx), ledger.services[idx].ty.clone())
            };
            let xid = (rng.below(65_535) + 1) as u16;
            let (wire, st) = encode_request(proto, &ty, xid);
            (proto, service, ty, xid, wire, st)
        })
        .collect()
}

fn build(seed: u64) -> Bench {
    let ledger = Ledger::generate(seed, TYPES, &[Proto::Slp, Proto::Ssdp, Proto::DnsSd], 1800);
    let config = IndissConfig::builder()
        .slp()
        .cache_ttl(Duration::from_secs(3600))
        .cache_capacity(TYPES * 2)
        .registry_capacity(TYPES * 2)
        .shards(16)
        .workers(1)
        .build();
    let gateway = ThreadedGateway::from_config(&config);
    let core = gateway.core();
    let registry = core.registry();
    let now = SimTime::from_secs(10);
    for s in &ledger.services {
        registry.warm(s.ty.as_str(), response_stream(&s.ty, &s.url, s.ttl), now);
    }
    let world = World::new(seed);
    let node = world.add_node("gateway");
    let upnp = UpnpUnit::new(&node, UpnpUnitConfig::default()).expect("sim bind");
    let descriptor = SdpDescriptor::dns_sd();
    let dnssd_proto = descriptor.protocol();
    let dnssd = DescriptorUnit::new(&node, descriptor.clone()).expect("sim bind");
    let mut rng = Rng::new(seed, 3);
    let requests = requests(seed, &ledger, REQUESTS)
        .into_iter()
        .map(|(proto, service, ty, xid, payload, st)| {
            let src = SocketAddrV4::new(
                Ipv4Addr::new(10, 9, rng.below(250) as u8, 1 + rng.below(250) as u8),
                40_000 + rng.below(20_000) as u16,
            );
            let port = match proto {
                Proto::Slp => 427,
                Proto::Ssdp => 1900,
                Proto::DnsSd => descriptor.port(),
            };
            let group = match proto {
                Proto::Slp => Ipv4Addr::new(239, 255, 255, 253),
                Proto::Ssdp => Ipv4Addr::new(239, 255, 255, 250),
                Proto::DnsSd => descriptor.group(),
            };
            Request {
                proto,
                dgram: Datagram { src, dst: SocketAddrV4::new(group, port), payload },
                service,
                ty,
                xid,
                st,
            }
        })
        .collect();
    Bench { ledger, core, _gateway: gateway, world, upnp, dnssd, dnssd_proto, requests, now }
}

/// Per-run tallies the loop keeps.
#[derive(Default)]
struct Tally {
    wire_bytes: u64,
    /// Lookup times sampled in the current slice.
    samples: Vec<f64>,
    slice: usize,
    /// (slice, median lookup time in ns) of every finished slice.
    slice_medians: Vec<(usize, f64)>,
    probes: u64,
}

impl Tally {
    fn close_slice(&mut self) {
        if !self.samples.is_empty() {
            self.slice_medians.push((self.slice, host::median(&self.samples)));
            self.samples.clear();
        }
    }
}

fn slp_xid(stream: &EventStream) -> Option<u16> {
    stream.events().iter().find_map(|e| match e {
        Event::SlpReqId(x) => Some(*x),
        _ => None,
    })
}

fn upnp_st(stream: &EventStream) -> Option<String> {
    stream.events().iter().find_map(|e| match e {
        Event::UpnpSt(st) => Some(st.to_string()),
        _ => None,
    })
}

impl Bench {
    /// One request through parse → classify → encode, checked against
    /// the ledger. `corrupt` alters the program's answer before the check.
    fn op(&mut self, i: usize, out: &mut Outcome, tally: &mut Tally, corrupt: bool) {
        let req = &self.requests[i % self.requests.len()];
        self.now = self.now.saturating_add(Duration::from_micros(10));
        let timed = i.is_multiple_of(TIME_EVERY);
        let t0 = if timed { Some(Instant::now()) } else { None };

        let (layer, origin) = match req.proto {
            Proto::Slp => ("units.slp_parse_ns", SdpProtocol::Slp),
            Proto::Ssdp => ("units.ssdp_parse_ns", SdpProtocol::Upnp),
            Proto::DnsSd => ("units.descriptor_parse_ns", self.dnssd_proto),
        };
        let span = trace::start();
        let parsed = match req.proto {
            Proto::Slp => parse_slp_request(&req.dgram.payload, req.dgram.src, true),
            Proto::Ssdp => match self.upnp.parse(&self.world, &req.dgram) {
                ParsedMessage::Request(s) => Some(s),
                _ => None,
            },
            Proto::DnsSd => match self.dnssd.parse(&self.world, &req.dgram) {
                ParsedMessage::Request(s) => Some(s),
                _ => None,
            },
        };
        trace::end(layer, span);
        let Some(request) = parsed else {
            out.fail(|| format!("request {i} ({:?} {}) did not parse", req.proto, req.ty));
            return;
        };
        if request.service_type() != Some(req.ty.as_str()) {
            out.fail(|| {
                format!("request {i} parsed as type {:?}, sent {}", request.service_type(), req.ty)
            });
            return;
        }

        let span = trace::start();
        let decision = self.core.classify(origin, &request, self.now);
        trace::end("gateway.classify_ns", span);

        let (mut answer, decided) = match decision {
            WarmDecision::CacheHit(response) => (Some(response), "cache hit"),
            WarmDecision::NegativeHit => (None, "negative hit"),
            WarmDecision::Suppressed => (None, "suppressed"),
            WarmDecision::Bridge => (None, "cold miss"),
        };
        if corrupt && i == 1000 && req.service.is_some() {
            answer = Some(response_stream(&req.ty, "soap://10.255.0.1:1/altered", 60));
        }
        let (service, response) = match (req.service, answer) {
            (None, None) => {
                tally.wire_bytes += req.dgram.payload.len() as u64;
                if let Some(t0) = t0 {
                    tally.samples.push(t0.elapsed().as_nanos() as f64);
                }
                return;
            }
            (None, Some(_)) => {
                out.fail(|| format!("absent type {} was answered", req.ty));
                return;
            }
            (Some(_), None) => {
                out.fail(|| format!("type {} in the ledger was not answered ({decided})", req.ty));
                return;
            }
            (Some(s), Some(r)) => (&self.ledger.services[s], r),
        };
        let url = response.service_url().unwrap_or_default();
        if url != service.url {
            out.fail(|| {
                format!("type {} answered with {url}, ledger has {}", service.ty, service.url)
            });
            return;
        }
        if trace::enabled() && i % TIME_EVERY == 1 {
            let registry = self.core.registry();
            let span = trace::start();
            let probe = registry.cached_response(service.ty.as_str(), self.now);
            trace::end("registry.cached_response_ns", span);
            tally.probes += 1;
            if probe.is_none() {
                out.fail(|| format!("cached_response lost type {}", service.ty));
            }
        }

        let reply = match req.proto {
            Proto::DnsSd => None,
            Proto::Slp => {
                let xid = slp_xid(&request).unwrap_or(0);
                let span = trace::start();
                let msg = indiss_slp::Message::new(
                    indiss_slp::Header::new(
                        indiss_slp::FunctionId::SrvRply,
                        xid,
                        indiss_slp::DEFAULT_LANG,
                    ),
                    indiss_slp::Body::SrvRply(indiss_slp::SrvRply {
                        error: 0,
                        urls: vec![indiss_slp::UrlEntry::new(slp_url(&service.ty, url), 1800)],
                    }),
                );
                let wire = msg.encode().unwrap_or_default();
                trace::end("slp.encode_ns", span);
                Some(wire)
            }
            Proto::Ssdp => {
                let st = upnp_st(&request).unwrap_or_default();
                let span = trace::start();
                let wire = indiss_ssdp::SearchResponse {
                    st: st.parse().unwrap_or(indiss_ssdp::SearchTarget::All),
                    usn: format!("uuid:{}::{st}", service.ty),
                    location: url.to_owned(),
                    server: String::new(),
                    max_age: 1800,
                }
                .to_bytes();
                trace::end("ssdp.encode_ns", span);
                Some(wire)
            }
        };
        let reply_len = reply.as_ref().map_or(0, Vec::len);
        tally.wire_bytes += (req.dgram.payload.len() + reply_len) as u64;
        if let Some(t0) = t0 {
            tally.samples.push(t0.elapsed().as_nanos() as f64);
        }
        if let Some(reply) = reply.filter(|_| i.is_multiple_of(DECODE_EVERY)) {
            if let Err(why) = check_reply(req, service, &reply) {
                out.fail(|| format!("request {i}: {why}"));
            }
        }
    }
}

/// Decodes an encoded SLP or SSDP reply with the protocol crate's codec
/// and compares it with the request (XID, search target, as recovered by
/// the program's parse) and the ledger.
fn check_reply(
    req: &Request,
    service: &crate::ledger::Service,
    reply: &[u8],
) -> Result<(), String> {
    match req.proto {
        Proto::Slp => {
            let msg = indiss_slp::Message::decode(reply).map_err(|e| format!("SLP reply: {e}"))?;
            if msg.header.xid != req.xid {
                return Err(format!(
                    "SLP reply XID {} for request XID {}",
                    msg.header.xid, req.xid
                ));
            }
            let indiss_slp::Body::SrvRply(r) = msg.body else {
                return Err("SLP reply is not a SrvRply".into());
            };
            let want = slp_url(&service.ty, &service.url);
            match r.urls.first() {
                Some(u) if u.url == want => Ok(()),
                other => Err(format!("SLP reply URL {other:?}, ledger {want}")),
            }
        }
        Proto::Ssdp => match indiss_ssdp::SsdpMessage::parse(reply) {
            Ok(indiss_ssdp::SsdpMessage::Response(r)) => {
                if r.location != service.url || r.st.to_string() != req.st {
                    Err(format!(
                        "SSDP reply {} / {}, want {} / {}",
                        r.location, r.st, service.url, req.st
                    ))
                } else {
                    Ok(())
                }
            }
            other => Err(format!("SSDP reply did not parse: {other:?}")),
        },
        Proto::DnsSd => Err("DNS-SD replies are not encoded here".into()),
    }
}

pub fn run(cfg: RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let kernel = RefKernel::new();
    let (setup, mut bench) = host::timed_setups(&kernel, 5, || build(cfg.seed));

    // Warm-up pass over every request: lazy interner entries and the
    // thread's snapshot cache settle before timing.
    let mut tally = Tally::default();
    for i in 0..bench.requests.len() {
        bench.op(i, &mut out, &mut tally, false);
    }
    out.attempted += bench.requests.len() as u64;
    let stats0 = bench.core.stats();

    let mut tally = Tally::default();
    let mut next = 0usize;
    let alloc0 = crate::alloc::allocated();
    const BATCH: usize = 64;
    let slices = host::closed_loop(&kernel, cfg.seconds, |slice| {
        if slice != tally.slice {
            tally.close_slice();
            tally.slice = slice;
        }
        for _ in 0..BATCH {
            bench.op(next, &mut out, &mut tally, cfg.corrupt);
            next += 1;
        }
        BATCH as u64
    });
    let alloc = crate::alloc::allocated() - alloc0;
    tally.close_slice();
    let fig = host::loop_figures(&slices);
    // Each slice's median lookup time, scaled by that slice's reference.
    let per_slice: Vec<f64> = tally
        .slice_medians
        .iter()
        .filter_map(|&(i, ns)| slices.get(i).map(|s| ns * host::NOMINAL_REF_NS / s.ref_ns))
        .collect();
    let raw_samples: Vec<f64> = tally.slice_medians.iter().map(|&(_, ns)| ns).collect();
    let ops: u64 = slices.iter().map(|s| s.ops).sum();
    let stats = bench.core.stats();

    out.attempted += ops;
    out.e2e("setup_s", setup.norm_s);
    out.e2e("ops_per_s", fig.norm_rate);
    out.e2e("cpu_us_per_op", fig.norm_cpu_us);
    out.e2e("alloc_bytes_per_op", alloc as f64 / ops as f64);
    out.e2e("rss_mb", host::peak_rss_mb());
    out.e2e("response_ms", host::median(&per_slice) / 1e6);
    out.e2e("net_bytes_per_op", tally.wire_bytes as f64 / ops as f64);

    let hits = (stats.cache_hits - stats0.cache_hits).saturating_sub(tally.probes);
    out.layer("gateway.hit_ratio", hits as f64 / ops as f64);
    for layer in [
        "units.slp_parse_ns",
        "units.ssdp_parse_ns",
        "units.descriptor_parse_ns",
        "slp.encode_ns",
        "ssdp.encode_ns",
        "gateway.classify_ns",
        "registry.cached_response_ns",
    ] {
        out.layer(layer, trace::mean_ns(layer));
    }
    out.cost_per_op = 1.0 / fig.raw_rate;

    out.detail("raw_setup_s", setup.raw_s);
    out.detail("setup_ref_ns", setup.ref_ns);
    out.detail("raw_ops_per_s", fig.raw_rate);
    out.detail("raw_cpu_us_per_op", fig.raw_cpu_us);
    out.detail("raw_response_ms", host::median(&raw_samples) / 1e6);
    out.detail("ref_ns", fig.ref_ns);
    out.detail("slices", slices.len() as f64);
    out.detail("hit_ratio", hits as f64 / ops as f64);
    out
}
