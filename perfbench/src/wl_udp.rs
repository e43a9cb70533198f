//! `udp_gateway`: the wire path under an open-loop offered load.
//!
//! A `NetDriver` serves SLP, SSDP and DNS-SD channels on a loopback
//! `BatchedTransport` with one worker. Its registry is loaded over the
//! wire from the ledger's adverts. A generator of two threads (one
//! sender on a fixed schedule, one receiver) then offers queries for
//! warmed types, a few queries for absent types, and a few adverts that
//! re-announce existing services. Every reply is matched to its request
//! (SLP by XID, DNS-SD by type in arrival order) and checked against the
//! ledger. CPU is read per thread from `/proc/self/task`: the gateway's
//! own `indiss-*` threads, never the generator's. The generator's threads
//! are left out of the allocation count too.

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use indiss_core::{IndissConfig, NetDriver, SdpDescriptor, SdpProtocol, StaticDescriptions};
use indiss_net::{BatchedTransport, Transport};
use indiss_upnp::{DeviceDescription, ServiceDescription};

use crate::host::{self, RefKernel, ThreadStat};
use crate::ledger::{absent_type, slp_url, Ledger, Proto, Rng, Service, Zipf};
use crate::metered::{Counters, Metered};
use crate::{Outcome, RunCfg};

/// Services loaded into the gateway.
pub const TYPES: usize = 2048;
/// Offered requests per second.
pub const RATE: f64 = 4000.0;
/// Requests fall due in groups of this many (one group every
/// `BURST / RATE` seconds, 2 ms), as from several clients at once.
pub const BURST: usize = 8;
/// Zipf exponent of query popularity.
pub const ZIPF_S: f64 = 0.9;
/// Request mix: SLP queries, DNS-SD queries and absent-type queries; the
/// remaining 3 % are adverts re-announcing a loaded service.
pub const SLP_SHARE: f64 = 0.62;
pub const DNSSD_SHARE: f64 = 0.31;
pub const ABSENT_SHARE: f64 = 0.04;
/// Adverts sent per burst while loading the registry.
const LOAD_BURST: usize = 512;
/// Set-ups timed per run (the median is reported).
const SETUPS: usize = 9;
/// How long unanswered requests may still be answered after the last send.
const DRAIN: Duration = Duration::from_millis(500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SlpQuery,
    DnsQuery,
    Advert,
}

struct Req {
    kind: Kind,
    proto: Proto,
    service: Option<usize>,
    payload: Vec<u8>,
}

fn description_for(svc: &Service) -> DeviceDescription {
    DeviceDescription {
        device_type: format!("urn:schemas-upnp-org:device:{}:1", svc.ty),
        friendly_name: format!("Device {}", svc.ty),
        manufacturer: "perfbench".into(),
        manufacturer_url: "http://example.invalid".into(),
        model_description: "benchmark device".into(),
        model_name: "bench".into(),
        model_number: "1".into(),
        model_url: "http://example.invalid".into(),
        udn: format!("uuid:{}", svc.ty),
        services: vec![ServiceDescription {
            service_type: format!("urn:schemas-upnp-org:service:{}:1", svc.ty),
            service_id: format!("urn:upnp-org:serviceId:{}", svc.ty),
            control_url: format!("/service/{}/control", svc.ty),
            event_sub_url: format!("/service/{}/event", svc.ty),
            scpd_url: format!("/service/{}/scpd.xml", svc.ty),
        }],
    }
}

/// `soap://h:4004/service/t/control` → `http://h:4004/desc/t.xml`.
fn location_of(svc: &Service) -> String {
    let host = svc.url.trim_start_matches("soap://").split('/').next().unwrap_or_default();
    format!("http://{host}/desc/{}.xml", svc.ty)
}

fn advert_payload(svc: &Service) -> Vec<u8> {
    match svc.origin {
        Proto::Slp => indiss_slp::Message::new(
            indiss_slp::Header::new(indiss_slp::FunctionId::SrvReg, 1, indiss_slp::DEFAULT_LANG),
            indiss_slp::Body::SrvReg(indiss_slp::SrvReg {
                entry: indiss_slp::UrlEntry::new(svc.url.clone(), svc.ttl as u16),
                service_type: format!("service:{}", svc.ty),
                scopes: "DEFAULT".into(),
                attrs: String::new(),
            }),
        )
        .encode()
        .expect("advert encodes"),
        Proto::Ssdp => indiss_ssdp::Notify {
            nt: indiss_ssdp::SearchTarget::device_urn(&svc.ty, 1),
            nts: indiss_ssdp::NotifySubType::Alive,
            usn: format!("uuid:{}::urn:schemas-upnp-org:device:{}:1", svc.ty, svc.ty),
            location: Some(location_of(svc)),
            server: String::new(),
            max_age: svc.ttl,
        }
        .to_bytes(),
        Proto::DnsSd => {
            format!("DNSSD ANNOUNCE _{}._tcp.local SRV {} TTL {}", svc.ty, svc.url, svc.ttl)
                .into_bytes()
        }
    }
}

fn slp_query(ty: &str, xid: u16) -> Vec<u8> {
    let mut header =
        indiss_slp::Header::new(indiss_slp::FunctionId::SrvRqst, xid, indiss_slp::DEFAULT_LANG);
    header.flags = indiss_slp::FLAG_MCAST;
    indiss_slp::Message::new(
        header,
        indiss_slp::Body::SrvRqst(indiss_slp::SrvRqst {
            prlist: String::new(),
            service_type: format!("service:{ty}"),
            scopes: "DEFAULT".into(),
            predicate: String::new(),
            spi: String::new(),
        }),
    )
    .encode()
    .expect("query encodes")
}

/// SLP XIDs run 1..=65535 in request order.
fn xid_of(i: usize) -> u16 {
    (i % 65_535) as u16 + 1
}

fn schedule(seed: u64, ledger: &Ledger, n: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed, 11);
    let zipf = Zipf::new(ledger.services.len(), ZIPF_S);
    let mut order: Vec<usize> = (0..ledger.services.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (0..n)
        .map(|i| {
            let u = rng.unit();
            let pick = |rng: &mut Rng| order[zipf.sample(rng)];
            if u < SLP_SHARE {
                let s = pick(&mut rng);
                Req {
                    kind: Kind::SlpQuery,
                    proto: Proto::Slp,
                    service: Some(s),
                    payload: slp_query(&ledger.services[s].ty, xid_of(i)),
                }
            } else if u < SLP_SHARE + DNSSD_SHARE {
                let s = pick(&mut rng);
                let payload =
                    format!("DNSSD Q PTR _{}._tcp.local", ledger.services[s].ty).into_bytes();
                Req { kind: Kind::DnsQuery, proto: Proto::DnsSd, service: Some(s), payload }
            } else if u < SLP_SHARE + DNSSD_SHARE + ABSENT_SHARE {
                let ty = absent_type(seed, rng.below(256) as usize);
                if rng.chance(0.5) {
                    Req {
                        kind: Kind::SlpQuery,
                        proto: Proto::Slp,
                        service: None,
                        payload: slp_query(&ty, xid_of(i)),
                    }
                } else {
                    let payload = format!("DNSSD Q PTR _{ty}._tcp.local").into_bytes();
                    Req { kind: Kind::DnsQuery, proto: Proto::DnsSd, service: None, payload }
                }
            } else {
                let s = pick(&mut rng);
                let svc = &ledger.services[s];
                Req {
                    kind: Kind::Advert,
                    proto: svc.origin,
                    service: Some(s),
                    payload: advert_payload(svc),
                }
            }
        })
        .collect()
}

struct Gateway {
    driver: NetDriver,
    addrs: HashMap<Proto, SocketAddrV4>,
    metered: Option<Arc<Counters>>,
}

impl Drop for Gateway {
    /// Stops the transport's threads and drains the pool, also for the
    /// set-ups `host::timed_setups` discards.
    fn drop(&mut self) {
        self.driver.shutdown();
    }
}

fn start_gateway(traced: bool, ledger: &Ledger, offset: u16) -> Option<Gateway> {
    let dnssd = SdpDescriptor::dns_sd();
    let config = IndissConfig::builder()
        .slp()
        .upnp()
        .descriptor(dnssd.clone())
        .cache_ttl(Duration::from_secs(3600))
        .cache_capacity(TYPES * 2)
        .registry_capacity(TYPES * 2)
        .shards(16)
        .workers(1)
        .build();
    let descriptions = Arc::new(StaticDescriptions::new());
    for svc in ledger.services.iter().filter(|s| s.origin == Proto::Ssdp) {
        descriptions.insert(&location_of(svc), &description_for(svc).to_xml());
    }
    let batched: Arc<dyn Transport> = Arc::new(BatchedTransport::with_offset(offset));
    let (transport, metered): (Arc<dyn Transport>, _) = if traced {
        let m = Metered::new(batched);
        let c = Arc::clone(&m.counters);
        (Arc::new(m), Some(c))
    } else {
        (batched, None)
    };
    let driver =
        NetDriver::builder(config).transport(transport).describe(descriptions).start().ok()?;
    let mut addrs = HashMap::new();
    addrs.insert(Proto::Slp, driver.channel_addr(SdpProtocol::Slp)?);
    addrs.insert(Proto::Ssdp, driver.channel_addr(SdpProtocol::Upnp)?);
    addrs.insert(Proto::DnsSd, driver.channel_addr(dnssd.protocol())?);
    Some(Gateway { driver, addrs, metered })
}

/// Binds the gateway on a free port offset and loads every ledger
/// service by sending its advert over the wire.
fn setup(traced: bool, ledger: &Ledger, client: &UdpSocket) -> Gateway {
    let base = 20_000 + (std::process::id() % 1000) as u16 * 20;
    let gw = (0..50u16)
        .find_map(|k| start_gateway(traced, ledger, base.wrapping_add(k * 7) % 30_000 + 10_000))
        .expect("a free loopback port offset for the gateway");
    let adverts0 = gw.driver.front_stats().adverts_seen;
    let wait_for = |want: u64| {
        let t0 = Instant::now();
        while gw.driver.front_stats().adverts_seen < want && t0.elapsed() < Duration::from_secs(10)
        {
            std::thread::sleep(Duration::from_micros(100));
        }
    };
    for (burst, chunk) in ledger.services.chunks(LOAD_BURST).enumerate() {
        for svc in chunk {
            client.send_to(&advert_payload(svc), gw.addrs[&svc.origin]).expect("loopback send");
        }
        // One burst in flight at a time, so no socket buffer overflows.
        wait_for(adverts0 + (burst * LOAD_BURST + chunk.len()) as u64);
    }
    gw.driver.join();
    gw
}

/// What the receiver saw.
#[derive(Default)]
struct Received {
    rtt_send_us: Vec<f64>,
    rtt_due_us: Vec<f64>,
    bytes: u64,
    problems: Vec<String>,
    bad: u64,
}

pub fn run(cfg: RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let kernel = RefKernel::new();
    let ledger = Ledger::generate(cfg.seed, TYPES, &[Proto::Slp, Proto::Ssdp, Proto::DnsSd], 1800);
    let client = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("client socket");
    let (setup_t, gw) = host::timed_setups(&kernel, SETUPS, || setup(cfg.traced, &ledger, &client));
    for svc in &ledger.services {
        if !gw.driver.registry().cache_contains(svc.ty.as_str(), gw.driver.now()) {
            out.fail(|| format!("loading left type {} uncached", svc.ty));
        }
    }

    let n = (RATE * cfg.seconds).ceil() as usize;
    let reqs = schedule(cfg.seed, &ledger, n);
    let answerable =
        reqs.iter().filter(|r| r.kind != Kind::Advert && r.service.is_some()).count() as u64;
    let sent_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let sent_count = AtomicU64::new(0);
    let replied = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    client.set_read_timeout(Some(Duration::from_millis(20))).expect("timeout");
    let rx_socket = client.try_clone().expect("clone socket");
    let shared = Shared {
        reqs: &reqs,
        ledger: &ledger,
        sent_at: &sent_at,
        sent_count: &sent_count,
        replied: &replied,
        stop: &stop,
        period_ns: 1e9 / RATE,
        slp_port: gw.addrs[&Proto::Slp].port(),
        dns_port: gw.addrs[&Proto::DnsSd].port(),
        corrupt: cfg.corrupt,
    };

    let threads0 = host::threads("indiss-");
    let stats0 = gw.driver.stats();
    let front0 = gw.driver.front_stats();
    let alloc0 = crate::alloc::allocated();
    let start = Instant::now();

    let (lateness, received, answered, backlog, elapsed) = std::thread::scope(|scope| {
        let receiver = std::thread::Builder::new()
            .name("bench-receiver".into())
            .spawn_scoped(scope, || {
                crate::alloc::exclude_this_thread();
                receive(&rx_socket, &shared, start)
            })
            .expect("spawn receiver");
        let sender = std::thread::Builder::new()
            .name("bench-sender".into())
            .spawn_scoped(scope, || {
                crate::alloc::exclude_this_thread();
                let mut late = Vec::with_capacity(n);
                for (i, r) in reqs.iter().enumerate() {
                    let due = Duration::from_nanos(shared.due_ns(i) as u64);
                    let now = start.elapsed();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let at = start.elapsed();
                    let dst = match r.kind {
                        Kind::SlpQuery => gw.addrs[&Proto::Slp],
                        Kind::DnsQuery => gw.addrs[&Proto::DnsSd],
                        Kind::Advert => gw.addrs[&r.proto],
                    };
                    sent_at[i].store(at.as_nanos() as u64, Ordering::Release);
                    sent_count.store(i as u64 + 1, Ordering::Release);
                    let _ = client.send_to(&r.payload, dst);
                    late.push((at.saturating_sub(due)).as_nanos() as f64 / 1e3);
                }
                late
            })
            .expect("spawn sender");
        let late = sender.join().expect("sender thread");
        let sent_done = start.elapsed();
        // Answers still owed the moment the last request left.
        let backlog = answerable.saturating_sub(replied.load(Ordering::Acquire));
        std::thread::sleep(DRAIN);
        stop.store(true, Ordering::Release);
        let (received, answered) = receiver.join().expect("receiver thread");
        (late, received, answered, backlog, sent_done)
    });
    let window = elapsed.as_secs_f64();
    let threads1 = host::threads("indiss-");
    let alloc = crate::alloc::allocated() - alloc0;
    let stats = gw.driver.stats();
    let front = gw.driver.front_stats();

    // Every query for a ledger type must have been answered exactly once.
    let mut replies = 0u64;
    for (i, r) in reqs.iter().enumerate() {
        let expect = r.kind != Kind::Advert && r.service.is_some();
        match (expect, answered[i]) {
            (true, true) => replies += 1,
            (true, false) => out.fail(|| format!("request {i} ({:?}) was never answered", r.kind)),
            _ => {}
        }
    }
    out.failed += received.bad;
    out.problems.extend(received.problems);

    let cpu_ns = host::delta(&threads0, &threads1, "indiss-", |t: &ThreadStat| t.run_ns);
    let cpu_us_per_op = cpu_ns as f64 / 1e3 / replies.max(1) as f64;
    out.attempted += n as u64;
    out.e2e("setup_s", setup_t.norm_s);
    out.e2e("ops_per_s", 1e6 / cpu_us_per_op);
    out.e2e("cpu_us_per_op", cpu_us_per_op);
    out.e2e("alloc_bytes_per_op", alloc as f64 / replies.max(1) as f64);
    out.e2e("rss_mb", host::peak_rss_mb());
    out.e2e("response_ms", cpu_us_per_op / 1e3);
    let sent_bytes: u64 = reqs.iter().map(|r| r.payload.len() as u64).sum();
    out.e2e("net_bytes_per_op", (sent_bytes + received.bytes) as f64 / replies.max(1) as f64);

    let per = |v: u64| v as f64 / replies.max(1) as f64;
    out.layer(
        "net.reactor_cpu_us_per_op",
        per(host::delta(&threads0, &threads1, "indiss-reactor", |t| t.run_ns)) / 1e3,
    );
    out.layer(
        "net.reactor_wait_us_per_op",
        per(host::delta(&threads0, &threads1, "indiss-reactor", |t| t.wait_ns)) / 1e3,
    );
    out.layer("net.reactor_wakeups_per_op", per(front.reactor_wakeups - front0.reactor_wakeups));
    let batches: u64 =
        front.recv_batch_hist.iter().sum::<u64>() - front0.recv_batch_hist.iter().sum::<u64>();
    out.layer(
        "net.recv_batch_mean",
        (front.datagrams_received - front0.datagrams_received) as f64 / batches.max(1) as f64,
    );
    out.layer("net.rtt_p50_us", host::quantile(&received.rtt_send_us, 0.5));
    out.layer("net.rtt_p99_us", host::quantile(&received.rtt_send_us, 0.99));
    out.layer(
        "pool.worker_cpu_us_per_op",
        per(host::delta(&threads0, &threads1, "indiss-worker", |t| t.run_ns)) / 1e3,
    );
    out.layer(
        "pool.worker_wait_us_per_op",
        per(host::delta(&threads0, &threads1, "indiss-worker", |t| t.wait_ns)) / 1e3,
    );
    out.layer(
        "pool.worker_wakeups_per_op",
        per(host::delta(&threads0, &threads1, "indiss-worker", |t| t.voluntary)),
    );
    if let Some(c) = &gw.metered {
        let g = Counters::get;
        out.layer(
            "net.send_batch_us",
            g(&c.send_batch_ns) as f64 / 1e3 / g(&c.send_batches).max(1) as f64,
        );
        out.layer(
            "netfront.datagrams_per_job",
            g(&c.sink_datagrams) as f64 / g(&c.sink_calls).max(1) as f64,
        );
    }
    let decoded = front.requests_decoded - front0.requests_decoded;
    out.layer(
        "netfront.replies_per_request",
        (front.replies_sent - front0.replies_sent) as f64 / decoded.max(1) as f64,
    );
    out.layer(
        "gateway.hit_ratio",
        (stats.cache_hits - stats0.cache_hits) as f64 / decoded.max(1) as f64,
    );
    out.cost_per_op = cpu_us_per_op;

    out.detail("raw_setup_s", setup_t.raw_s);
    out.detail("setup_ref_ns", setup_t.ref_ns);
    out.detail("offered_per_s", RATE);
    out.detail("achieved_send_per_s", n as f64 / window);
    out.detail("replies", replies as f64);
    out.detail("late_p99_us", host::quantile(&lateness, 0.99));
    out.detail("late_max_us", host::quantile(&lateness, 1.0));
    out.detail("backlog_at_end", backlog as f64);
    out.detail("rtt_send_p50_us", host::quantile(&received.rtt_send_us, 0.5));
    out.detail("rtt_send_p99_us", host::quantile(&received.rtt_send_us, 0.99));
    out.detail("rtt_due_p50_us", host::quantile(&received.rtt_due_us, 0.5));
    out.detail("rtt_due_p99_us", host::quantile(&received.rtt_due_us, 0.99));
    out.detail(
        "dropped_backpressure",
        (front.dropped_backpressure - front0.dropped_backpressure) as f64,
    );
    out
}

/// What the generator's two threads share.
struct Shared<'a> {
    reqs: &'a [Req],
    ledger: &'a Ledger,
    sent_at: &'a [AtomicU64],
    sent_count: &'a AtomicU64,
    replied: &'a AtomicU64,
    stop: &'a AtomicBool,
    period_ns: f64,
    slp_port: u16,
    dns_port: u16,
    corrupt: bool,
}

impl Shared<'_> {
    /// When request `i` falls due, in ns after the start.
    fn due_ns(&self, i: usize) -> f64 {
        (i / BURST * BURST) as f64 * self.period_ns
    }
}

/// The receiver thread: matches each reply to its request and checks it
/// against the ledger until `stop` is raised.
fn receive(socket: &UdpSocket, sh: &Shared<'_>, start: Instant) -> (Received, Vec<bool>) {
    let (reqs, ledger) = (sh.reqs, sh.ledger);
    let mut answered = vec![false; reqs.len()];
    let mut got = Received::default();
    // DNS-SD replies carry no id: per type, the queries in send order.
    let mut dns_queue: HashMap<&str, (Vec<usize>, usize)> = HashMap::new();
    for (i, r) in reqs.iter().enumerate() {
        if r.kind == Kind::DnsQuery {
            if let Some(s) = r.service {
                dns_queue.entry(ledger.services[s].ty.as_str()).or_default().0.push(i);
            }
        }
    }
    let fail = |got: &mut Received, what: String| {
        got.bad += 1;
        if got.problems.len() < 8 {
            got.problems.push(what);
        }
    };
    let mut buf = vec![0u8; 2048];
    let mut altered = sh.corrupt;
    loop {
        let (len, from) = match socket.recv_from(&mut buf) {
            Ok(x) => x,
            Err(_) => {
                if sh.stop.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
        };
        let now_ns = start.elapsed().as_nanos() as f64;
        got.bytes += len as u64;
        let payload = &mut buf[..len];
        if altered && len > 8 {
            payload[len - 3] ^= 0x20;
            altered = false;
        }
        let port = match from {
            std::net::SocketAddr::V4(a) => a.port(),
            _ => 0,
        };
        let sent = sh.sent_count.load(Ordering::Acquire) as usize;
        let idx = if port == sh.slp_port {
            let msg = match indiss_slp::Message::decode(payload) {
                Ok(m) => m,
                Err(e) => {
                    fail(&mut got, format!("undecodable SLP reply: {e}"));
                    continue;
                }
            };
            let xid = msg.header.xid as usize;
            // Latest request sent with this XID.
            let mut i = xid - 1;
            if i >= sent {
                fail(&mut got, format!("SLP reply with XID {xid} before its request"));
                continue;
            }
            while i + 65_535 < sent {
                i += 65_535;
            }
            let r = &reqs[i];
            let Some(s) = r.service.filter(|_| r.kind == Kind::SlpQuery) else {
                fail(&mut got, format!("SLP reply to request {i}, which expects none"));
                continue;
            };
            let svc = &ledger.services[s];
            let want = slp_url(&svc.ty, &svc.url);
            match msg.body {
                indiss_slp::Body::SrvRply(rp) if rp.urls.first().is_some_and(|u| u.url == want) => {
                    i
                }
                other => {
                    fail(&mut got, format!("SLP reply to {i} is {other:?}, ledger {want}"));
                    continue;
                }
            }
        } else if port == sh.dns_port {
            let text = String::from_utf8_lossy(payload);
            let mut f = text.split_whitespace();
            let (Some("DNSSD"), Some("A"), Some("PTR"), Some(name), Some("SRV"), Some(url)) =
                (f.next(), f.next(), f.next(), f.next(), f.next(), f.next())
            else {
                fail(&mut got, format!("malformed DNS-SD reply {text:?}"));
                continue;
            };
            let ty = name.trim_start_matches('_').trim_end_matches("._tcp.local");
            let Some((queue, cursor)) = dns_queue.get_mut(ty) else {
                fail(&mut got, format!("DNS-SD reply for {ty}, never asked"));
                continue;
            };
            let Some(&i) = queue.get(*cursor).filter(|&&i| i < sent) else {
                fail(&mut got, format!("DNS-SD reply for {ty} with no query outstanding"));
                continue;
            };
            *cursor += 1;
            let svc =
                &ledger.services[reqs[i].service.expect("queued queries are for ledger types")];
            if url != svc.url {
                fail(&mut got, format!("DNS-SD reply for {ty} carries {url}, ledger {}", svc.url));
                continue;
            }
            i
        } else {
            fail(&mut got, format!("reply from unexpected port {port}"));
            continue;
        };
        if std::mem::replace(&mut answered[idx], true) {
            fail(&mut got, format!("request {idx} answered twice"));
            continue;
        }
        sh.replied.fetch_add(1, Ordering::Release);
        let sent_ns = sh.sent_at[idx].load(Ordering::Acquire) as f64;
        got.rtt_send_us.push((now_ns - sent_ns) / 1e3);
        got.rtt_due_us.push((now_ns - sh.due_ns(idx)) / 1e3);
    }
    (got, answered)
}
