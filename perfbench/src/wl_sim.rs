//! `sim_bridge`: the paper's cold path in the deterministic simulator.
//!
//! An `Indiss` gateway with its response cache off sits on its own node
//! of the virtual 10 Mb/s LAN, between SLP clients and UPnP devices and
//! between UPnP control points and SLP services. Every lookup is
//! bridged cold: the SLP unit's or UPnP unit's full discovery process
//! runs (SSDP search → HTTP description fetch → XML parse → compose, or
//! SLP SrvRqst → AttrRqst → compose). Response time is the client's
//! waiting time in virtual time (the paper's §4.3 metric); traffic is
//! what crossed the simulated LAN.

use std::time::Duration;

use indiss_core::{Indiss, IndissConfig};
use indiss_net::{Node, World};
use indiss_slp::{AttributeList, Registration, ServiceAgent, SlpConfig, UserAgent};
use indiss_ssdp::SearchTarget;
use indiss_upnp::{
    ControlPoint, ControlPointConfig, DeviceDescription, ServiceDescription, UpnpConfig, UpnpDevice,
};

use crate::host::{self, splitmix, RefKernel};
use crate::ledger::slp_url;
use crate::{trace, Outcome, RunCfg};

/// UPnP devices and SLP services per world.
pub const SERVICES_PER_SIDE: usize = 4;
/// Lookups per round: every service of both sides once, alternating
/// directions.
pub const LOOKUPS_PER_ROUND: usize = 2 * SERVICES_PER_SIDE;
/// Rounds run on one LAN before the next is built, so virtual time on a
/// LAN stays below 20 minutes.
const ROUNDS_PER_LAN: usize = 100;
/// Set-ups timed per run (the median is reported).
const SETUPS: usize = 41;
/// Virtual time each lookup is given to complete.
const LOOKUP_WINDOW: Duration = Duration::from_secs(1);

fn device_description(ty: &str, node: &Node) -> DeviceDescription {
    DeviceDescription {
        device_type: format!("urn:schemas-upnp-org:device:{ty}:1"),
        friendly_name: format!("Device {ty}"),
        manufacturer: "perfbench".into(),
        manufacturer_url: "http://example.invalid".into(),
        model_description: "benchmark device".into(),
        model_name: "bench".into(),
        model_number: "1".into(),
        model_url: "http://example.invalid".into(),
        udn: format!("uuid:{ty}-{}", node.addr()),
        services: vec![ServiceDescription::conventional(ty, 1)],
    }
}

/// One simulated LAN with its services and clients.
struct Lan {
    world: World,
    indiss: Option<Indiss>,
    ua: UserAgent,
    cp: ControlPoint,
    /// (type, endpoint URL the SLP client must receive, description XML)
    devices: Vec<(String, String, String)>,
    _device_handles: Vec<UpnpDevice>,
    /// (type, service URL the UPnP client's search must resolve to)
    slp_services: Vec<(String, String)>,
    _sas: Vec<ServiceAgent>,
}

fn world_seed(seed: u64, round: u64) -> u64 {
    splitmix(seed ^ splitmix(round.wrapping_add(0x51)))
}

fn type_name(seed: u64, side: char, k: usize) -> String {
    format!("{side}{:x}v{k}", seed & 0xFFFF)
}

/// Builds round `round`'s LAN. `with_indiss` false gives the native
/// baseline: the same hosts and services, no gateway.
fn build(seed: u64, round: u64, with_indiss: bool) -> Lan {
    let world = World::new(world_seed(seed, round));
    let gateway = world.add_node("gateway");
    let client = world.add_node("slp-client");
    let cp_node = world.add_node("upnp-cp");
    let mut devices = Vec::new();
    let mut handles = Vec::new();
    for k in 0..SERVICES_PER_SIDE {
        let ty = type_name(seed, 'd', k);
        let node = world.add_node(&format!("device-{k}"));
        let desc = device_description(&ty, &node);
        let xml = desc.to_xml();
        let dev = UpnpDevice::start(&node, desc, UpnpConfig::default()).expect("sim bind");
        let endpoint = format!("soap://{}:4004/service/{ty}/control", node.addr());
        devices.push((ty, endpoint, xml));
        handles.push(dev);
    }
    let mut slp_services = Vec::new();
    let mut sas = Vec::new();
    for k in 0..SERVICES_PER_SIDE {
        let ty = type_name(seed, 's', k);
        let node = world.add_node(&format!("slp-host-{k}"));
        let sa = ServiceAgent::start(&node, SlpConfig::default()).expect("sim bind");
        let url = format!("service:{ty}://{}:{}/svc", node.addr(), 5000 + k);
        sa.register(
            Registration::new(&url, AttributeList::parse("(friendlyName=bench)").expect("attrs"))
                .expect("registration"),
        );
        slp_services.push((ty, url));
        sas.push(sa);
    }
    let indiss = with_indiss.then(|| {
        Indiss::deploy(&gateway, IndissConfig::slp_upnp().without_cache()).expect("deploy")
    });
    let ua = UserAgent::start(&client, SlpConfig::default()).expect("sim bind");
    let cp = ControlPoint::start(&cp_node, ControlPointConfig::default()).expect("sim bind");
    world.run_for(Duration::from_millis(100));
    world.meter_reset();
    Lan { world, indiss, ua, cp, devices, _device_handles: handles, slp_services, _sas: sas }
}

/// One finished lookup.
struct Lookup {
    bridged_slp_to_upnp: bool,
    response: Option<Duration>,
    bytes: u64,
    datagrams: u64,
}

/// Runs one lookup on `lan` and checks its answer; returns what it saw.
fn lookup(lan: &Lan, k: usize, corrupt: bool, out: &mut Outcome) -> Lookup {
    let world = &lan.world;
    world.meter_reset();
    let t0 = world.now();
    let slp_to_upnp = k.is_multiple_of(2);
    let which = (k / 2) % SERVICES_PER_SIDE;
    if slp_to_upnp {
        let (ty, endpoint, xml) = &lan.devices[which];
        let (_first, done) = lan.ua.find_services(world, &format!("service:{ty}"), "");
        let span = trace::start();
        world.run_for(LOOKUP_WINDOW);
        trace::end("runtime.run_for_us_per_op", span);
        if trace::enabled() {
            let span = trace::start();
            let parsed = DeviceDescription::from_xml(xml);
            trace::end("upnp.description_parse_us", span);
            std::hint::black_box(parsed.is_ok());
        }
        let outcome = done.take();
        let mut got = outcome.as_ref().and_then(|o| o.urls.first()).map(|u| u.url.clone());
        if corrupt {
            if let Some(u) = got.as_mut() {
                u.push('x');
            }
        }
        let want = slp_url(ty, endpoint);
        if got.as_deref() != Some(want.as_str()) {
            out.fail(|| format!("SLP lookup of {ty} got {got:?}, ledger {want}"));
        }
        let meter = world.meter_snapshot();
        world.meter_reset();
        Lookup {
            bridged_slp_to_upnp: true,
            response: outcome.and_then(|o| o.response_time()),
            bytes: meter.total_bytes(),
            datagrams: meter.packet_count() as u64,
        }
    } else {
        let (ty, url) = &lan.slp_services[which];
        let (first, _all) = lan.cp.search(world, SearchTarget::device_urn(ty, 1));
        let span = trace::start();
        world.run_for(LOOKUP_WINDOW);
        trace::end("runtime.run_for_us_per_op", span);
        let found = first.take();
        let meter = world.meter_snapshot();
        world.meter_reset();
        let mut ok = found.as_ref().is_some_and(|d| d.st == SearchTarget::device_urn(ty, 1));
        // The bridged answer points at a synthetic description that must
        // resolve to the SLP service's own URL.
        let resolved = found.as_ref().and_then(|d| {
            let done = lan.cp.fetch_description(world, &d.location);
            world.run_for(LOOKUP_WINDOW);
            done.take().flatten()
        });
        world.meter_reset();
        let mut names_url = resolved.is_some_and(|desc| desc.to_xml().contains(url.as_str()));
        if corrupt {
            names_url = false;
        }
        ok &= names_url;
        if !ok {
            out.fail(|| {
                format!("UPnP search for {ty} at {t0:?} did not resolve to {url}: found {found:?}")
            });
        }
        Lookup {
            bridged_slp_to_upnp: false,
            response: found.map(|d| d.last_seen - t0),
            bytes: meter.total_bytes(),
            datagrams: meter.packet_count() as u64,
        }
    }
}

pub fn run(cfg: RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let kernel = RefKernel::new();
    let (setup, mut lan) = host::timed_setups(&kernel, SETUPS, || build(cfg.seed, 0, true));

    let mut lookups: Vec<Lookup> = Vec::new();
    let mut datagrams = 0u64;
    let mut fanouts = 0u64;
    let mut rounds = 0usize;
    let mut rss_mb = None;
    let alloc0 = crate::alloc::allocated();
    let corrupt = cfg.corrupt;
    let slices = host::closed_loop(&kernel, cfg.seconds, |_| {
        if rounds > 0 && rounds.is_multiple_of(ROUNDS_PER_LAN) {
            rss_mb.get_or_insert_with(host::peak_rss_mb);
            lan = build(cfg.seed, (rounds / ROUNDS_PER_LAN) as u64, true);
        }
        let indiss = lan.indiss.as_ref().expect("bridged LAN");
        let before = indiss.stats().requests_bridged;
        // One round: every service of both sides looked up once.
        for k in 0..LOOKUPS_PER_ROUND {
            let l = lookup(&lan, k, corrupt && rounds == 0 && k == 1, &mut out);
            datagrams += l.datagrams;
            lookups.push(l);
        }
        fanouts += indiss.stats().requests_bridged - before;
        rounds += 1;
        LOOKUPS_PER_ROUND as u64
    });
    let alloc = crate::alloc::allocated() - alloc0;
    let fig = host::loop_figures(&slices);
    let ops = lookups.len() as u64;

    let times = |dir: bool| -> Vec<f64> {
        lookups
            .iter()
            .filter(|l| l.bridged_slp_to_upnp == dir)
            .filter_map(|l| l.response.map(|d| d.as_secs_f64() * 1e3))
            .collect()
    };
    let slp_to_upnp = host::median(&times(true));
    let upnp_to_slp = host::median(&times(false));
    let bytes: u64 = lookups.iter().map(|l| l.bytes).sum();
    check_against_native(cfg.seed, &lookups, &mut out);

    out.attempted += ops;
    out.e2e("setup_s", setup.norm_s);
    out.e2e("ops_per_s", fig.norm_rate);
    out.e2e("cpu_us_per_op", fig.norm_cpu_us);
    out.e2e("alloc_bytes_per_op", alloc as f64 / ops as f64);
    // Read after the first LAN's fixed amount of work: the simulator
    // keeps memory per bridged lookup (see README), so a peak read at the
    // end would grow with throughput.
    out.e2e("rss_mb", rss_mb.unwrap_or_else(host::peak_rss_mb));
    out.e2e("response_ms", (slp_to_upnp + upnp_to_slp) / 2.0);
    out.e2e("net_bytes_per_op", bytes as f64 / ops as f64);

    out.layer("upnp.description_parse_us", trace::mean_ns("upnp.description_parse_us") / 1e3);
    out.layer(
        "runtime.run_for_us_per_op",
        trace::total("runtime.run_for_us_per_op").busy_ns as f64 / 1e3 / ops as f64,
    );
    out.layer("runtime.datagrams_per_op", datagrams as f64 / ops as f64);
    out.layer("runtime.fanouts_per_op", fanouts as f64 / ops as f64);
    out.cost_per_op = 1.0 / fig.raw_rate;

    out.detail("raw_setup_s", setup.raw_s);
    out.detail("setup_ref_ns", setup.ref_ns);
    out.detail("raw_ops_per_s", fig.raw_rate);
    out.detail("raw_cpu_us_per_op", fig.raw_cpu_us);
    out.detail("ref_ns", fig.ref_ns);
    out.detail("slices", slices.len() as f64);
    out.detail("slp_to_upnp_ms", slp_to_upnp);
    out.detail("upnp_to_slp_ms", upnp_to_slp);
    out
}

/// A bridged lookup must wait longer, and put more bytes on the LAN,
/// than the native lookup of the same service in the same world (round
/// 0's seed) without the gateway.
fn check_against_native(seed: u64, bridged: &[Lookup], out: &mut Outcome) {
    let lan = build(seed, 0, false);
    let world = &lan.world;
    for (k, b) in bridged.iter().take(2 * SERVICES_PER_SIDE).enumerate() {
        let which = (k / 2) % SERVICES_PER_SIDE;
        let t0 = world.now();
        let native = if k % 2 == 0 {
            // Native UPnP: the control point finds the device itself.
            let (ty, _, _) = &lan.devices[which];
            let (first, _) = lan.cp.search(world, SearchTarget::device_urn(ty, 1));
            world.run_for(LOOKUP_WINDOW);
            first.take().map(|d| d.last_seen - t0)
        } else {
            // Native SLP: the user agent finds the service itself.
            let (ty, _) = &lan.slp_services[which];
            let (_, done) = lan.ua.find_services(world, &format!("service:{ty}"), "");
            world.run_for(LOOKUP_WINDOW);
            done.take().and_then(|o| o.response_time())
        };
        let native_bytes = world.meter_snapshot().total_bytes();
        world.meter_reset();
        match (b.response, native) {
            (Some(bt), Some(nt)) if bt > nt && b.bytes > native_bytes => {}
            (bt, nt) => out.fail(|| {
                format!("lookup {k}: bridged {bt:?} / {} B is not slower and larger than native {nt:?} / {native_bytes} B", b.bytes)
            }),
        }
    }
}
