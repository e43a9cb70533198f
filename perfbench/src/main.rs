//! `perfbench` — the INDISS gateway's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <warm_lookup|advert_churn|udp_gateway|sim_bridge>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! Each workload builds its inputs from `--seed`, checks every answer
//! against the generator's own ledger, and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it carries the
//! raw (unnormalised) figures, the reference-kernel time and the
//! workload's own diagnostics. See README.md for what each figure means.

mod alloc;
mod host;
mod ledger;
mod metered;
mod trace;
mod wl_churn;
mod wl_lookup;
mod wl_sim;
mod wl_udp;

#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics, in the order printed. Every workload reports all.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("alloc_bytes_per_op", "B"),
    ("rss_mb", "MB"),
    ("response_ms", "ms"),
    ("net_bytes_per_op", "B"),
];

/// Per-layer metrics, in the order printed. A layer a workload does not
/// exercise reads 0 there (README lists which workload moves which).
pub const LAYERS: &[(&str, &str)] = &[
    ("net.reactor_cpu_us_per_op", "us"),
    ("net.reactor_wait_us_per_op", "us"),
    ("net.reactor_wakeups_per_op", "count"),
    ("net.recv_batch_mean", "count"),
    ("net.send_batch_us", "us"),
    ("net.rtt_p50_us", "us"),
    ("net.rtt_p99_us", "us"),
    ("pool.worker_cpu_us_per_op", "us"),
    ("pool.worker_wait_us_per_op", "us"),
    ("pool.worker_wakeups_per_op", "count"),
    ("netfront.datagrams_per_job", "count"),
    ("netfront.replies_per_request", "ratio"),
    ("units.slp_parse_ns", "ns"),
    ("units.ssdp_parse_ns", "ns"),
    ("units.descriptor_parse_ns", "ns"),
    ("slp.encode_ns", "ns"),
    ("ssdp.encode_ns", "ns"),
    ("gateway.classify_ns", "ns"),
    ("registry.cached_response_ns", "ns"),
    ("gateway.hit_ratio", "ratio"),
    ("registry.warm_us", "us"),
    ("registry.record_advert_us", "us"),
    ("registry.sweep_us", "us"),
    ("registry.content_digest_us", "us"),
    ("mesh.round_us", "us"),
    ("mesh.bytes_per_round", "B"),
    ("mesh.records_applied_per_round", "count"),
    ("mesh.rounds_to_converge", "count"),
    ("upnp.description_parse_us", "us"),
    ("runtime.run_for_us_per_op", "us"),
    ("runtime.datagrams_per_op", "count"),
    ("runtime.fanouts_per_op", "count"),
    ("symbol.intern_ns", "ns"),
    ("symbol.interned_bytes", "B"),
    ("trace.slowdown", "ratio"),
];

pub const WORKLOADS: &[&str] = &["warm_lookup", "advert_churn", "udp_gateway", "sim_bridge"];

/// How one workload run is asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    /// Record spans and per-layer figures.
    pub traced: bool,
    /// Alter one answer before it is checked (the self-test).
    pub corrupt: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    pub detail: Vec<(String, f64)>,
    /// Cost of one operation on the workload's own scale (wall or CPU
    /// time, not normalised), for the traced run's slowdown figure.
    pub cost_per_op: f64,
}

impl Outcome {
    /// Counts one failed check; the first few are kept for stderr.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what());
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    pub fn detail(&mut self, name: &str, value: f64) {
        self.detail.push((name.to_owned(), value));
    }
}

fn run_workload(name: &str, cfg: RunCfg) -> Outcome {
    match name {
        "warm_lookup" => wl_lookup::run(cfg),
        "advert_churn" => wl_churn::run(cfg),
        "udp_gateway" => wl_udp::run(cfg),
        "sim_bridge" => wl_sim::run(cfg),
        other => unreachable!("workload {other} was validated"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, self_test: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        std::process::exit(self_test(args.seed));
    }

    let cfg = RunCfg { seed: args.seed, seconds: args.seconds, traced: false, corrupt: false };
    let (out, metrics): (Outcome, Vec<(&str, f64, &str)>) = if args.trace {
        // Same seed twice: an untraced half for the baseline cost, then
        // the traced half that yields the per-layer figures.
        let half = RunCfg { seconds: args.seconds / 2.0, ..cfg };
        let base = run_workload(&args.workload, half);
        trace::set_enabled(true);
        let mut traced = run_workload(&args.workload, RunCfg { traced: true, ..half });
        trace::set_enabled(false);
        let slowdown = traced.cost_per_op / base.cost_per_op;
        traced.layer("trace.slowdown", slowdown);
        traced.attempted += base.attempted;
        traced.failed += base.failed;
        traced.problems.extend(base.problems.iter().cloned());
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
        let path = std::path::Path::new(&dir)
            .join("perfbench-trace")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        match trace::write_chrome(&path) {
            Ok(n) => eprintln!("perfbench: wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
        }
        let metrics = LAYERS
            .iter()
            .map(|&(name, unit)| {
                let v = traced.layers.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
                (name, v, unit)
            })
            .collect();
        (traced, metrics)
    } else {
        let out = run_workload(&args.workload, cfg);
        let metrics = E2E
            .iter()
            .map(|&(name, unit)| {
                let v = out.e2e.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
                (name, v.expect("every workload reports every end-to-end metric"), unit)
            })
            .collect();
        (out, metrics)
    };

    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let detail: Vec<String> =
        out.detail.iter().map(|(k, v)| format!("\"{k}\": {}", fmt_num(*v))).collect();
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", fmt_num(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

/// Runs every workload briefly with one answer altered and checks that
/// each run notices. Returns the process exit code.
fn self_test(seed: u64) -> i32 {
    let mut code = 0;
    for &w in WORKLOADS {
        let out = run_workload(w, RunCfg { seed, seconds: 1.0, traced: false, corrupt: true });
        let caught = out.failed > 0;
        println!(
            "{{\"self_test\": \"{w}\", \"attempted\": {}, \"failed\": {}, \"caught\": {caught}}}",
            out.attempted, out.failed
        );
        for p in &out.problems {
            eprintln!("perfbench: {w}: {p}");
        }
        if !caught {
            code = 1;
        }
    }
    code
}
