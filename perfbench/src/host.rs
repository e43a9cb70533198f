//! Host-side measurement: the reference kernel that normalises
//! closed-loop figures for host speed, per-thread CPU and wait time from
//! `/proc`, peak RSS, and small statistics helpers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher, Hash, Hasher};
use std::time::{Duration, Instant};

/// Median time of one [`RefKernel::time`] pass on the reference host
/// (2 vCPUs, kernel 6.18, see README). Closed-loop figures are scaled by
/// `measured / NOMINAL_REF_NS` (times by its inverse), so a run on a host
/// that is momentarily slower by some factor reads the same.
pub const NOMINAL_REF_NS: f64 = 470_000.0;

/// A fixed piece of work that belongs to the benchmark, not the program:
/// string hashing, small short-lived allocations and hash-map lookups,
/// the same kinds of work the gateway does. Its map fits the L2 cache,
/// and each reading is the fastest of three passes after a warm-up pass,
/// so neither what the workload left in the caches nor a stray interrupt
/// changes the reading.
pub struct RefKernel {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    keys: Vec<u64>,
}

const REF_MAP_ENTRIES: u64 = 1 << 12;
const REF_STEPS: usize = 4_000;

impl RefKernel {
    pub fn new() -> RefKernel {
        let mut map = HashMap::with_capacity_and_hasher(
            REF_MAP_ENTRIES as usize,
            BuildHasherDefault::<DefaultHasher>::default(),
        );
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut stored = Vec::with_capacity(REF_MAP_ENTRIES as usize);
        for i in 0..REF_MAP_ENTRIES {
            x = splitmix(x);
            map.insert(x, i);
            stored.push(x);
        }
        // Half the lookups hit, half miss.
        let keys = (0..REF_STEPS)
            .map(|step| {
                x = splitmix(x);
                if step % 2 == 0 {
                    stored[(x % REF_MAP_ENTRIES) as usize]
                } else {
                    x
                }
            })
            .collect();
        RefKernel { map, keys }
    }

    /// Runs the kernel four times and returns the fastest of the last
    /// three passes' wall time in nanoseconds.
    pub fn time(&self) -> f64 {
        self.pass();
        (0..3).map(|_| self.pass()).fold(f64::INFINITY, f64::min)
    }

    fn pass(&self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        let mut text = String::with_capacity(48);
        for (i, &k) in self.keys.iter().enumerate() {
            acc = acc.wrapping_add(*self.map.get(&k).unwrap_or(&0));
            text.clear();
            text.push_str("service:ref-");
            text.push_str(itoa(k & 0xFFFF_FFFF).as_str());
            let mut h = DefaultHasher::new();
            text.hash(&mut h);
            let boxed: Vec<u8> = Vec::from(&text.as_bytes()[..8 + (i & 7)]);
            acc = acc.wrapping_add(h.finish() ^ boxed.len() as u64);
            std::hint::black_box(&boxed);
        }
        std::hint::black_box(acc);
        start.elapsed().as_nanos() as f64
    }
}

fn itoa(v: u64) -> String {
    v.to_string()
}

pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One closed-loop slice: operations done, wall and on-CPU time of the
/// measuring thread, and the reference time around it.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub ops: u64,
    pub wall_ns: f64,
    pub cpu_ns: f64,
    pub ref_ns: f64,
}

/// Whole-run figures of a closed loop: each slice's wall and CPU time is
/// scaled by its own reference reading, then the run's totals are
/// divided by its operations (a ratio of sums, so how a slice boundary
/// falls within a workload's periodic work does not matter).
#[derive(Debug, Clone, Copy)]
pub struct LoopFigures {
    pub norm_rate: f64,
    pub norm_cpu_us: f64,
    pub raw_rate: f64,
    pub raw_cpu_us: f64,
    pub ref_ns: f64,
}

pub fn loop_figures(slices: &[Slice]) -> LoopFigures {
    let ops: u64 = slices.iter().map(|s| s.ops).sum();
    let n = ops.max(1) as f64;
    let wall: f64 = slices.iter().map(|s| s.wall_ns).sum();
    let cpu: f64 = slices.iter().map(|s| s.cpu_ns).sum();
    let norm_wall: f64 = slices.iter().map(|s| s.wall_ns * NOMINAL_REF_NS / s.ref_ns).sum();
    let norm_cpu: f64 = slices.iter().map(|s| s.cpu_ns * NOMINAL_REF_NS / s.ref_ns).sum();
    let refs: Vec<f64> = slices.iter().map(|s| s.ref_ns).collect();
    LoopFigures {
        norm_rate: n / (norm_wall * 1e-9),
        norm_cpu_us: norm_cpu / 1e3 / n,
        raw_rate: n / (wall * 1e-9),
        raw_cpu_us: cpu / 1e3 / n,
        ref_ns: median(&refs),
    }
}

/// Length of one closed-loop slice between two reference passes.
pub const SLICE: Duration = Duration::from_millis(100);

/// Runs `step` (which does some operations and returns how many; its
/// argument is the current slice's index) in slices of [`SLICE`] until
/// `seconds` have passed, timing the reference kernel between slices.
pub fn closed_loop(
    kernel: &RefKernel,
    seconds: f64,
    mut step: impl FnMut(usize) -> u64,
) -> Vec<Slice> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut slices = Vec::new();
    let mut ref_before = kernel.time();
    while Instant::now() < deadline {
        let cpu0 = thread_cpu_ns();
        let t0 = Instant::now();
        let mut ops = 0;
        while t0.elapsed() < SLICE {
            ops += step(slices.len());
        }
        let wall_ns = t0.elapsed().as_nanos() as f64;
        let cpu_ns = (thread_cpu_ns() - cpu0) as f64;
        let ref_after = kernel.time();
        slices.push(Slice { ops, wall_ns, cpu_ns, ref_ns: (ref_before + ref_after) / 2.0 });
        ref_before = ref_after;
    }
    slices
}

/// Reference passes taken on each side of one timed set-up.
const SETUP_REF_PASSES: usize = 3;

/// Times `setup` `times` times, each bracketed by reference passes, and
/// returns (median normalised seconds, median raw seconds, median
/// reference ns) plus the last setup's value.
pub fn timed_setups<T>(
    kernel: &RefKernel,
    times: usize,
    mut setup: impl FnMut() -> T,
) -> (SetupTimes, T) {
    let mut norm = Vec::with_capacity(times);
    let mut raw = Vec::with_capacity(times);
    let mut refs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let mut passes: Vec<f64> = (0..SETUP_REF_PASSES).map(|_| kernel.time()).collect();
        let t0 = Instant::now();
        let value = setup();
        let secs = t0.elapsed().as_secs_f64();
        passes.extend((0..SETUP_REF_PASSES).map(|_| kernel.time()));
        let r = median(&passes);
        raw.push(secs);
        refs.push(r);
        norm.push(secs * NOMINAL_REF_NS / r);
        last = Some(value);
    }
    let times = SetupTimes { norm_s: median(&norm), raw_s: median(&raw), ref_ns: median(&refs) };
    (times, last.expect("at least one setup"))
}

#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub norm_s: f64,
    pub raw_s: f64,
    pub ref_ns: f64,
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile (0 for an empty set).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// On-CPU nanoseconds of the calling thread (first field of its
/// `schedstat`).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// Peak resident set size of the process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Counters of one thread of this process, from `/proc/self/task`.
#[derive(Debug, Clone, Default)]
pub struct ThreadStat {
    pub name: String,
    /// Nanoseconds on CPU.
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Voluntary context switches: how often the thread blocked and was
    /// woken again.
    pub voluntary: u64,
}

/// Every thread of this process whose name starts with `prefix`.
pub fn threads(prefix: &str) -> Vec<ThreadStat> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let base = entry.path();
        let Ok(name) = std::fs::read_to_string(base.join("comm")) else {
            continue;
        };
        let name = name.trim().to_owned();
        if !name.starts_with(prefix) {
            continue;
        }
        let sched = std::fs::read_to_string(base.join("schedstat")).unwrap_or_default();
        let mut f = sched.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
        let run_ns = f.next().unwrap_or(0);
        let wait_ns = f.next().unwrap_or(0);
        let status = base.join("status");
        let status = status.to_str().unwrap_or_default();
        out.push(ThreadStat {
            name,
            run_ns,
            wait_ns,
            voluntary: status_field(status, "voluntary_ctxt_switches:").unwrap_or(0),
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Sum of `f` over the threads named `name*`, as a delta between two
/// snapshots.
pub fn delta(
    before: &[ThreadStat],
    after: &[ThreadStat],
    name: &str,
    f: fn(&ThreadStat) -> u64,
) -> u64 {
    let sum = |set: &[ThreadStat]| -> u64 {
        set.iter().filter(|t| t.name.starts_with(name)).map(f).sum()
    };
    sum(after).saturating_sub(sum(before))
}
