//! The traced mode's span recorder. A span brackets one call into a
//! layer's public function; every span is added to its layer's count and
//! busy time, and the first [`RAW_CAP`] spans are kept whole and written
//! out as a Chrome/Perfetto trace at the end of the run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Recorder> = Mutex::new(Recorder::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Spans kept whole for the written trace; later spans only feed the
/// per-layer totals.
pub const RAW_CAP: usize = 200_000;

#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub busy_ns: u64,
}

pub struct Recorder {
    totals: Vec<(&'static str, Total)>,
    raw: Vec<(&'static str, u64, u64, u64)>,
}

impl Recorder {
    const fn new() -> Recorder {
        Recorder { totals: Vec::new(), raw: Vec::new() }
    }

    fn total_mut(&mut self, layer: &'static str) -> &mut Total {
        let at = match self.totals.iter().position(|(n, _)| *n == layer) {
            Some(i) => i,
            None => {
                self.totals.push((layer, Total::default()));
                self.totals.len() - 1
            }
        };
        &mut self.totals[at].1
    }
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a span: the start time when tracing is on, `None` otherwise
/// (the untraced path pays one load and one branch).
#[inline]
pub fn start() -> Option<Instant> {
    if ENABLED.load(Ordering::Relaxed) {
        Some(Instant::now())
    } else {
        None
    }
}

/// Closes a span opened by [`start`].
#[inline]
pub fn end(layer: &'static str, start: Option<Instant>) {
    if let Some(start) = start {
        let end = Instant::now();
        record(layer, start, end);
    }
}

fn record(layer: &'static str, start: Instant, end: Instant) {
    let epoch = *EPOCH.get_or_init(Instant::now);
    let dur = end.saturating_duration_since(start).as_nanos() as u64;
    let at = start.saturating_duration_since(epoch).as_nanos() as u64;
    let tid = thread_tag();
    let mut rec = RECORDER.lock().expect("span recorder poisoned");
    let total = rec.total_mut(layer);
    total.count += 1;
    total.busy_ns += dur;
    if rec.raw.len() < RAW_CAP {
        rec.raw.push((layer, at, dur, tid));
    }
}

fn thread_tag() -> u64 {
    thread_local! {
        static TAG: u64 = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            h.finish() & 0xFFFF
        };
    }
    TAG.with(|t| *t)
}

/// Count and busy time of `layer` so far.
pub fn total(layer: &'static str) -> Total {
    let rec = RECORDER.lock().expect("span recorder poisoned");
    rec.totals.iter().find(|(n, _)| *n == layer).map(|(_, t)| *t).unwrap_or_default()
}

/// Mean span length of `layer` in nanoseconds (0 when it recorded none).
pub fn mean_ns(layer: &'static str) -> f64 {
    let t = total(layer);
    if t.count == 0 {
        0.0
    } else {
        t.busy_ns as f64 / t.count as f64
    }
}

/// Writes the kept spans to `path` as a Chrome trace (`traceEvents`
/// with complete events, microsecond timestamps).
pub fn write_chrome(path: &std::path::Path) -> std::io::Result<usize> {
    use std::io::Write;
    let rec = RECORDER.lock().expect("span recorder poisoned");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    out.write_all(b"{\"traceEvents\":[\n")?;
    for (i, (name, at, dur, tid)) in rec.raw.iter().enumerate() {
        let sep = if i + 1 == rec.raw.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}}{sep}",
            *at as f64 / 1e3,
            *dur as f64 / 1e3,
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()?;
    Ok(rec.raw.len())
}
