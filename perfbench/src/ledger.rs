//! The input generator and its independent ledger: a seeded RNG, a Zipf
//! popularity sampler, and the record of every service (type, endpoint
//! URL, lease) the workloads check the program's answers against.

use crate::host::splitmix;

/// A small seeded generator (splitmix64 stream).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Samples ranks `0..n` with probability proportional to `1 / (rank+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Which discovery protocol a service (or a request) speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    Slp,
    Ssdp,
    DnsSd,
}

/// One service the generator created.
#[derive(Debug, Clone)]
pub struct Service {
    /// Canonical type name (lowercase alphanumerics, so every protocol's
    /// canonicalisation maps it to itself).
    pub ty: String,
    /// The endpoint URL the gateway must hand out for this type.
    pub url: String,
    /// The protocol the service advertises with.
    pub origin: Proto,
    /// Advertised lease, seconds.
    pub ttl: u32,
}

/// The ledger: every service by index, kept by the benchmark alone.
pub struct Ledger {
    pub services: Vec<Service>,
}

/// A type name no service of the ledger has (queried to check that the
/// gateway never answers for a type nobody offers).
pub fn absent_type(seed: u64, i: usize) -> String {
    format!("absent{:x}n{i}", seed & 0xFFFF)
}

impl Ledger {
    /// `n` services with seed-dependent names, origins rotating through
    /// `origins`.
    pub fn generate(seed: u64, n: usize, origins: &[Proto], ttl: u32) -> Ledger {
        let mut rng = Rng::new(seed, 1);
        let services = (0..n)
            .map(|i| {
                let origin = origins[i % origins.len()];
                let ty = format!("t{:x}k{i}", seed & 0xFFFF);
                let host =
                    format!("10.{}.{}.{}", 1 + rng.below(200), rng.below(250), 1 + rng.below(250));
                let url = match origin {
                    Proto::Slp => format!("service:{ty}:lpr://{host}:515/q{i}"),
                    Proto::Ssdp => format!("soap://{host}:4004/service/{ty}/control"),
                    Proto::DnsSd => format!("scan://{host}:6566/{ty}"),
                };
                Service { ty, url, origin, ttl }
            })
            .collect();
        Ledger { services }
    }
}

/// The URL an SLP reply must carry for an endpoint (`soap://h/p` for
/// type `t` is `service:t:soap://h/p`; native SLP URLs pass unchanged).
pub fn slp_url(ty: &str, endpoint: &str) -> String {
    if endpoint.starts_with("service:") {
        endpoint.to_owned()
    } else {
        format!("service:{ty}:{endpoint}")
    }
}
