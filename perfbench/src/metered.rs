//! A [`Transport`] wrapper that counts what crosses the transport seam:
//! bytes and datagrams sent, sink calls (one per delivered batch) and the
//! time spent in `send_batch`. It forwards everything else unchanged, so
//! the program under it behaves as on the bare transport.

use std::net::SocketAddrV4;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use indiss_net::{
    BindSpec, Datagram, IoStats, NetResult, Transport, TransportBatchSink, TransportKind,
    TransportSink, TransportSocket,
};

#[derive(Debug, Default)]
pub struct Counters {
    pub bytes_sent: AtomicU64,
    pub datagrams_sent: AtomicU64,
    pub sink_calls: AtomicU64,
    pub sink_datagrams: AtomicU64,
    pub send_batches: AtomicU64,
    pub send_batch_ns: AtomicU64,
}

impl Counters {
    pub fn get(v: &AtomicU64) -> u64 {
        v.load(Ordering::Relaxed)
    }
}

pub struct Metered {
    inner: Arc<dyn Transport>,
    pub counters: Arc<Counters>,
}

impl Metered {
    pub fn new(inner: Arc<dyn Transport>) -> Metered {
        Metered { inner, counters: Arc::new(Counters::default()) }
    }

    fn wrap(&self, socket: Arc<dyn TransportSocket>) -> Arc<dyn TransportSocket> {
        Arc::new(MeteredSocket { inner: socket, counters: Arc::clone(&self.counters) })
    }

    fn wrap_sink(&self, sink: TransportSink) -> TransportSink {
        let c = Arc::clone(&self.counters);
        Arc::new(move |d: Datagram| {
            c.sink_calls.fetch_add(1, Ordering::Relaxed);
            c.sink_datagrams.fetch_add(1, Ordering::Relaxed);
            sink(d);
        })
    }

    fn wrap_batch_sink(&self, sink: TransportBatchSink) -> TransportBatchSink {
        let c = Arc::clone(&self.counters);
        Arc::new(move |batch: Vec<Datagram>| {
            c.sink_calls.fetch_add(1, Ordering::Relaxed);
            c.sink_datagrams.fetch_add(batch.len() as u64, Ordering::Relaxed);
            sink(batch);
        })
    }
}

impl Transport for Metered {
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn bind(&self, spec: &BindSpec, sink: TransportSink) -> NetResult<Arc<dyn TransportSocket>> {
        let socket = self.inner.bind(spec, self.wrap_sink(sink))?;
        Ok(self.wrap(socket))
    }

    fn bind_client(&self, sink: TransportSink) -> NetResult<Arc<dyn TransportSocket>> {
        let socket = self.inner.bind_client(self.wrap_sink(sink))?;
        Ok(self.wrap(socket))
    }

    fn bind_batched(
        &self,
        spec: &BindSpec,
        sink: TransportBatchSink,
    ) -> NetResult<Arc<dyn TransportSocket>> {
        let socket = self.inner.bind_batched(spec, self.wrap_batch_sink(sink))?;
        Ok(self.wrap(socket))
    }

    fn bind_client_batched(&self, sink: TransportBatchSink) -> NetResult<Arc<dyn TransportSocket>> {
        let socket = self.inner.bind_client_batched(self.wrap_batch_sink(sink))?;
        Ok(self.wrap(socket))
    }

    fn map_port(&self, port: u16) -> u16 {
        self.inner.map_port(port)
    }

    fn io_stats(&self) -> Option<IoStats> {
        self.inner.io_stats()
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

struct MeteredSocket {
    inner: Arc<dyn TransportSocket>,
    counters: Arc<Counters>,
}

impl TransportSocket for MeteredSocket {
    fn send_to(&self, payload: &[u8], dst: SocketAddrV4) -> NetResult<usize> {
        self.counters.bytes_sent.fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.counters.datagrams_sent.fetch_add(1, Ordering::Relaxed);
        self.inner.send_to(payload, dst)
    }

    fn local_addr(&self) -> SocketAddrV4 {
        self.inner.local_addr()
    }

    fn multicast_ready(&self) -> bool {
        self.inner.multicast_ready()
    }

    fn send_batch(&self, batch: &[(Vec<u8>, SocketAddrV4)]) -> usize {
        let bytes: usize = batch.iter().map(|(p, _)| p.len()).sum();
        self.counters.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        self.counters.datagrams_sent.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let t0 = Instant::now();
        let sent = self.inner.send_batch(batch);
        let ns = t0.elapsed().as_nanos() as u64;
        self.counters.send_batches.fetch_add(1, Ordering::Relaxed);
        self.counters.send_batch_ns.fetch_add(ns, Ordering::Relaxed);
        sent
    }
}
