//! Tracing from outside the program: a delegating [`Fabric`] that times
//! every transport call, and an in-memory span log written out when the
//! run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipmcoll_fabric::{
    ChanKey, Fabric, FabricDiag, FabricError, FabricHealth, FabricResult, FabricStats, WireChaos,
};

/// Calls and time spent in one fabric entry point.
#[derive(Default)]
pub struct CallStats {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl CallStats {
    fn record(&self, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Statistics only: nothing else is published through these.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total time inside the call, nanoseconds.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// What [`TimedFabric`] measured.
#[derive(Default)]
pub struct FabricTimes {
    /// Whether calls are being timed; off, the wrapper only forwards.
    enabled: AtomicBool,
    /// `send`.
    pub send: CallStats,
    /// `try_recv`.
    pub try_recv: CallStats,
    /// `try_recv` calls that returned a message.
    pub try_hits: AtomicU64,
    /// Blocking receives (`recv` and `recv_within`).
    pub recv: CallStats,
}

impl FabricTimes {
    /// Start or stop timing calls.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

/// A [`Fabric`] that forwards every trait method to `inner` and times
/// the data-path ones. Control methods (`health`, `diag`,
/// `drain_errors`, `kill_lane`, `install_chaos`, `reset`, `stats`) are
/// forwarded untimed so fault handling above it behaves as without it.
pub struct TimedFabric {
    inner: Arc<dyn Fabric>,
    times: Arc<FabricTimes>,
}

impl TimedFabric {
    /// Wrap `inner`, timing on; the returned counters fill as calls
    /// pass through.
    pub fn new(inner: Arc<dyn Fabric>) -> (TimedFabric, Arc<FabricTimes>) {
        let times = Arc::new(FabricTimes::default());
        times.set_enabled(true);
        (
            TimedFabric {
                inner,
                times: Arc::clone(&times),
            },
            times,
        )
    }
}

impl Fabric for TimedFabric {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn lanes(&self) -> usize {
        self.inner.lanes()
    }
    fn send(&self, key: ChanKey, payload: Vec<u8>) -> FabricResult<()> {
        if !self.times.on() {
            return self.inner.send(key, payload);
        }
        let t = Instant::now();
        let r = self.inner.send(key, payload);
        self.times.send.record(t);
        r
    }
    fn recv_within(&self, key: ChanKey, timeout: Duration) -> FabricResult<Vec<u8>> {
        if !self.times.on() {
            return self.inner.recv_within(key, timeout);
        }
        let t = Instant::now();
        let r = self.inner.recv_within(key, timeout);
        self.times.recv.record(t);
        r
    }
    fn recv(&self, key: ChanKey) -> FabricResult<Vec<u8>> {
        if !self.times.on() {
            return self.inner.recv(key);
        }
        let t = Instant::now();
        let r = self.inner.recv(key);
        self.times.recv.record(t);
        r
    }
    fn try_recv(&self, key: ChanKey) -> FabricResult<Option<Vec<u8>>> {
        if !self.times.on() {
            return self.inner.try_recv(key);
        }
        let t = Instant::now();
        let r = self.inner.try_recv(key);
        self.times.try_recv.record(t);
        if matches!(r, Ok(Some(_))) {
            self.times.try_hits.fetch_add(1, Ordering::Relaxed);
        }
        r
    }
    fn reset(&self) {
        self.inner.reset()
    }
    fn stats(&self) -> FabricStats {
        self.inner.stats()
    }
    fn diag(&self) -> FabricDiag {
        self.inner.diag()
    }
    fn drain_errors(&self) -> Vec<FabricError> {
        self.inner.drain_errors()
    }
    fn kill_lane(&self, lane: usize) -> bool {
        self.inner.kill_lane(lane)
    }
    fn install_chaos(&self, chaos: Arc<WireChaos>) -> bool {
        self.inner.install_chaos(chaos)
    }
    fn health(&self) -> FabricHealth {
        self.inner.health()
    }
}

/// One timed interval at a layer boundary, recorded by the benchmark
/// around its own call into the program.
pub struct Span {
    /// The request (svc) or iteration (runtime) this span belongs to;
    /// every span of one request shares it.
    pub id: u64,
    /// Boundary name, e.g. `svc.submit`.
    pub name: &'static str,
    /// Name of the span that caused this one, within the same `id`.
    pub parent: Option<&'static str>,
    /// Rank that made the call, where one did.
    pub rank: Option<usize>,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

/// Spans kept in memory for the length of a run, up to a cap.
pub struct SpanLog {
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    /// An empty log holding at most `cap` spans; later ones are counted
    /// as dropped.
    pub fn new(cap: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            cap,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record `[start, end]` as span `name` of request/iteration `id`.
    pub fn push(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        rank: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            name,
            parent,
            rank,
            start_ns,
            end_ns,
        });
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the log as JSON lines: a header object, then one object
    /// per span.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"header\": {header}, \"spans\": {}, \"dropped\": {}}}",
            self.spans.len(),
            self.dropped
        )?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let rank = s.rank.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"name\": \"{}\", \"parent\": {parent}, \"rank\": {rank}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_fabric::InProcFabric;

    /// Drive one fixed send/receive script and return what each receive
    /// got plus the fabric's own counters.
    fn script(f: &dyn Fabric) -> (Vec<Vec<u8>>, FabricStats) {
        let chans = [(0, 1, 7), (1, 0, 7), (0, 1, 8), (2, 1, 7)];
        for round in 0..5u8 {
            for (i, &c) in chans.iter().enumerate() {
                f.send(c, vec![round, i as u8]).expect("inproc send");
            }
        }
        let mut got = Vec::new();
        // A channel with nothing queued reports nothing.
        assert_eq!(f.try_recv((3, 1, 7)).expect("inproc try_recv"), None);
        for &c in chans.iter().rev() {
            got.push(f.try_recv(c).expect("inproc try_recv").expect("queued"));
            for _ in 1..5 {
                got.push(f.recv(c).expect("inproc recv"));
            }
        }
        (got, f.stats())
    }

    #[test]
    fn wrapper_keeps_matching_fifo_and_counts() {
        let bare = InProcFabric::new();
        let (wrapped, times) = TimedFabric::new(Arc::new(InProcFabric::new()));
        let (want, want_stats) = script(&bare);
        let (got, got_stats) = script(&wrapped);
        assert_eq!(got, want, "same messages in the same order");
        assert_eq!(got_stats, want_stats, "same fabric counters");
        // Per channel, payloads arrive in send order and only on their
        // own channel: channel i's j-th message is [j, i].
        for (k, msg) in got.iter().enumerate() {
            let chan = 3 - k / 5;
            assert_eq!(msg, &vec![(k % 5) as u8, chan as u8]);
        }
        assert_eq!(times.send.calls(), 20);
        assert_eq!(times.try_recv.calls(), 5);
        assert_eq!(times.try_hits.load(Ordering::Relaxed), 4);
        assert_eq!(times.recv.calls(), 16);
        times.set_enabled(false);
        wrapped.send((0, 1, 9), vec![1]).expect("inproc send");
        assert_eq!(wrapped.recv((0, 1, 9)).expect("inproc recv"), vec![1]);
        assert_eq!(times.send.calls(), 20, "untimed while disabled");
        assert_eq!(wrapped.name(), "inproc");
        assert_eq!(wrapped.lanes(), 1);
        assert!(!wrapped.kill_lane(0), "inproc declines lane kills");
        assert!(wrapped.drain_errors().is_empty());
        assert_eq!(wrapped.health(), FabricHealth::default());
    }

    #[test]
    fn span_log_caps_and_writes() {
        let mut log = SpanLog::new(2);
        let t = Instant::now();
        for id in 0..3 {
            log.push(id, "svc.request", None, None, t, t);
        }
        assert_eq!(log.len(), 2);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        log.write(&path, "{}").expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"header\": {}, \"spans\": 2, \"dropped\": 1}"));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
