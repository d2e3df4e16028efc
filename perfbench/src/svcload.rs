//! The service workloads: a closed loop from one generator
//! thread, keeping a fixed number of requests outstanding round-robin
//! over the jobs, each result checked against its reference.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipmcoll_core::nb::{CollSpec, Msg};
use pipmcoll_fabric::{Fabric, FabricStats, InProcFabric, TcpConfig, TcpFabric};
use pipmcoll_model::Topology;
use pipmcoll_svc::{Job, Request, Svc, SvcConfig};

use crate::inputs::{all_ranks_match, Item};
use crate::stats::{Slicer, Window};
use crate::traced::{FabricTimes, SpanLog, TimedFabric};

/// Which transport a service workload runs over.
#[derive(Clone, Copy, Debug)]
pub enum Net {
    /// In-process channels: no socket, no progress thread.
    InProc,
    /// Loopback TCP with `nodes` nodes of `world / nodes` ranks and
    /// `lanes` lanes per node pair, driven by one progress worker.
    Tcp { nodes: usize, lanes: usize },
}

/// A service workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct SvcShape {
    /// Ranks every collective spans.
    pub world: usize,
    /// Transport.
    pub net: Net,
    /// Jobs (communicators) the requests rotate over.
    pub jobs: usize,
    /// Requests the generator keeps in flight.
    pub outstanding: usize,
    /// Slice length of the timed window's medians: long enough that a
    /// slice holds over a thousand requests.
    pub slice: Duration,
}

/// One started service with its jobs.
pub struct Instance {
    // Field order is drop order: the service (and its engine thread)
    // goes before the fabric it drives.
    svc: Svc,
    jobs: Vec<Job>,
    raw: Arc<dyn Fabric>,
    tcp: Option<Arc<TcpFabric>>,
    /// Timings of the wrapped fabric, when traced.
    pub times: Option<Arc<FabricTimes>>,
}

impl SvcShape {
    /// Collectives after which every job's tag space has wrapped once,
    /// so every channel the workload will ever use exists in the
    /// fabric's receive store.
    pub fn wrap_count(&self) -> u64 {
        (1u64 << SvcConfig::new(self.world).seq_bits) * self.jobs as u64
    }

    /// Connect the fabric, start the service and open the jobs. Every
    /// knob not pinned here is the library default. `traced` puts a
    /// [`TimedFabric`] between service and fabric.
    pub fn start(&self, traced: bool) -> std::io::Result<Instance> {
        let (raw, tcp): (Arc<dyn Fabric>, Option<Arc<TcpFabric>>) = match self.net {
            Net::InProc => (Arc::new(InProcFabric::new()), None),
            Net::Tcp { nodes, lanes } => {
                let cfg = TcpConfig {
                    lanes,
                    progress_threads: 1,
                    ..TcpConfig::default()
                };
                let t = Arc::new(TcpFabric::connect(
                    Topology::new(nodes, self.world / nodes),
                    cfg,
                )?);
                (Arc::clone(&t) as Arc<dyn Fabric>, Some(t))
            }
        };
        let (fabric, times): (Arc<dyn Fabric>, _) = if traced {
            let (w, t) = TimedFabric::new(Arc::clone(&raw));
            (Arc::new(w), Some(t))
        } else {
            (Arc::clone(&raw), None)
        };
        let svc = Svc::new(fabric, SvcConfig::new(self.world))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let jobs = (0..self.jobs)
            .map(|_| svc.job().map_err(|e| std::io::Error::other(e.to_string())))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Instance {
            svc,
            jobs,
            raw,
            tcp,
            times,
        })
    }
}

/// Submit `spec` through the matching `Job::i*` call.
fn submit(job: &Job, spec: CollSpec) -> Request {
    match spec {
        CollSpec::Allreduce { dt, op, inputs } => job.iallreduce(dt, op, inputs),
        CollSpec::Allgather { inputs } => job.iallgather(inputs),
        CollSpec::Bcast { root, data, .. } => job.ibcast(root, data),
        CollSpec::Scatter { root, chunks } => job.iscatter(root, chunks),
    }
}

/// Counters the program exposes, read at the edges of a window.
pub struct Counters {
    /// `Fabric::stats`.
    pub fabric: FabricStats,
    /// `TcpFabric::pool_stats` hits and misses (0 for in-process).
    pub pool_hits: u64,
    /// See [`Counters::pool_hits`].
    pub pool_misses: u64,
    /// Summed over jobs: admitted, deferred, retried.
    pub admitted: u64,
    /// See [`Counters::admitted`].
    pub deferred: u64,
    /// See [`Counters::admitted`].
    pub retried: u64,
}

impl Instance {
    /// Read every public counter now.
    pub fn counters(&self) -> Counters {
        let s = self.svc.stats();
        let pool = self.tcp.as_ref().map(|t| t.pool_stats());
        Counters {
            fabric: self.raw.stats(),
            pool_hits: pool.as_ref().map_or(0, |p| p.hits),
            pool_misses: pool.as_ref().map_or(0, |p| p.misses),
            admitted: s.jobs.iter().map(|j| j.admitted).sum(),
            deferred: s.jobs.iter().map(|j| j.deferred).sum(),
            retried: s.jobs.iter().map(|j| j.retried).sum(),
        }
    }
}

/// What one closed-loop phase observed.
#[derive(Default)]
pub struct LoopStats {
    /// Requests submitted (all are waited for before the phase ends).
    pub attempted: u64,
    /// Requests that resolved to an `SvcError`.
    pub failed: u64,
    /// Requests whose result differed from the reference.
    pub wrong: u64,
    /// Verified completions before the phase's deadline.
    pub in_window: u64,
    /// Submit → wait-return latency of those, by slice of the phase and
    /// over all of it ([`Stop::After`] phases only).
    pub window: Window,
    /// Latency of each of those, ns, by job (traced phases only).
    pub job_lat_ns: Vec<Vec<u64>>,
    /// Duration of each `Job::i*` call, ns (traced phases only).
    pub submit_ns: Vec<u64>,
    /// Sampled `SvcStats::inflight` (traced phases only).
    pub inflight: Vec<f64>,
    /// Sampled total queue depth over jobs (traced phases only).
    pub queue_depth: Vec<f64>,
    /// Most threads seen in the process (traced phases only).
    pub threads: u64,
}

/// When a closed-loop phase stops submitting.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this much wall time.
    After(Duration),
    /// After this many submissions.
    Count(u64),
}

struct Pending {
    req: Request,
    pool: usize,
    item: usize,
    job: usize,
    id: u64,
    submitted: Instant,
    submit_done: Instant,
}

/// The generator: where in the input pools and request-id space the
/// next request comes from. Carried across phases of one run.
/// Request `id` goes to job `id % jobs`, which draws from pool
/// `job % pools.len()`.
pub struct Generator<'a> {
    shape: SvcShape,
    pools: &'a [Vec<Item>],
    next: u64,
}

impl<'a> Generator<'a> {
    /// A generator cycling through `pools`.
    pub fn new(shape: SvcShape, pools: &'a [Vec<Item>]) -> Generator<'a> {
        Generator {
            shape,
            pools,
            next: 0,
        }
    }

    fn submit_next(&mut self, inst: &Instance) -> Pending {
        let id = self.next;
        self.next += 1;
        let jobs = self.shape.jobs as u64;
        let job = (id % jobs) as usize;
        let pool = job % self.pools.len();
        let item = ((id / jobs) % self.pools[pool].len() as u64) as usize;
        let spec = self.pools[pool][item].spec.clone();
        let submitted = Instant::now();
        let req = submit(&inst.jobs[job], spec);
        Pending {
            req,
            pool,
            item,
            job,
            id,
            submitted,
            submit_done: Instant::now(),
        }
    }

    fn expect(&self, p: &Pending) -> &[u8] {
        &self.pools[p.pool][p.item].expect
    }

    /// Run the closed loop until `stop` (rounded up to a whole round
    /// over the jobs), then stop submitting and wait for what is still
    /// in flight. With `spans`, record each request's
    /// spans and sample the service's gauges.
    pub fn run(
        &mut self,
        inst: &Instance,
        stop: Stop,
        mut spans: Option<&mut SpanLog>,
    ) -> LoopStats {
        let traced = spans.is_some();
        let mut st = LoopStats {
            job_lat_ns: vec![Vec::new(); self.shape.jobs],
            ..LoopStats::default()
        };
        let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(self.shape.outstanding);
        let start = Instant::now();
        let (deadline, limit, mut slicer) = match stop {
            Stop::After(d) => (
                start + d,
                u64::MAX,
                Some(Slicer::new(start, self.shape.slice, d)),
            ),
            Stop::Count(n) => (start + Duration::from_secs(3600), n, None),
        };
        let mut submitted = 0u64;
        loop {
            // Past the stop, finish the round over the jobs, so every
            // phase submits whole rounds and the per-collective counts of
            // a mixed workload are exact.
            while inflight.len() < self.shape.outstanding
                && ((submitted < limit && Instant::now() < deadline)
                    || !self.next.is_multiple_of(self.shape.jobs as u64))
            {
                inflight.push_back(self.submit_next(inst));
                submitted += 1;
            }
            let Some(p) = inflight.pop_front() else {
                break;
            };
            let waited = Instant::now();
            let res = p.req.wait();
            let done = Instant::now();
            st.attempted += 1;
            match res {
                Err(e) => {
                    if st.failed == 0 {
                        eprintln!("request {} failed: {e}", p.id);
                    }
                    st.failed += 1;
                }
                Ok(out) => {
                    if !all_ranks_match(&out, self.shape.world, self.expect(&p)) {
                        if st.wrong == 0 {
                            eprintln!("request {} returned a wrong result", p.id);
                        }
                        st.wrong += 1;
                    } else if done <= deadline {
                        st.in_window += 1;
                        let ns = (done - p.submitted).as_nanos() as u64;
                        if let Some(s) = slicer.as_mut() {
                            s.add(done, ns);
                        }
                        if traced {
                            st.job_lat_ns[p.job].push(ns);
                        }
                    }
                }
            }
            if let Some(log) = spans.as_deref_mut() {
                st.submit_ns
                    .push((p.submit_done - p.submitted).as_nanos() as u64);
                log.push(p.id, "svc.request", None, None, p.submitted, done);
                log.push(
                    p.id,
                    "svc.submit",
                    Some("svc.request"),
                    None,
                    p.submitted,
                    p.submit_done,
                );
                log.push(p.id, "svc.wait", Some("svc.request"), None, waited, done);
            }
            if traced && st.attempted.is_multiple_of(64) {
                let s = inst.svc.stats();
                st.inflight.push(s.inflight as f64);
                st.queue_depth
                    .push(s.jobs.iter().map(|j| j.queue_depth as f64).sum());
                st.threads = st.threads.max(crate::host::threads());
            }
        }
        st.window = slicer.map_or_else(Window::default, Slicer::finish);
        st
    }

    /// Submit one request and check it: the tail of a cold start.
    /// Returns `(failed, wrong)`, each 0 or 1.
    pub fn first(&mut self, inst: &Instance) -> (u64, u64) {
        let p = self.submit_next(inst);
        match p.req.wait() {
            Err(e) => {
                eprintln!("first request failed: {e}");
                (1, 0)
            }
            Ok(out) if all_ranks_match(&out, self.shape.world, self.expect(&p)) => (0, 0),
            Ok(_) => {
                eprintln!("first request returned a wrong result");
                (0, 1)
            }
        }
    }
}

/// Plan and drive collectives with no transport at all: the compute
/// floor under the service's per-collective cost.
pub struct NbProbe {
    /// `CollSpec::plan` time per collective, ns.
    pub plan_ns: Vec<u64>,
    /// `NbColl::start` + every `deliver` to completion, ns.
    pub drive_ns: Vec<u64>,
    /// Messages in one pass over the pool, per collective (exact).
    pub msgs_per_coll: f64,
    /// Collectives whose outputs differed from the reference.
    pub wrong: u64,
    /// Collectives driven.
    pub attempted: u64,
}

/// Drive whole passes over `items` until at least `min` has elapsed.
pub fn nb_probe(items: &[&Item], world: usize, min: Duration, spans: &mut SpanLog) -> NbProbe {
    let mut pr = NbProbe {
        plan_ns: Vec::new(),
        drive_ns: Vec::new(),
        msgs_per_coll: 0.0,
        wrong: 0,
        attempted: 0,
    };
    let t0 = Instant::now();
    let mut first_pass_msgs = 0u64;
    let mut pass = 0u64;
    while pass == 0 || t0.elapsed() < min {
        for (i, item) in items.iter().enumerate() {
            let id = pass * items.len() as u64 + i as u64;
            let a = Instant::now();
            let mut coll = item.spec.plan();
            let b = Instant::now();
            let mut q: VecDeque<Msg> = coll.start().into();
            let mut msgs = q.len() as u64;
            while let Some(m) = q.pop_front() {
                let out = coll.deliver(m.src, m.dst, m.phase, m.payload);
                msgs += out.len() as u64;
                q.extend(out);
            }
            let c = Instant::now();
            let ok = coll.done() && all_ranks_match(&coll.outputs(), world, &item.expect);
            pr.attempted += 1;
            pr.wrong += u64::from(!ok);
            pr.plan_ns.push((b - a).as_nanos() as u64);
            pr.drive_ns.push((c - b).as_nanos() as u64);
            spans.push(id, "nb.plan", None, None, a, b);
            spans.push(id, "nb.drive", None, None, b, c);
            if pass == 0 {
                first_pass_msgs += msgs;
            }
        }
        pass += 1;
    }
    pr.msgs_per_coll = first_pass_msgs as f64 / items.len() as f64;
    pr
}
