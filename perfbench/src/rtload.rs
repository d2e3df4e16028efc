//! The runtime workload: blocking PiP-MColl allreduce through
//! `run_cluster_on`, iterations back to back.
//!
//! The runtime only hands back each rank's receive buffer after the
//! last iteration, so each iteration first adds the previous result into
//! the rank's own input (`send += recv`, one `local_reduce`). A wrong
//! result in any iteration then changes the final buffer, which is
//! checked byte for byte against [`ref_chained_sum`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pipmcoll_core::{AllreduceParams, LibraryProfile};
use pipmcoll_fabric::{Fabric, FabricStats, InProcFabric};
use pipmcoll_model::dtype::doubles_to_bytes;
use pipmcoll_model::{Datatype, ReduceOp, Topology};
use pipmcoll_rt::{run_cluster_on, RtComm};
use pipmcoll_sched::{BufId, Comm, Region};

use crate::inputs::{ref_chained_sum, small_doubles, Rng};
use crate::stats::Slicer;
use crate::traced::{FabricTimes, SpanLog, TimedFabric};

/// Nodes × ranks per node. Two rank threads, so a 2-CPU host runs every
/// rank at once. With four, each iteration also waited on the
/// scheduler, and a CPU lost to another tenant for a few milliseconds
/// left four runnable threads on the other one (see `NOTES.md`).
pub const TOPO: (usize, usize) = (2, 1);
/// `f64` elements per rank.
pub const COUNT: usize = 4096;
/// Iterations per `run_cluster_on` call. Results grow threefold per
/// chained iteration (world + 1), so 24 keeps every value an exact
/// integer: 510 · 3^23 < 2^53.
pub const BATCH: usize = 24;
/// Distinct seeded input sets the batches cycle through.
const POOL: usize = 8;

/// The workload's topology.
pub fn topo() -> Topology {
    Topology::new(TOPO.0, TOPO.1)
}

/// The allreduce every iteration runs.
pub fn params() -> AllreduceParams {
    AllreduceParams::sum_doubles(COUNT)
}

/// One seeded input set and its expected outputs.
pub struct RtInput {
    /// Per-rank send buffers.
    pub init: Vec<Vec<u8>>,
    /// Expected receive buffer after one iteration.
    pub expect_one: Vec<u8>,
    /// Expected receive buffer after [`BATCH`] chained iterations.
    pub expect_batch: Vec<u8>,
}

/// The input pool for `seed`.
pub fn inputs(seed: u64) -> Vec<RtInput> {
    let mut rng = Rng::new(seed, 4);
    let world = topo().world_size();
    (0..POOL)
        .map(|_| {
            let x0: Vec<Vec<f64>> = (0..world).map(|_| small_doubles(&mut rng, COUNT)).collect();
            RtInput {
                init: x0.iter().map(|x| doubles_to_bytes(x)).collect(),
                expect_one: doubles_to_bytes(&ref_chained_sum(&x0, 1)),
                expect_batch: doubles_to_bytes(&ref_chained_sum(&x0, BATCH)),
            }
        })
        .collect()
}

/// The body every rank runs each iteration, given a hook that is told
/// when the allreduce call starts and returns. Kept generic over
/// [`Comm`] so the same body can be recorded and proven race-free.
pub fn iteration<C: Comm>(c: &mut C, mut timed: impl FnMut(&mut C, &dyn Fn(&mut C))) {
    let p = params();
    let cb = p.cb();
    c.local_reduce(
        Region::whole(BufId::Recv, cb),
        Region::whole(BufId::Send, cb),
        ReduceOp::Sum,
        Datatype::Double,
    );
    timed(c, &|c| LibraryProfile::PipMColl.allreduce(c, &p));
}

/// One `run_cluster_on` call's observations.
pub struct Batch {
    /// Iterations run.
    pub iters: usize,
    /// `(call, return)` of every rank's allreduce, per rank, per
    /// iteration.
    pub calls: Vec<Vec<(Instant, Instant)>>,
    /// `RtResult::failures` was non-empty.
    pub failed: bool,
    /// The final buffers differed from the reference.
    pub wrong: bool,
    /// `RtResult::fabric_stats`.
    pub fabric: FabricStats,
}

/// Run `iters` iterations (1 or [`BATCH`]) on input `inp`.
pub fn run_batch(
    inp: &RtInput,
    iters: usize,
    traced: bool,
    sample_threads: &AtomicBool,
    threads_seen: &AtomicU64,
) -> (Batch, Option<Arc<FabricTimes>>) {
    let raw: Arc<dyn Fabric> = Arc::new(InProcFabric::new());
    let (fabric, times): (Arc<dyn Fabric>, _) = if traced {
        let (w, t) = TimedFabric::new(raw);
        (Arc::new(w), Some(t))
    } else {
        (raw, None)
    };
    let world = topo().world_size();
    let logs: Vec<Mutex<Vec<(Instant, Instant)>>> = (0..world)
        .map(|_| Mutex::new(Vec::with_capacity(iters)))
        .collect();
    let res = run_cluster_on(
        fabric,
        topo(),
        params().buf_sizes(),
        |r| inp.init[r].clone(),
        iters,
        |c: &mut RtComm| {
            if c.rank() == 0 && sample_threads.swap(false, Ordering::Relaxed) {
                threads_seen.fetch_max(crate::host::threads(), Ordering::Relaxed);
            }
            iteration(c, |c, call| {
                let t0 = Instant::now();
                call(c);
                let t1 = Instant::now();
                logs[c.rank()]
                    .lock()
                    .expect("a rank panicked holding its own log")
                    .push((t0, t1));
            });
        },
    );
    let expect = if iters == 1 {
        &inp.expect_one
    } else {
        assert_eq!(iters, BATCH, "references exist for 1 and BATCH iterations");
        &inp.expect_batch
    };
    if !res.failures.is_empty() {
        eprintln!("runtime failures: {:?}", res.failures);
    }
    let wrong = res.failures.is_empty() && res.recv.iter().any(|r| r != expect);
    let calls = logs
        .into_iter()
        .map(|m| m.into_inner().expect("a rank panicked holding its own log"))
        .collect();
    (
        Batch {
            iters,
            calls,
            failed: !res.failures.is_empty(),
            wrong,
            fabric: res.fabric_stats,
        },
        times,
    )
}

/// Slice length of the timed window's medians: about 20 000 iterations.
pub const SLICE: Duration = Duration::from_secs(2);

/// Per-iteration figures derived from batches' call logs. A timed
/// window feeds each iteration's slowest call to `slicer`; traced
/// slices `keep` every figure.
#[derive(Default)]
pub struct IterStats {
    /// Receives (last return, slowest call) of every iteration.
    pub slicer: Option<Slicer>,
    /// Whether to fill the vectors below.
    pub keep: bool,
    /// Slowest rank's call → return, per iteration, ns.
    pub slowest_ns: Vec<u64>,
    /// Every rank's call → return, ns.
    pub call_ns: Vec<u64>,
    /// Latest minus earliest return across ranks, per iteration, ns.
    pub skew_ns: Vec<u64>,
    /// Iteration wall (first call to the next iteration's first call)
    /// minus the slowest call, ns. The last iteration of a batch has no
    /// successor and contributes none.
    pub framing_ns: Vec<u64>,
}

impl IterStats {
    /// Add a clean batch; with `spans`, also log its spans, numbering
    /// iterations from `first_id`.
    pub fn add(&mut self, b: &Batch, first_id: u64, spans: Option<&mut SpanLog>) {
        let ns = |d: Duration| d.as_nanos() as u64;
        let world = b.calls.len();
        if b.calls.iter().any(|c| c.len() != b.iters) {
            return;
        }
        let mut spans = spans;
        for i in 0..b.iters {
            let at = |r: usize| b.calls[r][i];
            let durs: Vec<u64> = (0..world).map(|r| ns(at(r).1 - at(r).0)).collect();
            let slowest = *durs.iter().max().expect("world >= 1");
            let last_ret = (0..world).map(|r| at(r).1).max().expect("world >= 1");
            if let Some(s) = self.slicer.as_mut() {
                s.add(last_ret, slowest);
            }
            if !self.keep {
                continue;
            }
            self.slowest_ns.push(slowest);
            self.call_ns.extend(&durs);
            let first = (0..world).map(|r| at(r).0).min().expect("world >= 1");
            let first_ret = (0..world).map(|r| at(r).1).min().expect("world >= 1");
            self.skew_ns.push(ns(last_ret - first_ret));
            if i + 1 < b.iters {
                let next = (0..world)
                    .map(|r| b.calls[r][i + 1].0)
                    .min()
                    .expect("world");
                self.framing_ns
                    .push(ns(next - first).saturating_sub(slowest));
            }
            if let Some(log) = spans.as_deref_mut() {
                let id = first_id + i as u64;
                log.push(id, "rt.iteration", None, None, first, last_ret);
                for r in 0..world {
                    log.push(
                        id,
                        "rt.call",
                        Some("rt.iteration"),
                        Some(r),
                        at(r).0,
                        at(r).1,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_sched::record_with_sizes;

    #[test]
    fn iteration_body_is_race_free() {
        let sched = record_with_sizes(topo(), params().buf_sizes(), |c| {
            iteration(c, |c, call| call(c))
        });
        sched.validate().expect("valid schedule");
        pipmcoll_sched::hb::check(&sched).expect("happens-before clean");
    }

    #[test]
    fn chained_batch_matches_reference() {
        let pool = inputs(5);
        let (none, seen) = (AtomicBool::new(false), AtomicU64::new(0));
        let (b, _) = run_batch(&pool[0], BATCH, false, &none, &seen);
        assert!(!b.failed && !b.wrong, "chained batch verified");
        let (one, _) = run_batch(&pool[1], 1, false, &none, &seen);
        assert!(!one.failed && !one.wrong, "single iteration verified");
        let mut st = IterStats {
            keep: true,
            ..IterStats::default()
        };
        st.add(&b, 0, None);
        assert_eq!(st.slowest_ns.len(), BATCH);
        assert_eq!(st.call_ns.len(), BATCH * topo().world_size());
        assert_eq!(st.framing_ns.len(), BATCH - 1);
        // The chained values really do stay exact integers.
        let max = pipmcoll_model::dtype::bytes_to_doubles(&pool[0].expect_batch)
            .into_iter()
            .fold(0.0f64, f64::max);
        assert!(max < 2f64.powi(53) && max.fract() == 0.0);
    }
}
