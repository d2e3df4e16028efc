//! End-to-end and per-layer benchmark of the PiP-MColl reproduction:
//! the collective service over in-process channels and over loopback
//! TCP, and the PiP thread runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload svc_storm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with nothing timed inside
//! the program; `--trace 1` reports the per-layer metrics, measured
//! from outside the program's public API, next to same-run floors. The
//! last line of standard output is one JSON object; the lines before it
//! (prefixed `#`) are for people. See `NOTES.md` for the workloads.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and getrusage on 64-bit Linux");

mod floors;
mod host;
mod inputs;
mod rtload;
mod stats;
mod svcload;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pipmcoll_core::{build_schedule, AllreduceParams, CollectiveSpec, LibraryProfile};
use pipmcoll_fabric::FabricStats;
use pipmcoll_model::{Datatype, ReduceOp, Topology};

use inputs::{Item, Rng};
use stats::{
    least_stolen, median, percentile, quartiles, ratio, sorted_us, SliceStat, Slicer, Window,
};
use svcload::{Counters, Generator, LoopStats, Net, Stop, SvcShape};
use traced::{FabricTimes, SpanLog};

/// Cold starts per block. A run takes one block before its warm-up and
/// one after its window, so `setup_s`, the median of both, spans the
/// run's whole stretch of host time rather than one moment of it.
const SETUP_REPS: usize = 100;
/// Closed-loop time before the timed window, so pools, caches and lazy
/// set-up are warm.
const WARMUP: Duration = Duration::from_millis(500);
/// Minimum time the transport-free `core::nb` probe runs (service
/// workloads only: the blocking runtime never goes through `core::nb`).
const NB_PROBE: Duration = Duration::from_millis(300);
/// Most spans kept in memory by a traced run.
const SPAN_CAP: usize = 100_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    SvcStorm,
    SvcSmallTcp,
    RtPip,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::SvcStorm, Workload::SvcSmallTcp, Workload::RtPip];

    fn name(self) -> &'static str {
        match self {
            Workload::SvcStorm => "svc_storm",
            Workload::SvcSmallTcp => "svc_small_tcp",
            Workload::RtPip => "rt_pip",
        }
    }

    fn shape(self) -> Option<SvcShape> {
        match self {
            // Two outstanding, not eight: a request in flight when the
            // host takes a CPU away waits out the stall, and with eight
            // in flight (250 µs each) enough requests did so to move
            // the p99 of most slices (see `NOTES.md`).
            Workload::SvcStorm => Some(SvcShape {
                world: 8,
                net: Net::InProc,
                jobs: 16,
                outstanding: 2,
                slice: Duration::from_secs(2),
            }),
            Workload::SvcSmallTcp => Some(SvcShape {
                world: 2,
                net: Net::Tcp { nodes: 2, lanes: 1 },
                jobs: 4,
                outstanding: 8,
                slice: Duration::from_secs(2),
            }),
            Workload::RtPip => None,
        }
    }

    /// The seeded input pools of a service workload: request `id` goes
    /// to job `id % jobs`, which draws from pool `job % pools.len()`.
    /// Each job runs one collective kind, so after one wrap of its tag
    /// space the job reuses channels instead of creating new ones.
    fn pools(self, seed: u64) -> Vec<Vec<Item>> {
        let mut rng = Rng::new(seed, 1);
        match self {
            // Jobs cycle allreduce, broadcast (root = job mod world),
            // allgather: a 6:5:5 mix of small collectives.
            Workload::SvcStorm => (0..16)
                .map(|job| {
                    (0..32)
                        .map(|_| match job % 3 {
                            0 => inputs::allreduce_i32(&mut rng, 8, 16),
                            1 => inputs::bcast(&mut rng, 8, job % 8, 256),
                            _ => inputs::allgather(&mut rng, 8, 32),
                        })
                        .collect()
                })
                .collect(),
            Workload::SvcSmallTcp => (0..4)
                .map(|_| {
                    (0..64)
                        .map(|_| inputs::allreduce_i32(&mut rng, 2, 16))
                        .collect()
                })
                .collect(),
            Workload::RtPip => unreachable!("the runtime workload has its own inputs"),
        }
    }

    /// The node shape and allreduce the blocking-schedule counts are
    /// computed for: the workload's own allreduce on its node shape.
    fn sched_case(self) -> (Topology, AllreduceParams) {
        let ints = |count| AllreduceParams {
            count,
            dt: Datatype::Int32,
            op: ReduceOp::Sum,
        };
        match self {
            Workload::SvcStorm => (Topology::new(2, 4), ints(16)),
            Workload::SvcSmallTcp => (Topology::new(2, 1), ints(16)),
            Workload::RtPip => (rtload::topo(), rtload::params()),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == val)
                        .ok_or_else(|| format!("unknown workload {val:?}"))?,
                )
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val:?}"))?,
            "--seconds" => {
                seconds = val
                    .parse()
                    .ok()
                    .filter(|&s| (1..=600).contains(&s))
                    .ok_or_else(|| format!("bad --seconds {val:?}"))?
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Collective outcomes over the whole run. No fault is injected, so a
/// failed request, a wrong result or a service retry is a defect.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// `SvcStats` retries summed over every instance of the run.
    retried: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64, wrong: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.wrong += wrong;
    }

    fn add_loop(&mut self, st: &LoopStats) {
        self.add(st.attempted, st.failed, st.wrong);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.wrong == 0 && self.retried == 0
    }
}

/// Metrics of one run, in report order.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// "median (p25–p75, n)" of a sample set, for the human-readable lines.
fn spread(v: &[f64]) -> String {
    match (median(v), quartiles(v)) {
        (Some(m), Some(q)) => format!("{m:.6} (p25 {:.6}, p75 {:.6}, n={})", q[0], q[2], v.len()),
        (Some(m), None) => format!("{m:.6} (n={})", v.len()),
        _ => "n/a".to_string(),
    }
}

/// Throughput and latency of a timed window. A slice's rate is its
/// verified completions per second and its percentiles are over the
/// requests that completed in it. `colls_per_s`, `lat_p50_us` and
/// `lat_p99_us` are medians over the quiet or less stolen slices
/// ([`least_stolen`]), so a burst of the host's steal moves neither the
/// slices it lands in nor the median. Slices are 2 s long, so a stall of
/// the program that recurs every 2 s or more often lands in every slice
/// and moves the median p99 once it delays more than 1% of the requests.
fn window_metrics(r: &mut Report, what: &str, win: &Window, slice: Duration, steal: Option<f64>) {
    match steal {
        Some(s) => println!(
            "# host steal during the window: {:.1}% of CPU time went to other tenants",
            100.0 * s
        ),
        None => println!("# host steal during the window: not reported by this kernel"),
    }
    // Per-slice columns: 0 rate, 1 p50, 2 p99.
    let col = |v: &[SliceStat], k: usize| -> Vec<f64> {
        v.iter()
            .map(|s| [s.count as f64 / secs(slice), s.p50_us, s.p99_us][k])
            .collect()
    };
    let all = &win.slices;
    let kept = least_stolen(all);
    let n = win.whole.count();
    let whole_p99 = win.whole.percentile_us(0.99).unwrap_or(0.0);
    println!(
        "# {what}: n={n} over {} slices of {slice:?}; {} samples beyond the window's p99",
        all.len(),
        n - (0.99 * n as f64).ceil() as u64
    );
    let steal_pct: Vec<f64> = all.iter().map(|s| 100.0 * s.steal).collect();
    println!(
        "# per-slice steal %: {}; the medians use the {} slices at or below the median or 1%",
        spread(&steal_pct),
        kept.len()
    );
    for (k, name) in ["colls/s", "p50 us", "p99 us"].into_iter().enumerate() {
        let (used, every) = (col(&kept, k), col(all, k));
        println!(
            "# per-slice {name}: used {}; all slices {}; worst {:.3}",
            spread(&used),
            spread(&every),
            every.iter().copied().fold(0.0, f64::max)
        );
    }
    println!(
        "# window p50 {:.3} us, p99 {whole_p99:.3} us, p99.9 {:.3} us",
        win.whole.percentile_us(0.5).unwrap_or(0.0),
        win.whole.percentile_us(0.999).unwrap_or(0.0)
    );
    r.put("colls_per_s", median(&col(&kept, 0)).unwrap_or(0.0), "1/s");
    r.put("lat_p50_us", median(&col(&kept, 1)).unwrap_or(0.0), "us");
    r.put("lat_p99_us", median(&col(&kept, 2)).unwrap_or(0.0), "us");
}

fn end_to_end_common(report: &mut Report, setup: &[f64], cpu_us: f64, colls: u64, tally: &Tally) {
    println!(
        "# setup_s over {} cold starts in two blocks: {}",
        setup.len(),
        spread(setup)
    );
    report.put("setup_s", median(setup).unwrap_or(0.0), "s");
    report.put("cpu_us_per_coll", ratio(cpu_us, colls as f64), "us");
    report.put("peak_rss_mb", host::peak_rss_mb(), "MB");
    let ok = tally.attempted - tally.failed - tally.wrong;
    println!(
        "# attempted={} failed={} wrong={} svc_retried={} fail_frac={}",
        tally.attempted,
        tally.failed,
        tally.wrong,
        tally.retried,
        ratio((tally.failed + tally.wrong) as f64, tally.attempted as f64)
    );
    report.put("ok_frac", ratio(ok as f64, tally.attempted as f64), "ratio");
}

// ---------------------------------------------------------------- svc

/// One block of service cold starts, each up to its first verified
/// result, appended to `setup`.
fn svc_setup(shape: SvcShape, pools: &[Vec<Item>], setup: &mut Vec<f64>, tally: &mut Tally) {
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let inst = shape.start(false).expect("service starts");
        let (failed, wrong) = Generator::new(shape, pools).first(&inst);
        setup.push(secs(t.elapsed()));
        tally.add(1, failed, wrong);
        tally.retried += inst.counters().retried;
    }
}

fn svc_untraced(w: Workload, seed: u64, window: Duration, tally: &mut Tally) -> Report {
    let shape = w.shape().expect("service workload");
    let pools = w.pools(seed);
    let mut setup = Vec::with_capacity(2 * SETUP_REPS);
    svc_setup(shape, &pools, &mut setup, tally);
    let inst = shape.start(false).expect("service starts");
    let mut gen = Generator::new(shape, &pools);
    tally.add_loop(&gen.run(&inst, Stop::Count(shape.wrap_count()), None));
    let (u0, h0) = (host::usage(), host::cpu_ticks());
    let st = gen.run(&inst, Stop::After(window), None);
    let (u1, h1) = (host::usage(), host::cpu_ticks());
    tally.add_loop(&st);
    tally.retried += inst.counters().retried;
    drop(inst);
    svc_setup(shape, &pools, &mut setup, tally);

    let mut r = Report::default();
    println!(
        "# window: {} verified collectives in {:.3}s ({} attempted incl. drain)",
        st.in_window,
        secs(window),
        st.attempted
    );
    let steal = host::steal_share(h0, h1);
    window_metrics(
        &mut r,
        "submit -> wait return",
        &st.window,
        shape.slice,
        steal,
    );
    end_to_end_common(&mut r, &setup, u1.cpu_us - u0.cpu_us, st.attempted, tally);
    r
}

/// Counter deltas and fabric timings summed over the traced slices.
#[derive(Default)]
struct LayerAcc {
    colls: u64,
    send_calls: u64,
    send_ns: u64,
    try_calls: u64,
    try_hits: u64,
    recv_calls: u64,
    recv_ns: u64,
    wire_msgs: u64,
    wire_bytes: u64,
    ack_p50_us: f64,
    retransmits: u64,
    dups: u64,
    stalls: u64,
    lane_bytes: Vec<u64>,
    pool_hits: u64,
    pool_misses: u64,
    admitted: u64,
    deferred: u64,
    retried: u64,
    ctx: u64,
    threads: u64,
}

impl LayerAcc {
    fn add_times(&mut self, t: &FabricTimes) {
        self.send_calls += t.send.calls();
        self.send_ns += t.send.ns();
        self.try_calls += t.try_recv.calls();
        self.try_hits += t.try_hits.load(Ordering::Relaxed);
        self.recv_calls += t.recv.calls();
        self.recv_ns += t.recv.ns();
    }

    fn add_fabric(&mut self, a: &FabricStats, b: &FabricStats) {
        self.wire_msgs += (b.total_msgs() + b.local_msgs) - (a.total_msgs() + a.local_msgs);
        self.wire_bytes += (b.total_bytes() + b.local_bytes) - (a.total_bytes() + a.local_bytes);
        self.retransmits += b.retransmits - a.retransmits;
        self.dups += b.dups_dropped - a.dups_dropped;
        self.stalls += b.total_stalls() - a.total_stalls();
        self.lane_bytes
            .resize(b.lanes.len().max(self.lane_bytes.len()), 0);
        for (i, l) in b.lanes.iter().enumerate() {
            let before = a.lanes.get(i).map_or(0, |x| x.bytes);
            self.lane_bytes[i] += l.bytes - before;
        }
    }

    fn add_counters(&mut self, a: &Counters, b: &Counters) {
        self.add_fabric(&a.fabric, &b.fabric);
        self.pool_hits += b.pool_hits - a.pool_hits;
        self.pool_misses += b.pool_misses - a.pool_misses;
        self.admitted += b.admitted - a.admitted;
        self.deferred += b.deferred - a.deferred;
        self.retried += b.retried - a.retried;
    }

    /// The fabric and proc metrics every workload reports.
    fn put_fabric(&self, r: &mut Report) {
        let c = self.colls as f64;
        r.put(
            "fabric.send_us",
            ratio(self.send_ns as f64 / 1e3, self.send_calls as f64),
            "us",
        );
        r.put(
            "fabric.try_recv_per_coll",
            ratio(self.try_calls as f64, c),
            "count",
        );
        r.put(
            "fabric.try_recv_hit_ratio",
            ratio(self.try_hits as f64, self.try_calls as f64),
            "ratio",
        );
        r.put(
            "fabric.recv_wait_us",
            ratio(self.recv_ns as f64 / 1e3, self.recv_calls as f64),
            "us",
        );
        r.put(
            "fabric.wire_msgs_per_coll",
            ratio(self.wire_msgs as f64, c),
            "count",
        );
        r.put(
            "fabric.wire_bytes_per_coll",
            ratio(self.wire_bytes as f64, c),
            "B",
        );
        r.put("fabric.ack_rtt_p50_us", self.ack_p50_us, "us");
        r.put("fabric.retransmits", self.retransmits as f64, "count");
        r.put("fabric.dups_dropped", self.dups as f64, "count");
        r.put("fabric.stalls", self.stalls as f64, "count");
        let lanes = &self.lane_bytes;
        let mean = ratio(lanes.iter().sum::<u64>() as f64, lanes.len() as f64);
        let max = lanes.iter().copied().max().unwrap_or(0) as f64;
        r.put("fabric.lane_skew", ratio(max, mean), "ratio");
        r.put(
            "fabric.pool_hit_ratio",
            ratio(
                self.pool_hits as f64,
                (self.pool_hits + self.pool_misses) as f64,
            ),
            "ratio",
        );
    }
}

fn put_nb(r: &mut Report, nb: &svcload::NbProbe) {
    let plan = sorted_us(&nb.plan_ns);
    let drive = sorted_us(&nb.drive_ns);
    println!(
        "# core::nb probe: {} collectives planned and driven with no transport",
        nb.attempted
    );
    r.put("nb.plan_us", percentile(&plan, 0.5).unwrap_or(0.0), "us");
    r.put("nb.drive_us", percentile(&drive, 0.5).unwrap_or(0.0), "us");
    r.put("nb.msgs_per_coll", nb.msgs_per_coll, "count");
}

fn put_sched(r: &mut Report, w: Workload) {
    let (topo, p) = w.sched_case();
    let s = build_schedule(
        LibraryProfile::PipMColl,
        topo,
        &CollectiveSpec::Allreduce(p),
    );
    println!(
        "# sched: PiP-MColl allreduce of {} x {} on {}x{} nodes x ranks",
        p.count,
        p.dt,
        topo.nodes(),
        topo.ppn()
    );
    r.put(
        "sched.net_msgs_per_coll",
        s.total_net_msgs() as f64,
        "count",
    );
    r.put("sched.ops_per_coll", s.total_ops() as f64, "count");
}

fn put_floors(r: &mut Report, f: &floors::Floors) {
    r.put("floor.tcp_rtt_us", f.tcp_rtt_us, "us");
    r.put("floor.tcp_stream_mb_s", f.tcp_stream_mb_s, "MB/s");
    r.put("floor.memcpy_gb_s", f.memcpy_gb_s, "GB/s");
    r.put("floor.reduce_gb_s", f.reduce_gb_s, "GB/s");
}

fn put_overhead(r: &mut Report, untraced: (u64, f64), traced: (u64, f64)) {
    let u = ratio(untraced.0 as f64, untraced.1);
    let t = ratio(traced.0 as f64, traced.1);
    println!("# tracing overhead: untraced {u:.1} vs traced {t:.1} colls/s");
    r.put("trace.colls_per_s_untraced", u, "1/s");
    r.put("trace.colls_per_s_traced", t, "1/s");
    r.put("trace.overhead_frac", ratio(u, t) - 1.0, "ratio");
}

/// Slices the traced run's window is cut into, alternating timing off
/// and on over one instance, so tracing overhead is measured in the
/// same run under the same drift.
const SLICES: u32 = 4;

fn svc_traced(
    w: Workload,
    seed: u64,
    window: Duration,
    floors: &floors::Floors,
    spans: &mut SpanLog,
    tally: &mut Tally,
) -> Report {
    let shape = w.shape().expect("service workload");
    let pools = w.pools(seed);
    let mut r = Report::default();
    let flat: Vec<&Item> = pools.iter().flatten().collect();
    let nb = svcload::nb_probe(&flat, shape.world, NB_PROBE, spans);
    tally.add(nb.attempted, 0, nb.wrong);

    let inst = shape.start(true).expect("service starts");
    let times = inst.times.clone().expect("traced instance");
    let mut gen = Generator::new(shape, &pools);
    times.set_enabled(false);
    tally.add_loop(&gen.run(&inst, Stop::Count(shape.wrap_count()), None));
    let slice = window / SLICES;
    let mut acc = LayerAcc::default();
    let (mut untraced, mut traced) = ((0u64, 0.0f64), (0u64, 0.0f64));
    let mut merged = LoopStats::default();
    for k in 0..SLICES {
        let tracing = k % 2 == 1;
        times.set_enabled(tracing);
        let c0 = inst.counters();
        let u0 = host::usage();
        let st = gen.run(&inst, Stop::After(slice), tracing.then_some(&mut *spans));
        let u1 = host::usage();
        let c1 = inst.counters();
        tally.add_loop(&st);
        let arm = if tracing { &mut traced } else { &mut untraced };
        arm.0 += st.in_window;
        arm.1 += secs(slice);
        if !tracing {
            continue;
        }
        acc.colls += st.attempted;
        acc.add_counters(&c0, &c1);
        acc.ctx += u1.ctx_switches - u0.ctx_switches;
        acc.threads = acc.threads.max(st.threads);
        merged.submit_ns.extend(st.submit_ns);
        merged.inflight.extend(st.inflight);
        merged.queue_depth.extend(st.queue_depth);
        merged.job_lat_ns.resize(st.job_lat_ns.len(), Vec::new());
        for (m, j) in merged.job_lat_ns.iter_mut().zip(st.job_lat_ns) {
            m.extend(j);
        }
    }
    acc.add_times(&times);
    // The fabric's ack-RTT histogram is cumulative and ±√2-bucketed:
    // one reading over the instance's life is all it can give.
    let end = inst.counters();
    acc.ack_p50_us = end.fabric.ack_rtt.p50_us.map_or(0.0, |v| v as f64);
    tally.retried += end.retried;
    drop(inst);

    acc.put_fabric(&mut r);
    let submit = sorted_us(&merged.submit_ns);
    r.put(
        "svc.submit_us",
        percentile(&submit, 0.5).unwrap_or(0.0),
        "us",
    );
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    r.put("svc.inflight_mean", mean(&merged.inflight), "count");
    r.put(
        "svc.deferred_frac",
        ratio(acc.deferred as f64, acc.admitted as f64),
        "ratio",
    );
    r.put("svc.queue_depth_mean", mean(&merged.queue_depth), "count");
    let job_p99: Vec<f64> = merged
        .job_lat_ns
        .iter()
        .filter_map(|j| percentile(&sorted_us(j), 0.99))
        .collect();
    let worst = job_p99.iter().copied().fold(0.0, f64::max);
    r.put(
        "svc.job_p99_ratio",
        ratio(worst, median(&job_p99).unwrap_or(0.0)),
        "ratio",
    );
    r.put("svc.retried", acc.retried as f64, "count");
    put_nb(&mut r, &nb);
    println!("# rt.*: not exercised by a service workload (reported as 0)");
    for name in [
        "rt.call_us",
        "rt.rank_skew_us",
        "rt.fabric_share",
        "rt.framing_us",
    ] {
        r.put(
            name,
            0.0,
            if name == "rt.fabric_share" {
                "ratio"
            } else {
                "us"
            },
        );
    }
    put_sched(&mut r, w);
    put_floors(&mut r, floors);
    r.put("proc.threads", acc.threads as f64, "count");
    r.put(
        "proc.ctx_switches_per_coll",
        ratio(acc.ctx as f64, acc.colls as f64),
        "count",
    );
    put_overhead(&mut r, untraced, traced);
    r
}

// ----------------------------------------------------------------- rt

/// What runtime phases add up: per-iteration figures of clean batches
/// and, when traced, fabric timings and counters.
#[derive(Default)]
struct RtTotals {
    st: rtload::IterStats,
    acc: LayerAcc,
}

/// Run batches back to back for `dur`, adding to `tot`. Returns the
/// iterations verified and how long the phase took.
fn rt_phase(
    pool: &[rtload::RtInput],
    dur: Duration,
    tracing: bool,
    mut spans: Option<&mut SpanLog>,
    next: &mut u64,
    tot: &mut RtTotals,
    tally: &mut Tally,
) -> (u64, Duration) {
    let sample = AtomicBool::new(tracing);
    let threads = AtomicU64::new(0);
    let t0 = Instant::now();
    let mut iters = 0;
    while t0.elapsed() < dur {
        let inp = &pool[(*next / rtload::BATCH as u64) as usize % pool.len()];
        let (b, times) = rtload::run_batch(inp, rtload::BATCH, tracing, &sample, &threads);
        let n = b.iters as u64;
        tally.add(n, if b.failed { n } else { 0 }, if b.wrong { n } else { 0 });
        if !b.failed && !b.wrong {
            iters += n;
            tot.st.add(&b, *next, spans.as_deref_mut());
        }
        if let Some(t) = times {
            tot.acc.add_times(&t);
            tot.acc.add_fabric(&FabricStats::default(), &b.fabric);
            tot.acc.colls += n;
        }
        *next += n;
    }
    tot.acc.threads = tot.acc.threads.max(threads.load(Ordering::Relaxed));
    (iters, t0.elapsed())
}

/// One block of runtime cold starts (one verified iteration each),
/// appended to `setup`.
fn rt_setup(pool: &[rtload::RtInput], setup: &mut Vec<f64>, tally: &mut Tally) {
    let (no, seen) = (AtomicBool::new(false), AtomicU64::new(0));
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        let (b, _) = rtload::run_batch(&pool[i % pool.len()], 1, false, &no, &seen);
        setup.push(secs(t.elapsed()));
        tally.add(1, u64::from(b.failed), u64::from(b.wrong));
    }
}

fn rt_untraced(seed: u64, window: Duration, tally: &mut Tally) -> Report {
    let pool = rtload::inputs(seed);
    let mut setup = Vec::with_capacity(2 * SETUP_REPS);
    rt_setup(&pool, &mut setup, tally);
    let mut next = 0u64;
    let mut warm = RtTotals::default();
    rt_phase(&pool, WARMUP, false, None, &mut next, &mut warm, tally);
    let mut tot = RtTotals::default();
    tot.st.slicer = Some(Slicer::new(Instant::now(), rtload::SLICE, window));
    let (u0, h0) = (host::usage(), host::cpu_ticks());
    let (iters, elapsed) = rt_phase(&pool, window, false, None, &mut next, &mut tot, tally);
    let (u1, h1) = (host::usage(), host::cpu_ticks());
    rt_setup(&pool, &mut setup, tally);
    let mut r = Report::default();
    println!(
        "# window: {iters} verified iterations ({} batches of {}) in {:.3}s",
        iters / rtload::BATCH as u64,
        rtload::BATCH,
        secs(elapsed)
    );
    let win = tot
        .st
        .slicer
        .take()
        .map_or_else(Window::default, Slicer::finish);
    let steal = host::steal_share(h0, h1);
    window_metrics(
        &mut r,
        "slowest rank call -> return",
        &win,
        rtload::SLICE,
        steal,
    );
    end_to_end_common(&mut r, &setup, u1.cpu_us - u0.cpu_us, iters, tally);
    r
}

fn rt_traced(
    seed: u64,
    window: Duration,
    floors: &floors::Floors,
    spans: &mut SpanLog,
    tally: &mut Tally,
) -> Report {
    let w = Workload::RtPip;
    let pool = rtload::inputs(seed);
    let mut r = Report::default();

    let slice = window / SLICES;
    let mut next = 0u64;
    let mut tot = RtTotals::default();
    tot.st.keep = true;
    let mut untimed = RtTotals::default();
    let (mut untraced, mut traced) = ((0u64, 0.0f64), (0u64, 0.0f64));
    rt_phase(
        &pool,
        WARMUP / 2,
        false,
        None,
        &mut next,
        &mut untimed,
        tally,
    );
    for k in 0..SLICES {
        let tracing = k % 2 == 1;
        let u0 = host::usage();
        let (iters, elapsed) = if tracing {
            rt_phase(
                &pool,
                slice,
                true,
                Some(&mut *spans),
                &mut next,
                &mut tot,
                tally,
            )
        } else {
            rt_phase(&pool, slice, false, None, &mut next, &mut untimed, tally)
        };
        let u1 = host::usage();
        let arm = if tracing { &mut traced } else { &mut untraced };
        arm.0 += iters;
        arm.1 += secs(elapsed);
        if tracing {
            tot.acc.ctx += u1.ctx_switches - u0.ctx_switches;
        }
    }
    let RtTotals { st, acc } = tot;

    acc.put_fabric(&mut r);
    println!("# svc.*: not exercised by the runtime workload (reported as 0)");
    for name in [
        "svc.submit_us",
        "svc.inflight_mean",
        "svc.deferred_frac",
        "svc.queue_depth_mean",
        "svc.job_p99_ratio",
        "svc.retried",
    ] {
        let unit = match name {
            "svc.submit_us" => "us",
            "svc.deferred_frac" | "svc.job_p99_ratio" => "ratio",
            _ => "count",
        };
        r.put(name, 0.0, unit);
    }
    println!("# nb.*: the blocking runtime does not use core::nb (reported as 0)");
    r.put("nb.plan_us", 0.0, "us");
    r.put("nb.drive_us", 0.0, "us");
    r.put("nb.msgs_per_coll", 0.0, "count");
    let med = |ns: &[u64]| percentile(&sorted_us(ns), 0.5).unwrap_or(0.0);
    r.put("rt.call_us", med(&st.call_ns), "us");
    r.put("rt.rank_skew_us", med(&st.skew_ns), "us");
    let call_total: u64 = st.call_ns.iter().sum();
    r.put(
        "rt.fabric_share",
        ratio((acc.send_ns + acc.recv_ns) as f64, call_total as f64),
        "ratio",
    );
    r.put("rt.framing_us", med(&st.framing_ns), "us");
    put_sched(&mut r, w);
    put_floors(&mut r, floors);
    r.put("proc.threads", acc.threads as f64, "count");
    r.put(
        "proc.ctx_switches_per_coll",
        ratio(acc.ctx as f64, acc.colls as f64),
        "count",
    );
    put_overhead(&mut r, untraced, traced);
    r
}

// --------------------------------------------------------------- main

/// Print each floor beside the layer it bounds.
fn print_floor_context(w: Workload, r: &Report, f: &floors::Floors) {
    let get = |n: &str| r.metrics.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
    let beside = |layer: &str, value: f64, floor: &str| {
        println!(
            "# {layer} = {value:.3} beside {floor} = {:.3} ({:.3}x the floor)",
            get(floor),
            ratio(value, get(floor))
        );
    };
    match w {
        Workload::SvcSmallTcp => {
            beside(
                "fabric.ack_rtt_p50_us",
                get("fabric.ack_rtt_p50_us"),
                "floor.tcp_rtt_us",
            );
            let mb_s = get("fabric.wire_bytes_per_coll") * get("trace.colls_per_s_traced") / 1e6;
            beside("fabric payload MB/s", mb_s, "floor.tcp_stream_mb_s");
        }
        Workload::RtPip => {
            let gb_s = rtload::params().cb() as f64 / get("rt.call_us") / 1e3;
            beside("rt allreduce GB/s per rank", gb_s, "floor.reduce_gb_s");
        }
        Workload::SvcStorm => {}
    }
    println!(
        "# floors: tcp rtt {:.3}us, tcp stream {:.1} MB/s, memcpy {:.2} GB/s, reduce {:.2} GB/s \
         (arrays {:.0} MB each, last-level cache {:.0} MB)",
        get("floor.tcp_rtt_us"),
        get("floor.tcp_stream_mb_s"),
        get("floor.memcpy_gb_s"),
        get("floor.reduce_gb_s"),
        f.array_mb,
        f.llc_mb
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let set = host::behaviour_vars_set();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with behaviour-changing variables set: {}",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let fp = host::fingerprint();
    let w = args.workload;
    let window = Duration::from_secs(args.seconds);
    println!("# host: {fp}");
    println!(
        "# workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let report = if args.trace {
        let llc = host::llc_bytes();
        let floors = match floors::measure(llc) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("perfbench: loopback floor failed: {e}");
                return ExitCode::from(1);
            }
        };
        let mut spans = SpanLog::new(SPAN_CAP);
        let r = match w {
            Workload::RtPip => rt_traced(args.seed, window, &floors, &mut spans, &mut tally),
            _ => svc_traced(w, args.seed, window, &floors, &mut spans, &mut tally),
        };
        print_floor_context(w, &r, &floors);
        let path = PathBuf::from("perfbench").join("out").join(format!(
            "spans-{}-seed{}.jsonl",
            w.name(),
            args.seed
        ));
        let header = format!(
            "{{\"host\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}}}",
            json_str(&fp),
            w.name(),
            args.seed,
            args.seconds
        );
        match spans.write(&path, &header) {
            Ok(()) => println!("# spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
        r
    } else {
        match w {
            Workload::RtPip => rt_untraced(args.seed, window, &mut tally),
            _ => svc_untraced(w, args.seed, window, &mut tally),
        }
    };
    for (name, value, unit) in &report.metrics {
        println!("# {name:<28} {value:>16.4} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    let correct = tally.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed + tally.wrong,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} wrong result(s), {} failed request(s), {} service retries on a fault-free run",
            tally.wrong, tally.failed, tally.retried
        );
        ExitCode::from(1)
    }
}
