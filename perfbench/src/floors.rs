//! Same-run floors: what the bare host does for the work each layer
//! adds cost to. Measured in the traced run, beside the layer numbers,
//! so no comparison ever crosses hosts.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use crate::stats::{median, percentile};

/// The floors of one run.
pub struct Floors {
    /// 64-byte ping-pong round trip over a nodelay loopback pair, p50 µs.
    pub tcp_rtt_us: f64,
    /// One-way stream throughput over the same kind of pair, MB/s.
    pub tcp_stream_mb_s: f64,
    /// `copy_from_slice` bandwidth, GB/s (bytes read + written).
    pub memcpy_gb_s: f64,
    /// `acc[i] += src[i]` over `f64`, GB/s (bytes read + written).
    pub reduce_gb_s: f64,
    /// Size of each bandwidth array, MB.
    pub array_mb: f64,
    /// Last-level cache size the arrays are sized against, MB.
    pub llc_mb: f64,
}

const PING: usize = 64;
const RTT_WARMUP: usize = 200;
const RTT_SAMPLES: usize = 2000;
const STREAM_BYTES: usize = 64 << 20;
const STREAM_CHUNK: usize = 64 << 10;
const STREAM_REPS: usize = 3;
const BW_REPS: usize = 3;

fn loopback_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let l = TcpListener::bind("127.0.0.1:0")?;
    let a = TcpStream::connect(l.local_addr()?)?;
    let (b, _) = l.accept()?;
    a.set_nodelay(true)?;
    b.set_nodelay(true)?;
    Ok((a, b))
}

/// Raw std TCP loopback: 64 B ping-pong p50 (µs) and stream MB/s.
pub fn tcp() -> std::io::Result<(f64, f64)> {
    let (mut a, mut b) = loopback_pair()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let mut buf = [0u8; PING];
        for _ in 0..RTT_WARMUP + RTT_SAMPLES {
            b.read_exact(&mut buf)?;
            b.write_all(&buf)?;
        }
        let mut chunk = vec![0u8; STREAM_CHUNK];
        for _ in 0..STREAM_REPS {
            let mut left = STREAM_BYTES;
            while left > 0 {
                let n = b.read(&mut chunk[..left.min(STREAM_CHUNK)])?;
                if n == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                left -= n;
            }
            b.write_all(&[1])?;
        }
        Ok(())
    });
    let mut buf = [7u8; PING];
    let mut rtt = Vec::with_capacity(RTT_SAMPLES);
    for i in 0..RTT_WARMUP + RTT_SAMPLES {
        let t = Instant::now();
        a.write_all(&buf)?;
        a.read_exact(&mut buf)?;
        if i >= RTT_WARMUP {
            rtt.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    rtt.sort_by(f64::total_cmp);
    let chunk = vec![3u8; STREAM_CHUNK];
    let mut rates = Vec::with_capacity(STREAM_REPS);
    for _ in 0..STREAM_REPS {
        let t = Instant::now();
        for _ in 0..STREAM_BYTES / STREAM_CHUNK {
            a.write_all(&chunk)?;
        }
        let mut ack = [0u8; 1];
        a.read_exact(&mut ack)?;
        rates.push(STREAM_BYTES as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    echo.join().expect("echo thread panicked")?;
    Ok((
        percentile(&rtt, 0.5).expect("rtt samples"),
        median(&rates).expect("stream samples"),
    ))
}

/// memcpy and sum-reduce bandwidth on two `f64` arrays of at least
/// four times the last-level cache each. Returns (memcpy GB/s, reduce
/// GB/s, array MB). Both count bytes read plus bytes written.
pub fn memory(llc_bytes: usize) -> (f64, f64, f64) {
    let n = (4 * llc_bytes).div_ceil(8);
    let mut src: Vec<f64> = (0..n).map(|i| (i % 251) as f64).collect();
    let mut dst = vec![1.0f64; n];
    let bytes = (n * 8) as f64;
    let mut copy = Vec::with_capacity(BW_REPS);
    let mut reduce = Vec::with_capacity(BW_REPS);
    for _ in 0..BW_REPS {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        copy.push(2.0 * bytes / t.elapsed().as_secs_f64() / 1e9);
        std::hint::black_box(&mut dst);
        let t = Instant::now();
        for (a, b) in src.iter_mut().zip(std::hint::black_box(&dst)) {
            *a += b;
        }
        reduce.push(3.0 * bytes / t.elapsed().as_secs_f64() / 1e9);
        std::hint::black_box(&mut src);
    }
    (
        median(&copy).expect("copy samples"),
        median(&reduce).expect("reduce samples"),
        bytes / (1 << 20) as f64,
    )
}

/// Every floor.
pub fn measure(llc_bytes: usize) -> std::io::Result<Floors> {
    let (tcp_rtt_us, tcp_stream_mb_s) = tcp()?;
    let (memcpy_gb_s, reduce_gb_s, array_mb) = memory(llc_bytes);
    Ok(Floors {
        tcp_rtt_us,
        tcp_stream_mb_s,
        memcpy_gb_s,
        reduce_gb_s,
        array_mb,
        llc_mb: llc_bytes as f64 / (1 << 20) as f64,
    })
}
