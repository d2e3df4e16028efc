//! The in-process backend: the channel delivery the thread runtime used
//! before the fabric existed, extracted behind the [`Fabric`] trait.
//!
//! Delivery is a queue push in the sender's thread — zero syscalls, zero
//! progress threads, one logical lane. This is the reference semantics
//! the conformance suite holds every other backend to, and the default
//! backend for unit tests and verified runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::error::{FabricDiag, FabricResult};
use crate::stats::{FabricStats, LaneStats};
use crate::store::MsgStore;
use crate::{ChanKey, Fabric};

/// In-memory channel-table transport (the original `rt` delivery path).
pub struct InProcFabric {
    store: MsgStore,
    msgs: AtomicU64,
    bytes: AtomicU64,
}

impl InProcFabric {
    /// An empty in-process fabric.
    pub fn new() -> Self {
        InProcFabric {
            store: MsgStore::new("inproc"),
            msgs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }
}

impl Default for InProcFabric {
    fn default() -> Self {
        InProcFabric::new()
    }
}

impl Fabric for InProcFabric {
    fn name(&self) -> &'static str {
        "inproc"
    }

    fn lanes(&self) -> usize {
        1
    }

    fn send(&self, key: ChanKey, payload: Vec<u8>) -> FabricResult<()> {
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.store.push(key, payload);
        Ok(())
    }

    fn recv_within(&self, key: ChanKey, timeout: Duration) -> FabricResult<Vec<u8>> {
        self.store.pop_within(key, timeout)
    }

    fn try_recv(&self, key: ChanKey) -> FabricResult<Option<Vec<u8>>> {
        self.store.try_pop(key)
    }

    fn reset(&self) {
        self.store.clear_ready();
    }

    fn stats(&self) -> FabricStats {
        FabricStats {
            lanes: vec![LaneStats {
                msgs: self.msgs.load(Ordering::Relaxed),
                bytes: self.bytes.load(Ordering::Relaxed),
                stalls: 0,
            }],
            live_chans: self.store.live_chans() as u64,
            ..FabricStats::default()
        }
    }

    fn diag(&self) -> FabricDiag {
        FabricDiag {
            blocked: self.store.blocked(),
            ..FabricDiag::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_stats() {
        let f = InProcFabric::new();
        f.send((0, 1, 3), vec![1, 2]).unwrap();
        f.send((0, 1, 3), vec![3]).unwrap();
        assert_eq!(f.recv((0, 1, 3)).unwrap(), vec![1, 2]);
        assert_eq!(f.recv((0, 1, 3)).unwrap(), vec![3]);
        let s = f.stats();
        assert_eq!(s.total_msgs(), 2);
        assert_eq!(s.total_bytes(), 3);
    }

    #[test]
    fn ping_pong_never_loses_a_wakeup() {
        // Each side blocks on a receive its peer satisfies, so every
        // message is a chance to lose a wakeup; a lost one stalls the
        // exchange for the full 10 s receive timeout.
        const ROUNDS: u32 = 10_000;
        const WAIT: Duration = Duration::from_secs(10);
        let f = std::sync::Arc::new(InProcFabric::new());
        let start = std::time::Instant::now();
        let f2 = std::sync::Arc::clone(&f);
        let pong = std::thread::spawn(move || {
            for i in 0..ROUNDS {
                let m = f2.recv_within((0, 1, 0), WAIT).unwrap();
                assert_eq!(m, i.to_le_bytes());
                f2.send((1, 0, 0), m).unwrap();
            }
        });
        for i in 0..ROUNDS {
            f.send((0, 1, 0), i.to_le_bytes().to_vec()).unwrap();
            assert_eq!(f.recv_within((1, 0, 0), WAIT).unwrap(), i.to_le_bytes());
        }
        pong.join().unwrap();
        let took = start.elapsed();
        assert!(took < Duration::from_secs(5), "ping-pong took {took:?}");
        assert_eq!(f.stats().live_chans, 0);
    }

    #[test]
    fn reset_drops_stale_messages() {
        let f = InProcFabric::new();
        f.send((0, 1, 0), vec![9]).unwrap();
        f.reset();
        f.send((0, 1, 0), vec![1]).unwrap();
        assert_eq!(f.recv((0, 1, 0)).unwrap(), vec![1]);
    }
}
