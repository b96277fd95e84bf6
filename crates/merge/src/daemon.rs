//! The asynchronous background merger.
//!
//! §3.1: "The record life cycle is organized in a way to asynchronously
//! propagate individual records through the system without interfering with
//! currently running database operations." The daemon owns a small pool of
//! worker threads that periodically (and on explicit nudges) ask the
//! registered targets to merge whatever their policy says is due, so
//! several tables can run their merges concurrently.
//!
//! Each target carries a claim flag: a worker must win the flag before
//! driving that target, so two workers never stack up behind the same
//! table's merge locks while other tables wait.
//!
//! A target whose `maybe_merge` *errors* (as opposed to declining) is put
//! on per-target exponential backoff: consecutive failures double the
//! cool-down (capped), so a table stuck on a failing device does not have
//! the pool hammering it every tick while healthy tables wait. The first
//! success resets the streak.

use crate::classic::MergeMetrics;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest per-target cool-down between failed merge attempts.
const MAX_BACKOFF: Duration = Duration::from_secs(30);
/// Cap on the doubling exponent (2^6 = 64× the poll interval).
const MAX_BACKOFF_SHIFT: u32 = 6;

/// What one [`MergeTarget::maybe_merge`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MergePass {
    /// Whether any merge ran.
    pub merged: bool,
    /// Metrics of the delta-to-main merge *this pass* ran, if it ran one —
    /// so the daemon counts every delta merge exactly once.
    pub delta: Option<MergeMetrics>,
}

/// Something the daemon can drive — typically a unified table.
pub trait MergeTarget: Send + Sync {
    /// Check thresholds and run any due merge. Retryable errors are fine;
    /// the daemon just tries again on the next tick (the paper's
    /// failed-merge retry semantics).
    fn maybe_merge(&self) -> hana_common::Result<MergePass>;
}

enum Msg {
    Nudge,
    Shutdown,
}

/// Monotonic counters shared by all workers.
#[derive(Default)]
struct DaemonCounters {
    merges_done: AtomicU64,
    attempts: AtomicU64,
    failures: AtomicU64,
    backoff_skips: AtomicU64,
    merge_nanos: AtomicU64,
    rows_in: AtomicU64,
    rows_out: AtomicU64,
    parallel_columns: AtomicU64,
}

/// Point-in-time view of the daemon's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonStats {
    /// Successful merges across all targets.
    pub merges_done: u64,
    /// `maybe_merge` calls issued (including no-ops and retryable fails).
    pub attempts: u64,
    /// `maybe_merge` calls that returned an error (these arm the backoff).
    pub failures: u64,
    /// Attempts skipped because the target was cooling down after failures.
    pub backoff_skips: u64,
    /// Total wall-clock time spent inside successful merges.
    pub merge_time: Duration,
    /// Rows that entered those merges.
    pub rows_in: u64,
    /// Rows those merges wrote out.
    pub rows_out: u64,
    /// Columns rebuilt by merges whose fan-out used more than one worker.
    pub parallel_columns: u64,
    /// Worker threads in the pool.
    pub workers: usize,
}

struct Slot {
    target: Arc<dyn MergeTarget>,
    claimed: AtomicBool,
    /// Consecutive `maybe_merge` errors; doubles the cool-down.
    fail_streak: AtomicU32,
    /// Nanos since daemon start before which this target is skipped.
    backoff_until_ns: AtomicU64,
}

/// The growable target list: tables (and partitions) registered after the
/// pool spawned still get driven. Workers snapshot it per tick, so a claim
/// flag/backoff state is per-target and never rebuilt.
type SlotList = parking_lot::RwLock<Vec<Arc<Slot>>>;

fn new_slot(target: Arc<dyn MergeTarget>) -> Arc<Slot> {
    Arc::new(Slot {
        target,
        claimed: AtomicBool::new(false),
        fail_streak: AtomicU32::new(0),
        backoff_until_ns: AtomicU64::new(0),
    })
}

impl Slot {
    /// Cool-down after the `streak`-th consecutive failure: the poll
    /// interval doubled per failure, capped at [`MAX_BACKOFF`].
    fn backoff_after(interval: Duration, streak: u32) -> Duration {
        let base = interval.max(Duration::from_millis(1));
        let shift = streak.saturating_sub(1).min(MAX_BACKOFF_SHIFT);
        base.saturating_mul(1 << shift).min(MAX_BACKOFF)
    }
}

/// Handle to the background merge pool; dropping it shuts the pool down.
pub struct MergeDaemon {
    tx: Sender<Msg>,
    handles: Vec<JoinHandle<()>>,
    counters: Arc<DaemonCounters>,
    slots: Arc<SlotList>,
    workers: usize,
}

impl MergeDaemon {
    /// Spawn a single-worker daemon polling `targets` every `interval`.
    pub fn spawn(targets: Vec<Arc<dyn MergeTarget>>, interval: Duration) -> Self {
        Self::spawn_pool(targets, interval, 1)
    }

    /// Spawn a pool of `workers` threads (0 = one per logical CPU) polling
    /// `targets` every `interval`. If the OS refuses a thread the pool just
    /// runs with the threads that did start; one worker always starts
    /// (spawn of the first is mandatory).
    pub fn spawn_pool(
        targets: Vec<Arc<dyn MergeTarget>>,
        interval: Duration,
        workers: usize,
    ) -> Self {
        let workers = crate::parallel::effective_workers(workers).min(targets.len().max(1));
        let (tx, rx): (Sender<Msg>, Receiver<Msg>) = bounded(16 * workers.max(1));
        let counters = Arc::new(DaemonCounters::default());
        let slots: Arc<SlotList> =
            Arc::new(SlotList::new(targets.into_iter().map(new_slot).collect()));

        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let rx = rx.clone();
            let counters = Arc::clone(&counters);
            let slots = Arc::clone(&slots);
            let spawned = std::thread::Builder::new()
                .name(format!("hana-merge-{w}"))
                .spawn(move || worker_loop(&rx, &slots, &counters, interval, t0));
            match spawned {
                Ok(h) => handles.push(h),
                Err(_) if w > 0 => break, // degraded pool: fewer workers
                Err(e) => panic!("spawn merge daemon: {e}"),
            }
        }
        let workers = handles.len();
        MergeDaemon {
            tx,
            handles,
            counters,
            slots,
            workers,
        }
    }

    /// Register another target with the running pool (tables or partitions
    /// created after spawn). The new target gets its own claim flag and
    /// backoff state and is picked up from the next tick on.
    pub fn add_target(&self, target: Arc<dyn MergeTarget>) {
        self.slots.write().push(new_slot(target));
        self.nudge();
    }

    /// Number of registered targets.
    pub fn target_count(&self) -> usize {
        self.slots.read().len()
    }

    /// Ask the daemon to check its targets now.
    pub fn nudge(&self) {
        let _ = self.tx.try_send(Msg::Nudge);
    }

    /// Number of successful merges performed so far.
    pub fn merges_done(&self) -> u64 {
        self.counters.merges_done.load(Ordering::SeqCst)
    }

    /// Snapshot of the aggregate merge statistics.
    pub fn stats(&self) -> DaemonStats {
        let c = &self.counters;
        DaemonStats {
            merges_done: c.merges_done.load(Ordering::SeqCst),
            attempts: c.attempts.load(Ordering::SeqCst),
            failures: c.failures.load(Ordering::SeqCst),
            backoff_skips: c.backoff_skips.load(Ordering::SeqCst),
            merge_time: Duration::from_nanos(c.merge_nanos.load(Ordering::SeqCst)),
            rows_in: c.rows_in.load(Ordering::SeqCst),
            rows_out: c.rows_out.load(Ordering::SeqCst),
            parallel_columns: c.parallel_columns.load(Ordering::SeqCst),
            workers: self.workers,
        }
    }
}

fn worker_loop(
    rx: &Receiver<Msg>,
    slots: &SlotList,
    counters: &DaemonCounters,
    interval: Duration,
    t0: Instant,
) {
    loop {
        match rx.recv_timeout(interval) {
            Ok(Msg::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Ok(Msg::Nudge) | Err(RecvTimeoutError::Timeout) => {
                // Snapshot the list so added targets join on the next tick
                // without workers holding the lock across merges.
                let tick: Vec<Arc<Slot>> = slots.read().clone();
                for slot in &tick {
                    // Win the claim or leave the target to the worker
                    // already on it.
                    if slot
                        .claimed
                        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                        .is_err()
                    {
                        continue;
                    }
                    let now_ns = t0.elapsed().as_nanos() as u64;
                    if now_ns < slot.backoff_until_ns.load(Ordering::Acquire) {
                        counters.backoff_skips.fetch_add(1, Ordering::Relaxed);
                        slot.claimed.store(false, Ordering::Release);
                        continue;
                    }
                    counters.attempts.fetch_add(1, Ordering::Relaxed);
                    match slot.target.maybe_merge() {
                        Ok(pass) => {
                            slot.fail_streak.store(0, Ordering::Relaxed);
                            slot.backoff_until_ns.store(0, Ordering::Release);
                            if pass.merged {
                                counters.merges_done.fetch_add(1, Ordering::SeqCst);
                                if let Some(m) = pass.delta {
                                    counters
                                        .merge_nanos
                                        .fetch_add(m.duration.as_nanos() as u64, Ordering::Relaxed);
                                    counters
                                        .rows_in
                                        .fetch_add(m.rows_in as u64, Ordering::Relaxed);
                                    counters
                                        .rows_out
                                        .fetch_add(m.rows_out as u64, Ordering::Relaxed);
                                    if m.parallel_workers > 1 {
                                        counters
                                            .parallel_columns
                                            .fetch_add(m.columns as u64, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        Err(_) => {
                            // Arm/extend the exponential cool-down; the
                            // merge itself left a retryable state (a frozen
                            // L2 is retried on a later tick).
                            counters.failures.fetch_add(1, Ordering::Relaxed);
                            let streak = slot.fail_streak.fetch_add(1, Ordering::Relaxed) + 1;
                            let wait = Slot::backoff_after(interval, streak);
                            slot.backoff_until_ns
                                .store(now_ns + wait.as_nanos() as u64, Ordering::Release);
                        }
                    }
                    slot.claimed.store(false, Ordering::Release);
                }
            }
        }
    }
}

impl Drop for MergeDaemon {
    fn drop(&mut self) {
        for _ in &self.handles {
            let _ = self.tx.send(Msg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counter {
        calls: AtomicUsize,
        merge_until: usize,
    }

    fn metrics() -> MergeMetrics {
        MergeMetrics {
            duration: Duration::from_nanos(100),
            rows_in: 10,
            rows_out: 8,
            columns: 4,
            parallel_workers: 2,
        }
    }

    impl MergeTarget for Counter {
        fn maybe_merge(&self) -> hana_common::Result<MergePass> {
            let merged = self.calls.fetch_add(1, Ordering::SeqCst) < self.merge_until;
            Ok(MergePass {
                merged,
                delta: merged.then(metrics),
            })
        }
    }

    /// A table-like target: its first pass runs a delta merge, every later
    /// pass only an L1→L2 merge.
    struct DeltaThenL1 {
        calls: AtomicUsize,
    }

    impl MergeTarget for DeltaThenL1 {
        fn maybe_merge(&self) -> hana_common::Result<MergePass> {
            let first = self.calls.fetch_add(1, Ordering::SeqCst) == 0;
            Ok(MergePass {
                merged: true,
                delta: first.then(metrics),
            })
        }
    }

    #[test]
    fn delta_merge_counted_once_across_l1_only_passes() {
        let target = Arc::new(DeltaThenL1 {
            calls: AtomicUsize::new(0),
        });
        let daemon = MergeDaemon::spawn(
            vec![Arc::clone(&target) as Arc<dyn MergeTarget>],
            Duration::from_millis(1),
        );
        for _ in 0..400 {
            if daemon.merges_done() >= 5 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = daemon.stats();
        assert!(stats.merges_done >= 5, "{stats:?}");
        assert_eq!(stats.rows_in, 10, "one delta merge, counted once");
        assert_eq!(stats.rows_out, 8);
        assert_eq!(stats.merge_time, Duration::from_nanos(100));
    }

    fn counter(merge_until: usize) -> Arc<Counter> {
        Arc::new(Counter {
            calls: AtomicUsize::new(0),
            merge_until,
        })
    }

    #[test]
    fn nudge_triggers_target() {
        let target = counter(2);
        let daemon = MergeDaemon::spawn(
            vec![Arc::clone(&target) as Arc<dyn MergeTarget>],
            Duration::from_secs(3600),
        );
        daemon.nudge();
        for _ in 0..200 {
            if target.calls.load(Ordering::SeqCst) > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(target.calls.load(Ordering::SeqCst) >= 1);
        daemon.nudge();
        for _ in 0..200 {
            if daemon.merges_done() >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(daemon.merges_done() >= 1);
    }

    #[test]
    fn interval_polling_works() {
        let target = counter(usize::MAX);
        let _daemon = MergeDaemon::spawn(
            vec![Arc::clone(&target) as Arc<dyn MergeTarget>],
            Duration::from_millis(5),
        );
        for _ in 0..200 {
            if target.calls.load(Ordering::SeqCst) >= 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(target.calls.load(Ordering::SeqCst) >= 3);
    }

    #[test]
    fn drop_shuts_down() {
        let target = counter(0);
        let daemon = MergeDaemon::spawn(
            vec![Arc::clone(&target) as Arc<dyn MergeTarget>],
            Duration::from_millis(1),
        );
        std::thread::sleep(Duration::from_millis(20));
        drop(daemon); // joins without hanging
        let after = target.calls.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(target.calls.load(Ordering::SeqCst), after);
    }

    #[test]
    fn pool_drives_many_targets_and_aggregates_stats() {
        let targets: Vec<Arc<Counter>> = (0..6).map(|_| counter(1)).collect();
        let daemon = MergeDaemon::spawn_pool(
            targets
                .iter()
                .map(|t| Arc::clone(t) as Arc<dyn MergeTarget>)
                .collect(),
            Duration::from_millis(2),
            4,
        );
        for _ in 0..400 {
            if daemon.merges_done() >= 6 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = daemon.stats();
        assert_eq!(stats.merges_done, 6, "each target merges exactly once");
        assert!(stats.attempts >= 6);
        assert!(stats.workers >= 1 && stats.workers <= 4);
        // Metrics aggregated from the targets' reports.
        assert_eq!(stats.rows_in, 60);
        assert_eq!(stats.rows_out, 48);
        assert_eq!(stats.parallel_columns, 24);
        assert!(stats.merge_time >= Duration::from_nanos(600));
    }

    struct AlwaysFails {
        calls: AtomicUsize,
    }

    impl MergeTarget for AlwaysFails {
        fn maybe_merge(&self) -> hana_common::Result<MergePass> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            Err(hana_common::HanaError::Io(std::io::Error::other(
                "device gone",
            )))
        }
    }

    #[test]
    fn failing_target_backs_off_exponentially() {
        let target = Arc::new(AlwaysFails {
            calls: AtomicUsize::new(0),
        });
        let interval = Duration::from_millis(2);
        let daemon =
            MergeDaemon::spawn(vec![Arc::clone(&target) as Arc<dyn MergeTarget>], interval);
        std::thread::sleep(Duration::from_millis(120));
        let stats = daemon.stats();
        drop(daemon);
        // Without backoff ~60 ticks would all attempt; the doubling
        // cool-down must swallow most of them.
        let calls = target.calls.load(Ordering::SeqCst);
        assert!(stats.failures >= 2, "failures recorded: {stats:?}");
        assert_eq!(stats.failures, calls as u64);
        assert!(
            calls < 20,
            "backoff should throttle a persistently failing target, got {calls} attempts"
        );
        assert!(stats.backoff_skips > 0, "skips counted: {stats:?}");
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let i = Duration::from_millis(10);
        assert_eq!(Slot::backoff_after(i, 1), Duration::from_millis(10));
        assert_eq!(Slot::backoff_after(i, 2), Duration::from_millis(20));
        assert_eq!(Slot::backoff_after(i, 4), Duration::from_millis(80));
        // Exponent caps at 2^6…
        assert_eq!(Slot::backoff_after(i, 40), Duration::from_millis(640));
        // …and the absolute cap clamps long intervals.
        assert_eq!(Slot::backoff_after(Duration::from_secs(10), 9), MAX_BACKOFF);
    }

    #[test]
    fn add_target_joins_running_pool() {
        let daemon = MergeDaemon::spawn(vec![], Duration::from_millis(2));
        assert_eq!(daemon.target_count(), 0);
        let target = counter(1);
        daemon.add_target(Arc::clone(&target) as Arc<dyn MergeTarget>);
        assert_eq!(daemon.target_count(), 1);
        for _ in 0..400 {
            if daemon.merges_done() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(daemon.merges_done(), 1, "late-registered target merged");
    }

    #[test]
    fn zero_workers_means_auto() {
        let target = counter(1);
        let daemon = MergeDaemon::spawn_pool(
            vec![Arc::clone(&target) as Arc<dyn MergeTarget>],
            Duration::from_millis(2),
            0,
        );
        assert!(daemon.stats().workers >= 1);
        for _ in 0..200 {
            if daemon.merges_done() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(daemon.merges_done(), 1);
    }
}
