//! Background on-disk integrity scrubbing.
//!
//! The persist layer verifies every artifact it is *asked* to read; a page
//! nobody reads can rot silently until the moment its redundancy (the
//! previous savepoint generation, the REDO log) is gone too. The scrubber
//! closes that window: it walks every live page and savepoint image in
//! small batches, re-verifying checksums while recovery from a detected
//! fault is still possible, and feeds detections into the same [`Health`]
//! scoring as foreground I/O failures.
//!
//! ## Scheduling
//!
//! [`Scrubber`] implements [`MergeTarget`], so the [`MergeDaemon`] drives
//! it with the same per-target claim/backoff machinery as merges and GC —
//! and [`Database::enable_scrub`](crate::Database::enable_scrub) wraps it
//! in the governor's admission check, so scrub ticks defer while OLTP is
//! hot exactly like merge and GC passes do. `maybe_merge` always returns
//! `Ok(false)`: a scrub tick is invisible to the daemon's merge counters
//! and never arms its failure backoff (a corrupt page is *scored*, via
//! [`Health`], not retried by the daemon).
//!
//! [`Health`]: hana_persist::Health
//! [`MergeDaemon`]: hana_merge::MergeDaemon

use hana_common::ScrubConfig;
use hana_merge::{MergePass, MergeTarget};
use hana_persist::Persistence;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The database's scrub driver: one [`MergeTarget`] that advances the
/// persistence layer's scrub cursor by [`ScrubConfig::batch_pages`] pages
/// per admitted tick.
pub struct Scrubber {
    persist: Arc<Persistence>,
    cfg: ScrubConfig,
    /// Minimum gap between ticks (the daemon may tick far faster than a
    /// verification batch is worth).
    min_gap: Duration,
    last_run: Mutex<Option<Instant>>,
}

impl Scrubber {
    /// Wrap `persist` for registration with the merge daemon.
    pub fn new(persist: Arc<Persistence>, cfg: ScrubConfig) -> Arc<Self> {
        Self::with_min_gap(persist, cfg, Duration::from_millis(25))
    }

    /// [`Scrubber::new`] with an explicit tick throttle (tests).
    pub fn with_min_gap(
        persist: Arc<Persistence>,
        cfg: ScrubConfig,
        min_gap: Duration,
    ) -> Arc<Self> {
        Arc::new(Scrubber {
            persist,
            cfg,
            min_gap,
            last_run: Mutex::new(None),
        })
    }
}

impl MergeTarget for Scrubber {
    fn maybe_merge(&self) -> hana_common::Result<MergePass> {
        if self.cfg.batch_pages == 0 {
            return Ok(MergePass::default());
        }
        {
            let mut last = self.last_run.lock();
            if let Some(t) = *last {
                if t.elapsed() < self.min_gap {
                    return Ok(MergePass::default());
                }
            }
            *last = Some(Instant::now());
        }
        self.persist.scrub_tick(self.cfg.batch_pages);
        // Never count as a merge, never arm the daemon's failure backoff.
        Ok(MergePass::default())
    }
}
