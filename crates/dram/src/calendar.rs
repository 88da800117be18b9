//! The next-event table over per-source event cycles.
//!
//! The event-driven core needs one query answered cheaply and often: *which
//! event source fires next, and when?* A source is one DRAM channel of one
//! [`crate::system::DramSystem`]. Every shipped profile has at most 16
//! channels, and a sharded run builds one `DramSystem` per shard, so the
//! source count stays at the channel count however many shards run. At
//! that size the answer is a dense per-source key table plus a cached
//! minimum: a reschedule is one store and at most one compare, and a peek
//! is a field read while the cache holds, or a scan of a few keys when the
//! cached source itself moved.
//!
//! Keys are absolute cycles; callers maintain the invariant that no live
//! key lies in the past (debug-asserted on peek).

/// A table mapping event sources to their next event cycle.
///
/// `u64::MAX` means "no pending event".
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    /// Key per source (`u64::MAX` = idle).
    key_of: Vec<u64>,
    /// Sources with a live key — lets an all-idle peek answer in O(1).
    live: usize,
    /// The exact `(key, src)` minimum over the table, or `None` when it
    /// must be recomputed. [`CalendarQueue::schedule`] keeps it current
    /// incrementally (an earlier key replaces it; rescheduling the cached
    /// source invalidates it), so the steady-state peek — many peeks per
    /// reschedule of a non-minimal source — is a field read.
    cached_min: Option<(u64, u32)>,
}

impl CalendarQueue {
    /// Creates a table with `sources` idle event sources.
    pub fn new(sources: usize) -> Self {
        CalendarQueue {
            key_of: vec![u64::MAX; sources],
            live: 0,
            cached_min: None,
        }
    }

    /// Number of event sources.
    pub fn sources(&self) -> usize {
        self.key_of.len()
    }

    /// The key of `src` (`u64::MAX` when idle).
    pub fn key(&self, src: usize) -> u64 {
        self.key_of[src]
    }

    /// (Re)schedules `src` at absolute cycle `key`; `u64::MAX` cancels.
    pub fn schedule(&mut self, src: usize, key: u64) {
        let old = self.key_of[src];
        if old == key {
            return;
        }
        match (old == u64::MAX, key == u64::MAX) {
            (true, false) => self.live += 1,
            (false, true) => self.live -= 1,
            _ => {}
        }
        self.key_of[src] = key;
        // Keep the cached minimum exact: a strictly-smaller (key, src) pair
        // takes it over; moving the cached source itself leaves the true
        // minimum unknown until the next peek recomputes it.
        match self.cached_min {
            Some((_, s)) if s as usize == src => self.cached_min = None,
            Some(m) if key != u64::MAX && (key, src as u32) < m => {
                self.cached_min = Some((key, src as u32));
            }
            _ => {}
        }
    }

    /// The earliest pending event at or after `now`: `(cycle, source)`, or
    /// `None` when every source is idle. Ties go to the lowest source.
    ///
    /// Requires the caller's invariant that no live key is below `now`
    /// (debug-asserted).
    pub fn peek_min(&mut self, now: u64) -> Option<(u64, usize)> {
        if self.live == 0 {
            return None;
        }
        if let Some((key, src)) = self.cached_min {
            debug_assert_eq!(self.key_of[src as usize], key, "stale cached min");
            debug_assert!(key >= now, "live key {key} below now {now}");
            return Some((key, src as usize));
        }
        let found = self
            .key_of
            .iter()
            .enumerate()
            .filter(|(_, &k)| k != u64::MAX)
            .map(|(src, &k)| (k, src))
            .min();
        debug_assert!(
            found.is_none_or(|(k, _)| k >= now),
            "live key below now {now}"
        );
        self.cached_min = found.map(|(k, s)| (k, s as u32));
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_calendar_peeks_none() {
        let mut c = CalendarQueue::new(4);
        assert_eq!(c.peek_min(0), None);
        assert_eq!(c.sources(), 4);
        assert_eq!(c.key(2), u64::MAX);
    }

    #[test]
    fn returns_earliest_across_sources() {
        let mut c = CalendarQueue::new(4);
        c.schedule(0, 100);
        c.schedule(1, 40);
        c.schedule(2, 70);
        assert_eq!(c.peek_min(0), Some((40, 1)));
        assert_eq!(c.peek_min(40), Some((40, 1)));
    }

    #[test]
    fn reschedule_supersedes_the_old_key() {
        let mut c = CalendarQueue::new(2);
        c.schedule(0, 50);
        c.schedule(0, 200); // moves later
        assert_eq!(c.peek_min(0), Some((200, 0)));
        c.schedule(0, 90); // moves earlier again
        assert_eq!(c.peek_min(60), Some((90, 0)));
        c.schedule(0, u64::MAX); // cancel
        assert_eq!(c.peek_min(60), None);
    }

    #[test]
    fn ties_go_to_the_lowest_source() {
        let mut c = CalendarQueue::new(3);
        c.schedule(2, 10);
        assert_eq!(c.peek_min(0), Some((10, 2)));
        c.schedule(1, 10);
        assert_eq!(c.peek_min(0), Some((10, 1)));
        c.schedule(1, 30);
        assert_eq!(c.peek_min(0), Some((10, 2)));
    }

    #[test]
    fn heavy_rescheduling_stays_consistent_with_naive_min() {
        // Pseudo-random churn across 16 sources; after every operation the
        // table's answer must match a naive min over the keys.
        let sources = 16;
        let mut c = CalendarQueue::new(sources);
        let mut keys = vec![u64::MAX; sources];
        let mut state: u64 = 0xDEAD_BEEF;
        let mut now = 0u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let src = (state >> 33) as usize % sources;
            let key = if state.is_multiple_of(11) {
                u64::MAX
            } else {
                now + (state >> 48) % 500
            };
            c.schedule(src, key);
            keys[src] = key;
            let naive = keys
                .iter()
                .enumerate()
                .filter(|(_, &k)| k != u64::MAX)
                .map(|(s, &k)| (k, s))
                .min();
            assert_eq!(c.peek_min(now), naive);
            // Advance "time" to the min occasionally; new keys are drawn at
            // or after it, so no live key falls below `now`.
            if state.is_multiple_of(7) {
                if let Some((k, _)) = naive {
                    now = k;
                }
            }
        }
    }
}
