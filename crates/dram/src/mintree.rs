//! A flat tournament tree maintaining running minima over a fixed set of
//! slots — the O(log B) min structure the per-bank scheduler caches hang off.
//!
//! Each DRAM channel keeps one tree per FR-FCFS pass (column / activate /
//! precharge), with one leaf per bank holding that bank's *bank-local*
//! earliest-ready cycle for the pass (`u64::MAX` when the bank has no
//! candidate). Bank-local values only change when a command issues to that
//! bank or its queue membership changes, so a single O(log B) [`MinTree::set`]
//! keeps the structure current while cold banks are never rescanned. The
//! channel-global constraints (command-bus spacing, tCCD_L, tRRD, tFAW) are
//! applied at query time per bank group. Banks are laid out
//! bank-group-major with a power-of-two group width, so a group is one
//! aligned subtree: [`MinTree::subtree_min`] reads its minimum in O(1), and
//! [`MinTree::min_excluding`] gives the minimum over every other group in
//! O(log groups).

/// Fixed-size tournament (segment) tree over `u64` values with `min` as the
/// combining operation. Missing values are represented as `u64::MAX`.
#[derive(Debug, Clone)]
pub struct MinTree {
    /// Power-of-two leaf span; leaves live at `vals[n..n + leaves]`.
    n: usize,
    leaves: usize,
    vals: Vec<u64>,
}

impl MinTree {
    /// Creates a tree over `leaves` slots, all initialised to `u64::MAX`.
    pub fn new(leaves: usize) -> Self {
        let n = leaves.next_power_of_two().max(1);
        MinTree {
            n,
            leaves,
            vals: vec![u64::MAX; 2 * n],
        }
    }

    /// Number of slots the tree was built over.
    pub fn len(&self) -> usize {
        self.leaves
    }

    /// Returns `true` if the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.leaves == 0
    }

    /// Current value of slot `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.vals[self.n + i]
    }

    /// Sets slot `i` to `v` and rebuilds the O(log B) path to the root.
    pub fn set(&mut self, i: usize, v: u64) {
        let mut node = self.n + i;
        if self.vals[node] == v {
            return;
        }
        self.vals[node] = v;
        while node > 1 {
            node /= 2;
            let combined = self.vals[2 * node].min(self.vals[2 * node + 1]);
            if self.vals[node] == combined {
                break;
            }
            self.vals[node] = combined;
        }
    }

    /// Minimum over all slots (`u64::MAX` when every slot is empty).
    pub fn min(&self) -> u64 {
        self.vals[1]
    }

    /// Minimum over the aligned power-of-two block `[lo, lo + len)` as a
    /// single internal-node lookup: the block is exactly one subtree of the
    /// padded span, so its running minimum is already materialised. O(1).
    pub fn subtree_min(&self, lo: usize, len: usize) -> u64 {
        debug_assert!(len.is_power_of_two() && lo.is_multiple_of(len) && lo + len <= self.n);
        self.vals[(self.n + lo) / len]
    }

    /// Minimum over every slot outside the aligned power-of-two block
    /// `[lo, lo + len)`: the block is one subtree, so the minimum of
    /// everything else is the minimum of the siblings on its path to the
    /// root. O(log(slots / len)).
    pub fn min_excluding(&self, lo: usize, len: usize) -> u64 {
        debug_assert!(len.is_power_of_two() && lo.is_multiple_of(len) && lo + len <= self.n);
        let mut node = (self.n + lo) / len;
        let mut best = u64::MAX;
        while node > 1 {
            best = best.min(self.vals[node ^ 1]);
            node /= 2;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive minimum over `vals[lo..hi]`.
    fn naive_min(vals: &[u64], lo: usize, hi: usize) -> u64 {
        vals[lo..hi].iter().copied().min().unwrap_or(u64::MAX)
    }

    #[test]
    fn starts_empty() {
        let t = MinTree::new(16);
        assert_eq!(t.min(), u64::MAX);
        assert_eq!(t.subtree_min(0, 16), u64::MAX);
        assert_eq!(t.len(), 16);
        assert!(!t.is_empty());
    }

    #[test]
    fn tracks_global_min_through_updates() {
        let mut t = MinTree::new(16);
        t.set(3, 100);
        t.set(9, 40);
        t.set(15, 70);
        assert_eq!(t.min(), 40);
        t.set(9, u64::MAX); // candidate disappears
        assert_eq!(t.min(), 70);
        t.set(0, 5);
        assert_eq!(t.min(), 5);
        assert_eq!(t.get(0), 5);
    }

    #[test]
    fn block_minima_match_naive_scans() {
        // Random trees (power-of-two and padded slot counts, with empty
        // slots) checked after every update: each aligned block's own
        // minimum, and the minimum of everything outside it.
        let mut state: u64 = 0x9E37_79B9;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for slots in [1usize, 2, 8, 13, 16, 32] {
            let mut t = MinTree::new(slots);
            let mut vals = vec![u64::MAX; t.n];
            for step in 0..200 {
                let i = next() as usize % slots;
                let v = if step % 5 == 0 {
                    u64::MAX
                } else {
                    next() % 1000
                };
                vals[i] = v;
                t.set(i, v);
                assert_eq!(t.min(), naive_min(&vals, 0, t.n));
                let mut len = 1;
                while len <= t.n {
                    for lo in (0..t.n).step_by(len) {
                        let outside = naive_min(&vals, 0, lo).min(naive_min(&vals, lo + len, t.n));
                        assert_eq!(t.subtree_min(lo, len), naive_min(&vals, lo, lo + len));
                        assert_eq!(
                            t.min_excluding(lo, len),
                            outside,
                            "outside [{lo}, {})",
                            lo + len
                        );
                    }
                    len *= 2;
                }
            }
        }
    }

    #[test]
    fn single_slot_tree() {
        let mut t = MinTree::new(1);
        assert_eq!(t.min(), u64::MAX);
        t.set(0, 42);
        assert_eq!(t.min(), 42);
        assert_eq!(t.subtree_min(0, 1), 42);
        assert_eq!(t.min_excluding(0, 1), u64::MAX);
    }
}
