//! The PU-side read request queue with CAM-style request coalescing (§3.4).
//!
//! Each entry of the read request queue carries a comparator so an incoming
//! load to a block already queued merges into the existing slot instead of
//! issuing a duplicate DRAM access. Because the memory response is
//! broadcast to all prefetch buffers, the queue only records *which*
//! buffers wait on a block so the simulator can deliver data; the hardware
//! needs no requester tracking.

/// Outcome of enqueueing a block load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// A new queue slot was allocated.
    Queued,
    /// The request merged into an existing slot for the same block.
    Coalesced,
    /// The queue is full; retry later.
    Full,
}

#[derive(Debug, Clone, Default)]
struct Entry {
    block: u64,
    waiters: Vec<u32>,
    issued: bool,
}

menda_dram::snap_fields!(Entry {
    block,
    waiters,
    issued
});

/// Read request queue with optional coalescing.
///
/// # Example
///
/// ```
/// use menda_core::CoalescingQueue;
///
/// let mut q = CoalescingQueue::new(4, true);
/// q.enqueue(0x40, 0);
/// q.enqueue(0x40, 1); // coalesces
/// assert_eq!(q.len(), 1);
/// assert_eq!(q.next_to_issue(), Some(0x40));
/// q.mark_issued(0x40);
/// assert_eq!(q.complete(0x40), vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct CoalescingQueue {
    capacity: usize,
    entries: Vec<Entry>,
    coalescing: bool,
    coalesced_count: u64,
    queued_count: u64,
    /// Entries with `issued == false`, kept in sync by
    /// `enqueue`/`mark_issued`/`complete` so `has_unissued` is O(1).
    ///
    /// Issue order is FIFO, so issued entries form a prefix of `entries`
    /// and the oldest unissued entry sits at `len - unissued` — making
    /// `next_to_issue` O(1) on the per-cycle hot path (with a linear
    /// fallback should a caller ever issue out of order).
    unissued: usize,
    /// Recycled waiter vectors: completions return their (cleared) waiter
    /// storage here and enqueues reuse it, so the steady-state loop
    /// allocates nothing.
    waiter_pool: Vec<Vec<u32>>,
}

// The waiter pool is recycling storage only; `capacity` and `coalescing`
// come from the restore target.
menda_dram::snap_fields!(CoalescingQueue {
    entries,
    coalesced_count,
    queued_count,
} after restored);

impl CoalescingQueue {
    /// Creates a queue with `capacity` slots; `coalescing` enables the CAM
    /// match.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, coalescing: bool) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            entries: Vec::with_capacity(capacity),
            coalescing,
            coalesced_count: 0,
            queued_count: 0,
            unissued: 0,
            waiter_pool: Vec::new(),
        }
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether all slots are occupied.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Requests that merged into existing slots so far.
    pub fn coalesced_count(&self) -> u64 {
        self.coalesced_count
    }

    /// Requests that allocated a new slot so far.
    pub fn queued_count(&self) -> u64 {
        self.queued_count
    }

    /// Enqueues a load of `block` on behalf of `waiter`.
    pub fn enqueue(&mut self, block: u64, waiter: u32) -> EnqueueOutcome {
        if self.coalescing {
            if let Some(e) = self.entries.iter_mut().find(|e| e.block == block) {
                e.waiters.push(waiter);
                self.coalesced_count += 1;
                return EnqueueOutcome::Coalesced;
            }
        }
        if self.is_full() {
            return EnqueueOutcome::Full;
        }
        let mut waiters = self.waiter_pool.pop().unwrap_or_default();
        waiters.push(waiter);
        self.entries.push(Entry {
            block,
            waiters,
            issued: false,
        });
        self.queued_count += 1;
        self.unissued += 1;
        EnqueueOutcome::Queued
    }

    /// Whether any entry is still waiting to be issued — O(1), equivalent
    /// to `next_to_issue().is_some()` without the slot scan.
    pub fn has_unissued(&self) -> bool {
        self.unissued > 0
    }

    /// The oldest block not yet issued to the memory interface.
    pub fn next_to_issue(&self) -> Option<u64> {
        if self.unissued == 0 {
            return None;
        }
        let first = self.entries.len() - self.unissued;
        let e = &self.entries[first];
        if !e.issued {
            return Some(e.block);
        }
        // A caller issued out of FIFO order; fall back to the slot scan.
        self.entries.iter().find(|e| !e.issued).map(|e| e.block)
    }

    /// Marks `block` as issued (it stays resident until completion so late
    /// arrivals can still coalesce).
    pub fn mark_issued(&mut self, block: u64) {
        if self.unissued == 0 {
            return;
        }
        let first = self.entries.len() - self.unissued;
        let pos = if self.entries[first].block == block && !self.entries[first].issued {
            Some(first)
        } else {
            self.entries
                .iter()
                .position(|e| e.block == block && !e.issued)
        };
        if let Some(pos) = pos {
            self.entries[pos].issued = true;
            self.unissued -= 1;
        }
    }

    /// Completes `block`: removes its slot and appends the waiters to
    /// notify onto `out` (nothing if the block was not resident). The
    /// entry's waiter storage is recycled, so steady-state completions
    /// are allocation-free.
    pub fn complete_into(&mut self, block: u64, out: &mut Vec<u32>) {
        if let Some(pos) = self.entries.iter().position(|e| e.block == block) {
            let mut entry = self.entries.remove(pos);
            if !entry.issued {
                self.unissued -= 1;
            }
            out.extend_from_slice(&entry.waiters);
            entry.waiters.clear();
            self.waiter_pool.push(entry.waiters);
        }
    }

    /// Completes `block`: removes its slot and returns the waiters to
    /// notify (empty if the block was not resident). Allocating
    /// convenience wrapper over [`CoalescingQueue::complete_into`].
    pub fn complete(&mut self, block: u64) -> Vec<u32> {
        let mut out = Vec::new();
        self.complete_into(block, &mut out);
        out
    }

    /// Post-load checks and rebuilds: at most `capacity` entries, each
    /// with a waiter; the unissued count is recomputed from the entries
    /// and the waiter pool starts empty.
    fn restored(&mut self) -> Result<(), menda_dram::SnapError> {
        if self.entries.len() > self.capacity || self.entries.iter().any(|e| e.waiters.is_empty()) {
            return Err(menda_dram::SnapError::BadValue);
        }
        self.unissued = self.entries.iter().filter(|e| !e.issued).count();
        self.waiter_pool.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_duplicate_blocks() {
        let mut q = CoalescingQueue::new(4, true);
        assert_eq!(q.enqueue(0x100, 1), EnqueueOutcome::Queued);
        assert_eq!(q.enqueue(0x100, 2), EnqueueOutcome::Coalesced);
        assert_eq!(q.enqueue(0x140, 3), EnqueueOutcome::Queued);
        assert_eq!(q.len(), 2);
        assert_eq!(q.coalesced_count(), 1);
        assert_eq!(q.queued_count(), 2);
    }

    #[test]
    fn disabled_coalescing_allocates_slots() {
        let mut q = CoalescingQueue::new(4, false);
        assert_eq!(q.enqueue(0x100, 1), EnqueueOutcome::Queued);
        assert_eq!(q.enqueue(0x100, 2), EnqueueOutcome::Queued);
        assert_eq!(q.len(), 2);
        assert_eq!(q.coalesced_count(), 0);
    }

    #[test]
    fn full_queue_rejects_new_blocks_but_coalesces() {
        let mut q = CoalescingQueue::new(2, true);
        q.enqueue(0x0, 0);
        q.enqueue(0x40, 1);
        assert_eq!(q.enqueue(0x80, 2), EnqueueOutcome::Full);
        // Coalescing into resident entries still works when full.
        assert_eq!(q.enqueue(0x40, 3), EnqueueOutcome::Coalesced);
    }

    #[test]
    fn issue_order_is_fifo() {
        let mut q = CoalescingQueue::new(4, true);
        q.enqueue(0xA0, 0);
        q.enqueue(0x40, 1);
        assert_eq!(q.next_to_issue(), Some(0xA0));
        q.mark_issued(0xA0);
        assert_eq!(q.next_to_issue(), Some(0x40));
        q.mark_issued(0x40);
        assert_eq!(q.next_to_issue(), None);
    }

    #[test]
    fn late_coalesce_into_issued_entry() {
        let mut q = CoalescingQueue::new(4, true);
        q.enqueue(0x40, 1);
        q.mark_issued(0x40);
        assert_eq!(q.enqueue(0x40, 2), EnqueueOutcome::Coalesced);
        assert_eq!(q.complete(0x40), vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn complete_unknown_block_is_empty() {
        let mut q = CoalescingQueue::new(2, true);
        assert!(q.complete(0xdea_dc0).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = CoalescingQueue::new(0, true);
    }
}
