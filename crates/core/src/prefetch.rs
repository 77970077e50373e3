//! Prefetch buffers (§3.2, §3.4).
//!
//! Each merge-tree leaf port is fed by one prefetch buffer implemented as
//! multi-bank SRAM in hardware. A buffer walks a queue of stream
//! descriptors (one per merge round, enabling seamless back-to-back merge
//! sort), fetches the stream's elements block by block through the read
//! request queue, and presents decoded packets to the leaf PE, appending an
//! end-of-line marker after each stream.
//!
//! With **stall-reducing prefetching** (§3.4) a buffer issues the next
//! chunk's loads whenever the chunk fits in its free space; without it, a
//! buffer only issues loads once it has fully drained. Either way a buffer
//! keeps at most one chunk outstanding — the paper found it better to keep
//! every buffer non-empty than to serially fill each one.

use std::collections::VecDeque;
use std::ops::Range;

use crate::layout::{AddressLayout, BLOCK_BYTES, IDX_BYTES};
use crate::merge_tree::Packet;

/// What kind of data a stream reads, which determines the arrays fetched
/// per element and how packets are decoded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamKind {
    /// Iteration-0 transposition stream: one CSR row. Fetches the column
    /// index and value arrays; the row index is implicit.
    CsrRow {
        /// The row this stream carries (becomes the packet's minor key).
        row: u32,
    },
    /// Intermediate COO stream in ping-pong `region`. Fetches row, column
    /// and value arrays.
    Coo {
        /// Ping-pong region index (0 or 1).
        region: u8,
    },
    /// SpMV iteration-0 stream: one CSC column, values pre-scaled by the
    /// matching vector element (the vectorized multiplier of §3.6).
    SpmvCol {
        /// The vector element this column is multiplied by.
        scale: f32,
    },
    /// SpMV intermediate stream: (index, value) pairs in `region`.
    Pair {
        /// Ping-pong region index (0 or 1).
        region: u8,
    },
}

/// A sorted stream for the merge tree: elements `[start, end)` of the
/// arrays selected by `kind`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamDescriptor {
    /// First element offset.
    pub start: u64,
    /// One past the last element offset (may equal `start` for a bare-EOL
    /// placeholder stream).
    pub end: u64,
    /// Data kind.
    pub kind: StreamKind,
}

impl StreamKind {
    /// Serializes the kind as a tag byte plus payload.
    pub(crate) fn save_state(&self, enc: &mut menda_dram::Encoder) {
        match *self {
            StreamKind::CsrRow { row } => {
                enc.u8(0);
                enc.u32(row);
            }
            StreamKind::Coo { region } => {
                enc.u8(1);
                enc.u8(region);
            }
            StreamKind::SpmvCol { scale } => {
                enc.u8(2);
                enc.f32(scale);
            }
            StreamKind::Pair { region } => {
                enc.u8(3);
                enc.u8(region);
            }
        }
    }

    /// Decodes a kind saved by [`StreamKind::save_state`].
    pub(crate) fn restore_state(
        dec: &mut menda_dram::Decoder<'_>,
    ) -> Result<Self, menda_dram::SnapError> {
        Ok(match dec.u8()? {
            0 => StreamKind::CsrRow { row: dec.u32()? },
            1 => StreamKind::Coo { region: dec.u8()? },
            2 => StreamKind::SpmvCol { scale: dec.f32()? },
            3 => StreamKind::Pair { region: dec.u8()? },
            _ => return Err(menda_dram::SnapError::BadValue),
        })
    }
}

impl StreamDescriptor {
    /// An empty placeholder stream that only emits an EOL marker.
    pub fn empty() -> Self {
        Self {
            start: 0,
            end: 0,
            kind: StreamKind::CsrRow { row: 0 },
        }
    }

    /// Serializes the descriptor.
    pub(crate) fn save_state(&self, enc: &mut menda_dram::Encoder) {
        enc.u64(self.start);
        enc.u64(self.end);
        self.kind.save_state(enc);
    }

    /// Decodes a descriptor saved by [`StreamDescriptor::save_state`].
    /// Rejects ranges whose end precedes their start.
    pub(crate) fn restore_state(
        dec: &mut menda_dram::Decoder<'_>,
    ) -> Result<Self, menda_dram::SnapError> {
        let start = dec.u64()?;
        let end = dec.u64()?;
        if end < start {
            return Err(menda_dram::SnapError::BadValue);
        }
        Ok(Self {
            start,
            end,
            kind: StreamKind::restore_state(dec)?,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the stream has no elements.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A fixed-capacity inline list of block addresses. Chunk plans are built
/// on the per-cycle fetch-planning path of every prefetch buffer, so their
/// block lists live on the stack instead of allocating a `Vec` per plan
/// (and another per committed chunk). Dereferences to a slice, so it reads
/// like a `Vec<u64>` at the call sites.
#[derive(Debug, Clone, Copy)]
pub struct BlockList {
    items: [u64; Self::CAP],
    len: u8,
}

impl BlockList {
    /// Upper bound on blocks per chunk: `max_fetch_blocks` (capped at the
    /// read-queue size, 32) plus one extra unaligned leading window per
    /// backing array (at most 3).
    pub const CAP: usize = 36;

    fn new() -> Self {
        Self {
            items: [0; Self::CAP],
            len: 0,
        }
    }

    fn push(&mut self, block: u64) {
        assert!((self.len as usize) < Self::CAP, "chunk plan overflows");
        self.items[self.len as usize] = block;
        self.len += 1;
    }

    fn swap_remove(&mut self, pos: usize) {
        debug_assert!(pos < self.len as usize);
        self.len -= 1;
        self.items[pos] = self.items[self.len as usize];
    }

    fn save_state(&self, enc: &mut menda_dram::Encoder) {
        enc.u8(self.len);
        for &b in self.iter() {
            enc.u64(b);
        }
    }

    fn restore_state(dec: &mut menda_dram::Decoder<'_>) -> Result<Self, menda_dram::SnapError> {
        let len = dec.u8()?;
        if len as usize > Self::CAP {
            return Err(menda_dram::SnapError::BadValue);
        }
        let mut list = Self::new();
        for _ in 0..len {
            list.push(dec.u64()?);
        }
        Ok(list)
    }
}

impl std::ops::Deref for BlockList {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.items[..self.len as usize]
    }
}

impl PartialEq for BlockList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<'a> IntoIterator for &'a BlockList {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Outcome of a [`PrefetchBuffer::plan_fetch`] attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchPlan {
    /// Nothing can be fetched right now (chunk in flight, streams
    /// exhausted, or not enough free buffer space).
    None,
    /// The next chunk needs `blocks` read-queue slots but the caller
    /// offered fewer. Nothing was committed; retry when the queue drains.
    Blocked {
        /// Slots the chunk's loads would occupy.
        blocks: usize,
    },
    /// The chunk was planned and recorded as in flight; the caller must
    /// now enqueue every address in [`PrefetchBuffer::pending_blocks`].
    Planned {
        /// Elements covered by the chunk.
        elems: Range<u64>,
        /// Whether this chunk ends the stream.
        last: bool,
    },
}

#[derive(Debug, Clone)]
struct PendingChunk {
    elems: Range<u64>,
    awaiting: BlockList,
    last: bool,
}

/// One prefetch buffer.
#[derive(Debug, Clone)]
pub struct PrefetchBuffer {
    id: u32,
    capacity: usize,
    max_fetch_blocks: usize,
    prefetch: bool,
    layout: AddressLayout,
    streams: VecDeque<StreamDescriptor>,
    current: Option<(StreamDescriptor, u64)>,
    pending: Option<PendingChunk>,
    packets: VecDeque<Packet>,
    nz_held: usize,
    /// Lower bound on the free space a [`PrefetchBuffer::plan_fetch`] call
    /// needs to do anything, learned from the last refusal and reset on
    /// every state change that could unblock a fetch. Purely a wakeup
    /// filter for the event-driven fast path ([`PrefetchBuffer::fetch_ready`]);
    /// never read by `plan_fetch` itself, so the per-cycle reference path
    /// is unaffected.
    need_free: usize,
}

impl PrefetchBuffer {
    /// Creates buffer `id` holding up to `capacity` nonzeros.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(id: u32, capacity: usize, prefetch: bool, layout: AddressLayout) -> Self {
        Self::with_fetch_limit(id, capacity, 16, prefetch, layout)
    }

    /// Like [`PrefetchBuffer::new`] with an explicit bound on block loads
    /// per fetch (must not exceed the read request queue capacity, or the
    /// fetch could never be enqueued atomically).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `max_fetch_blocks` is zero.
    pub fn with_fetch_limit(
        id: u32,
        capacity: usize,
        max_fetch_blocks: usize,
        prefetch: bool,
        layout: AddressLayout,
    ) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(max_fetch_blocks > 0, "max_fetch_blocks must be positive");
        assert!(
            max_fetch_blocks + 3 <= BlockList::CAP,
            "max_fetch_blocks exceeds the inline chunk-plan capacity"
        );
        Self {
            id,
            capacity,
            max_fetch_blocks,
            prefetch,
            layout,
            streams: VecDeque::new(),
            current: None,
            pending: None,
            packets: VecDeque::new(),
            nz_held: 0,
            need_free: 0,
        }
    }

    /// This buffer's id (its leaf port number).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Appends stream descriptors for upcoming rounds.
    pub fn assign_streams<I: IntoIterator<Item = StreamDescriptor>>(&mut self, streams: I) {
        self.streams.extend(streams);
        self.need_free = 0;
    }

    /// Whether all assigned streams have been fully decoded and consumed.
    pub fn is_done(&self) -> bool {
        self.streams.is_empty()
            && self.current.is_none()
            && self.pending.is_none()
            && self.packets.is_empty()
    }

    /// Nonzeros currently held.
    pub fn held(&self) -> usize {
        self.nz_held
    }

    /// The packet at the head, for the leaf PE.
    pub fn peek(&self) -> Option<Packet> {
        self.packets.front().copied()
    }

    /// Pops the head packet (leaf PE consumed it).
    pub fn pop(&mut self) {
        if let Some(p) = self.packets.pop_front() {
            if !p.is_eol() {
                self.nz_held -= 1;
            }
        }
    }

    /// Advances stream bookkeeping and, following the §3.4 policy, plans
    /// the chunk whose loads should be issued now, if any. `avail_slots`
    /// is the number of read-queue slots the caller can offer: a chunk
    /// needing more is reported as `FetchPlan::Blocked` *without* being
    /// committed (and without even materializing its block list — this
    /// sits on the per-cycle path of every buffer, and queue pressure
    /// makes discarded plans common).
    ///
    /// Zero-length streams are consumed here directly (they emit only an
    /// EOL marker and need no memory traffic).
    pub fn plan_fetch(&mut self, avail_slots: usize) -> FetchPlan {
        if self.pending.is_some() {
            return FetchPlan::None; // at most one outstanding chunk (§3.4)
        }
        // Start the next stream if none is active.
        while self.current.is_none() {
            let Some(desc) = self.streams.pop_front() else {
                // Nothing to fetch until new streams arrive; assign_streams
                // resets the threshold.
                self.need_free = usize::MAX;
                return FetchPlan::None;
            };
            if desc.is_empty() {
                self.packets.push_back(Packet::Eol);
            } else {
                self.current = Some((desc, desc.start));
            }
        }
        let (desc, next) = self.current.expect("active stream");
        // Chunk: as many elements as fit in the free space, §3.4 ("load
        // requests are sent whenever a prefetch buffer can fit the
        // requested data"), bounded to whole block windows past the first.
        let per_block = BLOCK_BYTES / IDX_BYTES; // 16
        let free = self.capacity.saturating_sub(self.nz_held);
        let may_issue = if self.prefetch {
            free > 0
        } else {
            self.nz_held == 0 && self.packets.is_empty()
        };
        if !may_issue {
            // Prefetch mode refuses only when completely full; baseline
            // mode until fully drained.
            self.need_free = if self.prefetch { 1 } else { self.capacity };
            return FetchPlan::None;
        }
        let (bases, n_arrays) = self.array_bases(&desc);
        let arrays = n_arrays as u64;
        let max_windows = ((self.max_fetch_blocks as u64 / arrays).max(1)) * per_block;
        let budget = (if self.prefetch { free } else { self.capacity } as u64)
            .min(max_windows.saturating_sub(next % per_block));
        let first_window_end = ((next / per_block + 1) * per_block).min(desc.end);
        let first_span = first_window_end - next;
        // Wait until the whole first window fits — unless it can *never*
        // fit this buffer, in which case a partial-window fetch is the only
        // way to make progress (the remainder of the block is re-fetched
        // later; coalescing absorbs most of the duplicate traffic).
        if budget < first_span && first_span as usize <= self.capacity {
            self.need_free = first_span as usize;
            return FetchPlan::None;
        }
        self.need_free = 0;
        let mut chunk_end = (next + budget).min(desc.end);
        if chunk_end > first_window_end && chunk_end < desc.end {
            // Multi-window chunk: trim to a whole window boundary so later
            // chunks stay block-aligned.
            chunk_end -= chunk_end % per_block;
            chunk_end = chunk_end.max(first_window_end);
        }
        debug_assert!(chunk_end > next, "chunk must make progress");
        // Count the loads analytically before building anything: a chunk
        // the queue cannot take is refused here, cheaply.
        let mut nblocks = 0usize;
        for &base in &bases[..n_arrays] {
            let first = AddressLayout::block_of(base + next * IDX_BYTES);
            let last = AddressLayout::block_of(base + (chunk_end - 1) * IDX_BYTES);
            nblocks += ((last - first) / BLOCK_BYTES) as usize + 1;
        }
        if nblocks > avail_slots {
            return FetchPlan::Blocked { blocks: nblocks };
        }
        let mut blocks = BlockList::new();
        for &base in &bases[..n_arrays] {
            let first = AddressLayout::block_of(base + next * IDX_BYTES);
            let last = AddressLayout::block_of(base + (chunk_end - 1) * IDX_BYTES);
            let mut b = first;
            while b <= last {
                blocks.push(b);
                b += BLOCK_BYTES;
            }
        }
        let elems = next..chunk_end;
        let last = chunk_end == desc.end;
        self.pending = Some(PendingChunk {
            elems: elems.clone(),
            awaiting: blocks,
            last,
        });
        FetchPlan::Planned { elems, last }
    }

    /// Block addresses the in-flight chunk is waiting on; empty when no
    /// chunk is pending. Right after `FetchPlan::Planned` this is the
    /// full load list the caller must enqueue.
    pub fn pending_blocks(&self) -> &[u64] {
        self.pending.as_ref().map_or(&[], |p| &p.awaiting)
    }

    /// The base addresses of the arrays stream `desc` reads (one block load
    /// per covered window per array), as a fixed-size array plus its live
    /// length — this sits on the per-cycle fetch-planning path, so it must
    /// not allocate.
    fn array_bases(&self, desc: &StreamDescriptor) -> ([u64; 3], usize) {
        let l = &self.layout;
        match desc.kind {
            StreamKind::CsrRow { .. } | StreamKind::SpmvCol { .. } => ([l.col_idx, l.values, 0], 2),
            StreamKind::Coo { region } => (l.coo[region as usize], 3),
            StreamKind::Pair { region } => {
                let r = &l.coo[region as usize];
                ([r[0], r[2], 0], 2)
            }
        }
    }

    /// Whether a fetched chunk is still in flight. While one is, a
    /// [`PrefetchBuffer::plan_fetch`] call is a guaranteed no-op (§3.4
    /// allows at most one outstanding chunk), so event-driven callers need
    /// not re-poll this buffer until the chunk completes.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether a [`PrefetchBuffer::plan_fetch`] call offered fewer than
    /// [`PrefetchBuffer::MIN_FETCH_SLOTS`] queue slots is a guaranteed
    /// no-op for this buffer: a chunk is already in flight, or a stream is
    /// mid-fetch (every real chunk loads at least one block per backing
    /// array, so it could only be refused). The one case that must still
    /// run is `current == None`: starting the next stream consumes
    /// leading empty streams and emits their EOL markers — a simulated
    /// state change that happens regardless of queue space.
    pub fn plan_is_noop_without_slots(&self) -> bool {
        self.pending.is_some() || self.current.is_some()
    }

    /// Minimum read-queue slots any real chunk needs: one block per
    /// backing array, and every stream kind reads at least two arrays.
    pub const MIN_FETCH_SLOTS: usize = 2;

    /// Whether a [`PrefetchBuffer::plan_fetch`] call could possibly make
    /// progress right now. The event-driven fast path uses this to avoid
    /// waking the fetch planner on pops that provably cannot unblock it
    /// (a chunk is in flight, or less space has freed up than the planner's
    /// last refusal demanded). The per-cycle reference path never consults
    /// it and polls unconditionally.
    pub fn fetch_ready(&self) -> bool {
        self.pending.is_none() && self.capacity.saturating_sub(self.nz_held) >= self.need_free
    }

    /// Notifies the buffer that `block` arrived. Returns the element range
    /// to materialize when the whole chunk is now present.
    pub fn block_arrived(&mut self, block: u64) -> Option<(StreamDescriptor, Range<u64>, bool)> {
        let pending = self.pending.as_mut()?;
        if let Some(pos) = pending.awaiting.iter().position(|&b| b == block) {
            pending.awaiting.swap_remove(pos);
        }
        if pending.awaiting.is_empty() {
            self.need_free = 0;
            let done = self.pending.take().expect("pending");
            let (desc, _) = self.current.expect("active stream");
            if done.last {
                self.current = None;
            } else {
                self.current = Some((desc, done.elems.end));
            }
            return Some((desc, done.elems, done.last));
        }
        None
    }

    /// Delivers decoded packets for a ready chunk, draining `packets` (the
    /// caller's buffer keeps its allocation for reuse); appends an EOL
    /// marker if the stream ended.
    pub fn deliver(&mut self, packets: &mut Vec<Packet>, stream_ended: bool) {
        for p in packets.drain(..) {
            debug_assert!(!p.is_eol());
            self.nz_held += 1;
            self.packets.push_back(p);
        }
        if stream_ended {
            self.packets.push_back(Packet::Eol);
        }
    }

    /// Serializes the buffer's dynamic state. Configuration fields (`id`,
    /// `capacity`, `max_fetch_blocks`, `prefetch`, `layout`) are not
    /// written — the restore target is a freshly built buffer carrying
    /// them already.
    pub(crate) fn save_state(&self, enc: &mut menda_dram::Encoder) {
        enc.seq(self.streams.len());
        for d in &self.streams {
            d.save_state(enc);
        }
        match &self.current {
            Some((desc, next)) => {
                enc.u8(1);
                desc.save_state(enc);
                enc.u64(*next);
            }
            None => enc.u8(0),
        }
        match &self.pending {
            Some(chunk) => {
                enc.u8(1);
                enc.u64(chunk.elems.start);
                enc.u64(chunk.elems.end);
                chunk.awaiting.save_state(enc);
                enc.bool(chunk.last);
            }
            None => enc.u8(0),
        }
        enc.seq(self.packets.len());
        for pkt in &self.packets {
            pkt.save_state(enc);
        }
        enc.usize(self.need_free);
    }

    /// Restores state saved by [`PrefetchBuffer::save_state`]. The held
    /// nonzero count is recomputed from the restored packets rather than
    /// trusted from the payload.
    pub(crate) fn restore_state(
        &mut self,
        dec: &mut menda_dram::Decoder<'_>,
    ) -> Result<(), menda_dram::SnapError> {
        use menda_dram::SnapError;
        let n_streams = dec.len_capped(17)?;
        let mut streams = VecDeque::with_capacity(n_streams);
        for _ in 0..n_streams {
            streams.push_back(StreamDescriptor::restore_state(dec)?);
        }
        let current = match dec.u8()? {
            0 => None,
            1 => {
                let desc = StreamDescriptor::restore_state(dec)?;
                let next = dec.u64()?;
                if next < desc.start || next > desc.end {
                    return Err(SnapError::BadValue);
                }
                Some((desc, next))
            }
            _ => return Err(SnapError::BadValue),
        };
        let pending = match dec.u8()? {
            0 => None,
            1 => {
                let start = dec.u64()?;
                let end = dec.u64()?;
                if end < start {
                    return Err(SnapError::BadValue);
                }
                let awaiting = BlockList::restore_state(dec)?;
                let last = dec.bool()?;
                // A pending chunk only exists while a stream is active.
                if current.is_none() {
                    return Err(SnapError::BadValue);
                }
                Some(PendingChunk {
                    elems: start..end,
                    awaiting,
                    last,
                })
            }
            _ => return Err(SnapError::BadValue),
        };
        let n_packets = dec.len_capped(1)?;
        let mut packets = VecDeque::with_capacity(n_packets);
        let mut nz_held = 0usize;
        for _ in 0..n_packets {
            let pkt = Packet::restore_state(dec)?;
            nz_held += usize::from(!pkt.is_eol());
            packets.push_back(pkt);
        }
        if nz_held > self.capacity {
            return Err(SnapError::BadValue);
        }
        self.streams = streams;
        self.current = current;
        self.pending = pending;
        self.packets = packets;
        self.nz_held = nz_held;
        self.need_free = dec.usize()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> AddressLayout {
        AddressLayout::rank_default()
    }

    fn csr_stream(row: u32, start: u64, end: u64) -> StreamDescriptor {
        StreamDescriptor {
            start,
            end,
            kind: StreamKind::CsrRow { row },
        }
    }

    /// Unwraps a [`FetchPlan::Planned`].
    fn planned(p: FetchPlan) -> (Range<u64>, bool) {
        match p {
            FetchPlan::Planned { elems, last } => (elems, last),
            other => panic!("expected a planned chunk, got {other:?}"),
        }
    }

    #[test]
    fn empty_stream_emits_bare_eol() {
        let mut b = PrefetchBuffer::new(0, 32, true, layout());
        b.assign_streams([StreamDescriptor::empty()]);
        assert_eq!(b.plan_fetch(32), FetchPlan::None);
        assert_eq!(b.peek(), Some(Packet::Eol));
        b.pop();
        assert!(b.is_done());
    }

    #[test]
    fn chunk_fills_free_space_across_windows() {
        let mut b = PrefetchBuffer::new(0, 32, true, layout());
        // Elements 10..40 fit the 32-entry buffer entirely: one chunk
        // covering three block windows per array (bytes 40..160).
        b.assign_streams([csr_stream(5, 10, 40)]);
        let (elems, last) = planned(b.plan_fetch(32));
        assert_eq!(elems, 10..40);
        assert!(last);
        assert_eq!(b.pending_blocks().len(), 6); // 3 windows x (idx + val)
                                                 // One outstanding chunk max (§3.4).
        assert_eq!(b.plan_fetch(32), FetchPlan::None);
    }

    #[test]
    fn long_stream_chunk_snaps_to_window_boundary() {
        let mut b = PrefetchBuffer::new(0, 24, true, layout());
        // 24 free entries against a long stream: chunk ends at the last
        // whole window boundary (element 16), not mid-window.
        b.assign_streams([csr_stream(5, 0, 100)]);
        let (elems, last) = planned(b.plan_fetch(32));
        assert_eq!(elems, 0..16);
        assert!(!last);
    }

    #[test]
    fn blocked_chunk_commits_nothing() {
        let mut b = PrefetchBuffer::new(0, 32, true, layout());
        b.assign_streams([csr_stream(5, 10, 40)]);
        // The chunk needs 6 slots; offering fewer refuses it cheaply.
        assert_eq!(b.plan_fetch(5), FetchPlan::Blocked { blocks: 6 });
        assert!(!b.has_pending());
        assert!(b.pending_blocks().is_empty());
        // A refused chunk stays plannable.
        assert!(b.fetch_ready());
        let (elems, _) = planned(b.plan_fetch(6));
        assert_eq!(elems, 10..40);
    }

    /// Completes every awaited block of the pending chunk, delivering
    /// synthetic packets.
    fn complete_plan(b: &mut PrefetchBuffer) {
        let blocks = b.pending_blocks().to_vec();
        for blk in blocks {
            if let Some((_, range, ended)) = b.block_arrived(blk) {
                let mut pk: Vec<Packet> = (range.start..range.end)
                    .map(|i| Packet::nz(i as u32, 0, 0.0))
                    .collect();
                b.deliver(&mut pk, ended);
            }
        }
    }

    #[test]
    fn chunk_sequence_covers_stream() {
        let mut b = PrefetchBuffer::new(0, 64, true, layout());
        b.assign_streams([csr_stream(1, 0, 40)]);
        let mut covered = 0;
        while let FetchPlan::Planned { elems, last } = b.plan_fetch(32) {
            covered += elems.end - elems.start;
            let blocks = b.pending_blocks().to_vec();
            let mut out = None;
            for blk in blocks {
                out = b.block_arrived(blk);
            }
            let (desc, range, ended) = out.expect("chunk complete");
            assert_eq!(ended, last);
            let mut packets: Vec<Packet> = (range.start..range.end)
                .map(|i| Packet::nz(i as u32, desc.start as u32, 0.0))
                .collect();
            b.deliver(&mut packets, ended);
            assert!(packets.is_empty(), "deliver drains the staging buffer");
            if ended {
                break;
            }
        }
        assert_eq!(covered, 40);
        // 40 NZs + 1 EOL present.
        let mut count = 0;
        while let Some(p) = b.peek() {
            b.pop();
            if p.is_eol() {
                break;
            }
            count += 1;
        }
        assert_eq!(count, 40);
        assert!(b.is_done());
    }

    #[test]
    fn baseline_only_fetches_when_empty() {
        let mut b = PrefetchBuffer::new(0, 32, false, layout());
        b.assign_streams([csr_stream(1, 0, 48)]);
        let (elems, _) = planned(b.plan_fetch(32));
        assert_eq!(elems, 0..32); // fills the whole buffer
        complete_plan(&mut b);
        // Buffer holds 32 NZs: baseline must NOT issue the next chunk
        // until fully drained.
        assert_eq!(b.held(), 32);
        assert_eq!(b.plan_fetch(32), FetchPlan::None);
        for _ in 0..31 {
            b.pop();
        }
        assert_eq!(b.plan_fetch(32), FetchPlan::None);
        b.pop();
        let (next, _) = planned(b.plan_fetch(32));
        assert_eq!(next, 32..48);
    }

    #[test]
    fn prefetch_issues_when_space_fits() {
        let mut b = PrefetchBuffer::new(0, 32, true, layout());
        b.assign_streams([csr_stream(1, 0, 64)]);
        let (e1, _) = planned(b.plan_fetch(32));
        assert_eq!(e1, 0..32);
        complete_plan(&mut b);
        // Full: no prefetch.
        assert_eq!(b.plan_fetch(32), FetchPlan::None);
        // Pop 16: the next 16-NZ window fits → prefetch fires (§3.4's
        // "whenever a prefetch buffer can fit the requested data").
        for _ in 0..16 {
            b.pop();
        }
        let (e2, _) = planned(b.plan_fetch(32));
        assert_eq!(e2, 32..48);
    }

    #[test]
    fn prefetch_waits_when_chunk_does_not_fit() {
        let mut b = PrefetchBuffer::new(0, 16, true, layout());
        b.assign_streams([csr_stream(1, 0, 64)]);
        planned(b.plan_fetch(32));
        complete_plan(&mut b);
        assert_eq!(b.held(), 16);
        // Full: cannot prefetch.
        assert_eq!(b.plan_fetch(32), FetchPlan::None);
        // Pop 15: still can't fit a 16-NZ chunk.
        for _ in 0..15 {
            b.pop();
        }
        assert_eq!(b.plan_fetch(32), FetchPlan::None);
        b.pop();
        assert!(matches!(b.plan_fetch(32), FetchPlan::Planned { .. }));
    }

    #[test]
    fn coo_streams_need_three_blocks() {
        let mut b = PrefetchBuffer::new(0, 32, true, layout());
        b.assign_streams([StreamDescriptor {
            start: 0,
            end: 8,
            kind: StreamKind::Coo { region: 1 },
        }]);
        let (_, last) = planned(b.plan_fetch(32));
        assert_eq!(b.pending_blocks().len(), 3);
        assert!(last);
    }

    #[test]
    fn back_to_back_streams_queue_up() {
        let mut b = PrefetchBuffer::new(0, 32, true, layout());
        b.assign_streams([csr_stream(1, 0, 4), csr_stream(9, 100, 104)]);
        let (_, last) = planned(b.plan_fetch(32));
        assert!(last);
        complete_plan(&mut b);
        // Immediately plans the second stream (seamless §3.3).
        let (e2, _) = planned(b.plan_fetch(32));
        assert_eq!(e2, 100..104);
    }
}
