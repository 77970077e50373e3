//! The structural hardware merge tree of Fig. 5.
//!
//! An `l`-leaf tree has `l - 1` processing elements (PEs) arranged in
//! `log2 l` levels. Each PE owns two input FIFOs fed by its children (child
//! PEs, or prefetch buffers at the leaf level). A PE pops the packet with
//! the smaller sort key when both inputs are valid and forwards it to its
//! parent; the root PE emits one packet per cycle into the output buffer.
//! End-of-line (EOL) markers delimit sorted streams and let consecutive
//! rounds of merge sort flow through the tree back to back (§3.3, Fig. 6).
//!
//! # Data-oriented layout
//!
//! The PE FIFOs are not individual queues: all `2 * (l - 1)` of them live
//! in one contiguous struct-of-arrays slab (`keys`/`vals` ring storage plus
//! `head`/`len` arrays), indexed by `fifo = 2 * pe + side`. Packets are
//! stored pre-packed: the (major, minor) sort key occupies one `u64`
//! (`major << 32 | minor`) with EOL as `u64::MAX`, so the merge decision at
//! every PE is a single integer compare — EOL sorts after every nonzero,
//! which reproduces the "a nonzero overtakes a waiting EOL" rule for free.
//! A paper-scale tree (1024 leaves) thus keeps its entire FIFO state in a
//! few contiguous KiB instead of ~2k separately allocated deques.

use std::collections::VecDeque;

use menda_dram::{Decoder, Encoder, Fixed, Snap, SnapError};

/// A merge-tree data packet.
///
/// The hardware packet carries a valid bit, 32-bit row index, 32-bit column
/// index and 32-bit value (§3.2), plus the end-of-line bit of §3.3. Here
/// the indices are generalized to a (major, minor) sort key so the same
/// tree serves transposition (major = column, minor = row) and SpMV
/// (major = row).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Packet {
    /// A nonzero element.
    Nz {
        /// Primary sort key (column index for transposition, row index for
        /// SpMV).
        major: u32,
        /// Secondary sort key (row index for transposition).
        minor: u32,
        /// The element value.
        value: f32,
    },
    /// End-of-line marker: the sorted stream on this path has ended.
    #[default]
    Eol,
}

/// Packed sort key of an EOL marker; sorts after every nonzero key, which
/// is exactly the merge priority EOL markers need.
const EOL_KEY: u64 = u64::MAX;

impl Packet {
    /// Creates a nonzero packet.
    pub fn nz(major: u32, minor: u32, value: f32) -> Self {
        Packet::Nz {
            major,
            minor,
            value,
        }
    }

    /// The sort key, or `None` for EOL markers.
    pub fn key(&self) -> Option<(u32, u32)> {
        match self {
            Packet::Nz { major, minor, .. } => Some((*major, *minor)),
            Packet::Eol => None,
        }
    }

    /// Whether this is an EOL marker.
    pub fn is_eol(&self) -> bool {
        matches!(self, Packet::Eol)
    }

    /// Packs into the SoA (key, value) representation.
    #[inline]
    fn pack(self) -> (u64, f32) {
        match self {
            Packet::Nz {
                major,
                minor,
                value,
            } => {
                let key = ((major as u64) << 32) | minor as u64;
                debug_assert_ne!(key, EOL_KEY, "nonzero key collides with EOL sentinel");
                (key, value)
            }
            Packet::Eol => (EOL_KEY, 0.0),
        }
    }

    /// Unpacks from the SoA (key, value) representation.
    #[inline]
    fn unpack(key: u64, value: f32) -> Self {
        if key == EOL_KEY {
            Packet::Eol
        } else {
            Packet::Nz {
                major: (key >> 32) as u32,
                minor: key as u32,
                value,
            }
        }
    }
}

/// A tagged enum: tag 0 and the nonzero's fields, or tag 1 for EOL.
impl Snap for Packet {
    const MIN_BYTES: usize = 1;

    fn save(&self, enc: &mut Encoder) {
        match *self {
            Packet::Nz {
                major,
                minor,
                value,
            } => {
                enc.u8(0);
                (major, minor, value).save(enc);
            }
            Packet::Eol => enc.u8(1),
        }
    }

    fn load(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        *self = match dec.u8()? {
            0 => Packet::nz(dec.u32()?, dec.u32()?, dec.f32()?),
            1 => Packet::Eol,
            _ => return Err(SnapError::BadValue),
        };
        Ok(())
    }
}

/// Supplies packets to the leaf input ports of a [`MergeTree`].
///
/// Port `p` of an `l`-leaf tree (`0 <= p < l`) corresponds to prefetch
/// buffer `p`. The tree pulls at most one packet per port per cycle.
pub trait LeafSource {
    /// The packet at the head of port `p`, if any.
    fn peek(&self, port: usize) -> Option<Packet>;
    /// Removes the head packet of port `p`.
    ///
    /// Only called after `peek` returned `Some`.
    fn pop(&mut self, port: usize);
}

/// A [`LeafSource`] over in-memory queues, used by tests and by the
/// functional golden model.
#[derive(Debug, Clone, Default)]
pub struct SliceLeafSource {
    ports: Vec<VecDeque<Packet>>,
}

impl SliceLeafSource {
    /// Creates a source with `ports` empty ports.
    pub fn new(ports: usize) -> Self {
        Self {
            ports: (0..ports).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Builds a source where each port holds one sorted stream followed by
    /// an EOL marker.
    pub fn from_streams(ports: usize, streams: Vec<Vec<Packet>>) -> Self {
        assert!(streams.len() <= ports, "more streams than ports");
        let mut src = Self::new(ports);
        for (p, s) in streams.into_iter().enumerate() {
            for pkt in s {
                src.ports[p].push_back(pkt);
            }
            src.ports[p].push_back(Packet::Eol);
        }
        // Ports without a stream still emit a bare EOL so the round
        // terminates.
        for p in src.ports.iter_mut() {
            if p.is_empty() {
                p.push_back(Packet::Eol);
            }
        }
        src
    }

    /// Appends a packet to port `p`.
    pub fn push(&mut self, port: usize, packet: Packet) {
        self.ports[port].push_back(packet);
    }

    /// Total packets across ports.
    pub fn remaining(&self) -> usize {
        self.ports.iter().map(|p| p.len()).sum()
    }
}

impl LeafSource for SliceLeafSource {
    fn peek(&self, port: usize) -> Option<Packet> {
        self.ports[port].front().copied()
    }

    fn pop(&mut self, port: usize) {
        self.ports[port].pop_front();
    }
}

/// A fixed-universe set of active element indexes, stored as a bitmask:
/// insertion is cheap, membership is deduplicated for free, and draining
/// yields ascending order — replacing a sort-and-dedup worklist on the
/// per-cycle hot paths of the merge tree and the prefetch buffers. An
/// any-member flag makes the emptiness probe O(1) — which the
/// fast-forward quiescence check hits every cycle — while keeping the
/// insert path a branch-free load/or/store (the broad wake policy
/// inserts up to four times per packet move, so a per-insert membership
/// count would be paid millions of times per simulated iteration).
#[derive(Debug, Clone)]
pub(crate) struct ActiveSet {
    words: Vec<u128>,
    any: bool,
}

impl ActiveSet {
    /// Creates an empty set over the universe `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(128).max(1)],
            any: false,
        }
    }

    /// Adds `idx` to the set.
    #[inline]
    pub(crate) fn insert(&mut self, idx: usize) {
        self.words[idx >> 7] |= 1u128 << (idx & 127);
        self.any = true;
    }

    /// Whether the set has no members.
    pub(crate) fn is_empty(&self) -> bool {
        !self.any
    }

    /// Appends the members to `out` in ascending order and clears the set.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<u32>) {
        if !self.any {
            return;
        }
        self.any = false;
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut w = *word;
            *word = 0;
            while w != 0 {
                out.push(((wi as u32) << 7) | w.trailing_zeros());
                w &= w - 1;
            }
        }
    }

    /// Post-load rebuild: the any-member flag follows the words.
    fn restored(&mut self) -> Result<(), SnapError> {
        self.any = self.words.iter().any(|&w| w != 0);
        Ok(())
    }
}

// The words keep the universe's length.
menda_dram::snap_fields!(ActiveSet { words: fixed } after restored);

/// The structural merge tree.
///
/// PEs live in heap order: PE 0 is the root; the children of PE `i` are
/// PEs `2i+1` and `2i+2`. With `l` leaves there are `l-1` PEs; the last
/// `l/2` are leaf PEs whose inputs pull from [`LeafSource`] ports
/// (leaf PE `j` pulls ports `2j` and `2j+1` where `j` counts leaf PEs from
/// the left).
///
/// Simulation is activity-driven: only PEs that might move a packet are
/// visited, so a quiescent or memory-stalled tree costs almost nothing per
/// cycle while remaining cycle-exact (packets advance one level per cycle,
/// bounded by FIFO capacity and the one-pop-per-cycle root).
#[derive(Debug)]
pub struct MergeTree {
    leaves: usize,
    fifo_cap: usize,
    /// Packed sort keys of the FIFO slab: FIFO `2*pe + side` occupies ring
    /// slots `[fifo * fifo_cap, (fifo + 1) * fifo_cap)`.
    keys: Vec<u64>,
    /// Values parallel to `keys`.
    vals: Vec<f32>,
    /// Per-FIFO control word: ring head slot in the low 16 bits,
    /// occupancy in the high 16. One word instead of two parallel `u16`
    /// arrays keeps the per-visit probes (`len == 0`, `len == cap`, head
    /// slot) to a single indexed load each — `step_pe` runs for every
    /// worklist entry every cycle, and most visits are probe-only
    /// (the broad wake policy schedules ~2.6× more visits than moves).
    ctrl: Vec<u32>,
    /// PEs scheduled to run next `tick`.
    active: ActiveSet,
    /// Reused backing storage for the per-cycle working set (the active
    /// set drains into it each `tick`, so it never reallocates in steady
    /// state).
    work_scratch: Vec<u32>,
    /// Root pops produced (NZ packets only).
    pops: u64,
    /// EOLs popped from the root (= completed merge rounds).
    rounds_completed: u64,
}

// The geometry (`leaves`, `fifo_cap`) comes from the freshly built tree.
menda_dram::snap_fields!(MergeTree {
    keys: fixed,
    vals: fixed,
    (save_ctrl, load_ctrl),
    active,
    pops,
    rounds_completed,
});

impl MergeTree {
    /// Creates an `l`-leaf tree with the given per-FIFO capacity.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is not a power of two ≥ 2 or `fifo_cap` is zero.
    pub fn new(leaves: usize, fifo_cap: usize) -> Self {
        assert!(
            leaves.is_power_of_two() && leaves >= 2,
            "leaves must be a power of two >= 2"
        );
        assert!(fifo_cap > 0, "fifo capacity must be positive");
        assert!(fifo_cap <= u16::MAX as usize, "fifo capacity too large");
        let n = leaves - 1;
        let mut active = ActiveSet::new(n);
        for pe in 0..n {
            active.insert(pe);
        }
        Self {
            leaves,
            fifo_cap,
            keys: vec![0; 2 * n * fifo_cap],
            vals: vec![0.0; 2 * n * fifo_cap],
            ctrl: vec![0; 2 * n],
            active,
            work_scratch: Vec::with_capacity(n),
            pops: 0,
            rounds_completed: 0,
        }
    }

    /// Number of leaf ports.
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// Number of levels (`log2 leaves`).
    pub fn levels(&self) -> u32 {
        self.leaves.trailing_zeros()
    }

    /// NZ packets popped from the root so far.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Merge rounds completed (root EOLs observed).
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// Whether every FIFO is empty.
    pub fn is_drained(&self) -> bool {
        self.ctrl.iter().all(|&c| c >> 16 == 0)
    }

    /// Total packets currently buffered in the inter-PE FIFOs — the tree
    /// fill level sampled by the instrumentation layer. Bounded by
    /// `(leaves - 1) * 2 * fifo_entries`.
    pub fn occupancy(&self) -> usize {
        self.ctrl.iter().map(|&c| (c >> 16) as usize).sum()
    }

    /// Occupancy of FIFO `f`.
    #[inline]
    fn fifo_len(&self, f: usize) -> usize {
        (self.ctrl[f] >> 16) as usize
    }

    /// Marks the leaf PE serving `port` as active (call when the backing
    /// prefetch buffer gains data).
    pub fn wake_port(&mut self, port: usize) {
        debug_assert!(port < self.leaves);
        let leaf_pe = self.first_leaf_pe() + port / 2;
        self.activate(leaf_pe);
    }

    fn first_leaf_pe(&self) -> usize {
        self.leaves / 2 - 1
    }

    fn activate(&mut self, pe: usize) {
        self.active.insert(pe);
    }

    /// Pops the front of FIFO `f`; caller guarantees it is non-empty.
    #[inline]
    fn fifo_pop(&mut self, f: usize) -> (u64, f32) {
        let c = self.ctrl[f];
        let h = (c & 0xFFFF) as usize;
        let slot = f * self.fifo_cap + h;
        let mut nh = h + 1;
        if nh == self.fifo_cap {
            nh = 0;
        }
        self.ctrl[f] = (nh as u32) | ((c & 0xFFFF_0000) - (1 << 16));
        (self.keys[slot], self.vals[slot])
    }

    /// Pushes onto FIFO `f`; caller guarantees occupancy below capacity.
    #[inline]
    fn fifo_push(&mut self, f: usize, key: u64, val: f32) {
        let c = self.ctrl[f];
        let mut pos = (c & 0xFFFF) as usize + (c >> 16) as usize;
        if pos >= self.fifo_cap {
            pos -= self.fifo_cap;
        }
        let slot = f * self.fifo_cap + pos;
        self.keys[slot] = key;
        self.vals[slot] = val;
        self.ctrl[f] = c + (1 << 16);
    }

    /// Advances one cycle.
    ///
    /// `root_space` is the number of packets the output side can accept
    /// this cycle (0 or more; the root emits at most one). Returns the
    /// packet popped from the root, if any. EOL markers are consumed
    /// internally and counted in [`MergeTree::rounds_completed`]; they are
    /// also returned so callers can track run boundaries.
    ///
    /// Generic over the source so the per-PU port adapters monomorphize
    /// (no virtual dispatch on the per-packet path); `?Sized` keeps
    /// `&mut dyn LeafSource` callers working.
    pub fn tick<S: LeafSource + ?Sized>(
        &mut self,
        src: &mut S,
        root_space: usize,
    ) -> Option<Packet> {
        // Root must be considered every cycle the sink has space (external
        // availability isn't tracked by internal activation).
        if root_space > 0 {
            self.activate(0);
        }
        // Drain the active set into the retained-capacity scratch Vec
        // (ascending, deduplicated by construction); activations made
        // while stepping schedule PEs for the next cycle. Ascending order
        // is semantic: a parent always steps before its children, so a
        // slot it frees this cycle can be refilled this cycle.
        let mut work = std::mem::take(&mut self.work_scratch);
        self.active.drain_into(&mut work);
        let mut rooted = None;
        let n = self.leaves - 1;
        for &pe in &work {
            let pe = pe as usize;
            let moved = self.step_pe(pe, root_space, &mut rooted) != 0;
            let pulled = self.pull_leaf(pe, src);
            // The broad wake (self, parent, both children, even on a
            // bare pull) is SEMANTIC, not an over-approximation to be
            // tightened: a spuriously woken PE sits in the next cycle's
            // ascending work list, where an earlier-indexed PE (its
            // parent) may free its output mid-tick and let it move that
            // same cycle. Targeted wakes (popped-side children,
            // sibling-gated parent) arrive one cycle later in exactly
            // those races — see `activity_driven_tick_matches_legacy_policy`,
            // which pins this policy against refinement attempts.
            if moved || pulled {
                self.activate(pe);
                if pe > 0 {
                    self.activate((pe - 1) / 2);
                }
                let (c0, c1) = (2 * pe + 1, 2 * pe + 2);
                if c0 < n {
                    self.activate(c0);
                }
                if c1 < n {
                    self.activate(c1);
                }
            }
        }
        work.clear();
        self.work_scratch = work;
        rooted
    }

    /// Whether a `tick` with this `root_space` and `src` would provably
    /// change nothing: no PE is scheduled to run and the root cannot make
    /// progress. Conservative — `false` merely means a tick might do
    /// work. Used by the fast-forward path in `pu.rs` to decide that the
    /// tree contributes no events.
    ///
    /// With the worklist empty, every packet movement since the last
    /// activity has been accounted; the only external stimulus `tick`
    /// adds is activating the root when `root_space > 0`. That activation
    /// is a no-op unless the root can merge (both FIFO heads present) or
    /// — on a 2-leaf tree, where the root is also the leaf PE — it can
    /// pull from `src`.
    pub fn is_quiescent<S: LeafSource + ?Sized>(&self, src: &S, root_space: usize) -> bool {
        if !self.active.is_empty() {
            return false;
        }
        if root_space == 0 {
            return true;
        }
        if self.fifo_len(0) > 0 && self.fifo_len(1) > 0 {
            return false;
        }
        if self.leaves == 2
            && ((self.fifo_len(0) < self.fifo_cap && src.peek(0).is_some())
                || (self.fifo_len(1) < self.fifo_cap && src.peek(1).is_some()))
        {
            return false;
        }
        true
    }

    /// Performs the merge-move of PE `pe` (at most one packet toward the
    /// parent). Returns a bitmask of the input sides popped (bit 0 =
    /// FIFO `2*pe`, bit 1 = FIFO `2*pe+1`); `0` means no move. The mask
    /// drives the targeted child wake-ups in [`MergeTree::tick`].
    ///
    /// Both input heads must be valid for a move; with packed keys the
    /// whole priority rule is `key0 <= key1` (EOL = `u64::MAX` sorts
    /// last), with the one special case that a pair of EOLs merges into a
    /// single forwarded EOL.
    #[inline]
    fn step_pe(&mut self, pe: usize, root_space: usize, rooted: &mut Option<Packet>) -> u8 {
        // Check output capacity.
        if pe == 0 {
            if root_space == 0 || rooted.is_some() {
                return 0;
            }
        } else {
            let pfifo = pe - 1; // == 2 * parent + side
            if self.fifo_len(pfifo) >= self.fifo_cap {
                return 0;
            }
        }
        // One control-word load per input FIFO answers both the
        // emptiness probe (high half zero ⟺ whole word below 2^16) and
        // the head slot for the front-key fetch.
        let (f0, f1) = (2 * pe, 2 * pe + 1);
        let (c0, c1) = (self.ctrl[f0], self.ctrl[f1]);
        if c0 < 1 << 16 || c1 < 1 << 16 {
            return 0;
        }
        let cap = self.fifo_cap;
        let k0 = self.keys[f0 * cap + (c0 & 0xFFFF) as usize];
        let k1 = self.keys[f1 * cap + (c1 & 0xFFFF) as usize];
        let (key, val, sides) = if k0 == EOL_KEY && k1 == EOL_KEY {
            self.fifo_pop(f0);
            self.fifo_pop(f1);
            (EOL_KEY, 0.0, 3u8)
        } else if k0 <= k1 {
            let (k, v) = self.fifo_pop(f0);
            (k, v, 1u8)
        } else {
            let (k, v) = self.fifo_pop(f1);
            (k, v, 2u8)
        };
        if pe == 0 {
            if key == EOL_KEY {
                self.rounds_completed += 1;
            } else {
                self.pops += 1;
            }
            *rooted = Some(Packet::unpack(key, val));
        } else {
            self.fifo_push(pe - 1, key, val);
        }
        sides
    }

    /// Pulls up to one packet per input port from the leaf source into a
    /// leaf PE's FIFOs. Returns whether anything was pulled.
    #[inline]
    fn pull_leaf<S: LeafSource + ?Sized>(&mut self, pe: usize, src: &mut S) -> bool {
        let first = self.first_leaf_pe();
        if pe < first {
            return false;
        }
        let base_port = 2 * (pe - first);
        let (f0, f1) = (2 * pe, 2 * pe + 1);
        let mut pulled = false;
        if self.fifo_len(f0) < self.fifo_cap {
            if let Some(pkt) = src.peek(base_port) {
                src.pop(base_port);
                let (key, val) = pkt.pack();
                self.fifo_push(f0, key, val);
                pulled = true;
            }
        }
        if self.fifo_len(f1) < self.fifo_cap {
            if let Some(pkt) = src.peek(base_port + 1) {
                src.pop(base_port + 1);
                let (key, val) = pkt.pack();
                self.fifo_push(f1, key, val);
                pulled = true;
            }
        }
        pulled
    }

    /// Writes the packed control words as the two `u16` arrays of the
    /// original snapshot format, ring heads then occupancies, so
    /// checkpoints stay byte-compatible across the packing.
    fn save_ctrl(&self, enc: &mut Encoder) {
        let half =
            |shift: u32| -> Vec<u16> { self.ctrl.iter().map(|&c| (c >> shift) as u16).collect() };
        half(0).save(enc);
        half(16).save(enc);
    }

    /// Reads what [`MergeTree::save_ctrl`] wrote, rejecting ring heads or
    /// occupancies outside the FIFO capacity.
    fn load_ctrl(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        let mut head = vec![0u16; self.ctrl.len()];
        let mut len = head.clone();
        head.load_fixed(dec)?;
        len.load_fixed(dec)?;
        let cap = self.fifo_cap;
        if head.iter().any(|&h| h as usize >= cap) || len.iter().any(|&l| l as usize > cap) {
            return Err(SnapError::BadValue);
        }
        for (c, (&h, &l)) in self.ctrl.iter_mut().zip(head.iter().zip(&len)) {
            *c = h as u32 | ((l as u32) << 16);
        }
        Ok(())
    }

    /// Functional reference: merges `streams` (each sorted by key) into one
    /// sorted stream, bypassing timing. Used as the golden model in tests.
    pub fn merge_functional(streams: &[Vec<Packet>]) -> Vec<Packet> {
        let mut all: Vec<Packet> = streams
            .iter()
            .flat_map(|s| s.iter().copied())
            .filter(|p| !p.is_eol())
            .collect();
        all.sort_by_key(|p| p.key());
        all
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the tree until `count` NZ pops plus `rounds` EOLs, with a cycle
    /// bound.
    fn run_tree(
        tree: &mut MergeTree,
        src: &mut SliceLeafSource,
        rounds: u64,
        max_cycles: u64,
    ) -> (Vec<Packet>, u64) {
        let mut out = Vec::new();
        let mut cycles = 0;
        while tree.rounds_completed() < rounds {
            if let Some(p) = tree.tick(src, 1) {
                if !p.is_eol() {
                    out.push(p);
                }
            }
            cycles += 1;
            assert!(cycles < max_cycles, "tree deadlocked after {cycles} cycles");
        }
        (out, cycles)
    }

    fn nz(major: u32) -> Packet {
        Packet::nz(major, 0, major as f32)
    }

    #[test]
    fn merges_four_sorted_streams() {
        let streams = vec![
            vec![nz(1), nz(5), nz(9)],
            vec![nz(2), nz(6)],
            vec![nz(3), nz(7), nz(11)],
            vec![nz(4)],
        ];
        let mut src = SliceLeafSource::from_streams(4, streams.clone());
        let mut tree = MergeTree::new(4, 2);
        let (out, _) = run_tree(&mut tree, &mut src, 1, 1000);
        assert_eq!(out, MergeTree::merge_functional(&streams));
        assert_eq!(tree.pops(), 9);
        assert!(tree.is_drained());
    }

    #[test]
    fn occupancy_tracks_fifo_fill_and_drains_to_zero() {
        let streams = vec![
            vec![nz(1), nz(5), nz(9)],
            vec![nz(2), nz(6)],
            vec![nz(3), nz(7), nz(11)],
            vec![nz(4)],
        ];
        let mut src = SliceLeafSource::from_streams(4, streams);
        let mut tree = MergeTree::new(4, 2);
        assert_eq!(tree.occupancy(), 0);
        let cap = (tree.leaves() - 1) * 2 * 2;
        let mut peak = 0;
        while tree.rounds_completed() < 1 {
            tree.tick(&mut src, 1);
            peak = peak.max(tree.occupancy());
            assert!(tree.occupancy() <= cap);
        }
        assert!(peak > 0, "tree never buffered a packet");
        // Drained tree reads back as empty.
        assert_eq!(
            tree.is_drained(),
            tree.occupancy() == 0,
            "occupancy and is_drained disagree"
        );
    }

    #[test]
    fn secondary_key_breaks_ties() {
        let streams = vec![vec![Packet::nz(5, 2, 1.0)], vec![Packet::nz(5, 1, 2.0)]];
        let mut src = SliceLeafSource::from_streams(2, streams);
        let mut tree = MergeTree::new(2, 2);
        let (out, _) = run_tree(&mut tree, &mut src, 1, 100);
        assert_eq!(out[0], Packet::nz(5, 1, 2.0));
        assert_eq!(out[1], Packet::nz(5, 2, 1.0));
    }

    #[test]
    fn empty_ports_emit_single_eol_round() {
        let mut src = SliceLeafSource::from_streams(8, vec![vec![nz(3)]]);
        let mut tree = MergeTree::new(8, 2);
        let (out, _) = run_tree(&mut tree, &mut src, 1, 1000);
        assert_eq!(out, vec![nz(3)]);
        assert_eq!(tree.rounds_completed(), 1);
    }

    #[test]
    fn back_to_back_rounds_do_not_mix() {
        // Round 1 has large keys, round 2 small keys; output must keep
        // rounds separate (round 2's 0-keys must not pass round 1's).
        let mut src = SliceLeafSource::new(4);
        for port in 0..4u32 {
            src.push(port as usize, Packet::nz(100 + port, 0, 0.0));
            src.push(port as usize, Packet::Eol);
            src.push(port as usize, Packet::nz(port, 0, 0.0));
            src.push(port as usize, Packet::Eol);
        }
        let mut tree = MergeTree::new(4, 2);
        let mut out: Vec<(u64, Packet)> = Vec::new();
        let mut cycles = 0u64;
        while tree.rounds_completed() < 2 {
            if let Some(p) = tree.tick(&mut src, 1) {
                out.push((tree.rounds_completed(), p));
            }
            cycles += 1;
            assert!(cycles < 1000);
        }
        let round1: Vec<u32> = out
            .iter()
            .filter(|(r, p)| *r == 0 && !p.is_eol())
            .map(|(_, p)| p.key().unwrap().0)
            .collect();
        let round2: Vec<u32> = out
            .iter()
            .filter(|(r, p)| *r == 1 && !p.is_eol())
            .map(|(_, p)| p.key().unwrap().0)
            .collect();
        assert_eq!(round1, vec![100, 101, 102, 103]);
        assert_eq!(round2, vec![0, 1, 2, 3]);
    }

    #[test]
    fn seamless_execution_has_no_bubble_between_rounds() {
        // With data always available at the leaves, the root must sustain
        // one pop per cycle across a round boundary (the §3.3 claim).
        let per_stream = 32;
        let mut src = SliceLeafSource::new(4);
        for port in 0..4usize {
            for round in 0..2u32 {
                for i in 0..per_stream {
                    src.push(port, Packet::nz(round * 1000 + i * 4 + port as u32, 0, 0.0));
                }
                src.push(port, Packet::Eol);
            }
        }
        let mut tree = MergeTree::new(4, 2);
        let mut pops_at: Vec<u64> = Vec::new();
        let mut cycles = 0u64;
        while tree.rounds_completed() < 2 {
            if let Some(p) = tree.tick(&mut src, 1) {
                if !p.is_eol() {
                    pops_at.push(cycles);
                }
            }
            cycles += 1;
            assert!(cycles < 10_000);
        }
        assert_eq!(pops_at.len(), 4 * per_stream as usize * 2);
        // After the pipeline fills, pops are consecutive; the only extra
        // cycles are the fill (levels) and the two EOL pop cycles.
        let total = pops_at.len() as u64;
        let span = pops_at.last().unwrap() - pops_at.first().unwrap() + 1;
        assert!(
            span <= total + 2,
            "rounds did not flow seamlessly: {total} pops over {span} cycles"
        );
    }

    #[test]
    fn throughput_is_one_per_cycle_when_fed() {
        let n = 256u32;
        let streams: Vec<Vec<Packet>> = (0..16)
            .map(|p| (0..n / 16).map(|i| nz(i * 16 + p)).collect())
            .collect();
        let mut src = SliceLeafSource::from_streams(16, streams);
        let mut tree = MergeTree::new(16, 2);
        let (out, cycles) = run_tree(&mut tree, &mut src, 1, 10_000);
        assert_eq!(out.len(), n as usize);
        // Fill latency is log2(16)=4; allow small overhead.
        assert!(cycles <= n as u64 + 16, "{cycles} cycles for {n} elements");
    }

    /// Splitmix64 — deterministic test RNG without external crates.
    fn next_rand(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// FNV-1a digests of `tick`'s state, one per case of
    /// [`activity_driven_tick_matches_legacy_policy`], recorded under the
    /// broad wake policy that the absolute cycle fingerprints pin.
    const TICK_DIGESTS: [u64; 64] = [
        0x8f18111013c2da2c,
        0xeddc9aefeb9fa024,
        0xfe176eb91d7dd97d,
        0x547cca54a2f7d945,
        0xd078ee618c928b0e,
        0x61ac97f023555988,
        0xd3ed40144f913900,
        0xdb04b6abd0bcc63a,
        0x0ba3e661e5413f65,
        0xa5dccc7191aabfa2,
        0x548310a96d23e5e0,
        0xf73e001e9eb247d3,
        0x60596004c2e3f3d7,
        0x06c5ebb765fbb848,
        0x812dcb569129688f,
        0x26e6cb72d37768c7,
        0xf4a64e08eaa4817d,
        0x9ae0e6e71ddf2b8b,
        0x528b4c045fbb88c6,
        0x0465356b51c84886,
        0x289072b92bcca94e,
        0xef3ff74cdfc19709,
        0x9762d4e4ba251288,
        0xae94afc86b20ac44,
        0x166cea4f7649e596,
        0x01f5aa56e970e974,
        0xbe5aad9850efef56,
        0xbbd425cca209b666,
        0xffad621adc7f332b,
        0x34c028d6be4e48b1,
        0xbf781e181f6b5e54,
        0x21458e2e0747c51e,
        0x301a6a75ccb66f7e,
        0x61ce3f0d0796939a,
        0x6606946ff92af88e,
        0x6f8e5b9fed5162ee,
        0x85e893b5062eeb9c,
        0xd93cc6240a8d3c89,
        0x62bf5cebd0364850,
        0xa123302e3dc0299e,
        0x3529a476152e131f,
        0x94bc33556177ed43,
        0xb0457330546b644f,
        0xc10a17b76c4de75c,
        0x10552c4d9e37ad54,
        0x9877900271b2c2f4,
        0x98134721156ceff4,
        0x9c954c3a95db4efd,
        0xe8a6016845ea0535,
        0x88890d39e1578855,
        0xb878580ccab16313,
        0xd6096d1eb5208d6d,
        0x045b090f9d3e2faf,
        0x7d69ebaa0cc9f6d9,
        0xec6f851d8a893bd2,
        0xe01b80acfa4bbf3c,
        0xc898e513a93c6f63,
        0xd61c2280abb8e8e4,
        0x1188a6a9f58700f4,
        0xc0277ad704c8adba,
        0xdc035e7e4656eed8,
        0xf80535f27eda6805,
        0x4a92b532c36c43f7,
        0x97729fffda7fb380,
    ];

    /// Pins `tick` to the broad wake policy cycle by cycle, under seeded
    /// traffic: staggered packet arrival (with the `wake_port` contract
    /// honored), random root back-pressure, multiple rounds, and varying
    /// geometry. Every cycle folds the root pop, the FIFO keys and
    /// control words, `pops` and `rounds_completed` into the case's
    /// digest. The wake set is timing-semantic — a "tighter" policy that
    /// skips provably-unmergeable wakes still diverges, because a
    /// spuriously woken PE reacts in the same cycle to its parent freeing
    /// a slot mid-tick (ascending visit order), one cycle earlier than any
    /// wake issued at the pop itself. Any future activation-policy change
    /// must either reproduce these digests or consciously re-baseline them
    /// with the absolute cycle fingerprints.
    #[test]
    fn activity_driven_tick_matches_legacy_policy() {
        let mut seed = 0x5EED_CAFE_u64;
        let mut digests = [0u64; 64];
        for (case, pinned) in digests.iter_mut().enumerate() {
            let leaves = 1usize << (1 + next_rand(&mut seed) % 5); // 2..32
            let fifo_cap = 1 + (next_rand(&mut seed) % 3) as usize;
            let rounds = 1 + next_rand(&mut seed) % 2;
            let mut tree = MergeTree::new(leaves, fifo_cap);
            let mut src = SliceLeafSource::new(leaves);
            // Pending per-port streams delivered a few packets at a time.
            let mut pending: Vec<VecDeque<Packet>> = (0..leaves)
                .map(|p| {
                    let mut q = VecDeque::new();
                    for _ in 0..rounds {
                        let n = next_rand(&mut seed) % 6;
                        let mut key = 0u32;
                        for _ in 0..n {
                            key += (next_rand(&mut seed) % 7) as u32;
                            q.push_back(Packet::nz(key, p as u32, 1.0));
                        }
                        q.push_back(Packet::Eol);
                    }
                    q
                })
                .collect();
            let mut digest = crate::Digest::new();
            for _ in 0..4096u64 {
                // Staggered arrival: each port delivers with p=1/4.
                for (port, queue) in pending.iter_mut().enumerate() {
                    if next_rand(&mut seed).is_multiple_of(4) {
                        if let Some(pkt) = queue.pop_front() {
                            src.push(port, pkt);
                            tree.wake_port(port);
                        }
                    }
                }
                let root_space = usize::from(!next_rand(&mut seed).is_multiple_of(4));
                match tree.tick(&mut src, root_space) {
                    None => digest.push_bytes(&[0]),
                    Some(p) => {
                        let (key, value) = p.pack();
                        digest.push_bytes(&[1]);
                        digest.push_bytes(&key.to_le_bytes());
                        digest.push_bytes(&value.to_bits().to_le_bytes());
                    }
                }
                for &k in &tree.keys {
                    digest.push_bytes(&k.to_le_bytes());
                }
                for &c in &tree.ctrl {
                    digest.push_bytes(&c.to_le_bytes());
                }
                digest.push_bytes(&tree.pops.to_le_bytes());
                digest.push_bytes(&tree.rounds_completed.to_le_bytes());
                if tree.rounds_completed >= rounds && tree.is_drained() {
                    break;
                }
            }
            assert!(
                tree.rounds_completed >= rounds,
                "case {case}: tree did not finish (leaves={leaves} cap={fifo_cap})"
            );
            *pinned = digest.finish();
        }
        let first_wrong = (0..64).find(|&case| digests[case] != TICK_DIGESTS[case]);
        assert_eq!(
            first_wrong, None,
            "tick diverged from the pinned wake policy; digests: {digests:#018x?}"
        );
    }

    #[test]
    fn root_backpressure_stalls_tree() {
        let streams = vec![vec![nz(1), nz(2)], vec![nz(3)]];
        let mut src = SliceLeafSource::from_streams(2, streams);
        let mut tree = MergeTree::new(2, 2);
        // No root space: nothing pops, tree holds packets.
        for _ in 0..50 {
            assert_eq!(tree.tick(&mut src, 0), None);
        }
        assert_eq!(tree.pops(), 0);
        // Release: everything flows.
        let (out, _) = run_tree(&mut tree, &mut src, 1, 100);
        assert_eq!(out, vec![nz(1), nz(2), nz(3)]);
    }

    #[test]
    fn pipeline_latency_is_at_least_levels() {
        // A single element at a leaf takes >= log2(l) cycles to reach the
        // root (§3.2: "at least log2 l cycles ... from a leaf PE to the
        // root PE").
        let mut src = SliceLeafSource::from_streams(16, vec![vec![nz(7)]]);
        let mut tree = MergeTree::new(16, 2);
        let mut first_pop = None;
        for cycle in 0..100 {
            if let Some(p) = tree.tick(&mut src, 1) {
                if !p.is_eol() {
                    first_pop = Some(cycle);
                    break;
                }
            }
        }
        let latency = first_pop.expect("element must emerge") + 1;
        assert!(latency >= tree.levels() as u64, "latency {latency}");
    }

    #[test]
    fn large_tree_merges_correctly() {
        let leaves = 128;
        let streams: Vec<Vec<Packet>> = (0..leaves as u32)
            .map(|p| (0..5).map(|i| nz(i * leaves as u32 + p)).collect())
            .collect();
        let mut src = SliceLeafSource::from_streams(leaves, streams.clone());
        let mut tree = MergeTree::new(leaves, 2);
        let (out, _) = run_tree(&mut tree, &mut src, 1, 100_000);
        assert_eq!(out, MergeTree::merge_functional(&streams));
    }

    #[test]
    fn wake_port_reactivates_quiescent_tree() {
        let mut src = SliceLeafSource::new(4);
        let mut tree = MergeTree::new(4, 2);
        // Spin until quiescent (no packets anywhere).
        for _ in 0..20 {
            tree.tick(&mut src, 1);
        }
        // Now feed a full round and wake only the touched ports.
        for p in 0..4 {
            src.push(p, if p == 2 { nz(9) } else { Packet::Eol });
            if p == 2 {
                src.push(p, Packet::Eol);
            }
            tree.wake_port(p);
        }
        let (out, _) = run_tree(&mut tree, &mut src, 1, 200);
        assert_eq!(out, vec![nz(9)]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_leaf_count_panics() {
        let _ = MergeTree::new(6, 2);
    }

    #[test]
    fn scratch_reuse_keeps_output_identical_across_rounds() {
        // Many back-to-back rounds exercise the worklist/scratch swap in
        // steady state; the merged output must match the functional model
        // round by round, and the scratch buffers must not grow beyond
        // the PE count (they'd reallocate every cycle otherwise).
        let leaves = 16;
        let rounds = 8u64;
        let mut src = SliceLeafSource::new(leaves);
        let mut per_round: Vec<Vec<Packet>> = Vec::new();
        for round in 0..rounds as u32 {
            let mut expected = Vec::new();
            for port in 0..leaves as u32 {
                for i in 0..3 {
                    let p = Packet::nz(round * 1000 + i * leaves as u32 + port, port, 1.0);
                    src.push(port as usize, p);
                    expected.push(p);
                }
                src.push(port as usize, Packet::Eol);
            }
            expected.sort_by_key(|p| p.key());
            per_round.push(expected);
        }
        let mut tree = MergeTree::new(leaves, 2);
        let mut out: Vec<Vec<Packet>> = vec![Vec::new()];
        let mut cycles = 0u64;
        while tree.rounds_completed() < rounds {
            let before = tree.rounds_completed();
            if let Some(p) = tree.tick(&mut src, 1) {
                if !p.is_eol() {
                    out[before as usize].push(p);
                } else if tree.rounds_completed() < rounds {
                    out.push(Vec::new());
                }
            }
            assert!(tree.work_scratch.capacity() <= 2 * (leaves - 1));
            cycles += 1;
            assert!(cycles < 100_000, "tree deadlocked");
        }
        assert_eq!(out, per_round);
    }

    #[test]
    fn quiescence_predicate_matches_tick_behavior() {
        let mut src = SliceLeafSource::new(4);
        let mut tree = MergeTree::new(4, 2);
        // Fresh tree has a full worklist: not quiescent.
        assert!(!tree.is_quiescent(&src, 1));
        // Drain to a true fixpoint.
        for _ in 0..20 {
            tree.tick(&mut src, 1);
        }
        assert!(tree.is_quiescent(&src, 1));
        // A quiescent tree must stay bit-identical under further ticks.
        assert_eq!(tree.tick(&mut src, 1), None);
        assert!(tree.is_quiescent(&src, 1));
        // New leaf data (after wake_port) ends quiescence...
        src.push(0, nz(5));
        tree.wake_port(0);
        assert!(!tree.is_quiescent(&src, 1));
        for _ in 0..20 {
            tree.tick(&mut src, 1);
        }
        // ...and a root holding data with zero root space is quiescent,
        // but wakes as soon as space appears.
        src.push(1, Packet::Eol);
        src.push(2, Packet::Eol);
        src.push(3, Packet::Eol);
        for p in 1..4 {
            tree.wake_port(p);
        }
        for _ in 0..20 {
            tree.tick(&mut src, 0);
        }
        assert!(tree.is_quiescent(&src, 0));
        assert!(!tree.is_quiescent(&src, 1));
    }

    #[test]
    fn two_leaf_quiescence_sees_leaf_source() {
        // On a 2-leaf tree the root is also the leaf PE: pending source
        // packets must defeat quiescence even with an empty tree.
        let mut src = SliceLeafSource::new(2);
        let mut tree = MergeTree::new(2, 2);
        for _ in 0..10 {
            tree.tick(&mut src, 1);
        }
        assert!(tree.is_quiescent(&src, 1));
        src.push(0, nz(1));
        assert!(!tree.is_quiescent(&src, 1));
    }
}
