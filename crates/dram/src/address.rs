use crate::Organization;

/// Decoded DRAM coordinates of a physical address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct DramCoord {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank group index within the rank.
    pub bank_group: usize,
    /// Bank index within the bank group.
    pub bank: usize,
    /// Row index within the bank.
    pub row: usize,
    /// Column (cache-line) index within the row.
    pub column: usize,
}

// Bounds are checked where the organization is known (the channel).
crate::snap_fields!(DramCoord {
    channel,
    rank,
    bank_group,
    bank,
    row,
    column,
});

impl DramCoord {
    /// Flat bank identifier within a channel
    /// (`rank * banks_per_rank + bank_group * banks_per_group + bank`).
    pub fn flat_bank(&self, org: &Organization) -> usize {
        self.rank * org.banks_per_rank() + self.bank_group * org.banks_per_group + self.bank
    }
}

/// Physical-address interleaving scheme, named low-bits-first (the
/// right-most field consumes the least-significant address bits above the
/// transaction offset).
///
/// * [`MappingScheme::RoBaRaCoCh`] — row : bank : rank : column : channel.
///   Adjacent lines stripe across channels then columns, maximizing
///   row-buffer locality for streams; Ramulator's default for multichannel.
/// * [`MappingScheme::ChRaBaRoCo`] — channel : rank : bank : row : column.
///   Adjacent lines walk a row buffer before switching banks.
/// * [`MappingScheme::RoCoBaRaCh`] — row : column : bank : rank : channel.
///   Bank-interleaved at line granularity, maximizing bank-level
///   parallelism for random streams (the layout MeNDA uses for COO
///   intermediates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingScheme {
    /// row : bank-group : bank : rank : column : channel (low to high: channel, column, ...).
    RoBaRaCoCh,
    /// channel : rank : bank : row : column (low to high: column, row, ...).
    ChRaBaRoCo,
    /// row : column : bank : rank : channel (low to high: channel, rank, bank, column, row).
    RoCoBaRaCh,
}

// Indices of the coordinate fields, in `DramCoord` order.
const CHANNEL: usize = 0;
const RANK: usize = 1;
const BANK_GROUP: usize = 2;
const BANK: usize = 3;
const ROW: usize = 4;
const COLUMN: usize = 5;

impl MappingScheme {
    /// The coordinate fields (indices into [`field_sizes`]) from the least
    /// to the most significant line-address bits.
    fn low_to_high(self) -> [usize; 6] {
        match self {
            MappingScheme::RoBaRaCoCh => [CHANNEL, COLUMN, RANK, BANK, BANK_GROUP, ROW],
            MappingScheme::ChRaBaRoCo => [COLUMN, ROW, BANK, BANK_GROUP, RANK, CHANNEL],
            MappingScheme::RoCoBaRaCh => [CHANNEL, RANK, BANK, BANK_GROUP, COLUMN, ROW],
        }
    }
}

/// Field sizes in [`DramCoord`] order: channel, rank, bank group, bank,
/// row, column.
fn field_sizes(org: &Organization) -> [usize; 6] {
    [
        org.channels,
        org.ranks,
        org.bank_groups,
        org.banks_per_group,
        org.rows,
        org.columns,
    ]
}

/// Translates physical addresses to [`DramCoord`]s for an
/// [`Organization`] under a [`MappingScheme`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMapper {
    org: Organization,
    scheme: MappingScheme,
    /// Per field, in [`DramCoord`] order, the byte-address shift and mask
    /// that extract it. Present when every field size is a power of two;
    /// otherwise [`AddressMapper::decode`] divides.
    bits: Option<[(u32, u64); 6]>,
}

impl AddressMapper {
    /// Creates a mapper for the given organization and scheme.
    ///
    /// # Panics
    ///
    /// Panics if any organization field is not a power of two (required for
    /// bit-slicing) except `channels`/`ranks` which may be any value ≥ 1.
    pub fn new(org: Organization, scheme: MappingScheme) -> Self {
        assert!(org.transaction_bytes.is_power_of_two());
        assert!(org.columns.is_power_of_two());
        assert!(org.rows.is_power_of_two());
        assert!(org.bank_groups.is_power_of_two());
        assert!(org.banks_per_group.is_power_of_two());
        assert!(org.channels >= 1 && org.ranks >= 1);
        let sizes = field_sizes(&org);
        let bits = sizes.iter().all(|n| n.is_power_of_two()).then(|| {
            let mut bits = [(0, 0); 6];
            let mut shift = org.transaction_bytes.trailing_zeros();
            for f in scheme.low_to_high() {
                // A field wholly above bit 63 reads 0, as when dividing.
                if shift < 64 {
                    bits[f] = (shift, sizes[f] as u64 - 1);
                }
                shift += sizes[f].trailing_zeros();
            }
            bits
        });
        Self { org, scheme, bits }
    }

    /// The organization this mapper decodes for.
    pub fn organization(&self) -> &Organization {
        &self.org
    }

    /// Decodes a physical byte address into DRAM coordinates.
    ///
    /// Addresses beyond the configured capacity wrap (the simulator's
    /// address space is a torus; callers allocate within capacity).
    pub fn decode(&self, addr: u64) -> DramCoord {
        let v = match &self.bits {
            Some(bits) => bits.map(|(shift, mask)| ((addr >> shift) & mask) as usize),
            None => self.divide(addr),
        };
        DramCoord {
            channel: v[CHANNEL],
            rank: v[RANK],
            bank_group: v[BANK_GROUP],
            bank: v[BANK],
            row: v[ROW],
            column: v[COLUMN],
        }
    }

    /// The fields in [`DramCoord`] order by repeated division of the line
    /// address, for channel or rank counts that are not powers of two.
    fn divide(&self, addr: u64) -> [usize; 6] {
        let sizes = field_sizes(&self.org);
        let mut line = addr / self.org.transaction_bytes as u64;
        let mut v = [0; 6];
        for f in self.scheme.low_to_high() {
            let n = sizes[f] as u64;
            if n > 1 {
                v[f] = (line % n) as usize;
                line /= n;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org() -> Organization {
        Organization::ddr4_4gb_x8()
    }

    #[test]
    fn sequential_lines_hit_same_row_in_robaracoch_single_channel() {
        let m = AddressMapper::new(org(), MappingScheme::RoBaRaCoCh);
        let a = m.decode(0);
        let b = m.decode(64);
        assert_eq!(a.row, b.row);
        assert_eq!(a.flat_bank(&org()), b.flat_bank(&org()));
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn channel_bit_is_lowest_in_robaracoch() {
        let mut o = org();
        o.channels = 2;
        let m = AddressMapper::new(o, MappingScheme::RoBaRaCoCh);
        assert_eq!(m.decode(0).channel, 0);
        assert_eq!(m.decode(64).channel, 1);
        assert_eq!(m.decode(128).channel, 0);
    }

    #[test]
    fn rocobarach_interleaves_banks_at_line_granularity() {
        let m = AddressMapper::new(org(), MappingScheme::RoCoBaRaCh);
        let a = m.decode(0);
        let b = m.decode(64);
        assert_ne!(a.flat_bank(&org()), b.flat_bank(&org()));
        assert_eq!(a.row, b.row);
    }

    #[test]
    fn chrabaroco_walks_columns_first() {
        let m = AddressMapper::new(org(), MappingScheme::ChRaBaRoCo);
        let a = m.decode(0);
        let b = m.decode(64);
        assert_eq!(a.row, b.row);
        assert_eq!(b.column, 1);
        // After a full row (128 lines * 64B), the row advances.
        let c = m.decode(128 * 64);
        assert_eq!(c.row, 1);
        assert_eq!(c.column, 0);
    }

    #[test]
    fn decode_is_injective_within_capacity() {
        let mut o = org();
        o.rows = 64; // shrink for an exhaustive check
        o.columns = 8;
        o.channels = 2;
        o.ranks = 2;
        for scheme in [
            MappingScheme::RoBaRaCoCh,
            MappingScheme::ChRaBaRoCo,
            MappingScheme::RoCoBaRaCh,
        ] {
            let m = AddressMapper::new(o, scheme);
            let lines = o.capacity_bytes() / 64;
            let mut seen = std::collections::HashSet::new();
            for i in 0..lines as u64 {
                let c = m.decode(i * 64);
                assert!(c.channel < o.channels);
                assert!(c.rank < o.ranks);
                assert!(c.row < o.rows);
                assert!(c.column < o.columns);
                assert!(seen.insert(c), "collision at line {i} under {scheme:?}");
            }
        }
    }

    #[test]
    fn same_line_same_coord() {
        let m = AddressMapper::new(org(), MappingScheme::RoBaRaCoCh);
        assert_eq!(m.decode(100), m.decode(127));
        assert_ne!(m.decode(100), m.decode(128));
    }

    #[test]
    fn flat_bank_ranges() {
        let mut o = org();
        o.ranks = 2;
        let m = AddressMapper::new(o, MappingScheme::RoCoBaRaCh);
        let max_flat = (0..(1u64 << 20))
            .step_by(64)
            .map(|a| m.decode(a).flat_bank(&o))
            .max()
            .unwrap();
        assert!(max_flat < o.ranks * o.banks_per_rank());
    }

    /// Field-by-field division in each scheme's order, as `decode` was
    /// first written: the reference both decode paths must match.
    fn reference_decode(o: Organization, scheme: MappingScheme, addr: u64) -> DramCoord {
        let mut line = addr / o.transaction_bytes as u64;
        let mut take = |n: usize| -> usize {
            if n <= 1 {
                return 0;
            }
            let v = (line % n as u64) as usize;
            line /= n as u64;
            v
        };
        let mut c = DramCoord {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: 0,
            column: 0,
        };
        match scheme {
            MappingScheme::RoBaRaCoCh => {
                c.channel = take(o.channels);
                c.column = take(o.columns);
                c.rank = take(o.ranks);
                c.bank = take(o.banks_per_group);
                c.bank_group = take(o.bank_groups);
                c.row = take(o.rows);
            }
            MappingScheme::ChRaBaRoCo => {
                c.column = take(o.columns);
                c.row = take(o.rows);
                c.bank = take(o.banks_per_group);
                c.bank_group = take(o.bank_groups);
                c.rank = take(o.ranks);
                c.channel = take(o.channels);
            }
            MappingScheme::RoCoBaRaCh => {
                c.channel = take(o.channels);
                c.rank = take(o.ranks);
                c.bank = take(o.banks_per_group);
                c.bank_group = take(o.bank_groups);
                c.column = take(o.columns);
                c.row = take(o.rows);
            }
        }
        c
    }

    #[test]
    fn decode_matches_division_for_every_scheme_channel_and_rank_count() {
        let mut rng = menda_sparse::rng::StdRng::seed_from_u64(0xDEC0DE);
        for scheme in [
            MappingScheme::RoBaRaCoCh,
            MappingScheme::ChRaBaRoCo,
            MappingScheme::RoCoBaRaCh,
        ] {
            for channels in 1..=3 {
                for ranks in 1..=3 {
                    let mut o = org();
                    o.channels = channels;
                    o.ranks = ranks;
                    let m = AddressMapper::new(o, scheme);
                    let capacity = o.capacity_bytes() as u64;
                    for i in 0..4096u64 {
                        // Within capacity, past it (wrapping), and anywhere.
                        let addr = match i % 3 {
                            0 => rng.next_u64() % capacity,
                            1 => capacity + rng.next_u64() % capacity,
                            _ => rng.next_u64(),
                        };
                        assert_eq!(
                            m.decode(addr),
                            reference_decode(o, scheme, addr),
                            "{scheme:?} channels {channels} ranks {ranks} addr {addr:#x}"
                        );
                    }
                }
            }
        }
    }
}
