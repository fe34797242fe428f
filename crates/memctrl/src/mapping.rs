//! Physical-address to DRAM-coordinate mapping.
//!
//! The paper uses *Minimalist Open Page* with four lines per row-bank stripe
//! (MOP4, Table III): four consecutive cache lines share a row, then the
//! stripe moves to the next sub-channel/bank, so sequential streams spread
//! over all banks while keeping short row bursts.

use mirza_dram::address::{BankId, DramAddr};
use mirza_dram::geometry::Geometry;

/// MOP-style address decoder.
///
/// Bit layout, from the cache-line address LSB upward:
/// `[mop lines] [sub-channel] [bank] [rank] [column-high] [row]`.
///
/// ```
/// use mirza_memctrl::mapping::AddressMapper;
/// use mirza_dram::geometry::Geometry;
/// let m = AddressMapper::mop4(Geometry::ddr5_32gb());
/// let a = m.decode(0);
/// let b = m.decode(64); // next line: same row, next column
/// assert_eq!(a.bank, b.bank);
/// assert_eq!(a.row, b.row);
/// assert_eq!(b.col, a.col + 1);
/// let c = m.decode(4 * 64); // fifth line: next sub-channel stripe
/// assert_ne!(a.bank.subch, c.bank.subch);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapper {
    geom: Geometry,
    mop_lines: u32,
    /// Each field's `(shift, mask)` in the byte address, in layout order:
    /// MOP lines, sub-channel, bank, rank, column-high, row.
    fields: [(u32, u64); 6],
}

impl AddressMapper {
    /// Creates a MOP mapper with `mop_lines` consecutive lines per stripe.
    ///
    /// # Panics
    /// Panics if `mop_lines` is zero, not a power of two, or exceeds the
    /// lines per row, or if any other field of the layout (line size,
    /// sub-channels, banks, ranks, lines per row, rows per bank) is not a
    /// power of two: decoding is shifts and masks.
    pub fn new(geom: Geometry, mop_lines: u32) -> Self {
        assert!(
            mop_lines.is_power_of_two() && mop_lines > 0,
            "MOP group must be a non-zero power of two"
        );
        assert!(
            mop_lines <= geom.lines_per_row(),
            "MOP group larger than the row"
        );
        let bits = |field: &str, n: u32| {
            assert!(n.is_power_of_two(), "{field} = {n} is not a power of two");
            n.trailing_zeros()
        };
        let mut shift = bits("line_bytes", geom.line_bytes);
        let widths = [
            mop_lines.trailing_zeros(),
            bits("subchannels", geom.subchannels),
            bits("banks", geom.banks),
            bits("ranks", geom.ranks),
            bits("lines_per_row", geom.lines_per_row()) - mop_lines.trailing_zeros(),
            bits("rows_per_bank", geom.rows_per_bank),
        ];
        let fields = widths.map(|width| {
            let field = (shift, (1 << width) - 1);
            shift += width;
            field
        });
        AddressMapper {
            geom,
            mop_lines,
            fields,
        }
    }

    /// The paper's MOP4 configuration.
    pub fn mop4(geom: Geometry) -> Self {
        Self::new(geom, 4)
    }

    /// The geometry this mapper targets.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Bytes of addressable memory.
    pub fn capacity(&self) -> u64 {
        self.geom.total_bytes()
    }

    /// Decodes physical byte address `pa` into DRAM coordinates.
    ///
    /// # Panics
    /// Panics if `pa` is beyond the channel capacity.
    pub fn decode(&self, pa: u64) -> DramAddr {
        assert!(pa < self.capacity(), "address {pa:#x} out of range");
        let [col_low, subch, bank, rank, col_high, row] = self
            .fields
            .map(|(shift, mask)| ((pa >> shift) & mask) as u32);
        DramAddr {
            bank: BankId::new(subch, rank, bank),
            row,
            col: (col_high << self.mop_lines.trailing_zeros()) | col_low,
        }
    }

    /// Re-encodes DRAM coordinates back to a physical byte address
    /// (inverse of [`decode`](Self::decode)).
    pub fn encode(&self, addr: &DramAddr) -> u64 {
        let g = &self.geom;
        let col_low = u64::from(addr.col % self.mop_lines);
        let col_high = u64::from(addr.col / self.mop_lines);
        let mut line = u64::from(addr.row);
        line = line * u64::from(g.lines_per_row() / self.mop_lines) + col_high;
        line = line * u64::from(g.ranks) + u64::from(addr.bank.rank);
        line = line * u64::from(g.banks) + u64::from(addr.bank.bank);
        line = line * u64::from(g.subchannels) + u64::from(addr.bank.subch);
        line = line * u64::from(self.mop_lines) + col_low;
        line * u64::from(g.line_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> AddressMapper {
        AddressMapper::mop4(Geometry::ddr5_32gb())
    }

    #[test]
    fn four_lines_share_a_row_then_stripe_moves() {
        let m = mapper();
        let base = m.decode(0);
        for i in 1..4u64 {
            let a = m.decode(i * 64);
            assert_eq!(a.bank, base.bank);
            assert_eq!(a.row, base.row);
        }
        let next = m.decode(4 * 64);
        assert!(next.bank != base.bank, "stripe must move to another bank");
    }

    #[test]
    fn sequential_pages_spread_over_all_banks() {
        let m = mapper();
        let mut banks_seen = std::collections::HashSet::new();
        // One 4 KB row's worth of stripes spread across 64 stripes.
        for i in 0..1024u64 {
            let a = m.decode(i * 64 * 4); // every stripe start
            banks_seen.insert(a.bank);
        }
        assert_eq!(banks_seen.len(), 64, "2 subch x 32 banks all touched");
    }

    #[test]
    fn decode_encode_round_trip() {
        let m = mapper();
        for pa in (0..m.capacity()).step_by(64 * 7919) {
            let a = m.decode(pa);
            assert_eq!(m.encode(&a), pa, "round trip failed at {pa:#x}");
        }
    }

    #[test]
    fn decode_covers_full_row_and_column_space() {
        let m = mapper();
        let last = m.decode(m.capacity() - 64);
        assert_eq!(last.row, Geometry::ddr5_32gb().rows_per_bank - 1);
        assert_eq!(last.col, Geometry::ddr5_32gb().lines_per_row() - 1);
    }

    #[test]
    #[should_panic(expected = "banks = 24 is not a power of two")]
    fn a_non_power_of_two_field_panics() {
        let geom = Geometry {
            banks: 24,
            ..Geometry::ddr5_32gb()
        };
        let _ = AddressMapper::mop4(geom);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let m = mapper();
        let _ = m.decode(m.capacity());
    }
}
