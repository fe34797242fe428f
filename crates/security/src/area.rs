//! Relative area model (Section VIII-A, Table X): DRAM cells cost 6F²,
//! SRAM cells 120F².

/// Area of one DRAM cell in units of F².
pub const DRAM_CELL_F2: f64 = 6.0;

/// Area of one SRAM cell in units of F².
pub const SRAM_CELL_F2: f64 = 120.0;

/// Bits a PRAC per-row counter needs for threshold `trh`
/// (Table X: 10 bits at 1K, 9 at 500, 8 at 250).
pub fn prac_counter_bits(trh: u32) -> u32 {
    assert!(trh > 1, "threshold must exceed one activation");
    32 - (trh - 1).leading_zeros()
}

/// One Table X row: relative areas at a given threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaRow {
    /// Target threshold.
    pub trhd: u32,
    /// MIRZA SRAM bits per subarray.
    pub mirza_bits: u32,
    /// PRAC DRAM bits per subarray.
    pub prac_bits: u32,
    /// PRAC area / MIRZA area.
    pub prac_over_mirza: f64,
}

/// Computes a Table X row. `mirza_bits` is the total SRAM bits MIRZA spends
/// per 1K-row subarray (11 at TRHD=1K, 20 at 500, 36 at 250).
pub fn table10_row(trhd: u32, mirza_bits: u32) -> AreaRow {
    let rows = 1024;
    let prac_bits = prac_counter_bits(trhd) * rows;
    let prac = f64::from(prac_bits) * DRAM_CELL_F2;
    let mirza = f64::from(mirza_bits) * SRAM_CELL_F2;
    AreaRow {
        trhd,
        mirza_bits,
        prac_bits,
        prac_over_mirza: prac / mirza,
    }
}

/// The three published Table X rows.
pub fn table10() -> Vec<AreaRow> {
    vec![
        table10_row(1000, 11),
        table10_row(500, 20),
        table10_row(250, 36),
    ]
}

/// MIRZA SRAM per bank vs. Mithril (Section VIII-A): 2K entries of 28 bits
/// is 7 KB; MIRZA at TRHD=1K needs 196 B -> ~37x lower.
pub fn mithril_over_mirza_storage() -> f64 {
    7168.0 / 196.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prac_counter_widths_match_table10() {
        assert_eq!(prac_counter_bits(1000), 10);
        assert_eq!(prac_counter_bits(500), 9);
        assert_eq!(prac_counter_bits(250), 8);
    }

    #[test]
    fn ratios_match_published_factors() {
        let rows = table10();
        // Paper: 45x, 22.5x, 11.2x.
        assert!((rows[0].prac_over_mirza - 45.0).abs() < 2.0, "{rows:?}");
        assert!((rows[1].prac_over_mirza - 22.5).abs() < 1.5, "{rows:?}");
        assert!((rows[2].prac_over_mirza - 11.2).abs() < 1.0, "{rows:?}");
    }

    #[test]
    fn prac_bits_per_subarray() {
        // 10-bit x 1K rows = 10 Kb of DRAM at TRHD=1K.
        assert_eq!(table10_row(1000, 11).prac_bits, 10 * 1024);
    }

    #[test]
    fn mithril_ratio_is_about_37x() {
        assert!((mithril_over_mirza_storage() - 36.6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_degenerate_threshold() {
        let _ = prac_counter_bits(1);
    }
}
