//! Sensor-array geometry and addressing shared by both chips.

use crate::error::ChipError;
use bsa_units::Meter;

/// Address of one pixel in a sensor array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PixelAddress {
    /// Row index (0-based).
    pub row: usize,
    /// Column index (0-based).
    pub col: usize,
}

impl PixelAddress {
    /// Creates an address.
    pub fn new(row: usize, col: usize) -> Self {
        Self { row, col }
    }
}

impl std::fmt::Display for PixelAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// Rectangular array geometry: dimensions and pixel pitch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayGeometry {
    rows: usize,
    cols: usize,
    pitch: Meter,
}

impl ArrayGeometry {
    /// The DNA chip's 16×8 sensor array (paper Fig. 4; 16 columns × 8 rows)
    /// at 250 µm site pitch.
    pub fn dna_16x8() -> Self {
        Self {
            rows: 8,
            cols: 16,
            pitch: Meter::from_micro(250.0),
        }
    }

    /// The neural chip's 128×128 array at 7.8 µm pitch within 1 mm × 1 mm
    /// (paper Section 3, ref [19]).
    pub fn neuro_128x128() -> Self {
        Self {
            rows: 128,
            cols: 128,
            pitch: Meter::from_micro(7.8),
        }
    }

    /// Creates a custom geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidConfig`] if either dimension is zero or
    /// the pitch is non-positive.
    pub fn new(rows: usize, cols: usize, pitch: Meter) -> Result<Self, ChipError> {
        if rows == 0 || cols == 0 {
            return Err(ChipError::InvalidConfig {
                reason: format!("array dimensions must be nonzero, got {rows}×{cols}"),
            });
        }
        if pitch.value() <= 0.0 || !pitch.is_finite() {
            return Err(ChipError::InvalidConfig {
                reason: format!("pitch must be positive, got {pitch}"),
            });
        }
        Ok(Self { rows, cols, pitch })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Pixel pitch.
    pub fn pitch(&self) -> Meter {
        self.pitch
    }

    /// Total pixel count.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` for a degenerate zero-pixel array (cannot be constructed via
    /// [`ArrayGeometry::new`], provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Array width (cols × pitch).
    pub fn width(&self) -> Meter {
        self.pitch * self.cols as f64
    }

    /// Array height (rows × pitch).
    pub fn height(&self) -> Meter {
        self.pitch * self.rows as f64
    }

    /// Flat index of an address (row-major).
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::AddressOutOfRange`] if the address is outside
    /// the array.
    pub fn index_of(&self, addr: PixelAddress) -> Result<usize, ChipError> {
        if addr.row >= self.rows || addr.col >= self.cols {
            return Err(self.out_of_range(addr));
        }
        Ok(addr.row * self.cols + addr.col)
    }

    /// The entry of a row-major per-pixel slice at an address.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::AddressOutOfRange`] if the address is outside
    /// the array or past the end of `values`.
    pub fn entry<'a, T>(&self, values: &'a [T], addr: PixelAddress) -> Result<&'a T, ChipError> {
        values
            .get(self.index_of(addr)?)
            .ok_or_else(|| self.out_of_range(addr))
    }

    /// Mutable form of [`entry`](Self::entry).
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::AddressOutOfRange`] if the address is outside
    /// the array or past the end of `values`.
    pub fn entry_mut<'a, T>(
        &self,
        values: &'a mut [T],
        addr: PixelAddress,
    ) -> Result<&'a mut T, ChipError> {
        values
            .get_mut(self.index_of(addr)?)
            .ok_or_else(|| self.out_of_range(addr))
    }

    fn out_of_range(&self, addr: PixelAddress) -> ChipError {
        ChipError::AddressOutOfRange {
            row: addr.row,
            col: addr.col,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Address of a flat index (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn address_of(&self, index: usize) -> PixelAddress {
        assert!(index < self.len(), "index {index} out of range");
        PixelAddress::new(index / self.cols, index % self.cols)
    }

    /// Physical center position `(x, y)` of a pixel, with pixel (0, 0)
    /// centered at half a pitch from the origin.
    pub fn position_of(&self, addr: PixelAddress) -> (Meter, Meter) {
        (
            self.pitch * (addr.col as f64 + 0.5),
            self.pitch * (addr.row as f64 + 0.5),
        )
    }

    /// Iterator over all addresses in row-major scan order.
    pub fn iter(&self) -> impl Iterator<Item = PixelAddress> + '_ {
        let cols = self.cols;
        (0..self.len()).map(move |i| PixelAddress::new(i / cols, i % cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometries() {
        let dna = ArrayGeometry::dna_16x8();
        assert_eq!(dna.len(), 128);
        let neuro = ArrayGeometry::neuro_128x128();
        assert_eq!(neuro.len(), 16384);
        // 128 × 7.8 µm ≈ 1 mm.
        assert!((neuro.width().as_milli() - 0.9984).abs() < 1e-9);
    }

    #[test]
    fn rejects_degenerate() {
        assert!(ArrayGeometry::new(0, 4, Meter::from_micro(1.0)).is_err());
        assert!(ArrayGeometry::new(4, 0, Meter::from_micro(1.0)).is_err());
        assert!(ArrayGeometry::new(4, 4, Meter::ZERO).is_err());
    }

    #[test]
    fn index_round_trip() {
        let g = ArrayGeometry::dna_16x8();
        for i in 0..g.len() {
            let addr = g.address_of(i);
            assert_eq!(g.index_of(addr).unwrap(), i);
        }
    }

    #[test]
    fn index_rejects_out_of_range() {
        let g = ArrayGeometry::dna_16x8();
        assert!(g.index_of(PixelAddress::new(8, 0)).is_err());
        assert!(g.index_of(PixelAddress::new(0, 16)).is_err());
        assert!(g.index_of(PixelAddress::new(7, 15)).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn address_of_rejects_out_of_range() {
        ArrayGeometry::dna_16x8().address_of(128);
    }

    #[test]
    fn scan_order_is_row_major() {
        let g = ArrayGeometry::new(2, 3, Meter::from_micro(1.0)).unwrap();
        let order: Vec<(usize, usize)> = g.iter().map(|a| (a.row, a.col)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn positions_are_cell_centers() {
        let g = ArrayGeometry::neuro_128x128();
        let (x, y) = g.position_of(PixelAddress::new(0, 0));
        assert!((x.as_micro() - 3.9).abs() < 1e-9);
        assert!((y.as_micro() - 3.9).abs() < 1e-9);
        let (x, _) = g.position_of(PixelAddress::new(0, 127));
        assert!((x.as_micro() - (127.5 * 7.8)).abs() < 1e-9);
    }

    #[test]
    fn display_address() {
        assert_eq!(PixelAddress::new(3, 4).to_string(), "(3, 4)");
    }
}
