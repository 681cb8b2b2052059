//! 1D ↔ 2D stream layouts (Section 6.2 of the paper).
//!
//! A GPU stream is physically a 2D texture, while the stream program
//! addresses it with 1D indices. The paper evaluates two mappings:
//!
//! * **row-wise** (Section 6.2.1): index `a` maps to
//!   `(a mod w, ⌊a / w⌋)` for a power-of-two width `w`;
//! * **Z-order / Morton** (Section 6.2.2): the bits of `a` are de-interleaved
//!   into the x and y coordinate, which maps every aligned power-of-two-sized
//!   1D block onto a square or 2:1 near-square 2D tile. This is the
//!   cache-oblivious layout that gives GPU-ABiSort variant (b) its speed.
//!
//! The module also provides [`Addr2D`], the packed 16+16-bit 2D index the
//! paper's kernels store instead of 1D indices ("we process and store all
//! addresses in the kernel programs directly in form of 2D indexes, where we
//! represent a 2D index by two 16 bit integer values packed into a 32 bit
//! field").

use serde::{Deserialize, Serialize};

/// A 2D element address packed into 32 bits (16-bit x, 16-bit y), as used by
/// the paper's GPU kernels.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Addr2D(pub u32);

impl Addr2D {
    /// Pack an (x, y) coordinate. Both coordinates must fit in 16 bits.
    #[inline]
    pub fn pack(x: u32, y: u32) -> Self {
        debug_assert!(x < 1 << 16 && y < 1 << 16, "coordinate exceeds 16 bits");
        Addr2D((y << 16) | (x & 0xFFFF))
    }

    /// The x coordinate.
    #[inline]
    pub fn x(self) -> u32 {
        self.0 & 0xFFFF
    }

    /// The y coordinate.
    #[inline]
    pub fn y(self) -> u32 {
        self.0 >> 16
    }

    /// Unpack into (x, y).
    #[inline]
    pub fn unpack(self) -> (u32, u32) {
        (self.x(), self.y())
    }
}

/// A mapping between 1D stream indices and 2D texture coordinates.
pub trait Mapping1Dto2D {
    /// Map a 1D element index to its 2D texture coordinate.
    fn to_2d(&self, index: usize) -> (u32, u32);

    /// Map a 2D texture coordinate back to the 1D element index.
    // The name pairs with `to_2d`; it is a coordinate conversion, not a
    // constructor, so the `from_*` self convention does not apply.
    #[allow(clippy::wrong_self_convention)]
    fn from_2d(&self, x: u32, y: u32) -> usize;

    /// Texture width in elements needed to hold `len` elements.
    fn width_for(&self, len: usize) -> u32;

    /// Texture height in elements needed to hold `len` elements.
    fn height_for(&self, len: usize) -> u32;
}

/// Row-wise mapping with a power-of-two row width (Section 6.2.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowMajor2D {
    width_log2: u32,
}

impl RowMajor2D {
    /// Create a row-wise mapping with the given power-of-two width.
    ///
    /// # Panics
    /// Panics if `width` is not a power of two or does not fit in 16 bits.
    pub fn new(width: u32) -> Self {
        assert!(width.is_power_of_two(), "row width must be a power of two");
        assert!(width <= 1 << 16, "row width must fit in 16 bits");
        RowMajor2D {
            width_log2: width.trailing_zeros(),
        }
    }

    /// The row width in elements.
    #[inline]
    pub fn width(&self) -> u32 {
        1 << self.width_log2
    }
}

impl Mapping1Dto2D for RowMajor2D {
    #[inline]
    fn to_2d(&self, index: usize) -> (u32, u32) {
        let w = self.width_log2;
        ((index as u32) & ((1 << w) - 1), (index >> w) as u32)
    }

    #[inline]
    fn from_2d(&self, x: u32, y: u32) -> usize {
        ((y as usize) << self.width_log2) | x as usize
    }

    fn width_for(&self, _len: usize) -> u32 {
        self.width()
    }

    fn height_for(&self, len: usize) -> u32 {
        let w = self.width() as usize;
        (len.div_ceil(w)).max(1) as u32
    }
}

/// Z-order (Morton) mapping (Section 6.2.2).
///
/// For a 1D index with bit representation `(a31, …, a1, a0)`, the x
/// coordinate takes the even bits `(a30, …, a2, a0)` and the y coordinate
/// the odd bits `(a31, …, a3, a1)`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZOrder2D;

impl ZOrder2D {
    /// Extract the even-position bits of `v` and compact them into the low
    /// half (inverse of bit interleaving).
    #[inline]
    pub(crate) fn compact_bits(mut v: u64) -> u32 {
        // Keep even bits, then successively squeeze out the gaps.
        v &= 0x5555_5555_5555_5555;
        v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
        v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
        v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
        v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
        v = (v | (v >> 16)) & 0x0000_0000_FFFF_FFFF;
        v as u32
    }

    /// Spread the low 32 bits of `v` into the even bit positions of a u64.
    #[inline]
    fn spread_bits(v: u32) -> u64 {
        let mut v = v as u64;
        v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
        v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
        v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        v = (v | (v << 2)) & 0x3333_3333_3333_3333;
        v = (v | (v << 1)) & 0x5555_5555_5555_5555;
        v
    }
}

impl Mapping1Dto2D for ZOrder2D {
    #[inline]
    fn to_2d(&self, index: usize) -> (u32, u32) {
        let i = index as u64;
        (Self::compact_bits(i), Self::compact_bits(i >> 1))
    }

    #[inline]
    fn from_2d(&self, x: u32, y: u32) -> usize {
        (Self::spread_bits(x) | (Self::spread_bits(y) << 1)) as usize
    }

    fn width_for(&self, len: usize) -> u32 {
        if len <= 1 {
            return 1;
        }
        let bits = usize::BITS - (len - 1).leading_zeros(); // ceil(log2(len))
        1 << bits.div_ceil(2)
    }

    fn height_for(&self, len: usize) -> u32 {
        if len <= 1 {
            return 1;
        }
        let bits = usize::BITS - (len - 1).leading_zeros();
        1 << (bits / 2)
    }
}

/// Runtime-selectable layout used by [`crate::Stream`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layout {
    /// Pure 1D layout (no 2D packing); used for host-side reference streams.
    #[default]
    Linear,
    /// Row-wise 1D→2D mapping with the given power-of-two width
    /// (Section 6.2.1).
    RowMajor {
        /// Row width in elements; must be a power of two.
        width: u32,
    },
    /// Z-order / Morton 1D→2D mapping (Section 6.2.2).
    ZOrder,
}

impl Layout {
    /// Map a 1D element index to its 2D texture coordinate under this
    /// layout. `Linear` maps everything to row 0.
    #[inline]
    pub fn to_2d(&self, index: usize) -> (u32, u32) {
        match *self {
            Layout::Linear => (index as u32, 0),
            Layout::RowMajor { width } => RowMajor2D::new(width).to_2d(index),
            Layout::ZOrder => ZOrder2D.to_2d(index),
        }
    }

    /// Map a 2D texture coordinate back to the 1D element index.
    #[inline]
    pub fn from_2d(&self, x: u32, y: u32) -> usize {
        match *self {
            Layout::Linear => x as usize,
            Layout::RowMajor { width } => RowMajor2D::new(width).from_2d(x, y),
            Layout::ZOrder => ZOrder2D.from_2d(x, y),
        }
    }

    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Layout::Linear => "linear",
            Layout::RowMajor { .. } => "row-wise",
            Layout::ZOrder => "z-order",
        }
    }
}

/// The 2D bounding box `(width, height)` of a contiguous 1D block
/// `[start, start + len)` under a layout.
///
/// For Z-order with aligned power-of-two blocks this is the square /
/// near-square tile of Section 6.2.2; for row-wise layouts it is the strip
/// or band of rows described in Section 6.2.1.
pub fn block_footprint(layout: &Layout, start: usize, len: usize) -> (u32, u32) {
    if len == 0 {
        return (0, 0);
    }
    let mut min_x = u32::MAX;
    let mut max_x = 0u32;
    let mut min_y = u32::MAX;
    let mut max_y = 0u32;
    // For the layouts we use (aligned power-of-two blocks) the bounding box
    // is determined by the corners, but compute it exactly for robustness on
    // small blocks; large blocks in benchmarks use the analytic fast path.
    if let Some(fp) = analytic_footprint(layout, start, len) {
        return fp;
    }
    for i in start..start + len {
        let (x, y) = layout.to_2d(i);
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    (max_x - min_x + 1, max_y - min_y + 1)
}

/// Fast path of [`block_footprint`] for aligned power-of-two blocks, where
/// the shape is known analytically (the propositions of Section 6.2).
fn analytic_footprint(layout: &Layout, start: usize, len: usize) -> Option<(u32, u32)> {
    if !len.is_power_of_two() || !start.is_multiple_of(len) {
        return None;
    }
    match *layout {
        Layout::Linear => Some((len as u32, 1)),
        Layout::RowMajor { width } => {
            let w = width as usize;
            if len <= w {
                Some((len as u32, 1))
            } else {
                Some((width, (len / w) as u32))
            }
        }
        Layout::ZOrder => {
            let last = len - 1;
            let (lx, ly) = ZOrder2D.to_2d(last);
            Some((lx + 1, ly + 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr2d_roundtrip() {
        for &(x, y) in &[(0u32, 0u32), (1, 2), (1023, 2047), (65535, 65535)] {
            let a = Addr2D::pack(x, y);
            assert_eq!(a.unpack(), (x, y));
            assert_eq!(a.x(), x);
            assert_eq!(a.y(), y);
        }
    }

    #[test]
    fn row_major_roundtrip() {
        let m = RowMajor2D::new(1024);
        for &i in &[0usize, 1, 1023, 1024, 1025, 4095, 1 << 20] {
            let (x, y) = m.to_2d(i);
            assert_eq!(m.from_2d(x, y), i);
            assert!(x < 1024);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn row_major_rejects_non_power_of_two_width() {
        let _ = RowMajor2D::new(1000);
    }

    #[test]
    fn z_order_roundtrip() {
        let m = ZOrder2D;
        for i in 0..4096usize {
            let (x, y) = m.to_2d(i);
            assert_eq!(m.from_2d(x, y), i, "index {i}");
        }
        // A few large ones.
        for &i in &[1usize << 20, (1 << 22) - 1, 123_456_789] {
            let (x, y) = m.to_2d(i);
            assert_eq!(m.from_2d(x, y), i);
        }
    }

    #[test]
    fn z_order_first_elements_follow_morton_curve() {
        // Morton order with x from even bits: 0→(0,0), 1→(1,0), 2→(0,1),
        // 3→(1,1), 4→(2,0), ...
        let m = ZOrder2D;
        assert_eq!(m.to_2d(0), (0, 0));
        assert_eq!(m.to_2d(1), (1, 0));
        assert_eq!(m.to_2d(2), (0, 1));
        assert_eq!(m.to_2d(3), (1, 1));
        assert_eq!(m.to_2d(4), (2, 0));
        assert_eq!(m.to_2d(5), (3, 0));
        assert_eq!(m.to_2d(10), (0, 3));
    }

    /// Paper, Section 6.2.2, proposition 1: the 1D index `2a` maps to the
    /// 2D index `(2·a_y, a_x)`.
    #[test]
    fn z_order_doubling_proposition() {
        let m = ZOrder2D;
        for a in 0..2048usize {
            let (ax, ay) = m.to_2d(a);
            assert_eq!(m.to_2d(2 * a), (2 * ay, ax));
        }
    }

    /// Paper, Section 6.2.2, proposition 2: for s a power of two and a < s,
    /// `s + a` maps to `(s_x + a_x, s_y + a_y)`.
    #[test]
    fn z_order_offset_proposition() {
        let m = ZOrder2D;
        for log_s in 0..12u32 {
            let s = 1usize << log_s;
            let (sx, sy) = m.to_2d(s);
            for a in (0..s).step_by((s / 64).max(1)) {
                let (ax, ay) = m.to_2d(a);
                assert_eq!(m.to_2d(s + a), (sx + ax, sy + ay), "s={s} a={a}");
            }
        }
    }

    /// Paper, Section 6.2.2, proposition 3: for l a power of two,
    /// `l − 1` maps to `(l'_x, l'_y)` with `(l'_x+1)(l'_y+1) = l` and the
    /// tile square or 2:1.
    #[test]
    fn z_order_block_shape_proposition() {
        let m = ZOrder2D;
        for log_l in 0..24u32 {
            let l = 1usize << log_l;
            let (lx, ly) = m.to_2d(l - 1);
            let w = (lx + 1) as usize;
            let h = (ly + 1) as usize;
            assert_eq!(w * h, l, "l={l}");
            assert!(w == h || w == 2 * h, "l={l} w={w} h={h}");
        }
    }

    #[test]
    fn z_order_aligned_blocks_are_contiguous_tiles() {
        // An aligned power-of-two block occupies exactly the rectangle
        // {s_x..s_x+w} x {s_y..s_y+h}: every element falls inside and the
        // rectangle has exactly `len` cells.
        let m = ZOrder2D;
        for log_l in 0..10u32 {
            let l = 1usize << log_l;
            for block in 0..4usize {
                let s = block * l;
                let (sx, sy) = m.to_2d(s);
                let (fw, fh) = block_footprint(&Layout::ZOrder, s, l);
                assert_eq!((fw as usize) * (fh as usize), l);
                for i in s..s + l {
                    let (x, y) = m.to_2d(i);
                    assert!(x >= sx && x < sx + fw && y >= sy && y < sy + fh);
                }
            }
        }
    }

    #[test]
    fn row_major_footprints_are_strips_or_bands() {
        let layout = Layout::RowMajor { width: 64 };
        // Block shorter than a row: 1-row strip.
        assert_eq!(block_footprint(&layout, 0, 16), (16, 1));
        assert_eq!(block_footprint(&layout, 16, 16), (16, 1));
        // Block spanning full rows: full-width band.
        assert_eq!(block_footprint(&layout, 0, 256), (64, 4));
        assert_eq!(block_footprint(&layout, 256, 256), (64, 4));
    }

    #[test]
    fn footprint_analytic_matches_exhaustive() {
        for layout in [
            Layout::RowMajor { width: 32 },
            Layout::ZOrder,
            Layout::Linear,
        ] {
            for log_l in 0..8u32 {
                let l = 1usize << log_l;
                for block in 0..3usize {
                    let s = block * l;
                    let analytic = analytic_footprint(&layout, s, l).unwrap();
                    // Recompute exhaustively.
                    let mut min_x = u32::MAX;
                    let mut max_x = 0;
                    let mut min_y = u32::MAX;
                    let mut max_y = 0;
                    for i in s..s + l {
                        let (x, y) = layout.to_2d(i);
                        min_x = min_x.min(x);
                        max_x = max_x.max(x);
                        min_y = min_y.min(y);
                        max_y = max_y.max(y);
                    }
                    assert_eq!(analytic, (max_x - min_x + 1, max_y - min_y + 1));
                }
            }
        }
    }

    #[test]
    fn layout_names() {
        assert_eq!(Layout::Linear.name(), "linear");
        assert_eq!(Layout::RowMajor { width: 64 }.name(), "row-wise");
        assert_eq!(Layout::ZOrder.name(), "z-order");
    }

    #[test]
    fn z_order_texture_dimensions() {
        let m = ZOrder2D;
        assert_eq!(m.width_for(1), 1);
        assert_eq!(m.width_for(2), 2);
        assert_eq!(m.height_for(2), 1);
        assert_eq!(m.width_for(4), 2);
        assert_eq!(m.height_for(4), 2);
        assert_eq!(m.width_for(1 << 20), 1 << 10);
        assert_eq!(m.height_for(1 << 20), 1 << 10);
        assert_eq!(m.width_for(1 << 21), 1 << 11);
        assert_eq!(m.height_for(1 << 21), 1 << 10);
    }

    #[test]
    fn row_major_texture_dimensions() {
        let m = RowMajor2D::new(2048);
        assert_eq!(m.width_for(100), 2048);
        assert_eq!(m.height_for(100), 1);
        assert_eq!(m.height_for(1 << 20), 512);
    }
}
