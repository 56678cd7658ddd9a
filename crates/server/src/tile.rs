//! Static tiling math (paper Figure 4a).

use crate::error::{Result, ServerError};
use kyrix_storage::Rect;
use std::ops::RangeInclusive;

/// Hard cap on how many tiles a single covering request may produce. A
/// realistic viewport covers a handful of tiles; anything near this bound
/// is a degenerate request (huge rectangle, tiny tile size) that would
/// otherwise allocate without limit.
pub const MAX_COVERING_TILES: usize = 1 << 20;

/// Integer tile coordinates at some tile size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId {
    /// Tile column (0 at the canvas origin, negative to the left).
    pub x: i32,
    /// Tile row (0 at the canvas origin, negative above).
    pub y: i32,
}

impl TileId {
    /// Tile at integer coordinates `(x, y)`.
    pub fn new(x: i32, y: i32) -> Self {
        TileId { x, y }
    }

    /// Pack into an i64 for use as a SQL key (`tile_id` column).
    pub fn key(self) -> i64 {
        (((self.x as u32) as i64) << 32) | ((self.y as u32) as i64)
    }

    /// Inverse of [`TileId::key`].
    pub fn from_key(k: i64) -> Self {
        TileId {
            x: ((k >> 32) & 0xffff_ffff) as u32 as i32,
            y: (k & 0xffff_ffff) as u32 as i32,
        }
    }
}

/// A fixed-size square tiling of a canvas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tiling {
    /// Tile edge length in canvas units.
    pub size: f64,
}

impl Tiling {
    /// A tiling of square tiles with edge length `size` (must be > 0).
    pub fn new(size: f64) -> Self {
        assert!(size > 0.0, "tile size must be positive");
        Tiling { size }
    }

    /// Tile containing a point (points on the boundary belong to the tile
    /// to the right/below, like integer flooring).
    pub fn tile_of(&self, x: f64, y: f64) -> TileId {
        TileId {
            x: (x / self.size).floor() as i32,
            y: (y / self.size).floor() as i32,
        }
    }

    /// Canvas rectangle of a tile.
    pub fn tile_rect(&self, t: TileId) -> Rect {
        Rect::new(
            t.x as f64 * self.size,
            t.y as f64 * self.size,
            (t.x + 1) as f64 * self.size,
            (t.y + 1) as f64 * self.size,
        )
    }

    /// Inclusive per-axis tile ranges holding every tile whose *closed*
    /// extent ([`Tiling::tile_rect`]) intersects `rect` — touching counts,
    /// as in [`Rect::intersects`], so unlike [`Tiling::covering`] a tile
    /// that meets `rect` only on its high edge is in. One tile of slack on
    /// each side absorbs the rounding of the division, so the ranges are a
    /// superset: test each tile before acting on it. `None` when `rect` is
    /// empty or not finite, or the ranges leave the tile space
    /// `tile_rect` can address.
    pub(crate) fn touching(
        &self,
        rect: &Rect,
    ) -> Option<(RangeInclusive<i32>, RangeInclusive<i32>)> {
        if rect.is_empty() {
            return None;
        }
        let axis = |lo: f64, hi: f64| {
            let first = (lo / self.size).floor() - 1.0;
            let last = (hi / self.size).floor() + 1.0;
            // `tile_rect` computes `x + 1`, so the last tile stays below MAX
            let addressable = (i32::MIN as f64..i32::MAX as f64).contains(&first)
                && (i32::MIN as f64..i32::MAX as f64).contains(&last);
            addressable.then_some(first as i32..=last as i32)
        };
        Some((axis(rect.min_x, rect.max_x)?, axis(rect.min_y, rect.max_y)?))
    }

    /// All tiles intersecting a rectangle, in row-major order.
    /// The paper's frontend "requests the tiles that intersect with the
    /// given viewport". Boundary-exclusive on the high side: a viewport
    /// ending exactly on a tile edge does not need the next tile.
    ///
    /// Fails with a clear error when the rectangle is not finite, leaves
    /// the tile space [`Tiling::tile_rect`] can address, or would cover
    /// more than [`MAX_COVERING_TILES`] tiles: the per-axis spans are
    /// computed in `f64`, then `i64` (a degenerate viewport can span the
    /// whole i32 range, whose tile count overflows 32-bit arithmetic) and
    /// checked before any allocation happens.
    pub fn covering(&self, rect: &Rect) -> Result<Vec<TileId>> {
        if rect.is_empty() {
            return Ok(Vec::new());
        }
        let axis = |lo: f64, hi: f64| {
            let first = (lo / self.size).floor();
            let last = ((hi / self.size).ceil() - 1.0).max(first);
            // `tile_rect` computes `x + 1`, so the last tile stays below MAX
            let addressable = lo.is_finite()
                && hi.is_finite()
                && (i32::MIN as f64..i32::MAX as f64).contains(&first)
                && (i32::MIN as f64..i32::MAX as f64).contains(&last);
            addressable.then_some((first as i32, last as i32))
        };
        let (Some((x0, x1)), Some((y0, y1))) =
            (axis(rect.min_x, rect.max_x), axis(rect.min_y, rect.max_y))
        else {
            return Err(ServerError::BadRequest(format!(
                "viewport {rect:?} is not finite or leaves the tile space of size {}",
                self.size
            )));
        };
        let nx = x1 as i64 - x0 as i64 + 1;
        let ny = y1 as i64 - y0 as i64 + 1;
        // check each axis before multiplying: nx * ny can overflow even i64
        // when both spans are near the i32 range
        if nx > MAX_COVERING_TILES as i64
            || ny > MAX_COVERING_TILES as i64
            || nx * ny > MAX_COVERING_TILES as i64
        {
            return Err(ServerError::BadRequest(format!(
                "viewport {rect:?} covers {nx}x{ny} tiles of size {}, above the \
                 {MAX_COVERING_TILES}-tile cap",
                self.size
            )));
        }
        let mut out = Vec::with_capacity((nx * ny) as usize);
        for ty in y0..=y1 {
            for tx in x0..=x1 {
                out.push(TileId::new(tx, ty));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip_including_negatives() {
        for t in [
            TileId::new(0, 0),
            TileId::new(5, 9),
            TileId::new(-3, 7),
            TileId::new(i32::MAX, i32::MIN),
        ] {
            assert_eq!(TileId::from_key(t.key()), t);
        }
        // distinct tiles -> distinct keys
        assert_ne!(TileId::new(1, 0).key(), TileId::new(0, 1).key());
    }

    #[test]
    fn tile_of_boundaries() {
        let t = Tiling::new(1024.0);
        assert_eq!(t.tile_of(0.0, 0.0), TileId::new(0, 0));
        assert_eq!(t.tile_of(1023.9, 0.0), TileId::new(0, 0));
        assert_eq!(t.tile_of(1024.0, 0.0), TileId::new(1, 0));
        assert_eq!(t.tile_of(-0.1, -1.0), TileId::new(-1, -1));
    }

    #[test]
    fn covering_aligned_viewport_needs_exactly_fitting_tiles() {
        // trace-a case: viewport aligned with tile boundaries
        let t = Tiling::new(1024.0);
        let vp = Rect::new(1024.0, 0.0, 2048.0, 1024.0);
        assert_eq!(t.covering(&vp).unwrap(), vec![TileId::new(1, 0)]);
    }

    #[test]
    fn covering_unaligned_viewport_needs_four_tiles() {
        // trace-b case: viewport offset by half a tile
        let t = Tiling::new(1024.0);
        let vp = Rect::new(512.0, 512.0, 1536.0, 1536.0);
        let tiles = t.covering(&vp).unwrap();
        assert_eq!(tiles.len(), 4);
        assert!(tiles.contains(&TileId::new(0, 0)));
        assert!(tiles.contains(&TileId::new(1, 1)));
    }

    #[test]
    fn covering_small_tiles() {
        // a 1024 viewport over 256-tiles needs 16 when aligned
        let t = Tiling::new(256.0);
        let vp = Rect::new(0.0, 0.0, 1024.0, 1024.0);
        assert_eq!(t.covering(&vp).unwrap().len(), 16);
        // and 25 when misaligned
        let vp2 = Rect::new(128.0, 128.0, 1152.0, 1152.0);
        assert_eq!(t.covering(&vp2).unwrap().len(), 25);
    }

    #[test]
    fn covering_rejects_degenerate_viewports_instead_of_overflowing() {
        // a viewport spanning (almost) the whole f64-representable i32 tile
        // range used to overflow the i32 capacity product (panic in debug
        // builds) or attempt an absurd allocation; now it is a clean error
        let t = Tiling::new(1.0);
        let huge = Rect::new(-2.0e9, -2.0e9, 2.0e9, 2.0e9);
        assert!(matches!(t.covering(&huge), Err(ServerError::BadRequest(_))));
        // one axis degenerate is enough
        let strip = Rect::new(0.0, 0.0, 1.9e9, 1.0);
        assert!(t.covering(&strip).is_err());
        // a large-but-legitimate request still succeeds
        let big = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        assert_eq!(t.covering(&big).unwrap().len(), 1_000_000);
        // a non-finite or unaddressable coordinate is refused, never
        // floored to tile 0 or overflowed (an inverted rect is empty and
        // covers nothing)
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e300, 1e300] {
            for rect in [
                Rect::new(v, 0.0, 5.0, 5.0),
                Rect::new(0.0, v, 5.0, 5.0),
                Rect::new(0.0, 0.0, v, 5.0),
                Rect::new(0.0, 0.0, 5.0, v),
                Rect::new(v, v, v, v),
            ] {
                if !rect.is_empty() {
                    assert!(
                        matches!(t.covering(&rect), Err(ServerError::BadRequest(_))),
                        "{rect:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_rect_roundtrip() {
        let t = Tiling::new(100.0);
        let tile = TileId::new(3, -2);
        let r = t.tile_rect(tile);
        assert_eq!(r, Rect::new(300.0, -200.0, 400.0, -100.0));
        let c = r.center();
        assert_eq!(t.tile_of(c.x, c.y), tile);
    }

    #[test]
    fn touching_includes_tiles_met_only_on_an_edge() {
        let t = Tiling::new(100.0);
        // a rect ending exactly on the edge between tiles 0 and 1 touches
        // tile 1 (closed extents), which `covering` leaves out
        let r = Rect::new(10.0, 10.0, 100.0, 50.0);
        let (xs, ys) = t.touching(&r).unwrap();
        assert!(xs.contains(&1) && xs.contains(&0) && ys.contains(&0));
        assert_eq!(t.covering(&r).unwrap(), vec![TileId::new(0, 0)]);
        assert!(t.tile_rect(TileId::new(1, 0)).intersects(&r));
        // nothing to list for an empty, infinite or unaddressable rect
        assert!(t.touching(&Rect::empty()).is_none());
        assert!(t
            .touching(&Rect::new(0.0, 0.0, f64::INFINITY, 1.0))
            .is_none());
        assert!(t.touching(&Rect::new(0.0, 0.0, 1e12, 1.0)).is_none());
    }

    #[test]
    fn empty_rect_covers_nothing() {
        let t = Tiling::new(10.0);
        assert!(t.covering(&Rect::empty()).unwrap().is_empty());
    }
}
