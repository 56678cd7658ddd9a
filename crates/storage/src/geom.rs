//! Planar geometry shared across the workspace: points and axis-aligned
//! rectangles in *canvas space* (f64 coordinates).

/// A point on a canvas.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }
}

/// An axis-aligned rectangle. `min_*` must be `<= max_*` for a non-empty
/// rectangle; degenerate (point/line) rectangles are allowed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Rect {
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// Rectangle from a center point and full width/height.
    pub fn centered(cx: f64, cy: f64, w: f64, h: f64) -> Self {
        Rect::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
    }

    /// A degenerate rectangle at a point.
    pub fn point(x: f64, y: f64) -> Self {
        Rect::new(x, y, x, y)
    }

    /// The empty rectangle (inverted bounds); union identity.
    pub fn empty() -> Self {
        Rect::new(
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        )
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Whether every coordinate is finite (no NaN, no infinity).
    #[inline]
    pub fn is_finite(&self) -> bool {
        [self.min_x, self.min_y, self.max_x, self.max_y]
            .iter()
            .all(|v| v.is_finite())
    }

    #[inline]
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    #[inline]
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Closed-interval intersection test (touching rectangles intersect).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min_x <= other.max_x
            && self.max_x >= other.min_x
            && self.min_y <= other.max_y
            && self.max_y >= other.min_y
    }

    /// Whether `other` lies entirely inside `self`.
    #[inline]
    pub fn contains(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min_x <= other.min_x
            && self.max_x >= other.max_x
            && self.min_y <= other.min_y
            && self.max_y >= other.max_y
    }

    #[inline]
    pub fn contains_point(&self, x: f64, y: f64) -> bool {
        x >= self.min_x && x <= self.max_x && y >= self.min_y && y <= self.max_y
    }

    /// Smallest rectangle covering both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect::new(
            self.min_x.min(other.min_x),
            self.min_y.min(other.min_y),
            self.max_x.max(other.max_x),
            self.max_y.max(other.max_y),
        )
    }

    /// Overlapping region (may be empty).
    pub fn intersection(&self, other: &Rect) -> Rect {
        Rect::new(
            self.min_x.max(other.min_x),
            self.min_y.max(other.min_y),
            self.max_x.min(other.max_x),
            self.max_y.min(other.max_y),
        )
    }

    /// Area increase required for this rectangle to cover `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Grow by `fx`/`fy` fractions of width/height on each side
    /// (e.g. 0.25 each side = 50% larger overall, the paper's "dbox 50%").
    pub fn inflate_frac(&self, fx: f64, fy: f64) -> Rect {
        let dx = self.width() * fx;
        let dy = self.height() * fy;
        Rect::new(
            self.min_x - dx,
            self.min_y - dy,
            self.max_x + dx,
            self.max_y + dy,
        )
    }

    /// Translate by (dx, dy).
    pub fn translate(&self, dx: f64, dy: f64) -> Rect {
        Rect::new(
            self.min_x + dx,
            self.min_y + dy,
            self.max_x + dx,
            self.max_y + dy,
        )
    }

    /// Clamp this rectangle so it lies within `bounds`, preserving size where
    /// possible (slides the rectangle back inside; shrinks only if larger
    /// than the bounds).
    pub fn clamp_within(&self, bounds: &Rect) -> Rect {
        let w = self.width().min(bounds.width());
        let h = self.height().min(bounds.height());
        let min_x = self.min_x.clamp(bounds.min_x, bounds.max_x - w);
        let min_y = self.min_y.clamp(bounds.min_y, bounds.max_y - h);
        Rect::new(min_x, min_y, min_x + w, min_y + h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersects_and_contains() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(5.0, 5.0, 15.0, 15.0);
        let c = Rect::new(11.0, 11.0, 12.0, 12.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.contains(&Rect::new(1.0, 1.0, 9.0, 9.0)));
        assert!(!a.contains(&b));
        // touching edges intersect (closed intervals)
        assert!(a.intersects(&Rect::new(10.0, 0.0, 20.0, 10.0)));
    }

    #[test]
    fn union_intersection_area() {
        let a = Rect::new(0.0, 0.0, 4.0, 4.0);
        let b = Rect::new(2.0, 2.0, 6.0, 6.0);
        assert_eq!(a.union(&b), Rect::new(0.0, 0.0, 6.0, 6.0));
        assert_eq!(a.intersection(&b), Rect::new(2.0, 2.0, 4.0, 4.0));
        assert_eq!(a.intersection(&b).area(), 4.0);
        let disjoint = Rect::new(10.0, 10.0, 11.0, 11.0);
        assert!(a.intersection(&disjoint).is_empty());
    }

    #[test]
    fn empty_behaves_as_identity() {
        let e = Rect::empty();
        let a = Rect::new(1.0, 2.0, 3.0, 4.0);
        assert!(e.is_empty());
        assert_eq!(e.union(&a), a);
        assert!(!e.intersects(&a));
        assert!(!a.intersects(&e));
    }

    #[test]
    fn inflate_frac_is_50pct_larger() {
        let v = Rect::new(0.0, 0.0, 100.0, 100.0);
        let b = v.inflate_frac(0.25, 0.25);
        assert_eq!(b.width(), 150.0);
        assert_eq!(b.height(), 150.0);
        assert_eq!(b.center(), v.center());
    }

    #[test]
    fn clamp_within_slides_back() {
        let bounds = Rect::new(0.0, 0.0, 100.0, 100.0);
        let v = Rect::new(-10.0, 50.0, 10.0, 70.0);
        let c = v.clamp_within(&bounds);
        assert_eq!(c, Rect::new(0.0, 50.0, 20.0, 70.0));
        // larger than bounds: shrinks to bounds
        let big = Rect::new(-50.0, -50.0, 200.0, 200.0);
        assert_eq!(big.clamp_within(&bounds), bounds);
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(a.enlargement(&Rect::new(1.0, 1.0, 2.0, 2.0)), 0.0);
        assert!(a.enlargement(&Rect::new(0.0, 0.0, 20.0, 10.0)) > 0.0);
    }
}
