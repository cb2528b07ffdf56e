//! On-disk record formats used by the external-memory algorithms.

use maxrs_em::{codec, Record};
use maxrs_geometry::{Interval, Point, Rect, WeightedPoint};

/// A dataset object stored in an EM file: location plus weight (24 bytes, so
/// a 4 KB block holds 170 objects, matching the `B` of the paper's setup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectRecord(pub WeightedPoint);

impl ObjectRecord {
    /// Creates an object record.
    pub fn new(x: f64, y: f64, weight: f64) -> Self {
        ObjectRecord(WeightedPoint::at(x, y, weight))
    }

    /// The wrapped weighted point.
    pub fn object(&self) -> WeightedPoint {
        self.0
    }
}

impl From<WeightedPoint> for ObjectRecord {
    fn from(o: WeightedPoint) -> Self {
        ObjectRecord(o)
    }
}

impl Record for ObjectRecord {
    const SIZE: usize = 24;

    fn encode(&self, buf: &mut [u8]) {
        codec::put_f64(buf, 0, self.0.point.x);
        codec::put_f64(buf, 8, self.0.point.y);
        codec::put_f64(buf, 16, self.0.weight);
    }

    /// Restores the encoded fields as they are (see [`RectRecord`]'s
    /// decode): no `WeightedPoint::new` debug checks on foreign bytes.
    fn decode(buf: &[u8]) -> Self {
        ObjectRecord(WeightedPoint {
            point: Point::new(codec::get_f64(buf, 0), codec::get_f64(buf, 8)),
            weight: codec::get_f64(buf, 16),
        })
    }
}

/// A weighted rectangle: the transformed representation of an object (`r_o` in
/// the paper), or a piece of one produced by slab cropping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectRecord {
    /// Geometric extent of the rectangle.
    pub rect: Rect,
    /// Weight carried by the rectangle (the original object's weight).
    pub weight: f64,
}

impl RectRecord {
    /// Creates a weighted rectangle record.
    pub fn new(rect: Rect, weight: f64) -> Self {
        RectRecord { rect, weight }
    }

    /// Center x-coordinate — the sort key of the distribution sweep.
    pub fn center_x(&self) -> f64 {
        (self.rect.x_lo + self.rect.x_hi) / 2.0
    }
}

impl Record for RectRecord {
    const SIZE: usize = 40;

    fn encode(&self, buf: &mut [u8]) {
        codec::put_f64(buf, 0, self.rect.x_lo);
        codec::put_f64(buf, 8, self.rect.x_hi);
        codec::put_f64(buf, 16, self.rect.y_lo);
        codec::put_f64(buf, 24, self.rect.y_hi);
        codec::put_f64(buf, 32, self.weight);
    }

    /// Restores the encoded fields as they are, without `Rect::new`'s
    /// debug checks: bytes from outside the process (the cluster wire) are
    /// validated by their decoder, which reports a typed error instead.
    fn decode(buf: &[u8]) -> Self {
        RectRecord {
            rect: Rect {
                x_lo: codec::get_f64(buf, 0),
                x_hi: codec::get_f64(buf, 8),
                y_lo: codec::get_f64(buf, 16),
                y_hi: codec::get_f64(buf, 24),
            },
            weight: codec::get_f64(buf, 32),
        }
    }
}

/// One tuple `⟨y, [x1, x2], sum⟩` of a slab-file: on any horizontal line with
/// a y-coordinate strictly between this tuple's `y` and the next tuple's `y`,
/// `[x1, x2]` is a max-interval of the slab and `sum` is its location-weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlabTuple {
    /// y-coordinate of the h-line defining the tuple.
    pub y: f64,
    /// Lower x bound of the max-interval (may be `-∞`).
    pub x_lo: f64,
    /// Upper x bound of the max-interval (may be `+∞`).
    pub x_hi: f64,
    /// Location-weight of every point of the max-interval.
    pub sum: f64,
}

impl SlabTuple {
    /// Creates a slab tuple.
    pub fn new(y: f64, x_lo: f64, x_hi: f64, sum: f64) -> Self {
        SlabTuple { y, x_lo, x_hi, sum }
    }

    /// The max-interval as an [`Interval`].
    pub fn interval(&self) -> Interval {
        Interval::new(self.x_lo, self.x_hi)
    }
}

impl Record for SlabTuple {
    const SIZE: usize = 32;

    fn encode(&self, buf: &mut [u8]) {
        codec::put_f64(buf, 0, self.y);
        codec::put_f64(buf, 8, self.x_lo);
        codec::put_f64(buf, 16, self.x_hi);
        codec::put_f64(buf, 24, self.sum);
    }

    fn decode(buf: &[u8]) -> Self {
        SlabTuple {
            y: codec::get_f64(buf, 0),
            x_lo: codec::get_f64(buf, 8),
            x_hi: codec::get_f64(buf, 16),
            sum: codec::get_f64(buf, 24),
        }
    }
}

/// A sweep event produced by a *spanning* rectangle: at `y` the rectangle
/// starts (or stops) covering every slab with index in `[slab_lo, slab_hi]`.
///
/// The spanning rectangles of a recursion node are stored as two such events
/// each, sorted by `y`, so that MergeSweep can consume them in sweep order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// y-coordinate of the event.
    pub y: f64,
    /// Weight of the spanning rectangle.
    pub weight: f64,
    /// First slab index (inclusive) fully spanned.
    pub slab_lo: u32,
    /// Last slab index (inclusive) fully spanned.
    pub slab_hi: u32,
    /// `true` for the bottom edge (weight is added), `false` for the top edge
    /// (weight is removed).
    pub is_start: bool,
}

impl SpanEvent {
    /// Creates the pair of events for a rectangle of the given weight spanning
    /// slabs `[slab_lo, slab_hi]` between `y_lo` and `y_hi`.
    pub fn pair(y_lo: f64, y_hi: f64, weight: f64, slab_lo: u32, slab_hi: u32) -> [SpanEvent; 2] {
        [
            SpanEvent {
                y: y_lo,
                weight,
                slab_lo,
                slab_hi,
                is_start: true,
            },
            SpanEvent {
                y: y_hi,
                weight,
                slab_lo,
                slab_hi,
                is_start: false,
            },
        ]
    }

    /// The signed weight contribution of this event.
    pub fn delta(&self) -> f64 {
        if self.is_start {
            self.weight
        } else {
            -self.weight
        }
    }
}

impl Record for SpanEvent {
    const SIZE: usize = 28;

    fn encode(&self, buf: &mut [u8]) {
        codec::put_f64(buf, 0, self.y);
        codec::put_f64(buf, 8, self.weight);
        codec::put_u32(buf, 16, self.slab_lo);
        codec::put_u32(buf, 20, self.slab_hi);
        codec::put_u32(buf, 24, u32::from(self.is_start));
    }

    fn decode(buf: &[u8]) -> Self {
        SpanEvent {
            y: codec::get_f64(buf, 0),
            weight: codec::get_f64(buf, 8),
            slab_lo: codec::get_u32(buf, 16),
            slab_hi: codec::get_u32(buf, 20),
            is_start: codec::get_u32(buf, 24) != 0,
        }
    }
}

/// Converts a slice of weighted points into object records.
pub fn to_object_records(objects: &[WeightedPoint]) -> Vec<ObjectRecord> {
    objects.iter().copied().map(ObjectRecord).collect()
}

/// Converts object records back into weighted points.
pub fn to_weighted_points(records: &[ObjectRecord]) -> Vec<WeightedPoint> {
    records.iter().map(|r| r.0).collect()
}

/// Convenience: a point-like accessor used by the sweep code.
pub fn record_point(r: &ObjectRecord) -> Point {
    r.0.point
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_geometry::RectSize;

    fn roundtrip<T: Record + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = vec![0u8; T::SIZE];
        v.encode(&mut buf);
        assert_eq!(T::decode(&buf), v);
    }

    #[test]
    fn object_record_roundtrip() {
        roundtrip(ObjectRecord::new(1.5, -2.5, 3.0));
        roundtrip(ObjectRecord::new(0.0, 0.0, 0.0));
        let o = WeightedPoint::at(7.0, 8.0, 9.0);
        let r: ObjectRecord = o.into();
        assert_eq!(r.object(), o);
        assert_eq!(record_point(&r), Point::new(7.0, 8.0));
    }

    #[test]
    fn rect_record_roundtrip_and_center() {
        let rect = WeightedPoint::at(10.0, 20.0, 2.0).to_rect(RectSize::new(4.0, 6.0));
        let rr = RectRecord::new(rect, 2.0);
        roundtrip(rr);
        assert_eq!(rr.center_x(), 10.0);
    }

    #[test]
    fn slab_tuple_roundtrip_with_infinities() {
        roundtrip(SlabTuple::new(5.0, f64::NEG_INFINITY, 3.0, 2.0));
        roundtrip(SlabTuple::new(f64::NEG_INFINITY, -1.0, 1.0, 0.0));
        let t = SlabTuple::new(0.0, 1.0, 4.0, 7.0);
        assert_eq!(t.interval(), Interval::new(1.0, 4.0));
    }

    #[test]
    fn span_event_roundtrip_and_delta() {
        let [start, end] = SpanEvent::pair(1.0, 5.0, 2.5, 3, 7);
        roundtrip(start);
        roundtrip(end);
        assert_eq!(start.delta(), 2.5);
        assert_eq!(end.delta(), -2.5);
        assert_eq!(start.slab_lo, 3);
        assert_eq!(end.slab_hi, 7);
        assert!(start.is_start);
        assert!(!end.is_start);
    }

    #[test]
    fn record_conversions() {
        let objects = vec![
            WeightedPoint::at(1.0, 2.0, 3.0),
            WeightedPoint::at(4.0, 5.0, 6.0),
        ];
        let recs = to_object_records(&objects);
        assert_eq!(recs.len(), 2);
        assert_eq!(to_weighted_points(&recs), objects);
    }
}
