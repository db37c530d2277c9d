//! A small flat bounding-volume hierarchy over axis-aligned rectangles.
//!
//! The engine router's per-shard interest index and the shard workers'
//! dispatch index store resident subscription scope rectangles and
//! answer "which scopes cover this point?" once or twice per routed
//! instance. A linear scan is fine for a handful of scopes; past a few
//! dozen the scan dominates routing. This BVH turns the scan into an
//! `O(log n)`-ish descent.
//!
//! Design constraints, in order:
//!
//! * **conservative** — a query returns every rectangle containing the
//!   point (callers run an exact-geometry check on the candidates, so
//!   false positives only cost time, never correctness);
//! * **allocation-free queries** — nodes and items live in two flat
//!   arrays (each leaf is a range of the permuted item array), and the
//!   descent keeps its pending nodes in a fixed inline stack, so a
//!   query touches the heap only when the caller's output buffer grows;
//! * **build-only** — the tree is bulk-built by a top-down median split
//!   on the longest axis of the centroid spread (a few microseconds for
//!   hundreds of rects). Owners that register rectangles one at a time
//!   mark the index dirty and rebuild it once, at the next query, which
//!   keeps the tree as tight as a bulk build: an incrementally grown
//!   tree visited about three times as many nodes per point query.

use crate::{Point, Rect};

/// Rectangles per leaf.
const LEAF_SIZE: usize = 4;

/// One node of the flat hierarchy, in depth-first order: an internal
/// node's left child is the next node, its right child is `start`.
#[derive(Debug, Clone, Copy)]
struct Node {
    bbox: Rect,
    /// Leaf: first entry of its item range. Internal: right child.
    start: u32,
    /// Leaf: item count (>= 1). Internal: 0.
    count: u32,
}

/// A flat BVH over rectangles, queried by point or rectangle.
///
/// Items are addressed by their index in the slice given to
/// [`Bvh::build`]; callers keep the payloads in a parallel vector.
///
/// # Example
///
/// ```
/// use stem_spatial::{Bvh, Point, Rect};
///
/// let rects = vec![
///     Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
///     Rect::new(Point::new(20.0, 20.0), Point::new(30.0, 30.0)),
/// ];
/// let bvh = Bvh::build(&rects);
/// let mut hits = Vec::new();
/// bvh.query_point(Point::new(5.0, 5.0), &mut hits);
/// assert_eq!(hits, vec![0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Bvh {
    nodes: Vec<Node>,
    /// `(rect, item index)`, permuted so every leaf owns a contiguous
    /// range.
    entries: Vec<(Rect, u32)>,
    /// Nodes on the longest root-to-leaf path.
    depth: usize,
}

impl Bvh {
    /// Capacity of the inline traversal stack. A descent holds at most
    /// one pending sibling per level, and a median split halves the item
    /// count per level, so `u32`-indexed item sets stay far below it.
    const STACK_DEPTH: usize = 64;

    /// An empty hierarchy.
    #[must_use]
    pub fn new() -> Self {
        Bvh::default()
    }

    /// Builds a hierarchy over `rects` (item `i` is `rects[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `rects` holds more than `u32::MAX` rectangles.
    #[must_use]
    pub fn build(rects: &[Rect]) -> Self {
        let n = u32::try_from(rects.len()).expect("at most u32::MAX rectangles");
        let mut bvh = Bvh {
            nodes: Vec::with_capacity((2 * rects.len()).div_ceil(LEAF_SIZE)),
            entries: rects.iter().copied().zip(0..n).collect(),
            depth: 0,
        };
        if !rects.is_empty() {
            bvh.depth = bvh.build_node(0, rects.len());
        }
        assert!(bvh.depth <= Self::STACK_DEPTH, "median split depth bound");
        bvh
    }

    /// Number of indexed rectangles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the hierarchy indexes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Packs `entries[start..end]` into a subtree rooted at the next
    /// node index by median-splitting along the longest axis of the
    /// centroid spread, and returns the subtree's depth. A degenerate
    /// spread (all centroids coincident) still splits by position, so
    /// recursion always terminates and depth stays logarithmic.
    fn build_node(&mut self, start: usize, end: usize) -> usize {
        let items = &mut self.entries[start..end];
        let bbox = items[1..]
            .iter()
            .fold(items[0].0, |acc, (r, _)| acc.union(r));
        let node = self.nodes.len();
        if items.len() <= LEAF_SIZE {
            self.nodes.push(Node {
                bbox,
                start: start as u32,
                count: items.len() as u32,
            });
            return 1;
        }
        let (mut lo, mut hi) = (
            Point::new(f64::INFINITY, f64::INFINITY),
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        for (r, _) in items.iter() {
            let c = r.center();
            lo = Point::new(lo.x.min(c.x), lo.y.min(c.y));
            hi = Point::new(hi.x.max(c.x), hi.y.max(c.y));
        }
        let wide = hi.x - lo.x >= hi.y - lo.y;
        let key = |r: &Rect| if wide { r.center().x } else { r.center().y };
        let mid = items.len() / 2;
        items.select_nth_unstable_by(mid, |a, b| key(&a.0).total_cmp(&key(&b.0)));
        self.nodes.push(Node {
            bbox,
            start: 0,
            count: 0,
        });
        let left = self.build_node(start, start + mid);
        self.nodes[node].start = self.nodes.len() as u32;
        let right = self.build_node(start + mid, end);
        1 + left.max(right)
    }

    /// Appends to `out` the item index of every rectangle for which
    /// `hit` holds, descending only into nodes whose bbox passes `hit`,
    /// and returns the number of nodes visited.
    fn descend(&self, hit: impl Fn(&Rect) -> bool, out: &mut Vec<u32>) -> u64 {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut stack = [0u32; Self::STACK_DEPTH];
        let mut top = 0;
        let mut node = 0;
        let mut visited = 0u64;
        loop {
            visited += 1;
            let n = &self.nodes[node];
            if hit(&n.bbox) {
                if n.count == 0 {
                    stack[top] = n.start;
                    top += 1;
                    node += 1;
                    continue;
                }
                let leaf = &self.entries[n.start as usize..(n.start + n.count) as usize];
                out.extend(leaf.iter().filter(|(r, _)| hit(r)).map(|&(_, i)| i));
            }
            if top == 0 {
                return visited;
            }
            top -= 1;
            node = stack[top] as usize;
        }
    }

    /// Appends to `out` the item indices of every rectangle containing
    /// `p`, and returns the number of nodes visited (the traversal-cost
    /// figure surfaced by the router's metrics).
    pub fn query_point(&self, p: Point, out: &mut Vec<u32>) -> u64 {
        self.descend(|r| r.contains(p), out)
    }

    /// Appends to `out` the item indices of every rectangle
    /// intersecting `query`, and returns the number of nodes visited.
    pub fn query_rect(&self, query: &Rect, out: &mut Vec<u32>) -> u64 {
        self.descend(|r| r.intersects(query), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rect(x: f64, y: f64, w: f64, h: f64) -> Rect {
        Rect::new(Point::new(x, y), Point::new(x + w, y + h))
    }

    fn brute_point(rects: &[Rect], q: Point) -> Vec<u32> {
        (0..rects.len() as u32)
            .filter(|&i| rects[i as usize].contains(q))
            .collect()
    }

    fn brute_rect(rects: &[Rect], q: &Rect) -> Vec<u32> {
        (0..rects.len() as u32)
            .filter(|&i| rects[i as usize].intersects(q))
            .collect()
    }

    fn sorted_point(bvh: &Bvh, q: Point) -> Vec<u32> {
        let mut out = Vec::new();
        bvh.query_point(q, &mut out);
        out.sort_unstable();
        out
    }

    fn sorted_rect(bvh: &Bvh, q: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        bvh.query_rect(q, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn empty_hierarchy_answers_nothing() {
        let bvh = Bvh::new();
        let mut out = Vec::new();
        assert_eq!(bvh.query_point(Point::new(0.0, 0.0), &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(bvh.query_rect(&rect(0.0, 0.0, 1.0, 1.0), &mut out), 0);
        assert!(out.is_empty());
        assert!(bvh.is_empty());
        assert_eq!(Bvh::build(&[]).depth, 0);
    }

    #[test]
    fn point_query_returns_exactly_the_containing_rects() {
        let rects = vec![
            rect(0.0, 0.0, 10.0, 10.0),
            rect(5.0, 5.0, 10.0, 10.0),
            rect(20.0, 20.0, 5.0, 5.0),
        ];
        let bvh = Bvh::build(&rects);
        assert_eq!(sorted_point(&bvh, Point::new(7.0, 7.0)), vec![0, 1]);
        assert_eq!(sorted_point(&bvh, Point::new(21.0, 21.0)), vec![2]);
        assert!(sorted_point(&bvh, Point::new(100.0, 100.0)).is_empty());
    }

    #[test]
    fn rect_query_includes_touching_boundaries() {
        let bvh = Bvh::build(&[rect(0.0, 0.0, 10.0, 10.0)]);
        let mut out = Vec::new();
        bvh.query_rect(&rect(10.0, 0.0, 5.0, 5.0), &mut out);
        assert_eq!(out, vec![0], "touching boundaries intersect");
    }

    #[test]
    fn deep_tree_visits_fewer_nodes_than_items() {
        // A spread-out set: point queries should prune most of the tree.
        let rects: Vec<Rect> = (0..256)
            .map(|i| {
                let (gx, gy) = (i % 16, i / 16);
                rect(f64::from(gx) * 100.0, f64::from(gy) * 100.0, 10.0, 10.0)
            })
            .collect();
        let bvh = Bvh::build(&rects);
        let mut out = Vec::new();
        let visited = bvh.query_point(Point::new(5.0, 5.0), &mut out);
        assert_eq!(out, vec![0]);
        assert!(
            visited < 24,
            "a point query over 256 disjoint rects should prune hard, visited {visited}"
        );
    }

    /// The built depth is logarithmic and fits the inline traversal
    /// stack, including the degenerate all-identical set that splits by
    /// position alone.
    #[test]
    fn built_depth_fits_the_traversal_stack() {
        for n in [1usize, 4, 5, 17, 400, 10_000] {
            let spread: Vec<Rect> = (0..n)
                .map(|i| rect((i % 97) as f64, (i / 97) as f64, 2.0, 2.0))
                .collect();
            let same = vec![rect(1.0, 1.0, 3.0, 3.0); n];
            for rects in [spread, same] {
                let bvh = Bvh::build(&rects);
                let bound = 1 + n.div_ceil(LEAF_SIZE).next_power_of_two().trailing_zeros();
                assert!(bvh.depth <= bound as usize, "n={n} depth {}", bvh.depth);
                assert!(bvh.depth <= Bvh::STACK_DEPTH);
                assert_eq!(bvh.len(), n);
            }
        }
    }

    /// 10k items: identical, zero-area and collinear sets still answer
    /// exactly like brute force.
    #[test]
    fn large_degenerate_sets_match_brute_force() {
        let n = 10_000;
        let identical = vec![rect(5.0, 5.0, 1.0, 1.0); n];
        let zero_area: Vec<Rect> = (0..n)
            .map(|i| rect((i % 100) as f64, (i / 100) as f64, 0.0, 0.0))
            .collect();
        let collinear: Vec<Rect> = (0..n)
            .map(|i| rect(i as f64 * 0.5, 3.0, 1.0, 0.0))
            .collect();
        for rects in [identical, zero_area, collinear] {
            let bvh = Bvh::build(&rects);
            for q in [
                Point::new(5.5, 5.0),
                Point::new(42.0, 17.0),
                Point::new(100.0, 3.0),
                Point::new(-1.0, -1.0),
            ] {
                assert_eq!(sorted_point(&bvh, q), brute_point(&rects, q));
            }
            let window = rect(10.0, 2.0, 7.5, 4.0);
            assert_eq!(sorted_rect(&bvh, &window), brute_rect(&rects, &window));
        }
    }

    /// One random rect: ordinary, zero-area, a horizontal/vertical
    /// segment, or a snapped copy from a small pool (so duplicates and
    /// shared edges are common).
    fn any_rect() -> impl Strategy<Value = Rect> {
        prop_oneof![
            (-50.0f64..50.0, -50.0f64..50.0, 0.1f64..30.0, 0.1f64..30.0)
                .prop_map(|(x, y, w, h)| rect(x, y, w, h)),
            (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| rect(x, y, 0.0, 0.0)),
            (-50.0f64..50.0, 0.0f64..30.0).prop_map(|(x, w)| rect(x, 7.0, w, 0.0)),
            (-50.0f64..50.0, 0.0f64..30.0).prop_map(|(y, h)| rect(-3.0, y, 0.0, h)),
            (0u32..4, 0u32..4).prop_map(|(i, j)| rect(
                f64::from(i) * 10.0,
                f64::from(j) * 10.0,
                10.0,
                10.0
            )),
        ]
    }

    /// A query point, sometimes snapped onto the pool grid or the
    /// segment lines so boundary hits are exercised.
    fn any_point() -> impl Strategy<Value = Point> {
        prop_oneof![
            (-60.0f64..60.0, -60.0f64..60.0).prop_map(|(x, y)| Point::new(x, y)),
            (0u32..5, 0u32..5)
                .prop_map(|(i, j)| Point::new(f64::from(i) * 10.0, f64::from(j) * 10.0)),
            (-60.0f64..60.0).prop_map(|x| Point::new(x, 7.0)),
            (-60.0f64..60.0).prop_map(|y| Point::new(-3.0, y)),
        ]
    }

    proptest! {
        /// Point queries equal brute force over random rect sets.
        #[test]
        fn point_query_matches_brute_force(
            rects in proptest::collection::vec(any_rect(), 0..120),
            qs in proptest::collection::vec(any_point(), 1..8),
        ) {
            let bvh = Bvh::build(&rects);
            prop_assert!(bvh.depth <= Bvh::STACK_DEPTH);
            for q in qs {
                prop_assert_eq!(sorted_point(&bvh, q), brute_point(&rects, q));
            }
        }

        /// Rect queries equal brute force.
        #[test]
        fn rect_query_matches_brute_force(
            rects in proptest::collection::vec(any_rect(), 0..120),
            q in any_rect(),
        ) {
            let bvh = Bvh::build(&rects);
            prop_assert_eq!(sorted_rect(&bvh, &q), brute_rect(&rects, &q));
        }
    }
}
