//! The SOR grid computation (§4.2.3): weighted-Jacobi over-relaxation on a
//! discrete Laplace problem.
//!
//! The update is Jacobi-style (reads the previous iteration, writes a new
//! buffer) so the arithmetic is bit-identical regardless of how rows are
//! partitioned across nodes — which is what lets the tests assert that
//! every system variant and every node count computes the same grid.

/// Relaxation factor.
pub const OMEGA: f64 = 1.2;

/// One row-block of the grid, plus ghost rows above/below.
#[derive(Debug, Clone)]
pub struct Slab {
    /// Global index of the first owned row.
    pub row0: usize,
    /// Owned rows (each `cols` wide), previous iteration.
    pub cur: Vec<Vec<f64>>,
    /// Owned rows, next iteration (written during the sweep).
    pub nxt: Vec<Vec<f64>>,
    /// Ghost row above (`None` for the global top block).
    pub above: Option<Vec<f64>>,
    /// Ghost row below (`None` for the global bottom block).
    pub below: Option<Vec<f64>>,
    /// Total grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
}

/// Initial condition: the global top boundary row is 100.0, everything
/// else 0.0; all four grid edges stay fixed.
pub fn initial_row(global_row: usize, cols: usize) -> Vec<f64> {
    if global_row == 0 {
        vec![100.0; cols]
    } else {
        vec![0.0; cols]
    }
}

/// Row range `[start, end)` owned by node `i` of `p` for `rows` rows.
pub fn partition(rows: usize, p: usize, i: usize) -> (usize, usize) {
    let base = rows / p;
    let extra = rows % p;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    (start, start + len)
}

impl Slab {
    /// Build node `i`'s slab of an `rows × cols` grid split over `p` nodes.
    pub fn new(rows: usize, cols: usize, p: usize, i: usize) -> Self {
        let (r0, r1) = partition(rows, p, i);
        let cur: Vec<Vec<f64>> = (r0..r1).map(|r| initial_row(r, cols)).collect();
        let nxt = cur.clone();
        Slab { row0: r0, cur, nxt, above: None, below: None, rows, cols }
    }

    /// Number of owned rows.
    pub fn height(&self) -> usize {
        self.cur.len()
    }

    /// Is global row `r` (owned) a fixed boundary row?
    fn is_boundary_row(&self, local: usize) -> bool {
        self.row0 + local == 0 || self.row0 + local == self.rows - 1
    }

    /// The neighbour row above local row `l` (owned or ghost).
    fn row_above(&self, l: usize) -> &[f64] {
        if l == 0 {
            self.above.as_deref().expect("ghost above required")
        } else {
            &self.cur[l - 1]
        }
    }

    fn row_below(&self, l: usize) -> &[f64] {
        if l + 1 == self.height() {
            self.below.as_deref().expect("ghost below required")
        } else {
            &self.cur[l + 1]
        }
    }

    /// Sweep one local row into `nxt`; returns (points updated, max |Δ|).
    pub fn sweep_row(&mut self, l: usize) -> (usize, f64) {
        if self.is_boundary_row(l) {
            self.nxt[l].copy_from_slice(&self.cur[l]);
            return (0, 0.0);
        }
        let cols = self.cols;
        let mut updated = 0;
        let mut maxd = 0.0f64;
        // Lift the output row out so the stencil rows can be read in place.
        let mut nxt = std::mem::take(&mut self.nxt[l]);
        let (up, down, cur) = (self.row_above(l), self.row_below(l), &self.cur[l]);
        nxt[0] = cur[0];
        nxt[cols - 1] = cur[cols - 1];
        for c in 1..cols - 1 {
            let avg = (up[c] + down[c] + cur[c - 1] + cur[c + 1]) / 4.0;
            let v = cur[c] + OMEGA * (avg - cur[c]);
            let d = (v - cur[c]).abs();
            if d > maxd {
                maxd = d;
            }
            nxt[c] = v;
            updated += 1;
        }
        self.nxt[l] = nxt;
        (updated, maxd)
    }

    /// Does a neighbour slab exist above (⇒ local row 0 needs a ghost)?
    pub fn has_up_neighbour(&self) -> bool {
        self.row0 > 0
    }

    /// Does a neighbour slab exist below?
    pub fn has_down_neighbour(&self) -> bool {
        self.row0 + self.height() < self.rows
    }

    /// Interior local rows: those not needing any ghost row.
    pub fn interior_rows(&self) -> std::ops::Range<usize> {
        let lo = usize::from(self.has_up_neighbour());
        let hi = self.height() - usize::from(self.has_down_neighbour() && self.height() > lo);
        lo..hi
    }

    /// Edge local rows (need ghosts), in order.
    pub fn edge_rows(&self) -> impl Iterator<Item = usize> {
        let top = self.has_up_neighbour().then_some(0);
        let bottom = (self.has_down_neighbour() && self.height() > 1).then(|| self.height() - 1);
        top.into_iter().chain(bottom)
    }

    /// The owned edge row to send to the neighbour above (`top`) or below,
    /// copied into the ghost row on that side. Last iteration's sweep was
    /// that ghost's last reader and the neighbour sends a fresh one, so
    /// its storage carries the send instead of a new vector.
    pub fn outgoing_edge(&mut self, top: bool) -> Vec<f64> {
        let l = if top { 0 } else { self.height() - 1 };
        let ghost = if top { &mut self.above } else { &mut self.below };
        let mut row = ghost.take().unwrap_or_default();
        row.clear();
        row.extend_from_slice(&self.cur[l]);
        row
    }

    /// Flip buffers after a full sweep.
    pub fn advance(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.nxt);
    }

    /// Order-independent checksum of the owned rows: wrapping sum of the
    /// IEEE bit patterns (bit-identical values ⇒ identical sums no matter
    /// how the grid is partitioned).
    pub fn checksum(&self) -> u64 {
        let mut acc = 0u64;
        for row in &self.cur {
            for v in row {
                acc = acc.wrapping_add(v.to_bits());
            }
        }
        acc
    }
}

/// Sequential reference: run `iters` sweeps on a single slab covering the
/// whole grid. Returns the checksum.
pub fn reference_checksum(rows: usize, cols: usize, iters: usize) -> u64 {
    let mut slab = Slab::new(rows, cols, 1, 0);
    for _ in 0..iters {
        for l in 0..slab.height() {
            slab.sweep_row(l);
        }
        slab.advance();
    }
    slab.checksum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_rows_without_overlap() {
        for (rows, p) in [(482usize, 7usize), (10, 3), (16, 16), (5, 5)] {
            let mut covered = vec![false; rows];
            for i in 0..p {
                let (a, b) = partition(rows, p, i);
                for (r, c) in covered.iter_mut().enumerate().take(b).skip(a) {
                    assert!(!*c, "row {r} covered twice");
                    *c = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "rows={rows} p={p}");
        }
    }

    #[test]
    fn heat_diffuses_down_from_the_top_row() {
        let mut slab = Slab::new(8, 8, 1, 0);
        for _ in 0..20 {
            for l in 0..slab.height() {
                slab.sweep_row(l);
            }
            slab.advance();
        }
        assert_eq!(slab.cur[0][3], 100.0, "boundary stays fixed");
        assert!(slab.cur[1][3] > 10.0, "row 1 warmed up: {}", slab.cur[1][3]);
        assert!(slab.cur[1][3] > slab.cur[4][3], "monotone-ish gradient");
        assert_eq!(slab.cur[7][3], 0.0, "bottom boundary fixed");
    }

    #[test]
    fn split_computation_matches_single_slab_exactly() {
        // Two iterations on one slab vs. two slabs exchanging ghosts.
        let rows = 10;
        let cols = 6;
        let whole = {
            let mut s = Slab::new(rows, cols, 1, 0);
            for _ in 0..2 {
                for l in 0..s.height() {
                    s.sweep_row(l);
                }
                s.advance();
            }
            s.checksum()
        };
        let split = {
            let mut a = Slab::new(rows, cols, 2, 0);
            let mut b = Slab::new(rows, cols, 2, 1);
            for _ in 0..2 {
                a.below = Some(b.cur[0].clone());
                b.above = Some(a.cur[a.height() - 1].clone());
                for l in 0..a.height() {
                    a.sweep_row(l);
                }
                for l in 0..b.height() {
                    b.sweep_row(l);
                }
                a.advance();
                b.advance();
            }
            a.checksum().wrapping_add(b.checksum())
        };
        assert_eq!(whole, split);
    }

    #[test]
    fn interior_and_edge_rows_partition_the_slab() {
        let mut s = Slab::new(12, 4, 3, 1);
        s.above = Some(vec![0.0; 4]);
        s.below = Some(vec![0.0; 4]);
        let interior: Vec<usize> = s.interior_rows().collect();
        let edges: Vec<usize> = s.edge_rows().collect();
        let mut all: Vec<usize> = interior.iter().chain(edges.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..s.height()).collect::<Vec<_>>());
    }

    #[test]
    fn reference_checksum_is_stable() {
        assert_eq!(reference_checksum(12, 8, 5), reference_checksum(12, 8, 5));
        assert_ne!(reference_checksum(12, 8, 5), reference_checksum(12, 8, 6));
    }
}
