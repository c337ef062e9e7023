//! Cell-list spatial partitioning for neighbor search.
//!
//! Two consumers, two structures:
//!
//! - [`CellList`] divides the periodic box into cells at least one cutoff
//!   wide, so all interactions within the cutoff lie in the 27 surrounding
//!   cells. The force kernel walks it per particle; its floating-point force
//!   sums depend on that visit order, so the structure stays as it is.
//! - [`neighbor_counts`] only counts, so it is free to reorder. It bins
//!   particles into finer cells (about a quarter cutoff wide), sorts them by
//!   cell into contiguous coordinate arrays, and visits each unordered pair
//!   once (a half shell of cell offsets, pruned to those that can hold a pair
//!   within the cutoff). At the paper's parameters that is ~4.8e7 distance
//!   checks instead of the 2.7e8 the 27-cell walk does when the cutoff is a
//!   third of the box. The counts are bit-exact with a brute-force scan;
//!   DESIGN.md §19 gives the argument.

use std::ops::Range;

use crate::md::system::{min_image, Vec3};

/// A cell list over a set of positions in a periodic cubic box.
#[derive(Debug, Clone)]
pub struct CellList {
    cells: Vec<Vec<u32>>,
    n_side: usize,
    box_len: f64,
}

impl CellList {
    /// Build a cell list with cells at least `cutoff` wide.
    ///
    /// Panics if the cutoff is not in `(0, box_len]` or positions are empty.
    pub fn build(positions: &[Vec3], box_len: f64, cutoff: f64) -> Self {
        assert!(
            !positions.is_empty(),
            "cell list needs at least one particle"
        );
        assert!(
            cutoff > 0.0 && cutoff <= box_len,
            "cutoff must be in (0, box_len], got {cutoff} for box {box_len}"
        );
        let n_side = ((box_len / cutoff).floor() as usize).max(1);
        let mut cells = vec![Vec::new(); n_side * n_side * n_side];
        for (i, p) in positions.iter().enumerate() {
            cells[Self::cell_index_of(p, box_len, n_side)].push(i as u32);
        }
        Self {
            cells,
            n_side,
            box_len,
        }
    }

    fn cell_index_of(p: &Vec3, box_len: f64, n_side: usize) -> usize {
        let coord = |v: f64| -> usize {
            let c = (v.rem_euclid(box_len) / box_len * n_side as f64) as usize;
            c.min(n_side - 1)
        };
        (coord(p.x) * n_side + coord(p.y)) * n_side + coord(p.z)
    }

    /// Cells per box edge.
    pub fn cells_per_side(&self) -> usize {
        self.n_side
    }

    /// Visit every particle index in the 27-cell neighborhood of particle
    /// `i`'s cell (including `i` itself; callers skip it).
    pub fn for_each_candidate<F: FnMut(u32)>(&self, p: &Vec3, mut f: F) {
        let n = self.n_side as isize;
        let coord = |v: f64| -> isize {
            let c = (v.rem_euclid(self.box_len) / self.box_len * self.n_side as f64) as isize;
            c.min(n - 1)
        };
        let (cx, cy, cz) = (coord(p.x), coord(p.y), coord(p.z));
        // With fewer than 3 cells per side, offsets alias the same cell; visit
        // each distinct cell once.
        let span: Vec<isize> = if n >= 3 {
            vec![-1, 0, 1]
        } else {
            (0..n).collect()
        };
        for &dx in &span {
            for &dy in &span {
                for &dz in &span {
                    let (x, y, z) = if n >= 3 {
                        (
                            (cx + dx).rem_euclid(n),
                            (cy + dy).rem_euclid(n),
                            (cz + dz).rem_euclid(n),
                        )
                    } else {
                        (dx, dy, dz)
                    };
                    let idx = ((x * n + y) * n + z) as usize;
                    for &j in &self.cells[idx] {
                        f(j);
                    }
                }
            }
        }
    }
}

/// Relative margin on `cutoff²` below which a cell offset is never pruned. It
/// absorbs the rounding of cell indices at cell boundaries (a few ulps of the
/// box), so pruning can only drop pairs whose computed distance is at least
/// the cutoff.
const PRUNE_MARGIN: f64 = 1e-6;

/// Exact near-neighbor count for each particle: how many others lie within
/// `cutoff` (minimum-image metric). This is the data-dependent quantity the MD
/// hardware kernel's cycle count hinges on.
///
/// Equal, element for element, to counting `j != i` with
/// `min_image_vec(p_i - p_j, box_len).norm2() < cutoff²` over all pairs.
///
/// Panics if the cutoff is not in `(0, box_len]` or positions are empty.
pub fn neighbor_counts(positions: &[Vec3], box_len: f64, cutoff: f64) -> Vec<u32> {
    assert!(
        !positions.is_empty(),
        "cell list needs at least one particle"
    );
    assert!(
        cutoff > 0.0 && cutoff <= box_len,
        "cutoff must be in (0, box_len], got {cutoff} for box {box_len}"
    );
    let n = positions.len();
    let shell = HalfShell::new(n, box_len, cutoff);
    let m = shell.m;

    // Counting sort of particle indices by cell, then the coordinates in that
    // order: every cell, and every run of cells along z, is a contiguous slice.
    let coord = |v: f64| ((v.rem_euclid(box_len) / box_len * m as f64) as usize).min(m - 1);
    let cell_of: Vec<u32> = positions
        .iter()
        .map(|p| ((coord(p.x) * m + coord(p.y)) * m + coord(p.z)) as u32)
        .collect();
    let mut start = vec![0u32; m * m * m + 1];
    for &c in &cell_of {
        start[c as usize + 1] += 1;
    }
    for c in 0..m * m * m {
        start[c + 1] += start[c];
    }
    let mut fill = start.clone();
    let mut order = vec![0u32; n];
    for (i, &c) in cell_of.iter().enumerate() {
        order[fill[c as usize] as usize] = i as u32;
        fill[c as usize] += 1;
    }
    let xs: Vec<f64> = order.iter().map(|&i| positions[i as usize].x).collect();
    let ys: Vec<f64> = order.iter().map(|&i| positions[i as usize].y).collect();
    let zs: Vec<f64> = order.iter().map(|&i| positions[i as usize].z).collect();

    let c2 = cutoff * cutoff;
    let mut counts = vec![0u32; n];
    // First particle of cell `z` in the z-row whose first cell is `row`, and
    // one past its last.
    let first = |row: usize, z: usize| start[row + z] as usize;
    let end = |row: usize, z: usize| start[row + z + 1] as usize;
    let mut windows: Vec<Range<usize>> = Vec::with_capacity(2 * shell.rows.len() + 1);
    for cx in 0..m {
        for cy in 0..m {
            let own = (cx * m + cy) * m;
            for cz in 0..m {
                // Each particle pairs with the later particles of its own cell
                // and the cells up to `rz0` above it (`a + 1..own_end`, plus
                // the wrapped part in `windows`), then with every stencil row's
                // z-window of `2rz + 1` cells, split in two where it wraps.
                windows.clear();
                let hi = cz + shell.rz0;
                let own_end = if hi < m {
                    end(own, hi)
                } else {
                    windows.push(first(own, 0)..end(own, hi - m));
                    end(own, m - 1)
                };
                for &(ox, oy, rz) in &shell.rows {
                    let row = ((cx + ox) % m * m + (cy + oy) % m) * m;
                    let (lo, hi) = ((cz + m - rz) % m, (cz + rz) % m);
                    if lo <= hi {
                        windows.push(first(row, lo)..end(row, hi));
                    } else {
                        windows.push(first(row, lo)..end(row, m - 1));
                        windows.push(first(row, 0)..end(row, hi));
                    }
                }
                for a in first(own, cz)..end(own, cz) {
                    let p = (xs[a], ys[a], zs[a]);
                    let mut acc = 0u32;
                    for w in std::iter::once(a + 1..own_end).chain(windows.iter().cloned()) {
                        acc += count_run(
                            p,
                            &xs[w.clone()],
                            &ys[w.clone()],
                            &zs[w.clone()],
                            &mut counts[w],
                            box_len,
                            c2,
                        );
                    }
                    counts[a] += acc;
                }
            }
        }
    }

    // The cell indices are spent; their buffer takes the counts back to
    // input order.
    let mut out = cell_of;
    for (a, &i) in order.iter().enumerate() {
        out[i as usize] = counts[a];
    }
    out
}

/// Count the hits of one particle against a contiguous run of particles,
/// adding each hit to the run's counts as well. The distance arithmetic is the
/// brute-force one: `min_image` per component, then `dx² + dy² + dz²` left to
/// right, then `< c2`.
#[inline(always)]
fn count_run(
    p: (f64, f64, f64),
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    counts: &mut [u32],
    box_len: f64,
    c2: f64,
) -> u32 {
    let mut acc = 0u32;
    for (((&x, &y), &z), count) in xs.iter().zip(ys).zip(zs).zip(counts.iter_mut()) {
        let dx = min_image(p.0 - x, box_len);
        let dy = min_image(p.1 - y, box_len);
        let dz = min_image(p.2 - z, box_len);
        let hit = (dx * dx + dy * dy + dz * dz < c2) as u32;
        acc += hit;
        *count += hit;
    }
    acc
}

/// The cell grid and half-shell stencil [`neighbor_counts`] walks.
#[derive(Debug)]
struct HalfShell {
    /// Cells per box edge.
    m: usize,
    /// Reach along z of the own row: offsets `(0, 0, oz)` for `oz in 1..=rz0`.
    rz0: usize,
    /// The other stencil rows `(ox, oy, rz)`: cell offsets `(ox, oy, oz)` for
    /// `|oz| <= rz`, with `(ox, oy)` lexicographically above `(0, 0)`. Offsets
    /// are kept in `0..m` form (`-1` is `m - 1`).
    rows: Vec<(usize, usize, usize)>,
}

impl HalfShell {
    /// Pick the grid by a fixed rule: cells about `cutoff / 4` wide, at most
    /// `⌊∛n⌋` per side, shrunk until the stencil reach `r` satisfies
    /// `m >= 2r + 1` (no offset aliases another mod `m`); otherwise one cell,
    /// which is the all-pairs scan.
    fn new(n: usize, box_len: f64, cutoff: f64) -> Self {
        let thresh = cutoff * cutoff * (1.0 + PRUNE_MARGIN);
        let target = (4.0 * box_len / cutoff) as usize;
        let top = target.min(icbrt(n)).max(1);
        for m in (2..=top).rev() {
            let width = box_len / m as f64;
            // Minimum gap along one axis between cells `|o|` apart.
            let gap2 = |o: usize| {
                let g = o.saturating_sub(1) as f64 * width;
                g * g
            };
            // Largest offset along one axis whose gap is not pruned.
            let mut r = 1;
            while gap2(r + 1) < thresh {
                r += 1;
            }
            if m < 2 * r + 1 {
                continue;
            }
            let mut rows = Vec::new();
            let r = r as isize;
            for ox in 0..=r {
                // Half shell: rows lexicographically above (0, 0).
                for oy in if ox == 0 { 1 } else { -r }..=r {
                    let gxy = gap2(ox.unsigned_abs()) + gap2(oy.unsigned_abs());
                    // `oz = 0` adds no gap, so a row that passes keeps it.
                    if gxy >= thresh {
                        continue;
                    }
                    let rz = (0..=r as usize)
                        .rev()
                        .find(|&oz| gxy + gap2(oz) < thresh)
                        .expect("oz = 0 adds no gap");
                    let wrap = |o: isize| o.rem_euclid(m as isize) as usize;
                    rows.push((wrap(ox), wrap(oy), rz));
                }
            }
            return Self {
                m,
                rz0: r as usize,
                rows,
            };
        }
        Self {
            m: 1,
            rz0: 0,
            rows: Vec::new(),
        }
    }
}

/// `⌊∛n⌋`, exactly.
fn icbrt(n: usize) -> usize {
    let mut k = (n as f64).cbrt() as usize;
    while (k + 1).pow(3) <= n {
        k += 1;
    }
    while k.pow(3) > n {
        k -= 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::system::min_image_vec;

    /// Brute-force reference count.
    fn brute_counts(positions: &[Vec3], box_len: f64, cutoff: f64) -> Vec<u32> {
        let c2 = cutoff * cutoff;
        positions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                positions
                    .iter()
                    .enumerate()
                    .filter(|&(j, q)| j != i && min_image_vec(*p - *q, box_len).norm2() < c2)
                    .count() as u32
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_small_cutoff() {
        let s = crate::md::system::System::random(400, 1.0, 101);
        let cl = neighbor_counts(&s.positions, 1.0, 0.12);
        let bf = brute_counts(&s.positions, 1.0, 0.12);
        assert_eq!(cl, bf);
    }

    #[test]
    fn matches_brute_force_paper_cutoff() {
        // Cutoff one third of the box: `CellList` would use only 3 cells per
        // side; the counting grid uses 6 (capped by the cube root of n).
        let s = crate::md::system::System::random(300, 1.0, 102);
        let cl = neighbor_counts(&s.positions, 1.0, 0.329);
        let bf = brute_counts(&s.positions, 1.0, 0.329);
        assert_eq!(cl, bf);
    }

    #[test]
    fn matches_brute_force_huge_cutoff() {
        // Cutoff over half the box collapses to one or two cells per side.
        let s = crate::md::system::System::random(150, 1.0, 103);
        let cl = neighbor_counts(&s.positions, 1.0, 0.8);
        let bf = brute_counts(&s.positions, 1.0, 0.8);
        assert_eq!(cl, bf);
    }

    #[test]
    fn mean_count_tracks_cutoff_volume() {
        // For uniform density, mean near count ~ (N-1) * (4/3) pi r^3 / V.
        let n = 4000;
        let s = crate::md::system::System::random(n, 1.0, 104);
        let counts = neighbor_counts(&s.positions, 1.0, 0.2);
        let mean: f64 = counts.iter().map(|&c| c as f64).sum::<f64>() / n as f64;
        let expect = (n - 1) as f64 * (4.0 / 3.0) * std::f64::consts::PI * 0.2f64.powi(3);
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean:.1} vs expectation {expect:.1}"
        );
    }

    #[test]
    fn two_particles_across_the_boundary_see_each_other() {
        let positions = vec![Vec3::new(0.02, 0.5, 0.5), Vec3::new(0.98, 0.5, 0.5)];
        let counts = neighbor_counts(&positions, 1.0, 0.1);
        assert_eq!(counts, vec![1, 1]);
    }

    #[test]
    fn cells_per_side_scales_inverse_to_cutoff() {
        let s = crate::md::system::System::random(100, 1.0, 105);
        assert_eq!(CellList::build(&s.positions, 1.0, 0.1).cells_per_side(), 10);
        assert_eq!(
            CellList::build(&s.positions, 1.0, 0.329).cells_per_side(),
            3
        );
        assert_eq!(CellList::build(&s.positions, 1.0, 0.9).cells_per_side(), 1);
    }

    #[test]
    fn half_shell_grid_follows_the_fixed_rule() {
        // Paper scale: cells a quarter cutoff wide, 12 per side, reach 4.
        let paper = HalfShell::new(16_384, 1.0, 0.329);
        assert_eq!((paper.m, paper.rz0), (12, 4));
        // Capped at the cube root of n.
        assert_eq!(HalfShell::new(100, 1.0, 0.1).m, 4);
        assert_eq!(HalfShell::new(300, 1.0, 0.329).m, 6);
        // Too coarse for 2r + 1 distinct cells: one cell, all pairs.
        let all = HalfShell::new(10_000, 1.0, 0.8);
        assert_eq!((all.m, all.rz0, all.rows.len()), (1, 0, 0));
        // Scale-free in the box edge.
        assert_eq!(HalfShell::new(16_384, 2.5, 0.329 * 2.5).m, 12);
    }

    #[test]
    fn integer_cube_root_is_exact() {
        for (n, k) in [
            (1, 1),
            (7, 1),
            (8, 2),
            (26, 2),
            (27, 3),
            (15_624, 24),
            (15_625, 25),
            (16_384, 25),
        ] {
            assert_eq!(icbrt(n), k, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn oversized_cutoff_panics() {
        let s = crate::md::system::System::random(10, 1.0, 106);
        CellList::build(&s.positions, 1.0, 1.5);
    }
}
