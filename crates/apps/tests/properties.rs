//! Property-based tests for the case-study substrates: estimator identities,
//! neighbor-search correctness, force-field physics.
//!
//! Neighbor counts are checked against a test-only all-pairs oracle at sizes
//! where the counting grid engages (many cells per side, a pruned stencil),
//! on boxes other than the unit cube, and on hand-built positions that sit on
//! cell boundaries, coincide, or lie exactly a cutoff or half a box apart.

use proptest::prelude::*;
use rat_apps::datagen;
use rat_apps::md::cell_list::neighbor_counts;
use rat_apps::md::forces::{compute_forces, total_ops, LjParams};
use rat_apps::md::system::{min_image_vec, System, Vec3};
use rat_apps::pdf::parzen::{estimate_1d, StreamingEstimator1d};
use rat_apps::pdf::{bin_centers, BANDWIDTH};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Streaming estimation is invariant to how samples are split into blocks.
    #[test]
    fn streaming_split_invariance(n in 16usize..256, split in 1usize..64, tag in 0u64..100) {
        let samples = datagen::bimodal_samples(n, tag);
        let bins: Vec<f64> = (0..32).map(|i| i as f64 / 16.0 - 1.0).collect();
        let batch = estimate_1d(&samples, &bins, BANDWIDTH);
        let mut stream = StreamingEstimator1d::new(bins, BANDWIDTH);
        for block in samples.chunks(split) {
            stream.process_block(block);
        }
        let streamed = stream.finish();
        for (a, b) in batch.iter().zip(&streamed) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// The Parzen estimate is translation-equivariant: shifting samples and
    /// evaluation points together leaves the density unchanged.
    #[test]
    fn parzen_translation_equivariance(n in 8usize..128, shift in -0.3f64..0.3, tag in 0u64..50) {
        let samples = datagen::bimodal_samples(n, tag);
        let bins: Vec<f64> = (0..16).map(|i| i as f64 / 16.0 - 0.5).collect();
        let base = estimate_1d(&samples, &bins, BANDWIDTH);
        let moved_samples: Vec<f64> = samples.iter().map(|x| x + shift).collect();
        let moved_bins: Vec<f64> = bins.iter().map(|b| b + shift).collect();
        let moved = estimate_1d(&moved_samples, &moved_bins, BANDWIDTH);
        for (a, b) in base.iter().zip(&moved) {
            prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
    }

    /// Parzen density is non-negative and bounded by the kernel peak.
    #[test]
    fn parzen_density_bounds(n in 1usize..256, tag in 0u64..50) {
        let samples = datagen::bimodal_samples(n, tag);
        let bins = bin_centers();
        let pdf = estimate_1d(&samples, &bins, BANDWIDTH);
        let peak = rat_apps::pdf::parzen::gaussian_kernel(0.0, BANDWIDTH);
        for &p in &pdf {
            prop_assert!(p >= 0.0);
            prop_assert!(p <= peak * (1.0 + 1e-12));
        }
    }

    /// Cell-list neighbor counts match brute force for arbitrary cutoffs, and
    /// their sum is even (pairs are mutual).
    #[test]
    fn neighbor_counts_match_brute_force(
        n in 20usize..150,
        cutoff in 0.05f64..0.9,
        tag in 0u64..50,
    ) {
        let s = System::random(n, 1.0, tag);
        let counts = neighbor_counts(&s.positions, 1.0, cutoff);
        let c2 = cutoff * cutoff;
        let brute: Vec<u32> = s
            .positions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                s.positions
                    .iter()
                    .enumerate()
                    .filter(|&(j, q)| j != i && min_image_vec(*p - *q, 1.0).norm2() < c2)
                    .count() as u32
            })
            .collect();
        prop_assert_eq!(&counts, &brute);
        let sum: u64 = counts.iter().map(|&c| c as u64).sum();
        prop_assert_eq!(sum % 2, 0, "mutual pairs must count twice");
    }

    /// The hardware op model is monotone in near counts and bounded between
    /// the all-distant and all-near extremes.
    #[test]
    fn op_model_bounds(counts in prop::collection::vec(0u32..500, 2..64)) {
        let n = 1000usize;
        let ops = total_ops(&counts, n);
        let all_distant = counts.len() as u64 * 3 * (n as u64 - 1);
        prop_assert!(ops >= all_distant);
        let mut more = counts.clone();
        more[0] += 1;
        prop_assert!(total_ops(&more, n) > ops);
    }

    /// Newton's third law holds for arbitrary random systems (relative to the
    /// largest force present).
    #[test]
    fn forces_cancel_for_random_systems(
        n in 10usize..120,
        cutoff in 0.1f64..0.5,
        tag in 0u64..50,
    ) {
        let s = System::random(n, 1.0, tag);
        let params = LjParams { epsilon: 1e-4, sigma: 0.04, cutoff };
        let (forces, _) = compute_forces(&s, &params);
        let net = forces.iter().fold(Vec3::ZERO, |a, &f| a + f);
        let scale = forces
            .iter()
            .map(|f| f.norm2().sqrt())
            .fold(0.0f64, f64::max)
            .max(1e-30);
        prop_assert!(net.norm2().sqrt() / scale < 1e-8, "net {net:?} vs scale {scale:.2e}");
    }

    /// Potential energy is invariant under global translation (periodic box).
    #[test]
    fn potential_translation_invariance(
        n in 10usize..80,
        shift in 0.0f64..1.0,
        tag in 0u64..50,
    ) {
        let s = System::random(n, 1.0, tag);
        let params = LjParams { epsilon: 1e-4, sigma: 0.04, cutoff: 0.3 };
        let (_, u0) = compute_forces(&s, &params);
        let mut moved = s.clone();
        for p in &mut moved.positions {
            p.x = (p.x + shift).rem_euclid(1.0);
            p.y = (p.y + shift).rem_euclid(1.0);
            p.z = (p.z + shift).rem_euclid(1.0);
        }
        let (_, u1) = compute_forces(&moved, &params);
        prop_assert!((u0 - u1).abs() <= 1e-9 * u0.abs().max(1e-12), "{u0} vs {u1}");
    }
}

/// All-pairs oracle for [`neighbor_counts`]: the definition, with no cells.
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

/// `neighbor_counts` equals the oracle, and its sum is even.
fn assert_exact(positions: &[Vec3], box_len: f64, cutoff: f64) {
    let counts = neighbor_counts(positions, box_len, cutoff);
    let oracle = brute_counts(positions, box_len, cutoff);
    if let Some(i) = (0..counts.len()).find(|&i| counts[i] != oracle[i]) {
        panic!(
            "n {} box {box_len} cutoff {cutoff}: particle {i} at {:?} counts {}, oracle {}",
            positions.len(),
            positions[i],
            counts[i],
            oracle[i]
        );
    }
    assert_eq!(counts.len(), oracle.len());
    let sum: u64 = counts.iter().map(|&c| c as u64).sum();
    assert_eq!(sum % 2, 0, "mutual pairs must count twice");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Up to ~3 000 particles, cutoffs from 1% of the box to all of it, on the
    /// unit box and on a 2.5-wide one.
    #[test]
    fn neighbor_counts_match_oracle_at_scale(
        n in 1usize..3000,
        frac in 0.01f64..=1.0,
        wide in 0u8..2,
        tag in 0u64..1000,
    ) {
        let box_len = if wide == 1 { 2.5 } else { 1.0 };
        let s = System::random(n, box_len, tag);
        let cutoff = frac * box_len;
        let counts = neighbor_counts(&s.positions, box_len, cutoff);
        prop_assert_eq!(&counts, &brute_counts(&s.positions, box_len, cutoff));
        let sum: u64 = counts.iter().map(|&c| c as u64).sum();
        prop_assert_eq!(sum % 2, 0, "mutual pairs must count twice");
    }
}

/// The range ends on purpose: a cutoff of 1% of the box (the finest grid the
/// cube-root cap allows), the paper's 0.329, and exactly `box_len`.
#[test]
fn neighbor_counts_match_oracle_across_the_cutoff_range() {
    for box_len in [1.0, 2.5] {
        let s = System::random(3000, box_len, 77);
        for frac in [0.01, 0.1, 0.329, 1.0] {
            assert_exact(&s.positions, box_len, frac * box_len);
        }
    }
}

/// Hand-built positions: a lattice on the cell boundaries `k·L/m` (from 0.0),
/// coincident points, pairs exactly one cutoff apart along each axis and across
/// the periodic wrap, the largest coordinate below `L`, points within ulps of
/// every cell boundary, and a displacement of exactly `L/2`.
#[test]
fn neighbor_counts_exact_on_hand_built_edge_cases() {
    for box_len in [1.0, 2.5] {
        // 8 and 12 cells per side are the counting grid at these sizes.
        for m in [8usize, 12] {
            let w = box_len / m as f64;
            let mut cutoffs = vec![w, 2.0 * w, 0.25 * box_len, 0.329 * box_len];
            cutoffs.extend([0.5 * box_len, box_len]);
            for cutoff in cutoffs {
                let mut pos: Vec<Vec3> = (0..m * m * m)
                    .map(|k| {
                        let (x, y, z) = (k / (m * m), k / m % m, k % m);
                        Vec3::new(x as f64 * w, y as f64 * w, z as f64 * w)
                    })
                    .collect();
                // Coincident points: two lattice copies and an off-lattice pair.
                pos.extend([pos[0], pos[m + 1]]);
                let q = Vec3::new(0.3 * box_len, 0.6 * box_len, 0.45 * box_len);
                pos.extend([q, q]);
                // One cutoff away along each axis.
                for d in [
                    Vec3::new(cutoff, 0.0, 0.0),
                    Vec3::new(0.0, cutoff, 0.0),
                    Vec3::new(0.0, 0.0, cutoff),
                ] {
                    let r = q + d;
                    pos.push(Vec3::new(
                        r.x.rem_euclid(box_len),
                        r.y.rem_euclid(box_len),
                        r.z.rem_euclid(box_len),
                    ));
                }
                // Straddling the wrap: a cutoff apart and three quarters of one.
                let below_l = f64::from_bits(box_len.to_bits() - 1);
                let h = 0.5 * cutoff;
                pos.extend([
                    Vec3::new(box_len - h, 0.5 * w, 0.5 * w),
                    Vec3::new(h, 0.5 * w, 0.5 * w),
                    Vec3::new(0.5 * w, below_l, 0.5 * w),
                    Vec3::new(0.5 * w, 0.75 * cutoff, 0.5 * w),
                    Vec3::new(below_l, below_l, below_l),
                ]);
                // A few ulps either side of every interior cell boundary along
                // x, where the computed cell index can round across it: two
                // such points can sit in cells two apart yet less than one
                // cell width (here, the cutoff) apart.
                for j in 1..m {
                    let b = (j as f64 * w).to_bits();
                    for k in 0..9 {
                        let v = f64::from_bits(b + k - 4);
                        pos.push(Vec3::new(v, 0.3 * box_len, 0.7 * box_len));
                    }
                }
                // Exactly half a box apart (both signs of the displacement).
                let e = 0.125 * box_len;
                pos.extend([
                    Vec3::new(e, e, e),
                    Vec3::new(e + 0.5 * box_len, e, e),
                    Vec3::new(e, e, e + 0.5 * box_len),
                ]);
                assert!(pos
                    .iter()
                    .all(|p| [p.x, p.y, p.z].iter().all(|&v| (0.0..box_len).contains(&v))));
                assert_exact(&pos, box_len, cutoff);
            }
        }
    }
}
