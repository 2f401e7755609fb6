//! Golden fixture guarding the SBD/FFT/k-shape kernel layer.
//!
//! The plan-cached engine rewrite (DESIGN §3.12) promises that the Fig-5
//! sweep's *partition* — assignments, iteration counts, convergence — is
//! exactly what the pre-rewrite per-call kernels produced, and that the
//! full output (centroids and index scores included) is bit-identical
//! across thread counts. Two fixtures pin that:
//!
//! * `EXPECTED`: per-`k` iterations + assignments, captured from the
//!   pre-rewrite code (`golden_capture --scale small --seed 7
//!   --restarts 3`). These must never change: they are invariant to the
//!   kernel layout because every distance the algorithm compares is
//!   computed bit-identically (twiddle-table recurrence, cached spectra),
//!   and the implicit-operator shape extraction perturbs centroids by
//!   ulps only — not enough to flip any comparison on this data.
//! * `EXPECTED_BITS_DIGEST`: FNV-1a over every centroid and score bit of
//!   the sweep, captured from the current kernels. This pins the exact
//!   floating-point behavior; if a future change intentionally alters
//!   kernel arithmetic, regenerate with `golden_capture` and update both
//!   this digest and `DESIGN.md` §3.12's numerical contract.

use mobilenet::core::temporal::{clustering_sweep, Algorithm, ClusteringSweep};
use mobilenet::par::set_thread_override;
use mobilenet::traffic::Direction;
use mobilenet::{Pipeline, Scale};

const SEED: u64 = 7;
const RESTARTS: u64 = 3;

/// (k, iterations, assignments) captured from the pre-rewrite kernels.
const EXPECTED: &[(usize, usize, &[usize])] = &[
    (
        2,
        2,
        &[0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1],
    ),
    (
        3,
        3,
        &[0, 0, 1, 0, 1, 2, 0, 0, 1, 0, 1, 2, 0, 1, 1, 0, 2, 2, 1, 1],
    ),
    (
        4,
        4,
        &[0, 3, 1, 0, 2, 2, 0, 0, 1, 0, 1, 2, 3, 3, 1, 0, 0, 1, 0, 0],
    ),
    (
        5,
        4,
        &[3, 4, 1, 0, 2, 2, 0, 0, 1, 0, 2, 3, 4, 4, 1, 0, 1, 1, 0, 1],
    ),
    (
        6,
        2,
        &[4, 4, 2, 4, 2, 3, 1, 1, 0, 3, 2, 4, 5, 5, 2, 1, 1, 0, 0, 1],
    ),
    (
        7,
        1,
        &[4, 5, 2, 5, 3, 3, 1, 1, 4, 4, 2, 5, 6, 6, 2, 1, 1, 0, 0, 1],
    ),
    (
        8,
        2,
        &[1, 0, 5, 4, 2, 5, 1, 1, 5, 1, 5, 6, 0, 4, 3, 7, 1, 5, 1, 4],
    ),
    (
        9,
        3,
        &[1, 0, 5, 3, 3, 6, 8, 8, 1, 2, 5, 7, 0, 4, 3, 8, 1, 6, 3, 5],
    ),
    (
        10,
        2,
        &[7, 8, 3, 8, 4, 5, 1, 1, 6, 6, 0, 7, 9, 9, 3, 1, 2, 0, 0, 2],
    ),
    (
        11,
        2,
        &[2, 0, 6, 1, 3, 7, 1, 1, 2, 2, 7, 8, 0, 5, 4, 10, 9, 7, 4, 6],
    ),
    (
        12,
        2,
        &[8, 9, 4, 9, 5, 6, 2, 2, 8, 7, 0, 1, 11, 10, 4, 2, 2, 0, 0, 3],
    ),
    (
        13,
        2,
        &[
            9, 10, 4, 10, 5, 7, 2, 2, 9, 8, 0, 1, 12, 11, 4, 2, 3, 0, 0, 6,
        ],
    ),
    (
        14,
        2,
        &[
            9, 11, 4, 8, 6, 7, 2, 2, 1, 9, 5, 10, 13, 12, 5, 2, 3, 0, 0, 3,
        ],
    ),
    (
        15,
        2,
        &[
            10, 12, 5, 12, 6, 8, 2, 2, 7, 9, 4, 1, 14, 13, 5, 2, 3, 0, 0, 11,
        ],
    ),
    (
        16,
        2,
        &[
            11, 13, 5, 15, 7, 8, 3, 3, 12, 10, 6, 1, 14, 9, 5, 2, 3, 0, 0, 4,
        ],
    ),
    (
        17,
        2,
        &[
            13, 14, 5, 16, 7, 9, 3, 3, 11, 10, 2, 12, 15, 8, 6, 3, 4, 0, 0, 1,
        ],
    ),
    (
        18,
        2,
        &[
            15, 14, 10, 8, 7, 9, 3, 3, 12, 11, 2, 13, 16, 5, 6, 3, 4, 17, 0, 1,
        ],
    ),
    (
        19,
        2,
        &[
            13, 15, 6, 11, 8, 10, 3, 3, 9, 12, 2, 1, 17, 5, 7, 18, 4, 16, 0, 14,
        ],
    ),
];

/// FNV-1a over every centroid bit and score bit of the whole sweep.
const EXPECTED_BITS_DIGEST: u64 = 0x9103_76a2_15d4_b396;

fn fnv1a(h: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *h ^= byte as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn bits_digest(sweep: &ClusteringSweep) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in &sweep.points {
        for v in p.clustering.centroids.iter().flatten() {
            fnv1a(&mut h, v.to_bits());
        }
        for s in [
            p.scores.davies_bouldin,
            p.scores.davies_bouldin_star,
            p.scores.dunn,
            p.scores.silhouette,
        ] {
            fnv1a(&mut h, s.to_bits());
        }
    }
    h
}

fn sweep_at(threads: usize) -> ClusteringSweep {
    set_thread_override(Some(threads));
    let study = Pipeline::builder()
        .scale(Scale::Small)
        .seed(SEED)
        .run()
        .unwrap()
        .into_study();
    clustering_sweep(&study, Direction::Down, Algorithm::KShape, RESTARTS)
}

#[test]
fn kshape_sweep_matches_golden_fixture_at_1_2_and_8_threads() {
    // All thread counts run in one #[test] so the process-global thread
    // override is never raced by a sibling test.
    let reference = sweep_at(1);

    assert_eq!(reference.points.len(), EXPECTED.len());
    for (p, &(k, iters, assignments)) in reference.points.iter().zip(EXPECTED) {
        assert_eq!(p.k, k);
        assert_eq!(p.clustering.iterations, iters, "iterations at k={k}");
        assert!(p.clustering.converged, "k={k} did not converge");
        assert_eq!(
            p.clustering.assignments, assignments,
            "assignments at k={k}"
        );
    }
    assert_eq!(
        bits_digest(&reference),
        EXPECTED_BITS_DIGEST,
        "centroid/score bits changed: got {:#018x} — if the kernel arithmetic \
         changed intentionally, regenerate via golden_capture and update the \
         fixture + DESIGN §3.12",
        bits_digest(&reference),
    );

    for threads in [2usize, 8] {
        let run = sweep_at(threads);
        assert_eq!(run.points.len(), reference.points.len());
        for (a, b) in run.points.iter().zip(reference.points.iter()) {
            assert_eq!(a.clustering.assignments, b.clustering.assignments);
            assert_eq!(a.clustering.iterations, b.clustering.iterations);
            for (ca, cb) in a
                .clustering
                .centroids
                .iter()
                .zip(b.clustering.centroids.iter())
            {
                for (x, y) in ca.iter().zip(cb.iter()) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "centroid bits differ at {threads} threads (k={})",
                        a.k
                    );
                }
            }
            for (x, y) in [
                (a.scores.davies_bouldin, b.scores.davies_bouldin),
                (a.scores.davies_bouldin_star, b.scores.davies_bouldin_star),
                (a.scores.dunn, b.scores.dunn),
                (a.scores.silhouette, b.scores.silhouette),
            ] {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "score bits differ at {threads} threads"
                );
            }
        }
    }
    set_thread_override(None);
}
