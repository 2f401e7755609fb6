//! Golden fixture guarding the SBD/FFT/k-shape kernel layer.
//!
//! The plan-cached engine rewrite (DESIGN §3.12) promises that the Fig-5
//! sweep's *partition* — assignments, iteration counts, convergence — is
//! exactly what the pre-rewrite per-call kernels produced, and that the
//! full output (centroids and index scores included) is bit-identical
//! across thread counts. Two fixtures pin that:
//!
//! * `EXPECTED`: per-`k` iterations + assignments
//!   (`golden_capture --scale small --seed 7 --restarts 3`). They are
//!   invariant to the kernel layout because every distance the algorithm
//!   compares is computed bit-identically (twiddle-table recurrence,
//!   cached spectra), and the implicit-operator shape extraction perturbs
//!   centroids by ulps only — not enough to flip any comparison on this
//!   data. A kernel change must never move them.
//! * `EXPECTED_BITS_DIGEST`: FNV-1a over every centroid and score bit of
//!   the sweep, captured from the current kernels. This pins the exact
//!   floating-point behavior; if a future change intentionally alters
//!   kernel arithmetic, regenerate with `golden_capture` and update both
//!   this digest and `DESIGN.md` §3.12's numerical contract.
//!
//! Both fixtures also depend on the input: the small-scale dataset the
//! sweep clusters. They were recaptured together, with the kernel layer
//! untouched, when the per-session samplers were re-baselined (the
//! ziggurat normal and the rejection disc, DESIGN §3.3) and the collected
//! dataset changed with them.

use mobilenet::core::temporal::{clustering_sweep, Algorithm, ClusteringSweep};
use mobilenet::par::set_thread_override;
use mobilenet::traffic::Direction;
use mobilenet::{Pipeline, Scale};

const SEED: u64 = 7;
const RESTARTS: u64 = 3;

/// (k, iterations, assignments) of the sweep.
const EXPECTED: &[(usize, usize, &[usize])] = &[
    (
        2,
        3,
        &[0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1],
    ),
    (
        3,
        3,
        &[2, 2, 0, 0, 2, 1, 0, 0, 1, 0, 1, 2, 2, 2, 1, 0, 0, 1, 0, 0],
    ),
    (
        4,
        3,
        &[2, 3, 1, 0, 1, 2, 0, 0, 1, 0, 1, 2, 3, 3, 1, 0, 0, 1, 0, 0],
    ),
    (
        5,
        4,
        &[3, 4, 1, 0, 2, 2, 0, 0, 3, 0, 2, 3, 4, 4, 1, 0, 1, 1, 1, 1],
    ),
    (
        6,
        4,
        &[1, 0, 3, 0, 2, 4, 5, 1, 3, 1, 3, 4, 0, 3, 2, 5, 5, 3, 2, 3],
    ),
    (
        7,
        3,
        &[1, 0, 4, 3, 2, 4, 3, 3, 4, 3, 4, 5, 0, 3, 3, 6, 5, 5, 1, 4],
    ),
    (
        8,
        2,
        &[1, 0, 5, 1, 2, 5, 3, 1, 5, 1, 5, 6, 0, 4, 3, 7, 6, 5, 1, 4],
    ),
    (
        9,
        2,
        &[1, 0, 5, 2, 3, 6, 8, 1, 1, 2, 5, 7, 0, 4, 3, 8, 5, 6, 3, 5],
    ),
    (
        10,
        2,
        &[2, 0, 6, 1, 3, 6, 4, 1, 6, 2, 6, 7, 0, 5, 4, 9, 8, 6, 2, 5],
    ),
    (
        11,
        2,
        &[2, 0, 6, 1, 3, 7, 4, 1, 7, 2, 7, 8, 0, 5, 4, 10, 9, 7, 4, 6],
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
            9, 11, 4, 11, 6, 7, 2, 2, 1, 8, 5, 10, 13, 12, 5, 2, 3, 0, 0, 3,
        ],
    ),
    (
        15,
        2,
        &[
            10, 12, 5, 12, 6, 8, 2, 2, 10, 9, 4, 1, 14, 13, 11, 2, 3, 0, 0, 7,
        ],
    ),
    (
        16,
        2,
        &[
            11, 13, 5, 13, 7, 8, 3, 3, 15, 10, 6, 1, 14, 4, 12, 2, 3, 0, 0, 9,
        ],
    ),
    (
        17,
        2,
        &[
            12, 16, 5, 14, 7, 9, 3, 3, 11, 10, 8, 13, 15, 2, 6, 3, 4, 0, 0, 1,
        ],
    ),
    (
        18,
        2,
        &[
            12, 10, 6, 14, 7, 9, 3, 17, 15, 11, 5, 13, 16, 2, 8, 3, 4, 0, 0, 1,
        ],
    ),
    (
        19,
        2,
        &[
            13, 11, 6, 15, 8, 10, 3, 18, 9, 12, 5, 1, 17, 2, 7, 3, 14, 16, 0, 4,
        ],
    ),
];

/// FNV-1a over every centroid bit and score bit of the whole sweep.
const EXPECTED_BITS_DIGEST: u64 = 0xbb30_d03d_5ce8_762d;

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
