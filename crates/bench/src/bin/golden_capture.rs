//! Captures the exact k-shape sweep output (assignments, iteration
//! counts, centroid bit patterns, index scores) for a given scale/seed,
//! as deterministic text. Used to generate and audit the golden fixture
//! guarding the kernel layer (`tests/golden_kshape.rs`): run it before
//! and after touching `crates/timeseries` / `crates/cluster` and diff.
//!
//! ```text
//! golden_capture [--scale small|medium|france|national] [--seed N]
//!                [--restarts R] [--threads N]
//! ```

use mobilenet_core::temporal::{clustering_sweep, Algorithm};
use mobilenet_core::{Pipeline, Scale};
use mobilenet_traffic::Direction;

fn fnv1a(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn main() {
    let mut scale = Scale::Small;
    let mut seed = 7u64;
    let mut restarts = 3u64;
    let mut threads: Option<usize> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .expect("--scale needs a value")
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    })
            }
            "--seed" => {
                seed = it
                    .next()
                    .unwrap()
                    .parse()
                    .expect("--seed must be an integer")
            }
            "--restarts" => {
                restarts = it
                    .next()
                    .unwrap()
                    .parse()
                    .expect("--restarts must be an integer")
            }
            "--threads" => {
                threads = Some(
                    it.next()
                        .unwrap()
                        .parse()
                        .expect("--threads must be an integer"),
                )
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    mobilenet_par::set_thread_override(threads);

    let study = Pipeline::builder()
        .scale(scale)
        .seed(seed)
        .run()
        .expect("built-in scale configs are valid")
        .into_study();
    let t0 = std::time::Instant::now();
    let sweep = clustering_sweep(&study, Direction::Down, Algorithm::KShape, restarts);
    let elapsed = t0.elapsed().as_secs_f64();

    println!("# golden kshape capture: scale={scale} seed={seed} restarts={restarts}");
    for p in &sweep.points {
        let assignments: Vec<String> = p
            .clustering
            .assignments
            .iter()
            .map(|a| a.to_string())
            .collect();
        let centroid_hash = fnv1a(p.clustering.centroids.iter().flatten().map(|v| v.to_bits()));
        println!(
            "k={} iters={} converged={} assignments={} centroid_bits={:016x} db={:016x} dbstar={:016x} dunn={:016x} sil={:016x}",
            p.k,
            p.clustering.iterations,
            p.clustering.converged,
            assignments.join(","),
            centroid_hash,
            p.scores.davies_bouldin.to_bits(),
            p.scores.davies_bouldin_star.to_bits(),
            p.scores.dunn.to_bits(),
            p.scores.silhouette.to_bits(),
        );
    }
    eprintln!("sweep took {elapsed:.3}s");
}
