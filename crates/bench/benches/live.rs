//! Live-aggregation benchmarks: what the live layer costs on top of the
//! sharded-fold engine it shares with batch collection, and what a
//! snapshot costs while state is hot.
//!
//! * `live_ingest/batch` vs `live_ingest/live` — the same small week
//!   through `collect_with_options` and through `LiveState::run_ingestion`
//!   (both run `ShardedFold`; the live path adds watermark tracking and a
//!   version bump per batch, and keeps its partials for snapshots; it
//!   should stay within a small factor of batch);
//! * `live_snapshot/cached` — the version-keyed fast path queries hit
//!   between folds (the uncached merge cost is included in
//!   `live_ingest/live`, which ends with one cold snapshot). An
//!   uncached snapshot is a row-sparse merge under every shard lock:
//!   each shard partial contributes only the head-service rows it
//!   wrote, so the cold snapshot adds little to `live_ingest/live`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mobilenet_core::StudyConfig;
use mobilenet_netsim::collect_with_options;
use mobilenet_serve::LiveState;

fn config() -> StudyConfig {
    StudyConfig::small()
}

fn live_vs_batch_ingest(c: &mut Criterion) {
    let cfg = config();
    let mut g = c.benchmark_group("live_ingest");
    g.sample_size(10);
    g.bench_function("batch", |b| {
        b.iter(|| {
            let model = cfg.demand_model(1);
            collect_with_options(&model, &cfg.netsim, &cfg.collect_options(), 1).unwrap()
        })
    });
    g.bench_function("live", |b| {
        b.iter(|| {
            let state = LiveState::from_config(&cfg, 1).unwrap();
            state.run_ingestion().unwrap();
            black_box(state.snapshot())
        })
    });
    g.finish();
}

fn snapshot_costs(c: &mut Criterion) {
    let cfg = config();
    let mut g = c.benchmark_group("live_snapshot");
    let state = LiveState::from_config(&cfg, 1).unwrap();
    state.run_ingestion().unwrap();
    let warm = state.snapshot();
    black_box(warm);
    g.bench_function("cached", |b| b.iter(|| black_box(state.snapshot())));
    g.finish();
}

criterion_group!(benches, live_vs_batch_ingest, snapshot_costs);
criterion_main!(benches);
