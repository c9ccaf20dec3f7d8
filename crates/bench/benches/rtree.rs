//! R-tree micro-benchmarks: STR bulk load, range queries vs. brute-force
//! scan — the local-index layer of the GR-index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use icpe_index::RTree;
use icpe_types::{DistanceMetric, Point, Rect};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn points(n: usize, seed: u64) -> Vec<(Point, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (
                Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
                i as u32,
            )
        })
        .collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_build");
    group.sample_size(20);
    for n in [1_000usize, 10_000] {
        let items = points(n, 7);
        group.bench_with_input(BenchmarkId::new("str_bulk", n), &items, |b, items| {
            b.iter(|| {
                let mut cloned = items.clone();
                let t = RTree::bulk_load_with_max_entries(16, &mut cloned);
                black_box(t.len())
            })
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_query");
    group.sample_size(30);
    let items = points(20_000, 9);
    let tree = RTree::bulk_load(items.clone());
    let queries = points(200, 11);

    group.bench_function("rtree_range", |b| {
        b.iter(|| {
            let mut total = 0usize;
            let mut out = Vec::new();
            for (q, _) in &queries {
                out.clear();
                tree.query_within(q, 5.0, DistanceMetric::Chebyshev, &mut out);
                total += out.len();
            }
            black_box(total)
        })
    });
    group.bench_function("brute_force_scan", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (q, _) in &queries {
                let r = Rect::range_region(*q, 5.0);
                total += items.iter().filter(|(p, _)| r.contains_point(p)).count();
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_query);
criterion_main!(benches);
