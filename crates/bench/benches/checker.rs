//! Criterion benches for the checking layer: the polled facade
//! predicates (incremental vs from-scratch) and the raw checker
//! functions (fast boolean vs diagnostic) — the microscope behind the
//! `BENCH_checker.json` trajectory numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use skippub_core::checker::{self, CheckScratch};
use skippub_core::pubsub::{ShardedBackend, SystemBuilder};
use skippub_core::{scenarios, ProtocolConfig, PubSub, TopicId};

const N: u64 = 1_000;
const TOPICS: u32 = 16;

fn steady_multi(full: bool) -> ShardedBackend {
    let mut ps = SystemBuilder::new(0xBE7C4).topics(TOPICS).build_multi();
    for i in 0..N {
        ps.subscribe(TopicId((i % TOPICS as u64) as u32));
    }
    ps.set_full_checking(full);
    assert!(ps.until_legit(6_000).1, "population must stabilize");
    ps
}

fn bench_facade_polls(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker_poll");
    let inc = steady_multi(false);
    let full = steady_multi(true);
    group.bench_function("is_legitimate/incremental", |b| {
        b.iter(|| std::hint::black_box(inc.is_legitimate()))
    });
    group.bench_function("is_legitimate/full", |b| {
        b.iter(|| std::hint::black_box(full.is_legitimate()))
    });
    group.bench_function("pubs_converged/incremental", |b| {
        b.iter(|| std::hint::black_box(inc.publications_converged()))
    });
    group.bench_function("pubs_converged/full", |b| {
        b.iter(|| std::hint::black_box(full.publications_converged()))
    });
    group.finish();
}

fn bench_raw_checkers(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker_raw");
    let world = scenarios::legit_world(512, 0xABCD, ProtocolConfig::default());
    group.bench_function("fast_check_topology/n512", |b| {
        let mut scratch = CheckScratch::default();
        b.iter(|| std::hint::black_box(checker::fast_check_topology(&world, &mut scratch)))
    });
    group.bench_function("check_topology_diagnostic/n512", |b| {
        b.iter(|| std::hint::black_box(checker::check_topology(&world).ok()))
    });
    group.finish();
}

criterion_group!(benches, bench_facade_polls, bench_raw_checkers);
criterion_main!(benches);
