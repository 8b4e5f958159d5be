//! Data-engine throughput: the filter → histogram loop behind every
//! visualization, at census scale (the Fig-6 workload substrate).

use aware_data::census::CensusGenerator;
use aware_data::hist::{categorical_histogram, numeric_histogram};
use aware_data::predicate::{CmpOp, Predicate};
use aware_data::sample::{downsample, permute_columns};
use aware_data::value::Value;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn filters(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter_eval");
    for &rows in &[10_000usize, 100_000] {
        let table = CensusGenerator::new(1).generate(rows);
        group.throughput(Throughput::Elements(rows as u64));
        let simple = Predicate::eq("salary_over_50k", true);
        group.bench_with_input(BenchmarkId::new("equality", rows), &table, |b, t| {
            b.iter(|| simple.eval(black_box(t)).unwrap())
        });
        let chain = Predicate::eq("education", "PhD")
            .and(Predicate::eq("marital_status", "Married").negate())
            .and(Predicate::cmp("age", CmpOp::Ge, Value::from(30i64)));
        group.bench_with_input(
            BenchmarkId::new("three_condition_chain", rows),
            &table,
            |b, t| b.iter(|| chain.eval(black_box(t)).unwrap()),
        );
    }
    // Paper scale, on the leaf shapes of the `scan_1m` benchmark probes:
    // an int64 brush and a two-value dictionary `In`.
    let rows = 1_000_000usize;
    let table = CensusGenerator::new(1).generate(rows);
    group.throughput(Throughput::Elements(rows as u64));
    let brush = Predicate::between("age", 31.5, 52.25);
    group.bench_with_input(BenchmarkId::new("int_between", rows), &table, |b, t| {
        b.iter(|| brush.eval(black_box(t)).unwrap())
    });
    let two = Predicate::In {
        column: "education".into(),
        values: vec![Value::from("HS"), Value::from("Master")],
    };
    group.bench_with_input(BenchmarkId::new("dictionary_in_2", rows), &table, |b, t| {
        b.iter(|| two.eval(black_box(t)).unwrap())
    });
    group.finish();
}

fn histograms(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram");
    for &rows in &[10_000usize, 100_000] {
        let table = CensusGenerator::new(2).generate(rows);
        let sel = Predicate::eq("salary_over_50k", true).eval(&table).unwrap();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("categorical", rows), &table, |b, t| {
            b.iter(|| categorical_histogram(black_box(t), "education", Some(&sel)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("numeric_10bins", rows), &table, |b, t| {
            b.iter(|| numeric_histogram(black_box(t), "age", Some(&sel), 10).unwrap())
        });
    }
    group.finish();
}

/// The evaluation cache on the growing-chain shape: cold chains pay the
/// naive fold, warm chains pay fingerprint lookups, and one-clause
/// extensions pay one scan + one word-level AND.
fn eval_cache(c: &mut Criterion) {
    use aware_data::cache::EvalCache;
    let rows = 100_000usize;
    let table = CensusGenerator::new(4).generate(rows);
    let chain = Predicate::eq("education", "PhD")
        .and(Predicate::eq("marital_status", "Married").negate())
        .and(Predicate::cmp("age", CmpOp::Ge, Value::from(30i64)))
        .and(Predicate::eq("salary_over_50k", true));
    let mut group = c.benchmark_group("eval_cache");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("chain_cold", |b| {
        b.iter_batched(
            EvalCache::new,
            |cache| cache.selection(black_box(&table), &chain).unwrap(),
            criterion::BatchSize::SmallInput,
        )
    });
    let warm = EvalCache::new();
    warm.selection(&table, &chain).unwrap();
    group.bench_function("chain_warm", |b| {
        b.iter(|| warm.selection(black_box(&table), &chain).unwrap())
    });
    // One new clause on a warm prefix: the interactive step cost.
    let extended = chain.clone().and(Predicate::eq("sex", "Male"));
    group.bench_function("chain_extend_one_clause", |b| {
        b.iter_batched(
            || {
                let cache = EvalCache::new();
                cache.selection(&table, &chain).unwrap();
                cache
            },
            |cache| cache.selection(black_box(&table), &extended).unwrap(),
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("invariants_warm", |b| {
        b.iter(|| warm.invariants(black_box(&table), "age").unwrap())
    });
    group.finish();
}

/// The single-scan membership kernel (`In` used to be one full scan per
/// listed value).
fn in_membership(c: &mut Criterion) {
    use aware_data::value::Value;
    let rows = 100_000usize;
    let table = CensusGenerator::new(5).generate(rows);
    let pred = Predicate::In {
        column: "education".into(),
        values: ["HS", "Some-College", "Bachelor", "Master"]
            .iter()
            .map(|&s| Value::from(s))
            .collect(),
    };
    let mut group = c.benchmark_group("in_membership");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_with_input(BenchmarkId::new("four_values", rows), &table, |b, t| {
        b.iter(|| pred.eval(black_box(t)).unwrap())
    });
    group.finish();
}

fn sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    let table = CensusGenerator::new(3).generate(100_000);
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("downsample_10pct", |b| {
        b.iter(|| downsample(black_box(&table), 0.1, 7).unwrap())
    });
    group.bench_function("permute_columns", |b| {
        b.iter(|| permute_columns(black_box(&table), 7).unwrap())
    });
    group.finish();
}

/// Shared Criterion configuration: short but stable windows so the whole
/// suite runs in a few minutes without CLI flags.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(800))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = filters, histograms, eval_cache, in_membership, sampling
}
criterion_main!(benches);
