//! E8 — local join operators: naive nested loop vs blocked nested loop vs
//! indexed (hashed) nested loop across input sizes.

use bench_harness::{join_inputs, join_query};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kleisli_exec::{eval, Context, Env};
use nrc::JoinStrategy;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("joins");
    g.sample_size(10);
    for n in [100i64, 400, 1600] {
        let (l, r) = join_inputs(n, n / 10);
        let naive = join_query(l.clone(), r.clone(), None);
        let blocked = join_query(
            l.clone(),
            r.clone(),
            Some(JoinStrategy::BlockedNl),
        );
        let indexed = join_query(l, r, Some(JoinStrategy::IndexedNl));
        let ctx = Context::new();
        g.bench_with_input(BenchmarkId::new("naive-nl", n), &n, |b, _| {
            b.iter(|| black_box(eval(&naive, &Env::empty(), &ctx).expect("eval")))
        });
        g.bench_with_input(BenchmarkId::new("blocked-nl", n), &n, |b, _| {
            b.iter(|| black_box(eval(&blocked, &Env::empty(), &ctx).expect("eval")))
        });
        g.bench_with_input(BenchmarkId::new("indexed-nl", n), &n, |b, _| {
            b.iter(|| black_box(eval(&indexed, &Env::empty(), &ctx).expect("eval")))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
