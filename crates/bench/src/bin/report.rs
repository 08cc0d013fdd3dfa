//! Regenerate every experiment table of EXPERIMENTS.md in one run:
//!
//! ```sh
//! cargo run -p bench-harness --bin report --release
//! ```
//!
//! Unlike the Criterion benches (statistical, per-operation), this harness
//! prints the *shape* results the paper reports: who wins, by what factor,
//! and the traffic counters behind each optimization.

use std::time::{Duration, Instant};

use bench_harness::*;
use kleisli_exec::{eval, Context, Env};
use kleisli_opt::OptConfig;
use nrc::Expr;

fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    // warm-up
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed() / reps as u32
}

fn main() {
    println!("Kleisli/CPL reproduction — experiment report");
    println!("============================================\n");
    t3_remy();
    t1_pushdown();
    t2_path_extraction();
    e4_fusion();
    e8_joins();
    e9_caching();
    e10_laziness();
    e11_concurrency();
}

/// E3 / Table T3: the ≥2x Rémy projection claim.
fn t3_remy() {
    println!("-- T3: Rémy projection, homogeneous fast path (paper: >2x) --");
    println!("{:>8} {:>12} {:>12} {:>8}", "fields", "plain", "homog.", "speedup");
    for width in [4usize, 8, 16, 32] {
        let rows = remy_rows(200_000, width);
        let field = format!("field{}", width / 2);
        let plain = time(20, || project_plain(&rows, &field));
        let homog = time(20, || project_cached(&rows, &field));
        println!(
            "{width:>8} {plain:>12.2?} {homog:>12.2?} {:>7.2}x",
            plain.as_secs_f64() / homog.as_secs_f64()
        );
    }
    println!();
}

/// E7 / Table T1: Loci22 query migration.
fn t1_pushdown() {
    println!("-- T1: Loci22 pushdown (300 loci, 2 ms/request, 2 us/row) --");
    println!(
        "{:>18} {:>10} {:>10} {:>12} {:>12}",
        "plan", "requests", "rows", "bytes", "time"
    );
    let (mut session, fed) = latency_federation(300, Duration::from_millis(2));
    for (label, config) in config_variants() {
        session.set_opt_config(config);
        let compiled = session.compile(LOCI22).expect("compile");
        session.reset_metrics();
        fed.gdb.latency().reset();
        let t = time(3, || session.run_compiled(&compiled).expect("run"));
        let m = session.driver_metrics("GDB").expect("metrics");
        println!(
            "{label:>18} {:>10} {:>10} {:>12} {t:>12.2?}",
            m.requests / 4, // warm-up + 3 reps
            m.rows_shipped / 4,
            m.bytes_shipped / 4
        );
    }
    println!();
}

/// E13 / Table T2: ASN.1 path extraction at the driver.
fn t2_path_extraction() {
    println!("-- T2: Entrez path extraction (400 loci worth of entries, 200 us/request) --");
    let (mut session, _fed) = latency_federation(400, Duration::from_micros(200));
    let with_path = session
        .compile(
            r#"flatten(GenBank([db = "na", select = "organism \"Homo sapiens\"",
                          path = "Seq-entry.seq.id..giim"]))"#,
        )
        .expect("compile");
    // Baseline with pushdown disabled, otherwise the path-migration rule
    // rewrites this into the pushed form automatically.
    session.set_opt_config(OptConfig {
        enable_pushdown: false,
        ..OptConfig::default()
    });
    let without = session
        .compile(
            r#"{g | \e <- GenBank([db = "na", select = "organism \"Homo sapiens\""]),
               <giim = \g> <- e.seq.id}"#,
        )
        .expect("compile");
    session.set_opt_config(OptConfig::default());
    println!(
        "{:>20} {:>10} {:>12} {:>12}",
        "plan", "rows", "bytes", "time"
    );
    for (label, compiled) in [("path-at-driver", &with_path), ("whole-entries", &without)] {
        session.reset_metrics();
        let t = time(5, || session.run_compiled(compiled).expect("run"));
        let m = session.driver_metrics("GenBank").expect("metrics");
        println!(
            "{label:>20} {:>10} {:>12} {t:>12.2?}",
            m.rows_shipped / 6,
            m.bytes_shipped / 6
        );
    }
    println!();
}

/// E4–E6: the monadic rules.
fn e4_fusion() {
    println!("-- E4/E5/E6: monadic rules (n = 100k) --");
    let config = OptConfig {
        enable_pushdown: false,
        enable_joins: false,
        enable_cache: false,
        enable_parallel: false,
        ..OptConfig::default()
    };
    let ctx = Context::new();
    let cases = [
        ("R1 vertical fusion", vertical_pipeline(100_000)),
        ("R2 horizontal fusion", horizontal_pipeline(50_000)),
        ("R3 filter promotion (false)", invariant_filter(100_000, 0)),
    ];
    println!(
        "{:>28} {:>12} {:>12} {:>8}",
        "rule", "unoptimized", "optimized", "speedup"
    );
    for (label, raw) in cases {
        let optd = kleisli_opt::optimize(raw.clone(), &kleisli_opt::NullCatalog, &config).0;
        let t_raw = time(5, || eval(&raw, &Env::empty(), &ctx).expect("eval"));
        let t_opt = time(5, || eval(&optd, &Env::empty(), &ctx).expect("eval"));
        println!(
            "{label:>28} {t_raw:>12.2?} {t_opt:>12.2?} {:>7.2}x",
            t_raw.as_secs_f64() / t_opt.as_secs_f64()
        );
    }
    println!();
}

/// E8: join operator crossover.
fn e8_joins() {
    println!("-- E8: local join operators (|R| = |S| = n, 10% key selectivity) --");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "n", "naive-nl", "blocked-nl", "indexed-nl"
    );
    let ctx = Context::new();
    for n in [100i64, 400, 1600] {
        let (l, r) = join_inputs(n, (n / 10).max(1));
        let naive = join_query(l.clone(), r.clone(), None);
        let blocked = join_query(
            l.clone(),
            r.clone(),
            Some(nrc::JoinStrategy::BlockedNl),
        );
        let indexed = join_query(l, r, Some(nrc::JoinStrategy::IndexedNl));
        let tn = time(3, || eval(&naive, &Env::empty(), &ctx).expect("eval"));
        let tb = time(3, || eval(&blocked, &Env::empty(), &ctx).expect("eval"));
        let ti = time(3, || eval(&indexed, &Env::empty(), &ctx).expect("eval"));
        println!("{n:>8} {tn:>12.2?} {tb:>12.2?} {ti:>12.2?}");
    }
    println!();
}

/// E9: subquery caching.
fn e9_caching() {
    println!("-- E9: caching the outer-independent inner subquery (60 loci, 500 us/request) --");
    let (mut session, _fed) = latency_federation(60, Duration::from_micros(500));
    let base = OptConfig {
        enable_pushdown: false,
        enable_joins: false,
        enable_parallel: false,
        ..OptConfig::default()
    };
    println!("{:>12} {:>10} {:>12}", "plan", "requests", "time");
    for (label, cache) in [("cached", true), ("uncached", false)] {
        session.set_opt_config(OptConfig {
            enable_cache: cache,
            ..base.clone()
        });
        let compiled = session.compile(CACHEABLE).expect("compile");
        session.reset_metrics();
        let t = time(3, || session.run_compiled(&compiled).expect("run"));
        let m = session.driver_metrics("GDB").expect("metrics");
        println!("{label:>12} {:>10} {t:>12.2?}", m.requests / 4);
    }
    println!();
}

/// E10: time-to-first-result.
fn e10_laziness() {
    println!("-- E10: laziness, 20k-row remote scan (100 us/request, 20 us/row) --");
    let (session, _fed) = latency_federation_rows(
        20_000,
        Duration::from_micros(100),
        Duration::from_micros(20),
    );
    let scan = r#"{[s = l.locus_symbol] | \l <- GDB-Tab("locus")}"#;
    let t_first = time(5, || session.query_first_n(scan, 10).expect("query"));
    let compiled = session.compile(scan).expect("compile");
    let t_full = time(3, || session.run_compiled(&compiled).expect("run"));
    println!("first 10 rows (pipelined): {t_first:>10.2?}");
    println!("full materialization:      {t_full:>10.2?}");
    println!(
        "time-to-first-result advantage: {:.0}x\n",
        t_full.as_secs_f64() / t_first.as_secs_f64()
    );
}

/// E11: bounded concurrency.
fn e11_concurrency() {
    println!("-- E11: parallel retrieval, 40 link lookups at 5 ms/request (server cap 5) --");
    let (mut session, fed) = latency_federation(60, Duration::from_millis(5));
    bind_uids(&mut session, &fed, 40);
    session.set_opt_config(OptConfig {
        enable_cache: false,
        ..OptConfig::default()
    });
    let compiled = session.compile(CONCURRENCY).expect("compile");
    println!("{:>4} {:>12} {:>8}", "K", "time", "speedup");
    let mut base = None;
    for width in [1usize, 2, 5, 10] {
        let mut c2 = compiled.clone();
        c2.optimized = set_width(&compiled.optimized, width);
        let t = time(3, || session.run_compiled(&c2).expect("run"));
        let b = *base.get_or_insert(t);
        println!(
            "{width:>4} {t:>12.2?} {:>7.2}x",
            b.as_secs_f64() / t.as_secs_f64()
        );
    }
    println!();
}

fn set_width(e: &Expr, width: usize) -> Expr {
    set_par_width(e, width)
}
