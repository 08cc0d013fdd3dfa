//! Two traced runs of one seed give identical counts: wire requests,
//! rules fired and rows returned per query do not depend on timing.
//! This is what lets a later change rest a claim on a count.

use kbench::check::EXACT_COUNTS;
use kbench::trace::run_traced;
use kbench::workloads::{Kind, Plan};

fn counts(kind: Kind) -> Vec<(String, f64)> {
    // Smoke-sized passes: a few shape cycles are enough to count.
    let outcome = run_traced(&Plan::new(kind, 1995, true), 2.0);
    assert_eq!(outcome.failed, 0, "{}: {:?}", kind.name(), outcome.failures);
    EXACT_COUNTS
        .iter()
        .map(|name| {
            let metric = outcome
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("{name} is reported"));
            (name.to_string(), metric.value)
        })
        .collect()
}

#[test]
fn exact_counts_repeat_across_two_runs() {
    // One test, not three: the runs share the process-wide executor and
    // the span files, and `cargo test` would interleave them.
    for kind in [Kind::DoeCold, Kind::RowStream, Kind::CpuTransform] {
        let first = counts(kind);
        let second = counts(kind);
        assert_eq!(first, second, "{}", kind.name());
        assert!(
            first.iter().all(|(_, v)| *v > 0.0),
            "{}: {first:?}",
            kind.name()
        );
    }
}
