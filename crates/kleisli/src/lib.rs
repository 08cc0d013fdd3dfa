//! # kleisli
//!
//! The system facade of this reproduction of Buneman, Davidson, Hart,
//! Overton & Wong, *A Data Transformation System for Biological Data
//! Sources* (VLDB 1995): a [`Session`] compiles CPL through the Figure-2
//! pipeline — parse → desugar to NRC → typecheck → rewrite-rule optimizer
//! → executor — against registered data-source drivers.
//!
//! ```
//! use kleisli::Session;
//! use kleisli_core::Value;
//!
//! let mut session = Session::new();
//! session.bind_value(
//!     "DB",
//!     Value::set(vec![Value::record_from(vec![
//!         ("title", Value::str("Structure of the human perforin gene")),
//!         ("year", Value::Int(1989)),
//!     ])]),
//! );
//! let titles = session
//!     .query(r"{t | [title = \t, year = 1989, ...] <- DB}")
//!     .unwrap();
//! assert_eq!(titles.len(), Some(1));
//! ```

pub mod plan_cache;
pub mod session;
pub mod sources;

pub use kleisli_core::{BreakerPolicy, BreakerState, ResiliencePolicy, RetryPolicy};
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use session::{Compiled, QueryHandle, QueryStatus, Session, SourceFlush, StmtResult};
pub use sources::{bio_federation, AceObjects, BioFederation};

#[cfg(test)]
mod tests {
    use super::*;
    use bio_data::{publications, GdbConfig, GenBankConfig};
    use kleisli_core::{LatencyModel, Value};
    use nrc::Expr;

    fn pub_session() -> Session {
        let mut s = Session::new();
        s.bind_value("DB", publications(40, 17));
        s
    }

    #[test]
    fn define_then_query() {
        let mut s = pub_session();
        let results = s
            .run(r#"
                define recent == {p | \p <- DB, p.year >= 1990};
                count(recent);
            "#)
            .unwrap();
        assert_eq!(results.len(), 2);
        assert!(matches!(&results[0], StmtResult::Defined(n) if n == "recent"));
        assert!(matches!(&results[1], StmtResult::Value(Value::Int(_))));
    }

    #[test]
    fn type_errors_are_rejected_before_execution() {
        let s = pub_session();
        // year is an int; projecting .title from it is a definite error
        let err = s.query(r"{p.year.title | \p <- DB}").unwrap_err();
        assert!(matches!(err, kleisli_core::KError::Type(_)), "{err}");
    }

    #[test]
    fn unbound_names_are_reported() {
        let s = Session::new();
        assert!(matches!(
            s.query("{x | \\x <- NoSuchSource}"),
            Err(kleisli_core::KError::Unbound(_))
        ));
    }

    #[test]
    fn explain_mentions_rules_and_type() {
        let s = pub_session();
        let text = s
            .explain(r"{[t = p.title] | \p <- DB, p.year = 1989}")
            .unwrap();
        assert!(text.contains("== type =="), "{text}");
        assert!(text.contains("rules fired"), "{text}");
    }

    #[test]
    fn registered_sql_driver_gets_pushdown_end_to_end() {
        let fed = bio_federation(
            &GdbConfig {
                loci: 150,
                seed: 3,
                ..Default::default()
            },
            &GenBankConfig {
                extra_entries: 10,
                seed: 3,
                ..Default::default()
            },
            LatencyModel::instant(),
            LatencyModel::instant(),
        )
        .unwrap();
        let mut s = Session::new();
        s.register_driver(fed.gdb.clone());

        let loci22 = r#"{[locus_symbol = x, genbank_ref = y] |
            [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
            [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
            [loc_cyto_chrom_num = "22", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")}"#;

        let compiled = s.compile(loci22).unwrap();
        // The optimizer must have reconstructed a single SQL request.
        let mut sql_remotes = 0;
        compiled.optimized.visit(&mut |e| {
            if let Expr::Remote { request, .. } = e {
                if matches!(request, kleisli_core::DriverRequest::Sql { .. }) {
                    sql_remotes += 1;
                }
            }
        });
        assert_eq!(sql_remotes, 1, "pushdown failed: {}", compiled.optimized);

        s.reset_metrics();
        let result = s.run_compiled(&compiled).unwrap();
        let m = s.driver_metrics("GDB").unwrap();
        assert_eq!(m.requests, 1, "exactly one shipped query");
        assert_eq!(
            result.len(),
            Some(fed.gdb_data.expected_loci("22").len()),
            "pushdown result complete"
        );

        // Without pushdown but with local join operators the paper's
        // description holds: three table scans shipped, join done locally.
        s.reset_metrics();
        let local_joins = kleisli_opt::OptConfig {
            enable_pushdown: false,
            ..Default::default()
        };
        s.set_opt_config(local_joins);
        let baseline = s.query(loci22).unwrap();
        assert_eq!(baseline, result);
        let m2 = s.driver_metrics("GDB").unwrap();
        assert_eq!(m2.requests, 3, "without pushdown: three table scans");

        // With *no* optimization at all, the naive nested loops re-fetch
        // inner tables once per outer row — dramatically more requests.
        s.reset_metrics();
        s.set_opt_config(kleisli_opt::OptConfig::none());
        let naive = s.query(loci22).unwrap();
        assert_eq!(naive, result);
        let m3 = s.driver_metrics("GDB").unwrap();
        assert!(
            m3.requests > 50,
            "naive plan must re-fetch inner scans (got {})",
            m3.requests
        );
    }

    #[test]
    fn first_n_is_lazy_against_drivers() {
        let fed = bio_federation(
            &GdbConfig {
                loci: 5000,
                seed: 4,
                ..Default::default()
            },
            &GenBankConfig {
                extra_entries: 0,
                links_per_entry: 0,
                seed: 4,
                ..Default::default()
            },
            LatencyModel::instant(),
            LatencyModel::instant(),
        )
        .unwrap();
        let mut s = Session::new();
        s.register_driver(fed.gdb.clone());
        s.reset_metrics();
        let five = s
            .query_first_n(r#"{[s = l.locus_symbol] | \l <- GDB-Tab("locus")}"#, 5)
            .unwrap();
        assert_eq!(five.len(), 5);
        let m = s.driver_metrics("GDB").unwrap();
        // This federation's latency model ships rows instantly, so the
        // driver advertises `prefetch_rows: 0` (there is no per-row
        // latency to pipeline) and laziness stays strict: only the
        // demanded prefix crosses the driver boundary. With a per-row
        // cost the bound would loosen to prefix + prefetch buffer.
        assert!(
            m.rows_shipped <= 6,
            "streamed {} rows for 5 results",
            m.rows_shipped
        );
        assert_eq!(m.rows_prefetched, 0, "instant rows must not be prefetched");
    }
}
