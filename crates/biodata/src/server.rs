//! A local in-memory `Driver` over generated biological data — the
//! simplest citizen of the two-phase driver API.
//!
//! Unlike the simulated remote servers (Sybase/Entrez/ACE), a local
//! source has no latency worth hiding, so it implements **only**
//! [`Driver::perform`] and inherits the default blocking `submit`
//! adapter: submission performs inline and returns an already-completed
//! [`kleisli_core::RequestHandle`]. This is the "simple drivers stay one
//! method" end of the API; see `kleisli_core::driver` for the lifecycle.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use kleisli_core::{
    blocks_of_rows, BlockStream, Capabilities, Driver, DriverMetrics, DriverRequest,
    DriverResilience, KError, KResult, MetricsSnapshot, TableStats, Value,
};

/// Named in-memory collections served as tables: `MemorySource::new("Pubs")
/// .with_table("publications", publications(100, 7))` answers
/// `TableScan { table: "publications" }` requests.
pub struct MemorySource {
    name: String,
    /// Behind a mutex so a registered (hence shared, immutable `self`)
    /// source can be refreshed in place with [`MemorySource::replace_table`]
    /// — the cache-invalidation tests model "the source changed
    /// underneath the mediator" this way.
    tables: Mutex<HashMap<String, Arc<Vec<Value>>>>,
    metrics: Arc<DriverMetrics>,
    resilience: OnceLock<Arc<DriverResilience>>,
}

impl MemorySource {
    pub fn new(name: impl Into<String>) -> MemorySource {
        MemorySource {
            name: name.into(),
            tables: Mutex::new(HashMap::new()),
            metrics: Arc::default(),
            resilience: OnceLock::new(),
        }
    }

    fn tables(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Vec<Value>>>> {
        self.tables.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a collection value under a table name (builder-style).
    /// Non-collection values are wrapped as a single-row table.
    pub fn with_table(self, table: impl Into<String>, rows: Value) -> MemorySource {
        self.tables()
            .insert(table.into(), Arc::new(table_rows(rows)));
        self
    }

    /// Replace (or create) a table's contents in place — the "refreshed
    /// source" half of a FLUSH round-trip. Scans already streaming keep
    /// the old row vector alive through their own `Arc`s; new scans see
    /// the new rows.
    pub fn replace_table(&self, table: impl Into<String>, rows: Value) {
        self.tables()
            .insert(table.into(), Arc::new(table_rows(rows)));
    }

    /// A source named `Pubs` serving the paper's publication database as
    /// the `publications` table.
    pub fn publications(n: usize, seed: u64) -> MemorySource {
        MemorySource::new("Pubs").with_table("publications", crate::publications(n, seed))
    }
}

/// Rows of a table value; non-collection values become one-row tables.
fn table_rows(rows: Value) -> Vec<Value> {
    match rows.elements() {
        Some(es) => es.to_vec(),
        None => vec![rows],
    }
}

impl Driver for MemorySource {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> Capabilities {
        // Local and in-memory: the default (serial) admission budget is
        // fine — there is no latency to overlap — and the default
        // `prefetch_rows: 0` keeps rows fully lazy (a zero window means
        // the prefetch buffer never exists at all); with the inline
        // `submit` adapter there is no pool worker to prefetch on, and
        // row "transfer" is an Arc-backed vector read anyway.
        Capabilities::default()
    }

    fn perform(&self, req: &DriverRequest) -> KResult<BlockStream> {
        self.metrics.record_request();
        let table = match req {
            DriverRequest::TableScan {
                table,
                columns: None,
            } => table,
            DriverRequest::TableScan {
                columns: Some(_), ..
            } => {
                return Err(KError::driver(
                    &self.name,
                    "memory source does not project columns; scan whole tables",
                ))
            }
            other => {
                return Err(KError::driver(
                    &self.name,
                    format!("unsupported request: {}", other.describe()),
                ))
            }
        };
        let rows = self
            .tables()
            .get(table)
            .cloned()
            .ok_or_else(|| KError::driver(&self.name, format!("no table '{table}'")))?;
        // A local source ships nothing over a wire; the whole table is
        // accounted at request time and the stream shares the row vector.
        for v in rows.iter() {
            self.metrics.record_row(v.approx_size());
        }
        let mut i = 0;
        Ok(blocks_of_rows(Box::new(std::iter::from_fn(move || {
            let out = rows.get(i).cloned().map(Ok);
            i += 1;
            out
        }))))
    }

    fn table_stats(&self, table: &str) -> Option<TableStats> {
        self.tables().get(table).map(|rows| TableStats {
            rows: rows.len() as u64,
            ..TableStats::default()
        })
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn resilience(&self) -> &Arc<DriverResilience> {
        self.resilience
            .get_or_init(|| DriverResilience::of(self, Arc::clone(&self.metrics)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleisli_core::RequestStatus;

    #[test]
    fn one_method_driver_submits_through_the_default_adapter() {
        let src = MemorySource::publications(12, 1995);
        let handle = src
            .submit(&DriverRequest::TableScan {
                table: "publications".into(),
                columns: None,
            })
            .unwrap();
        // the default adapter completes inline
        assert_eq!(handle.poll(), RequestStatus::Ready);
        let rows: Vec<Value> = handle.wait().unwrap().collect::<KResult<_>>().unwrap();
        assert_eq!(rows.len(), 12);
        assert_eq!(src.metrics().requests, 1);
        assert_eq!(src.metrics().rows_shipped, 12);
    }

    #[test]
    fn unknown_tables_and_requests_error() {
        let src = MemorySource::new("M").with_table("t", Value::set(vec![Value::Int(1)]));
        assert!(src
            .perform(&DriverRequest::TableScan {
                table: "missing".into(),
                columns: None
            })
            .is_err());
        assert!(src
            .perform(&DriverRequest::EntrezLinks {
                db: "na".into(),
                uid: 1
            })
            .is_err());
        assert_eq!(src.table_stats("t").unwrap().rows, 1);
        assert!(src.table_stats("missing").is_none());
    }
}
