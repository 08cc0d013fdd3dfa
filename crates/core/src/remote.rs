//! The one remote-driver shell: [`Remote<S>`] turns a blocking, data-only
//! [`Source`] into a pooled two-phase [`Driver`].
//!
//! Figure 2 of the paper makes the driver the system's one extension
//! point: log in, ship a request in the source's language, stream values
//! back. Everything *around* that — the registered name, the admission
//! gate and worker pool, the latency model, the traffic counters, the
//! submit/handle plumbing — is identical for every remote source, so it
//! lives here exactly once. **A new source is one file: implement
//! [`Source`]** and register `Remote::serve(name, source, latency)`; it
//! inherits pooling, row prefetch, batching, and (through the session)
//! resilience without mentioning them. The Sybase, Entrez and ACE
//! simulators and the test suites' [`crate::testutil::SlowDriver`] are all
//! instances of this shell, so the concurrency tests exercise the exact
//! submit path production uses.
//!
//! # The wire protocol, once
//!
//! Every wire request — a plain [`Driver::perform`] or a multi-key
//! [`Driver::batch`] — counts one `requests`, charges one request
//! latency, asks the source, and ships the rows through
//! [`charged_blocks`] (per-row latency and traffic accrue as rows are
//! packed, on the puller's clock). [`Driver::submit`] and
//! [`Driver::submit_batch`] route exactly those two functions through the
//! shell's [`WorkerPool`] — the only pool constructed anywhere in the
//! workspace — so one wire request is one pool job is one admission
//! ticket, whether it answers one key or sixteen. Only `submit`
//! prefetches rows (up to the advertised window; [`Driver::submit_full`]
//! lifts it for a reply that will be read to its end): a batch reply is
//! materialized on the worker anyway.
//!
//! # A full fetch is as wide as its reply
//!
//! One connection ships one reply at its row clock, so a large scan read
//! to its end leaves the rest of the source's admitted connections idle.
//! [`Driver::split_full`] is how the evaluator asks to use them: a
//! source that can answer a request piecewise ([`Source::split`] — GDB
//! answers a table scan by consecutive row ranges) returns the parts, and
//! the evaluator submits each as a full fetch of its own, ordinary in
//! every respect — one job, one ticket, its own retry, hedge and breaker
//! charge. The shell asks only a source that prefetches
//! (`prefetch_rows > 0`, which every source routes through
//! [`LatencyModel::effective_prefetch`]): the same gate that lifts the
//! window, for the same reason.

use std::ops::Deref;
use std::sync::Arc;

use crate::batch::SharedReply;
use crate::block::{blocks_of_rows, charged_blocks, BlockStream};
use crate::driver::{
    BatchCompletion, BatchReply, Capabilities, Driver, DriverMetrics, DriverRequest,
    MetricsSnapshot, RequestGate, RequestHandle, TableStats,
};
use crate::error::KResult;
use crate::latency::LatencyModel;
use crate::pool::{WorkerPool, FULL_FETCH};
use crate::value::Value;

/// The blocking, data-only half of a remote driver: what the source can
/// do and how it answers a request. A source owns its data and nothing
/// else — no handles, pool, metrics or name; [`Remote`] supplies those.
pub trait Source: Send + Sync + 'static {
    /// What the optimizer may push to this source and the admission
    /// budget the shell enforces for it (the shell sizes its pool from
    /// [`Capabilities::concurrency_limit`], once). `latency` is the
    /// shell's model, so a source can route its row-prefetch ceiling
    /// through [`LatencyModel::effective_prefetch`].
    fn capabilities(&self, latency: &LatencyModel) -> Capabilities;

    /// Answer one request with its full result rows. `driver` is the name
    /// the source is registered under, for labelling errors.
    fn answer(&self, driver: &str, req: &DriverRequest) -> KResult<Vec<Value>>;

    /// Answer many keys in one pass — one wire round-trip. The outer
    /// `Err` fails the whole wire request (what the retry loop acts on);
    /// an inner `Err` fails only that key. The default answers key by
    /// key; a source with a genuine set-at-a-time path (an SQL IN-list
    /// scan) overrides it.
    fn answer_batch(
        &self,
        driver: &str,
        reqs: &[DriverRequest],
    ) -> KResult<Vec<KResult<Vec<Value>>>> {
        Ok(reqs.iter().map(|req| self.answer(driver, req)).collect())
    }

    /// Statistics for a named table, when the source keeps any.
    fn table_stats(&self, _table: &str) -> Option<TableStats> {
        None
    }

    /// How a full fetch of `req` splits ([`Driver::split_full`]), for a
    /// source that can answer a request piecewise: `window` is the
    /// advertised [`Capabilities::prefetch_rows`] — a reply no longer
    /// than that gains nothing from a second connection — and `width` the
    /// admission limit, the most parts worth making. Asked only of a
    /// source that prefetches. The default splits nothing.
    fn split(&self, _req: &DriverRequest, _window: usize, _width: usize) -> Vec<DriverRequest> {
        Vec::new()
    }
}

/// The parts of a scan of `table`, `rows` rows long, for a source that
/// answers [`DriverRequest::TableRows`] — the one rule of how a table
/// splits ([`Source::split`]'s `window` and `width`): nothing while the
/// reply fits one window, else `min(ceil(rows / window), width)`
/// consecutive ranges of equal length. The last is open-ended, so a
/// table that grew since it was counted loses no row. A function of the
/// row count and the advertisement alone: the same table always costs
/// the same requests.
pub fn row_ranges(
    table: &str,
    columns: &Option<Vec<String>>,
    rows: u64,
    window: usize,
    width: usize,
) -> Vec<DriverRequest> {
    let parts = rows.div_ceil(window.max(1) as u64).min(width as u64);
    if parts < 2 {
        return Vec::new();
    }
    let each = rows.div_ceil(parts);
    (0..parts)
        .map(|i| DriverRequest::TableRows {
            table: table.to_string(),
            columns: columns.clone(),
            from: i * each,
            to: (i + 1 < parts).then_some((i + 1) * each),
        })
        .collect()
}

/// What the pool's workers share with the shell: the source and
/// everything a wire request is charged to.
struct Wire<S> {
    name: String,
    source: S,
    latency: Arc<LatencyModel>,
    metrics: Arc<DriverMetrics>,
}

impl<S: Source> Wire<S> {
    fn ship(&self, rows: Vec<Value>) -> BlockStream {
        charged_blocks(rows, Arc::clone(&self.latency), Arc::clone(&self.metrics))
    }

    fn perform(&self, req: &DriverRequest) -> KResult<BlockStream> {
        self.metrics.record_request();
        self.latency.charge_request();
        Ok(self.ship(self.source.answer(&self.name, req)?))
    }

    fn batch(&self, reqs: &[DriverRequest]) -> KResult<BatchReply> {
        self.metrics.record_request();
        self.latency.charge_request();
        let per_key = self.source.answer_batch(&self.name, reqs)?;
        Ok(per_key
            .into_iter()
            .map(|rows| rows.map(|rows| SharedReply::materialize(self.ship(rows))))
            .collect())
    }
}

/// A [`Source`] served as a remote driver (module docs). Dereferences to
/// the source, so its loaders (`with_db`, `with_division`, ...) are
/// called on the shell directly.
pub struct Remote<S: Source> {
    wire: Arc<Wire<S>>,
    pool: WorkerPool,
    /// The source's advertised [`Capabilities::prefetch_rows`], read once.
    prefetch_rows: usize,
}

impl<S: Source> Remote<S> {
    /// Serve `source` under the registered name `name`, charging
    /// `latency` per request and per shipped row.
    pub fn serve(name: impl Into<String>, source: S, latency: LatencyModel) -> Remote<S> {
        let name = name.into();
        let metrics = Arc::new(DriverMetrics::default());
        let caps = source.capabilities(&latency);
        let limit = caps.concurrency_limit();
        let pool = WorkerPool::new(name.clone(), limit, Some(Arc::clone(&metrics)));
        Remote {
            prefetch_rows: caps.prefetch_rows,
            wire: Arc::new(Wire {
                name,
                source,
                latency: Arc::new(latency),
                metrics,
            }),
            pool,
        }
    }

    /// The latency model every wire request and shipped row is charged to.
    pub fn latency(&self) -> &Arc<LatencyModel> {
        &self.wire.latency
    }

    /// The live traffic counters behind [`Driver::metrics`].
    pub fn counters(&self) -> &Arc<DriverMetrics> {
        &self.wire.metrics
    }

    /// The admission gate every wire request passes through.
    pub fn gate(&self) -> &Arc<RequestGate> {
        self.pool.gate()
    }

    /// Worker threads created over the shell's lifetime (bounded by the
    /// admission limit).
    pub fn threads_spawned(&self) -> usize {
        self.pool.threads_spawned()
    }

    /// Abandoned workers still wedged in a timed-out request right now.
    pub fn orphans(&self) -> usize {
        self.pool.orphans()
    }

    /// One wire request through the pool, its reply prefetched up to
    /// `window` rows ahead of the consumer.
    fn pooled(&self, req: &DriverRequest, window: usize) -> RequestHandle {
        let wire = Arc::clone(&self.wire);
        let req = req.clone();
        self.pool.submit(window, move || wire.perform(&req))
    }
}

impl<S: Source> Deref for Remote<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.wire.source
    }
}

impl<S: Source> Driver for Remote<S> {
    fn name(&self) -> &str {
        &self.wire.name
    }

    fn capabilities(&self) -> Capabilities {
        self.wire.source.capabilities(&self.wire.latency)
    }

    fn perform(&self, req: &DriverRequest) -> KResult<BlockStream> {
        self.wire.perform(req)
    }

    fn submit(&self, req: &DriverRequest) -> KResult<RequestHandle> {
        Ok(self.pooled(req, self.prefetch_rows))
    }

    fn submit_full(&self, req: &DriverRequest) -> KResult<RequestHandle> {
        // Only a driver that prefetches at all lifts its window: with
        // `prefetch_rows = 0` rows ship on the consumer's clock, always.
        let window = if self.prefetch_rows > 0 { FULL_FETCH } else { 0 };
        Ok(self.pooled(req, window))
    }

    fn split_full(&self, req: &DriverRequest) -> Vec<DriverRequest> {
        // The gate `submit_full` lifts its window by: where rows ship on
        // the consumer's clock (virtual-clock experiments, zero-latency
        // sources) there is no transfer to overlap, and one scan stays
        // one request.
        if self.prefetch_rows == 0 {
            return Vec::new();
        }
        self.wire
            .source
            .split(req, self.prefetch_rows, self.pool.limit())
    }

    fn nonblocking_submit(&self) -> bool {
        true
    }

    fn batch(&self, reqs: &[DriverRequest]) -> KResult<BatchReply> {
        self.wire.batch(reqs)
    }

    fn submit_batch(
        &self,
        reqs: Vec<DriverRequest>,
        complete: BatchCompletion,
    ) -> Option<RequestHandle> {
        let wire = Arc::clone(&self.wire);
        // One pool job == one admission ticket for the whole wire
        // request, however many logical keys it answers.
        Some(self.pool.submit(0, move || {
            complete(wire.batch(&reqs));
            Ok(blocks_of_rows(Box::new(std::iter::empty())))
        }))
    }

    fn table_stats(&self, table: &str) -> Option<TableStats> {
        self.wire.source.table_stats(table)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.wire.metrics.snapshot()
    }

    fn reset_metrics(&self) {
        self.wire.metrics.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::KError;
    use std::time::{Duration, Instant};

    /// Answers `Call` requests by function name: `"panic"` panics,
    /// `"hang"` outlives any test deadline, anything else yields one row.
    struct Scripted {
        limit: usize,
    }

    impl Source for Scripted {
        fn capabilities(&self, _latency: &LatencyModel) -> Capabilities {
            Capabilities {
                max_concurrent_requests: self.limit,
                ..Capabilities::default()
            }
        }

        fn answer(&self, _driver: &str, req: &DriverRequest) -> KResult<Vec<Value>> {
            match req.describe().as_str() {
                "call panic" => panic!("source bug"),
                "call hang" => std::thread::sleep(Duration::from_millis(300)),
                _ => {}
            }
            Ok(vec![Value::Int(1)])
        }
    }

    fn call(function: &str) -> DriverRequest {
        DriverRequest::Call {
            function: function.into(),
            arg: Value::Unit,
        }
    }

    #[test]
    fn pool_errors_name_the_registered_driver() {
        let gdb = Remote::serve("GDB", Scripted { limit: 2 }, LatencyModel::instant());
        // a panic while performing the request
        let err = gdb
            .submit(&call("panic"))
            .unwrap()
            .wait()
            .err()
            .expect("panicked");
        assert_eq!(
            err.to_string(),
            "driver 'GDB': driver panicked while performing the request"
        );
        // a missed deadline
        let hung = gdb.submit(&call("hang")).unwrap();
        let err = hung
            .wait_deadline(Instant::now() + Duration::from_millis(10))
            .err()
            .expect("timed out");
        assert!(
            matches!(&err, KError::Timeout { driver, .. } if driver == "GDB"),
            "{err}"
        );
        // a panic while a pool worker streams rows ahead of the consumer
        let rows: Vec<_> = gdb
            .pool
            .submit(4, || {
                Ok(blocks_of_rows(Box::new((0..3).map(|i| match i {
                    0 => Ok(Value::Int(i)),
                    _ => panic!("row stream bug"),
                }))))
            })
            .wait()
            .unwrap()
            .collect();
        assert_eq!(
            rows[1].as_ref().unwrap_err().to_string(),
            "driver 'GDB': driver panicked while streaming rows"
        );
        let t0 = Instant::now();
        while gdb.gate().in_flight() != 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "a ticket leaked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_zero_concurrency_advertisement_gets_a_serial_pool() {
        let drv = Remote::serve("S", Scripted { limit: 0 }, LatencyModel::instant());
        assert_eq!(drv.gate().limit(), 1, "0 normalizes to strictly serial");
        let handles: Vec<_> = (0..4).map(|_| drv.submit(&call("row")).unwrap()).collect();
        for h in handles {
            assert_eq!(h.wait().unwrap().count(), 1);
        }
        assert_eq!(drv.threads_spawned(), 1);
        assert_eq!(drv.metrics().requests, 4);
    }
}
