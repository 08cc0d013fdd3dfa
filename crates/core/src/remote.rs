//! The one remote-driver shell: [`Remote<S>`] turns a blocking, data-only
//! [`Source`] into a pooled two-phase [`Driver`].
//!
//! Figure 2 of the paper makes the driver the system's one extension
//! point: log in, ship a request in the source's language, stream values
//! back. Everything *around* that — the registered name, the admission
//! gate and worker pool, the latency model, the traffic counters, the
//! fetch/handle plumbing — is identical for every remote source, so it
//! lives here exactly once. **A new source is one file: implement
//! [`Source`]** and register `Remote::serve(name, source, latency)`; it
//! inherits pooling, row prefetch, batching and resilience — the one
//! [`DriverResilience`] state every session shares — without mentioning
//! them. The Sybase, Entrez and ACE
//! simulators and the test suites' [`crate::testutil::SlowDriver`] are all
//! instances of this shell, so the concurrency tests exercise the exact
//! fetch path production uses.
//!
//! # The wire protocol, once
//!
//! Every wire request — one request, or a [`Fetch::Batch`] of many keys —
//! counts one `requests`, charges one request latency, asks the source,
//! and ships the rows through [`charged_blocks`] (per-row latency and
//! traffic accrue as rows are packed, on the puller's clock).
//! [`Driver::fetch`] runs each wire request as one job of the shell's
//! [`WorkerPool`] — the only pool constructed anywhere in the workspace —
//! so one wire request is one pool job is one admission ticket, whether it
//! answers one key or sixteen. A [`Fetch::Window`] prefetches up to the
//! advertised window, a [`Fetch::Full`] lifts it for a reply that will be
//! read to its end, and a batch ships no rows ahead: the resilience layer
//! reads its keys' replies whole, on the worker that ran it.
//!
//! # A full fetch is as wide as its reply, and siblings share the width
//!
//! One connection ships one reply at its row clock, so a large scan read
//! to its end leaves the rest of the source's admitted connections idle.
//! [`Driver::parts`] is how a full fetch uses them: a source that can
//! answer a request piecewise ([`Source::split`] — GDB answers a table
//! scan by consecutive row ranges) names the parts, and each is fetched
//! as a full fetch of its own, ordinary in every respect — one job, one
//! ticket, its own retry and breaker charge — and read back in
//! order (`PartBlocks`). The parts of every request that starts
//! together are asked for at once, and they fill one wave of the
//! connections ([`apportion`]): a lone scan takes all of them, and three
//! sibling scans share them instead of each filling them alone and
//! leaving a straggler wave behind. Each part more is one request more:
//! paid in parallel while no other client wants the connections, queued
//! ahead of that client's requests when one does. The shell
//! asks only a source that prefetches (`prefetch_rows > 0`, which every
//! source routes through [`LatencyModel::effective_prefetch`]): the same
//! gate that lifts the window, for the same reason.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::block::{
    blocks_of_rows, charged_blocks, lazy_blocks, BlockSource, BlockStream, ValueBlock,
};
use crate::driver::{
    Capabilities, Driver, DriverMetrics, DriverRequest, Fetch, MetricsSnapshot, ReqShared,
    RequestGate, RequestHandle, TableStats,
};
use crate::error::{KError, KResult};
use crate::latency::LatencyModel;
use crate::pool::{WorkerPool, FULL_FETCH};
use crate::resilience::DriverResilience;
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

    /// How full fetches of `reqs`, starting together, split
    /// ([`Driver::parts`]: one answer per request, empty = not at all),
    /// for a source that can answer a request piecewise: `window`
    /// is the advertised [`Capabilities::prefetch_rows`] — a reply no
    /// longer than that fits one buffer and stays one request — and
    /// `width` the admission limit, one wave of which the requests share
    /// ([`row_ranges`]). Asked only of a source that prefetches. The
    /// default splits nothing.
    fn split(
        &self,
        reqs: &[&DriverRequest],
        _window: usize,
        _width: usize,
    ) -> Vec<Vec<DriverRequest>> {
        vec![Vec::new(); reqs.len()]
    }
}

/// How many parts each of several replies starting together on one
/// source is fetched as — the one rule of how siblings share a source's
/// `width` connections, a function of the row counts (`None`: a reply
/// that cannot be split, one part) and the advertisement alone, so the
/// same requests always cost the same round-trips.
///
/// Replies starting together share **one wave** of the width. Each is
/// one part to begin with, and stays one if it cannot be split or fits
/// one `window` (a reply that fits one buffer is one request). The
/// connections left in the wave (`width` minus the replies) go one at a
/// time to the splittable reply whose longest part is longest (the
/// earlier one on a tie), none past as many parts as it has rows: a lone
/// 100-row scan at window 32, width 8 is 8 parts of 13 rows, and (100,
/// 80, 100) together are 3 + 2 + 3. More replies than connections are one
/// part each. The wave waits one request latency plus its longest part's
/// rows, and a part more shortens that part or keeps it. Two costs come
/// with it. A part more is a request more, which is free only while no
/// other client wants the connection: clients contending for one source
/// lose throughput to it (ARCHITECTURE §5). And one wave is slower than
/// several when the replies do not share the width evenly and are long:
/// (1000, 1000, 1000) at width 8 is 3 + 3 + 2, the longest part 500
/// rows, where three waves of eight parts would each wait for 125 — one
/// wave loses once the rows it adds cost more than the round-trips it
/// saves.
pub fn apportion(rows: &[Option<u64>], window: usize, width: usize) -> Vec<u64> {
    let cap = |rows: &Option<u64>| rows.filter(|r| *r > window as u64).unwrap_or(1);
    let caps: Vec<u64> = rows.iter().map(cap).collect();
    let mut parts = vec![1; rows.len()];
    for _ in rows.len()..width {
        let longest = |i: &usize| rows[*i].map_or(0, |r| r.div_ceil(parts[*i]));
        let Some(next) = (0..rows.len())
            .filter(|i| parts[*i] < caps[*i])
            .min_by_key(|i| Reverse(longest(i)))
        else {
            break;
        };
        parts[next] += 1;
    }
    parts
}

/// The parts each table scan among `reqs` — full fetches starting
/// together — is fetched as, for a source that answers
/// [`DriverRequest::TableRows`] ([`Source::split`]'s contract; `rows_of`
/// counts a table's rows, `None` for one it does not hold). A scan given
/// `P ≥ 2` parts by [`apportion`] becomes consecutive ranges of
/// `ceil(rows / P)` rows, as many as hold a counted row — so none is
/// planned empty — the last open-ended, so a table that grew since it
/// was counted loses no row. Anything else is not split.
pub fn row_ranges(
    reqs: &[&DriverRequest],
    window: usize,
    width: usize,
    rows_of: impl Fn(&str) -> Option<u64>,
) -> Vec<Vec<DriverRequest>> {
    let rows: Vec<Option<u64>> = reqs
        .iter()
        .map(|req| match req {
            DriverRequest::TableScan { table, .. } => rows_of(table),
            _ => None,
        })
        .collect();
    let parts = apportion(&rows, window, width);
    let ranges = |((req, rows), parts): ((&&DriverRequest, Option<u64>), u64)| match (req, rows) {
        (DriverRequest::TableScan { table, columns }, Some(rows)) if parts >= 2 => {
            let each = rows.div_ceil(parts);
            let last = rows.div_ceil(each) - 1;
            (0..=last)
                .map(|i| DriverRequest::TableRows {
                    table: table.clone(),
                    columns: columns.clone(),
                    from: i * each,
                    to: (i < last).then_some((i + 1) * each),
                })
                .collect()
        }
        _ => Vec::new(),
    };
    reqs.iter().zip(rows).zip(parts).map(ranges).collect()
}

/// One reply fetched as consecutive parts, each a request of its own
/// ([`Driver::parts`]): the parts' streams back to back, in part order.
/// Unlike a chain of operands — each with a meaning of its own — this is
/// *one* reply: the first error block ends it, and the parts behind the
/// error are dropped with it, which cancels their requests, so no row
/// ever follows an error.
pub(crate) struct PartBlocks {
    pub(crate) parts: VecDeque<BlockStream>,
}

impl BlockSource for PartBlocks {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        loop {
            match self.parts.front_mut()?.next_block(max_rows) {
                Some(block) => {
                    if block.ends_with_err() {
                        self.parts.clear();
                    }
                    return Some(block);
                }
                None => drop(self.parts.pop_front()),
            }
        }
    }
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

    /// One wire request for many keys, answering each key with its rows
    /// — shipped as its reader pulls them — or its own failure, or every
    /// key with the wire request's.
    fn batch(&self, reqs: &[DriverRequest], keys: &[Arc<ReqShared>]) {
        self.metrics.record_request();
        self.latency.charge_request();
        match self.source.answer_batch(&self.name, reqs) {
            Ok(replies) => {
                let failed = |e| lazy_blocks(|| Err(e));
                for (key, rows) in keys.iter().zip(replies) {
                    key.resolve_stream(Ok(rows.map_or_else(failed, |rows| self.ship(rows))));
                }
            }
            Err(e) => keys.iter().for_each(|key| _ = key.resolve_err(e.clone())),
        }
    }
}

/// The keys of one batched wire request, one handle's state each. Any
/// still unanswered when the request lets go of them — it panicked, it
/// never ran, or the source answered fewer keys — fail then.
struct Keys(Vec<Arc<ReqShared>>);

impl Drop for Keys {
    fn drop(&mut self) {
        for key in &self.0 {
            key.resolve_err(KError::driver(&key.driver, "batched request ended without an answer"));
        }
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
    /// The one resilience state, built on first use ([`Driver::resilience`]).
    resilience: OnceLock<Arc<DriverResilience>>,
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
            resilience: OnceLock::new(),
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

    /// `reqs` as one wire request — one pool job, so one admission
    /// ticket however many keys — whose reply answers a handle a key.
    /// Nobody cancels a batch: it runs to its end once submitted.
    fn batched(&self, reqs: &[DriverRequest]) -> Vec<KResult<RequestHandle>> {
        let key = |_| Arc::new(ReqShared::pending(&self.wire.name, None));
        let keys = Keys(reqs.iter().map(key).collect());
        let handle = |key: &Arc<ReqShared>| Ok(RequestHandle::from_parts(Arc::clone(key), None));
        let handles = keys.0.iter().map(handle).collect();
        let (wire, reqs) = (Arc::clone(&self.wire), reqs.to_vec());
        let job = move || {
            wire.batch(&reqs, &keys.0);
            Ok(blocks_of_rows(Box::new(std::iter::empty())))
        };
        self.pool.submit(0, job).then(drop);
        handles
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

    fn fetch(&self, reqs: &[DriverRequest], how: Fetch) -> Vec<KResult<RequestHandle>> {
        let window = match how {
            Fetch::Window => self.prefetch_rows,
            // Only a driver that prefetches at all lifts its window: with
            // `prefetch_rows = 0` rows ship on the consumer's clock, always.
            Fetch::Full if self.prefetch_rows > 0 => FULL_FETCH,
            Fetch::Full => 0,
            Fetch::Batch => return self.batched(reqs),
        };
        reqs.iter().map(|req| Ok(self.pooled(req, window))).collect()
    }

    fn parts(&self, reqs: &[&DriverRequest]) -> Vec<Vec<DriverRequest>> {
        // The gate a full fetch lifts its window by: where rows ship on
        // the consumer's clock (virtual-clock experiments, zero-latency
        // sources) there is no transfer to overlap, and one scan stays
        // one request.
        if self.prefetch_rows == 0 {
            return vec![Vec::new(); reqs.len()];
        }
        self.wire
            .source
            .split(reqs, self.prefetch_rows, self.pool.limit())
    }

    fn nonblocking_submit(&self) -> bool {
        true
    }

    fn table_stats(&self, table: &str) -> Option<TableStats> {
        self.wire.source.table_stats(table)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.wire.metrics.snapshot()
    }

    fn resilience(&self) -> &Arc<DriverResilience> {
        self.resilience.get_or_init(|| DriverResilience::of(self, Arc::clone(self.counters())))
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
        let gdb = Arc::new(Remote::serve("GDB", Scripted { limit: 2 }, LatencyModel::instant()));
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
        let driver: crate::DriverRef = Arc::clone(&gdb) as _;
        let deadline = Some(Instant::now() + Duration::from_millis(10));
        let mut hung = gdb.resilience().fetch(&driver, &[call("hang")], Fetch::Window, deadline, None);
        let err = hung.pop().unwrap().unwrap().wait().err().expect("timed out");
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
    fn siblings_share_the_width_in_whole_waves() {
        let some = |rows: &[u64]| rows.iter().copied().map(Some).collect::<Vec<_>>();
        // `row_stream`: alone, each scan would fill the eight connections;
        // together the three share one wave.
        assert_eq!(apportion(&some(&[100]), 32, 8), [8]);
        assert_eq!(apportion(&some(&[100, 80, 100]), 32, 8), [3, 2, 3]);
        assert_eq!(apportion(&some(&[100, 80]), 32, 8), [4, 4]);
        assert_eq!(apportion(&some(&[100, 100, 100]), 8, 4), [2, 1, 1]);
        // A reply that fits a window, or cannot be split, is one part; a
        // reply is never more parts than rows.
        assert_eq!(apportion(&some(&[32, 33]), 32, 8), [1, 7]);
        assert_eq!(apportion(&[Some(100), None, Some(100)], 32, 8), [4, 1, 3]);
        assert_eq!(apportion(&some(&[0, 2, 3]), 0, 8), [1, 2, 3]);
        // More replies than connections: one part each.
        assert_eq!(apportion(&some(&[40, 10, 10, 10, 10]), 32, 4), [1; 5]);
        // Ties go to the earlier reply.
        assert_eq!(apportion(&some(&[100, 100, 100]), 32, 8), [3, 3, 2]);
        // A known cost: replies that do not divide the width get uneven
        // parts. Three 1000-row scans are 3 + 3 + 2, the longest part 500
        // rows, where three waves of 8 + 8 + 8 would each wait for 125:
        // one wave loses whenever 125 rows cost more than two round-trips.
        assert_eq!(apportion(&some(&[1000, 1000, 1000]), 32, 8), [3, 3, 2]);
    }

    fn scan(table: &str) -> DriverRequest {
        DriverRequest::TableScan {
            table: table.into(),
            columns: None,
        }
    }

    /// The `(from, to)` of each part `row_ranges` cuts a lone scan of
    /// `rows` rows into.
    fn ranges_of(rows: u64, window: usize, width: usize) -> Vec<(u64, Option<u64>)> {
        let split = row_ranges(&[&scan("t")], window, width, |_| Some(rows));
        assert_eq!(split.len(), 1);
        let bounds = |part: &DriverRequest| match part {
            DriverRequest::TableRows { from, to, .. } => (*from, *to),
            other => panic!("not a row range: {other:?}"),
        };
        split[0].iter().map(bounds).collect()
    }

    #[test]
    fn no_range_is_planned_past_the_counted_rows() {
        // Four parts of ceil(5 / 4) = 2 rows would be 0–2, 2–4, 4–6 and
        // an empty 6–∞: the part count follows from the part length.
        assert_eq!(ranges_of(5, 1, 4), [(0, Some(2)), (2, Some(4)), (4, None)]);
        assert_eq!(ranges_of(9, 2, 4), [(0, Some(3)), (3, Some(6)), (6, None)]);
        assert_eq!(
            ranges_of(100, 32, 4),
            [(0, Some(25)), (25, Some(50)), (50, Some(75)), (75, None)]
        );
        assert!(ranges_of(32, 32, 8).is_empty());
        // SQL and tables the source does not hold are not split.
        let sql = DriverRequest::Sql {
            query: "select 1".into(),
        };
        let split = row_ranges(&[&sql, &scan("gone"), &scan("t")], 32, 8, |table| {
            (table == "t").then_some(100)
        });
        assert_eq!(split.iter().map(Vec::len).collect::<Vec<_>>(), [0, 0, 6]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Alone, a reply past one window is `min(rows, width)` parts —
        /// the whole wave, or one row a part — and one otherwise, for
        /// every row count, window and width.
        #[test]
        fn a_lone_reply_is_as_wide_as_it_is_long(
            rows in 0u64..3000,
            window in 1usize..70,
            width in 1usize..12,
        ) {
            let expected = if rows > window as u64 { rows.min(width as u64) } else { 1 };
            proptest::prop_assert_eq!(apportion(&[Some(rows)], window, width), [expected]);
            proptest::prop_assert_eq!(apportion(&[None], window, width), [1]);
            // ... and its ranges tile the counted rows: none empty, the
            // last open-ended.
            let ranges = ranges_of(rows, window, width);
            proptest::prop_assert!(ranges.len() != 1 && ranges.len() as u64 <= expected);
            let mut next = 0;
            for (i, (from, to)) in ranges.iter().enumerate() {
                proptest::prop_assert_eq!(*from, next);
                proptest::prop_assert!(*from < rows, "part {i} of {ranges:?} ships nothing");
                proptest::prop_assert_eq!(to.is_none(), i + 1 == ranges.len());
                next = to.unwrap_or(rows);
                proptest::prop_assert!(next > *from);
            }
        }

        /// Replies starting together: one wave of the width (never fewer
        /// than one part a reply), never more parts than alone, placed so
        /// that moving any one part would not shorten the longest.
        #[test]
        fn replies_starting_together_share_the_width(
            replies in proptest::collection::vec((0u32..5, 0u64..600), 1..8),
            window in 1usize..70,
            width in 1usize..12,
        ) {
            // One reply in five cannot be split.
            let rows: Vec<Option<u64>> =
                replies.iter().map(|(kind, rows)| (*kind > 0).then_some(*rows)).collect();
            let alone: Vec<u64> =
                rows.iter().map(|r| apportion(&[*r], window, width)[0]).collect();
            let parts = apportion(&rows, window, width);
            proptest::prop_assert_eq!(&parts, &apportion(&rows, window, width));
            proptest::prop_assert_eq!(parts.len(), rows.len());
            for i in 0..rows.len() {
                let (given, alone) = (parts[i], alone[i]);
                proptest::prop_assert!(1 <= given && given <= alone, "{parts:?} of {rows:?}");
            }
            // What each reply could take: as many parts as rows, past a
            // window.
            let caps: u64 = rows
                .iter()
                .map(|r| r.filter(|r| *r > window as u64).unwrap_or(1))
                .sum();
            let wave = caps.min(width as u64).max(rows.len() as u64);
            proptest::prop_assert_eq!(parts.iter().sum::<u64>(), wave, "{parts:?}");
            let longest = |parts: &[u64]| {
                let each = rows.iter().zip(parts).map(|(r, p)| r.map_or(0, |r| r.div_ceil(*p)));
                each.max().unwrap()
            };
            for from in (0..rows.len()).filter(|i| parts[*i] > 1) {
                for to in (0..rows.len()).filter(|j| *j != from && parts[*j] < alone[*j]) {
                    let mut moved = parts.clone();
                    moved[from] -= 1;
                    moved[to] += 1;
                    proptest::prop_assert!(
                        longest(&moved) >= longest(&parts),
                        "{parts:?} -> {moved:?} of {rows:?}"
                    );
                }
            }
            // Equal replies: the earlier never has fewer parts.
            for j in 0..rows.len() {
                for i in (0..j).filter(|i| rows[*i] == rows[j]) {
                    proptest::prop_assert!(parts[i] >= parts[j], "{parts:?} of {rows:?}");
                }
            }
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
