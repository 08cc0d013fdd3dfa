//! Per-driver worker pools and the bounded row-prefetch buffer: the
//! row-pipelined half of the two-phase driver API.
//!
//! # The request-shaped client of the one scheduler
//!
//! A [`WorkerPool`] owns no threads of its own. Its workers are a
//! **private [`Executor`]** named after the source and exactly
//! [`crate::driver::Capabilities::concurrency_limit`] wide — private,
//! never [`Executor::shared`], because driver workers sleep on the wire —
//! and a submitted request, like a row-prefetch refill, is one task
//! spawned on it: queued work is *data* in the executor's deque, not a
//! parked stack, and thread lifecycle, spawn policy, busy/idle
//! accounting and panic isolation are the executor's, stated once
//! (`crate::executor`). That width is also the source's admission
//! budget; the [`RequestGate`] only counts it (`crate::driver`,
//! "Admission control"). What the pool adds is what makes a task a
//! *request*:
//!
//! * **Cancel before pickup.** A request's stage is one value on its
//!   handle state (`crate::driver`, "The fetch/handle lifecycle"): its
//!   work stays there, `Queued`, until a worker picks it up. A handle
//!   dropped or abandoned first moves it to `Over`, dropping the work
//!   unrun, and resolves the handle at once — no thread ever existed for
//!   it, and the husk left in the deque does nothing when a worker
//!   reaches it.
//! * **Orphan and replace.** A worker's pickup is one step: it takes a
//!   [`crate::driver::GateTicket`] and moves the request to `Running`
//!   with that ticket on it. An abandoning waiter that finds it there
//!   has the executor [disown](Executor::disown) the (maybe wedged)
//!   worker — within a budget of `2 * limit + 2` — and moves the request
//!   to `Over` inside the disowning, which releases the ticket before
//!   the replacement spawned can reach admission, so `in_flight <=
//!   limit` holds at every instant. The wedged worker finds `Over` when
//!   (if) it returns, discards its result and retires.
//! * **Shutdown.** Dropping the pool shuts the executor down explicitly
//!   (queued tasks hold the pool, and so their own executor, alive);
//!   from then on a request task resolves `Cancelled` and a refill task
//!   returns without pulling, so no driver work runs on the dropping
//!   thread.
//! * **Row prefetch** (below), and the **driver's name on every error**
//!   the pool raises (request panic, stream panic, deadline): exactly
//!   one place constructs a pool, the remote-driver shell
//!   [`crate::remote::Remote`], which names it after the registered
//!   source.
//!
//! # Row prefetch, in blocks
//!
//! Request-level overlap (PR 3) hides round-trip latency, but rows were
//! still shipped one pull at a time on the consumer's clock, so per-row
//! transfer latency — the dominant cost the paper's Section 4
//! laziness/cost discussion trades against — was never hidden. When a
//! driver advertises [`crate::driver::Capabilities::prefetch_rows`] `> 0`, the pool
//! worker that performed a request keeps going after parking the result:
//! it eagerly pulls [`crate::block::ValueBlock`]s from the driver stream
//! into a bounded `RowBuf`, ahead of the consumer, up to `prefetch_rows`
//! rows in total. The buffer stores and hands off **whole blocks** — one
//! lock acquisition and one condvar wake per block rather than per row —
//! so the handoff tax is amortized over the block. The consumer drains
//! the buffer (waking refill work as it goes — backpressure is the
//! buffer bound itself: a full buffer parks the stream and frees the
//! worker), and falls back to pulling inline whenever no prefetched
//! block is available, so a dead pool can never stall a stream. A
//! consumer that asks for a smaller grain than the buffered block
//! (`next_block(1)` — prefix stops, dedup) splits the front block and
//! leaves the rest buffered, preserving exact single-row delivery.
//! Dropping the consumer stream closes the buffer: outstanding refill
//! work stops at the next block boundary and the underlying driver
//! stream is dropped, so neither rows nor admission tickets leak.
//!
//! `prefetch_rows = 0` (the default) disables all of this: the worker
//! parks the driver's stream untouched and the consumer pulls every row
//! on its own clock — byte-identical to the fully-lazy behavior, which
//! is what strictly-lazy consumers (and the laziness tests) rely on.
//!
//! # Block geometry
//!
//! The refill block size is tied to the prefetch window:
//! `block_rows = (prefetch_rows / 4).clamp(1, DEFAULT_BLOCK_ROWS)`, and
//! the buffer holds at most `prefetch_rows / block_rows` blocks (floor
//! division, so the advertised row ceiling is never overshot). Four
//! blocks a window let the consumer take one block while the worker
//! pulls the next. A small window therefore degenerates to single-row
//! blocks — identical to the pre-block protocol — while a large window
//! ships [`crate::block::DEFAULT_BLOCK_ROWS`]-row batches.
//!
//! A **lifted window** (`FULL_FETCH`, what a
//! [`crate::driver::Fetch::Full`] asks for on a driver that prefetches at
//! all) is the limit case: full-size blocks and no block
//! ceiling, so the worker ships the whole reply and the buffer holds
//! whatever the consumer has not taken yet. That is memory-neutral only
//! because such a consumer keeps every row anyway — it is collecting the
//! scan into the collection it denotes — which is why the window is
//! lifted per request, by the caller, and never by the driver: for every
//! other consumer `prefetch_rows` stays the ceiling on rows
//! shipped-but-unread.
//!
//! On a source that answers a scan piecewise
//! ([`crate::driver::Driver::parts`]) such a fetch arrives as parts, one
//! request — one task here, one buffer — each, and
//! a part is `ceil(rows / parts)` rows: a scan split alone takes every
//! worker (a table shorter than the pool, one row each), so while the
//! table is within `limit x prefetch_rows` rows a lifted window holds
//! **at most one window** again, and the whole reply is spread over
//! `limit` buffers filled side by side (scans starting together share
//! that one wave of the workers, each with fewer, longer parts:
//! [`crate::remote::apportion`]). The pool knows none of this: a part is
//! a request like any other, queued as data when more are in flight than
//! there are workers.
//!
//! # A fixed window
//!
//! A request's buffer holds at most its window of blocks from its first
//! pull to its last, and nothing measures the consumer: a consumer slower
//! than its source keeps one window buffered — `prefetch_rows` rows
//! shipped but unread, the bound the capability documents — and a faster
//! one finds the next block waiting. The buffer once steered its depth
//! between `0` and the window from the consumer's observed pace; logged
//! over tier-1 and all six kbench workloads, it never moved on a
//! workload — only in the two tests pinning it and, on scheduler noise
//! over rows that cost nothing, in property tests that assert results
//! alone (ROADMAP item 12) — so the window is the ceiling it always
//! started at.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, Weak};

use crate::block::{BlockSource, BlockStream, ValueBlock, DEFAULT_BLOCK_ROWS};
use crate::driver::{DriverMetrics, ReqShared, RequestGate, RequestHandle};
use crate::error::{KError, KResult};
use crate::executor::Executor;

/// The prefetch window of a **full fetch** ([`crate::Fetch::Full`]):
/// no row ceiling — the worker ships the whole reply ahead of the
/// consumer, in [`DEFAULT_BLOCK_ROWS`]-row blocks (module docs, "Block
/// geometry").
pub(crate) const FULL_FETCH: usize = usize::MAX;

struct PoolCore {
    name: String,
    gate: Arc<RequestGate>,
    metrics: Option<Arc<DriverMetrics>>,
    /// The pool's workers (module docs).
    exec: Arc<Executor>,
}

/// A per-driver pool of at most `limit` worker threads executing
/// submitted requests and row-prefetch refills (see the module docs).
/// Dropping the pool shuts its workers down and resolves still-queued
/// requests as cancelled.
pub struct WorkerPool {
    core: Arc<PoolCore>,
}

impl WorkerPool {
    /// A pool running at most `limit` concurrent requests (`0` is
    /// normalized to `1`). Rows pulled by prefetch workers are counted
    /// into `metrics` when given.
    pub fn new(name: impl Into<String>, limit: usize, metrics: Option<Arc<DriverMetrics>>) -> WorkerPool {
        let name = name.into();
        let exec = Executor::new(name.clone(), limit);
        WorkerPool {
            core: Arc::new(PoolCore {
                name,
                gate: RequestGate::new(exec.limit()),
                metrics,
                exec,
            }),
        }
    }

    /// The count of this pool's requests in flight against its limit.
    /// Exposed so tests and quiescence checks can observe ticket flow.
    pub fn gate(&self) -> &Arc<RequestGate> {
        &self.core.gate
    }

    /// Maximum concurrent requests (== maximum worker threads).
    pub fn limit(&self) -> usize {
        self.core.exec.limit()
    }

    /// Total worker threads created over the pool's lifetime. Bounded by
    /// [`WorkerPool::limit`] plus the orphans ever replaced; sequential
    /// submissions reuse workers, so this does not grow with request
    /// count.
    pub fn threads_spawned(&self) -> usize {
        self.core.exec.threads_spawned()
    }

    /// Abandoned workers still wedged in a timed-out request right now.
    /// Rises when a deadline steals a ticket from a running worker,
    /// falls back to zero as the wedged work eventually returns (or the
    /// process exits). Bounded by [`WorkerPool::orphan_budget`].
    pub fn orphans(&self) -> usize {
        self.core.exec.disowned()
    }

    /// The most abandoned-but-wedged workers this pool tolerates at
    /// once; beyond it, timed-out requests keep their ticket with the
    /// wedged worker (capacity temporarily shrinks) rather than
    /// spawning replacements without bound.
    pub fn orphan_budget(&self) -> usize {
        self.core.exec.disown_budget()
    }

    /// Submit `work` (one blocking request round-trip) and return a
    /// handle immediately. The request queues as data until a pool
    /// worker picks it up, takes an admission ticket, and runs it; a
    /// panic in `work` parks a driver error for every waiter. With
    /// `prefetch > 0`, the worker keeps pulling row blocks into a
    /// bounded buffer after the request completes, keeping up to
    /// `prefetch` rows ahead of the consumer (module docs).
    pub fn submit<F>(&self, prefetch: usize, work: F) -> RequestHandle
    where
        F: FnOnce() -> KResult<BlockStream> + Send + 'static,
    {
        let shared = Arc::new(ReqShared::pending(&self.core.name, Some(Box::new(work))));
        let (core, req) = (Arc::clone(&self.core), Arc::clone(&shared));
        self.core
            .exec
            .spawn_disownable(move || core.request_task(&req, prefetch));
        RequestHandle::from_parts(shared, Some(Arc::downgrade(&self.core.exec)))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Explicit, because queued tasks hold the core — and with it
        // their own executor — alive. They run inline here, see the
        // shutdown, and stand down: requests resolve as cancelled so
        // their waiters unblock, refills return without pulling (their
        // streams fall back to inline pulls).
        self.core.exec.shutdown();
    }
}

impl PoolCore {
    /// The task of one submitted request; returns whether the worker
    /// was orphaned under it (see [`Executor::spawn_disownable`]).
    ///
    /// Defense in depth: every panic source inside `run_request` (the work,
    /// row pulls, stream drops) is individually caught, but an unwind
    /// escaping the task would leave the waiter pending forever. Catch,
    /// and resolve.
    fn request_task(self: &Arc<Self>, shared: &Arc<ReqShared>, prefetch: usize) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_request(shared, prefetch)))
            .unwrap_or_else(|_| {
                // Set-once: a no-op if the request already resolved
                // before the panic.
                shared.resolve_stream(Err(self.request_panicked()));
                // Release the ticket if the unwind left the request
                // running; this worker is still accounted for.
                drop(shared.finish());
                false
            })
    }

    fn request_panicked(&self) -> KError {
        KError::driver(&self.name, "driver panicked while performing the request")
    }

    fn run_request(self: &Arc<Self>, shared: &Arc<ReqShared>, prefetch: usize) -> bool {
        if self.exec.is_shut_down() {
            shared.cancel_queued();
            return false;
        }
        // Queued -> running. The admission ticket is taken here — the
        // pool's width guarantees there is one — and covers the request
        // round-trip (not the row stream, whose transfer the prefetch
        // buffer pipelines separately).
        let Some(work) = shared.pick_up(|| self.gate.admit()) else {
            return false;
        };
        // A panicking driver must park an error, not leave the handle
        // pending forever (the caller may be blocked in wait()).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work))
            .unwrap_or_else(|_| Err(self.request_panicked()));
        // Running -> over. No ticket means an abandoner took it
        // mid-flight: the promise is resolved, a replacement worker may
        // already be running — discard the result and retire.
        let Some(ticket) = shared.finish() else {
            if let Ok(stream) = result {
                guarded_drop(stream);
            }
            return true;
        };
        drop(ticket); // release the admission slot
        match result {
            // A request whose handle is gone gets its raw stream parked
            // (dropped with the request); starting a prefetch for it
            // would burn this worker on per-row latency nobody will
            // consume.
            Ok(stream) if prefetch > 0 && !shared.is_dropped() => {
                let buf = RowBuf::new(stream, prefetch, self);
                // Resolve first so waiters start consuming while this
                // worker works ahead of them.
                shared.resolve_stream(Ok(PrefetchedStream::boxed(Arc::clone(&buf))));
                // A handle dropped since the check above found nothing
                // to discard; do it for it, or the refill below ships
                // rows (all of them, under a lifted window) to nobody.
                shared.discard_if_unredeemed();
                RowBuf::refill(&buf);
            }
            other => _ = shared.resolve_stream(other),
        }
        false
    }

    /// Queue a row-prefetch refill. On a shut-down pool the task runs
    /// inline — under the scheduling consumer's buffer lock, or on the
    /// thread dropping the pool — and so must not touch the buffer.
    fn spawn_refill(&self, buf: Arc<RowBuf>) {
        let exec = Arc::clone(&self.exec);
        self.exec.spawn(move || {
            if !exec.is_shut_down() {
                RowBuf::refill(&buf);
            }
        });
    }
}

// ------------------------------------------------------------------------
// The bounded row-prefetch buffer
// ------------------------------------------------------------------------

/// Pull one block, converting a panic inside the driver stream into an
/// error (`Ok(None)` is genuine end-of-stream). Block pulls run on pool
/// workers and on consumers holding shared buffer state; letting a
/// stream panic unwind through either would leak the `pulling` flag (or
/// the worker itself), wedging every waiter.
fn guarded_next_block(
    driver: &str,
    s: &mut BlockStream,
    max_rows: usize,
) -> Result<Option<ValueBlock>, KError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.next_block(max_rows)))
        .map_err(|_| KError::driver(driver, "driver panicked while streaming rows"))
}

/// Drop a stream without letting a panicking `Drop` unwind.
pub(crate) fn guarded_drop(s: BlockStream) {
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(s)));
}

struct BufState {
    blocks: VecDeque<ValueBlock>,
    /// The underlying driver stream, parked here whenever nobody is
    /// pulling from it; taken (with `pulling = true`) for the duration
    /// of each pull so blocks stay ordered and single-consumer.
    stream: Option<BlockStream>,
    pulling: bool,
    /// A refill task is queued on the pool but has not started.
    refill_queued: bool,
    exhausted: bool,
    closed: bool,
}

/// A bounded buffer of row blocks pulled ahead of the consumer (module
/// docs).
pub(crate) struct RowBuf {
    state: Mutex<BufState>,
    cv: Condvar,
    /// The window **in blocks**: the advertised
    /// `Capabilities::prefetch_rows` divided by `block_rows` (floor, at
    /// least 1).
    depth: usize,
    /// Rows per refill block — tied to the prefetch window (module
    /// docs, "Block geometry").
    block_rows: usize,
    /// The pool's (== its driver's) name, labelling a stream panic.
    driver: String,
    pool: Weak<PoolCore>,
    metrics: Option<Arc<DriverMetrics>>,
}

impl RowBuf {
    fn new(stream: BlockStream, prefetch_rows: usize, pool: &Arc<PoolCore>) -> Arc<RowBuf> {
        // A quarter-window block lets the consumer take one block while
        // the worker pulls the next; large windows ship
        // DEFAULT_BLOCK_ROWS-row batches. Floor division for the depth
        // means the row ceiling is never overshot.
        let block_rows = (prefetch_rows / 4).clamp(1, DEFAULT_BLOCK_ROWS);
        let depth = (prefetch_rows / block_rows).max(1);
        Arc::new(RowBuf {
            state: Mutex::new(BufState {
                // Grows as blocks arrive: a lifted window has no depth to
                // size it from.
                blocks: VecDeque::new(),
                stream: Some(stream),
                pulling: false,
                refill_queued: false,
                exhausted: false,
                closed: false,
            }),
            cv: Condvar::new(),
            depth,
            block_rows,
            driver: pool.name.clone(),
            pool: Arc::downgrade(pool),
            metrics: pool.metrics.clone(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BufState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The single-pull protocol shared by the refill worker and the
    /// consumer's demand pull, so the two paths can never drift: takes
    /// the stream (the caller has set `pulling`), pulls one block of at
    /// most `max_rows` with the buffer lock *released*, then
    /// re-establishes the invariants — `pulling` reset; the stream
    /// re-parked after a clean block, dropped (with `exhausted` set) on
    /// end-of-stream, a trailing error row, or a panic, which surfaces
    /// as a final error block. Returns the fresh guard and the pulled
    /// block (`None` = the stream is finished).
    fn pull_block<'b>(
        buf: &'b RowBuf,
        mut s: BlockStream,
        st: std::sync::MutexGuard<'b, BufState>,
        max_rows: usize,
    ) -> (std::sync::MutexGuard<'b, BufState>, Option<ValueBlock>) {
        drop(st);
        let item = guarded_next_block(&buf.driver, &mut s, max_rows);
        let mut st = buf.lock();
        st.pulling = false;
        let block = match item {
            Ok(None) => {
                st.exhausted = true;
                None // `s` (the spent stream) drops here
            }
            Ok(Some(block)) => {
                if block.ends_with_err() {
                    // Never pull past an error: whoever consumes sees
                    // the error, then end-of-stream.
                    st.exhausted = true;
                } else {
                    st.stream = Some(s);
                }
                Some(block)
            }
            Err(e) => {
                // The driver stream panicked mid-pull. Surface it as a
                // final error block — with `pulling` reset so nobody
                // wedges on the flag — and discard the poisoned stream.
                st.exhausted = true;
                guarded_drop(s);
                Some(ValueBlock::of_err(e))
            }
        };
        (st, block)
    }

    /// Pull blocks from the parked stream until the buffer holds its
    /// window, the stream ends (or errors, or panics), or the consumer
    /// closes it. Runs on a pool worker; the buffer lock is *not* held
    /// across pulls, so the consumer drains concurrently. One condvar
    /// wake per **block**, not per row — the handoff amortization the
    /// block protocol buys.
    fn refill(buf: &Arc<RowBuf>) {
        let mut st = buf.lock();
        st.refill_queued = false;
        loop {
            if st.closed {
                st.stream = None; // drop the driver stream: rows stop here
                break;
            }
            if st.pulling || st.exhausted || st.blocks.len() >= buf.depth {
                break;
            }
            let Some(s) = st.stream.take() else { break };
            st.pulling = true;
            let (st2, block) = RowBuf::pull_block(buf, s, st, buf.block_rows);
            st = st2;
            if let Some(block) = block {
                if let Some(m) = &buf.metrics {
                    m.record_prefetched_rows(good_rows(&block));
                }
                st.blocks.push_back(block);
            }
            buf.cv.notify_all();
        }
        drop(st);
        buf.cv.notify_all();
    }

    /// Queue a refill if one is useful and none is active. Called with
    /// the state lock held (lock order: buffer, then pool queue).
    fn maybe_schedule(buf: &Arc<RowBuf>, st: &mut BufState) {
        if st.refill_queued
            || st.pulling
            || st.exhausted
            || st.closed
            || st.stream.is_none()
            || st.blocks.len() >= buf.depth
        {
            return;
        }
        let Some(core) = buf.pool.upgrade() else { return };
        st.refill_queued = true;
        core.spawn_refill(Arc::clone(buf));
    }
}

/// The consumer's view of a [`RowBuf`]: pops prefetched blocks, pulls
/// inline when none are buffered (so it never depends on pool liveness),
/// and closes the buffer on drop.
///
/// The consumer's grain is honored exactly: a `next_block(n)` smaller
/// than the buffered front block splits it ([`ValueBlock::split_front`])
/// and leaves the remainder buffered, so grain-1 consumers (the
/// [`Iterator`] view) see byte-identical single-row delivery.
pub(crate) struct PrefetchedStream {
    buf: Arc<RowBuf>,
}

impl PrefetchedStream {
    fn boxed(buf: Arc<RowBuf>) -> BlockStream {
        Box::new(PrefetchedStream { buf })
    }

    /// Count a block handed to the consumer into the driver metrics.
    fn record_shipped(&self, block: &ValueBlock) {
        if let Some(m) = &self.buf.metrics {
            m.record_block(good_rows(block));
        }
    }
}

/// The rows of `block` that are not its trailing error.
fn good_rows(block: &ValueBlock) -> u64 {
    (block.len() - usize::from(block.ends_with_err())) as u64
}

impl BlockSource for PrefetchedStream {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        let max = max_rows.max(1);
        let buf = Arc::clone(&self.buf);
        let mut st = buf.lock();
        loop {
            if let Some(front) = st.blocks.front_mut() {
                let mut block = if front.len() <= max {
                    st.blocks.pop_front().expect("front exists")
                } else {
                    front.split_front(max)
                };
                // One handoff moves every further buffered block that
                // still fits the consumer's grain (an error block is the
                // last one buffered, so nothing follows it).
                while st
                    .blocks
                    .front()
                    .is_some_and(|next| block.len() + next.len() <= max)
                {
                    block.append(st.blocks.pop_front().expect("front exists"));
                }
                // Keep the worker ahead of us now that there is space.
                RowBuf::maybe_schedule(&buf, &mut st);
                drop(st);
                self.record_shipped(&block);
                return Some(block);
            }
            if st.exhausted || st.closed {
                return None;
            }
            if !st.pulling {
                let Some(s) = st.stream.take() else {
                    // Stream gone without exhaustion: the rows behind it
                    // are lost. A clean end here would pass a truncated
                    // scan off as complete (and consumers would cache
                    // it), so the stream fails instead.
                    st.exhausted = true;
                    return Some(ValueBlock::of_err(KError::driver(
                        &buf.driver,
                        "row stream lost before its end",
                    )));
                };
                // Demand pull on the consumer's clock — the fallback that
                // keeps the stream alive without any pool worker. Pulled
                // at the consumer's own grain, with the same pull
                // protocol as the refill worker (RowBuf::pull_block).
                st.pulling = true;
                let (st2, block) = RowBuf::pull_block(&buf, s, st, max);
                st = st2;
                RowBuf::maybe_schedule(&buf, &mut st);
                drop(st);
                buf.cv.notify_all();
                if let Some(b) = &block {
                    self.record_shipped(b);
                }
                return block;
            }
            // A worker is mid-pull; it will push a block (or exhaust)
            // and notify.
            st = buf.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for PrefetchedStream {
    fn drop(&mut self) {
        let mut st = self.buf.lock();
        st.closed = true;
        st.stream = None; // drop the driver stream unless a puller holds it
        drop(st);
        self.buf.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::blocks_of_rows;
    use crate::driver::RequestStatus;
    use crate::value::Value;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;
    use std::time::Duration;

    fn rows_stream(n: i64) -> BlockStream {
        blocks_of_rows(Box::new((0..n).map(|i| Ok(Value::Int(i)))))
    }

    fn collect(h: RequestHandle) -> Vec<Value> {
        h.wait()
            .unwrap()
            .collect::<KResult<Vec<_>>>()
            .unwrap()
    }

    #[test]
    fn pool_threads_never_exceed_the_limit() {
        let pool = WorkerPool::new("t", 2, None);
        let handles: Vec<_> = (0..12)
            .map(|_| {
                pool.submit(0, move || {
                    thread::sleep(Duration::from_millis(3));
                    Ok(rows_stream(2))
                })
            })
            .collect();
        for h in handles {
            assert_eq!(collect(h).len(), 2);
        }
        assert!(
            pool.threads_spawned() <= 2,
            "{} threads for a pool of 2",
            pool.threads_spawned()
        );
        assert_eq!(pool.gate().in_flight(), 0);
    }

    #[test]
    fn sequential_requests_reuse_the_same_worker() {
        let pool = WorkerPool::new("t", 4, None);
        for _ in 0..10 {
            let h = pool.submit(0, move || Ok(rows_stream(1)));
            assert_eq!(collect(h).len(), 1);
            // Let the worker park between requests: the promise resolves
            // a hair before the worker re-checks the queue, and this test
            // is about steady-state reuse, not that race.
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            pool.threads_spawned(),
            1,
            "sequential requests must not grow the pool"
        );
    }

    #[test]
    fn queued_request_cancelled_before_pickup_never_runs() {
        let pool = WorkerPool::new("t", 1, None);
        let ran = Arc::new(AtomicU64::new(0));
        let slow = {
            let ran = Arc::clone(&ran);
            pool.submit(0, move || {
                ran.fetch_add(1, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(30));
                Ok(rows_stream(1))
            })
        };
        // Wait until the slow request holds the only worker (bounded:
        // a stuck pool must fail, not hang).
        let t0 = std::time::Instant::now();
        while pool.gate().in_flight() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "request never started");
            thread::sleep(Duration::from_millis(1));
        }
        let queued = {
            let ran = Arc::clone(&ran);
            pool.submit(0, move || {
                ran.fetch_add(1, Ordering::SeqCst);
                Ok(rows_stream(1))
            })
        };
        assert_eq!(queued.poll(), RequestStatus::Pending);
        // Dropping the handle cancels the request: queue removal, no
        // worker.
        drop(queued);
        assert_eq!(collect(slow).len(), 1);
        assert_eq!(ran.load(Ordering::SeqCst), 1, "queued request never ran");
        assert_eq!(pool.threads_spawned(), 1, "no thread for the queued request");
        assert_eq!(pool.gate().in_flight(), 0);
    }

    #[test]
    fn panicking_request_parks_an_error_and_the_worker_survives() {
        let pool = WorkerPool::new("t", 1, None);
        let h = pool.submit(0, || -> KResult<BlockStream> { panic!("driver bug") });
        match h.wait() {
            Err(e) => assert!(e.to_string().contains("panicked"), "{e}"),
            Ok(_) => panic!("panicked work must not yield a stream"),
        }
        assert_eq!(pool.gate().in_flight(), 0, "ticket released on unwind");
        // The same worker keeps serving requests.
        let h = pool.submit(0, move || Ok(rows_stream(3)));
        assert_eq!(collect(h).len(), 3);
        assert_eq!(pool.threads_spawned(), 1);
    }

    #[test]
    fn dropping_the_pool_cancels_queued_requests() {
        let pool = WorkerPool::new("t", 1, None);
        let slow = pool.submit(0, move || {
            thread::sleep(Duration::from_millis(20));
            Ok(rows_stream(1))
        });
        let t0 = std::time::Instant::now();
        while pool.gate().in_flight() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "request never started");
            thread::sleep(Duration::from_millis(1));
        }
        let queued = pool.submit(0, move || Ok(rows_stream(1)));
        drop(pool);
        match queued.wait() {
            Err(e) => assert!(matches!(e, KError::Cancelled(_)), "{e}"),
            Ok(_) => panic!("queued request must cancel on pool shutdown"),
        }
        // The running request still completes on its worker.
        assert_eq!(collect(slow).len(), 1);
    }

    #[test]
    fn prefetched_rows_arrive_ahead_of_the_consumer() {
        let metrics = Arc::new(DriverMetrics::default());
        let pool = WorkerPool::new("t", 1, Some(Arc::clone(&metrics)));
        let h = pool.submit(8, move || Ok(rows_stream(8)));
        let stream = h.wait().unwrap();
        // Give the worker time to prefetch the whole stream.
        let t0 = std::time::Instant::now();
        while metrics.snapshot().rows_prefetched < 8 && t0.elapsed() < Duration::from_secs(2) {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(metrics.snapshot().rows_prefetched, 8);
        let rows: Vec<_> = stream.collect::<KResult<_>>().unwrap();
        assert_eq!(rows, (0..8).map(Value::Int).collect::<Vec<_>>());
        assert_eq!(metrics.snapshot().rows_pulled, 8);
    }

    #[test]
    fn prefetch_respects_the_buffer_bound() {
        let pulled = Arc::new(AtomicU64::new(0));
        let pool = WorkerPool::new("t", 1, None);
        let h = {
            let pulled = Arc::clone(&pulled);
            pool.submit(3, move || {
                let pulled = Arc::clone(&pulled);
                Ok(blocks_of_rows(Box::new((0..100).map(move |i| {
                    pulled.fetch_add(1, Ordering::SeqCst);
                    Ok(Value::Int(i))
                }))))
            })
        };
        let mut stream = h.wait().unwrap();
        // The worker may pull at most `capacity` rows ahead.
        thread::sleep(Duration::from_millis(20));
        assert!(
            pulled.load(Ordering::SeqCst) <= 3,
            "prefetch overshot the bound: {}",
            pulled.load(Ordering::SeqCst)
        );
        // Draining two rows lets it work ahead again, still bounded.
        assert_eq!(stream.next().unwrap().unwrap(), Value::Int(0));
        assert_eq!(stream.next().unwrap().unwrap(), Value::Int(1));
        thread::sleep(Duration::from_millis(20));
        assert!(pulled.load(Ordering::SeqCst) <= 5 + 1);
    }

    #[test]
    fn dropping_a_prefetching_stream_stops_the_refill() {
        let pulled = Arc::new(AtomicU64::new(0));
        let pool = WorkerPool::new("t", 1, None);
        let h = {
            let pulled = Arc::clone(&pulled);
            pool.submit(4, move || {
                let pulled = Arc::clone(&pulled);
                Ok(blocks_of_rows(Box::new((0..1000).map(move |i| {
                    pulled.fetch_add(1, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(1));
                    Ok(Value::Int(i))
                }))))
            })
        };
        let mut stream = h.wait().unwrap();
        assert_eq!(stream.next().unwrap().unwrap(), Value::Int(0));
        drop(stream);
        thread::sleep(Duration::from_millis(10));
        let after_drop = pulled.load(Ordering::SeqCst);
        thread::sleep(Duration::from_millis(30));
        assert_eq!(
            pulled.load(Ordering::SeqCst),
            after_drop,
            "refill must stop once the consumer is gone"
        );
        assert!(after_drop <= 6, "at most a buffer's worth pulled: {after_drop}");
    }

    #[test]
    fn prefetch_zero_hands_back_the_driver_stream_untouched() {
        let pulled = Arc::new(AtomicU64::new(0));
        let pool = WorkerPool::new("t", 1, None);
        let h = {
            let pulled = Arc::clone(&pulled);
            pool.submit(0, move || {
                let pulled = Arc::clone(&pulled);
                Ok(blocks_of_rows(Box::new((0..10).map(move |i| {
                    pulled.fetch_add(1, Ordering::SeqCst);
                    Ok(Value::Int(i))
                }))))
            })
        };
        let mut stream = h.wait().unwrap();
        thread::sleep(Duration::from_millis(10));
        assert_eq!(pulled.load(Ordering::SeqCst), 0, "fully lazy");
        assert_eq!(stream.next().unwrap().unwrap(), Value::Int(0));
        assert_eq!(pulled.load(Ordering::SeqCst), 1, "pulls on demand only");
    }

    #[test]
    fn panicking_row_stream_parks_an_error_and_the_pool_survives() {
        // A stream that panics *mid-prefetch* must neither wedge the
        // consumer (stale `pulling` flag) nor kill the worker (leaked
        // live/busy counts): the consumer sees the rows, then an error,
        // then end-of-stream, and the pool keeps serving requests.
        let pool = WorkerPool::new("t", 1, None);
        let h = pool.submit(4, move || {
            Ok(blocks_of_rows(Box::new((0..5).map(|i| {
                if i >= 2 {
                    panic!("row stream bug");
                }
                Ok(Value::Int(i))
            }))))
        });
        let rows: Vec<_> = h.wait().unwrap().collect();
        assert_eq!(rows.len(), 3, "two rows, the panic as an error, then end");
        assert!(rows[0].is_ok() && rows[1].is_ok());
        assert!(rows[2].as_ref().unwrap_err().to_string().contains("panicked"));
        // The worker survived with its accounting intact: a second
        // request on the same limit-1 pool completes.
        let h = pool.submit(4, move || Ok(rows_stream(3)));
        assert_eq!(collect(h).len(), 3);
        assert_eq!(pool.gate().in_flight(), 0);
        assert_eq!(pool.threads_spawned(), 1);
    }

    #[test]
    fn panicking_row_stream_on_the_demand_pull_surfaces_an_error() {
        // Same stream panic, but hit by the consumer's inline fallback
        // pull (prefetch exhausts the buffer first; the consumer then
        // pulls past it... here: depth 1 so the consumer demand-pulls).
        let pool = WorkerPool::new("t", 1, None);
        let h = pool.submit(1, move || {
            Ok(blocks_of_rows(Box::new((0..5).map(|i| {
                if i >= 3 {
                    panic!("row stream bug");
                }
                Ok(Value::Int(i))
            }))))
        });
        let rows: Vec<_> = h.wait().unwrap().collect();
        assert_eq!(rows.len(), 4, "three rows, the panic as an error, then end");
        assert!(rows[3].is_err());
    }

    /// A stream of `n` rows, each costing `row_delay` of real latency,
    /// counting how many ever left the driver.
    fn slow_rows(n: i64, row_delay: Duration, pulled: &Arc<AtomicU64>) -> BlockStream {
        let pulled = Arc::clone(pulled);
        blocks_of_rows(Box::new((0..n).map(move |i| {
            thread::sleep(row_delay);
            pulled.fetch_add(1, Ordering::SeqCst);
            Ok(Value::Int(i))
        })))
    }

    #[test]
    fn a_slow_consumer_keeps_its_window() {
        // Rows cost ~1 ms; the consumer takes ~10 ms per row, one 2-row
        // block at a time. Prefetch 8 is four 2-row blocks: the worker
        // never ships more than the window ahead of the consumer, and
        // however slow the consumer, it keeps the window full.
        let pool = WorkerPool::new("t", 1, None);
        let pulled = Arc::new(AtomicU64::new(0));
        let h = {
            let pulled = Arc::clone(&pulled);
            pool.submit(8, move || Ok(slow_rows(200, Duration::from_millis(1), &pulled)))
        };
        let mut stream = h.wait().unwrap();
        let ahead = |consumed: &[Value]| pulled.load(Ordering::SeqCst) - consumed.len() as u64;
        let mut rows = Vec::new();
        for _ in 0..20 {
            let block = stream.next_block(2).unwrap();
            rows.extend(block.into_rows().map(|row| row.unwrap()));
            let ahead = ahead(&rows);
            assert!(ahead <= 8, "{ahead} rows shipped ahead of a window of 8");
            thread::sleep(Duration::from_millis(20));
        }
        let t0 = std::time::Instant::now();
        while ahead(&rows) < 8 {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "the window never refilled: {} rows ahead of a slow consumer",
                ahead(&rows)
            );
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ahead(&rows), 8, "never more than the window");
        assert_eq!(rows, (0..40).map(Value::Int).collect::<Vec<_>>());
    }

    #[test]
    fn error_rows_pass_through_and_end_the_prefetch() {
        let pool = WorkerPool::new("t", 1, None);
        let h = pool.submit(4, move || {
            Ok(blocks_of_rows(Box::new((0..5).map(|i| {
                if i < 2 {
                    Ok(Value::Int(i))
                } else {
                    Err(KError::eval("row error"))
                }
            }))))
        });
        let rows: Vec<_> = h.wait().unwrap().collect();
        assert_eq!(rows.len(), 3, "two rows, one error, then end-of-stream");
        assert!(rows[0].is_ok() && rows[1].is_ok());
        assert!(rows[2].is_err());
    }

    #[test]
    fn a_lost_row_stream_is_an_error_not_an_end_of_stream() {
        // The state the consumer must never mistake for exhaustion: rows
        // were delivered, the driver stream is gone, nobody is pulling,
        // and nothing says the stream ended.
        let pool = WorkerPool::new("GDB", 1, None);
        let buf = RowBuf::new(rows_stream(10), 4, &pool.core);
        // No pool, no refills: only this thread touches the buffer.
        drop(pool);
        let mut stream = PrefetchedStream::boxed(Arc::clone(&buf));
        assert_eq!(stream.next_block(2).unwrap().len(), 2);
        let lost = buf.lock().stream.take();
        assert!(lost.is_some(), "the stream was parked between pulls");
        let block = stream.next_block(DEFAULT_BLOCK_ROWS).expect("an error block");
        assert_eq!(block.len(), 1);
        assert_eq!(
            block.rows()[0].as_ref().unwrap_err().to_string(),
            "driver 'GDB': row stream lost before its end"
        );
        assert!(stream.next_block(DEFAULT_BLOCK_ROWS).is_none(), "then the end");
    }

    #[test]
    fn one_pull_takes_every_buffered_block_that_fits() {
        let metrics = Arc::new(DriverMetrics::default());
        let pool = WorkerPool::new("t", 1, Some(Arc::clone(&metrics)));
        // Window 8 -> four 2-row blocks buffered ahead of the consumer.
        let mut stream = pool.submit(8, move || Ok(rows_stream(8))).wait().unwrap();
        let t0 = std::time::Instant::now();
        while metrics.snapshot().rows_prefetched < 8 {
            assert!(t0.elapsed() < Duration::from_secs(2), "never prefetched");
            thread::sleep(Duration::from_millis(1));
        }
        // Grain 1 still splits the front block ...
        assert_eq!(stream.next_block(1).unwrap().len(), 1);
        // ... grain 5 takes the 1-row remainder and two whole blocks, and
        // leaves the block that would overshoot ...
        let b = stream.next_block(5).unwrap();
        assert_eq!(b.len(), 5);
        // ... and a full-grain pull takes everything left in one handoff.
        assert_eq!(stream.next_block(DEFAULT_BLOCK_ROWS).unwrap().len(), 2);
        assert!(stream.next_block(DEFAULT_BLOCK_ROWS).is_none());
        let snap = metrics.snapshot();
        assert_eq!((snap.rows_pulled, snap.blocks_shipped), (8, 3));
    }

    #[test]
    fn a_lifted_window_ships_the_whole_reply_without_the_consumer() {
        let metrics = Arc::new(DriverMetrics::default());
        let pool = WorkerPool::new("t", 1, Some(Arc::clone(&metrics)));
        let rows = 3 * DEFAULT_BLOCK_ROWS as i64 + 7;
        let h = pool.submit(FULL_FETCH, move || Ok(rows_stream(rows)));
        let stream = h.wait().unwrap();
        let t0 = std::time::Instant::now();
        while metrics.snapshot().rows_prefetched < rows as u64 {
            assert!(t0.elapsed() < Duration::from_secs(2), "the worker waited for us");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(stream.count(), rows as usize);
        let snap = metrics.snapshot();
        assert_eq!((snap.prefetch_grows, snap.prefetch_shrinks), (0, 0));
    }

    /// A latch the resilience tests wedge pool work on: `wedge` blocks
    /// until `release`, which is sticky.
    fn wedge_latch() -> Arc<(Mutex<bool>, Condvar)> {
        Arc::new((Mutex::new(false), Condvar::new()))
    }

    fn submit_wedged(pool: &WorkerPool, latch: &Arc<(Mutex<bool>, Condvar)>) -> RequestHandle {
        let latch = Arc::clone(latch);
        pool.submit(0, move || {
            let (lock, cv) = &*latch;
            let mut released = lock.lock().unwrap();
            while !*released {
                released = cv.wait(released).unwrap();
            }
            Ok(rows_stream(1))
        })
    }

    fn release(latch: &Arc<(Mutex<bool>, Condvar)>) {
        let (lock, cv) = &**latch;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    fn await_in_flight(pool: &WorkerPool, n: usize) {
        let t0 = std::time::Instant::now();
        while pool.gate().in_flight() != n {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "gate never reached {n} in-flight"
            );
            thread::sleep(Duration::from_millis(1));
        }
        // The ticket is on the request from the moment it is counted:
        // an abandoner can take it back at once.
    }

    fn await_orphans(pool: &WorkerPool, n: usize) {
        let t0 = std::time::Instant::now();
        while pool.orphans() != n {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "orphans never drained to {n} (now {})",
                pool.orphans()
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn deadline_on_wedged_work_times_out_and_releases_the_ticket() {
        let pool = WorkerPool::new("t", 1, None);
        let latch = wedge_latch();
        let h = submit_wedged(&pool, &latch);
        await_in_flight(&pool, 1);
        // The deadline passes: the waiter abandons the request.
        thread::sleep(Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        assert!(h.abandon(KError::timeout("t", "request deadline exceeded")));
        let out = h.wait();
        let elapsed = t0.elapsed();
        match out {
            Err(e) => assert!(e.is_timeout(), "{e}"),
            Ok(_) => panic!("wedged work must not yield a stream"),
        }
        assert!(elapsed < Duration::from_millis(250), "abandoned in {elapsed:?}");
        assert_eq!(pool.gate().in_flight(), 0, "ticket stolen back on timeout");
        assert_eq!(pool.orphans(), 1, "the wedged worker was orphaned");
        // The pool still serves: a replacement worker takes new work
        // while the orphan sits on the latch.
        let h2 = pool.submit(0, move || Ok(rows_stream(2)));
        assert_eq!(collect(h2).len(), 2);
        assert_eq!(pool.threads_spawned(), 2, "one replacement spawned");
        // Unwedge: the orphan notices its stolen ticket and retires.
        release(&latch);
        await_orphans(&pool, 0);
        assert_eq!(pool.gate().in_flight(), 0);
    }

    #[test]
    fn abandon_loses_to_rows_that_beat_it() {
        let pool = WorkerPool::new("t", 1, None);
        let h = pool.submit(0, move || {
            thread::sleep(Duration::from_millis(2));
            Ok(rows_stream(3))
        });
        let t0 = std::time::Instant::now();
        while h.poll() == RequestStatus::Pending {
            assert!(t0.elapsed() < Duration::from_secs(2), "request never resolved");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(!h.abandon(KError::timeout("t", "too late")), "the reply won");
        let stream = h.wait().unwrap();
        assert_eq!(stream.collect::<KResult<Vec<_>>>().unwrap().len(), 3);
        assert_eq!(pool.orphans(), 0, "no worker was on the wire to orphan");
    }

    #[test]
    fn abandonment_is_bounded_by_the_orphan_budget() {
        let pool = WorkerPool::new("t", 1, None);
        assert_eq!(pool.orphan_budget(), 4, "2 * limit + 2");
        let latch = wedge_latch();
        for i in 0..4 {
            let h = submit_wedged(&pool, &latch);
            await_in_flight(&pool, 1);
            assert!(h.abandon(KError::timeout("t", "test abandon")));
            assert_eq!(pool.gate().in_flight(), 0, "ticket stolen on abandon {i}");
            assert_eq!(pool.orphans(), i + 1);
        }
        // The budget is spent: a fifth abandonment resolves the waiter
        // but must NOT orphan another worker — the ticket stays with the
        // wedged worker (degrading admission instead of leaking threads).
        let h = submit_wedged(&pool, &latch);
        await_in_flight(&pool, 1);
        h.abandon(KError::timeout("t", "over budget"));
        assert_eq!(pool.orphans(), 4, "budget caps the orphan count");
        assert_eq!(pool.gate().in_flight(), 1, "ticket rides out the wedge");
        // Releasing the latch drains everything: orphans retire, the
        // over-budget worker finishes and frees its ticket normally.
        release(&latch);
        await_orphans(&pool, 0);
        let t0 = std::time::Instant::now();
        while pool.gate().in_flight() != 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "ticket never freed");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(pool.threads_spawned() <= 1 + 4, "one per orphan plus the original");
    }

    #[test]
    fn back_to_back_abandonment_never_admits_past_the_limit() {
        // Each abandonment finds the next request already queued, so the
        // replacement worker is spawned inside `disown` and goes straight
        // to admission: the stolen ticket must be free by then, or
        // `RequestGate::admit`'s assertion fires on the replacement and
        // parks a "panicked" error on the request it picked up.
        let pool = WorkerPool::new("t", 1, None);
        let mut latch = wedge_latch();
        let mut running = submit_wedged(&pool, &latch);
        for i in 0..200 {
            let t0 = std::time::Instant::now();
            while pool.gate().in_flight() != 1 {
                assert!(t0.elapsed() < Duration::from_secs(2), "request {i} never started");
                thread::yield_now();
            }
            let next_latch = wedge_latch();
            let next = submit_wedged(&pool, &next_latch);
            assert!(
                running.abandon(KError::timeout("t", "test abandon")),
                "request {i} had resolved by itself — admission tripped"
            );
            assert!(pool.gate().in_flight() <= 1);
            // The orphan returns and retires, so the orphan budget is
            // never what limits the next abandonment.
            release(&latch);
            (latch, running) = (next_latch, next);
        }
        release(&latch);
        assert_eq!(collect(running).len(), 1, "the last request runs to its end");
        await_orphans(&pool, 0);
        assert_eq!(pool.gate().in_flight(), 0);
        // One replacement per ticket taken back (an abandonment that
        // finds the orphan budget spent orphans nobody).
        let spawned = pool.threads_spawned();
        assert!((100..=1 + 200).contains(&spawned), "{spawned} threads for 200 abandonments");
    }

    #[test]
    fn dropping_a_handle_on_a_wedged_worker_never_blocks_the_dropper() {
        let pool = WorkerPool::new("t", 1, None);
        let latch = wedge_latch();
        let h = submit_wedged(&pool, &latch);
        await_in_flight(&pool, 1);
        let t0 = std::time::Instant::now();
        drop(h);
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "dropping must not wait for the wedged worker"
        );
        release(&latch);
        // The worker finishes its cancelled round-trip and frees the
        // ticket; nothing leaks.
        let t0 = std::time::Instant::now();
        while pool.gate().in_flight() != 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "ticket never freed");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.orphans(), 0, "a plain drop cancels, it does not abandon");
    }

    #[test]
    fn abandoning_a_queued_request_needs_no_orphan() {
        let pool = WorkerPool::new("t", 1, None);
        let latch = wedge_latch();
        let running = submit_wedged(&pool, &latch);
        await_in_flight(&pool, 1);
        let queued = pool.submit(0, move || Ok(rows_stream(1)));
        // Still queued: abandoning it is pure queue removal.
        assert!(queued.abandon(KError::timeout("t", "queued abandon")));
        match queued.wait() {
            Err(e) => assert!(e.is_timeout(), "{e}"),
            Ok(_) => panic!("abandoned request must not yield a stream"),
        }
        assert_eq!(pool.orphans(), 0, "no worker held the queued request");
        assert_eq!(pool.threads_spawned(), 1);
        release(&latch);
        assert_eq!(collect(running).len(), 1);
    }
}
