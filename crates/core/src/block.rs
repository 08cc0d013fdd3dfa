//! Columnar row batches — the unit of transfer between drivers, the
//! pool's prefetch buffer, and the executor's pull chain.
//!
//! The paper's Kleisli engine streams one record at a time from each
//! wrapped source; this reproduction inherited that shape through PR 6,
//! so every seam (driver stream → `RowBuf` → operators → consumer) paid
//! a per-row virtual-call + condvar-handoff tax. A [`ValueBlock`] is a
//! small batch of rows moved across those seams in one step: drivers
//! pack rows into blocks as they charge per-row transfer latency, the
//! prefetch buffer stores and hands off whole blocks (one wake per
//! block), and the executor's fused operators evaluate filter/project
//! bodies over a batch at a time.
//!
//! Laziness is preserved by making the *consumer* choose the grain:
//! [`BlockSource::next_block`] takes `max_rows`, so a prefix consumer
//! (`first_n`) pulls at grain 1 — byte-identical to the single-row
//! protocol — a limited query pulls the rows it still lacks, and full
//! drains pull [`DEFAULT_BLOCK_ROWS`] at a time.

use std::sync::Arc;

use crate::error::{KError, KResult};
use crate::value::Value;

/// Default batch size for full drains: large enough to amortize the
/// per-handoff virtual call, lock, and wake; small enough that a block
/// of typical records stays cache-resident and a mid-stream error or
/// deadline is still noticed promptly.
pub const DEFAULT_BLOCK_ROWS: usize = 64;

/// A small batch of rows pulled from a driver or operator in one step.
///
/// Invariants (maintained by the constructors below and required of
/// every [`BlockSource`]):
///
/// * a block is never empty;
/// * at most one row is an `Err`, and it is always the **last** row —
///   rows that arrived before a mid-stream failure are delivered in
///   front of it, exactly as the single-row protocol delivered them.
#[derive(Debug, Default)]
pub struct ValueBlock {
    rows: Vec<KResult<Value>>,
}

impl ValueBlock {
    /// An empty block with room for `cap` rows. Callers must push at
    /// least one row before handing the block to a consumer.
    pub fn with_capacity(cap: usize) -> ValueBlock {
        ValueBlock {
            rows: Vec::with_capacity(cap),
        }
    }

    /// Make room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    /// A one-row block carrying an error — the block form of a stream
    /// that fails before producing any rows.
    pub fn of_err(e: KError) -> ValueBlock {
        ValueBlock {
            rows: vec![Err(e)],
        }
    }

    /// Append a good row. Must not be called after [`push_err`].
    ///
    /// [`push_err`]: ValueBlock::push_err
    pub fn push_row(&mut self, v: Value) {
        debug_assert!(!self.ends_with_err(), "rows after an error row");
        self.rows.push(Ok(v));
    }

    /// Append the terminal error row. The block must not grow further,
    /// and the source that produced it must return `None` from then on.
    pub fn push_err(&mut self, e: KError) {
        debug_assert!(!self.ends_with_err(), "two error rows in one block");
        self.rows.push(Err(e));
    }

    /// Number of rows (counting a trailing error row).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been pushed yet. Sources never hand such
    /// a block to a consumer — they return `None` instead.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True when the block carries a terminal error as its last row.
    pub fn ends_with_err(&self) -> bool {
        matches!(self.rows.last(), Some(Err(_)))
    }

    /// Borrow the rows in delivery order.
    pub fn rows(&self) -> &[KResult<Value>] {
        &self.rows
    }

    /// Consume the block, yielding rows in delivery order.
    pub fn into_rows(self) -> std::vec::IntoIter<KResult<Value>> {
        self.rows.into_iter()
    }

    /// Move every row of `other` behind this block's rows. `self` must
    /// not end with an error row.
    pub fn append(&mut self, mut other: ValueBlock) {
        debug_assert!(!self.ends_with_err(), "rows after an error row");
        self.rows.append(&mut other.rows);
    }

    /// Split off the first `n` rows as their own block, leaving the
    /// remainder in `self`. Used by the prefetch buffer when a consumer
    /// asks for a smaller grain than the buffered block.
    pub fn split_front(&mut self, n: usize) -> ValueBlock {
        let n = n.min(self.rows.len());
        let rest = self.rows.split_off(n);
        ValueBlock {
            rows: std::mem::replace(&mut self.rows, rest),
        }
    }
}

/// A pull-based source of row blocks — the shape of every stream handed
/// across the driver boundary ([`crate::Driver::perform`], the promise a
/// [`crate::RequestHandle`] redeems, and the pool's prefetch buffer).
///
/// The consumer chooses the transfer grain per pull: `next_block(1)` is
/// byte-identical to the old single-row protocol (at most one row moves,
/// and only on demand), while `next_block(64)` amortizes one virtual
/// call, one buffer handoff, and one wake over up to 64 rows.
pub trait BlockSource: Send {
    /// Pull the next block, containing **at least one and at most
    /// `max_rows`** rows.
    ///
    /// Contract, in addition to the [`ValueBlock`] invariants:
    ///
    /// * `None` means end of stream; the source keeps returning `None`.
    /// * After a block whose last row is an `Err`, the source is
    ///   exhausted and returns `None` — a stream fails at most once.
    /// * A call with `max_rows == 0` is treated as `max_rows == 1`.
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock>;
}

/// An owned block stream — the canonical payload of a completed driver
/// request.
///
/// For single-row consumers the box itself is an [`Iterator`] over rows
/// (each `next()` is a `next_block(1)` pull), so prefix stops and other
/// order-sensitive consumers keep exact single-row laziness without a
/// separate adapter type.
pub type BlockStream = Box<dyn BlockSource>;

impl Iterator for Box<dyn BlockSource> {
    type Item = KResult<Value>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_block(1).and_then(|b| b.into_rows().next())
    }
}

/// Adapter: pack a single-row iterator into blocks on demand. Each
/// `next_block(max_rows)` pulls up to `max_rows` rows from the inner
/// iterator — never more — so laziness bounds carry over unchanged. An
/// `Err` row terminates the block and the stream.
struct BlocksOfRows {
    rows: Option<Box<dyn Iterator<Item = KResult<Value>> + Send>>,
}

impl BlockSource for BlocksOfRows {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        let rows = self.rows.as_mut()?;
        let max = max_rows.max(1);
        let mut block = ValueBlock::with_capacity(max.min(DEFAULT_BLOCK_ROWS));
        while block.len() < max {
            match rows.next() {
                Some(Ok(v)) => block.push_row(v),
                Some(Err(e)) => {
                    block.push_err(e);
                    self.rows = None;
                    break;
                }
                None => {
                    self.rows = None;
                    break;
                }
            }
        }
        if block.is_empty() {
            None
        } else {
            Some(block)
        }
    }
}

/// Wrap a single-row iterator as a [`BlockStream`]; see [`BlockSource`]
/// for the grain contract. This is the migration shim for drivers whose
/// rows are naturally an iterator — per-row side effects (latency
/// charges, metrics) run as each row is packed, on the puller's clock,
/// exactly as they did under the single-row protocol.
pub fn blocks_of_rows(rows: Box<dyn Iterator<Item = KResult<Value>> + Send>) -> BlockStream {
    Box::new(BlocksOfRows { rows: Some(rows) })
}

/// A native block source over a materialized row vector that charges
/// per-row transfer latency and traffic metrics as each row is packed —
/// the common shape of the simulated remote servers (Sybase/Entrez/ACE),
/// which compute their full result and then "ship" it row by row.
struct ChargedRows {
    rows: std::vec::IntoIter<Value>,
    latency: std::sync::Arc<crate::latency::LatencyModel>,
    metrics: std::sync::Arc<crate::driver::DriverMetrics>,
}

impl BlockSource for ChargedRows {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        let max = max_rows.max(1);
        let mut block = ValueBlock::with_capacity(max.min(self.rows.len()).max(1));
        while block.len() < max {
            match self.rows.next() {
                Some(v) => {
                    self.latency.charge_row();
                    self.metrics.record_row(v.approx_size());
                    block.push_row(v);
                }
                None => break,
            }
        }
        if block.is_empty() {
            None
        } else {
            Some(block)
        }
    }
}

/// Block a server's materialized result rows, charging `latency` and
/// `metrics` per row as rows are packed (on the puller's clock).
pub fn charged_blocks(
    rows: Vec<Value>,
    latency: std::sync::Arc<crate::latency::LatencyModel>,
    metrics: std::sync::Arc<crate::driver::DriverMetrics>,
) -> BlockStream {
    Box::new(ChargedRows {
        rows: rows.into_iter(),
        latency,
        metrics,
    })
}

/// A native block source over a shared row vector ([`shared_blocks`]).
struct SharedRows {
    rows: Arc<Vec<Value>>,
    pos: usize,
    /// The error after the last row, until it is delivered.
    terminal: Option<KError>,
}

impl BlockSource for SharedRows {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        let max = max_rows.max(1);
        let rest = &self.rows[self.pos..];
        let n = rest.len().min(max);
        let err = self.terminal.take_if(|_| n < max);
        // Right-sized: the rows left, and a slot for the error.
        let mut block = ValueBlock::with_capacity(n + usize::from(err.is_some()));
        rest[..n].iter().for_each(|v| block.push_row(v.clone()));
        self.pos += n;
        if let Some(e) = err {
            block.push_err(e);
        }
        (!block.is_empty()).then_some(block)
    }
}

/// Stream `rows`, shared — a computed collection, a cached subquery, a
/// batched key's reply — then `terminal`, if any, as the stream's one
/// error. Nothing is copied up front: a row is cloned as it is packed,
/// so a prefix of a huge collection touches only the prefix.
pub fn shared_blocks(rows: Arc<Vec<Value>>, terminal: Option<KError>) -> BlockStream {
    Box::new(SharedRows {
        rows,
        pos: 0,
        terminal,
    })
}

/// A stream built on its first pull.
struct LazyBlocks<F> {
    make: Option<F>,
    inner: Option<BlockStream>,
}

impl<F: FnOnce() -> KResult<BlockStream> + Send> BlockSource for LazyBlocks<F> {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        if let Some(make) = self.make.take() {
            match make() {
                Ok(stream) => self.inner = Some(stream),
                Err(e) => return Some(ValueBlock::of_err(e)),
            }
        }
        self.inner.as_mut()?.next_block(max_rows)
    }
}

/// The stream `make` builds, built when it is first pulled — a reply
/// redeemed only when its reader reaches it, an operand evaluated only if
/// it is read. A failure to build is the stream's one error block.
pub fn lazy_blocks(make: impl FnOnce() -> KResult<BlockStream> + Send + 'static) -> BlockStream {
    Box::new(LazyBlocks {
        make: Some(make),
        inner: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> KResult<Value> {
        Ok(Value::Int(i))
    }

    #[test]
    fn blocks_respect_the_requested_grain() {
        let mut s = blocks_of_rows(Box::new((0..10).map(row)));
        let b = s.next_block(4).unwrap();
        assert_eq!(b.len(), 4);
        let b = s.next_block(1).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.rows()[0].as_ref().unwrap(), &Value::Int(4));
        let b = s.next_block(100).unwrap();
        assert_eq!(b.len(), 5);
        assert!(s.next_block(100).is_none());
        assert!(s.next_block(1).is_none());
    }

    #[test]
    fn an_error_row_ends_the_block_and_the_stream() {
        let rows: Vec<KResult<Value>> = vec![
            Ok(Value::Int(1)),
            Ok(Value::Int(2)),
            Err(KError::eval("boom")),
            Ok(Value::Int(3)),
        ];
        let mut s = blocks_of_rows(Box::new(rows.into_iter()));
        let b = s.next_block(64).unwrap();
        assert_eq!(b.len(), 3, "two good rows then the error");
        assert!(b.ends_with_err());
        assert!(b.rows()[0].is_ok() && b.rows()[1].is_ok());
        assert!(s.next_block(64).is_none(), "a stream fails at most once");
    }

    #[test]
    fn the_box_iterates_at_grain_one() {
        let s = blocks_of_rows(Box::new((0..3).map(row)));
        let got: Vec<Value> = s.collect::<KResult<_>>().unwrap();
        assert_eq!(got, vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn split_front_preserves_order() {
        let mut s = blocks_of_rows(Box::new((0..5).map(row)));
        let mut b = s.next_block(5).unwrap();
        let front = b.split_front(2);
        assert_eq!(front.len(), 2);
        assert_eq!(front.rows()[0].as_ref().unwrap(), &Value::Int(0));
        assert_eq!(b.len(), 3);
        assert_eq!(b.rows()[0].as_ref().unwrap(), &Value::Int(2));
    }
}
