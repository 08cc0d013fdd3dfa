//! Error type shared by every layer of the system.

use std::fmt;

/// Any error produced while parsing, typing, optimizing, or executing a CPL
/// query, or while talking to a data-source driver.
#[derive(Debug, Clone, PartialEq)]
pub enum KError {
    /// Surface-syntax error with 1-based position information.
    Parse {
        /// What went wrong.
        msg: String,
        /// 1-based line of the offending token.
        line: u32,
        /// 1-based column of the offending token.
        col: u32,
    },
    /// Static type error.
    Type(String),
    /// An unbound variable or undefined function name.
    Unbound(String),
    /// Runtime evaluation error (wrong shapes, missing fields, ...).
    Eval(String),
    /// A data-source driver failed.
    Driver {
        /// The registered name of the failing driver.
        driver: String,
        /// What the driver reported.
        msg: String,
    },
    /// Malformed exchange text.
    Exchange(String),
    /// Malformed native-format data (SQL, ASN.1, ACE, FASTA, ...).
    Format {
        /// Which format was being read (e.g. `"fasta"`).
        format: String,
        /// What was malformed.
        msg: String,
    },
    /// A submitted request or query was cancelled before completion.
    Cancelled(String),
    /// A request missed its deadline: the waiter gave up, released the
    /// admission ticket, and abandoned whatever worker was still wedged.
    Timeout {
        /// The driver (or `"query"` for session-level deadlines) that
        /// failed to answer in time.
        driver: String,
        /// What the waiter was doing when the deadline passed.
        msg: String,
    },
    /// The per-driver circuit breaker is open: recent consecutive
    /// failures mean the request was failed fast instead of queued
    /// behind a source presumed down.
    CircuitOpen {
        /// The driver whose breaker is open.
        driver: String,
    },
    /// A *transient* transport-level failure talking to a driver
    /// (connection refused/reset, server marked unavailable). Unlike the
    /// semantic [`KError::Driver`] variant this is presumed retryable:
    /// repeating the identical request may succeed.
    Transport {
        /// The registered name of the unreachable driver.
        driver: String,
        /// What the transport layer reported.
        msg: String,
    },
}

impl KError {
    /// A [`KError::Parse`] at the given 1-based position.
    pub fn parse(msg: impl Into<String>, line: u32, col: u32) -> KError {
        KError::Parse {
            msg: msg.into(),
            line,
            col,
        }
    }

    /// A runtime [`KError::Eval`].
    pub fn eval(msg: impl Into<String>) -> KError {
        KError::Eval(msg.into())
    }

    /// A static [`KError::Type`] error.
    pub fn ty(msg: impl Into<String>) -> KError {
        KError::Type(msg.into())
    }

    /// A [`KError::Driver`] failure attributed to `driver`.
    pub fn driver(driver: impl Into<String>, msg: impl Into<String>) -> KError {
        KError::Driver {
            driver: driver.into(),
            msg: msg.into(),
        }
    }

    /// A malformed-exchange-stream [`KError::Exchange`] error.
    pub fn exchange(msg: impl Into<String>) -> KError {
        KError::Exchange(msg.into())
    }

    /// A [`KError::Format`] error in the named native format.
    pub fn format(format: impl Into<String>, msg: impl Into<String>) -> KError {
        KError::Format {
            format: format.into(),
            msg: msg.into(),
        }
    }

    /// A [`KError::Cancelled`] resolution for an abandoned request/query.
    pub fn cancelled(msg: impl Into<String>) -> KError {
        KError::Cancelled(msg.into())
    }

    /// A [`KError::Timeout`] for a request that missed its deadline.
    pub fn timeout(driver: impl Into<String>, msg: impl Into<String>) -> KError {
        KError::Timeout {
            driver: driver.into(),
            msg: msg.into(),
        }
    }

    /// A [`KError::CircuitOpen`] fail-fast rejection for `driver`.
    pub fn circuit_open(driver: impl Into<String>) -> KError {
        KError::CircuitOpen {
            driver: driver.into(),
        }
    }

    /// A transient [`KError::Transport`] failure attributed to `driver`.
    pub fn transport(driver: impl Into<String>, msg: impl Into<String>) -> KError {
        KError::Transport {
            driver: driver.into(),
            msg: msg.into(),
        }
    }

    /// Whether retrying the *identical* request may succeed.
    ///
    /// Only [`KError::Transport`] qualifies: a connection that was refused
    /// or reset says nothing about the request itself. Semantic failures
    /// ([`KError::Driver`], [`KError::Format`], ...) would fail again,
    /// [`KError::Timeout`] already consumed the caller's patience, and
    /// [`KError::CircuitOpen`] means retries are being shed on purpose —
    /// the retry loop in `resilience` treats all of those as final.
    pub fn is_retryable(&self) -> bool {
        matches!(self, KError::Transport { .. })
    }

    /// Whether this is a deadline miss ([`KError::Timeout`]).
    ///
    /// Timeouts are *not* [`KError::is_retryable`] — the deadline already
    /// bounds the caller's total wait — but they do count as failures for
    /// the per-driver circuit breaker, which this predicate lets callers
    /// classify without matching variant fields.
    pub fn is_timeout(&self) -> bool {
        matches!(self, KError::Timeout { .. })
    }
}

impl fmt::Display for KError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KError::Parse { msg, line, col } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            KError::Type(m) => write!(f, "type error: {m}"),
            KError::Unbound(n) => write!(f, "unbound identifier: {n}"),
            KError::Eval(m) => write!(f, "evaluation error: {m}"),
            KError::Driver { driver, msg } => write!(f, "driver '{driver}': {msg}"),
            KError::Exchange(m) => write!(f, "exchange format error: {m}"),
            KError::Format { format, msg } => write!(f, "{format} format error: {msg}"),
            KError::Cancelled(m) => write!(f, "cancelled: {m}"),
            KError::Timeout { driver, msg } => {
                write!(f, "timeout waiting on '{driver}': {msg}")
            }
            KError::CircuitOpen { driver } => {
                write!(f, "circuit open for '{driver}': failing fast")
            }
            KError::Transport { driver, msg } => {
                write!(f, "transport error reaching '{driver}': {msg}")
            }
        }
    }
}

impl std::error::Error for KError {}

/// Result alias used throughout the workspace.
pub type KResult<T> = Result<T, KError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = KError::parse("unexpected '}'", 3, 14);
        assert_eq!(e.to_string(), "parse error at 3:14: unexpected '}'");
        let e = KError::driver("GDB", "connection refused");
        assert!(e.to_string().contains("GDB"));
        let e = KError::format("fasta", "missing header");
        assert!(e.to_string().contains("fasta"));
        let e = KError::timeout("GDB", "deadline exceeded");
        assert!(e.to_string().contains("GDB"));
        let e = KError::circuit_open("ENTREZ");
        assert!(e.to_string().contains("failing fast"));
        let e = KError::transport("ACE", "connection reset");
        assert!(e.to_string().contains("ACE"));
    }

    #[test]
    fn only_transport_errors_are_retryable() {
        assert!(KError::transport("GDB", "connection refused").is_retryable());
        for e in [
            KError::driver("GDB", "no such table"),
            KError::timeout("GDB", "deadline exceeded"),
            KError::circuit_open("GDB"),
            KError::cancelled("dropped"),
            KError::eval("bad shape"),
            KError::format("sql", "syntax"),
        ] {
            assert!(!e.is_retryable(), "{e} must not be retryable");
        }
    }

    #[test]
    fn timeout_classification() {
        assert!(KError::timeout("GDB", "x").is_timeout());
        assert!(!KError::transport("GDB", "x").is_timeout());
        assert!(!KError::cancelled("x").is_timeout());
    }
}
