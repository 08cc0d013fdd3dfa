//! The ACE `Source`: answers class scans and named-object fetches. Served
//! through the shared remote-driver shell, which enforces the tolerated
//! request concurrency advertised here and prefetches rows a bounded
//! distance ahead of the consumer.

use parking_lot::RwLock;

use kleisli_core::{
    Capabilities, DriverRequest, KError, KResult, LatencyModel, Oid, Remote, ResiliencePolicy,
    Source, Value,
};

use crate::store::AceStore;

/// The data half of a served ACE database.
pub struct Ace {
    store: RwLock<AceStore>,
}

/// A served ACE database.
pub type AceServer = Remote<Ace>;

/// ACE servers of the era tolerated only a few concurrent clients.
const ACE_CONCURRENT_REQUESTS: usize = 4;

/// The *ceiling* on rows a pool worker pulls ahead of the consumer per
/// request; the buffer's effective depth adapts between 0 and this to
/// the consumer's drain rate (`kleisli_core::pool`, "Adaptive depth").
/// ACE objects are deep trees; keep the buffered working set small.
/// Advertised only when the server's latency model charges a per-row
/// transfer cost — with instant rows there is no latency to hide.
pub const ACE_PREFETCH_ROWS: usize = 8;

impl From<AceStore> for Ace {
    fn from(store: AceStore) -> Ace {
        Ace {
            store: RwLock::new(store),
        }
    }
}

impl Ace {
    pub fn with_store<R>(&self, f: impl FnOnce(&mut AceStore) -> R) -> R {
        f(&mut self.store.write())
    }

    /// Resolve an object identity (used by the session's `deref`).
    pub fn deref(&self, oid: &Oid) -> KResult<Value> {
        self.store.read().deref(oid)
    }
}

impl Source for Ace {
    fn capabilities(&self, latency: &LatencyModel) -> Capabilities {
        Capabilities {
            max_concurrent_requests: ACE_CONCURRENT_REQUESTS,
            // 0 unless the latency model realizes a real per-row sleep:
            // prefetch pipelines wall-clock transfer latency only.
            prefetch_rows: latency.effective_prefetch(ACE_PREFETCH_ROWS),
            // a remote source: advertise retry + circuit breaking
            resilience: ResiliencePolicy::standard(),
            ..Capabilities::default()
        }
    }

    fn answer(&self, driver: &str, req: &DriverRequest) -> KResult<Vec<Value>> {
        match req {
            DriverRequest::AceFetch { class, name } => {
                let store = self.store.read();
                match name {
                    Some(n) => {
                        let obj = store.find(class, n).ok_or_else(|| {
                            KError::driver(driver, format!("no object {class}:\"{n}\""))
                        })?;
                        Ok(vec![obj.to_value()])
                    }
                    None => Ok(store.class(class).iter().map(|o| o.to_value()).collect()),
                }
            }
            other => Err(KError::driver(
                driver,
                format!("unsupported request: {}", other.describe()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleisli_core::Driver;

    fn server() -> AceServer {
        let mut store = AceStore::new();
        store
            .insert(
                "Clone",
                "c22-5",
                vec![("Length".into(), vec![Value::Int(1200)])],
            )
            .unwrap();
        store
            .insert(
                "Clone",
                "c22-9",
                vec![("Length".into(), vec![Value::Int(900)])],
            )
            .unwrap();
        AceServer::serve("ACE22", store.into(), LatencyModel::instant())
    }

    #[test]
    fn class_scan_and_named_fetch() {
        let s = server();
        let all: Vec<Value> = s
            .submit(&DriverRequest::AceFetch {
                class: "Clone".into(),
                name: None,
            })
            .unwrap()
            .wait()
            .unwrap()
            .collect::<KResult<_>>()
            .unwrap();
        assert_eq!(all.len(), 2);
        let one: Vec<Value> = s
            .submit(&DriverRequest::AceFetch {
                class: "Clone".into(),
                name: Some("c22-9".into()),
            })
            .unwrap()
            .wait()
            .unwrap()
            .collect::<KResult<_>>()
            .unwrap();
        assert_eq!(one[0].project("Length"), Some(&Value::Int(900)));
    }

    #[test]
    fn missing_object_is_a_driver_error() {
        let s = server();
        assert!(s
            .submit(&DriverRequest::AceFetch {
                class: "Clone".into(),
                name: Some("nope".into())
            })
            .unwrap()
            .wait()
            .is_err());
    }

    #[test]
    fn metrics_count_rows() {
        let s = server();
        let _ = s
            .perform(&DriverRequest::AceFetch {
                class: "Clone".into(),
                name: None,
            })
            .unwrap()
            .collect::<Vec<_>>();
        assert_eq!(s.metrics().rows_shipped, 2);
    }
}
