//! Server configuration.
//!
//! [`ServerConfig`] is the one validated builder every way of bringing up an
//! [`ExplorationServer`] goes through: worker pool and queue knobs, the
//! catalog to serve (a shared catalog handed in — memory-only or opened from
//! a persistent directory — or a fresh memory-only one), and — for the
//! network serving layer in `dbtouch-net` — the listener address, connection
//! limits and the admission control ([`ShedConfig`]) thresholds.
//!
//! [`ExplorationServer`]: crate::manager::ExplorationServer

use dbtouch_core::catalog::SharedCatalog;
use dbtouch_types::{DbTouchError, Result};
use std::fmt;
use std::sync::Arc;

/// Admission-control thresholds for the network serving layer.
///
/// Every threshold is read from the live [`metrics_snapshot`] signals — the
/// PR 6 telemetry hub — right before an `OpenSession` or `RunTrace` is
/// admitted; a tripped threshold produces an explicit `Shed` response with a
/// suggested backoff instead of queueing the request without bound. `None`
/// disables the corresponding check.
///
/// [`metrics_snapshot`]: crate::manager::ExplorationServer::metrics_snapshot
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedConfig {
    /// Shed new sessions once this many are live across all workers
    /// (`sum(worker_loads)`, poisoned workers excluded). `None`: unlimited.
    pub max_live_sessions: Option<u64>,
    /// Shed traffic while the remote executor's backlog
    /// (`remote_exec.backlog`) is at or above this. `None`: unlimited.
    pub max_remote_backlog: Option<u64>,
    /// Shed traffic while the server-wide per-touch p99
    /// (`server.touch_nanos` histogram) exceeds this many nanoseconds —
    /// the paper's interactivity ceiling made an admission signal.
    /// `None`: unlimited.
    pub max_touch_p99_nanos: Option<u64>,
    /// Backoff suggested to shed clients, in milliseconds.
    pub retry_after_ms: u64,
}

impl Default for ShedConfig {
    fn default() -> ShedConfig {
        ShedConfig {
            max_live_sessions: None,
            max_remote_backlog: None,
            max_touch_p99_nanos: None,
            retry_after_ms: 100,
        }
    }
}

/// Configuration of the exploration server: worker pool, queues, catalog
/// source, and the network-serving knobs `dbtouch-net` reads.
///
/// [`ExplorationServer::serve`] is the single entry point consuming this.
///
/// [`ExplorationServer::serve`]: crate::manager::ExplorationServer::serve
#[derive(Clone)]
pub struct ServerConfig {
    /// Number of worker threads processing sessions. Each session is pinned
    /// to one worker; a worker multiplexes many sessions.
    pub worker_threads: usize,
    /// Maximum number of in-flight events per session. A session submitting
    /// faster than its worker drains blocks on [`SessionHandle::run_trace`]
    /// (backpressure) instead of queueing without bound.
    ///
    /// [`SessionHandle::run_trace`]: crate::manager::SessionHandle::run_trace
    pub session_queue_depth: usize,
    /// The shared catalog to serve. A persistent one is opened with
    /// [`SharedCatalog::open`] and handed in the same way; every epoch it
    /// publishes is persisted as it happens. `None`: [`serve`] creates a
    /// fresh memory-only catalog with the default
    /// [`KernelConfig`](dbtouch_types::KernelConfig).
    ///
    /// [`serve`]: crate::manager::ExplorationServer::serve
    pub catalog: Option<Arc<SharedCatalog>>,
    /// Address the network layer (`dbtouch-net`) listens on, e.g.
    /// `"127.0.0.1:0"`. The in-process server ignores it; `dbtouch-net`
    /// requires it.
    pub listen_addr: Option<String>,
    /// Maximum simultaneous client connections the network layer serves;
    /// further connections receive a `Shed` frame and are closed.
    pub max_connections: usize,
    /// Admission-control thresholds driven by live telemetry.
    pub shed: ShedConfig,
}

impl ServerConfig {
    /// `worker_threads` sized to the machine, depth 64, memory-only catalog.
    pub fn auto() -> ServerConfig {
        ServerConfig::default()
    }

    /// A specific worker count with the default queue depth.
    pub fn with_workers(worker_threads: usize) -> ServerConfig {
        ServerConfig {
            worker_threads: worker_threads.max(1),
            ..ServerConfig::default()
        }
    }

    /// Builder-style setter: serve an existing shared catalog.
    pub fn with_catalog(mut self, catalog: Arc<SharedCatalog>) -> ServerConfig {
        self.catalog = Some(catalog);
        self
    }

    /// Builder-style setter for the network listen address.
    pub fn with_listen_addr(mut self, addr: impl Into<String>) -> ServerConfig {
        self.listen_addr = Some(addr.into());
        self
    }

    /// Builder-style setter for the admission-control thresholds.
    pub fn with_shed(mut self, shed: ShedConfig) -> ServerConfig {
        self.shed = shed;
        self
    }

    /// Check the configuration for contradictions and out-of-range values.
    /// [`ExplorationServer::serve`] calls this before spawning anything.
    ///
    /// [`ExplorationServer::serve`]: crate::manager::ExplorationServer::serve
    pub fn validate(&self) -> Result<()> {
        if self.worker_threads == 0 {
            return Err(DbTouchError::InvalidConfig(
                "worker_threads must be at least 1".into(),
            ));
        }
        if self.session_queue_depth == 0 {
            return Err(DbTouchError::InvalidConfig(
                "session_queue_depth must be at least 1".into(),
            ));
        }
        if self.max_connections == 0 {
            return Err(DbTouchError::InvalidConfig(
                "max_connections must be at least 1".into(),
            ));
        }
        if let Some(addr) = &self.listen_addr {
            if addr.is_empty() {
                return Err(DbTouchError::InvalidConfig(
                    "listen_addr must not be empty".into(),
                ));
            }
        }
        if self.shed.max_live_sessions == Some(0) {
            return Err(DbTouchError::InvalidConfig(
                "shed.max_live_sessions of 0 would shed every session; use \
                 None to disable the check"
                    .into(),
            ));
        }
        Ok(())
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServerConfig {
            worker_threads: parallelism.clamp(2, 16),
            session_queue_depth: 64,
            catalog: None,
            listen_addr: None,
            max_connections: 1024,
            shed: ShedConfig::default(),
        }
    }
}

// Manual impl: `SharedCatalog` is not `Debug`; show presence, not contents.
impl fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerConfig")
            .field("worker_threads", &self.worker_threads)
            .field("session_queue_depth", &self.session_queue_depth)
            .field(
                "catalog",
                &self.catalog.as_ref().map(|_| "Arc<SharedCatalog>"),
            )
            .field("listen_addr", &self.listen_addr)
            .field("max_connections", &self.max_connections)
            .field("shed", &self.shed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.worker_threads >= 2);
        assert!(c.session_queue_depth > 0);
        assert!(c.max_connections > 0);
        assert_eq!(ServerConfig::with_workers(0).worker_threads, 1);
        assert_eq!(ServerConfig::with_workers(5).worker_threads, 5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_contradictions() {
        let zero_workers = ServerConfig {
            worker_threads: 0,
            ..ServerConfig::default()
        };
        assert!(zero_workers.validate().is_err());

        let zero_depth = ServerConfig {
            session_queue_depth: 0,
            ..ServerConfig::default()
        };
        assert!(zero_depth.validate().is_err());

        let zero_connections = ServerConfig {
            max_connections: 0,
            ..ServerConfig::default()
        };
        assert!(zero_connections.validate().is_err());
        assert!(ServerConfig::default()
            .with_listen_addr("")
            .validate()
            .is_err());
        assert!(ServerConfig::default()
            .with_shed(ShedConfig {
                max_live_sessions: Some(0),
                ..ShedConfig::default()
            })
            .validate()
            .is_err());
    }

    #[test]
    fn builders_compose() {
        let c = ServerConfig::with_workers(3)
            .with_listen_addr("127.0.0.1:0")
            .with_shed(ShedConfig {
                max_live_sessions: Some(1),
                retry_after_ms: 50,
                ..ShedConfig::default()
            });
        assert_eq!(c.worker_threads, 3);
        assert_eq!(c.listen_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(c.shed.max_live_sessions, Some(1));
        assert_eq!(c.shed.retry_after_ms, 50);
        assert!(c.validate().is_ok());
        // Debug never touches catalog contents.
        assert!(format!("{c:?}").contains("max_connections"));
    }
}
