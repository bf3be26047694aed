//! Simulated remote processing (Section 4, "Remote Processing").
//!
//! "The server may store the base data and the big samples, while the touch
//! device may store only small samples. Then, during query processing dbTouch
//! may use both local and remote data to process queries; as users request more
//! detail, more requests are shipped to the server. [...] dbTouch needs to
//! carefully exploit both local and remote data, i.e., use local data to feed
//! partial answers, while in the mean time more fine-grained answers are
//! produced and delivered by the server."
//!
//! The paper has no real deployment; the split itself is executed by
//! [`crate::remote_exec`] (device-resident coarse levels answer at once, the
//! fine answer arrives later as a refinement). This module holds what that
//! executor and the session reports share: the [`NetworkModel`] that prices a
//! simulated round trip and the [`RemoteStats`] traffic counters.

use serde::{Deserialize, Serialize};

/// Accumulated traffic statistics.
///
/// One request counter: a summary touch finer than the device holds is one
/// progressive request (coarse local answer plus fine remote refinement);
/// device-local touches are not counted here. All accumulation saturates, so
/// adversarial [`NetworkModel`] values cannot wrap the counters in release
/// builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteStats {
    /// Progressive requests: one coarse local answer plus one fine remote
    /// refinement, counted once here.
    pub progressive_requests: u64,
    /// Rows shipped from the server.
    pub rows_shipped: u64,
    /// Total simulated time spent waiting on the server, in microseconds.
    pub remote_wait_micros: u64,
}

dbtouch_types::wire_struct!(RemoteStats {
    progressive_requests: u64,
    rows_shipped: u64,
    remote_wait_micros: u64,
});

impl RemoteStats {
    /// Saturating accumulation of another stats block into this one.
    pub fn absorb(&mut self, other: &RemoteStats) {
        self.progressive_requests = self
            .progressive_requests
            .saturating_add(other.progressive_requests);
        self.rows_shipped = self.rows_shipped.saturating_add(other.rows_shipped);
        self.remote_wait_micros = self
            .remote_wait_micros
            .saturating_add(other.remote_wait_micros);
    }
}

/// Network model of the simulated server link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Round-trip latency per request, in microseconds.
    pub round_trip_micros: u64,
    /// Transfer throughput in rows per millisecond.
    pub rows_per_milli: u64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        // A reasonable WAN: 40ms round trip, ~2000 rows (16KB of int64) per ms.
        NetworkModel {
            round_trip_micros: 40_000,
            rows_per_milli: 2_000,
        }
    }
}

impl NetworkModel {
    /// The link described by a [`dbtouch_types::RemoteSplitConfig`].
    pub fn from_split(split: &dbtouch_types::RemoteSplitConfig) -> NetworkModel {
        NetworkModel {
            round_trip_micros: split.round_trip_micros,
            rows_per_milli: split.rows_per_milli,
        }
    }

    /// Simulated microseconds one request shipping `rows` costs: the round
    /// trip plus the transfer time. Saturating — adversarial models (e.g.
    /// `round_trip_micros == u64::MAX`) clamp instead of wrapping in release
    /// builds; a zero-bandwidth link is latency-only.
    pub fn cost_micros(&self, rows: u64) -> u64 {
        let transfer = rows
            .saturating_mul(1000)
            .checked_div(self.rows_per_milli)
            .unwrap_or(0);
        self.round_trip_micros.saturating_add(transfer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_charges_latency_plus_transfer() {
        let model = NetworkModel::default();
        assert_eq!(model.cost_micros(20_000), 40_000 + 20_000 * 1000 / 2_000);
        assert_eq!(model.cost_micros(0), 40_000);
    }

    #[test]
    fn adversarial_network_model_saturates_instead_of_overflowing() {
        let model = NetworkModel {
            round_trip_micros: u64::MAX,
            rows_per_milli: 1,
        };
        assert_eq!(model.cost_micros(50_000), u64::MAX);
        // A model whose transfer product alone would overflow u64.
        let model = NetworkModel {
            round_trip_micros: 0,
            rows_per_milli: 1,
        };
        assert_eq!(model.cost_micros(u64::MAX / 2), u64::MAX);

        // RemoteStats::absorb saturates too.
        let mut a = RemoteStats {
            remote_wait_micros: u64::MAX - 10,
            rows_shipped: u64::MAX,
            ..RemoteStats::default()
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.remote_wait_micros, u64::MAX);
        assert_eq!(a.rows_shipped, u64::MAX);
        assert_eq!(a.progressive_requests, 0);
    }

    #[test]
    fn zero_bandwidth_model_only_charges_latency() {
        let model = NetworkModel {
            round_trip_micros: 1_000,
            rows_per_milli: 0,
        };
        assert_eq!(model.cost_micros(100), 1_000);
    }
}
