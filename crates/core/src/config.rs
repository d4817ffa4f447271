//! Settings for the online behavioral reputation loop.
//!
//! The framework itself is configured through [`crate::FrameworkBuilder`];
//! the online loop's settings live here so `aipow_net::ServerConfig` can
//! carry them without `aipow-core` depending on the online crate.

use core::fmt;

/// Tuning for the online behavioral reputation loop (see the
/// `aipow-online` crate).
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSettings {
    /// Maximum clients the behavior recorder tracks. Enforced per shard
    /// (`capacity / shard_count` each): a full shard evicts its
    /// least-recently-seen sketch (cheapest-eviction, like the cost
    /// ledger) under a single lock, keeping the tap's worst case bounded
    /// on the admission path.
    pub capacity: usize,
    /// Shard count for the recorder's sketch table; `None` picks the
    /// machine default. Like the other capacity-evicting structures, the
    /// count is adjusted on both sides
    /// (`aipow_shard::ShardLayout::bounded`): raised so no shard holds
    /// more than [`max_scan`](Self::max_scan) sketches (the eviction
    /// victim scan runs under the shard lock on the admission path and
    /// must stay bounded), capped at `capacity`, and floored to a power
    /// of two — so per-shard capacity stays ≥ 1 and the total population
    /// bound never exceeds `capacity`.
    pub shard_count: Option<usize>,
    /// Bound on the entries one eviction victim scan may visit in the
    /// sketch table.
    pub max_scan: usize,
    /// Half-life of the exponential decay applied to every behavioral
    /// counter, in milliseconds. Reputation recovers on this timescale
    /// after a client's behaviour improves.
    pub half_life_ms: u64,
    /// Number of observed events at which live behaviour and the prior
    /// are weighted equally. Cold clients (zero events) score exactly the
    /// prior; confidence grows as `events / (events + prior_strength)`.
    pub prior_strength: f64,
    /// Period of the background decay/rescore sweep, in milliseconds.
    pub decay_interval_ms: u64,
    /// Sketches whose decayed event weight falls below this are pruned by
    /// the sweep (full redemption: the client is forgotten).
    pub prune_below: f64,
    /// When set, the decay worker derives `Framework::set_load` from the
    /// observed aggregate arrival rate: `load = rps / capacity_rps`,
    /// clamped to `[0, 1]`.
    pub load_capacity_rps: Option<f64>,
}

impl Default for OnlineSettings {
    fn default() -> Self {
        OnlineSettings {
            capacity: 65_536,
            shard_count: None,
            max_scan: aipow_shard::DEFAULT_MAX_SCAN,
            half_life_ms: 60_000,
            prior_strength: 16.0,
            decay_interval_ms: 1_000,
            prune_below: 0.01,
            load_capacity_rps: None,
        }
    }
}

impl OnlineSettings {
    /// Validates the settings.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on zero capacities/half-life, bad shard
    /// counts, or non-finite weights.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.capacity == 0 {
            return Err(ConfigError::ZeroCapacity {
                field: "online recorder",
            });
        }
        if self.half_life_ms == 0 {
            return Err(ConfigError::ZeroDuration {
                field: "online half-life",
            });
        }
        if self.decay_interval_ms == 0 {
            return Err(ConfigError::ZeroDuration {
                field: "online decay interval",
            });
        }
        if let Some(shards) = self.shard_count {
            if shards == 0 || shards > aipow_shard::MAX_SHARDS {
                return Err(ConfigError::BadShardCount { requested: shards });
            }
        }
        if self.max_scan == 0 {
            return Err(ConfigError::BadMaxScan { requested: 0 });
        }
        if !self.prior_strength.is_finite() || self.prior_strength < 0.0 {
            return Err(ConfigError::BadOnlineWeight {
                field: "prior_strength",
                value: self.prior_strength,
            });
        }
        if !self.prune_below.is_finite() || self.prune_below < 0.0 {
            return Err(ConfigError::BadOnlineWeight {
                field: "prune_below",
                value: self.prune_below,
            });
        }
        if let Some(rps) = self.load_capacity_rps {
            if !rps.is_finite() || rps <= 0.0 {
                return Err(ConfigError::BadOnlineWeight {
                    field: "load_capacity_rps",
                    value: rps,
                });
            }
        }
        Ok(())
    }
}

/// Error from [`OnlineSettings::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A capacity field was zero.
    ZeroCapacity {
        /// Which field was zero.
        field: &'static str,
    },
    /// The shard count was zero or beyond the supported maximum.
    BadShardCount {
        /// The rejected count.
        requested: usize,
    },
    /// The eviction scan bound was zero.
    BadMaxScan {
        /// The rejected bound.
        requested: usize,
    },
    /// A duration field was zero.
    ZeroDuration {
        /// Which field was zero.
        field: &'static str,
    },
    /// An online-loop weight was not a finite number in its valid range.
    BadOnlineWeight {
        /// Which field was invalid.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCapacity { field } => {
                write!(f, "{field} capacity must be positive")
            }
            ConfigError::BadShardCount { requested } => {
                write!(
                    f,
                    "shard count {requested} outside [1, {}]",
                    aipow_shard::MAX_SHARDS
                )
            }
            ConfigError::BadMaxScan { requested } => {
                write!(f, "eviction scan bound {requested} must be positive")
            }
            ConfigError::ZeroDuration { field } => {
                write!(f, "{field} must be a positive number of milliseconds")
            }
            ConfigError::BadOnlineWeight { field, value } => {
                write!(f, "online setting {field} = {value} is out of range")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_settings_validate_through_config() {
        assert!(OnlineSettings::default().validate().is_ok());

        for bad in [
            OnlineSettings {
                capacity: 0,
                ..Default::default()
            },
            OnlineSettings {
                half_life_ms: 0,
                ..Default::default()
            },
            OnlineSettings {
                decay_interval_ms: 0,
                ..Default::default()
            },
            OnlineSettings {
                shard_count: Some(0),
                ..Default::default()
            },
            OnlineSettings {
                max_scan: 0,
                ..Default::default()
            },
            OnlineSettings {
                prior_strength: f64::NAN,
                ..Default::default()
            },
            OnlineSettings {
                prune_below: -1.0,
                ..Default::default()
            },
            OnlineSettings {
                load_capacity_rps: Some(0.0),
                ..Default::default()
            },
        ] {
            assert!(
                bad.validate().is_err(),
                "settings should be rejected: {bad:?}"
            );
        }
    }

    #[test]
    fn errors_display() {
        assert!(!ConfigError::ZeroCapacity { field: "audit" }
            .to_string()
            .is_empty());
        assert!(ConfigError::BadOnlineWeight {
            field: "prior_strength",
            value: -1.0,
        }
        .to_string()
        .contains("prior_strength"));
    }
}
