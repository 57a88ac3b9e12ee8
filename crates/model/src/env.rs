//! The environment overlay: the only place the runtime's crates read
//! `std::env`.
//!
//! A run is exactly the [`MachineConfig`] it is given. Three variables
//! may override a config, and only where a caller asks for it with
//! [`MachineConfig::apply_env`] — test helpers, examples and bench
//! binaries, never the runtime itself. Each one serves a CI leg that
//! reruns existing tests under another configuration:
//!
//! | variable      | overrides                   | values             |
//! |---------------|-----------------------------|--------------------|
//! | `OAM_SHARDS`  | [`MachineConfig::shards`]   | a count ≥ 1        |
//! | `OAM_BACKEND` | [`MachineConfig::backend`]  | `sim` or `native`  |
//! | `OAM_BATCH`   | [`ShardTuning::batch`]      | a batch size ≥ 1   |
//!
//! A value that does not parse is an error, not a silent default.
//!
//! [`ShardTuning::batch`]: crate::ShardTuning::batch

use crate::config::{Backend, MachineConfig};

/// The overrides the process environment asks for. `None` leaves the
/// config's own value in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnvOverlay {
    /// `OAM_SHARDS`: shard count, clamped to the node count on apply so
    /// one setting serves machines of every size.
    pub shards: Option<usize>,
    /// `OAM_BACKEND`: execution backend.
    pub backend: Option<Backend>,
    /// `OAM_BATCH`: delivery batch size (`1` is the per-message path).
    pub batch: Option<u32>,
}

impl EnvOverlay {
    /// Read the overlay from the process environment.
    pub fn read() -> Result<Self, String> {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// Parse the overlay from `get`, which returns a variable's value if
    /// it is set.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let count = |name: &str| -> Result<Option<u32>, String> {
            get(name)
                .map(|v| match v.parse::<u32>() {
                    Ok(n) if n >= 1 => Ok(n),
                    _ => Err(format!("{name}={v:?}: expected a whole number of at least 1")),
                })
                .transpose()
        };
        let backend = get("OAM_BACKEND")
            .map(|v| match v.as_str() {
                "sim" => Ok(Backend::Sim),
                "native" => Ok(Backend::Native),
                _ => Err(format!("OAM_BACKEND={v:?}: expected \"sim\" or \"native\"")),
            })
            .transpose()?;
        Ok(EnvOverlay {
            shards: count("OAM_SHARDS")?.map(|n| n as usize),
            backend,
            batch: count("OAM_BATCH")?,
        })
    }

    /// Override `cfg`'s fields with the ones this overlay sets.
    pub fn apply(self, mut cfg: MachineConfig) -> MachineConfig {
        if let Some(s) = self.shards {
            cfg.shards = s.min(cfg.nodes.max(1));
        }
        if let Some(b) = self.backend {
            cfg.backend = b;
        }
        if let Some(b) = self.batch {
            cfg.tuning.batch = Some(b);
        }
        cfg
    }
}

impl MachineConfig {
    /// This config with the process environment's overrides applied (see
    /// the [module docs](crate::env)). Call it first, so that anything set
    /// afterwards wins over the environment.
    pub fn apply_env(self) -> Result<Self, String> {
        Ok(EnvOverlay::read()?.apply(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlay(vars: &[(&str, &str)]) -> Result<EnvOverlay, String> {
        EnvOverlay::from_lookup(|name| {
            vars.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn environment_shards_above_the_node_count_are_clamped() {
        let env = overlay(&[("OAM_SHARDS", "4")]).unwrap();
        let small = env.apply(MachineConfig::cm5(2));
        assert_eq!((small.shards, small.validate()), (2, Ok(())));
        assert_eq!(env.apply(MachineConfig::cm5(8)).shards, 4);
    }

    #[test]
    fn an_empty_environment_changes_nothing() {
        let env = overlay(&[]).unwrap();
        assert_eq!(env, EnvOverlay::default());
        assert_eq!(env.apply(MachineConfig::cm5(4)), MachineConfig::cm5(4));
    }

    #[test]
    fn every_variable_overrides_its_field() {
        let env =
            overlay(&[("OAM_SHARDS", "2"), ("OAM_BACKEND", "native"), ("OAM_BATCH", "1")]).unwrap();
        let cfg = env.apply(MachineConfig::cm5(4));
        assert_eq!((cfg.shards, cfg.backend, cfg.effective_batch()), (2, Backend::Native, 1));
        let sim = overlay(&[("OAM_BACKEND", "sim")]).unwrap();
        let cfg = sim.apply(MachineConfig::cm5(4).with_backend(Backend::Native));
        assert_eq!(cfg.backend, Backend::Sim);
    }

    #[test]
    fn values_that_do_not_parse_are_errors() {
        assert_eq!(
            overlay(&[("OAM_SHARDS", "two")]),
            Err("OAM_SHARDS=\"two\": expected a whole number of at least 1".into())
        );
        assert_eq!(
            overlay(&[("OAM_BACKEND", "Native")]),
            Err("OAM_BACKEND=\"Native\": expected \"sim\" or \"native\"".into())
        );
        assert_eq!(
            overlay(&[("OAM_BATCH", "0")]),
            Err("OAM_BATCH=\"0\": expected a whole number of at least 1".into())
        );
    }

    #[test]
    fn apply_env_reads_the_process_environment() {
        // The only test in this binary that reads or writes OAM_BATCH.
        let before = std::env::var("OAM_BATCH").ok();
        std::env::set_var("OAM_BATCH", "0");
        let bad = MachineConfig::cm5(2).apply_env();
        std::env::set_var("OAM_BATCH", "3");
        let good = MachineConfig::cm5(2).apply_env().map(|c| c.effective_batch());
        match before {
            Some(v) => std::env::set_var("OAM_BATCH", v),
            None => std::env::remove_var("OAM_BATCH"),
        }
        assert_eq!(bad, Err("OAM_BATCH=\"0\": expected a whole number of at least 1".into()));
        assert_eq!(good, Ok(3));
    }
}
