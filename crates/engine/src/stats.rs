//! The engine's own totals, [`TriggerMan::stats`](crate::TriggerMan::stats).

use std::sync::Arc;
use tman_telemetry::Counter;

/// Engine-level counters, created in the engine's registry (see
/// `metrics.rs`).
#[derive(Debug)]
pub struct EngineStats {
    /// `tman_tokens_processed_total`: tokens fully processed.
    pub tokens: Arc<Counter>,
    /// `tman_firings_total`: condition matches that reached a P-node.
    pub firings: Arc<Counter>,
    /// `tman_actions_run_total`: rule actions executed.
    pub actions: Arc<Counter>,
    /// `tman_task_errors_total`: task failures (see
    /// [`TriggerMan::last_error`](crate::TriggerMan::last_error)).
    pub errors: Arc<Counter>,
}

#[cfg(test)]
mod tests {
    use crate::cache::tests::dummy_trigger;
    use crate::metrics::EngineTelemetry;
    use crate::TriggerCache;
    use std::sync::Arc;
    use tman_common::TriggerId;
    use tman_telemetry::Registry;

    #[test]
    fn counter_basics() {
        // A total is the registry's series: what it counts is read under
        // its name, and a reset zeroes both.
        let (telemetry, stats) = EngineTelemetry::new();
        let read = || {
            telemetry
                .registry
                .find_counter("tman_tokens_processed_total", &[])
        };
        stats.tokens.bump();
        stats.tokens.add(4);
        assert_eq!((stats.tokens.get(), read()), (5, 5));
        assert_eq!(stats.tokens.reset(), 5);
        assert_eq!((stats.tokens.get(), read()), (0, 0));
    }

    #[test]
    fn cache_hit_rate() {
        // The trigger cache's hit rate as an operator reads it: from its
        // series in the registry it registered them in.
        let registry = Registry::new();
        let cache = Arc::new(TriggerCache::new(4));
        cache.attach_telemetry(&registry);
        let hit_rate = || {
            let h = registry.find_counter("tman_cache_hits_total", &[]) as f64;
            let m = registry.find_counter("tman_cache_misses_total", &[]) as f64;
            if h + m == 0.0 {
                0.0
            } else {
                h / (h + m)
            }
        };
        assert_eq!(hit_rate(), 0.0);
        for _ in 0..4 {
            drop(cache.pin(TriggerId(1), || Ok(dummy_trigger(1))).unwrap());
        }
        assert!((hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(registry.find_counter("tman_cache_pins_total", &[]), 4);
    }
}
