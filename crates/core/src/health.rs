//! The runtime health monitor behind graceful degradation: it turns the
//! prediction-health signals (violation streaks, online APE) into an
//! engage/disengage switch for the safe fallback configuration.

/// Tracks whether the controller's predictions can still be trusted.
/// Two independent triggers engage degraded mode:
///
/// * a streak of `max_violation_streak` consecutive SLO-violating
///   decision intervals, or
/// * a rolling mean online APE (prediction vs. measurement of the
///   constrained percentile) above `ape_threshold` over a full
///   `ape_window` of measured intervals.
///
/// Once degraded, `recovery_intervals` consecutive violation-free
/// intervals re-arm the controller. The asymmetry is deliberate: falling
/// back must be fast (violations are user-visible), recovery can be
/// cautious.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    /// Consecutive violating intervals that trigger degradation.
    pub(crate) max_violation_streak: usize,
    /// Rolling mean online-APE (%) above which predictions are unhealthy.
    pub(crate) ape_threshold: f64,
    /// Number of APE observations the rolling mean is taken over.
    pub(crate) ape_window: usize,
    /// Consecutive clean intervals needed to leave degraded mode.
    pub(crate) recovery_intervals: usize,
    streak: usize,
    apes: Vec<f64>,
    degraded: bool,
    clean: usize,
    engagements: usize,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor {
            max_violation_streak: 3,
            ape_threshold: 50.0,
            ape_window: 8,
            recovery_intervals: 3,
            streak: 0,
            apes: Vec::new(),
            degraded: false,
            clean: 0,
            engagements: 0,
        }
    }
}

impl HealthMonitor {
    /// Currently in degraded (fallback) mode?
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Times degraded mode has engaged so far.
    pub fn engagements(&self) -> usize {
        self.engagements
    }

    /// Feed one measured interval: its violation flag and (when the
    /// policy predicted) its online APE. Returns `Some(new_state)` when
    /// the degraded state flips, `None` otherwise.
    pub(crate) fn observe(&mut self, violated: bool, online_ape: Option<f64>) -> Option<bool> {
        if !self.degraded {
            self.streak = if violated { self.streak + 1 } else { 0 };
            if let Some(a) = online_ape {
                self.apes.push(a);
                if self.apes.len() > self.ape_window {
                    self.apes.remove(0);
                }
            }
            let ape_unhealthy = self.apes.len() >= self.ape_window
                && self.apes.iter().sum::<f64>() / self.apes.len() as f64 > self.ape_threshold;
            if self.streak >= self.max_violation_streak || ape_unhealthy {
                self.degraded = true;
                self.engagements += 1;
                self.streak = 0;
                self.clean = 0;
                self.apes.clear();
                return Some(true);
            }
            None
        } else {
            self.clean = if violated { 0 } else { self.clean + 1 };
            if self.clean >= self.recovery_intervals {
                self.degraded = false;
                self.clean = 0;
                return Some(false);
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_monitor_engages_on_violation_streak() {
        let mut hm = HealthMonitor::default();
        assert!(!hm.is_degraded());
        assert_eq!(hm.observe(true, None), None);
        assert_eq!(hm.observe(true, None), None);
        assert_eq!(hm.observe(true, None), Some(true));
        assert!(hm.is_degraded());
        assert_eq!(hm.engagements(), 1);
    }

    #[test]
    fn health_monitor_streak_resets_on_clean_interval() {
        let mut hm = HealthMonitor::default();
        hm.observe(true, None);
        hm.observe(true, None);
        hm.observe(false, None);
        hm.observe(true, None);
        hm.observe(true, None);
        assert!(!hm.is_degraded(), "broken streak must not engage");
    }

    #[test]
    fn health_monitor_engages_on_bad_ape() {
        let mut hm = HealthMonitor {
            ape_window: 4,
            ape_threshold: 30.0,
            ..HealthMonitor::default()
        };
        for _ in 0..3 {
            assert_eq!(hm.observe(false, Some(80.0)), None);
        }
        assert_eq!(hm.observe(false, Some(80.0)), Some(true));
        assert!(hm.is_degraded());
    }

    #[test]
    fn health_monitor_recovers_after_clean_run() {
        let mut hm = HealthMonitor::default();
        for _ in 0..3 {
            hm.observe(true, None);
        }
        assert!(hm.is_degraded());
        hm.observe(false, None);
        hm.observe(true, None); // relapse resets the clean counter
        hm.observe(false, None);
        hm.observe(false, None);
        assert!(hm.is_degraded());
        assert_eq!(hm.observe(false, None), Some(false));
        assert!(!hm.is_degraded());
        // It can engage again later.
        for _ in 0..3 {
            hm.observe(true, None);
        }
        assert!(hm.is_degraded());
        assert_eq!(hm.engagements(), 2);
    }
}
