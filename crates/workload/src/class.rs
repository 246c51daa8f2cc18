//! Request classes for multi-SLO serving.
//!
//! HarmonyBatch-style multi-SLO workloads mix request classes with
//! different latency targets. A [`RequestClass`] names one class (id,
//! latency SLO, optional traffic weight); a [`ClassedTrace`] pairs an
//! arrival [`Trace`] with a per-request class label so the simulator and
//! the gateway can route each request to the function group serving its
//! class.

use crate::error::DbatError;
use crate::rng::Rng;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// Identifier of a request class (dense, 0-based).
pub type ClassId = u16;

/// One request class: an id, its latency SLO, and an optional traffic
/// weight (share of arrivals relative to the other classes' weights;
/// `None` means weight 1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestClass {
    pub id: ClassId,
    /// Latency SLO (seconds) on the constrained percentile.
    pub slo: f64,
    /// Relative traffic weight; `None` ⇒ 1.0.
    pub(crate) weight: Option<f64>,
}

impl RequestClass {
    pub fn new(id: ClassId, slo: f64) -> Self {
        RequestClass {
            id,
            slo,
            weight: None,
        }
    }

    pub fn with_weight(id: ClassId, slo: f64, weight: f64) -> Self {
        RequestClass {
            id,
            slo,
            weight: Some(weight),
        }
    }

    /// Effective weight (1.0 when unset).
    pub fn weight_or_default(&self) -> f64 {
        self.weight.unwrap_or(1.0)
    }

    pub(crate) fn validate(&self) -> Result<(), DbatError> {
        if !(self.slo > 0.0 && self.slo.is_finite()) {
            return Err(DbatError::config("class SLO must be finite and > 0"));
        }
        if let Some(w) = self.weight {
            if !(w > 0.0 && w.is_finite()) {
                return Err(DbatError::config("class weight must be finite and > 0"));
            }
        }
        Ok(())
    }
}

/// Validate a class set: non-empty, ids dense `0..n`, each class valid.
///
/// Dense ids let every per-class accounting structure downstream be a
/// plain `Vec` indexed by class id.
pub fn validate_classes(classes: &[RequestClass]) -> Result<(), DbatError> {
    if classes.is_empty() {
        return Err(DbatError::config("class set must be non-empty"));
    }
    for (i, c) in classes.iter().enumerate() {
        if c.id as usize != i {
            return Err(DbatError::config(format!(
                "class ids must be dense 0..{} (found id {} at position {i})",
                classes.len(),
                c.id
            )));
        }
        c.validate()?;
    }
    Ok(())
}

/// An arrival trace with a per-request class label (parallel to
/// `trace.timestamps()`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassedTrace {
    trace: Trace,
    labels: Vec<ClassId>,
}

impl ClassedTrace {
    /// Pair a trace with labels; errors when the lengths disagree.
    pub fn new(trace: Trace, labels: Vec<ClassId>) -> Result<Self, DbatError> {
        if trace.len() != labels.len() {
            return Err(DbatError::config(format!(
                "label count {} does not match trace length {}",
                labels.len(),
                trace.len()
            )));
        }
        Ok(ClassedTrace { trace, labels })
    }

    /// Every request in one class (the single-class degenerate case the
    /// bitwise-equivalence gate runs through).
    pub fn uniform(trace: Trace, class: ClassId) -> Self {
        let labels = vec![class; trace.len()];
        ClassedTrace { trace, labels }
    }

    /// Tag each arrival with a class drawn i.i.d. proportional to the
    /// class weights, from a seeded stream (same seed ⇒ same labels).
    pub fn tag_weighted(
        trace: Trace,
        classes: &[RequestClass],
        seed: u64,
    ) -> Result<Self, DbatError> {
        validate_classes(classes)?;
        let total: f64 = classes.iter().map(|c| c.weight_or_default()).sum();
        let mut rng = Rng::new(seed);
        let labels = (0..trace.len())
            .map(|_| {
                let mut u = rng.uniform() * total;
                for c in classes {
                    u -= c.weight_or_default();
                    if u < 0.0 {
                        return c.id;
                    }
                }
                classes.last().map(|c| c.id).unwrap_or(0)
            })
            .collect();
        Ok(ClassedTrace { trace, labels })
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    pub fn labels(&self) -> &[ClassId] {
        &self.labels
    }

    pub fn len(&self) -> usize {
        self.trace.len()
    }

    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Number of requests in each class, indexed by class id (length =
    /// `max id + 1`).
    pub fn class_counts(&self) -> Vec<usize> {
        let n = self
            .labels
            .iter()
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0);
        let mut counts = vec![0usize; n];
        for &c in &self.labels {
            counts[c as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes() -> Vec<RequestClass> {
        vec![
            RequestClass::with_weight(0, 0.1, 3.0),
            RequestClass::with_weight(1, 0.5, 1.0),
        ]
    }

    #[test]
    fn class_validation() {
        assert!(RequestClass::new(0, 0.1).validate().is_ok());
        assert!(RequestClass::new(0, 0.0).validate().is_err());
        assert!(RequestClass::with_weight(0, 0.1, -1.0).validate().is_err());
        assert!(validate_classes(&classes()).is_ok());
        assert!(validate_classes(&[]).is_err());
        // Non-dense ids rejected.
        assert!(validate_classes(&[RequestClass::new(1, 0.1)]).is_err());
    }

    #[test]
    fn uniform_tagging() {
        let tr = Trace::new(vec![0.1, 0.2, 0.3], 1.0);
        let ct = ClassedTrace::uniform(tr, 0);
        assert_eq!(ct.labels(), &[0, 0, 0]);
    }

    #[test]
    fn weighted_tagging_is_seeded_and_proportional() {
        let ts: Vec<f64> = (0..4000).map(|i| i as f64 * 0.001).collect();
        let tr = Trace::new(ts, 4.0);
        let a = ClassedTrace::tag_weighted(tr.clone(), &classes(), 7).unwrap();
        let b = ClassedTrace::tag_weighted(tr, &classes(), 7).unwrap();
        assert_eq!(a.labels(), b.labels());
        let counts = a.class_counts();
        // 3:1 weights ⇒ class 0 gets about 75% of arrivals.
        let share = counts[0] as f64 / a.len() as f64;
        assert!((share - 0.75).abs() < 0.05, "share {share}");
    }

    #[test]
    fn length_mismatch_rejected() {
        let tr = Trace::new(vec![0.1], 1.0);
        assert!(ClassedTrace::new(tr, vec![0, 1]).is_err());
    }
}
