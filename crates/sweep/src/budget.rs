//! Convergence-driven replication budgets.
//!
//! Fixed seed counts either waste jobs on low-variance cells or under-sample
//! noisy ones — and tail percentiles are the paper's headline metric, so the
//! sweep orchestrator replicates **until the p99 confidence interval is
//! narrow enough** instead. Each cell starts at `min_replicates`, and grows
//! one replicate at a time while the relative half-width of the normal-
//! approximation CI over the replicates' p99 latencies exceeds
//! `target_rel_halfwidth` — bounded by `max_replicates` per cell and an
//! optional campaign-wide job budget. All decisions are made from
//! deterministic simulation results in a fixed cell order, so the budgeted
//! job list (and therefore every export byte) is itself deterministic.

/// Replication policy of a budgeted sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetPolicy {
    /// Stop replicating a cell once `z * s / (sqrt(n) * mean)` of its
    /// replicate p99s drops to this or below (e.g. `0.1` = ±10 %).
    pub target_rel_halfwidth: f64,
    /// The normal quantile of the confidence level (1.96 = 95 %).
    pub confidence_z: f64,
    /// Replicates every cell runs before convergence is first evaluated
    /// (at least 2: a variance needs two samples).
    pub min_replicates: usize,
    /// Hard cap on replicates per cell.
    pub max_replicates: usize,
    /// Campaign-wide cap on total jobs (cache hits count too — the budget
    /// bounds the *size* of the campaign, not this invocation's CPU time).
    pub max_total_jobs: Option<u64>,
}

impl Default for BudgetPolicy {
    fn default() -> Self {
        BudgetPolicy {
            target_rel_halfwidth: 0.1,
            confidence_z: 1.96,
            min_replicates: 3,
            max_replicates: 32,
            max_total_jobs: None,
        }
    }
}

/// Why a cell stopped replicating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The CI converged below the target.
    Converged,
    /// The per-cell replicate cap was reached first.
    ReplicateCap,
    /// The campaign-wide job budget ran out first.
    JobBudget,
    /// Too few successful replicates to estimate a CI (failures/no samples).
    Degenerate,
    /// The campaign's cancel token stopped it before this cell could be
    /// decided; a re-run against the same store continues it.
    Interrupted,
}

impl StopReason {
    /// Short name for reports.
    pub fn label(&self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::ReplicateCap => "replicate-cap",
            StopReason::JobBudget => "job-budget",
            StopReason::Degenerate => "degenerate",
            StopReason::Interrupted => "interrupted",
        }
    }
}

/// Replication verdict of one cell after a budgeted sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CellBudget {
    /// Cell index in matrix expansion order.
    pub cell: usize,
    /// Replicates actually run.
    pub replicates: usize,
    /// Relative CI half-width of the replicate p99s at stop time.
    pub rel_halfwidth: f64,
    /// Why replication stopped.
    pub stop: StopReason,
}

/// The relative CI half-width `z * s / (sqrt(n) * mean)` of a sample of
/// per-replicate p99 values. Returns `None` when it cannot be estimated
/// (fewer than two samples or a zero mean).
pub fn rel_halfwidth(p99s: &[f64], confidence_z: f64) -> Option<f64> {
    if p99s.len() < 2 {
        return None;
    }
    let n = p99s.len() as f64;
    let mean = p99s.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return None;
    }
    // Sample (n-1) variance: the replicates are an i.i.d. sample of the
    // seed distribution.
    let var = p99s.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    Some(confidence_z * var.sqrt() / (n.sqrt() * mean))
}

/// Whether a cell with these replicate p99s has converged under `policy`.
/// A cell whose CI cannot be estimated never reports converged.
pub fn converged(p99s: &[f64], policy: &BudgetPolicy) -> bool {
    p99s.len() >= policy.min_replicates
        && rel_halfwidth(p99s, policy.confidence_z)
            .is_some_and(|w| w <= policy.target_rel_halfwidth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_samples_converge_and_loose_ones_do_not() {
        let policy = BudgetPolicy::default();
        let tight = [100.0, 101.0, 99.5];
        assert!(converged(&tight, &policy));
        let loose = [100.0, 300.0, 40.0];
        assert!(!converged(&loose, &policy));
    }

    #[test]
    fn halfwidth_shrinks_with_sample_count() {
        let few = [90.0, 110.0];
        let many = [90.0, 110.0, 90.0, 110.0, 90.0, 110.0, 90.0, 110.0];
        let w_few = rel_halfwidth(&few, 1.96).unwrap();
        let w_many = rel_halfwidth(&many, 1.96).unwrap();
        assert!(w_many < w_few);
    }

    #[test]
    fn degenerate_samples_yield_no_estimate() {
        assert_eq!(rel_halfwidth(&[], 1.96), None);
        assert_eq!(rel_halfwidth(&[5.0], 1.96), None);
        assert_eq!(rel_halfwidth(&[0.0, 0.0], 1.96), None);
        assert!(!converged(&[5.0], &BudgetPolicy::default()));
    }
}
