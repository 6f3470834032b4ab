//! Run configuration for the counting algorithms.

use crate::kernel::KernelKind;

/// Which algorithm solves the cycle blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The baseline Path Splitting algorithm (Figure 4): equivalent to the
    /// dynamic program of Alon et al.; cycles are split at their boundary
    /// nodes and paths are extended without any pruning.
    PathSplitting,
    /// The paper's Degree Based algorithm (Figures 5–7): cycles are split at
    /// every possible highest node under the degree ordering, and only
    /// high-starting paths are extended.
    DegreeBased,
}

impl Algorithm {
    /// Short name used in experiment output ("PS" / "DB").
    pub fn short_name(&self) -> &'static str {
        match self {
            Algorithm::PathSplitting => "PS",
            Algorithm::DegreeBased => "DB",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Configuration of a single colorful-counting run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountConfig {
    /// Cycle-solving algorithm.
    pub algorithm: Algorithm,
    /// Which join-kernel implementation runs the DP (default: columnar).
    /// Both kernels are bit-identical; this switch exists for differential
    /// testing and benchmarking.
    pub kernel: KernelKind,
    /// Whether runs record observability spans and publish run counters
    /// into the `sgc-obs` registry (default: on). Observability reads,
    /// never branches, the DP: counts are bit-identical either way, which
    /// `tests/obs.rs` pins differentially.
    pub obs: bool,
}

impl CountConfig {
    /// Configuration for the given algorithm with the default kernel.
    pub fn new(algorithm: Algorithm) -> Self {
        CountConfig {
            algorithm,
            kernel: KernelKind::default(),
            obs: true,
        }
    }

    /// Selects the join kernel (scalar or columnar).
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Enables or disables per-run observability (spans + registry
    /// publication). Counts are unaffected.
    pub fn with_obs(mut self, obs: bool) -> Self {
        self.obs = obs;
        self
    }
}

impl Default for CountConfig {
    fn default() -> Self {
        CountConfig::new(Algorithm::DegreeBased)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_degree_based() {
        let c = CountConfig::default();
        assert_eq!(c.algorithm, Algorithm::DegreeBased);
        assert_eq!(c.kernel, KernelKind::Columnar);
        assert!(c.obs, "observability defaults to on");
    }

    #[test]
    fn builder_methods() {
        let c = CountConfig::new(Algorithm::PathSplitting)
            .with_kernel(KernelKind::Scalar)
            .with_obs(false);
        assert_eq!(c.algorithm, Algorithm::PathSplitting);
        assert_eq!(c.kernel, KernelKind::Scalar);
        assert!(!c.obs);
    }

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::PathSplitting.to_string(), "PS");
        assert_eq!(Algorithm::DegreeBased.to_string(), "DB");
    }
}
