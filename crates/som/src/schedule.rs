//! Training schedules: iteration budgets and the shrinking neighbourhood.
//!
//! Paper §V-D fixes the neighbourhood policy used by the FPGA implementation:
//! the maximum neighbourhood size is 4 and it decreases as training
//! progresses — with a budget of 100 iterations, iterations 1–25 use radius
//! 4, 26–50 use 3, 51–75 use 2 and 76–100 use 1. [`NeighbourhoodSchedule`]
//! generalises that quarter-wise policy to any budget and maximum radius, and
//! also provides a linear-decay alternative.

use serde::{Deserialize, Serialize};

/// The neighbourhood-radius policy followed during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NeighbourhoodSchedule {
    /// The paper's policy: the iteration budget is split into `max_radius`
    /// equal phases and the radius steps down by one at each phase boundary,
    /// ending at radius 1.
    Quartered {
        /// Radius used during the first phase (paper: 4).
        max_radius: usize,
    },
    /// Linear interpolation from `max_radius` down to 1 across the budget.
    /// Provided for the schedule ablation; not used by the paper.
    Linear {
        /// Radius at iteration 0.
        max_radius: usize,
    },
    /// A constant radius for every iteration.
    Constant {
        /// The radius to use throughout.
        radius: usize,
    },
}

impl NeighbourhoodSchedule {
    /// The paper's schedule: quartered descent from a maximum radius of 4
    /// (Table III, §V-D).
    pub fn paper_default() -> Self {
        NeighbourhoodSchedule::Quartered { max_radius: 4 }
    }

    /// The neighbourhood radius to use at iteration `t` (0-based) of a
    /// training run with `total` iterations.
    ///
    /// The radius never falls below 1: even at the end of training the
    /// winning neuron itself is always updated.
    pub fn radius_at(&self, t: usize, total: usize) -> usize {
        match *self {
            NeighbourhoodSchedule::Constant { radius } => radius.max(1),
            NeighbourhoodSchedule::Quartered { max_radius } => {
                let max_radius = max_radius.max(1);
                if total == 0 {
                    return max_radius;
                }
                let phase_len = total.div_ceil(max_radius);
                let phase = (t / phase_len.max(1)).min(max_radius - 1);
                max_radius - phase
            }
            NeighbourhoodSchedule::Linear { max_radius } => {
                let max_radius = max_radius.max(1);
                if total <= 1 {
                    return max_radius;
                }
                let span = (max_radius - 1) as f64;
                let progress = t as f64 / (total - 1) as f64;
                (max_radius as f64 - span * progress).round().max(1.0) as usize
            }
        }
    }
}

impl Default for NeighbourhoodSchedule {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A complete training schedule: how many iterations to perform and how the
/// neighbourhood radius evolves over them.
///
/// One *iteration* is a full pass over the training set (every pattern
/// presented once in shuffled order), matching the paper's Table I budgets of
/// 10–500 iterations over 2,248 signatures: both SOMs are already near their
/// plateau at 10 iterations, which only makes sense if an iteration sweeps
/// the whole training set. The neighbourhood radius and the cSOM learning
/// rate are functions of the iteration index, not of the individual pattern
/// presentation, exactly as in §V-D.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainSchedule {
    /// Number of pattern presentations.
    pub iterations: usize,
    /// Neighbourhood radius policy.
    pub neighbourhood: NeighbourhoodSchedule,
    /// Initial learning rate (used only by the real-valued cSOM; the bSOM's
    /// tri-state rule has no learning rate).
    pub initial_learning_rate: f64,
    /// Final learning rate reached at the last iteration (cSOM only).
    pub final_learning_rate: f64,
}

impl TrainSchedule {
    /// Creates the paper's default schedule for a given iteration budget:
    /// quartered neighbourhood from radius 4, cSOM learning rate decaying
    /// linearly from 0.5 to 0.01.
    pub fn new(iterations: usize) -> Self {
        TrainSchedule {
            iterations,
            neighbourhood: NeighbourhoodSchedule::paper_default(),
            initial_learning_rate: 0.5,
            final_learning_rate: 0.01,
        }
    }

    /// Replaces the neighbourhood policy.
    pub fn with_neighbourhood(mut self, neighbourhood: NeighbourhoodSchedule) -> Self {
        self.neighbourhood = neighbourhood;
        self
    }

    /// Replaces the learning-rate range (cSOM only).
    pub fn with_learning_rate(mut self, initial: f64, final_rate: f64) -> Self {
        self.initial_learning_rate = initial;
        self.final_learning_rate = final_rate;
        self
    }

    /// The neighbourhood radius at iteration `t`.
    pub fn radius_at(&self, t: usize) -> usize {
        self.neighbourhood.radius_at(t, self.iterations)
    }

    /// The cSOM learning rate at iteration `t`, interpolated linearly from
    /// the initial to the final rate.
    pub fn learning_rate_at(&self, t: usize) -> f64 {
        if self.iterations <= 1 {
            return self.initial_learning_rate;
        }
        let progress = t as f64 / (self.iterations - 1) as f64;
        self.initial_learning_rate
            + (self.final_learning_rate - self.initial_learning_rate) * progress
    }
}

impl Default for TrainSchedule {
    fn default() -> Self {
        TrainSchedule::new(100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartered_schedule_matches_paper_example() {
        // Paper: 100 iterations -> radius 4 for 1..=25, 3 for 26..=50,
        // 2 for 51..=75, 1 for 76..=100 (1-based); we are 0-based.
        let s = NeighbourhoodSchedule::paper_default();
        assert_eq!(s.radius_at(0, 100), 4);
        assert_eq!(s.radius_at(24, 100), 4);
        assert_eq!(s.radius_at(25, 100), 3);
        assert_eq!(s.radius_at(49, 100), 3);
        assert_eq!(s.radius_at(50, 100), 2);
        assert_eq!(s.radius_at(74, 100), 2);
        assert_eq!(s.radius_at(75, 100), 1);
        assert_eq!(s.radius_at(99, 100), 1);
    }

    #[test]
    fn quartered_schedule_handles_budgets_not_divisible_by_four() {
        let s = NeighbourhoodSchedule::paper_default();
        for total in [1usize, 3, 7, 10, 13, 500] {
            for t in 0..total {
                let r = s.radius_at(t, total);
                assert!((1..=4).contains(&r), "total={total}, t={t}, r={r}");
            }
            // Monotonically non-increasing.
            let radii: Vec<usize> = (0..total).map(|t| s.radius_at(t, total)).collect();
            assert!(radii.windows(2).all(|w| w[0] >= w[1]), "total={total}");
            // Ends at 1 whenever the budget allows all four phases.
            if total >= 4 {
                assert_eq!(radii[total - 1], 1, "total={total}");
            }
        }
    }

    #[test]
    fn quartered_schedule_zero_total_returns_max() {
        assert_eq!(NeighbourhoodSchedule::paper_default().radius_at(0, 0), 4);
    }

    #[test]
    fn linear_schedule_descends_from_max_to_one() {
        let s = NeighbourhoodSchedule::Linear { max_radius: 4 };
        assert_eq!(s.radius_at(0, 100), 4);
        assert_eq!(s.radius_at(99, 100), 1);
        let radii: Vec<usize> = (0..100).map(|t| s.radius_at(t, 100)).collect();
        assert!(radii.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn constant_schedule_never_changes_and_never_drops_below_one() {
        let s = NeighbourhoodSchedule::Constant { radius: 2 };
        assert!((0..50).all(|t| s.radius_at(t, 50) == 2));
        let zero = NeighbourhoodSchedule::Constant { radius: 0 };
        assert_eq!(zero.radius_at(10, 50), 1);
    }

    #[test]
    fn learning_rate_interpolates_linearly() {
        let s = TrainSchedule::new(101);
        assert!((s.learning_rate_at(0) - 0.5).abs() < 1e-12);
        assert!((s.learning_rate_at(100) - 0.01).abs() < 1e-12);
        let mid = s.learning_rate_at(50);
        assert!((mid - 0.255).abs() < 1e-9);
    }

    #[test]
    fn learning_rate_single_iteration_uses_initial() {
        let s = TrainSchedule::new(1);
        assert_eq!(s.learning_rate_at(0), 0.5);
    }

    #[test]
    fn builder_methods_override_fields() {
        let s = TrainSchedule::new(200)
            .with_neighbourhood(NeighbourhoodSchedule::Constant { radius: 3 })
            .with_learning_rate(0.9, 0.1);
        assert_eq!(s.radius_at(150), 3);
        assert!((s.learning_rate_at(0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn default_schedule_is_paper_default() {
        let s = TrainSchedule::default();
        assert_eq!(s.iterations, 100);
        assert_eq!(s.neighbourhood, NeighbourhoodSchedule::paper_default());
    }
}
