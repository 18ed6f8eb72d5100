//! The bound distances of Eqs. (1)–(4) (Section 4.2, Figs. 3 and 4).
//!
//! The buffer-capacity argument never constructs the actual run-time
//! schedule.  Instead it shows that, for *every* sequence of transfer
//! quanta, a schedule **exists** whose token production times stay below a
//! linear upper bound `α̂p` and whose token consumption times stay above a
//! linear lower bound `α̌c`, both with the throughput-derived rate.  The
//! minimum vertical distance between the two bounds of one actor is:
//!
//! * producer `v_a` (Eq. 1): `ρ(v_a) + t·(π̂(e_ab) − 1)`
//! * consumer `v_b` (Eq. 2): `ρ(v_b) + t·(γ̂(e_ab) − 1)`
//!
//! where `t` is the bound's time-per-token.  Summing both gives the
//! distance between the space-production and space-consumption bounds on
//! the reverse edge (Eq. 3), which Eq. 4 converts into initial tokens.
//!
//! [`PairGaps`] is the one place these equations are evaluated: the VRDF
//! analysis and both constant-rate analyses of `vrdf-sdf` size their
//! buffers through it.

use crate::error::AnalysisError;
use crate::rational::Rational;

/// The bound distances of Eqs. (1)–(3) and the Eq. (4) capacity of one
/// producer–consumer pair.
///
/// All distances are expressed with the pair's bound rate `t` time per
/// token (`token_period`).
///
/// # Examples
///
/// The Fig. 2 pair (`m = {3}`, `n = {2,3}`) with `τ = 3t`:
///
/// ```
/// use vrdf_core::{PairGaps, Rational};
///
/// let t = Rational::new(1, 3);
/// let gaps = PairGaps::new(t, Rational::new(1, 2), Rational::new(1, 2), 3, 3)?;
/// assert_eq!(gaps.producer_gap(), Rational::new(1, 2) + t * Rational::from(2u64));
/// assert_eq!(gaps.total_gap(), gaps.producer_gap() + gaps.consumer_gap());
/// # Ok::<(), vrdf_core::AnalysisError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairGaps {
    token_period: Rational,
    producer_gap: Rational,
    consumer_gap: Rational,
    total_gap: Rational,
    sufficient_initial_tokens: u64,
}

impl PairGaps {
    /// Evaluates Eqs. (1)–(4) for one pair, in checked arithmetic.
    ///
    /// * `token_period` — time per token of the bounds (`τ/γ̂(e_ab)` for a
    ///   sink-constrained pair).
    /// * `producer_response` / `consumer_response` — `ρ(v_a)`, `ρ(v_b)`.
    /// * `producer_max_quantum` / `consumer_max_quantum` — `π̂(e_ab)`,
    ///   `γ̂(e_ab)`.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::NonPositivePeriod`] when `token_period` is not
    ///   strictly positive;
    /// * [`AnalysisError::ZeroOnlyQuantumSet`] when a maximum quantum is
    ///   zero;
    /// * [`AnalysisError::ArithmeticOverflow`] naming the first equation
    ///   whose value does not fit `i128` rationals (or, for Eq. 4, `u64`).
    pub fn new(
        token_period: Rational,
        producer_response: Rational,
        consumer_response: Rational,
        producer_max_quantum: u64,
        consumer_max_quantum: u64,
    ) -> Result<PairGaps, AnalysisError> {
        if !token_period.is_positive() {
            return Err(AnalysisError::NonPositivePeriod(token_period));
        }
        if producer_max_quantum == 0 || consumer_max_quantum == 0 {
            return Err(AnalysisError::ZeroOnlyQuantumSet);
        }
        let overflow = |context| AnalysisError::ArithmeticOverflow { context };
        let gap = |response: Rational, max_quantum: u64| {
            token_period
                .checked_mul(Rational::from(max_quantum - 1))
                .and_then(|span| response.checked_add(span))
        };
        let producer_gap = gap(producer_response, producer_max_quantum)
            .ok_or_else(|| overflow("the producer bound distance (Eq. 1)"))?;
        let consumer_gap = gap(consumer_response, consumer_max_quantum)
            .ok_or_else(|| overflow("the consumer bound distance (Eq. 2)"))?;
        let total_gap = producer_gap
            .checked_add(consumer_gap)
            .ok_or_else(|| overflow("the reverse-edge bound distance (Eq. 3)"))?;
        let sufficient_initial_tokens = total_gap
            .checked_div(token_period)
            .and_then(|tokens| tokens.checked_add(Rational::ONE))
            .and_then(|tokens| u64::try_from(tokens.floor()).ok())
            .ok_or_else(|| overflow("the Eq. 4 capacity"))?;
        Ok(PairGaps {
            token_period,
            producer_gap,
            consumer_gap,
            total_gap,
            sufficient_initial_tokens,
        })
    }

    /// Time per token of the bounds.
    #[inline]
    pub fn token_period(&self) -> Rational {
        self.token_period
    }

    /// Eq. (1): minimum distance between the producer's data-production
    /// bound `α̂p(e_ab)` and its space-consumption bound `α̌c(e_ba)`:
    /// `ρ(v_a) + t·(π̂(e_ab) − 1)`.
    #[inline]
    pub fn producer_gap(&self) -> Rational {
        self.producer_gap
    }

    /// Eq. (2): minimum distance between the consumer's space-production
    /// bound `α̂p(e_ba)` and its data-consumption bound `α̌c(e_ab)`:
    /// `ρ(v_b) + t·(γ̂(e_ab) − 1)`.
    #[inline]
    pub fn consumer_gap(&self) -> Rational {
        self.consumer_gap
    }

    /// Eq. (3): minimum distance between the space-production and
    /// space-consumption bounds on the reverse edge — the sum of the two
    /// per-actor gaps.
    #[inline]
    pub fn total_gap(&self) -> Rational {
        self.total_gap
    }

    /// Eq. (4): the sufficient number of initial tokens on the reverse
    /// edge — the buffer capacity in containers.  This is the largest
    /// integer less than or equal to `total_gap / t + 1`.
    ///
    /// The result is always at least `π̂ + γ̂ − 1`, the well-known minimum
    /// for a data-independent pair with zero response times.
    #[inline]
    pub fn sufficient_initial_tokens(&self) -> u64 {
        self.sufficient_initial_tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    /// Fig. 2 / Section 4.1: m = {3}, n = {2,3}, vb periodic with
    /// period tau; bound rate 3 tokens per tau.
    fn fig2_gaps(rho_a: Rational, rho_b: Rational, tau: Rational) -> PairGaps {
        PairGaps::new(tau / rat(3, 1), rho_a, rho_b, 3, 3).unwrap()
    }

    #[test]
    fn equations_1_to_3() {
        let tau = rat(3, 1);
        let g = fig2_gaps(rat(1, 2), rat(1, 4), tau);
        let t = rat(1, 1);
        assert_eq!(g.token_period(), t);
        // Eq (1): rho_a + t*(pi_hat - 1) = 1/2 + 2.
        assert_eq!(g.producer_gap(), rat(5, 2));
        // Eq (2): rho_b + t*(gamma_hat - 1) = 1/4 + 2.
        assert_eq!(g.consumer_gap(), rat(9, 4));
        // Eq (3) is the sum.
        assert_eq!(g.total_gap(), rat(19, 4));
    }

    #[test]
    fn equation_4_flooring() {
        let g = fig2_gaps(rat(1, 2), rat(1, 4), rat(3, 1));
        // total/t + 1 = 19/4 + 1 = 5.75 -> 5.
        assert_eq!(g.sufficient_initial_tokens(), 5);
        // Zero response times: d = pi_hat + gamma_hat - 1 = 5.
        let g0 = fig2_gaps(Rational::ZERO, Rational::ZERO, rat(3, 1));
        assert_eq!(g0.sufficient_initial_tokens(), 5);
        // Exactly integral boundary is kept (floor is inclusive).
        let g1 = fig2_gaps(rat(1, 1), rat(1, 1), rat(3, 1));
        assert_eq!(g1.sufficient_initial_tokens(), 7);
    }
}
