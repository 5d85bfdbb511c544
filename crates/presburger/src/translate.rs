//! Translation of regular bag expressions into Presburger formulas.
//!
//! This implements the construction `ψ_E(x̄, n)` of Section 6 of the paper:
//! given an ambient alphabet `Δ` and a vector `x̄` of terms (one per symbol),
//! `ψ_E(x̄, n)` holds exactly when the bag with Parikh vector `x̄` belongs to
//! `L(E)ⁿ`.
//!
//! One deviation from the displayed formula in the paper: for the repetition
//! case `E^[k;ℓ]` the paper writes `∃m. k ≤ m ≤ ℓ ∧ ψ_E(x̄, m)`, which is the
//! correct unfolding only for `n = 1` (the only way the formula is used at the
//! top level there). We scale the bounds by `n` (`k·n ≤ m ≤ ℓ·n`), which is
//! the general identity `L(E^I)ⁿ = ⋃_{m ∈ n·I} L(E)^m` and agrees with the
//! paper's version when `n = 1`.

use std::collections::BTreeMap;

use shapex_rbe::{Bag, Rbe};

use crate::formula::{Formula, LinearExpr, VarPool};
use crate::solver::{Bounds, SolveResult, Solver};

/// A Parikh vector: one linear term per symbol of the ambient alphabet.
/// Constants describe a known bag; variables describe an unknown one.
pub type ParikhVec<S> = BTreeMap<S, LinearExpr>;

/// Builds `ψ_E` formulas, allocating the auxiliary split variables from a
/// shared [`VarPool`].
#[derive(Debug)]
pub struct PsiBuilder<'p> {
    pool: &'p mut VarPool,
    split_bound: u64,
}

impl<'p> PsiBuilder<'p> {
    /// A builder whose auxiliary variables (bag splits and iteration counts)
    /// are bounded by `split_bound`. For membership of a known bag,
    /// [`membership_bound`] is always sufficient.
    pub fn new(pool: &'p mut VarPool, split_bound: u64) -> PsiBuilder<'p> {
        PsiBuilder { pool, split_bound }
    }

    /// The formula `ψ_E(x̄, n)`: the bag described by `x̄` belongs to `L(E)ⁿ`.
    ///
    /// Symbols of `E` that are missing from `x̄` are treated as having count
    /// zero (they can never occur in the ambient alphabet).
    pub fn psi<S: Ord + Clone>(
        &mut self,
        expr: &Rbe<S>,
        xs: &ParikhVec<S>,
        n: &LinearExpr,
    ) -> Formula {
        match expr {
            Rbe::Epsilon => all_zero(xs),
            Rbe::Symbol(a) => {
                let mut parts = Vec::with_capacity(xs.len());
                match xs.get(a) {
                    Some(xa) => parts.push(Formula::eq(xa.clone(), n.clone())),
                    // The symbol cannot occur at all: only n = 0 and the empty
                    // bag remain.
                    None => parts.push(Formula::eq(n.clone(), LinearExpr::constant(0))),
                }
                for (b, xb) in xs {
                    if Some(b) != Some(a) && b != a {
                        parts.push(Formula::eq(xb.clone(), LinearExpr::constant(0)));
                    }
                }
                Formula::and(parts)
            }
            Rbe::Concat(factors) => self.split(factors, xs, |builder, factor, sub_xs| {
                builder.psi(factor, sub_xs, n)
            }),
            Rbe::Disj(choices) => {
                // n = n₁ + … + n_k with fresh counts per disjunct.
                let counts: Vec<LinearExpr> = choices
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        LinearExpr::var(
                            self.pool
                                .fresh_bounded(format!("n_disj{i}"), self.split_bound),
                        )
                    })
                    .collect();
                let sum = counts
                    .iter()
                    .fold(LinearExpr::constant(0), |acc, c| acc.add(c));
                let count_constraint = Formula::eq(n.clone(), sum);
                let body = self.split(choices, xs, |builder, choice, sub_xs| {
                    // Recover this disjunct's index to pair it with its count.
                    // `split` calls us in order, so track via pointer equality.
                    let idx = choices
                        .iter()
                        .position(|c| std::ptr::eq(c, choice))
                        .expect("choice comes from the slice");
                    builder.psi(choice, sub_xs, &counts[idx])
                });
                Formula::and(vec![count_constraint, body])
            }
            Rbe::Repeat(inner, interval) => {
                let zero_case = Formula::and(vec![
                    Formula::eq(n.clone(), LinearExpr::constant(0)),
                    all_zero(xs),
                ]);
                let m = LinearExpr::var(self.pool.fresh_bounded("m_repeat", self.split_bound));
                let mut positive = vec![Formula::ge(n.clone(), LinearExpr::constant(1))];
                // k·n ≤ m ≤ ℓ·n (no upper constraint when ℓ = ∞).
                positive.push(Formula::ge(
                    m.clone(),
                    n.clone().scale(interval.lo() as i64),
                ));
                if let Some(hi) = interval.hi() {
                    positive.push(Formula::le(m.clone(), n.clone().scale(hi as i64)));
                }
                positive.push(self.psi(inner, xs, &m));
                Formula::or(vec![zero_case, Formula::and(positive)])
            }
        }
    }

    /// Split the Parikh vector `x̄` into one fresh vector per part
    /// (`x̄ = x̄₁ + … + x̄_k`) and conjoin `body(part_i, x̄_i)` for every part.
    fn split<S: Ord + Clone>(
        &mut self,
        parts: &[Rbe<S>],
        xs: &ParikhVec<S>,
        mut body: impl FnMut(&mut Self, &Rbe<S>, &ParikhVec<S>) -> Formula,
    ) -> Formula {
        if parts.is_empty() {
            return all_zero(xs);
        }
        if parts.len() == 1 {
            return body(self, &parts[0], xs);
        }
        let mut sub_vectors: Vec<ParikhVec<S>> = Vec::with_capacity(parts.len());
        for (i, _) in parts.iter().enumerate() {
            let mut sub = ParikhVec::new();
            for symbol in xs.keys() {
                let v = self
                    .pool
                    .fresh_bounded(format!("split{i}"), self.split_bound);
                sub.insert(symbol.clone(), LinearExpr::var(v));
            }
            sub_vectors.push(sub);
        }
        let mut conjuncts = Vec::new();
        // Sum constraints: x_a = Σ_i x_{i,a}.
        for (symbol, total) in xs {
            let sum = sub_vectors
                .iter()
                .map(|sub| sub[symbol].clone())
                .fold(LinearExpr::constant(0), |acc, e| acc.add(&e));
            conjuncts.push(Formula::eq(total.clone(), sum));
        }
        for (part, sub) in parts.iter().zip(sub_vectors.iter()) {
            conjuncts.push(body(self, part, sub));
        }
        Formula::and(conjuncts)
    }
}

fn all_zero<S: Ord>(xs: &ParikhVec<S>) -> Formula {
    Formula::and(
        xs.values()
            .map(|x| Formula::eq(x.clone(), LinearExpr::constant(0)))
            .collect(),
    )
}

/// Convenience wrapper for [`PsiBuilder::psi`] starting from an empty pool;
/// returns the formula together with the pool holding its auxiliary variables.
pub fn psi<S: Ord + Clone>(
    expr: &Rbe<S>,
    xs: &ParikhVec<S>,
    n: &LinearExpr,
    split_bound: u64,
) -> (Formula, VarPool) {
    let mut pool = VarPool::new();
    let formula = PsiBuilder::new(&mut pool, split_bound).psi(expr, xs, n);
    (formula, pool)
}

/// The largest finite constant appearing in the intervals of the expression;
/// used to derive sufficient variable bounds for membership queries.
pub fn max_interval_constant<S>(expr: &Rbe<S>) -> u64 {
    match expr {
        Rbe::Epsilon | Rbe::Symbol(_) => 0,
        Rbe::Disj(parts) | Rbe::Concat(parts) => {
            parts.iter().map(max_interval_constant).max().unwrap_or(0)
        }
        Rbe::Repeat(inner, interval) => {
            let own = interval.hi().unwrap_or(interval.lo()).max(interval.lo());
            own.max(max_interval_constant(inner))
        }
    }
}

/// A variable bound under which `ψ_E(x̄, 1)` has a solution whenever the bag
/// `x̄`, of size `total`, belongs to `L(E)`.
///
/// Split counts never exceed `total`. `n` copies of a repetition `E^[k;ℓ]`
/// need at most `max(k·n, total)` copies of `E`: a non-nullable `E` spends a
/// symbol on every copy, and a nullable one can drop surplus empty copies
/// down to `k·n`. Nested repetitions therefore multiply their lower bounds
/// (`((ε?)^[2;2])^[2;2]` needs four copies of `ε?` for the empty bag), so
/// the bound is the largest such count along any path, and never below
/// `total + max_interval_constant + 1`, which covers unnested repetitions.
pub fn membership_bound<S>(expr: &Rbe<S>, total: u64) -> u64 {
    fn copies<S>(expr: &Rbe<S>, n: u64, total: u64) -> u64 {
        match expr {
            Rbe::Epsilon | Rbe::Symbol(_) => n,
            Rbe::Disj(parts) | Rbe::Concat(parts) => parts
                .iter()
                .map(|part| copies(part, n, total))
                .fold(n, u64::max),
            Rbe::Repeat(inner, interval) => {
                let m = interval.lo().saturating_mul(n).max(total);
                n.max(copies(inner, m, total))
            }
        }
    }
    (total + max_interval_constant(expr) + 1).max(copies(expr, 1, total))
}

/// NP membership test for arbitrary regular bag expressions via the Presburger
/// translation: `bag ∈ L(expr)`?
///
/// This is the general-purpose counterpart of the polynomial procedures in
/// `shapex-rbe`; sound and complete for every RBE.
pub fn rbe_member<S: Ord + Clone>(bag: &Bag<S>, expr: &Rbe<S>) -> bool {
    // Symbols outside the expression's alphabet can never be produced.
    let alphabet = expr.alphabet();
    if bag.symbols().any(|s| !alphabet.contains(s)) {
        return false;
    }
    let bound = membership_bound(expr, bag.total());
    let xs: ParikhVec<S> = alphabet
        .iter()
        .map(|s| (s.clone(), LinearExpr::constant(bag.count(s) as i64)))
        .collect();
    let mut pool = VarPool::new();
    let formula = PsiBuilder::new(&mut pool, bound).psi(expr, &xs, &LinearExpr::constant(1));
    let solver = Solver::new(Bounds::uniform(bound));
    match solver.solve(&formula, &pool) {
        SolveResult::Sat(_) => true,
        SolveResult::Unsat => false,
        SolveResult::Unknown => {
            // The default budget is far beyond what these formulas need; treat
            // exhaustion as a hard error rather than guessing.
            panic!("Presburger solver budget exhausted during RBE membership")
        }
    }
}

/// Decide whether `L(e1) ∩ L(e2) = ∅` restricted to bags over the union of the
/// two alphabets, with all counts bounded by `bound` (the paper's
/// `ψ_{E1∩E2} = ψ_{E1} ∧ ψ_{E2}`).
pub fn intersection_nonempty<S: Ord + Clone>(e1: &Rbe<S>, e2: &Rbe<S>, bound: u64) -> bool {
    let mut alphabet = e1.alphabet();
    alphabet.extend(e2.alphabet());
    let mut pool = VarPool::new();
    let xs: ParikhVec<S> = alphabet
        .iter()
        .map(|s| {
            let v = pool.fresh_bounded("x".to_string(), bound);
            (s.clone(), LinearExpr::var(v))
        })
        .collect();
    let mut builder = PsiBuilder::new(&mut pool, bound);
    let one = LinearExpr::constant(1);
    let f1 = builder.psi(e1, &xs, &one);
    let f2 = builder.psi(e2, &xs, &one);
    let formula = Formula::and(vec![f1, f2]);
    Solver::new(Bounds::uniform(bound)).is_sat(&formula, &pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_rbe::membership::naive_member;
    use shapex_rbe::Interval;

    fn bag(symbols: &[&'static str]) -> Bag<&'static str> {
        Bag::from_symbols(symbols.iter().copied())
    }

    #[test]
    fn member_agrees_with_oracle_on_rbe0() {
        // a || b? || c*
        let e = Rbe::concat(vec![
            Rbe::symbol("a"),
            Rbe::opt(Rbe::symbol("b")),
            Rbe::star(Rbe::symbol("c")),
        ]);
        for candidate in [
            bag(&[]),
            bag(&["a"]),
            bag(&["a", "b"]),
            bag(&["a", "b", "b"]),
            bag(&["a", "c", "c", "c"]),
            bag(&["c"]),
        ] {
            assert_eq!(
                rbe_member(&candidate, &e),
                naive_member(&candidate, &e),
                "disagreement on {candidate}"
            );
        }
    }

    #[test]
    fn member_agrees_with_oracle_on_disjunction() {
        // (a || b) | (a || c)
        let e = Rbe::disj(vec![
            Rbe::concat(vec![Rbe::symbol("a"), Rbe::symbol("b")]),
            Rbe::concat(vec![Rbe::symbol("a"), Rbe::symbol("c")]),
        ]);
        for candidate in [
            bag(&["a", "b"]),
            bag(&["a", "c"]),
            bag(&["a"]),
            bag(&["a", "b", "c"]),
            bag(&["b", "c"]),
            bag(&[]),
        ] {
            assert_eq!(
                rbe_member(&candidate, &e),
                naive_member(&candidate, &e),
                "disagreement on {candidate}"
            );
        }
    }

    #[test]
    fn member_agrees_with_oracle_on_nested_repetition() {
        // ((a | b)^[2;2])^[1;2]: two or four symbols drawn from {a, b}.
        let e = Rbe::repeat(
            Rbe::repeat(
                Rbe::disj(vec![Rbe::symbol("a"), Rbe::symbol("b")]),
                Interval::exactly(2),
            ),
            Interval::bounded(1, 2),
        );
        for candidate in [
            bag(&[]),
            bag(&["a"]),
            bag(&["a", "b"]),
            bag(&["a", "a", "b"]),
            bag(&["a", "a", "b", "b"]),
            bag(&["a", "a", "a", "a", "b"]),
        ] {
            assert_eq!(
                rbe_member(&candidate, &e),
                naive_member(&candidate, &e),
                "disagreement on {candidate}"
            );
        }
    }

    #[test]
    fn member_handles_multi_occurrence_symbols() {
        // a || a+  — at least two a's.
        let e = Rbe::concat(vec![Rbe::symbol("a"), Rbe::plus(Rbe::symbol("a"))]);
        assert!(!rbe_member(&bag(&["a"]), &e));
        assert!(rbe_member(&bag(&["a", "a"]), &e));
        assert!(rbe_member(&bag(&["a", "a", "a", "a"]), &e));
        assert!(!rbe_member(&bag(&["a", "a", "b"]), &e));
    }

    #[test]
    fn repetition_scaling_bug_regression() {
        // (a^[1;1])^[2;2] = exactly two a's. The paper's literal formula would
        // also accept a single `a`; the scaled bounds must not.
        let e = Rbe::repeat(
            Rbe::repeat(Rbe::symbol("a"), Interval::exactly(1)),
            Interval::exactly(2),
        );
        assert!(!rbe_member(&bag(&["a"]), &e));
        assert!(rbe_member(&bag(&["a", "a"]), &e));
        assert!(!rbe_member(&bag(&["a", "a", "a"]), &e));
    }

    #[test]
    fn nested_nullable_repetitions_multiply_the_copies() {
        // ((ε?)^[2;2])^[2;2] holds the empty bag only through four copies of
        // `ε?`, more than the size-plus-largest-constant bound allows.
        let e = Rbe::repeat(
            Rbe::repeat(Rbe::opt(Rbe::Epsilon), Interval::exactly(2)),
            Interval::exactly(2),
        );
        assert!(membership_bound(&e, 0) >= 4);
        assert!(rbe_member(&bag(&[]), &e));
        assert_eq!(rbe_member(&bag(&[]), &e), naive_member(&bag(&[]), &e));
        // ((a?)^[3;3])^[2;2]: at most six a's, padded with empty copies.
        let e = Rbe::repeat(
            Rbe::repeat(Rbe::opt(Rbe::symbol("a")), Interval::exactly(3)),
            Interval::exactly(2),
        );
        for candidate in [bag(&[]), bag(&["a"]), bag(&["a"; 6]), bag(&["a"; 7])] {
            assert_eq!(
                rbe_member(&candidate, &e),
                naive_member(&candidate, &e),
                "disagreement on {candidate}"
            );
        }
    }

    #[test]
    fn intersection_emptiness() {
        // L(a || b) ∩ L(a | b) = ∅ (two symbols vs one).
        let both = Rbe::concat(vec![Rbe::symbol("a"), Rbe::symbol("b")]);
        let either = Rbe::disj(vec![Rbe::symbol("a"), Rbe::symbol("b")]);
        assert!(!intersection_nonempty(&both, &either, 8));
        // L(a?) ∩ L(a | b) = {a} ≠ ∅.
        let opt_a = Rbe::opt(Rbe::symbol("a"));
        assert!(intersection_nonempty(&opt_a, &either, 8));
        // Identical languages intersect.
        assert!(intersection_nonempty(&both, &both, 8));
    }

    #[test]
    fn psi_formula_is_reusable_with_variables() {
        // ψ_{a||b?}(x̄, 1) with x_a, x_b as variables: satisfiable with x_a = 1.
        let e = Rbe::concat(vec![Rbe::symbol("a"), Rbe::opt(Rbe::symbol("b"))]);
        let mut pool = VarPool::new();
        let xa = pool.fresh_bounded("xa", 4);
        let xb = pool.fresh_bounded("xb", 4);
        let xs: ParikhVec<&str> = [("a", LinearExpr::var(xa)), ("b", LinearExpr::var(xb))]
            .into_iter()
            .collect();
        let f = PsiBuilder::new(&mut pool, 8).psi(&e, &xs, &LinearExpr::constant(1));
        let result = Solver::new(Bounds::uniform(8)).solve(&f, &pool);
        let model = result.model().expect("satisfiable");
        assert_eq!(model[xa.0 as usize], 1);
        assert!(model[xb.0 as usize] <= 1);
    }
}
