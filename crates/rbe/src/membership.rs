//! Membership tests for regular bag expressions.
//!
//! Three procedures are provided, matching the complexity landscape of the
//! paper:
//!
//! * [`rbe0_member`] — linear time for the RBE₀ normal form (per-symbol
//!   interval sums).
//! * [`sorbe_member`] — polynomial time for single-occurrence expressions,
//!   via an interval-abstraction of the admissible iteration counts. Node
//!   validation in `shapex-shex` calls it whenever a neighbourhood determines
//!   the bag of a single-occurrence definition.
//! * [`naive_member`] — an exponential search over bag decompositions that
//!   works for arbitrary expressions; it serves as a correctness oracle in
//!   tests and as a baseline in benchmarks. Production-strength membership
//!   for the remaining cases goes through the Presburger translation in the
//!   `shapex-presburger` crate (general RBE membership is NP-complete,
//!   Kopczynski & To 2010).

use std::collections::BTreeSet;

use crate::bag::Bag;
use crate::expr::{Rbe, Rbe0};
use crate::interval::{Interval, IntervalSet};

/// Linear-time membership for the RBE₀ normal form.
///
/// A bag `w` belongs to `L(a₁^{I₁} || … || aₙ^{Iₙ})` iff for every symbol `a`
/// the count `w(a)` lies in the `⊕`-sum of the intervals of the atoms carrying
/// `a`, and `w` uses no symbol outside the expression's alphabet.
pub fn rbe0_member<S: Ord + Clone>(bag: &Bag<S>, expr: &Rbe0<S>) -> bool {
    // Every bag symbol must be covered by an atom.
    for (s, c) in bag.iter() {
        if !expr.allowed(s).contains(c) {
            return false;
        }
    }
    // Symbols mentioned only by the expression must tolerate count zero.
    for s in expr.alphabet() {
        if bag.count(&s) == 0 && !expr.allowed(&s).contains(0) {
            return false;
        }
    }
    true
}

/// Error returned by [`sorbe_member`] when the expression is not
/// single-occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotSingleOccurrence;

impl std::fmt::Display for NotSingleOccurrence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expression is not single-occurrence")
    }
}

impl std::error::Error for NotSingleOccurrence {}

/// Polynomial membership for single-occurrence regular bag expressions
/// (SORBE).
///
/// Because every symbol occurs at most once, sibling sub-expressions have
/// pairwise disjoint alphabets and the split of the input bag is forced; the
/// set of admissible iteration counts of each sub-expression is then a small
/// union of intervals computed bottom-up.
pub fn sorbe_member<S: Ord + Clone>(
    bag: &Bag<S>,
    expr: &Rbe<S>,
) -> Result<bool, NotSingleOccurrence> {
    if !expr.is_single_occurrence() {
        return Err(NotSingleOccurrence);
    }
    let alphabet = expr.alphabet();
    if bag.symbols().any(|s| !alphabet.contains(s)) {
        return Ok(false);
    }
    Ok(match_counts(expr, bag).contains(1))
}

/// The set of `n ≥ 0` such that `bag ∈ L(expr)ⁿ`, assuming sibling
/// sub-expressions have disjoint alphabets and `support(bag) ⊆ alphabet(expr)`.
fn match_counts<S: Ord + Clone>(expr: &Rbe<S>, bag: &Bag<S>) -> IntervalSet {
    match expr {
        Rbe::Epsilon => {
            if bag.is_empty() {
                IntervalSet::all()
            } else {
                IntervalSet::empty()
            }
        }
        Rbe::Symbol(s) => {
            // Any foreign symbol rules the bag out entirely.
            if bag.symbols().any(|x| x != s) {
                IntervalSet::empty()
            } else {
                IntervalSet::from(Interval::exactly(bag.count(s)))
            }
        }
        Rbe::Concat(parts) => {
            // (L₁ ⊎ L₂)ⁿ = L₁ⁿ ⊎ L₂ⁿ; the alphabet split is forced, so a count
            // works iff it works for every factor.
            let mut covered: BTreeSet<S> = BTreeSet::new();
            let mut result = IntervalSet::all();
            for part in parts {
                let alpha = part.alphabet();
                covered.extend(alpha.iter().cloned());
                let restricted = bag.restrict(|s| alpha.contains(s));
                result = result.intersect(&match_counts(part, &restricted));
                if result.is_empty() {
                    return result;
                }
            }
            // Symbols of the bag not covered by any factor kill the match.
            if bag.symbols().any(|s| !covered.contains(s)) {
                return IntervalSet::empty();
            }
            result
        }
        Rbe::Disj(parts) => {
            // (L₁ ∪ L₂)ⁿ = ⋃_{n₁+n₂=n} L₁^{n₁} ⊎ L₂^{n₂}; with forced splits
            // the admissible counts are the point-wise sums.
            let mut covered: BTreeSet<S> = BTreeSet::new();
            let mut result = IntervalSet::from(Interval::ZERO);
            for part in parts {
                let alpha = part.alphabet();
                covered.extend(alpha.iter().cloned());
                let restricted = bag.restrict(|s| alpha.contains(s));
                result = result.add(&match_counts(part, &restricted));
                if result.is_empty() {
                    return result;
                }
            }
            if bag.symbols().any(|s| !covered.contains(s)) {
                return IntervalSet::empty();
            }
            result
        }
        Rbe::Repeat(inner, interval) => {
            let inner_counts = match_counts(inner, bag);
            repeat_counts(&inner_counts, *interval)
        }
    }
}

/// Given the set `J` of counts `m` with `bag ∈ L(E)^m`, compute the set of
/// counts `n` with `bag ∈ L(E^I)ⁿ`, i.e. the `n` such that the `n`-fold sum
/// `n·I` meets `J`.
fn repeat_counts(inner: &IntervalSet, interval: Interval) -> IntervalSet {
    let mut out = IntervalSet::empty();
    if inner.contains(0) {
        // n = 0 requires the bag to be producible by zero copies of E^I,
        // i.e. the bag is empty, i.e. 0 ∈ J.
        out.insert(Interval::exactly(0));
    }
    let a = interval.lo();
    let b = interval.hi();
    for j in inner.intervals() {
        let j1 = j.lo();
        let j2 = j.hi();
        // Lower bound on n (n ≥ 1): need n·b ≥ j1.
        let lo = match b {
            None => 1,
            Some(0) => {
                if j1 == 0 {
                    1
                } else {
                    continue; // n·[a;0] = [0;0] can never reach j1 > 0
                }
            }
            Some(bv) => 1u64.max(j1.div_ceil(bv)),
        };
        // Upper bound on n: need n·a ≤ j2.
        let hi = match (a, j2) {
            (0, _) => None,
            (_, None) => None,
            (av, Some(j2v)) => Some(j2v / av),
        };
        match hi {
            Some(h) if h < lo => {}
            Some(h) => out.insert(Interval::bounded(lo, h)),
            None => out.insert(Interval::at_least(lo)),
        }
    }
    out
}

/// Exhaustive membership oracle for arbitrary regular bag expressions.
///
/// Exponential in the size of the bag; intended for cross-checking the
/// polynomial procedures and the Presburger-based procedure on small inputs.
pub fn naive_member<S: Ord + Clone>(bag: &Bag<S>, expr: &Rbe<S>) -> bool {
    match expr {
        Rbe::Epsilon => bag.is_empty(),
        Rbe::Symbol(s) => bag.total() == 1 && bag.count(s) == 1,
        Rbe::Disj(parts) => parts.iter().any(|p| naive_member(bag, p)),
        Rbe::Concat(parts) => naive_member_concat(bag, parts),
        Rbe::Repeat(inner, interval) => {
            let total = bag.total();
            let nil_in_inner = naive_member(&Bag::new(), inner);
            if bag.is_empty() {
                // Zero copies, or any admissible positive number of ε-copies.
                return interval.contains(0)
                    || (nil_in_inner && positive_member(*interval, total.max(1)));
            }
            // Find some m ≤ total with bag ∈ L(inner)^m; then any n ≥ m is
            // reachable by padding with ε-copies when ε ∈ L(inner).
            for m in 1..=total {
                if member_power(bag, inner, m) {
                    if interval.contains(m) {
                        return true;
                    }
                    if nil_in_inner && interval_has_at_least(*interval, m) {
                        return true;
                    }
                }
            }
            false
        }
    }
}

/// Whether the interval contains some value `>= 1` and `<= cap` … used to
/// decide if ε-padding can reach an admissible count.
fn positive_member(interval: Interval, _cap: u64) -> bool {
    match interval.hi() {
        Some(m) => m >= 1,
        None => true,
    }
}

/// Whether the interval contains some value `>= m`.
fn interval_has_at_least(interval: Interval, m: u64) -> bool {
    match interval.hi() {
        Some(hi) => hi >= m,
        None => true,
    }
}

fn naive_member_concat<S: Ord + Clone>(bag: &Bag<S>, parts: &[Rbe<S>]) -> bool {
    match parts {
        [] => bag.is_empty(),
        [only] => naive_member(bag, only),
        [first, rest @ ..] => {
            for sub in sub_bags(bag) {
                if naive_member(&sub, first) {
                    let remainder = bag_minus(bag, &sub);
                    if naive_member_concat(&remainder, rest) {
                        return true;
                    }
                }
            }
            false
        }
    }
}

/// `bag ∈ L(expr)^power` by exhaustive decomposition.
fn member_power<S: Ord + Clone>(bag: &Bag<S>, expr: &Rbe<S>, power: u64) -> bool {
    if power == 0 {
        return bag.is_empty();
    }
    if power == 1 {
        return naive_member(bag, expr);
    }
    for sub in sub_bags(bag) {
        if naive_member(&sub, expr) && member_power(&bag_minus(bag, &sub), expr, power - 1) {
            return true;
        }
    }
    false
}

/// All sub-bags of `bag` (including the empty bag and `bag` itself).
fn sub_bags<S: Ord + Clone>(bag: &Bag<S>) -> Vec<Bag<S>> {
    let entries: Vec<(S, u64)> = bag.iter().map(|(s, c)| (s.clone(), c)).collect();
    let mut out = vec![Bag::new()];
    for (symbol, count) in entries {
        let mut next = Vec::with_capacity(out.len() * (count as usize + 1));
        for existing in &out {
            for take in 0..=count {
                let mut b = existing.clone();
                b.add(symbol.clone(), take);
                next.push(b);
            }
        }
        out = next;
    }
    out
}

/// Point-wise difference `bag - sub`, assuming `sub ⊑ bag`.
fn bag_minus<S: Ord + Clone>(bag: &Bag<S>, sub: &Bag<S>) -> Bag<S> {
    let mut out = Bag::new();
    for (s, c) in bag.iter() {
        let left = c - sub.count(s);
        out.add(s.clone(), left);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(symbols: &[&'static str]) -> Bag<&'static str> {
        Bag::from_symbols(symbols.iter().copied())
    }

    #[test]
    fn rbe0_membership_examples() {
        // a || b? || c*
        let e = Rbe::concat(vec![
            Rbe::symbol("a"),
            Rbe::opt(Rbe::symbol("b")),
            Rbe::star(Rbe::symbol("c")),
        ]);
        let r = e.to_rbe0().unwrap();
        assert!(rbe0_member(&bag(&["a"]), &r));
        assert!(rbe0_member(&bag(&["a", "b"]), &r));
        assert!(rbe0_member(&bag(&["a", "c", "c", "c"]), &r));
        assert!(!rbe0_member(&bag(&["b"]), &r), "missing mandatory a");
        assert!(!rbe0_member(&bag(&["a", "b", "b"]), &r), "too many b");
        assert!(!rbe0_member(&bag(&["a", "d"]), &r), "foreign symbol");
    }

    #[test]
    fn rbe0_membership_with_repeated_symbol() {
        // a || a+ || b*  ⇒ a must occur at least twice.
        let e = Rbe::concat(vec![
            Rbe::symbol("a"),
            Rbe::plus(Rbe::symbol("a")),
            Rbe::star(Rbe::symbol("b")),
        ]);
        let r = e.to_rbe0().unwrap();
        assert!(!rbe0_member(&bag(&["a"]), &r));
        assert!(rbe0_member(&bag(&["a", "a"]), &r));
        assert!(rbe0_member(&bag(&["a", "a", "a", "b"]), &r));
    }

    #[test]
    fn sorbe_matches_naive_on_simple_expressions() {
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
            bag(&["a", "c", "c"]),
            bag(&["b", "c"]),
        ] {
            assert_eq!(
                sorbe_member(&candidate, &e).unwrap(),
                naive_member(&candidate, &e),
                "disagreement on {candidate}"
            );
        }
    }

    #[test]
    fn sorbe_handles_disjunction_and_nesting() {
        // (a | (b || c))^[2;3]  — single occurrence, with disjunction.
        let e = Rbe::repeat(
            Rbe::disj(vec![
                Rbe::symbol("a"),
                Rbe::concat(vec![Rbe::symbol("b"), Rbe::symbol("c")]),
            ]),
            Interval::bounded(2, 3),
        );
        // Two copies of `a`.
        assert!(sorbe_member(&bag(&["a", "a"]), &e).unwrap());
        // One `a`, one `b||c`.
        assert!(sorbe_member(&bag(&["a", "b", "c"]), &e).unwrap());
        // A single copy is too few.
        assert!(!sorbe_member(&bag(&["a"]), &e).unwrap());
        // Four copies is too many.
        assert!(!sorbe_member(&bag(&["a", "a", "a", "a"]), &e).unwrap());
        // b without c cannot be completed.
        assert!(!sorbe_member(&bag(&["a", "b"]), &e).unwrap());
        // Cross-check against the oracle.
        for candidate in [
            bag(&[]),
            bag(&["a", "a"]),
            bag(&["a", "a", "a"]),
            bag(&["a", "b", "c"]),
            bag(&["b", "c", "b", "c"]),
            bag(&["a", "b"]),
        ] {
            assert_eq!(
                sorbe_member(&candidate, &e).unwrap(),
                naive_member(&candidate, &e),
                "disagreement on {candidate}"
            );
        }
    }

    #[test]
    fn sorbe_rejects_multi_occurrence() {
        let e = Rbe::concat(vec![Rbe::symbol("a"), Rbe::symbol("a")]);
        assert_eq!(
            sorbe_member(&bag(&["a", "a"]), &e),
            Err(NotSingleOccurrence)
        );
    }

    #[test]
    fn naive_member_repeat_edge_cases() {
        // (a?)^[2;2]: the empty bag is obtained with two ε-copies.
        let e = Rbe::repeat(Rbe::opt(Rbe::symbol("a")), Interval::exactly(2));
        assert!(naive_member(&bag(&[]), &e));
        assert!(naive_member(&bag(&["a"]), &e));
        assert!(naive_member(&bag(&["a", "a"]), &e));
        assert!(!naive_member(&bag(&["a", "a", "a"]), &e));

        // a^[2;2] requires exactly two a's.
        let exact = Rbe::repeat(Rbe::symbol("a"), Interval::exactly(2));
        assert!(!naive_member(&bag(&[]), &exact));
        assert!(!naive_member(&bag(&["a"]), &exact));
        assert!(naive_member(&bag(&["a", "a"]), &exact));
    }

    #[test]
    fn naive_member_concat_splits() {
        // (a | b) || (a | c): {a,a}, {a,c}, {b,a}, {b,c} are members.
        let e = Rbe::concat(vec![
            Rbe::disj(vec![Rbe::symbol("a"), Rbe::symbol("b")]),
            Rbe::disj(vec![Rbe::symbol("a"), Rbe::symbol("c")]),
        ]);
        assert!(naive_member(&bag(&["a", "a"]), &e));
        assert!(naive_member(&bag(&["a", "c"]), &e));
        assert!(naive_member(&bag(&["b", "a"]), &e));
        assert!(naive_member(&bag(&["b", "c"]), &e));
        assert!(!naive_member(&bag(&["b", "b"]), &e));
        assert!(!naive_member(&bag(&["a"]), &e));
    }
}
