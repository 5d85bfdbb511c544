//! The answer oracle: every verdict the service returns is judged against an
//! answer known independently of the engine.
//!
//! Known answers come from construction — a restriction of a schema is
//! contained in it, disjunct choice pairs are contained and mismatch pairs
//! are not, a DNF gadget is contained exactly when its formula is a
//! tautology, the two Figure 1 schemas have the same language, and every
//! schema contains itself. At set-up, every pair is also settled against
//! the reference implementations in `shapex_core::baseline`: the full-rescan
//! simulation proves containment when the shape graphs embed, and the
//! memo-free counter-example search, under the same search budget as the
//! engine, refutes it when it finds a certified witness.
//!
//! A pair the baseline decides is *decidable*: the engine, under the same
//! budget, must decide it too, so an `Unknown` there counts as failed. An
//! `Unknown` on any other pair is undecided, never correct. Independently
//! of the expectation, every `NotContained` witness must be certified:
//! valid under `H` and invalid under `K`.

use shapex_core::baseline::{
    enumerate_counter_example, max_simulation_baseline, search_counter_example_baseline,
};
use std::sync::OnceLock;

use shapex_core::unfold::SearchOptions;
use shapex_core::{Containment, UnknownReason};
use shapex_graph::Graph;
use shapex_shex::typing::validates;
use shapex_shex::Schema;

/// What the oracle knows about `L(H) ⊆ L(K)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Contained by construction, or proved by the baseline simulation
    /// embedding `H`'s shape graph in `K`'s.
    Contained,
    /// Not contained by construction, or refuted by a baseline witness.
    NotContained,
    /// No known answer, no baseline proof and no baseline witness: a
    /// `Contained` answer is checked against a brute-force enumeration of
    /// small graphs.
    Unproved,
}

/// How one answer was judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Judgement {
    /// Matches the settled expectation.
    Correct,
    /// A budget-exhausted or unsupported `Unknown` on a pair the baseline
    /// does not decide either: not wrong, not correct.
    Undecided,
    /// An `Unknown` (not a deadline expiry) on a pair the baseline decides
    /// under the same budget: the engine gave up where the reference did
    /// not.
    GaveUp,
    /// The deadline expired before an answer.
    Expired,
    /// Contradicts the known answer, or carries an uncertified witness.
    Wrong(String),
}

/// Whether `witness` proves `L(H) ⊄ L(K)`.
pub fn certifies(witness: &Graph, h: &Schema, k: &Schema) -> bool {
    validates(witness, h) && !validates(witness, k)
}

/// Whether the baseline's full-rescan simulation embeds `H`'s shape graph
/// in `K`'s, which proves containment.
pub fn simulation_proves(h: &Schema, k: &Schema) -> bool {
    match (h.to_shape_graph(), k.to_shape_graph()) {
        (Some(hg), Some(kg)) => max_simulation_baseline(&hg, &kg).is_embedding(),
        _ => false,
    }
}

/// Whether the baseline's memo-free counter-example search, under `search`,
/// finds a certified witness against `L(H) ⊆ L(K)`.
pub fn baseline_refutes(h: &Schema, k: &Schema, search: &SearchOptions) -> bool {
    search_counter_example_baseline(h, k, search).is_some_and(|w| certifies(&w, h, k))
}

/// Whether a brute-force enumeration of small graphs finds a certified
/// counter-example to `L(H) ⊆ L(K)`.
pub fn refute(h: &Schema, k: &Schema) -> bool {
    enumerate_counter_example(h, k, 3, 3, 4_000).is_some_and(|w| certifies(&w, h, k))
}

/// Settle one pair at set-up: its expectation, and whether the baseline
/// decides it under `search`.
pub fn settle(
    h: &Schema,
    k: &Schema,
    known: Option<Expect>,
    search: &SearchOptions,
) -> (Expect, bool) {
    if known != Some(Expect::NotContained) && simulation_proves(h, k) {
        return (Expect::Contained, true);
    }
    if known == Some(Expect::Contained) {
        return (Expect::Contained, false);
    }
    if baseline_refutes(h, k, search) {
        return (Expect::NotContained, true);
    }
    (known.unwrap_or(Expect::Unproved), false)
}

/// Judge one answer to `L(H) ⊆ L(K)`. `refuted` runs the enumeration
/// refutation; it is called only for a `Contained` answer to an
/// [`Expect::Unproved`] pair.
pub fn judge(
    answer: &Containment,
    expect: Expect,
    h: &Schema,
    k: &Schema,
    refuted: impl FnOnce() -> bool,
) -> Judgement {
    match answer {
        Containment::Contained => match expect {
            Expect::NotContained => Judgement::Wrong("Contained, but known not contained".into()),
            Expect::Unproved if refuted() => {
                Judgement::Wrong("Contained, but the baseline found a counter-example".into())
            }
            _ => Judgement::Correct,
        },
        Containment::NotContained(witness) => {
            if !certifies(witness, h, k) {
                return Judgement::Wrong("NotContained with an uncertified witness".into());
            }
            if expect == Expect::Contained {
                return Judgement::Wrong("NotContained, but known contained".into());
            }
            Judgement::Correct
        }
        Containment::Unknown(UnknownReason::DeadlineExceeded { .. }) => Judgement::Expired,
        Containment::Unknown(_) => Judgement::Undecided,
    }
}

/// The settled expectations of a fixed set of pairs, with each enumeration
/// refutation run at most once, on first need.
#[derive(Debug)]
pub struct Oracle {
    expect: Vec<Expect>,
    decidable: Vec<bool>,
    refuted: Vec<OnceLock<bool>>,
}

impl Oracle {
    /// An oracle over already settled pairs.
    pub fn new(expect: Vec<Expect>, decidable: Vec<bool>) -> Oracle {
        assert_eq!(expect.len(), decidable.len());
        let refuted = expect.iter().map(|_| OnceLock::new()).collect();
        Oracle {
            expect,
            decidable,
            refuted,
        }
    }

    /// Judge the answer to pair `pair`, `L(h) ⊆ L(k)`.
    pub fn judge(&self, pair: usize, answer: &Containment, h: &Schema, k: &Schema) -> Judgement {
        let judgement = judge(answer, self.expect[pair], h, k, || {
            *self.refuted[pair].get_or_init(|| refute(h, k))
        });
        match judgement {
            Judgement::Undecided if self.decidable[pair] => Judgement::GaveUp,
            other => other,
        }
    }

    /// How many pairs the baseline leaves open: no known answer, no proof,
    /// no witness.
    pub fn unproved(&self) -> usize {
        self.expect
            .iter()
            .filter(|&&e| e == Expect::Unproved)
            .count()
    }

    /// How many pairs the baseline decides, and so the engine must.
    pub fn decidable(&self) -> usize {
        self.decidable.iter().filter(|&&d| d).count()
    }
}

/// Running totals of judgements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Answers judged.
    pub attempted: u64,
    /// Refused, expired, wrong, or given up on a decidable pair.
    pub failed: u64,
    /// Wrong answers (a subset of `failed`).
    pub wrong: u64,
    /// `Unknown` answers that were not deadline expiries, decidable pairs
    /// included.
    pub undecided: u64,
    /// The first wrong answer seen, for the report.
    pub first_wrong: Option<String>,
}

impl Tally {
    /// Count one judgement; returns whether it counts as a success.
    pub fn count(&mut self, judgement: &Judgement) -> bool {
        self.attempted += 1;
        match judgement {
            Judgement::Correct => true,
            Judgement::Undecided => {
                self.undecided += 1;
                true
            }
            Judgement::GaveUp => {
                self.undecided += 1;
                self.failed += 1;
                false
            }
            Judgement::Expired => {
                self.failed += 1;
                false
            }
            Judgement::Wrong(why) => {
                self.failed += 1;
                self.wrong += 1;
                self.first_wrong.get_or_insert_with(|| why.clone());
                false
            }
        }
    }

    /// Count one refused request (an error reply or a missed deadline).
    pub fn refused(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Count one request whose reply was checked some other way.
    pub fn checked(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        if ok {
            self.attempted += 1;
            true
        } else {
            self.count(&Judgement::Wrong(why()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_gadgets::disjuncts::{disjunct_choice_pair, disjunct_mismatch_pair};

    fn lone_node() -> Graph {
        let mut g = Graph::new();
        g.add_node();
        g
    }

    #[test]
    fn a_flipped_verdict_is_rejected() {
        let (h, k) = disjunct_mismatch_pair(2);
        let never = || -> bool { unreachable!("no refutation needed") };
        assert!(matches!(
            judge(&Containment::Contained, Expect::NotContained, &h, &k, never),
            Judgement::Wrong(_)
        ));
        assert!(matches!(
            judge(&Containment::Contained, Expect::Unproved, &h, &k, || true),
            Judgement::Wrong(_)
        ));
        // The unflipped answers pass.
        let (hc, kc) = disjunct_choice_pair(2);
        assert_eq!(
            judge(&Containment::Contained, Expect::Contained, &hc, &kc, never),
            Judgement::Correct
        );
        assert_eq!(
            judge(&Containment::Contained, Expect::Unproved, &hc, &kc, || {
                false
            }),
            Judgement::Correct
        );
    }

    #[test]
    fn an_uncertified_witness_is_rejected() {
        // A lone node validates under both schemas, so it proves nothing.
        let (h, k) = disjunct_mismatch_pair(2);
        let answer = Containment::not_contained(lone_node());
        assert!(matches!(
            judge(&answer, Expect::NotContained, &h, &k, || false),
            Judgement::Wrong(_)
        ));
    }

    #[test]
    fn a_certified_witness_against_a_known_containment_is_rejected() {
        let (h, k) = disjunct_mismatch_pair(2);
        let witness = search_counter_example_baseline(&h, &k, &SearchOptions::quick())
            .expect("the mismatch pair has a small counter-example");
        assert!(certifies(&witness, &h, &k));
        let answer = Containment::not_contained(witness);
        assert_eq!(
            judge(&answer, Expect::NotContained, &h, &k, || false),
            Judgement::Correct
        );
        assert!(matches!(
            judge(&answer, Expect::Contained, &h, &k, || false),
            Judgement::Wrong(_)
        ));
    }

    #[test]
    fn unknown_is_never_correct() {
        let (h, k) = disjunct_choice_pair(2);
        let tally_of = |answer: Containment, decidable: bool| {
            let oracle = Oracle::new(vec![Expect::Contained], vec![decidable]);
            let mut tally = Tally::default();
            tally.count(&oracle.judge(0, &answer, &h, &k));
            tally
        };
        let budget = tally_of(Containment::budget_exhausted(10, 2), false);
        assert_eq!((budget.undecided, budget.failed), (1, 0));
        let gave_up = tally_of(Containment::budget_exhausted(10, 2), true);
        assert_eq!((gave_up.undecided, gave_up.failed), (1, 1));
        let expired = tally_of(
            Containment::deadline_exceeded(std::time::Duration::ZERO),
            false,
        );
        assert_eq!((expired.undecided, expired.failed), (0, 1));
    }

    #[test]
    fn the_baseline_settles_what_it_decides() {
        let search = SearchOptions::quick();
        let (hc, kc) = disjunct_choice_pair(2);
        let (hm, km) = disjunct_mismatch_pair(2);
        // K is outside RBE0, so the simulation proves nothing there: the
        // choice pair is contained by construction only, and the engine may
        // leave it open; the mismatch pair has a baseline witness, so the
        // engine must decide it.
        assert!(!simulation_proves(&hc, &kc));
        assert_eq!(
            settle(&hc, &kc, Some(Expect::Contained), &search),
            (Expect::Contained, false)
        );
        assert_eq!(
            settle(&hm, &km, None, &search),
            (Expect::NotContained, true)
        );
        assert!(!baseline_refutes(&hc, &kc, &search));
        // The Figure 1 split schema embeds in the original; the other
        // direction is contained by construction only.
        let split = shapex::prelude::figures::bug_tracker_split_schema();
        let orig = shapex::prelude::figures::bug_tracker_schema();
        assert_eq!(
            settle(&split, &orig, None, &search),
            (Expect::Contained, true)
        );
        assert_eq!(
            settle(&orig, &split, Some(Expect::Contained), &search),
            (Expect::Contained, false)
        );
        // A flipped answer on a pair the baseline leaves open triggers the
        // enumeration refutation: two `p` edges fit `H` but not `K`.
        let h = shapex_shex::parse_schema("T -> p::L*\nL -> EMPTY\n").unwrap();
        let k = shapex_shex::parse_schema("T -> p::L?\nL -> EMPTY\n").unwrap();
        assert!(refute(&h, &k));
        assert!(!refute(&k, &h));
        let oracle = Oracle::new(vec![Expect::Unproved], vec![false]);
        assert!(matches!(
            oracle.judge(0, &Containment::Contained, &h, &k),
            Judgement::Wrong(_)
        ));
        assert_eq!((oracle.unproved(), oracle.decidable()), (1, 0));
    }
}
