//! `audit_batch`: an offline audit on a cold service.
//!
//! One caller sends one `Matrix` request per seeded family and waits for each
//! reply (closed loop). The families are corpus evolution chains that
//! alternate deterministic and non-deterministic ShEx₀, disjunct choice and
//! mismatch families (2 to 6 choice groups), and DNF tautology gadget pairs.
//! Every cell is distinct and every round draws fresh families and starts on
//! a fresh service, so coalescing
//! and pair memos are bypassed: the time goes into pool enumeration,
//! candidate validation, the simulation kernel, the Presburger solver and
//! matrix row fan-out.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::prelude::*;
use rand::rngs::StdRng;
use shapex::prelude::*;
use shapex_core::det::characterizing_graph;
use shapex_core::unfold::{enumerate_members, SearchOptions};
use shapex_gadgets::corpus::{Corpus, CorpusOptions};
use shapex_gadgets::disjuncts::{disjunct_choice_pair, disjunct_mismatch_pair};
use shapex_gadgets::generate::random_dnf;
use shapex_gadgets::reductions::{dnf_is_tautology, dnf_tautology_gadget, DnfFormula};

use crate::oracle::{settle, Expect, Judgement, Oracle, Tally};
use crate::report::{engine_metrics, finish_trace, Report};
use crate::stats::{median, windowed_percentile, windows, Samples};
use crate::trace::Tracer;
use crate::{sub_seed, Ctx};

/// Deadline of one `Matrix` request (a cold matrix takes well under a
/// second; the deadline only guards against a wedged service).
const MATRIX_DEADLINE: Duration = Duration::from_secs(60);
/// Rounds pooled into one window of the run; the latency percentiles and
/// the cell rate are medians over windows. Seven rounds hold 105 matrices,
/// so that a window's p90 has ten samples beyond it.
const WINDOW_ROUNDS: usize = 7;
/// Rounds per run (per half of a traced run) at least: three windows.
const MIN_ROUNDS: usize = 3 * WINDOW_ROUNDS;
/// Passes of the direct `check_matrix_ids` replay in the traced run.
const REPLAY_PASSES: usize = 2;

/// One family: the schemas of one `Matrix` request and the known answer of
/// each cell (`None` is settled against the baseline), row-major.
#[derive(Debug, Clone)]
pub struct Family {
    /// What the family is, for the report.
    pub name: String,
    /// The schemas, in request order.
    pub schemas: Vec<Schema>,
    /// `known[i * n + j]` answers `L(schemas[i]) ⊆ L(schemas[j])`.
    pub known: Vec<Option<Expect>>,
}

impl Family {
    fn new(name: String, schemas: Vec<Schema>, known_pairs: &[(usize, usize, Expect)]) -> Family {
        let n = schemas.len();
        let mut known = vec![None; n * n];
        for i in 0..n {
            known[i * n + i] = Some(Expect::Contained);
        }
        for &(i, j, expect) in known_pairs {
            known[i * n + j] = Some(expect);
        }
        Family {
            name,
            schemas,
            known,
        }
    }

    fn cells(&self) -> usize {
        self.schemas.len() * self.schemas.len()
    }
}

/// A DNF formula that is a tautology by construction: `x1 ∨ ¬x1` plus
/// seeded terms.
fn tautology(rng: &mut StdRng, vars: usize) -> DnfFormula {
    let mut formula = random_dnf(rng, vars, vars, 2);
    formula.terms.push(vec![1]);
    formula.terms.push(vec![-1]);
    formula.terms.shuffle(rng);
    formula
}

/// The seeded families of audit round `round`. Each round draws fresh
/// corpus chains and formulas, so a run's matrix-latency quantiles pool
/// hundreds of draws instead of hinging on a few.
pub fn families(seed: u64, round: u64) -> Vec<Family> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, round));
    let mut families = Vec::new();
    let corpus = Corpus::generate(&CorpusOptions {
        families: 8,
        revisions: 4,
        seed: rng.next_u64(),
        ..CorpusOptions::default()
    });
    for (i, chain) in corpus.families().iter().enumerate() {
        families.push(Family::new(format!("corpus#{i}"), chain.clone(), &[]));
    }
    for groups in 2..=6 {
        let (choice, k) = disjunct_choice_pair(groups);
        let (mismatch, _) = disjunct_mismatch_pair(groups);
        let (narrower, _) = disjunct_choice_pair(groups - 1);
        // Seeded order of the same four schemas.
        let mut order = [0usize, 1, 2, 3];
        order.shuffle(&mut rng);
        let base = [choice, mismatch, k, narrower];
        let at = |s: usize| order.iter().position(|&o| o == s).expect("a permutation");
        let schemas = order.iter().map(|&o| base[o].clone()).collect();
        families.push(Family::new(
            format!("disjuncts/groups={groups}"),
            schemas,
            &[
                (at(0), at(2), Expect::Contained),
                (at(1), at(2), Expect::NotContained),
            ],
        ));
    }
    // One family per gadget pair: cells between the `K`s of different
    // formulas have no known answer, and settling them costs a baseline
    // search each that finds nothing (about 600 ms a round).
    for vars in [3, 4] {
        let formulas = [
            tautology(&mut rng, vars),
            tautology(&mut rng, vars),
            random_dnf(&mut rng, vars, 1 << (vars - 1), 2),
        ];
        for formula in &formulas {
            let (h, k) = dnf_tautology_gadget(formula);
            let expect = if dnf_is_tautology(formula) {
                Expect::Contained
            } else {
                Expect::NotContained
            };
            families.push(Family::new(
                format!("dnf/vars={vars}"),
                vec![h, k],
                &[(0, 1, expect)],
            ));
        }
    }
    families
}

/// The search budget of the audit engine, spelled out (it equals
/// `SearchOptions::quick()` when the benchmark was written) so that a change
/// to the library's presets does not change what the benchmark asks for. A
/// budget-exhausting cell costs milliseconds, so the fixed disjunct and DNF
/// families, not the seeded corpus draw, carry most of a round's work.
fn search_options() -> SearchOptions {
    SearchOptions {
        max_depth: 3,
        max_bags: 12,
        max_trees: 16,
        max_graph_nodes: 200,
        max_candidates: 600,
        random_samples: 100,
        seed: 0xC0FFEE,
    }
}

fn engine_options(ctx: &Ctx) -> EngineOptions {
    EngineOptions::default()
        .with_search(search_options())
        .with_matrix_threads(ctx.cores)
}

/// Settled cells by the text of their two schemas: the disjunct families
/// recur in every round, and each is settled once per run.
type Settled = HashMap<(String, String), (Expect, bool)>;

/// One oracle per family over its cells, every cell settled against the
/// baseline under the engine's search budget.
fn oracles(families: &[Family], settled: &mut Settled) -> Vec<Oracle> {
    let search = search_options();
    families
        .iter()
        .map(|f| {
            let n = f.schemas.len();
            let (expect, decidable) = (0..n * n)
                .map(|c| {
                    let (h, k) = (&f.schemas[c / n], &f.schemas[c % n]);
                    *settled
                        .entry((h.to_string(), k.to_string()))
                        .or_insert_with(|| settle(h, k, f.known[c], &search))
                })
                .unzip();
            Oracle::new(expect, decidable)
        })
        .collect()
}

/// A cold service with every family registered.
struct Deployment {
    service: ContainmentService,
    pool: ServicePool,
    client: PoolClient,
    ids: Vec<Vec<SchemaId>>,
}

fn deploy(families: &[Family], ctx: &Ctx, tracer: &Tracer) -> Deployment {
    let service = ContainmentService::with_options(engine_options(ctx));
    let pool = service.pool(ctx.cores, 4);
    let client = pool.client(TenantId::DEFAULT);
    let mut request = 0u64;
    let ids = families
        .iter()
        .map(|f| {
            f.schemas
                .iter()
                .map(|schema| {
                    request += 1;
                    let register = ServiceRequest::Register(Box::new(schema.clone()));
                    let reply = tracer.span("shex.register", request, None, |_| {
                        client.call_timeout(register, MATRIX_DEADLINE)
                    });
                    match reply {
                        Ok(ServiceResponse::Registered(id)) => id,
                        other => panic!("registration failed: {other:?}"),
                    }
                })
                .collect()
        })
        .collect();
    Deployment {
        service,
        pool,
        client,
        ids,
    }
}

/// One audit round on a deployment: a `Matrix` per family, every cell
/// judged. Returns the matrix latencies (ms) and the cells answered.
fn round(
    families: &[Family],
    oracles: &[Oracle],
    deployment: &Deployment,
    tracer: &Tracer,
    tally: &mut Tally,
) -> (Vec<f64>, usize) {
    let mut latencies = Vec::new();
    let mut cells = 0;
    for (f, family) in families.iter().enumerate() {
        let request = ServiceRequest::Matrix(deployment.ids[f].clone());
        let start = Instant::now();
        let reply = tracer.span("service.matrix", f as u64, None, |_| {
            deployment.client.call_timeout(request, MATRIX_DEADLINE)
        });
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let n = family.schemas.len();
        match reply {
            Ok(ServiceResponse::Matrix(matrix)) if matrix.len() == n => {
                for i in 0..n {
                    for j in 0..n {
                        let answer = matrix.get(i, j);
                        tally.count(&oracles[f].judge(
                            i * n + j,
                            answer,
                            &family.schemas[i],
                            &family.schemas[j],
                        ));
                    }
                }
                cells += n * n;
                latencies.push(elapsed_ms);
            }
            Ok(other) => {
                tally.count(&Judgement::Wrong(format!(
                    "{}: Matrix answered with {other:?}",
                    family.name
                )));
                latencies.push(elapsed_ms.max(MATRIX_DEADLINE.as_secs_f64() * 1e3));
            }
            Err(_) => {
                tally.refused();
                latencies.push(elapsed_ms.max(MATRIX_DEADLINE.as_secs_f64() * 1e3));
            }
        }
    }
    (latencies, cells)
}

/// What the rounds of a run measured.
#[derive(Default)]
struct Rounds {
    /// Matrix latencies of each untraced round (every round when untraced).
    latency: Vec<Vec<f64>>,
    /// Cells answered in each of those rounds.
    cells: Vec<usize>,
    /// Matrix latencies of each traced round.
    traced: Vec<Vec<f64>>,
    /// Set-up time of every round: fresh service and registration.
    setups: Vec<f64>,
    /// Time the oracle took to settle the rounds' cells.
    oracle_s: f64,
}

/// Rounds until `seconds` have passed (and at least [`MIN_ROUNDS`] per
/// half). Every round draws its families, settles them, and deploys a fresh
/// service, timed as a set-up. In the traced run, odd rounds are traced, so
/// both halves see the same host drift; the engine counters come from the
/// first traced round.
fn rounds(
    ctx: &Ctx,
    seconds: f64,
    settled: &mut Settled,
    tracer: &Tracer,
    report: &mut Report,
) -> Rounds {
    let quiet = Tracer::new(false);
    let halves = if tracer.enabled() { 2 } else { 1 };
    let mut out = Rounds::default();
    let start = Instant::now();
    let mut round_index = 0u64;
    while round_index < (MIN_ROUNDS * halves) as u64 || start.elapsed().as_secs_f64() < seconds {
        let traced = tracer.enabled() && round_index % 2 == 1;
        let round_tracer = if traced { tracer } else { &quiet };
        let families = families(ctx.seed, round_index);
        let oracle_start = Instant::now();
        let oracles = oracles(&families, settled);
        out.oracle_s += oracle_start.elapsed().as_secs_f64();
        let setup = Instant::now();
        let deployment = deploy(&families, ctx, round_tracer);
        out.setups.push(setup.elapsed().as_secs_f64());
        let before = deployment.service.stats().engine;
        let (latency, cells) = round(
            &families,
            &oracles,
            &deployment,
            round_tracer,
            &mut report.tally,
        );
        if traced && out.traced.is_empty() {
            let after = deployment.service.stats().engine;
            engine_metrics(report, &[(before, after)], cells as u64);
        }
        if traced {
            out.traced.push(latency);
        } else {
            out.latency.push(latency);
            out.cells.push(cells);
        }
        drop(deployment.client);
        deployment.pool.join();
        round_index += 1;
    }
    out
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let tracer = Tracer::new(ctx.trace);
    let mut settled = Settled::new();
    let first = families(ctx.seed, 0);
    let first_oracles = oracles(&first, &mut settled);
    let cells: usize = first.iter().map(Family::cells).sum();
    let decidable: usize = first_oracles.iter().map(Oracle::decidable).sum();
    report.note(format!(
        "oracle, round 0: {} families, {cells} cells settled against the baseline: {decidable} decidable (the engine must decide them), {} known only by construction or open ({} open)",
        first.len(),
        cells - decidable,
        first_oracles.iter().map(Oracle::unproved).sum::<usize>(),
    ));

    let measured = if ctx.trace {
        2.0 * ctx.seconds
    } else {
        ctx.seconds
    };
    let rounds = rounds(ctx, measured, &mut settled, &tracer, &mut report);
    // Cells per second of matrix time, per window of rounds.
    let rates: Vec<f64> = rounds
        .latency
        .chunks(WINDOW_ROUNDS)
        .zip(rounds.cells.chunks(WINDOW_ROUNDS))
        .filter(|(l, _)| l.len() == WINDOW_ROUNDS)
        .map(|(l, c)| {
            c.iter().sum::<usize>() as f64 / (l.concat().iter().fold(0.0, |a, b| a + b) / 1e3)
        })
        .collect();
    let matrices: usize = rounds.latency.iter().map(Vec::len).sum();
    let all = Samples::new(rounds.latency.concat());
    let by_window = windows(rounds.latency, WINDOW_ROUNDS);
    let windowed = |q| windowed_percentile(&by_window, q).expect("MIN_ROUNDS guarantees samples");
    let p50 = windowed(0.5);
    report.set("setup_s", median(&rounds.setups));
    report.set("latency_ms", p50);
    report
        .info
        .push(("audit_matrix_p90_ms", Some(windowed(0.9)), "ms"));
    report
        .info
        .push(("audit_matrix_p99_ms", all.percentile(0.99), "ms"));
    report.set("throughput_per_s", median(&rates));
    report.note(format!(
        "{matrices} matrices, {} cells over {} rounds; percentiles and cell rate are medians over {} windows of {WINDOW_ROUNDS} rounds; the oracle settled the rounds' cells in {:.3} s",
        rounds.cells.iter().sum::<usize>(),
        rounds.setups.len(),
        by_window.len(),
        rounds.oracle_s
    ));
    report.aliases = vec![
        ("audit_matrix_p50_ms", "latency_ms"),
        ("audit_cells_per_s", "throughput_per_s"),
    ];

    if ctx.trace {
        let traced = windows(rounds.traced, WINDOW_ROUNDS);
        let traced_p50 = windowed_percentile(&traced, 0.5).expect("MIN_ROUNDS guarantees samples");
        report.set("trace.overhead_pct", (traced_p50 / p50 - 1.0) * 100.0);
        let rtt = Samples::new(tracer.durations("service.matrix"));
        report.set("service.rtt_ms.p50", rtt.percentile(0.5).unwrap_or(0.0));
        layers(&mut report, &first, &first_oracles, ctx, &tracer);
    }
    report.set("bench.undecided", report.tally.undecided as f64);
    report.record_peak_rss();
    finish_trace(&mut report, &tracer, ctx);
    report
}

/// Direct calls one layer down, over the same schemas.
fn layers(
    report: &mut Report,
    families: &[Family],
    oracles: &[Oracle],
    ctx: &Ctx,
    tracer: &Tracer,
) {
    for pass in 0..REPLAY_PASSES {
        let engine = ContainmentEngine::with_options(engine_options(ctx));
        for (f, family) in families.iter().enumerate() {
            let ids: Vec<SchemaId> = family.schemas.iter().map(|s| engine.register(s)).collect();
            let request = (pass * families.len() + f) as u64;
            let matrix = tracer.span("engine.check_matrix_ids", request, None, |_| {
                engine.check_matrix_ids(&ids)
            });
            let n = ids.len();
            for c in 0..n * n {
                let (i, j) = (c / n, c % n);
                report.tally.count(&oracles[f].judge(
                    c,
                    matrix.get(i, j),
                    &family.schemas[i],
                    &family.schemas[j],
                ));
            }
        }
    }
    let matrix = Samples::new(tracer.durations("engine.check_matrix_ids"));
    report.set(
        "engine.matrix_ms.p50",
        matrix.percentile(0.5).expect("REPLAY_PASSES covers p50"),
    );

    let options = search_options();
    let mut embed_calls = 0u64;
    for (f, family) in families.iter().enumerate() {
        let request = f as u64;
        for schema in &family.schemas {
            for root in schema.types() {
                tracer.span("unfold.enumerate_members", request, None, |_| {
                    enumerate_members(schema, root, &options).len()
                });
            }
            if schema.classify() == SchemaClass::DetShEx0Minus {
                tracer.span("det.characterizing_graph", request, None, |_| {
                    characterizing_graph(schema).is_ok()
                });
            }
        }
        let shapes: Vec<Option<Graph>> =
            family.schemas.iter().map(Schema::to_shape_graph).collect();
        for (i, hg) in shapes.iter().enumerate() {
            for (j, kg) in shapes.iter().enumerate() {
                if let (true, Some(hg), Some(kg)) = (i != j, hg, kg) {
                    embed_calls += 1;
                    tracer.span("simulation.embeds", request, None, |_| {
                        embeds(hg, kg).is_some()
                    });
                }
            }
        }
    }
    let total = |name: &str| tracer.total_ms(name);
    report.set(
        "unfold.enumerate_ms.total",
        total("unfold.enumerate_members"),
    );
    report.set(
        "det.characterizing_ms.total",
        total("det.characterizing_graph"),
    );
    report.set("simulation.embeds_ms.total", total("simulation.embeds"));
    report.set("simulation.embed_calls", embed_calls as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(families: &[Family]) -> String {
        families
            .iter()
            .map(|f| {
                let schemas: Vec<String> = f.schemas.iter().map(ToString::to_string).collect();
                format!("{}{schemas:?}{:?}", f.name, f.known)
            })
            .collect()
    }

    #[test]
    fn the_seed_fixes_the_families() {
        assert_eq!(render(&families(3, 0)), render(&families(3, 0)));
        assert_eq!(render(&families(3, 5)), render(&families(3, 5)));
        assert_ne!(render(&families(3, 0)), render(&families(4, 0)));
        assert_ne!(render(&families(3, 0)), render(&families(3, 1)));
    }

    #[test]
    fn dnf_families_know_their_answers() {
        let families = families(5, 2);
        let dnf: Vec<&Family> = families
            .iter()
            .filter(|f| f.name.starts_with("dnf"))
            .collect();
        assert_eq!(dnf.len(), 6);
        for (i, family) in dnf.iter().enumerate() {
            // H ⊆ K is known; K ⊆ H is not.
            assert_eq!(family.schemas.len(), 2);
            assert_eq!(family.known[2], None);
            assert!(family.known[1].is_some());
            // Two tautologies, then a random formula, per variable count.
            if i % 3 != 2 {
                assert_eq!(family.known[1], Some(Expect::Contained));
            }
        }
    }
}
