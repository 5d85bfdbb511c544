//! `stream_revalidate`: an evolving RDF graph under incremental validation.
//!
//! One tenant streams a generated N-Triples document of Figure 1-shaped
//! bug-tracker data in chunks through `LoadTriples`, then applies a seeded
//! sequence of `ApplyDelta` edit batches, each followed by `Revalidate`
//! against both Figure 1 schemas (closed loop, one client). The graph
//! parser, the label interner, `apply_delta` and `IncrementalTyping` do the
//! work while the containment search sits idle.
//!
//! The data is grouped into projects — bugs, their reporters and one
//! employee — and every edge stays inside its project, so an edit's affected
//! region is one project, not the graph. The edit generator knows which bugs
//! it broke (by removing their one `descr`), so it knows the validity each
//! `Revalidate` must report: the graph is valid exactly when no bug is
//! broken. The two Figure 1 schemas have the same language, so both
//! verdicts agree.

use std::time::{Duration, Instant};

use rand::prelude::*;
use rand::rngs::StdRng;
use shapex::prelude::*;
use shapex_graph::Triple;
use shapex_shex::typing::maximal_typing;

use crate::oracle::Tally;
use crate::report::{engine_metrics, finish_trace, Report};
use crate::stats::{median, windowed_percentile, windows, Samples};
use crate::trace::Tracer;
use crate::{sub_seed, Ctx};

/// Projects in the generated document (about 23 triples each).
const PROJECTS: usize = 2_500;
const BUGS_PER_PROJECT: usize = 6;
const USERS_PER_PROJECT: usize = 3;
/// Bytes per `LoadTriples` chunk.
const CHUNK_BYTES: usize = 64 * 1024;
/// Cycles per measured second: each sets up a fresh service, loads a fresh
/// seeded document (`ingest` is the median rate over cycles) and applies
/// [`BATCHES_PER_CYCLE`] edit batches to it. Loading takes more of a cycle
/// than the edits do, as it does for a service that ingests a document and
/// then serves its revisions.
const CYCLES_PER_SECOND: f64 = 1.5;
/// Edit operations per `ApplyDelta` batch, each in a random project,
/// besides a break or repair: enough work per `Revalidate` that its latency
/// is the typing's work rather than the scheduler's wake-up path.
const OPS_PER_BATCH: usize = 48;
/// Edit batches per cycle; two revalidations each.
const BATCHES_PER_CYCLE: usize = 40;
/// Cycles pooled into one window: 240 revalidations, so that a window's
/// p90 has ten samples beyond it. The latency percentiles are medians over
/// windows.
const WINDOW_CYCLES: usize = 3;
/// Edit batches the traced run replays through `IncrementalTyping`, at
/// most: two applies each.
const REPLAY_BATCHES: usize = 500;
/// Deadline of every request.
const DEADLINE: Duration = Duration::from_secs(10);

/// One edge-level edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Addition (or removal).
    pub add: bool,
    /// Subject node name.
    pub subject: String,
    /// Predicate label.
    pub predicate: &'static str,
    /// Object node name.
    pub object: String,
}

/// The generator's model of one project.
#[derive(Debug, Clone)]
struct Project {
    bugs: usize,
    user_email: Vec<bool>,
}

/// The seeded world: the document and the edit stream that follows it.
#[derive(Debug)]
pub struct World {
    rng: StdRng,
    projects: Vec<Project>,
    /// Bugs whose `descr` the edits removed, oldest first.
    broken: Vec<(usize, usize)>,
}

/// The generated document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// N-Triples text.
    pub text: String,
    /// Statements in it.
    pub triples: u64,
}

fn bug(p: usize, i: usize) -> String {
    format!("b{p}.{i}")
}
fn user(p: usize, j: usize) -> String {
    format!("u{p}.{j}")
}
fn descr(p: usize, i: usize) -> String {
    format!("\"d{p}.{i}\"")
}
fn email(p: usize, j: usize) -> String {
    format!("\"m{p}.{j}\"")
}

impl World {
    /// Generate the document for `seed`; the world then yields the edits.
    pub fn generate(seed: u64) -> (World, Document) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut text = String::with_capacity(PROJECTS * 700);
        let mut triples = 0u64;
        let mut emit = |s: &str, p: &str, o: &str| {
            // IRIs in angle brackets; literal node names keep their quotes.
            let object = if o.starts_with('"') {
                o.to_owned()
            } else {
                format!("<{o}>")
            };
            text.push_str(&format!("<{s}> <{p}> {object} .\n"));
            triples += 1;
        };
        let mut projects = Vec::with_capacity(PROJECTS);
        for p in 0..PROJECTS {
            let employee = format!("e{p}");
            emit(&employee, "name", &format!("\"en{p}\""));
            emit(&employee, "email", &format!("\"em{p}\""));
            let mut user_email = Vec::new();
            for j in 0..USERS_PER_PROJECT {
                emit(&user(p, j), "name", &format!("\"n{p}.{j}\""));
                let has = rng.gen_bool(0.5);
                if has {
                    emit(&user(p, j), "email", &email(p, j));
                }
                user_email.push(has);
            }
            for i in 0..BUGS_PER_PROJECT {
                emit(&bug(p, i), "descr", &descr(p, i));
                let reporter = rng.gen_range(0..USERS_PER_PROJECT);
                emit(&bug(p, i), "reportedBy", &user(p, reporter));
                if rng.gen_bool(0.3) {
                    emit(&bug(p, i), "reproducedBy", &employee);
                }
                if i > 0 && rng.gen_bool(0.5) {
                    emit(&bug(p, i), "related", &bug(p, i - 1));
                }
            }
            projects.push(Project {
                bugs: BUGS_PER_PROJECT,
                user_email,
            });
        }
        let world = World {
            rng,
            projects,
            broken: Vec::new(),
        };
        (world, Document { text, triples })
    }

    /// The next edit batch and whether the graph is valid after it.
    pub fn batch(&mut self) -> (Vec<Op>, bool) {
        let rng = &mut self.rng;
        let mut ops = Vec::new();
        let mut op = |add: bool, subject: String, predicate: &'static str, object: String| {
            ops.push(Op {
                add,
                subject,
                predicate,
                object,
            })
        };
        for _ in 0..OPS_PER_BATCH {
            let p = rng.gen_range(0..self.projects.len());
            let project = &mut self.projects[p];
            match rng.gen_range(0..10) {
                0..=3 => {
                    let (i, j) = (
                        rng.gen_range(0..project.bugs),
                        rng.gen_range(0..project.bugs),
                    );
                    op(true, bug(p, i), "related", bug(p, j));
                }
                4..=6 => {
                    let j = rng.gen_range(0..USERS_PER_PROJECT);
                    let has = &mut project.user_email[j];
                    op(!*has, user(p, j), "email", email(p, j));
                    *has = !*has;
                }
                _ => {
                    let i = project.bugs;
                    project.bugs += 1;
                    op(true, bug(p, i), "descr", descr(p, i));
                    let reporter = rng.gen_range(0..USERS_PER_PROJECT);
                    op(true, bug(p, i), "reportedBy", user(p, reporter));
                }
            }
        }
        // Break one bug, or repair the oldest broken one.
        if let Some(&(p, i)) = self.broken.first().filter(|_| rng.gen_bool(0.5)) {
            self.broken.remove(0);
            op(true, bug(p, i), "descr", descr(p, i));
        } else if rng.gen_bool(0.2) {
            let p = rng.gen_range(0..self.projects.len());
            let i = rng.gen_range(0..self.projects[p].bugs);
            if !self.broken.contains(&(p, i)) {
                self.broken.push((p, i));
                op(false, bug(p, i), "descr", descr(p, i));
            }
        }
        (ops, self.broken.is_empty())
    }
}

fn delta_of(ops: &[Op]) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for op in ops {
        if op.add {
            delta.add_edge(op.subject.clone(), op.predicate, op.object.clone());
        } else {
            delta.remove_edge(op.subject.clone(), op.predicate, op.object.clone());
        }
    }
    delta
}

/// A service with both Figure 1 schemas registered and a pool to call.
struct Deployment {
    service: ContainmentService,
    pool: ServicePool,
    client: PoolClient,
    schemas: [SchemaId; 2],
}

impl Deployment {
    fn new(ctx: &Ctx, tracer: &Tracer) -> Deployment {
        let service = ContainmentService::new();
        let pool = service.pool(ctx.cores, 8);
        let client = pool.client(TenantId::DEFAULT);
        let register = |i: u64, schema: Schema| {
            let request = ServiceRequest::Register(Box::new(schema));
            match tracer.span("shex.register", i, None, |_| {
                client.call_timeout(request, DEADLINE)
            }) {
                Ok(ServiceResponse::Registered(id)) => id,
                other => panic!("registration failed: {other:?}"),
            }
        };
        let schemas = [
            register(0, figures::bug_tracker_schema()),
            register(1, figures::bug_tracker_split_schema()),
        ];
        Deployment {
            service,
            pool,
            client,
            schemas,
        }
    }

    fn shut_down(self) {
        drop(self.client);
        self.pool.join();
    }
}

/// Stream the document into a fresh graph in chunks, then flush. Returns
/// the graph (`None` unless every chunk loaded and the final triple count
/// matches the document) and the rate in triples per second.
fn load(
    deployment: &Deployment,
    doc: &Document,
    tracer: &Tracer,
    tally: &mut Tally,
) -> (Option<GraphId>, f64) {
    let start = Instant::now();
    let mut graph = None;
    let mut loaded = 0;
    let chunks = doc.text.as_bytes().chunks(CHUNK_BYTES).map(<[u8]>::to_vec);
    for (i, chunk) in chunks.chain(std::iter::once(Vec::new())).enumerate() {
        let request = ServiceRequest::LoadTriples { graph, chunk };
        match tracer.span("service.load_triples", i as u64, None, |_| {
            deployment.client.call_timeout(request, DEADLINE)
        }) {
            Ok(ServiceResponse::Loaded {
                graph: id, triples, ..
            }) => {
                tally.checked(true, String::new);
                graph = Some(id);
                loaded = triples;
            }
            _ => {
                tally.refused();
                return (None, 0.0);
            }
        }
    }
    let rate = doc.triples as f64 / start.elapsed().as_secs_f64();
    let complete = tally.checked(loaded == doc.triples, || {
        format!(
            "Loaded reports {loaded} triples, the document has {}",
            doc.triples
        )
    });
    (graph.filter(|_| complete), rate)
}

/// Ask for both verdicts; returns the round-trip times (ms) and checks each
/// verdict against `planned`.
fn revalidate(
    deployment: &Deployment,
    graph: GraphId,
    planned: bool,
    request: u64,
    tracer: &Tracer,
    tally: &mut Tally,
) -> [f64; 2] {
    deployment.schemas.map(|schema| {
        let start = Instant::now();
        let reply = tracer.span("service.revalidate", request, None, |_| {
            deployment
                .client
                .call_timeout(ServiceRequest::Revalidate { graph, schema }, DEADLINE)
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok(ServiceResponse::Validation { valid, .. }) => {
                let ok = tally.checked(valid == planned, || {
                    format!("Revalidate #{request} said valid={valid}, the edits planned {planned}")
                });
                if ok {
                    ms
                } else {
                    ms.max(DEADLINE.as_secs_f64() * 1e3)
                }
            }
            _ => {
                tally.refused();
                ms.max(DEADLINE.as_secs_f64() * 1e3)
            }
        }
    })
}

/// What the cycles of a run measured.
#[derive(Default)]
struct Cycles {
    /// Ingest rates of the untraced cycles (all cycles when untraced).
    ingest: Vec<f64>,
    /// Revalidation round trips of each untraced cycle.
    revalidate: Vec<Vec<f64>>,
    /// Revalidation round trips of each traced cycle.
    traced: Vec<Vec<f64>>,
    /// Edit batches of the untraced cycles.
    batches: usize,
    /// Edit batches of the traced cycles.
    traced_batches: usize,
    /// Dirty nodes the traced cycles' `Applied` replies reported.
    dirty: u64,
    /// Engine counters before and after each traced cycle.
    engine: Vec<(EngineStats, EngineStats)>,
    /// Set-up time of every cycle: service, registration and the warm-up
    /// revalidation that types the loaded graph from scratch.
    setups: Vec<f64>,
    /// Time the benchmark took to generate each cycle's document; not part
    /// of the set-up time, which measures the program.
    generate: Vec<f64>,
}

/// The cycles of a run (twice as many when traced, odd ones traced), each
/// a fresh deployment that loads its own seeded document and then applies
/// edit batches to it. Spreading the loads over the run averages them over
/// the host's drift instead of sampling one moment of it.
fn cycles(ctx: &Ctx, tracer: &Tracer, report: &mut Report) -> Option<Cycles> {
    let quiet = Tracer::new(false);
    let halves = if tracer.enabled() { 2 } else { 1 };
    let mut out = Cycles::default();
    let count = (ctx.seconds * CYCLES_PER_SECOND).ceil() as usize;
    for cycle in 0..count * halves {
        let traced = tracer.enabled() && cycle % 2 == 1;
        let tracer = if traced { tracer } else { &quiet };
        let generate = Instant::now();
        let (mut world, doc) = World::generate(sub_seed(ctx.seed, cycle as u64));
        out.generate.push(generate.elapsed().as_secs_f64());
        let setup = Instant::now();
        let deployment = Deployment::new(ctx, tracer);
        let mut setup_s = setup.elapsed().as_secs_f64();
        let before = deployment.service.stats().engine;
        let (graph, rate) = load(&deployment, &doc, tracer, &mut report.tally);
        let Some(graph) = graph else {
            deployment.shut_down();
            return None;
        };
        // Warm-up, untraced and counted as set-up: the first revalidation
        // builds each typing from scratch.
        let warm_up = Instant::now();
        revalidate(&deployment, graph, true, 0, &quiet, &mut report.tally);
        setup_s += warm_up.elapsed().as_secs_f64();
        out.setups.push(setup_s);
        let mut samples = Vec::with_capacity(2 * BATCHES_PER_CYCLE);
        for batches in 0..BATCHES_PER_CYCLE {
            let (ops, planned) = world.batch();
            let request = ServiceRequest::ApplyDelta {
                graph,
                delta: Box::new(delta_of(&ops)),
            };
            match tracer.span("service.apply_delta", batches as u64, None, |_| {
                deployment.client.call_timeout(request, DEADLINE)
            }) {
                Ok(ServiceResponse::Applied {
                    report: applied, ..
                }) => {
                    if traced {
                        out.dirty += applied.dirty.len() as u64;
                    }
                    report.tally.checked(applied.missing_removals == 0, || {
                        format!("batch {batches}: a planned removal matched no edge")
                    });
                }
                _ => report.tally.refused(),
            }
            let times = revalidate(
                &deployment,
                graph,
                planned,
                batches as u64 + 1,
                tracer,
                &mut report.tally,
            );
            samples.extend(times);
        }
        if traced {
            out.engine.push((before, deployment.service.stats().engine));
            out.traced.push(samples);
            out.traced_batches += BATCHES_PER_CYCLE;
        } else {
            out.revalidate.push(samples);
            out.ingest.push(rate);
            out.batches += BATCHES_PER_CYCLE;
        }
        deployment.shut_down();
    }
    Some(out)
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let tracer = Tracer::new(ctx.trace);
    let Some(cycles) = cycles(ctx, &tracer, &mut report) else {
        report.invalid = Some("a document did not load".to_owned());
        return report;
    };
    let all = Samples::new(cycles.revalidate.concat());
    let by_window = windows(cycles.revalidate, WINDOW_CYCLES);
    let windowed = |q| windowed_percentile(&by_window, q).expect("windows support p90");
    let p50 = windowed(0.5);
    report.set("setup_s", median(&cycles.setups));
    report.set("latency_ms", p50);
    report
        .info
        .push(("revalidate_p90_ms", Some(windowed(0.9)), "ms"));
    report
        .info
        .push(("revalidate_p99_ms", all.percentile(0.99), "ms"));
    report.set("throughput_per_s", median(&cycles.ingest));
    report
        .info
        .push(("document_generate_s", Some(median(&cycles.generate)), "s"));
    report.note(format!(
        "{} cycles: {} edit batches, {} revalidations, percentiles are medians over {} windows of {WINDOW_CYCLES} cycles; ingest median of {} loads",
        cycles.ingest.len(),
        cycles.batches,
        all.len(),
        by_window.len(),
        cycles.ingest.len()
    ));
    report.aliases = vec![
        ("revalidate_p50_ms", "latency_ms"),
        ("ingest_triples_per_s", "throughput_per_s"),
    ];

    if ctx.trace {
        let traced = windows(cycles.traced, WINDOW_CYCLES);
        let traced_p50 = windowed_percentile(&traced, 0.5).expect("windows support p50");
        report.set("trace.overhead_pct", (traced_p50 / p50 - 1.0) * 100.0);
        report.set("graph.dirty_nodes", cycles.dirty as f64);
        // No containment query is asked: the engine counters must stay put.
        engine_metrics(&mut report, &cycles.engine, 0);
        let rtt = Samples::new(tracer.durations("service.revalidate"));
        report.set("service.rtt_ms.p50", rtt.percentile(0.5).unwrap_or(0.0));
        report.set("service.rtt_ms.p99", rtt.percentile(0.99).unwrap_or(0.0));
        layers(
            &mut report,
            ctx,
            REPLAY_BATCHES.min(cycles.traced_batches),
            &tracer,
        );
    }
    report.set("bench.undecided", report.tally.undecided as f64);
    report.record_peak_rss();
    finish_trace(&mut report, &tracer, ctx);
    report
}

/// Direct calls into the graph and typing layers over the same document and
/// edit stream.
fn layers(report: &mut Report, ctx: &Ctx, batches: usize, tracer: &Tracer) {
    // The document and edits of the first traced cycle.
    let (mut world, doc) = World::generate(sub_seed(ctx.seed, 1));
    let chunks: Vec<&[u8]> = doc.text.as_bytes().chunks(CHUNK_BYTES).collect();

    let mut parser = NTriplesParser::new();
    for (i, chunk) in chunks.iter().enumerate() {
        tracer.span("graph.ntriples_feed", i as u64, None, |_| {
            parser
                .feed(chunk, |_: Triple<'_>| {})
                .expect("the document parses")
        });
    }
    let parse_ms = tracer.total_ms("graph.ntriples_feed");
    report.set(
        "graph.parse_mb_per_s",
        doc.text.len() as f64 / 1e6 / (parse_ms / 1e3),
    );

    // Owned triples per chunk, so that delta building is timed alone.
    let mut parser = NTriplesParser::new();
    let owned: Vec<Vec<(String, String, String)>> = chunks
        .iter()
        .map(|chunk| {
            let mut triples = Vec::new();
            parser
                .feed(chunk, |t: Triple<'_>| {
                    triples.push((
                        t.subject.to_owned(),
                        t.predicate.to_owned(),
                        t.object.to_owned(),
                    ))
                })
                .expect("the document parses");
            triples
        })
        .collect();
    let mut graph = Graph::new();
    for (i, triples) in owned.iter().enumerate() {
        let delta = tracer.span("graph.delta_add_triple", i as u64, None, |_| {
            let mut delta = GraphDelta::new();
            for (s, p, o) in triples {
                delta.add_triple(s, p, o);
            }
            delta
        });
        tracer.span("graph.apply_delta", i as u64, None, |_| {
            graph.apply_delta(&delta)
        });
    }
    let total = |name: &str| tracer.total_ms(name);
    report.set(
        "graph.delta_build_ms.total",
        total("graph.delta_add_triple"),
    );
    let load_apply_ms = total("graph.apply_delta");

    let schemas = [
        figures::bug_tracker_schema(),
        figures::bug_tracker_split_schema(),
    ];
    let full: Vec<f64> = (0..3)
        .map(|i| {
            tracer.span("typing.maximal_typing", i, None, |_| {
                maximal_typing(&graph, &schemas[0]).is_total()
            });
            *tracer
                .durations("typing.maximal_typing")
                .last()
                .expect("just recorded")
        })
        .collect();
    report.set("typing.full_ms", median(&full));

    let mut typings = schemas
        .each_ref()
        .map(|s| IncrementalTyping::new(&graph, s));
    let mut affected = Vec::new();
    for b in 0..batches {
        let (ops, planned) = world.batch();
        let delta = delta_of(&ops);
        let dirty = tracer
            .span("graph.apply_delta", b as u64, None, |_| {
                graph.apply_delta(&delta)
            })
            .dirty;
        for (typing, schema) in typings.iter_mut().zip(&schemas) {
            let n = tracer.span("typing.incremental_apply", b as u64, None, |_| {
                typing.apply(&graph, schema, &dirty)
            });
            affected.push(n as f64 / graph.node_count() as f64);
            report.tally.checked(typing.is_total() == planned, || {
                format!("incremental typing disagrees with the planned validity at batch {b}")
            });
        }
    }
    let incremental = Samples::new(tracer.durations("typing.incremental_apply"));
    report.set(
        "typing.incremental_ms.p50",
        incremental.percentile(0.5).unwrap_or(0.0),
    );
    report.set(
        "typing.incremental_ms.p99",
        incremental.percentile(0.99).unwrap_or(0.0),
    );
    report.set(
        "typing.affected_ratio",
        affected.iter().sum::<f64>() / affected.len().max(1) as f64,
    );
    report.set("graph.apply_delta_ms.total", total("graph.apply_delta"));
    // One cycle of the workload loads one document and applies
    // BATCHES_PER_CYCLE batches, revalidating each against both schemas.
    let per_cycle = BATCHES_PER_CYCLE as f64 / batches.max(1) as f64;
    let graph_ms = parse_ms
        + total("graph.delta_add_triple")
        + load_apply_ms
        + (total("graph.apply_delta") - load_apply_ms) * per_cycle;
    report.note(format!(
        "per cycle: graph layers {graph_ms:.1} ms (parse {parse_ms:.1}, delta build {:.1}, apply {:.1}) vs incremental typing {:.1} ms; a full typing takes {:.1} ms",
        total("graph.delta_add_triple"),
        graph_ms - parse_ms - total("graph.delta_add_triple"),
        incremental.total() * per_cycle,
        median(&full)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> (Document, Vec<(Vec<Op>, bool)>) {
        let (mut world, doc) = World::generate(seed);
        let batches = (0..200).map(|_| world.batch()).collect();
        (doc, batches)
    }

    #[test]
    fn the_seed_fixes_the_document_and_the_edits() {
        assert_eq!(plan(11), plan(11));
        let (doc_a, edits_a) = plan(11);
        let (doc_b, edits_b) = plan(12);
        assert_ne!(doc_a, doc_b);
        assert_ne!(edits_a, edits_b);
    }

    #[test]
    fn planned_validity_matches_a_from_scratch_typing() {
        let (mut world, doc) = World::generate(3);
        let mut graph = Graph::new();
        let mut parser = NTriplesParser::new();
        let mut delta = GraphDelta::new();
        let n = parser
            .feed(doc.text.as_bytes(), |t: Triple<'_>| {
                delta.add_triple(t.subject, t.predicate, t.object)
            })
            .unwrap();
        assert_eq!(n, doc.triples);
        graph.apply_delta(&delta);
        let schemas = [
            figures::bug_tracker_schema(),
            figures::bug_tracker_split_schema(),
        ];
        assert!(schemas.iter().all(|s| maximal_typing(&graph, s).is_total()));
        let mut saw_invalid = false;
        for _ in 0..25 {
            let (ops, planned) = world.batch();
            let report = graph.apply_delta(&delta_of(&ops));
            assert_eq!(report.missing_removals, 0);
            saw_invalid |= !planned;
            for s in &schemas {
                assert_eq!(maximal_typing(&graph, s).is_total(), planned);
            }
        }
        assert!(saw_invalid, "the edit stream breaks the graph sometimes");
    }
}
