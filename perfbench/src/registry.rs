//! `registry_hot`: open-loop schema-registry `Check` traffic.
//!
//! Several tenants register the same schemas. Three in four requests hit
//! the Figure 1 bug tracker against its split, in both directions, one of
//! which exhausts a search budget large enough that its warm re-check costs
//! milliseconds; the rest walk two restriction pairs and the seeded
//! corpus's evolution pairs. The layout is that of the repository's closed-
//! loop throughput harness (`shapex_bench::throughput`). Every request goes
//! through `PoolClient::call_timeout` with a fixed deadline on a fixed
//! arrival schedule, at a fixed fraction of the mix's measured saturation
//! rate. This is where the service queue, the engine's single-flight and
//! pair memos and the warm unfolding re-walk do the work; the solver and the
//! graph ingest sit idle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::prelude::*;
use rand::rngs::StdRng;
use shapex::prelude::*;
use shapex_core::unfold::SearchOptions;
use shapex_gadgets::corpus::{Corpus, CorpusOptions};
use shapex_gadgets::generate::restrict_schema;

use crate::open_loop::{self, Slot, Timing};
use crate::oracle::{settle, Expect, Judgement, Oracle, Tally};
use crate::report::{engine_metrics, finish_trace, Report};
use crate::stats::{median, windowed_percentile, windows, Samples};
use crate::trace::Tracer;
use crate::Ctx;

/// Offered load of the open-loop phase, requests per second.
pub const RATE_PER_S: f64 = 92.0;
/// The `call_timeout` deadline of every measured request.
pub const DEADLINE: Duration = Duration::from_millis(1000);
/// Deadline of the warm-up checks, which run cold searches.
const WARMUP_DEADLINE: Duration = Duration::from_secs(60);
/// Consecutive hot requests on one direction of the Figure 1 pair before
/// the plan switches to the other.
const HOT_BLOCK: usize = 8;
/// The pair every warm check of which re-walks the search: the Figure 1 bug
/// tracker against its split, which exhausts the budget.
const REWALK: usize = 0;
/// Tenants that each register every schema.
const TENANTS: usize = 3;
/// Fresh deployments per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Open-loop blocks per run, each on a fresh pool.
const BLOCKS: usize = 6;
/// Saturation bursts after each block. Within one run, single bursts of
/// about a second read from 544 to 818 replies/s on a 2-core host, so the
/// rate is the median of many short bursts.
const BURSTS_PER_BLOCK: usize = 3;
/// Requests per open-loop phase at least: each block's p90 has ten samples
/// beyond it, and the run's p99 too.
const MIN_REQUESTS: usize = 1002;
/// Requests per half of the traced run, so that its p99s have ten samples
/// beyond them.
const TRACED_REQUESTS: usize = 1000;
/// A run whose send lateness drifts up by more than this within a block is
/// invalid: a backlog that builds. Scheduler stalls on a shared host move
/// lateness by tens of milliseconds and recover; a service or generator
/// that cannot keep up grows it without bound.
const LATENESS_GROWTH_LIMIT_MS: f64 = 250.0;
/// Per-worker queue capacity of the pool.
const QUEUE_CAPACITY: usize = 32;

/// The seeded inputs: schemas, pairs and the request plan. The program sees
/// only these.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Every schema, registered by every tenant.
    pub schemas: Vec<Schema>,
    /// `(h, k)`. The first [`Plan::hot`] pairs are the hot set: the Figure 1
    /// pair, both directions.
    pub pairs: Vec<(usize, usize)>,
    /// Size of the hot set.
    pub hot: usize,
    /// `(pair, tenant)` per request, in schedule order.
    pub requests: Vec<(usize, usize)>,
    /// Background pairs left out because the baseline leaves them open.
    pub left_out: usize,
}

/// The search budget of the registry's engine, spelled out so that a change
/// to the library's presets does not change what the benchmark asks for:
/// the hot anchor pair exhausts it, and its warm re-check re-walks the
/// candidates in milliseconds.
fn search_options() -> SearchOptions {
    SearchOptions {
        max_depth: 4,
        max_bags: 24,
        max_trees: 48,
        max_graph_nodes: 600,
        max_candidates: 80_000,
        random_samples: 8_000,
        seed: 0xC0FFEE,
    }
}

fn engine_options() -> EngineOptions {
    EngineOptions::default().with_search(search_options())
}

/// Build the plan for `seed` with `count` requests, and the oracle that
/// settled its pairs.
pub fn plan(seed: u64, count: usize) -> (Plan, Oracle) {
    let mut rng = StdRng::seed_from_u64(seed);
    // The corpus alternates deterministic and non-deterministic families;
    // the registry keeps the deterministic ones.
    let corpus = Corpus::generate(&CorpusOptions {
        families: 4,
        revisions: 4,
        seed: rng.next_u64(),
        ..CorpusOptions::default()
    });
    let chains: Vec<&Vec<Schema>> = corpus.families().iter().step_by(2).collect();
    let mut schemas = vec![
        figures::bug_tracker_schema(),
        figures::bug_tracker_split_schema(),
    ];
    let mut evolution = Vec::new();
    for chain in chains {
        let base = schemas.len();
        schemas.extend(chain.iter().cloned());
        for i in 0..chain.len() - 1 {
            evolution.push((base + i, base + i + 1));
            evolution.push((base + i + 1, base + i));
        }
        evolution.push((base, base + chain.len() - 1));
        evolution.push((base + chain.len() - 1, base));
    }
    let corpus_len = schemas.len();
    // The Figure 1 pair: the split schema has the original's language, so
    // both directions are contained; the search cannot prove the first.
    let mut candidates = vec![
        (0, 1, Some(Expect::Contained)),
        (1, 0, Some(Expect::Contained)),
    ];
    // Two restrictions of seeded corpus schemas: contained by construction.
    for _ in 0..2 {
        let k = rng.gen_range(2..corpus_len);
        let restricted = restrict_schema(&mut rng, &schemas[k]);
        schemas.push(restricted);
        candidates.push((schemas.len() - 1, k, Some(Expect::Contained)));
    }
    candidates.extend(evolution.into_iter().map(|(h, k)| (h, k, None)));
    // The background keeps the pairs the baseline decides. Each pair it
    // leaves open is one more budget-exhausting re-walk (0.5-1.6 s cold, up
    // to 18 ms warm), and how many of the background pairs are open depends
    // on the seed (none to six of eighteen), so with them the seed, not the
    // program, would set the load. The hot set carries the re-walk.
    let hot = 2;
    let search = search_options();
    let (mut pairs, mut expect, mut decidable) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &(h, k, known)) in candidates.iter().enumerate() {
        let (e, d) = settle(&schemas[h], &schemas[k], known, &search);
        if i < hot || d {
            pairs.push((h, k));
            expect.push(e);
            decidable.push(d);
        }
    }
    let left_out = candidates.len() - pairs.len();
    // The layout of `shapex_bench::throughput`'s plan: three in four
    // requests hit the Figure 1 pair, in blocks of HOT_BLOCK per direction
    // so that requests in flight together ask the same question; every
    // fourth request is background traffic, a seeded restriction or
    // evolution pair.
    let requests = (0..count)
        .map(|i| {
            let pair = if i % 4 != 3 {
                (i / HOT_BLOCK) % hot
            } else {
                rng.gen_range(hot..pairs.len())
            };
            (pair, rng.gen_range(0..TENANTS))
        })
        .collect();
    let plan = Plan {
        schemas,
        pairs,
        hot,
        requests,
        left_out,
    };
    (plan, Oracle::new(expect, decidable))
}

/// One deployed service with warm caches: the tenants and the handles.
struct Deployment {
    service: ContainmentService,
    tenants: Vec<TenantId>,
    ids: Vec<SchemaId>,
}

/// Traffic against a deployment: a pool with one client per tenant, plus
/// the plan and oracle to send and judge by. Each block of the run gets a
/// fresh pool, so thread placement on the cores is drawn anew several times
/// per run instead of once.
struct Traffic<'a> {
    plan: &'a Plan,
    oracle: &'a Oracle,
    deployment: &'a Deployment,
    pool: ServicePool,
    clients: Vec<PoolClient>,
}

type Reply = Result<ServiceResponse, ServiceError>;

impl<'a> Traffic<'a> {
    fn new(plan: &'a Plan, oracle: &'a Oracle, deployment: &'a Deployment, ctx: &Ctx) -> Self {
        let pool = deployment.service.pool(ctx.cores, QUEUE_CAPACITY);
        let clients = deployment.tenants.iter().map(|&t| pool.client(t)).collect();
        Traffic {
            plan,
            oracle,
            deployment,
            pool,
            clients,
        }
    }

    fn shut_down(self) {
        drop(self.clients);
        self.pool.join();
    }

    /// Send request `index` of the plan.
    fn send(&self, index: usize) -> Reply {
        let (pair, tenant) = self.plan.requests[index];
        let (h, k) = self.plan.pairs[pair];
        let request = ServiceRequest::Check {
            h: self.deployment.ids[h],
            k: self.deployment.ids[k],
        };
        self.clients[tenant].call_timeout(request, DEADLINE)
    }

    /// Judge the reply to request `index` of the plan.
    fn judge(&self, index: usize, reply: &Reply) -> Judgement {
        judge_reply(self.plan, self.oracle, self.plan.requests[index].0, reply)
    }

    /// One open-loop block over the `len` requests of the plan from
    /// `offset` on.
    fn open_loop_block(
        &self,
        (offset, len): (usize, usize),
        ctx: &Ctx,
        tracer: &Tracer,
        out: &mut OpenLoop,
        tally: &mut Tally,
    ) {
        let schedule = open_loop::uniform_schedule(RATE_PER_S, len);
        let replies = open_loop::run(&schedule, ctx.cores, |slot: Slot| {
            let index = offset + slot.index;
            let root = tracer.reserve();
            let reply = tracer.span("service.call_timeout", index as u64, root, |_| {
                self.send(index)
            });
            let bounds = (slot.due, Instant::now());
            tracer.record(root, "bench.request", index as u64, None, bounds);
            reply
        });
        let deadline_ms = DEADLINE.as_secs_f64() * 1e3;
        let timings: Vec<Timing> = replies.iter().map(|(t, _)| *t).collect();
        let (mut latency, mut rewalk) = (Vec::with_capacity(len), Vec::new());
        for (i, (timing, reply)) in replies.iter().enumerate() {
            let ok = tally.count(&self.judge(offset + i, reply));
            let ms = timing.latency_ms();
            let ms = if ok { ms } else { ms.max(deadline_ms) };
            latency.push(ms);
            if self.plan.requests[offset + i].0 == REWALK {
                rewalk.push(ms);
            }
            out.lateness.push(timing.lateness_ms());
        }
        out.latency.push(latency);
        out.rewalk.push(rewalk);
        out.growth = out.growth.max(open_loop::lateness_growth_ms(&timings));
    }

    /// Closed loop with one request in flight per core, for `seconds`.
    /// While the clock runs the threads only send and collect; the replies
    /// are judged after it stops, so the oracle takes no core from the pool.
    /// Returns the successful replies and the time taken.
    fn saturation_block(&self, ctx: &Ctx, seconds: f64, tally: &mut Tally) -> (u64, f64) {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let stop = start + Duration::from_secs_f64(seconds);
        let replies: Vec<(usize, Reply)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..ctx.cores)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        while Instant::now() < stop {
                            let index =
                                next.fetch_add(1, Ordering::Relaxed) % self.plan.requests.len();
                            mine.push((index, self.send(index)));
                        }
                        mine
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("saturation thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let ok = replies
            .iter()
            .filter(|(index, reply)| tally.count(&self.judge(*index, reply)))
            .count();
        (ok as u64, elapsed)
    }
}

/// Judge a `Check` reply to pair `pair`.
fn judge_reply(plan: &Plan, oracle: &Oracle, pair: usize, reply: &Reply) -> Judgement {
    let (h, k) = plan.pairs[pair];
    match reply {
        Ok(ServiceResponse::Answer(answer)) => {
            oracle.judge(pair, answer, &plan.schemas[h], &plan.schemas[k])
        }
        Ok(other) => Judgement::Wrong(format!("Check answered with {other:?}")),
        Err(_) => Judgement::Expired,
    }
}

/// Register everything for every tenant and warm every pair once.
fn deploy(plan: &Plan, oracle: &Oracle, tracer: &Tracer, tally: &mut Tally) -> Deployment {
    let service = ContainmentService::with_options(engine_options());
    let tenants: Vec<TenantId> = std::iter::once(TenantId::DEFAULT)
        .chain((1..TENANTS).map(|_| service.create_tenant()))
        .collect();
    let mut ids = Vec::new();
    for &tenant in &tenants {
        let registered: Vec<SchemaId> = plan
            .schemas
            .iter()
            .enumerate()
            .map(|(i, schema)| {
                let request = ServiceRequest::Register(Box::new(schema.clone()));
                match tracer.span("shex.register", i as u64, None, |_| {
                    service.handle(tenant, request)
                }) {
                    Ok(ServiceResponse::Registered(id)) => id,
                    other => panic!("registration failed: {other:?}"),
                }
            })
            .collect();
        if ids.is_empty() {
            ids = registered;
        } else {
            assert_eq!(ids, registered, "tenants share one engine entry per schema");
        }
    }
    // Warm every pair once on this thread: the cold searches allocate their
    // pools in one place, so the peak memory does not depend on which pool
    // worker happened to run which cold search.
    for (pair, &(h, k)) in plan.pairs.iter().enumerate() {
        let request = ServiceRequest::Check {
            h: ids[h],
            k: ids[k],
        };
        let reply = service.handle_with_deadline(
            tenants[0],
            request,
            Some(Instant::now() + WARMUP_DEADLINE),
        );
        tally.count(&judge_reply(plan, oracle, pair, &reply));
    }
    Deployment {
        service,
        tenants,
        ids,
    }
}

/// What the open-loop blocks of a run measured.
#[derive(Default)]
struct OpenLoop {
    /// From-due latency per request, one list per block; a failed request
    /// counts as taking the whole deadline.
    latency: Vec<Vec<f64>>,
    /// The same, for the requests on the [`REWALK`] pair only.
    rewalk: Vec<Vec<f64>>,
    /// Send lateness per request.
    lateness: Vec<f64>,
    /// The largest lateness growth of any block.
    growth: f64,
}

/// Percentile or a loud failure: the phase sizes guarantee the samples.
fn pct(samples: &Samples, q: f64, what: &str) -> f64 {
    samples.percentile(q).unwrap_or_else(|| {
        panic!(
            "{what}: {} samples cannot support p{}",
            samples.len(),
            q * 100.0
        )
    })
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let tracer = Tracer::new(ctx.trace);
    // The traced run alternates untraced and traced blocks; each half needs
    // enough requests for the per-layer p99s.
    let count = if ctx.trace {
        2 * TRACED_REQUESTS.next_multiple_of(BLOCKS)
    } else {
        ((RATE_PER_S * ctx.seconds * 0.8) as usize)
            .max(MIN_REQUESTS)
            .next_multiple_of(BLOCKS)
    };
    // The oracle settles every candidate pair against the baseline, once.
    let oracle_start = Instant::now();
    let (plan, oracle) = plan(ctx.seed, count);
    report.note(format!(
        "oracle: {} pairs ({} hot) settled against the baseline in {:.3} s: {} decidable (the engine must decide them); {} open background pairs left out",
        plan.pairs.len(),
        plan.hot,
        oracle_start.elapsed().as_secs_f64(),
        oracle.decidable(),
        plan.left_out,
    ));

    let quiet = Tracer::new(false);
    let mut setups = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUP_REPS {
        drop(deployment.take());
        let start = Instant::now();
        deployment = Some(deploy(&plan, &oracle, &tracer, &mut report.tally));
        setups.push(start.elapsed().as_secs_f64());
    }
    let deployment = deployment.expect("at least one set-up");
    report.set("setup_s", median(&setups));

    // Blocks: the plan is cut into BLOCKS slices, each run open loop on a
    // fresh pool, followed by a saturation burst. In the traced run, the
    // blocks alternate untraced and traced, so both halves see the same
    // host drift.
    let block_len = count / BLOCKS;
    let saturation_secs = ctx.seconds * 0.3 / (BLOCKS * BURSTS_PER_BLOCK) as f64;
    let (mut untraced, mut traced) = (OpenLoop::default(), OpenLoop::default());
    let mut saturation = Vec::new();
    let mut stats = Vec::new();
    for block in 0..BLOCKS {
        let trace_block = ctx.trace && block % 2 == 1;
        let (block_tracer, out) = if trace_block {
            (&tracer, &mut traced)
        } else {
            (&quiet, &mut untraced)
        };
        let traffic = Traffic::new(&plan, &oracle, &deployment, ctx);
        let before = deployment.service.stats();
        traffic.open_loop_block(
            (block * block_len, block_len),
            ctx,
            block_tracer,
            out,
            &mut report.tally,
        );
        if trace_block {
            stats.push((before, deployment.service.stats(), block_len as u64));
        }
        if !ctx.trace {
            for _ in 0..BURSTS_PER_BLOCK {
                let (done, secs) =
                    traffic.saturation_block(ctx, saturation_secs, &mut report.tally);
                saturation.push(done as f64 / secs);
            }
        }
        traffic.shut_down();
    }
    let growth = untraced.growth.max(traced.growth);
    if growth > LATENESS_GROWTH_LIMIT_MS {
        report.invalid = Some(format!(
            "send lateness grew by {growth:.1} ms within a block (limit {LATENESS_GROWTH_LIMIT_MS} ms)"
        ));
    }
    let latency = Samples::new(untraced.latency.concat());
    let blocks = windows(untraced.latency, 1);
    let lateness = Samples::new(untraced.lateness);
    report.note(format!(
        "open loop: {} requests at {RATE_PER_S}/s in {} blocks, deadline {} ms, {} generator threads; send lateness p90 {:.3} ms, largest growth {:.3} ms",
        latency.len(),
        blocks.len(),
        DEADLINE.as_millis(),
        ctx.cores,
        pct(&lateness, 0.9, "lateness"),
        untraced.growth
    ));

    if !ctx.trace {
        let windowed = |q| windowed_percentile(&blocks, q).expect("blocks support p90");
        let rewalk = windows(untraced.rewalk, 1);
        report.set(
            "latency_ms",
            windowed_percentile(&rewalk, 0.5).expect("blocks support p50"),
        );
        report
            .info
            .push(("check_p50_ms", Some(windowed(0.5)), "ms"));
        report
            .info
            .push(("check_p90_ms", Some(windowed(0.9)), "ms"));
        report
            .info
            .push(("check_p99_ms", latency.percentile(0.99), "ms"));
        let saturation = median(&saturation);
        report.set("throughput_per_s", saturation);
        report.note(format!(
            "latency from due time: median over {} blocks of each block's percentile, {} samples in all; saturation: {} in flight, median of {} bursts; the offered {RATE_PER_S}/s is {:.2} of it",
            blocks.len(),
            latency.len(),
            ctx.cores,
            BLOCKS * BURSTS_PER_BLOCK,
            RATE_PER_S / saturation
        ));
        report.aliases = vec![
            ("check_rewalk_p50_ms", "latency_ms"),
            ("check_max_rate_per_s", "throughput_per_s"),
        ];
    } else {
        layer_metrics(&mut report, &stats);
        let p50 = |w: Vec<Vec<f64>>| {
            windowed_percentile(&windows(w, 1), 0.5).expect("blocks support p50")
        };
        report.set(
            "trace.overhead_pct",
            (p50(traced.rewalk) / p50(untraced.rewalk) - 1.0) * 100.0,
        );
        report.set(
            "bench.send_lateness_p90_ms",
            pct(&Samples::new(traced.lateness), 0.9, "lateness"),
        );
        let rtt = Samples::new(tracer.durations("service.call_timeout"));
        report.set("service.rtt_ms.p50", pct(&rtt, 0.5, "rtt"));
        report.set("service.rtt_ms.p99", pct(&rtt, 0.99, "rtt"));
        replay(&mut report, &plan, &oracle, &deployment, &tracer);
        report.note(
            "queue wait is not split from service time: envelopes carry no enqueue instant yet",
        );
    }
    report.set("bench.undecided", report.tally.undecided as f64);
    report.record_peak_rss();
    finish_trace(&mut report, &tracer, ctx);
    report
}

/// Service and engine counters summed over the traced blocks:
/// `(before, after, checks)` per block.
fn layer_metrics(report: &mut Report, blocks: &[(ServiceStats, ServiceStats, u64)]) {
    let sum = |f: fn(&ServiceStats) -> u64| -> f64 {
        blocks.iter().map(|(b, a, _)| f(a) - f(b)).sum::<u64>() as f64
    };
    report.set("service.retries", sum(|s| s.retries));
    report.set("service.rejected", sum(|s| s.rejected));
    report.set("service.deadline_refused", sum(|s| s.timeouts.count()));
    let engine: Vec<(EngineStats, EngineStats)> = blocks
        .iter()
        .map(|(b, a, _)| (b.engine, a.engine))
        .collect();
    engine_metrics(report, &engine, blocks.iter().map(|(_, _, n)| n).sum());
}

/// Replay the plan sequentially one layer down: through
/// `ContainmentService::handle_with_deadline` (the worker's own call) and
/// through `ContainmentEngine::check_ids_deadline`.
fn replay(
    report: &mut Report,
    plan: &Plan,
    oracle: &Oracle,
    deployment: &Deployment,
    tracer: &Tracer,
) {
    let replayed = &plan.requests[..TRACED_REQUESTS];
    for (i, &(pair, tenant)) in replayed.iter().enumerate() {
        let (h, k) = plan.pairs[pair];
        let request = ServiceRequest::Check {
            h: deployment.ids[h],
            k: deployment.ids[k],
        };
        let reply = tracer.span("service.handle_with_deadline", i as u64, None, |_| {
            deployment.service.handle_with_deadline(
                deployment.tenants[tenant],
                request,
                Some(Instant::now() + DEADLINE),
            )
        });
        report.tally.count(&judge_reply(plan, oracle, pair, &reply));
        let engine = deployment.service.engine();
        let answer = tracer.span("engine.check_ids_deadline", i as u64, None, |_| {
            engine.check_ids_deadline(deployment.ids[h], deployment.ids[k], DEADLINE)
        });
        report
            .tally
            .count(&oracle.judge(pair, &answer, &plan.schemas[h], &plan.schemas[k]));
    }
    let handle = Samples::new(tracer.durations("service.handle_with_deadline"));
    report.set("service.handle_ms.p50", pct(&handle, 0.5, "handle"));
    let check = Samples::new(tracer.durations("engine.check_ids_deadline"));
    report.set("engine.check_ms.p50", pct(&check, 0.5, "engine check"));
    report.set("engine.check_ms.p99", pct(&check, 0.99, "engine check"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render((plan, _): &(Plan, Oracle)) -> String {
        let schemas: Vec<String> = plan.schemas.iter().map(ToString::to_string).collect();
        format!("{schemas:?}{:?}{:?}", plan.pairs, plan.requests)
    }

    #[test]
    fn the_seed_fixes_the_corpus_and_the_request_plan() {
        assert_eq!(render(&plan(7, 200)), render(&plan(7, 200)));
        assert_ne!(render(&plan(7, 200)), render(&plan(8, 200)));
    }

    #[test]
    fn three_in_four_requests_hit_the_hot_set() {
        let (plan, oracle) = plan(1, 4000);
        assert_eq!((plan.hot, plan.requests.len()), (2, 4000));
        // Every background pair is one the engine must decide.
        assert_eq!(oracle.decidable(), plan.pairs.len() - 1);
        let hot = plan.requests.iter().filter(|(p, _)| *p < plan.hot).count();
        assert_eq!(hot * 4, plan.requests.len() * 3);
        // Split evenly over both directions, in blocks.
        let forward = plan.requests.iter().filter(|(p, _)| *p == 0).count();
        assert_eq!(forward * 2, hot);
        assert!(plan.requests[..HOT_BLOCK]
            .iter()
            .enumerate()
            .all(|(i, &(p, _))| p == 0 || i % 4 == 3));
        assert!(plan.requests.iter().all(|&(_, t)| t < TENANTS));
    }

    /// `BENCHMARK.json` states the arrival rate and deadline this module uses.
    #[test]
    fn benchmark_json_states_the_rate_and_deadline() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entry = text
            .split("\"registry_hot\"")
            .nth(1)
            .expect("registry_hot listed");
        let why = &entry[..entry.find('}').expect("entry closes")];
        assert!(why.contains(&format!("{RATE_PER_S} Check/s")), "{why}");
        assert!(
            why.contains(&format!(
                "{} ms call_timeout deadline",
                DEADLINE.as_millis()
            )),
            "{why}"
        );
    }
}
