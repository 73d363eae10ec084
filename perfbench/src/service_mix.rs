//! `service-mix`: one closed-loop client against an in-process daemon
//! over loopback, sending a seeded stream of warm plans (reformatted twins
//! of the working set), warm executes and cold plans (unseen variants).

use std::time::Instant;

use pspdg_frontend::compile;
use pspdg_nas::{runtime_suite, Class};
use pspdg_obs::json::Value;
use pspdg_obs::Recorder;
use pspdg_parallelizer::Abstraction;
use pspdg_runtime::RunStats;
use pspdg_service::{key_hex, Client, PlanService, PlanStore, ServiceConfig, Session};

use crate::layers::{insts, traced_pipeline, FrontCounts, SpanTotals, FRONTEND};
use crate::stats::{Rng, Samples};
use crate::{Ctx, Outcome};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Req {
    Warm,
    Execute,
    Cold,
}

/// One cycle of the stream: the stated stand-in for production traffic
/// (8 warm plans : 3 warm executes : 1 cold plan), shuffled per cycle.
const CYCLE: [Req; 12] = [
    Req::Warm,
    Req::Warm,
    Req::Warm,
    Req::Warm,
    Req::Warm,
    Req::Warm,
    Req::Warm,
    Req::Warm,
    Req::Execute,
    Req::Execute,
    Req::Execute,
    Req::Cold,
];
/// Reformatted twins per working-set kernel.
const TWINS: usize = 4;
/// Unseen variants per working-set kernel; the pool is cycled in a fixed
/// order, so every cold request misses a store that holds fewer.
const VARIANTS: usize = 8;
/// Store budget beyond the working set, in largest-entry units.
const SLACK_ENTRIES: usize = 3;

/// What a plan response must say for one kernel.
#[derive(Clone, PartialEq, Debug)]
struct PlanSummary {
    loops: f64,
    techniques: String,
}

impl PlanSummary {
    fn of_response(v: &Value) -> Option<PlanSummary> {
        let loops = v.get("loops")?.as_f64()?;
        let techniques = v
            .get("techniques")?
            .as_array()?
            .iter()
            .filter_map(|t| t.as_str())
            .collect::<Vec<_>>()
            .join(",");
        Some(PlanSummary { loops, techniques })
    }

    fn of_session(s: &Session) -> PlanSummary {
        let bundle = s.plan(Abstraction::PsPdg);
        let mut t: Vec<&str> = bundle
            .plan
            .loops
            .values()
            .map(|l| l.technique.name())
            .collect();
        t.sort_unstable();
        PlanSummary {
            loops: bundle.plan.loops.len() as f64,
            techniques: t.join(","),
        }
    }
}

struct Inputs {
    twins: Vec<Vec<String>>,
    variants: Vec<(usize, String)>,
    /// Kernel order the round-robin follows.
    order: Vec<usize>,
    digest: u64,
}

/// Same parsed program, different text: seeded indentation per line.
fn reformat(source: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(source.len() * 2);
    for line in source.lines() {
        out.push_str(&" ".repeat(rng.below(4)));
        out.push_str(line);
        out.push_str(if rng.below(2) == 0 { "\n" } else { " \n" });
    }
    out
}

fn inputs(seed: u64, sources: &[String]) -> Inputs {
    let mut rng = Rng::new(seed);
    let twins: Vec<Vec<String>> = sources
        .iter()
        .map(|s| (0..TWINS).map(|_| reformat(s, &mut rng)).collect())
        .collect();
    let mut order: Vec<usize> = (0..sources.len()).collect();
    rng.shuffle(&mut order);
    let tag = rng.next_u64();
    let mut variants = Vec::new();
    for v in 0..VARIANTS {
        for &k in &order {
            variants.push((k, format!("{}\nint variant_{tag:016x}_{v};\n", sources[k])));
        }
    }
    let mut digest = tag;
    for t in twins.iter().flatten() {
        digest = t.bytes().fold(digest, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
    }
    Inputs {
        twins,
        variants,
        order,
        digest,
    }
}

struct Daemon {
    client: Client,
    service: PlanService,
    /// In-process store holding the same working set, for the traced
    /// copies of each request.
    local: PlanStore,
    keys: Vec<String>,
    summaries: Vec<PlanSummary>,
}

fn start(ctx: &Ctx, sources: &[String]) -> Daemon {
    let local = PlanStore::new();
    let mut keys = Vec::new();
    let mut summaries = Vec::new();
    let mut total = 0usize;
    let mut largest = 0usize;
    for src in sources {
        let s = local.get_source(src).expect("working-set kernel compiles");
        summaries.push(PlanSummary::of_session(&s));
        keys.push(key_hex(s.key()));
        total += s.approx_bytes();
        largest = largest.max(s.approx_bytes());
    }
    let service = PlanService::start(ServiceConfig {
        handlers: ctx.nproc,
        exec_workers: ctx.nproc,
        budget_bytes: total + SLACK_ENTRIES * largest,
        ..ServiceConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(service.addr()).expect("connect to the daemon");
    for (k, src) in sources.iter().enumerate() {
        let plan = client.plan(src, Abstraction::PsPdg).expect("warm-up plan");
        assert_eq!(
            PlanSummary::of_response(&plan).as_ref(),
            Some(&summaries[k])
        );
        let exec = client
            .execute(src, Abstraction::PsPdg, Some(ctx.nproc))
            .expect("warm-up execute");
        assert!(matches!(
            exec.get("matches_baseline"),
            Some(Value::Bool(true))
        ));
    }
    Daemon {
        client,
        service,
        local,
        keys,
        summaries,
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sources: Vec<String> = runtime_suite(Class::Test)
        .into_iter()
        .map(|b| b.source)
        .collect();
    let mut out = Outcome {
        labels: [
            "warm plan (reformatted twin, cache hit)",
            "execute_ms: warm execute (fresh runtime, nproc workers)",
            "cold_ms: cold plan (unseen variant, build + eviction)",
        ],
        ..Outcome::default()
    };
    let setup = || (inputs(ctx.seed, &sources), start(ctx, &sources));
    let (inp, mut d) = ctx.setup(&mut out.setup, setup);
    out.digest = inp.digest;
    let rec = Recorder::new();
    let mut rng = Rng::new(!ctx.seed);

    let mut warm_traced = Samples::default();
    let mut warm_plain = Samples::default();
    let mut transport = Samples::default();
    let mut unattributed = Samples::default();
    let mut fresh = Samples::default();
    let mut warm_spans = SpanTotals::default();
    let mut cold_spans = SpanTotals::default();
    let mut warm_insts = 0u64;
    let mut cold_counts = FrontCounts::default();
    let mut exec_stats: Vec<RunStats> = Vec::new();
    let mut n = [0usize; 3];
    let mut traced = [0usize; 3];

    let loop_start = Instant::now();
    let mut cycle = 0usize;
    while ctx.more(loop_start, cycle) {
        ctx.resetup(&mut out.setup, loop_start, setup);
        let tracing = ctx.trace && cycle % 2 == 1;
        let mut slots = CYCLE;
        rng.shuffle(&mut slots);
        for req in slots {
            let i = n[req as usize];
            n[req as usize] += 1;
            let k = inp.order[i % inp.order.len()];
            let twin = &inp.twins[k][(i / inp.order.len()) % TWINS];
            let t = Instant::now();
            let (ok, ms) = match req {
                Req::Warm => {
                    let r = d.client.plan(twin, Abstraction::PsPdg);
                    let ms = ms_since(t);
                    let ok = r.is_ok_and(|v| {
                        v.get("key").and_then(Value::as_str) == Some(d.keys[k].as_str())
                            && PlanSummary::of_response(&v).as_ref() == Some(&d.summaries[k])
                    });
                    out.op.push(ms);
                    (ok, ms)
                }
                Req::Execute => {
                    let r = d.client.execute(twin, Abstraction::PsPdg, Some(ctx.nproc));
                    let ms = ms_since(t);
                    out.op2.push(ms);
                    let ok = r.is_ok_and(|v| {
                        matches!(v.get("matches_baseline"), Some(Value::Bool(true)))
                    });
                    (ok, ms)
                }
                Req::Cold => {
                    let (vk, src) = &inp.variants[i % inp.variants.len()];
                    let r = d.client.plan(src, Abstraction::PsPdg);
                    let ms = ms_since(t);
                    out.op3.push(ms);
                    let ok = r.is_ok_and(|v| {
                        PlanSummary::of_response(&v).as_ref() == Some(&d.summaries[*vk])
                    });
                    (ok, ms)
                }
            };
            out.attempted += 1;
            out.failed += u64::from(!ok);
            if req == Req::Warm && !tracing {
                warm_plain.push(ms);
            }
            if !tracing {
                continue;
            }
            traced[req as usize] += 1;
            // The traced copy of the request, in process and after the
            // request's clock stopped.
            match req {
                Req::Warm => {
                    warm_traced.push(ms);
                    let program = {
                        let _s = rec.span(FRONTEND, "bench");
                        compile(twin)
                    };
                    let front = SpanTotals::from_snapshot(&rec.drain());
                    warm_insts += program.as_ref().map_or(0, insts);
                    let t = Instant::now();
                    let s = d.local.get_source(twin).expect("working-set twin");
                    std::hint::black_box(s.plan(Abstraction::PsPdg));
                    let inproc = ms_since(t);
                    transport.push(ms - inproc);
                    unattributed.push(inproc - front.ms(FRONTEND));
                    warm_spans.add(&front);
                }
                Req::Execute => {
                    let s = d.local.get_source(&sources[k]).expect("working-set kernel");
                    let rt = s.runtime(Abstraction::PsPdg).workers(ctx.nproc);
                    let first = {
                        let _s = rec.span("runtime/fresh", "bench");
                        rt.run_main()
                    };
                    let steady = {
                        let _s = rec.span("runtime/steady", "bench");
                        rt.run_main()
                    };
                    let sp = SpanTotals::from_snapshot(&rec.drain());
                    fresh.push(sp.ms("runtime/fresh") - sp.ms("runtime/steady"));
                    if let (Ok(a), Ok(_)) = (first, steady) {
                        exec_stats.push(a.stats);
                    }
                }
                Req::Cold => {
                    let (_, src) = &inp.variants[i % inp.variants.len()];
                    if let Ok(t) = traced_pipeline(&rec, src) {
                        cold_counts += t.counts;
                    }
                    cold_spans.add(&SpanTotals::from_snapshot(&rec.drain()));
                }
            }
        }
        cycle += 1;
    }
    out.loop_s = loop_start.elapsed().as_secs_f64();

    let metrics = d.client.metrics().ok();
    if ctx.trace {
        let per = |req: Req| traced[req as usize].max(1) as f64;
        let l = &mut out.layers;
        // Cold requests carry the profile run, the build and the planner;
        // warm plans carry the frontend; executes carry the runtime.
        l.set_front(&cold_spans, &cold_counts, per(Req::Cold));
        l.set(
            "frontend.compile_ms",
            warm_spans.ms(FRONTEND) / per(Req::Warm),
        );
        l.set("frontend.insts", warm_insts as f64 / per(Req::Warm));
        l.set("runtime.fresh_ms", fresh.mean());
        l.set_run_stats(&exec_stats, per(Req::Execute));
        l.set("service.transport_ms", transport.mean());
        l.set("obs.overhead", warm_traced.median() / warm_plain.median());
        l.set("unattributed_ms", unattributed.mean());
        if let Some(m) = &metrics {
            let cache = |key: &str| {
                m.get("cache")
                    .and_then(|c| c.get(key))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            };
            let lookups = cache("hits") + cache("misses");
            l.set("service.hit_ratio", cache("hits") / lookups.max(1.0));
            l.set("service.builds", cache("builds"));
            l.set("service.evictions", cache("evictions"));
            let q = m.get("queue_depth_mean").and_then(Value::as_f64);
            l.set("service.queue_depth_mean", q.unwrap_or(0.0));
        }
    }
    let Daemon {
        client, service, ..
    } = d;
    drop(client);
    service.shutdown();
    out
}
