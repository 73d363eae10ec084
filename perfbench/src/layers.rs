//! Per-layer measurement: `pspdg_obs::Recorder` spans recorded by the
//! benchmark around each public call into a layer, the table of every
//! per-layer metric, and a span-instrumented copy of the session pipeline.

use std::collections::BTreeMap;

use pspdg_core::{build_pspdg_module, FeatureSet, FunctionPsPdg};
use pspdg_frontend::compile;
use pspdg_ir::interp::{Interpreter, NullSink};
use pspdg_nas::{runtime_suite, Class};
use pspdg_obs::{Recorder, Snapshot};
use pspdg_parallel::ParallelProgram;
use pspdg_parallelizer::{
    plan_built, realize_executable, Abstraction, ExecutablePlan, ProgramPlan,
};
use pspdg_runtime::{FallbackCounts, RunStats};
use pspdg_service::{content_key, DEFAULT_THRESHOLD};

pub const FRONTEND: &str = "frontend/compile";
pub const PROFILE: &str = "ir/profile";
pub const BUILD: &str = "pspdg/build";
pub const PLAN: &str = "parallelizer/plan";
pub const REALIZE: &str = "parallelizer/realize";
pub const VALIDATE: &str = "parallel/validate";
pub const CONTENT_KEY: &str = "service/content_key";

/// Kernel names of the runtime suite, in suite order.
pub fn kernel_names() -> Vec<&'static str> {
    runtime_suite(Class::Test).iter().map(|b| b.name).collect()
}

/// Every per-layer metric with its unit, in report order. Each workload
/// prints all of them; a layer the workload never calls reads 0.
pub fn names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("frontend.compile_ms", "ms"),
        ("frontend.insts", "count"),
        ("parallel.validate_ms", "ms"),
        ("service.content_key_ms", "ms"),
        ("ir.profile_ms", "ms"),
        ("ir.steps", "count"),
        ("pspdg.build_ms", "ms"),
        ("pdg.edges", "count"),
        ("pspdg.nodes", "count"),
        ("pspdg.edges", "count"),
        ("parallelizer.plan_ms", "ms"),
        ("parallelizer.realize_ms", "ms"),
        ("parallelizer.loops_chunked", "count"),
        ("parallelizer.loops_pipelined", "count"),
        ("parallelizer.loops_sequential", "count"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for k in kernel_names() {
        v.push((format!("runtime.run_ms.{k}"), "ms"));
        v.push((format!("runtime.seq_ms.{k}"), "ms"));
        v.push((format!("runtime.speedup.{k}"), "x"));
    }
    v.push(("runtime.speedup_geomean".into(), "x"));
    v.push(("runtime.fresh_ms".into(), "ms"));
    for (cause, _) in FallbackCounts::default().table() {
        v.push((format!("runtime.fallbacks.{cause}"), "count"));
    }
    for (n, u) in [
        ("runtime.chunked", "count"),
        ("runtime.pool_dispatches", "count"),
        ("runtime.fork_bytes", "bytes"),
        ("runtime.critical_replays", "count"),
        ("runtime.compiled_blocks", "count"),
        ("service.hit_ratio", "ratio"),
        ("service.builds", "count"),
        ("service.evictions", "count"),
        ("service.queue_depth_mean", "count"),
        ("service.transport_ms", "ms"),
        ("obs.overhead", "ratio"),
        ("unattributed_ms", "ms"),
    ] {
        v.push((n.into(), u));
    }
    v
}

/// Per-layer values of one traced run, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Record the dynamic counters (`RunStats`) of `runs`, summed and
    /// averaged over `ops`.
    pub fn set_run_stats(&mut self, runs: &[RunStats], ops: f64) {
        let sum = |f: &dyn Fn(&RunStats) -> u64| runs.iter().map(f).sum::<u64>() as f64 / ops;
        for (i, (cause, _)) in FallbackCounts::default().table().into_iter().enumerate() {
            let v = sum(&|s| s.fallbacks.table()[i].1);
            self.set(&format!("runtime.fallbacks.{cause}"), v);
        }
        self.set("runtime.chunked", sum(&|s| s.chunked_loops));
        self.set("runtime.pool_dispatches", sum(&|s| s.pool_dispatches));
        self.set("runtime.fork_bytes", sum(&|s| s.fork_bytes()));
        self.set("runtime.critical_replays", sum(&|s| s.critical_replays));
        self.set("runtime.compiled_blocks", sum(&|s| s.compiled_blocks));
    }

    /// Record the front half of the pipeline: span time per `ops` for
    /// each layer span, and the counts the copies returned.
    pub fn set_front(&mut self, spans: &SpanTotals, c: &FrontCounts, ops: f64) {
        self.set("frontend.compile_ms", spans.ms(FRONTEND) / ops);
        self.set("parallel.validate_ms", spans.ms(VALIDATE) / ops);
        self.set("service.content_key_ms", spans.ms(CONTENT_KEY) / ops);
        self.set("ir.profile_ms", spans.ms(PROFILE) / ops);
        self.set("pspdg.build_ms", spans.ms(BUILD) / ops);
        self.set("parallelizer.plan_ms", spans.ms(PLAN) / ops);
        self.set("parallelizer.realize_ms", spans.ms(REALIZE) / ops);
        self.set("frontend.insts", c.insts as f64 / ops);
        self.set("ir.steps", c.steps as f64 / ops);
        self.set("pdg.edges", c.pdg_edges as f64 / ops);
        self.set("pspdg.nodes", c.pspdg_nodes as f64 / ops);
        self.set("pspdg.edges", c.pspdg_edges as f64 / ops);
        self.set("parallelizer.loops_chunked", c.chunked as f64 / ops);
        self.set("parallelizer.loops_pipelined", c.pipelined as f64 / ops);
        self.set("parallelizer.loops_sequential", c.sequential as f64 / ops);
    }
}

/// Span time summed by span name, from one drained recorder snapshot.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals(BTreeMap<String, u64>);

impl SpanTotals {
    pub fn from_snapshot(snap: &Snapshot) -> SpanTotals {
        let mut m = BTreeMap::new();
        for e in snap.events.iter().filter(|e| e.ph == 'X') {
            *m.entry(e.name.clone()).or_insert(0) += e.dur_ns;
        }
        SpanTotals(m)
    }

    pub fn add(&mut self, other: &SpanTotals) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0) += v;
        }
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Time covered by all spans, in ms (the spans never nest).
    pub fn total_ms(&self) -> f64 {
        self.0.values().sum::<u64>() as f64 / 1e6
    }
}

/// Sizes the front half of the pipeline reports for one program.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FrontCounts {
    pub insts: u64,
    pub steps: u64,
    pub pdg_edges: u64,
    pub pspdg_nodes: u64,
    pub pspdg_edges: u64,
    pub chunked: u64,
    pub pipelined: u64,
    pub sequential: u64,
}

impl std::ops::AddAssign for FrontCounts {
    fn add_assign(&mut self, o: FrontCounts) {
        self.insts += o.insts;
        self.steps += o.steps;
        self.pdg_edges += o.pdg_edges;
        self.pspdg_nodes += o.pspdg_nodes;
        self.pspdg_edges += o.pspdg_edges;
        self.chunked += o.chunked;
        self.pipelined += o.pipelined;
        self.sequential += o.sequential;
    }
}

/// What [`traced_pipeline`] built. The caller drops it after its clock
/// stops, as a plan cache would keep it.
pub struct Traced {
    pub counts: FrontCounts,
    pub plan: ProgramPlan,
    _kept: (ParallelProgram, Vec<FunctionPsPdg>, ExecutablePlan),
}

/// The steps `Session::compile` followed by `Session::plan(PsPdg)` takes,
/// called one layer at a time with a span around each layer call.
pub fn traced_pipeline(rec: &Recorder, source: &str) -> Result<Traced, String> {
    let program = {
        let _s = rec.span(FRONTEND, "bench");
        compile(source)
    }
    .map_err(|e| e.to_string())?;
    {
        let _s = rec.span(VALIDATE, "bench");
        program.validate().map_err(|e| e.to_string())?;
    }
    {
        let _s = rec.span(CONTENT_KEY, "bench");
        std::hint::black_box(content_key(&program));
    }
    let mut interp = Interpreter::new(&program.module);
    {
        let _s = rec.span(PROFILE, "bench");
        interp.run_main(&mut NullSink).map_err(|e| e.to_string())?;
    }
    let steps = interp.steps();
    let profile = interp.profile().clone();
    drop(interp);
    let built = {
        let _s = rec.span(BUILD, "bench");
        build_pspdg_module(&program, FeatureSet::all())
    };
    let plan = {
        let _s = rec.span(PLAN, "bench");
        plan_built(
            &program,
            &built,
            &profile,
            Abstraction::PsPdg,
            DEFAULT_THRESHOLD,
        )
    };
    let exec = {
        let _s = rec.span(REALIZE, "bench");
        realize_executable(&program, &plan)
    };
    let real = exec.stats();
    let counts = FrontCounts {
        insts: insts(&program),
        steps,
        pdg_edges: built.iter().map(|b| b.pdg.edges.len() as u64).sum(),
        pspdg_nodes: built.iter().map(|b| b.pspdg.nodes.len() as u64).sum(),
        pspdg_edges: built.iter().map(|b| b.pspdg.edge_count() as u64).sum(),
        chunked: real.chunked as u64,
        pipelined: real.pipeline as u64,
        sequential: real.sequential as u64,
    };
    Ok(Traced {
        counts,
        plan,
        _kept: (program, built, exec),
    })
}

/// Static IR instructions the frontend produced.
pub fn insts(program: &ParallelProgram) -> u64 {
    program
        .module
        .functions
        .iter()
        .map(|f| f.insts.len() as u64)
        .sum()
}

/// The plan's loops and their techniques, in a canonical order.
pub fn plan_fingerprint(plan: &ProgramPlan) -> String {
    let mut loops: Vec<String> = plan
        .loops
        .iter()
        .map(|(key, spec)| format!("{key:?}:{}", spec.technique.name()))
        .collect();
    loops.sort();
    format!("{}|{}", loops.join(","), plan.mutexes.len())
}
