//! `module-compile`: cold `Session::compile` + `plan(PsPdg)` sweeps over a
//! seeded set of generated programs — many-function modules
//! (`synth::module`) and single wide functions (`synth::wide`).

use std::sync::Arc;
use std::time::Instant;

use pspdg_nas::synth;
use pspdg_obs::Recorder;
use pspdg_parallelizer::Abstraction;
use pspdg_service::{PlanBundle, Session};

use crate::layers::{plan_fingerprint, traced_pipeline, FrontCounts, SpanTotals, Traced};
use crate::stats::{Rng, Samples};
use crate::{Ctx, Outcome};

/// Programs of each shape in the set.
const PER_SHAPE: usize = 6;
/// `synth::module` size: functions and shared arrays, each drawn as a
/// centre ± spread pair so every set has the same totals.
const MODULE_FUNCS: (usize, usize) = (96, 24);
const MODULE_BASES: (usize, usize) = (48, 12);
/// `synth::wide` size: arrays (one recurrence loop each).
const WIDE_BASES: (usize, usize) = (32, 8);

struct Program {
    /// 0 = many-function module, 1 = wide single function.
    shape: usize,
    source: String,
    fingerprint: String,
}

/// `PER_SHAPE` sizes as `PER_SHAPE / 2` pairs `centre ± d`, `d` seeded.
fn paired_sizes(rng: &mut Rng, (centre, spread): (usize, usize)) -> Vec<usize> {
    let mut v = Vec::new();
    for _ in 0..PER_SHAPE / 2 {
        let d = rng.below(spread + 1);
        v.push(centre + d);
        v.push(centre - d);
    }
    rng.shuffle(&mut v);
    v
}

/// A session and its plan, kept until the sweep's clock stops.
enum Planned {
    Session {
        _session: Session,
        bundle: Arc<PlanBundle>,
    },
    Traced(Traced),
}

impl Planned {
    fn fingerprint(&self) -> String {
        match self {
            Planned::Session { bundle, .. } => plan_fingerprint(&bundle.plan),
            Planned::Traced(t) => plan_fingerprint(&t.plan),
        }
    }
}

fn compile_and_plan(source: &str) -> Result<Planned, String> {
    let s = Session::compile(source).map_err(|e| e.to_string())?;
    let bundle = s.plan(Abstraction::PsPdg);
    Ok(Planned::Session {
        _session: s,
        bundle,
    })
}

/// Generate the set and record each program's plan fingerprint (this is
/// also the warm-up sweep).
fn setup(seed: u64) -> (Vec<Program>, u64) {
    let mut rng = Rng::new(seed);
    let funcs = paired_sizes(&mut rng, MODULE_FUNCS);
    let bases = paired_sizes(&mut rng, MODULE_BASES);
    let wides = paired_sizes(&mut rng, WIDE_BASES);
    let mut sources: Vec<(usize, String)> = Vec::new();
    let mut digest = 0u64;
    for (n, b) in funcs.iter().zip(&bases) {
        sources.push((0, synth::module(*n, *b).source));
        digest = digest
            .wrapping_mul(1_000_003)
            .wrapping_add((n * 1000 + b) as u64);
    }
    for b in &wides {
        sources.push((1, synth::wide(*b).source));
        digest = digest.wrapping_mul(1_000_003).wrapping_add(*b as u64);
    }
    rng.shuffle(&mut sources);
    let programs = sources
        .into_iter()
        .map(|(shape, source)| {
            let fingerprint = compile_and_plan(&source)
                .expect("generated program plans")
                .fingerprint();
            Program {
                shape,
                source,
                fingerprint,
            }
        })
        .collect();
    (programs, digest)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let rec = Recorder::new();
    rec.set_enabled(false);
    let mut out = Outcome {
        labels: [
            "sweep (all programs, compile + plan)",
            "module part of the sweep (synth::module programs)",
            "wide part of the sweep (synth::wide programs)",
        ],
        ..Outcome::default()
    };
    let (programs, digest) = ctx.setup(&mut out.setup, || setup(ctx.seed));
    out.digest = digest;

    let mut traced = Samples::default();
    let mut plain = Samples::default();
    let mut unattributed = Samples::default();
    let mut spans = SpanTotals::default();
    let mut counts = FrontCounts::default();
    let mut traced_ops = 0usize;

    let loop_start = Instant::now();
    let mut round = 0usize;
    while ctx.more(loop_start, round) {
        ctx.resetup(&mut out.setup, loop_start, || setup(ctx.seed));
        let tracing = ctx.trace && round % 2 == 1;
        rec.set_enabled(tracing);
        let mut part = [0.0f64; 2];
        let mut results = Vec::with_capacity(programs.len());
        let t = Instant::now();
        for p in &programs {
            let t1 = Instant::now();
            let r = if tracing {
                traced_pipeline(&rec, &p.source).map(Planned::Traced)
            } else {
                compile_and_plan(&p.source)
            };
            part[p.shape] += t1.elapsed().as_secs_f64() * 1e3;
            results.push(r);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut ok = true;
        for (p, r) in programs.iter().zip(results) {
            match r {
                Ok(planned) => {
                    ok &= planned.fingerprint() == p.fingerprint;
                    if let Planned::Traced(t) = &planned {
                        counts += t.counts;
                    }
                }
                Err(_) => ok = false,
            }
        }
        out.attempted += 1;
        out.failed += u64::from(!ok);
        out.op.push(ms);
        out.op2.push(part[0]);
        out.op3.push(part[1]);
        if tracing {
            let s = SpanTotals::from_snapshot(&rec.drain());
            unattributed.push(ms - s.total_ms());
            spans.add(&s);
            traced.push(ms);
            traced_ops += 1;
        } else {
            plain.push(ms);
        }
        round += 1;
    }
    out.loop_s = loop_start.elapsed().as_secs_f64();
    rec.set_enabled(false);

    if ctx.trace {
        let l = &mut out.layers;
        l.set_front(&spans, &counts, traced_ops.max(1) as f64);
        l.set("obs.overhead", traced.median() / plain.median());
        l.set("unattributed_ms", unattributed.mean());
    }
    out
}
