//! `nas-run`: sweeps of the eight NAS kernels plus GMAX at `Class::Mini`
//! through runtimes held across sweeps. A round is one `nproc`-worker
//! sweep, one 1-worker sweep and one sweep through fresh runtimes, in an
//! order that rotates every round.

use std::time::Instant;

use pspdg_nas::{runtime_suite, Class};
use pspdg_obs::Recorder;
use pspdg_parallelizer::Abstraction;
use pspdg_runtime::{globals_mismatch, observable_globals, RunOutcome, RunStats, Runtime};
use pspdg_service::Session;

use crate::layers::{traced_pipeline, FrontCounts, SpanTotals};
use crate::stats::{geomean, Rng, Samples};
use crate::{Ctx, Outcome};

struct Kernel {
    name: &'static str,
    session: Session,
    par: Runtime,
    seq: Runtime,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Sweep {
    Par,
    Seq,
    Fresh,
}

impl Sweep {
    fn label(self) -> &'static str {
        match self {
            Sweep::Par => "par",
            Sweep::Seq => "seq",
            Sweep::Fresh => "fresh",
        }
    }
}

fn matches(k: &Kernel, out: &RunOutcome) -> bool {
    let base = k.session.baseline();
    out.ret == base.ret
        && out.output == base.output
        && globals_mismatch(
            &base.globals,
            &observable_globals(&k.session.program().module, &out.mem),
        )
        .is_none()
}

/// Build one session per kernel, hold an `nproc`-worker and a 1-worker
/// runtime for each, and run both once (lazy pool, compiled tier).
fn setup(ctx: &Ctx, order: &[usize], rec: Option<&Recorder>) -> (Vec<Kernel>, FrontCounts) {
    let suite = runtime_suite(Class::Mini);
    let mut kernels = Vec::new();
    let mut counts = FrontCounts::default();
    for &i in order {
        let b = &suite[i];
        if let Some(rec) = rec {
            counts += traced_pipeline(rec, &b.source)
                .expect("bundled kernel")
                .counts;
        }
        let session = Session::compile(&b.source).expect("bundled kernel compiles");
        let par = session.runtime(Abstraction::PsPdg).workers(ctx.nproc);
        let seq = session.runtime(Abstraction::PsPdg).workers(1);
        let k = Kernel {
            name: b.name,
            session,
            par,
            seq,
        };
        for rt in [&k.par, &k.seq] {
            let out = rt.run_main().expect("warm-up run");
            assert!(matches(&k, &out), "{}: warm-up run differs", k.name);
        }
        kernels.push(k);
    }
    (kernels, counts)
}

/// One sweep: wall time in ms, and each kernel's outcome (checked by the
/// caller, after the clock stops).
fn sweep(
    ctx: &Ctx,
    kernels: &[Kernel],
    kind: Sweep,
    rec: Option<&Recorder>,
) -> (f64, Vec<Result<RunOutcome, String>>) {
    let mut outs = Vec::with_capacity(kernels.len());
    let t = Instant::now();
    for k in kernels {
        let fresh;
        let rt = match kind {
            Sweep::Par => &k.par,
            Sweep::Seq => &k.seq,
            Sweep::Fresh => {
                fresh = k.session.runtime(Abstraction::PsPdg).workers(ctx.nproc);
                &fresh
            }
        };
        let _span = rec.map(|r| r.span(&format!("runtime/{}/{}", kind.label(), k.name), "bench"));
        outs.push(rt.run_main().map_err(|e| e.to_string()));
    }
    (t.elapsed().as_secs_f64() * 1e3, outs)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut rng = Rng::new(ctx.seed);
    let mut order: Vec<usize> = (0..runtime_suite(Class::Test).len()).collect();
    rng.shuffle(&mut order);
    let rec = Recorder::new();
    let traced = ctx.trace.then_some(&rec);

    let mut out = Outcome {
        labels: [
            "sweep of the held nproc-worker runtimes",
            "seq_op_ms: 1-worker sweep of the same kernels",
            "sweep through fresh nproc-worker runtimes",
        ],
        ..Outcome::default()
    };
    let (kernels, setup_counts) = ctx.setup(&mut out.setup, || setup(ctx, &order, traced));
    let setup_spans = SpanTotals::from_snapshot(&rec.drain());

    let mut par_traced = Samples::default();
    let mut par_plain = Samples::default();
    let mut unattributed = Samples::default();
    let mut run_ms = vec![Samples::default(); kernels.len()];
    let mut seq_ms = vec![Samples::default(); kernels.len()];
    let mut fresh_ms = Samples::default();
    let mut pair_speedup = vec![Samples::default(); kernels.len()];
    let mut stats: Vec<RunStats> = Vec::new();
    let kinds = [Sweep::Par, Sweep::Seq, Sweep::Fresh];

    let loop_start = Instant::now();
    let mut round = 0usize;
    while ctx.more(loop_start, round) {
        ctx.resetup(&mut out.setup, loop_start, || setup(ctx, &order, None));
        // In a traced run every other round records spans; the rest give
        // the untraced baseline of the tracing overhead.
        let tracing = ctx.trace && round % 2 == 1;
        rec.set_enabled(tracing);
        let mut spans: [SpanTotals; 3] = Default::default();
        for j in 0..3 {
            let kind = kinds[(round + j) % 3];
            let (ms, outs) = sweep(ctx, &kernels, kind, tracing.then_some(&rec));
            let ok = outs
                .iter()
                .zip(&kernels)
                .all(|(o, k)| o.as_ref().is_ok_and(|o| matches(k, o)));
            out.attempted += 1;
            out.failed += u64::from(!ok);
            match kind {
                Sweep::Par => {
                    out.op.push(ms);
                    if tracing {
                        par_traced.push(ms);
                    } else {
                        par_plain.push(ms);
                    }
                    if tracing && stats.is_empty() {
                        stats = outs.iter().flatten().map(|o| o.stats).collect();
                    }
                }
                Sweep::Seq => out.op2.push(ms),
                Sweep::Fresh => out.op3.push(ms),
            }
            if tracing {
                let s = SpanTotals::from_snapshot(&rec.drain());
                if kind == Sweep::Par {
                    unattributed.push(ms - s.total_ms());
                }
                spans[kind as usize] = s;
            }
        }
        if tracing {
            let mut fresh_round = 0.0;
            for (i, k) in kernels.iter().enumerate() {
                let par = spans[Sweep::Par as usize].ms(&format!("runtime/par/{}", k.name));
                let seq = spans[Sweep::Seq as usize].ms(&format!("runtime/seq/{}", k.name));
                let fresh = spans[Sweep::Fresh as usize].ms(&format!("runtime/fresh/{}", k.name));
                run_ms[i].push(par);
                seq_ms[i].push(seq);
                pair_speedup[i].push(seq / par);
                fresh_round += fresh - par;
            }
            fresh_ms.push(fresh_round);
        }
        round += 1;
    }
    out.loop_s = loop_start.elapsed().as_secs_f64();
    rec.set_enabled(false);

    if ctx.trace {
        let l = &mut out.layers;
        l.set_front(&setup_spans, &setup_counts, 1.0);
        let mut speedups = Vec::new();
        for (i, k) in kernels.iter().enumerate() {
            l.set(&format!("runtime.run_ms.{}", k.name), run_ms[i].mean());
            l.set(&format!("runtime.seq_ms.{}", k.name), seq_ms[i].mean());
            let s = pair_speedup[i].median();
            l.set(&format!("runtime.speedup.{}", k.name), s);
            speedups.push(s);
        }
        l.set("runtime.speedup_geomean", geomean(&speedups));
        l.set("runtime.fresh_ms", fresh_ms.mean());
        l.set_run_stats(&stats, 1.0);
        l.set("obs.overhead", par_traced.median() / par_plain.median());
        l.set("unattributed_ms", unattributed.mean());
    }
    out.digest = order.iter().fold(0, |h, &i| h * 31 + i as u64 + 1);
    out
}
