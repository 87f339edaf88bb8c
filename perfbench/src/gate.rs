//! The correctness gate and the traced replay of layer calls, both run on
//! each job's final design outside the timed phase.

use hsyn_core::{evaluate, DesignPoint, SynthesisConfig, SynthesisReport};
use hsyn_dfg::{reference_outputs, NodeKind};
use hsyn_lib::Library;
use hsyn_lint::{error_count, verify_design, DesignView};
use hsyn_power::{dsp_default, estimate, simulate};
use hsyn_rtl::{cosimulate, module_area, module_fingerprint, RtlModule};
use hsyn_sched::{schedule, NodeDelay, SchedContext};
use hsyn_serve::{DiskStore, JobLookup};
use hsyn_util::{read_frame, write_frame, Json};

use crate::trace::Tracer;

/// Input samples the co-simulation check drives through each design.
const COSIM_SAMPLES: usize = 32;

/// `synthesize` draws its report traces from the run's seed xor this.
const REPORT_TRACE_SALT: u64 = 0x5eed;

/// Check one final design: cycle-accurate co-simulation must match the
/// flattened-DFG reference evaluator output for output, and the lint
/// verifier must report no errors.
pub fn check_design(
    dp: &DesignPoint,
    lib: &Library,
    config: &SynthesisConfig,
    tr: &mut Tracer,
    job: u64,
) -> Result<(), String> {
    let h = &dp.hierarchy;
    let inputs = h.dfg(h.top()).input_count();
    let traces = dsp_default(inputs, COSIM_SAMPLES, config.width, config.seed);
    tr.span("rtl.cosim", job, |_| {
        let run = cosimulate(h, &dp.top.built, &traces.samples, traces.width)
            .map_err(|d| format!("co-simulation diverged: {d}"))?;
        let want = reference_outputs(&h.flatten(), &traces.samples, traces.width);
        if run.outputs != want {
            return Err("co-simulated outputs differ from the flattened reference".to_owned());
        }
        Ok(())
    })?;
    let diags = tr.span("lint.verify", job, |_| {
        verify_design(&DesignView {
            hierarchy: h,
            module: &dp.top.built,
            lib,
            vdd: dp.op.vdd,
            clk_ns: dp.op.clk_ref_ns,
            sampling_period: dp.top.core.deadline,
        })
    });
    match error_count(&diags) {
        0 => Ok(()),
        n => Err(format!(
            "lint reports {n} error(s), first: {}",
            diags.first().map_or(String::new(), |d| format!("{d:?}"))
        )),
    }
}

/// Replay the layer calls behind one job's report on its final design,
/// each inside its own span. The replayed evaluation must reproduce the
/// report's cost bit for bit.
pub fn replay_layers(
    report: &SynthesisReport,
    lib: &Library,
    config: &SynthesisConfig,
    tr: &mut Tracer,
    job: u64,
) -> Result<(), String> {
    let dp = &report.design;
    let h = &dp.hierarchy;
    let module = &dp.top.built;
    tr.span("dfg.flatten", job, |_| std::hint::black_box(h.flatten()));
    let inputs = h.dfg(h.top()).input_count();
    let traces = tr.span("power.traces", job, |_| {
        dsp_default(
            inputs,
            config.report_trace_len,
            config.width,
            config.seed ^ REPORT_TRACE_SALT,
        )
    });
    tr.span("power.simulate", job, |_| {
        std::hint::black_box(simulate(h, module, &traces))
    });
    tr.span("power.estimate", job, |_| {
        std::hint::black_box(estimate(
            h,
            module,
            lib,
            &traces,
            dp.op.vdd,
            dp.op.physical_clk_ns(lib),
            dp.op.sampling_cycles.max(1),
        ))
    });
    tr.span("rtl.area", job, |_| {
        std::hint::black_box(module_area(h, module, lib))
    });
    tr.span("rtl.fingerprint", job, |_| {
        std::hint::black_box(module_fingerprint(h, module))
    });
    let mut rebuilt = dp.clone();
    tr.span("rtl.build", job, |_| rebuilt.rebuild(lib))
        .map_err(|e| format!("final design does not rebuild: {e}"))?;
    replay_schedules(h, module, lib, dp.op.clk_ref_ns, tr, job)?;
    let eval = tr.span("core.evaluate", job, |_| {
        evaluate(dp, lib, &traces, config.objective)
    });
    if eval.cost.to_bits() != report.evaluation.cost.to_bits() {
        return Err(format!(
            "replayed evaluation cost {} differs from the report's {}",
            eval.cost, report.evaluation.cost
        ));
    }
    Ok(())
}

/// Re-run the scheduler on every behavior of every module in the tree,
/// with the delays and serialization edges the build used.
fn replay_schedules(
    h: &hsyn_dfg::Hierarchy,
    module: &RtlModule,
    lib: &Library,
    clk_ns: f64,
    tr: &mut Tracer,
    job: u64,
) -> Result<(), String> {
    let vdd = lib.technology.vref();
    for sub in module.subs() {
        replay_schedules(h, sub, lib, clk_ns, tr, job)?;
    }
    for b in module.behaviors() {
        let g = h.dfg(b.dfg);
        let delay = |n| match g.node(n).kind() {
            NodeKind::Op(_) => {
                let fu_type = module.fus()[b.binding.op_to_fu[&n].index()].fu_type;
                if lib.fu(fu_type).is_pipelined() {
                    NodeDelay::Pipelined {
                        stages: lib.latency_cycles(fu_type, clk_ns, vdd),
                    }
                } else {
                    NodeDelay::Combinational {
                        ns: lib.technology.scale_delay(lib.fu(fu_type).delay_ns(), vdd),
                    }
                }
            }
            NodeKind::Hier { callee } => {
                let sub = &module.subs()[b.binding.hier_to_sub[&n].index()];
                NodeDelay::Profiled(
                    sub.profile_for(*callee)
                        .expect("a bound submodule executes its callee")
                        .clone(),
                )
            }
            NodeKind::Load { .. } | NodeKind::Store { .. } => NodeDelay::Pipelined { stages: 1 },
            _ => NodeDelay::Free,
        };
        let ctx = SchedContext::new(clk_ns, lib.register.overhead_ns, None);
        tr.span("sched.schedule", job, |_| {
            schedule(g, delay, &b.serial, &ctx)
        })
        .map_err(|e| format!("replayed schedule of {} failed: {e}", module.name()))?;
    }
    Ok(())
}

/// Replay the serve storage and framing layers on one result payload:
/// write it to the job store, load it back, and round-trip it through a
/// frame. Both must return the same bytes.
pub fn replay_io(
    store: &DiskStore,
    result_json: &str,
    tr: &mut Tracer,
    job: u64,
) -> Result<(), String> {
    let key = hsyn_util::content_key(result_json.as_bytes());
    let payload = Json::Obj(vec![(
        "result_json".to_owned(),
        Json::Str(result_json.to_owned()),
    )]);
    tr.span("serve.store_write", job, |_| {
        store.store_job(&key, &payload)
    })
    .map_err(|e| format!("job store write failed: {e}"))?;
    match tr.span("serve.store_load", job, |_| store.load_job(&key)) {
        JobLookup::Hit(back) if back == payload => {}
        _ => return Err("job store did not return the stored payload".to_owned()),
    }
    let bytes = result_json.as_bytes();
    let back = tr.span("util.frame_rt", job, |_| {
        let mut wire = Vec::with_capacity(bytes.len() + 4);
        write_frame(&mut wire, bytes).map_err(|e| e.to_string())?;
        read_frame(&mut wire.as_slice(), hsyn_util::MAX_FRAME).map_err(|e| e.to_string())
    })?;
    if back != bytes {
        return Err("frame round trip changed the payload".to_owned());
    }
    Ok(())
}
