//! Experiment harness shared by the table/figure binaries: benchmark
//! libraries, the four-way (flat/hier × area/power) cell runner, and the
//! normalization arithmetic of the paper's Tables 3 and 4.

use hsyn_core::{synthesize, Budget, Objective, SynthesisConfig, SynthesisError, SynthesisReport};
use hsyn_dfg::benchmarks::Benchmark;
use hsyn_dfg::{DfgId, NodeKind, Operation};
use hsyn_lib::papers::table1_library;
use hsyn_rtl::{build, BuildCtx, ModuleLibrary, ModuleSpec};
use hsyn_util::Json;

/// Build the module library for a benchmark: the paper's Table 1 simple
/// modules, plus two pre-designed complex modules (a fast `mult1`-based and
/// a low-power `mult2`-based variant) for every instantiated building-block
/// DFG — mirroring Figure 2's `C1`/`C2` pattern — and the benchmark's
/// declared equivalence classes.
pub fn benchmark_library(bench: &Benchmark) -> ModuleLibrary {
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = bench.equiv.clone();
    let lib = mlib.simple.clone();
    let h = &bench.hierarchy;

    // DFGs reachable as callees (directly or transitively), leaf-only:
    // complex library modules are flat implementations of building blocks.
    let mut callees: Vec<DfgId> = Vec::new();
    for (_, g) in h.dfgs() {
        for (_, node) in g.nodes() {
            if let NodeKind::Hier { callee } = node.kind() {
                if !callees.contains(callee) {
                    callees.push(*callee);
                }
            }
        }
    }
    // Also their equivalents (move A targets).
    for c in callees.clone() {
        for eq in bench.equiv.class_of(c) {
            if !callees.contains(&eq) {
                callees.push(eq);
            }
        }
    }

    // Hard macros are clock-specific: provide variants at every clock the
    // engine may choose.
    let clocks = lib.clock_candidates(4);
    for dfg in callees {
        let g = h.dfg(dfg);
        let is_leaf = !g
            .nodes()
            .any(|(_, n)| matches!(n.kind(), NodeKind::Hier { .. }));
        if !is_leaf {
            continue;
        }
        for &clk in &clocks {
            for (suffix, mult) in [("fast", "mult1"), ("lowpower", "mult2")] {
                let spec = ModuleSpec::dedicated(
                    h,
                    dfg,
                    format!("{}_{suffix}_{clk:.0}ns", g.name()),
                    |_, op| match op {
                        Operation::Mult => lib.fu_by_name(mult).expect("table1 multiplier"),
                        _ => lib.fu_by_name("add1").expect("table1 adder"),
                    },
                    |_, _| unreachable!("leaf dfg"),
                );
                let ctx = BuildCtx::new(&lib, clk, 5.0, None);
                if let Ok(module) = build(h, &spec, &ctx) {
                    mlib.add_complex(module, clk);
                }
            }
        }
    }
    mlib
}

/// Results of one synthesis run relevant to the tables.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Total area.
    pub area: f64,
    /// Power at the synthesis voltage.
    pub power: f64,
    /// Supply voltage of the reported design.
    pub vdd: f64,
    /// Power after voltage scaling (area-optimized runs only).
    pub scaled_power: Option<f64>,
    /// Voltage after scaling.
    pub scaled_vdd: Option<f64>,
    /// Synthesis wall-clock seconds.
    pub elapsed_s: f64,
}

impl CellResult {
    fn from_report(r: &SynthesisReport) -> Self {
        CellResult {
            area: r.evaluation.area.total(),
            power: r.evaluation.power.power,
            vdd: r.design.op.vdd,
            scaled_power: r.vdd_scaled.as_ref().map(|s| s.evaluation.power.power),
            scaled_vdd: r.vdd_scaled.as_ref().map(|s| s.design.op.vdd),
            elapsed_s: r.elapsed_s,
        }
    }
}

/// The four synthesis runs of one `(benchmark, laxity)` table cell.
#[derive(Clone, Debug)]
pub struct CellSet {
    /// Benchmark name.
    pub benchmark: String,
    /// Laxity factor.
    pub laxity: f64,
    /// Flattened, area-optimized (the normalization reference).
    pub flat_area: CellResult,
    /// Flattened, power-optimized.
    pub flat_power: CellResult,
    /// Hierarchical, area-optimized.
    pub hier_area: CellResult,
    /// Hierarchical, power-optimized.
    pub hier_power: CellResult,
}

/// Knobs for the sweep (reduced budgets keep the full table under a few
/// minutes; `--quick` in the binaries reduces further).
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// The search budget of every run.
    pub budget: Budget,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            budget: Budget {
                max_passes: Some(10),
                candidate_limit: Some(6),
                eval_trace_len: Some(32),
                report_trace_len: Some(192),
                max_clock_candidates: Some(3),
                resynth_depth: Some(1),
            },
        }
    }
}

impl SweepConfig {
    /// A faster variant for smoke runs.
    pub fn quick() -> Self {
        SweepConfig {
            budget: Budget {
                max_passes: Some(4),
                candidate_limit: Some(4),
                eval_trace_len: Some(16),
                report_trace_len: Some(64),
                max_clock_candidates: Some(2),
                resynth_depth: Some(1),
            },
        }
    }

    /// The [`SynthesisConfig`] for one run.
    pub fn to_config(
        self,
        objective: Objective,
        hierarchical: bool,
        laxity: f64,
    ) -> SynthesisConfig {
        let mut c = SynthesisConfig::new(objective);
        c.laxity_factor = laxity;
        c.hierarchical = hierarchical;
        self.budget.apply(&mut c);
        c
    }
}

/// Run the four synthesis modes for one `(benchmark, laxity)` cell.
///
/// # Errors
///
/// Propagates [`SynthesisError`] from any of the four runs.
pub fn run_cell(
    bench: &Benchmark,
    mlib: &ModuleLibrary,
    laxity: f64,
    sweep: SweepConfig,
) -> Result<CellSet, SynthesisError> {
    let run = |objective, hierarchical| -> Result<CellResult, SynthesisError> {
        let cfg = sweep.to_config(objective, hierarchical, laxity);
        synthesize(&bench.hierarchy, mlib, &cfg).map(|r| CellResult::from_report(&r))
    };
    Ok(CellSet {
        benchmark: bench.name.to_owned(),
        laxity,
        flat_area: run(Objective::Area, false)?,
        flat_power: run(Objective::Power, false)?,
        hier_area: run(Objective::Area, true)?,
        hier_power: run(Objective::Power, true)?,
    })
}

/// One normalized row pair of Table 3.
#[derive(Clone, Copy, Debug)]
pub struct Table3Row {
    /// Normalized areas `[flat_A, flat_P, hier_A, hier_P]`
    /// (flat area-optimized ≡ 1).
    pub area: [f64; 4],
    /// Normalized powers at 5 V reference `[flat_A, flat_P, hier_A,
    /// hier_P]` (flat area-optimized at 5 V ≡ 1).
    pub power: [f64; 4],
}

impl CellSet {
    /// Normalize per the paper's Table 3: both rows are relative to the
    /// flattened, area-optimized design at 5 V.
    pub fn table3_row(&self) -> Table3Row {
        let ref_area = self.flat_area.area;
        let ref_power = self.flat_area.power; // at 5 V (area mode synthesizes at Vref)
        Table3Row {
            area: [
                1.0,
                self.flat_power.area / ref_area,
                self.hier_area.area / ref_area,
                self.hier_power.area / ref_area,
            ],
            power: [
                1.0,
                self.flat_power.power / ref_power,
                self.hier_area.power / ref_power,
                self.hier_power.power / ref_power,
            ],
        }
    }
}

/// One row of Table 4: per-laxity averages.
#[derive(Clone, Copy, Debug)]
pub struct Table4Row {
    /// Laxity factor.
    pub laxity: f64,
    /// Average P-opt area ratio `[flat, hier]`.
    pub area_ratio: [f64; 2],
    /// Average P-opt power vs area-opt at 5 V `[flat, hier]`.
    pub power_ratio_5v: [f64; 2],
    /// Average P-opt power vs voltage-scaled area-opt `[flat, hier]`.
    pub power_ratio_scaled: [f64; 2],
    /// Average synthesis seconds (area + power runs) `[flat, hier]`.
    pub synth_time_s: [f64; 2],
}

/// Aggregate cells of one laxity factor into a Table 4 row.
pub fn table4_row(laxity: f64, cells: &[&CellSet]) -> Table4Row {
    let n = cells.len().max(1) as f64;
    let mut row = Table4Row {
        laxity,
        area_ratio: [0.0; 2],
        power_ratio_5v: [0.0; 2],
        power_ratio_scaled: [0.0; 2],
        synth_time_s: [0.0; 2],
    };
    for c in cells {
        let ref_area = c.flat_area.area;
        let ref_power = c.flat_area.power;
        row.area_ratio[0] += c.flat_power.area / ref_area;
        row.area_ratio[1] += c.hier_power.area / ref_area;
        row.power_ratio_5v[0] += c.flat_power.power / ref_power;
        row.power_ratio_5v[1] += c.hier_power.power / ref_power;
        let flat_scaled = c.flat_area.scaled_power.unwrap_or(c.flat_area.power);
        let hier_scaled = c.hier_area.scaled_power.unwrap_or(c.hier_area.power);
        row.power_ratio_scaled[0] += c.flat_power.power / flat_scaled;
        row.power_ratio_scaled[1] += c.hier_power.power / hier_scaled;
        row.synth_time_s[0] += c.flat_area.elapsed_s + c.flat_power.elapsed_s;
        row.synth_time_s[1] += c.hier_area.elapsed_s + c.hier_power.elapsed_s;
    }
    for v in [
        &mut row.area_ratio,
        &mut row.power_ratio_5v,
        &mut row.power_ratio_scaled,
        &mut row.synth_time_s,
    ] {
        v[0] /= n;
        v[1] /= n;
    }
    row
}

/// The laxity factors of the paper's tables.
pub const LAXITIES: [f64; 3] = [1.2, 2.2, 3.2];

/// Where sweep results are cached for reuse between `table3` and `table4`.
pub const RESULTS_PATH: &str = "results/table3.json";

impl CellResult {
    fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        Json::Obj(vec![
            ("area".into(), Json::Num(self.area)),
            ("power".into(), Json::Num(self.power)),
            ("vdd".into(), Json::Num(self.vdd)),
            ("scaled_power".into(), opt(self.scaled_power)),
            ("scaled_vdd".into(), opt(self.scaled_vdd)),
            ("elapsed_s".into(), Json::Num(self.elapsed_s)),
        ])
    }

    fn from_json(v: &Json) -> Option<CellResult> {
        Some(CellResult {
            area: v.get("area")?.as_f64()?,
            power: v.get("power")?.as_f64()?,
            vdd: v.get("vdd")?.as_f64()?,
            scaled_power: v.get("scaled_power")?.as_f64(),
            scaled_vdd: v.get("scaled_vdd")?.as_f64(),
            elapsed_s: v.get("elapsed_s")?.as_f64()?,
        })
    }
}

impl CellSet {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("benchmark".into(), Json::Str(self.benchmark.clone())),
            ("laxity".into(), Json::Num(self.laxity)),
            ("flat_area".into(), self.flat_area.to_json()),
            ("flat_power".into(), self.flat_power.to_json()),
            ("hier_area".into(), self.hier_area.to_json()),
            ("hier_power".into(), self.hier_power.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Option<CellSet> {
        Some(CellSet {
            benchmark: v.get("benchmark")?.as_str()?.to_owned(),
            laxity: v.get("laxity")?.as_f64()?,
            flat_area: CellResult::from_json(v.get("flat_area")?)?,
            flat_power: CellResult::from_json(v.get("flat_power")?)?,
            hier_area: CellResult::from_json(v.get("hier_area")?)?,
            hier_power: CellResult::from_json(v.get("hier_power")?)?,
        })
    }
}

/// Serialize cells to the cache's JSON text format.
pub fn cells_to_json(cells: &[CellSet]) -> String {
    Json::Arr(cells.iter().map(CellSet::to_json).collect()).to_string_pretty()
}

/// Parse cells back from [`cells_to_json`] output; `None` on any mismatch.
pub fn cells_from_json(text: &str) -> Option<Vec<CellSet>> {
    Json::parse(text)
        .ok()?
        .as_arr()?
        .iter()
        .map(CellSet::from_json)
        .collect()
}

/// Load cached cells if present.
pub fn load_cells() -> Option<Vec<CellSet>> {
    let text = std::fs::read_to_string(RESULTS_PATH).ok()?;
    cells_from_json(&text)
}

/// Persist cells for later aggregation.
pub fn save_cells(cells: &[CellSet]) {
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write(RESULTS_PATH, cells_to_json(cells));
}

/// Run the full Table 3 sweep (all paper benchmarks × laxities), printing
/// progress to stderr. `names` filters benchmarks when non-empty.
pub fn run_sweep(names: &[String], sweep: SweepConfig) -> Vec<CellSet> {
    let mut cells = Vec::new();
    for bench in hsyn_dfg::benchmarks::paper_suite() {
        if !names.is_empty() && !names.iter().any(|n| n == bench.name) {
            continue;
        }
        let mlib = benchmark_library(&bench);
        for &lf in &LAXITIES {
            eprint!("  {} @ L.F. {lf} ... ", bench.name);
            let t = std::time::Instant::now();
            match run_cell(&bench, &mlib, lf, sweep) {
                Ok(cell) => {
                    eprintln!("done in {:.1}s", t.elapsed().as_secs_f64());
                    cells.push(cell);
                }
                Err(e) => eprintln!("FAILED: {e}"),
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_library_offers_complex_variants() {
        let bench = hsyn_dfg::benchmarks::iir();
        let mlib = benchmark_library(&bench);
        // biquad_df2 and biquad_df1, fast + lowpower each.
        assert!(mlib.complex.len() >= 4);
        let df2 = bench.hierarchy.dfg_by_name("biquad_df2").unwrap();
        assert!(
            mlib.candidates_for(df2, hsyn_lib::papers::TABLE1_CLOCK_NS)
                .len()
                >= 2
        );
    }

    #[test]
    fn quick_cell_reproduces_table_shapes() {
        // A fast regression net for the whole harness: one cell of Table 3
        // on test1 must exhibit the paper's qualitative orderings.
        let bench = hsyn_dfg::benchmarks::test1();
        let mlib = benchmark_library(&bench);
        let cell = run_cell(&bench, &mlib, 2.2, SweepConfig::quick()).expect("cell runs");
        let row = cell.table3_row();
        // P-optimized designs consume less power than the 5 V area-opt
        // reference, in both modes.
        assert!(row.power[1] < 1.0, "flat-P {}", row.power[1]);
        assert!(row.power[3] < 1.0, "hier-P {}", row.power[3]);
        // P-optimized designs are at least as large as the area-opt
        // reference.
        assert!(row.area[1] >= 0.95, "flat-P area {}", row.area[1]);
        assert!(row.area[3] >= 0.95, "hier-P area {}", row.area[3]);
        // Aggregation works on a single cell.
        let t4 = table4_row(2.2, &[&cell]);
        assert!(t4.power_ratio_5v[0] < 1.0 && t4.power_ratio_5v[1] < 1.0);
        assert!(t4.synth_time_s[0] > 0.0 && t4.synth_time_s[1] > 0.0);
    }

    #[test]
    fn cells_round_trip_through_json() {
        let bench = hsyn_dfg::benchmarks::test1();
        let mlib = benchmark_library(&bench);
        let cell = run_cell(&bench, &mlib, 1.2, SweepConfig::quick()).expect("cell runs");
        let json = cells_to_json(std::slice::from_ref(&cell));
        let back = cells_from_json(&json).expect("deserializes");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].benchmark, cell.benchmark);
        assert_eq!(back[0].flat_area.area, cell.flat_area.area);
        assert_eq!(back[0].hier_power.power, cell.hier_power.power);
        assert_eq!(back[0].flat_area.scaled_vdd, cell.flat_area.scaled_vdd);
    }

    #[test]
    fn table_normalization_is_consistent() {
        let mk = |area: f64, power: f64| CellResult {
            area,
            power,
            vdd: 5.0,
            scaled_power: Some(power * 0.5),
            scaled_vdd: Some(3.3),
            elapsed_s: 1.0,
        };
        let cell = CellSet {
            benchmark: "x".into(),
            laxity: 1.2,
            flat_area: mk(100.0, 10.0),
            flat_power: mk(130.0, 6.0),
            hier_area: mk(105.0, 9.0),
            hier_power: mk(140.0, 5.0),
        };
        let row = cell.table3_row();
        assert_eq!(row.area, [1.0, 1.3, 1.05, 1.4]);
        assert_eq!(row.power, [1.0, 0.6, 0.9, 0.5]);
        let t4 = table4_row(1.2, &[&cell]);
        assert!((t4.area_ratio[0] - 1.3).abs() < 1e-12);
        assert!((t4.power_ratio_scaled[0] - 6.0 / 5.0).abs() < 1e-12);
    }
}
