//! The `hsyn serve` wire protocol: JSON payloads inside length-prefixed
//! frames (see [`hsyn_util::frame`]).
//!
//! Every request carries a client-chosen `seq`; every response echoes the
//! `seq` of the request it answers, so one connection can hold multiple
//! requests in flight. Request types: `ping`, `submit`, `stats`, `cancel`,
//! `shutdown`. Response types: `pong`, `result`, `stats`, `cancel_ack`,
//! `shutdown_ack`, `error`.
//!
//! A [`JobSpec`] is one synthesis job wherever it runs. The one-shot CLI
//! builds it from the same flags as `hsyn submit`, and the CLI and the
//! daemon worker both turn it into `synthesize` inputs through
//! [`JobSpec::resolve`]. Benchmark and library names, text parsing and
//! the size limits all live there, so a served job and a one-shot run of
//! the same spec are the same computation by construction.

use std::fmt;
use std::ops::RangeInclusive;

use hsyn_core::{Budget, Objective, SynthesisConfig};
use hsyn_dfg::benchmarks::{self, Benchmark};
use hsyn_dfg::{text, Hierarchy};
use hsyn_lib::{papers::table1_library, Library};
use hsyn_rtl::ModuleLibrary;
use hsyn_util::Json;

/// Protocol version, embedded in the content-addressed job key so a
/// protocol change can never resurrect a stale cached response.
pub const PROTO_VERSION: u64 = 1;

/// Longest evaluation or report trace a job may ask for, in samples: 16
/// times the longest in-repo trace (the 256-sample default report trace).
pub const MAX_TRACE_LEN: usize = 4_096;

/// Most LNS iterations a job may ask for: 64 times the most any in-repo
/// run uses (`--lns-iters 64`).
pub const MAX_LNS_ITERS: usize = 4_096;

/// What behavior a job synthesizes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSource {
    /// A built-in benchmark, by registry name.
    Bench(String),
    /// A textual hierarchical DFG (the `.dfg` format).
    Text(String),
}

/// Why a job cannot run. The daemon answers each with `bad_request`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// No built-in benchmark has this name.
    UnknownBenchmark(String),
    /// No component library has this name.
    UnknownLibrary(String),
    /// The text source does not parse, or its hierarchy is invalid.
    Source(String),
    /// A size knob is outside its fixed range.
    OutOfRange {
        /// The knob, as the job and the CLI name it.
        field: &'static str,
        /// The requested value.
        value: usize,
        /// The allowed values.
        range: RangeInclusive<usize>,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::UnknownBenchmark(name) => {
                let names: Vec<&str> = benchmarks::all().iter().map(|b| b.name).collect();
                write!(
                    f,
                    "unknown benchmark `{name}`; available benchmarks: {}",
                    names.join(", ")
                )
            }
            JobError::UnknownLibrary(name) => write!(
                f,
                "unknown library `{name}`; available libraries: table1, realistic"
            ),
            JobError::Source(msg) => f.write_str(msg),
            JobError::OutOfRange {
                field,
                value,
                range,
            } => write!(
                f,
                "{field} is {value}; it must be from {} to {}",
                range.start(),
                range.end()
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// The built-in benchmark called `name`.
pub fn named_benchmark(name: &str) -> Result<Benchmark, JobError> {
    benchmarks::by_name(name).ok_or_else(|| JobError::UnknownBenchmark(name.to_owned()))
}

/// The component library called `name`: `table1` (the paper's Table 1)
/// or `realistic`.
pub fn named_library(name: &str) -> Result<Library, JobError> {
    match name {
        "table1" => Ok(table1_library()),
        "realistic" => Ok(Library::realistic()),
        _ => Err(JobError::UnknownLibrary(name.to_owned())),
    }
}

/// `Ok` if `value` lies in `range`, else a [`JobError::OutOfRange`]
/// naming `field`.
fn check(field: &'static str, value: usize, range: RangeInclusive<usize>) -> Result<(), JobError> {
    if range.contains(&value) {
        Ok(())
    } else {
        Err(JobError::OutOfRange {
            field,
            value,
            range,
        })
    }
}

/// One synthesis job: what the one-shot CLI runs and what `hsyn submit`
/// sends over the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The behavior to synthesize.
    pub source: JobSource,
    /// Optimization objective.
    pub objective: Objective,
    /// Sampling-period laxity factor.
    pub laxity: f64,
    /// Explicit sampling period (overrides `laxity`), ns.
    pub period_ns: Option<f64>,
    /// Component library name (`table1` or `realistic`).
    pub library: String,
    /// Trace RNG seed override.
    pub seed: Option<u64>,
    /// Flattened-baseline synthesis.
    pub flat: bool,
    /// Large-neighborhood refinement iterations.
    pub lns_iters: usize,
    /// Search-budget overrides.
    pub budget: Option<Budget>,
    /// Per-job deadline, milliseconds from dequeue; expiry aborts the job
    /// with a structured `deadline` error.
    pub deadline_ms: Option<u64>,
    /// Client-chosen label for targeted `cancel` requests.
    pub tag: Option<String>,
    /// Also return structural Verilog for the winning design.
    pub want_verilog: bool,
    /// Bypass the daemon's content-addressed response cache for this job:
    /// it is synthesized, and its answer is not stored.
    pub no_cache: bool,
}

impl JobSpec {
    /// A default job for `source`: objective power, laxity 2.2, library
    /// `realistic`, hierarchical, the engine's seed and no LNS. These are
    /// also the one-shot CLI's defaults, because the CLI starts from this
    /// spec.
    pub fn new(source: JobSource) -> Self {
        JobSpec {
            source,
            objective: Objective::Power,
            laxity: 2.2,
            period_ns: None,
            library: "realistic".to_owned(),
            seed: None,
            flat: false,
            lns_iters: 0,
            budget: None,
            deadline_ms: None,
            tag: None,
            want_verilog: false,
            no_cache: false,
        }
    }

    /// The [`SynthesisConfig`] this job runs under, unchecked: use
    /// [`resolve`](Self::resolve) to run a job. `cancel` is a runtime hook,
    /// inert with respect to result bytes.
    ///
    /// The second parameter is always `None`: it held a cross-job area
    /// store, since removed, and stays so that existing two-argument
    /// callers keep compiling. [`Infallible`](std::convert::Infallible)
    /// has no values, so nothing can be passed there.
    pub fn to_config(
        &self,
        cancel: Option<hsyn_core::CancelToken>,
        _retired: Option<std::convert::Infallible>,
    ) -> SynthesisConfig {
        let mut config = SynthesisConfig::new(self.objective);
        config.laxity_factor = self.laxity;
        config.sampling_period_ns = self.period_ns;
        config.hierarchical = !self.flat;
        if let Some(s) = self.seed {
            config.seed = s;
        }
        config.lns_iters = self.lns_iters;
        if let Some(b) = &self.budget {
            b.apply(&mut config);
        }
        config.cancel = cancel;
        config
    }

    /// Everything `synthesize` takes for this job: the behavior, the
    /// component library with the behavior's equivalences, and the config
    /// (no cancel token).
    ///
    /// # Errors
    ///
    /// An unknown benchmark or library name, a text source that does not
    /// parse or validate, or a trace length or LNS iteration count outside
    /// `1..=`[`MAX_TRACE_LEN`] or `0..=`[`MAX_LNS_ITERS`].
    pub fn resolve(&self) -> Result<(Hierarchy, ModuleLibrary, SynthesisConfig), JobError> {
        let (hierarchy, equiv) = match &self.source {
            JobSource::Bench(name) => {
                let b = named_benchmark(name)?;
                (b.hierarchy, b.equiv)
            }
            JobSource::Text(src) => {
                let parsed = text::parse(src).map_err(|e| JobError::Source(e.to_string()))?;
                parsed
                    .hierarchy
                    .validate()
                    .map_err(|e| JobError::Source(e.to_string()))?;
                (parsed.hierarchy, parsed.equiv)
            }
        };
        let mut library = ModuleLibrary::from_simple(named_library(&self.library)?);
        library.equiv = equiv;
        let config = self.to_config(None, None);
        let trace = 1..=MAX_TRACE_LEN;
        check(
            "budget.eval_trace_len",
            config.eval_trace_len,
            trace.clone(),
        )?;
        check("budget.report_trace_len", config.report_trace_len, trace)?;
        check(
            "lns_iters (--lns-iters)",
            config.lns_iters,
            0..=MAX_LNS_ITERS,
        )?;
        Ok((hierarchy, library, config))
    }

    /// The canonical JSON rendering of everything that affects this job's
    /// *result bytes*: protocol version, source, library, and every
    /// result-affecting knob, in fixed field order. Excluded on purpose:
    /// `deadline_ms`, `tag`, and `no_cache` (they affect whether/how a
    /// result is produced, never its bytes). `want_verilog` is included
    /// because it changes the cached payload shape.
    pub fn canonical_json(&self) -> Json {
        fn num(v: usize) -> Json {
            Json::Num(v as f64)
        }
        let (src_kind, src_body) = match &self.source {
            JobSource::Bench(name) => ("bench", name.clone()),
            JobSource::Text(text) => ("text", text.clone()),
        };
        let budget = self.budget.unwrap_or_default();
        fn opt_num(v: Option<usize>) -> Json {
            v.map_or(Json::Null, |v| Json::Num(v as f64))
        }
        Json::Obj(vec![
            ("proto".to_owned(), Json::Num(PROTO_VERSION as f64)),
            ("source_kind".to_owned(), Json::Str(src_kind.to_owned())),
            ("source".to_owned(), Json::Str(src_body)),
            (
                "objective".to_owned(),
                Json::Str(
                    match self.objective {
                        Objective::Area => "area",
                        Objective::Power => "power",
                    }
                    .to_owned(),
                ),
            ),
            (
                "laxity_bits".to_owned(),
                Json::Str(format!("{:016x}", self.laxity.to_bits())),
            ),
            (
                "period_bits".to_owned(),
                self.period_ns
                    .map_or(Json::Null, |p| Json::Str(format!("{:016x}", p.to_bits()))),
            ),
            ("library".to_owned(), Json::Str(self.library.clone())),
            (
                "seed".to_owned(),
                self.seed
                    .map_or(Json::Null, |s| Json::Str(format!("{s:016x}"))),
            ),
            ("flat".to_owned(), Json::Bool(self.flat)),
            ("lns_iters".to_owned(), num(self.lns_iters)),
            ("max_passes".to_owned(), opt_num(budget.max_passes)),
            (
                "candidate_limit".to_owned(),
                opt_num(budget.candidate_limit),
            ),
            ("eval_trace_len".to_owned(), opt_num(budget.eval_trace_len)),
            (
                "report_trace_len".to_owned(),
                opt_num(budget.report_trace_len),
            ),
            (
                "max_clock_candidates".to_owned(),
                opt_num(budget.max_clock_candidates),
            ),
            ("resynth_depth".to_owned(), opt_num(budget.resynth_depth)),
            ("want_verilog".to_owned(), Json::Bool(self.want_verilog)),
        ])
    }

    /// The content-addressed cache key for this job: a stable 128-bit hash
    /// of [`canonical_json`](Self::canonical_json), as 32 hex characters.
    pub fn cache_key(&self) -> String {
        hsyn_util::content_key(self.canonical_json().to_string_pretty().as_bytes())
    }

    /// The wire form of this job (round-trips through [`parse_job`]).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        match &self.source {
            JobSource::Bench(name) => fields.push(("bench".to_owned(), Json::Str(name.clone()))),
            JobSource::Text(text) => fields.push(("text".to_owned(), Json::Str(text.clone()))),
        }
        fields.push((
            "objective".to_owned(),
            Json::Str(
                match self.objective {
                    Objective::Area => "area",
                    Objective::Power => "power",
                }
                .to_owned(),
            ),
        ));
        fields.push(("laxity".to_owned(), Json::Num(self.laxity)));
        if let Some(p) = self.period_ns {
            fields.push(("period_ns".to_owned(), Json::Num(p)));
        }
        fields.push(("library".to_owned(), Json::Str(self.library.clone())));
        if let Some(s) = self.seed {
            fields.push(("seed".to_owned(), Json::Num(s as f64)));
        }
        if self.flat {
            fields.push(("flat".to_owned(), Json::Bool(true)));
        }
        if self.lns_iters > 0 {
            fields.push(("lns_iters".to_owned(), Json::Num(self.lns_iters as f64)));
        }
        if let Some(b) = &self.budget {
            let mut bf: Vec<(String, Json)> = Vec::new();
            let pairs = [
                ("max_passes", b.max_passes),
                ("candidate_limit", b.candidate_limit),
                ("eval_trace_len", b.eval_trace_len),
                ("report_trace_len", b.report_trace_len),
                ("max_clock_candidates", b.max_clock_candidates),
                ("resynth_depth", b.resynth_depth),
            ];
            for (k, v) in pairs {
                if let Some(v) = v {
                    bf.push((k.to_owned(), Json::Num(v as f64)));
                }
            }
            fields.push(("budget".to_owned(), Json::Obj(bf)));
        }
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".to_owned(), Json::Num(d as f64)));
        }
        if let Some(t) = &self.tag {
            fields.push(("tag".to_owned(), Json::Str(t.clone())));
        }
        if self.want_verilog {
            fields.push(("want_verilog".to_owned(), Json::Bool(true)));
        }
        if self.no_cache {
            fields.push(("no_cache".to_owned(), Json::Bool(true)));
        }
        Json::Obj(fields)
    }
}

/// Read a `bool` field, defaulting to `false`.
fn bool_field(obj: &Json, key: &str) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("job field `{key}` must be a boolean")),
    }
}

/// Read a non-negative integer field.
fn usize_field(obj: &Json, key: &str) -> Result<Option<usize>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => match v.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64 => Ok(Some(n as usize)),
            _ => Err(format!("job field `{key}` must be a non-negative integer")),
        },
    }
}

/// Parse a wire-form job object into a [`JobSpec`]. Strict: unknown
/// fields, wrong types, and missing/ambiguous sources are structured
/// errors, never panics — this is the surface adversarial clients hit.
pub fn parse_job(v: &Json) -> Result<JobSpec, String> {
    let Json::Obj(fields) = v else {
        return Err("job must be a JSON object".to_owned());
    };
    const KNOWN: &[&str] = &[
        "bench",
        "text",
        "objective",
        "laxity",
        "period_ns",
        "library",
        "seed",
        "flat",
        "lns_iters",
        "budget",
        "deadline_ms",
        "tag",
        "want_verilog",
        "no_cache",
    ];
    for (k, _) in fields {
        if !KNOWN.contains(&k.as_str()) {
            return Err(format!("unknown job field `{k}`"));
        }
    }
    let source = match (v.get("bench"), v.get("text")) {
        (Some(Json::Str(name)), None) => JobSource::Bench(name.clone()),
        (None, Some(Json::Str(text))) => JobSource::Text(text.clone()),
        (Some(_), Some(_)) => return Err("job must have exactly one of `bench`/`text`".to_owned()),
        _ => return Err("job needs a `bench` name or `text` DFG source (string)".to_owned()),
    };
    let mut job = JobSpec::new(source);
    match v.get("objective").and_then(Json::as_str) {
        None if v.get("objective").is_none() => {}
        Some("area") => job.objective = Objective::Area,
        Some("power") => job.objective = Objective::Power,
        _ => return Err("job field `objective` must be \"area\" or \"power\"".to_owned()),
    }
    if let Some(l) = v.get("laxity") {
        match l.as_f64() {
            Some(f) if f > 0.0 && f.is_finite() => job.laxity = f,
            _ => return Err("job field `laxity` must be a positive number".to_owned()),
        }
    }
    if let Some(p) = v.get("period_ns") {
        match p.as_f64() {
            Some(f) if f > 0.0 && f.is_finite() => job.period_ns = Some(f),
            _ => return Err("job field `period_ns` must be a positive number".to_owned()),
        }
    }
    if let Some(lib) = v.get("library") {
        match lib.as_str() {
            Some(s) => job.library = s.to_owned(),
            None => return Err("job field `library` must be a string".to_owned()),
        }
    }
    if let Some(s) = v.get("seed") {
        match s.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => job.seed = Some(n as u64),
            _ => return Err("job field `seed` must be a non-negative integer".to_owned()),
        }
    }
    job.flat = bool_field(v, "flat")?;
    if let Some(n) = usize_field(v, "lns_iters")? {
        job.lns_iters = n;
    }
    if let Some(b) = v.get("budget") {
        let Json::Obj(bfields) = b else {
            return Err("job field `budget` must be an object".to_owned());
        };
        const BKNOWN: &[&str] = &[
            "max_passes",
            "candidate_limit",
            "eval_trace_len",
            "report_trace_len",
            "max_clock_candidates",
            "resynth_depth",
        ];
        for (k, _) in bfields {
            if !BKNOWN.contains(&k.as_str()) {
                return Err(format!("unknown budget field `{k}`"));
            }
        }
        job.budget = Some(Budget {
            max_passes: usize_field(b, "max_passes")?,
            candidate_limit: usize_field(b, "candidate_limit")?,
            eval_trace_len: usize_field(b, "eval_trace_len")?,
            report_trace_len: usize_field(b, "report_trace_len")?,
            max_clock_candidates: usize_field(b, "max_clock_candidates")?,
            resynth_depth: usize_field(b, "resynth_depth")?,
        });
    }
    if let Some(n) = usize_field(v, "deadline_ms")? {
        job.deadline_ms = Some(n as u64);
    }
    if let Some(t) = v.get("tag") {
        match t.as_str() {
            Some(s) => job.tag = Some(s.to_owned()),
            None => return Err("job field `tag` must be a string".to_owned()),
        }
    }
    job.want_verilog = bool_field(v, "want_verilog")?;
    job.no_cache = bool_field(v, "no_cache")?;
    Ok(job)
}

/// Build an `error` response frame body.
pub fn error_response(seq: Option<f64>, kind: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("type".to_owned(), Json::Str("error".to_owned())),
        ("seq".to_owned(), seq.map_or(Json::Null, Json::Num)),
        ("kind".to_owned(), Json::Str(kind.to_owned())),
        ("message".to_owned(), Json::Str(message.to_owned())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(job: &JobSpec) -> JobSpec {
        let wire = job.to_json().to_string_pretty();
        parse_job(&Json::parse(&wire).unwrap()).unwrap()
    }

    #[test]
    fn wire_round_trip_preserves_every_field() {
        let mut job = JobSpec::new(JobSource::Bench("paulin".into()));
        assert_eq!(round_trip(&job), job);
        job.objective = Objective::Area;
        job.laxity = 3.25;
        job.period_ns = Some(140.5);
        job.library = "table1".into();
        job.seed = Some(42);
        job.flat = true;
        job.lns_iters = 3;
        job.budget = Some(Budget {
            max_passes: Some(2),
            candidate_limit: Some(2),
            eval_trace_len: Some(8),
            report_trace_len: Some(16),
            max_clock_candidates: Some(2),
            resynth_depth: Some(1),
        });
        job.deadline_ms = Some(5000);
        job.tag = Some("batch-7".into());
        job.want_verilog = true;
        job.no_cache = true;
        assert_eq!(round_trip(&job), job);
        let text = JobSpec::new(JobSource::Text("dfg top\nin a\nout z = a\n".into()));
        assert_eq!(round_trip(&text), text);
    }

    #[test]
    fn cache_key_ignores_non_semantic_fields_only() {
        let base = JobSpec::new(JobSource::Bench("paulin".into()));
        let key = base.cache_key();
        // Non-semantic knobs share the key...
        let mut same = base.clone();
        same.deadline_ms = Some(10);
        same.tag = Some("x".into());
        same.no_cache = true;
        assert_eq!(same.cache_key(), key);
        // ...every result-affecting knob forks it.
        for tweak in [
            |j: &mut JobSpec| j.objective = Objective::Area,
            |j: &mut JobSpec| j.laxity = 1.7,
            |j: &mut JobSpec| j.period_ns = Some(99.0),
            |j: &mut JobSpec| j.library = "table1".into(),
            |j: &mut JobSpec| j.seed = Some(7),
            |j: &mut JobSpec| j.flat = true,
            |j: &mut JobSpec| j.lns_iters = 2,
            |j: &mut JobSpec| {
                j.budget = Some(Budget {
                    max_passes: Some(2),
                    ..Budget::default()
                })
            },
            |j: &mut JobSpec| j.want_verilog = true,
            |j: &mut JobSpec| j.source = JobSource::Bench("fir8".into()),
            |j: &mut JobSpec| j.source = JobSource::Text("paulin".into()),
        ] {
            let mut forked = base.clone();
            tweak(&mut forked);
            assert_ne!(forked.cache_key(), key, "{forked:?} must fork the key");
        }
    }

    #[test]
    fn hostile_jobs_fail_with_structured_messages() {
        for (src, want) in [
            ("[1,2]", "must be a JSON object"),
            ("{}", "`bench` name or `text` DFG"),
            (r#"{"bench":"a","text":"b"}"#, "exactly one"),
            (r#"{"bench":"a","zzz":1}"#, "unknown job field `zzz`"),
            (r#"{"bench":"a","objective":"speed"}"#, "`objective`"),
            (r#"{"bench":"a","laxity":-1}"#, "`laxity`"),
            (r#"{"bench":"a","seed":1.5}"#, "`seed`"),
            (
                r#"{"bench":"a","budget":{"nope":1}}"#,
                "unknown budget field",
            ),
            (r#"{"bench":"a","deadline_ms":-3}"#, "`deadline_ms`"),
            (r#"{"bench":"a","flat":"yes"}"#, "`flat`"),
        ] {
            let v = Json::parse(src).unwrap();
            let err = parse_job(&v).unwrap_err();
            assert!(err.contains(want), "{src}: {err}");
        }
    }

    #[test]
    fn resolve_rejects_bad_names_sources_and_sizes() {
        let bench = |edit: fn(&mut JobSpec)| {
            let mut job = JobSpec::new(JobSource::Bench("paulin".into()));
            edit(&mut job);
            job.resolve().map(|_| ()).unwrap_err().to_string()
        };
        for (err, want) in [
            (
                bench(|j| j.source = JobSource::Bench("nope".into())),
                "unknown benchmark `nope`; available benchmarks: ",
            ),
            (
                bench(|j| j.library = "nope".into()),
                "unknown library `nope`",
            ),
            (
                bench(|j| j.source = JobSource::Text("dfg {".into())),
                "line 1",
            ),
            (
                bench(|j| {
                    j.budget = Some(Budget {
                        eval_trace_len: Some(0),
                        ..Budget::default()
                    })
                }),
                "budget.eval_trace_len is 0; it must be from 1 to 4096",
            ),
            (
                bench(|j| {
                    j.budget = Some(Budget {
                        report_trace_len: Some(MAX_TRACE_LEN + 1),
                        ..Budget::default()
                    })
                }),
                "budget.report_trace_len is 4097; it must be from 1 to 4096",
            ),
            (
                bench(|j| j.lns_iters = MAX_LNS_ITERS + 1),
                "lns_iters (--lns-iters) is 4097; it must be from 0 to 4096",
            ),
        ] {
            assert!(err.contains(want), "{err:?} lacks {want:?}");
        }
    }

    #[test]
    fn resolve_accepts_the_limits_themselves() {
        let mut job = JobSpec::new(JobSource::Bench("paulin".into()));
        job.lns_iters = MAX_LNS_ITERS;
        job.budget = Some(Budget {
            eval_trace_len: Some(1),
            report_trace_len: Some(MAX_TRACE_LEN),
            ..Budget::default()
        });
        let (_, _, config) = job.resolve().expect("in range");
        assert_eq!(config.lns_iters, MAX_LNS_ITERS);
        assert_eq!(config.eval_trace_len, 1);
        assert_eq!(config.report_trace_len, MAX_TRACE_LEN);
    }
}
