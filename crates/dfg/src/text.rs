//! A small line-oriented textual format for hierarchical DFGs, mirroring the
//! paper's "textual description of the hierarchical DFG" that `H-SYN` reads.
//!
//! # Grammar (line oriented, `#` starts a comment)
//!
//! ```text
//! dfg <name> {
//!   input <name>
//!   const <name> = <int>
//!   mem <name> <words> [width <w>] [ports <p>] [banks <b>] [external]
//!   <name> = <op> <operand> ...          # primitive operation
//!   <name> = load <mem-name> <operand>   # memory read (operand = address)
//!   store <mem-name> <operand> <operand> # memory write (address, data)
//!   <name> = call <dfg-name> <operand> ... [using <mem-name> ...]
//!   output <name> = <operand>
//! }
//! top <dfg-name>
//! equiv <dfg-name> <dfg-name> ...        # declare functional equivalence
//! ```
//!
//! A call hierarchy is at most [`MAX_HIER_DEPTH`] levels deep. A memory
//! holds between 1 and [`MAX_MEM_WORDS`] words, split over at
//! most as many banks as it has words, each with at most
//! [`MAX_MEM_PORTS`] ports. A memory marked
//! `external` is part of the DFG's call interface: each
//! call site binds one caller memory per callee external memory with
//! `using`, in the callee's declaration order. Loads and stores execute in
//! the order they appear in the block (program order).
//!
//! An operand is `<node-name>`, optionally with an output port suffix
//! (`f.1`) and/or an inter-iteration delay suffix (`acc@1`). Forward
//! references are allowed, so feedback loops parse naturally:
//!
//! ```
//! let src = "
//! dfg acc {
//!   input x
//!   s = add x s@1
//!   output y = s
//! }
//! top acc
//! ";
//! let parsed = hsyn_dfg::text::parse(src).expect("parses");
//! parsed.hierarchy.validate().expect("well-formed");
//! ```

use crate::{
    Dfg, DfgId, EquivClasses, Hierarchy, MemId, MemObject, MemScope, NodeId, NodeKind, Operation,
    VarRef,
};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Largest word count a `mem` line may declare. The simulators and the
/// co-simulator allocate every word of every bank up front, so an
/// unchecked count from untrusted text (`mem m 4000000000`) would abort
/// the process on a failed allocation; every in-repo memory has at most 16
/// words.
pub const MAX_MEM_WORDS: u32 = 65_536;

/// Largest per-bank port count a `mem` line may declare. The scheduler
/// chains same-bank accesses `ports` apart and the controller drives an
/// enable and a write strobe per bank port, so together with the bank
/// limit (at most one bank per word) this bounds both at parse time; every
/// in-repo memory has at most 2 ports.
pub const MAX_MEM_PORTS: u32 = 16;

/// Deepest call hierarchy a description may declare, counted as
/// [`Hierarchy::depth`] counts it (1 for a DFG without calls). Validation,
/// flattening, fingerprinting and synthesis recurse once per level, so an
/// unchecked chain of calls from untrusted text overflows a thread's stack
/// (a 2,000-level chain aborted the daemon) or runs for minutes (a 64-level
/// chain took 19 s); the deepest registry benchmark has depth 3.
pub const MAX_HIER_DEPTH: usize = 16;

/// Result of parsing a textual description.
#[derive(Clone, Debug)]
pub struct Parsed {
    /// The hierarchy (top set if a `top` line was present).
    pub hierarchy: Hierarchy,
    /// Equivalence classes declared with `equiv` lines.
    pub equiv: EquivClasses,
}

/// A parse error with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number the error was detected on.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// One statement inside a `dfg` block, pre-resolution.
enum Stmt {
    Input(String),
    Const(String, i64),
    Mem {
        name: String,
        words: u32,
        width: u32,
        ports: u32,
        banks: u32,
        external: bool,
    },
    Op(String, Operation, Vec<OperandTok>),
    /// `<name> = load <mem> <addr>`
    Load(String, String, OperandTok),
    /// `store <mem> <addr> <data>`
    Store(String, OperandTok, OperandTok),
    /// `<name> = call <dfg> <operands...> [using <mems...>]`
    Call(String, String, Vec<OperandTok>, Vec<String>),
    Output(String, OperandTok),
}

/// `name[.port][@delay]`
struct OperandTok {
    name: String,
    port: u16,
    delay: u32,
    line: usize,
}

fn parse_operand(tok: &str, line: usize) -> Result<OperandTok, ParseError> {
    let (rest, delay) = match tok.split_once('@') {
        Some((r, d)) => (
            r,
            d.parse::<u32>().map_err(|_| ParseError {
                line,
                message: format!("bad delay suffix in operand `{tok}`"),
            })?,
        ),
        None => (tok, 0),
    };
    let (name, port) = match rest.rsplit_once('.') {
        Some((n, p)) if p.chars().all(|c| c.is_ascii_digit()) && !n.is_empty() => (
            n,
            p.parse::<u16>().map_err(|_| ParseError {
                line,
                message: format!("bad port suffix in operand `{tok}`"),
            })?,
        ),
        _ => (rest, 0),
    };
    if name.is_empty() {
        return err(line, format!("empty operand `{tok}`"));
    }
    Ok(OperandTok {
        name: name.to_owned(),
        port,
        delay,
        line,
    })
}

/// Parse a complete textual description.
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the offending line on any syntax or
/// reference error (unknown operation, undefined operand or DFG name,
/// duplicate node names, missing `top`, ...). The returned hierarchy is *not*
/// validated; call [`Hierarchy::validate`] for structural checks.
pub fn parse(src: &str) -> Result<Parsed, ParseError> {
    // Pass 1: split into blocks and file-level statements.
    let mut blocks: Vec<Block> = Vec::new();
    let mut current: Option<Block> = None;
    let mut top_name: Option<(String, usize)> = None;
    let mut equiv_lines: Vec<(Vec<String>, usize)> = Vec::new();

    for (i, raw) in src.lines().enumerate() {
        let lno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match current {
            None => match toks[0] {
                "dfg" => {
                    if toks.len() != 3 || toks[2] != "{" {
                        return err(lno, "expected `dfg <name> {`");
                    }
                    current = Some(Block {
                        name: toks[1].to_owned(),
                        line: lno,
                        stmts: Vec::new(),
                    });
                }
                "top" => {
                    if toks.len() != 2 {
                        return err(lno, "expected `top <dfg-name>`");
                    }
                    top_name = Some((toks[1].to_owned(), lno));
                }
                "equiv" => {
                    if toks.len() < 3 {
                        return err(lno, "expected `equiv <name> <name> ...`");
                    }
                    equiv_lines.push((toks[1..].iter().map(|s| s.to_string()).collect(), lno));
                }
                other => return err(lno, format!("unexpected token `{other}` at file level")),
            },
            Some(ref mut block) => {
                if toks[0] == "}" {
                    if let Some(b) = current.take() {
                        blocks.push(b);
                    }
                    continue;
                }
                let stmt = parse_stmt(&toks, lno)?;
                block.stmts.push((lno, stmt));
            }
        }
    }
    if let Some(b) = current {
        return err(
            b.line,
            format!("dfg `{}` is missing its closing `}}`", b.name),
        );
    }
    check_depth(&blocks)?;

    // Pass 2: create DFGs and a name → id map.
    let mut hierarchy = Hierarchy::new();
    let mut dfg_ids: HashMap<String, DfgId> = HashMap::new();
    for b in &blocks {
        if dfg_ids.contains_key(&b.name) {
            return err(b.line, format!("duplicate dfg name `{}`", b.name));
        }
        let id = hierarchy.add_dfg(Dfg::new(b.name.clone()));
        dfg_ids.insert(b.name.clone(), id);
    }

    // Pass 3: build each DFG. Two sub-passes per block: create nodes, then
    // connect operands (allowing forward references for feedback).
    for b in &blocks {
        let gid = dfg_ids[&b.name];
        let mut names: HashMap<String, NodeId> = HashMap::new();
        let mut mem_ids: HashMap<String, MemId> = HashMap::new();
        // `store` statements have no name; remember their nodes by
        // statement index for the connection pass.
        let mut store_nodes: HashMap<usize, NodeId> = HashMap::new();
        // Sub-pass A0: memories, so loads/stores may forward-reference them.
        {
            let g = hierarchy.dfg_mut(gid);
            for (lno, stmt) in &b.stmts {
                if let Stmt::Mem {
                    name,
                    words,
                    width,
                    ports,
                    banks,
                    external,
                } = stmt
                {
                    if mem_ids.contains_key(name) {
                        return err(
                            *lno,
                            format!("duplicate memory name `{name}` in dfg `{}`", b.name),
                        );
                    }
                    let m = if *external {
                        MemObject::external(name.clone(), *words, *width)
                    } else {
                        MemObject::owned(name.clone(), *words, *width)
                    };
                    mem_ids.insert(
                        name.clone(),
                        g.add_mem(m.with_ports(*ports).with_banks(*banks)),
                    );
                }
            }
        }
        // Sub-pass A: nodes, in statement order (loads/stores keep their
        // program order this way).
        {
            let g = hierarchy.dfg_mut(gid);
            let mut store_count = 0usize;
            for (si, (lno, stmt)) in b.stmts.iter().enumerate() {
                let (name, node) = match stmt {
                    Stmt::Input(n) => (n, g.add_input(n.clone()).node),
                    Stmt::Const(n, v) => (n, g.add_const(n.clone(), *v).node),
                    Stmt::Op(n, op, _) => (n, g.add_op_detached(*op, n.clone())),
                    Stmt::Load(n, mem, _) => {
                        let mid = match mem_ids.get(mem) {
                            Some(&id) => id,
                            None => {
                                return err(
                                    *lno,
                                    format!("unknown memory `{mem}` in dfg `{}`", b.name),
                                )
                            }
                        };
                        (n, g.add_load_detached(mid, n.clone()))
                    }
                    Stmt::Store(mem, _, _) => {
                        let mid = match mem_ids.get(mem) {
                            Some(&id) => id,
                            None => {
                                return err(
                                    *lno,
                                    format!("unknown memory `{mem}` in dfg `{}`", b.name),
                                )
                            }
                        };
                        store_count += 1;
                        let node = g.add_store_detached(mid, format!("st_{mem}_{store_count}"));
                        store_nodes.insert(si, node);
                        continue;
                    }
                    Stmt::Call(n, callee, _, using) => {
                        let callee_id = match dfg_ids.get(callee) {
                            Some(&id) => id,
                            None => return err(*lno, format!("unknown dfg `{callee}` in call")),
                        };
                        let mut binds = Vec::with_capacity(using.len());
                        for u in using {
                            match mem_ids.get(u) {
                                Some(&id) => binds.push(id),
                                None => {
                                    return err(
                                        *lno,
                                        format!("unknown memory `{u}` in dfg `{}`", b.name),
                                    )
                                }
                            }
                        }
                        (n, g.add_hier_with_mems(callee_id, n.clone(), &[], &binds))
                    }
                    Stmt::Mem { .. } => continue,
                    Stmt::Output(..) => {
                        // Deferred: add_output needs its source; create in
                        // sub-pass B to keep output ordering by appearance.
                        continue;
                    }
                };
                if names.insert(name.clone(), node).is_some() {
                    return err(
                        *lno,
                        format!("duplicate node name `{name}` in dfg `{}`", b.name),
                    );
                }
            }
        }
        // Sub-pass B: connections and outputs.
        for (si, (lno, stmt)) in b.stmts.iter().enumerate() {
            let resolve = |tok: &OperandTok| -> Result<VarRef, ParseError> {
                match names.get(&tok.name) {
                    Some(&n) => Ok(VarRef::new(n, tok.port)),
                    None => err(
                        tok.line,
                        format!("operand `{}` is not defined in dfg `{}`", tok.name, b.name),
                    ),
                }
            };
            match stmt {
                Stmt::Op(n, _, operands) | Stmt::Call(n, _, operands, _) => {
                    let node = names[n];
                    for (port, tok) in operands.iter().enumerate() {
                        let src = resolve(tok)?;
                        hierarchy
                            .dfg_mut(gid)
                            .connect(src, node, port as u16, tok.delay);
                    }
                }
                Stmt::Load(n, _, addr) => {
                    let node = names[n];
                    let src = resolve(addr)?;
                    hierarchy.dfg_mut(gid).connect(src, node, 0, addr.delay);
                }
                Stmt::Store(_, addr, data) => {
                    let node = store_nodes[&si];
                    let a = resolve(addr)?;
                    hierarchy.dfg_mut(gid).connect(a, node, 0, addr.delay);
                    let d = resolve(data)?;
                    hierarchy.dfg_mut(gid).connect(d, node, 1, data.delay);
                }
                Stmt::Output(n, tok) => {
                    let src = resolve(tok)?;
                    let _ = lno;
                    hierarchy
                        .dfg_mut(gid)
                        .add_output_delayed(n.clone(), src, tok.delay);
                }
                _ => {}
            }
        }
    }

    // Top and equivalences.
    if let Some((name, lno)) = top_name {
        match dfg_ids.get(&name) {
            Some(&id) => hierarchy.set_top(id),
            None => return err(lno, format!("top references unknown dfg `{name}`")),
        }
    }
    let mut equiv = EquivClasses::new();
    for (names, lno) in equiv_lines {
        let mut ids = Vec::new();
        for n in &names {
            match dfg_ids.get(n) {
                Some(&id) => ids.push(id),
                None => return err(lno, format!("equiv references unknown dfg `{n}`")),
            }
        }
        equiv.declare_equivalent(&ids);
    }

    Ok(Parsed { hierarchy, equiv })
}

/// A parsed `dfg` block, before its DFG is built.
struct Block {
    name: String,
    line: usize,
    stmts: Vec<(usize, Stmt)>,
}

/// Reject a call hierarchy deeper than [`MAX_HIER_DEPTH`], before anything
/// is built. Iterative, so the check itself cannot overflow the stack.
/// Calls of unknown DFGs are left to the build pass and recursive calls to
/// [`Hierarchy::validate`], which report them; both count as depth 0 here.
fn check_depth(blocks: &[Block]) -> Result<(), ParseError> {
    let mut index: HashMap<&str, usize> = HashMap::with_capacity(blocks.len());
    for (i, b) in blocks.iter().enumerate() {
        index.entry(b.name.as_str()).or_insert(i);
    }
    let callees: Vec<Vec<usize>> = blocks
        .iter()
        .map(|b| {
            b.stmts
                .iter()
                .filter_map(|(_, s)| match s {
                    Stmt::Call(_, callee, _, _) => index.get(callee.as_str()).copied(),
                    _ => None,
                })
                .collect()
        })
        .collect();
    // depth[i] == 0: not computed yet.
    let mut depth = vec![0usize; blocks.len()];
    let mut on_stack = vec![false; blocks.len()];
    for root in 0..blocks.len() {
        if depth[root] != 0 {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        on_stack[root] = true;
        while let Some(&(v, next)) = stack.last() {
            if let Some(&c) = callees[v].get(next) {
                stack.last_mut().expect("non-empty").1 += 1;
                if depth[c] == 0 && !on_stack[c] {
                    on_stack[c] = true;
                    stack.push((c, 0));
                }
                continue;
            }
            depth[v] = 1 + callees[v].iter().map(|&c| depth[c]).max().unwrap_or(0);
            if depth[v] > MAX_HIER_DEPTH {
                return err(
                    blocks[v].line,
                    format!(
                        "hierarchy depth of dfg `{}` exceeds the limit of {MAX_HIER_DEPTH}",
                        blocks[v].name
                    ),
                );
            }
            on_stack[v] = false;
            stack.pop();
        }
    }
    Ok(())
}

fn parse_stmt(toks: &[&str], lno: usize) -> Result<Stmt, ParseError> {
    match toks[0] {
        "input" => {
            if toks.len() != 2 {
                return err(lno, "expected `input <name>`");
            }
            Ok(Stmt::Input(toks[1].to_owned()))
        }
        "const" => {
            if toks.len() != 4 || toks[2] != "=" {
                return err(lno, "expected `const <name> = <int>`");
            }
            let v: i64 = toks[3].parse().map_err(|_| ParseError {
                line: lno,
                message: format!("bad integer literal `{}`", toks[3]),
            })?;
            Ok(Stmt::Const(toks[1].to_owned(), v))
        }
        "mem" => {
            if toks.len() < 3 {
                return err(
                    lno,
                    "expected `mem <name> <words> [width <w>] [ports <p>] [banks <b>] [external]`",
                );
            }
            let words: u32 = toks[2].parse().map_err(|_| ParseError {
                line: lno,
                message: format!("bad word count `{}`", toks[2]),
            })?;
            if words == 0 {
                return err(lno, "memory word count must be positive");
            }
            if words > MAX_MEM_WORDS {
                return err(
                    lno,
                    format!("memory word count {words} exceeds the limit of {MAX_MEM_WORDS}"),
                );
            }
            let (mut width, mut ports, mut banks, mut external) = (32u32, 1u32, 1u32, false);
            let mut i = 3;
            while i < toks.len() {
                match toks[i] {
                    "external" => {
                        external = true;
                        i += 1;
                    }
                    key @ ("width" | "ports" | "banks") => {
                        let Some(v) = toks.get(i + 1) else {
                            return err(lno, format!("memory attribute `{key}` needs a value"));
                        };
                        let v: u32 = v.parse().map_err(|_| ParseError {
                            line: lno,
                            message: format!("bad value for memory attribute `{key}`"),
                        })?;
                        if v == 0 {
                            return err(lno, format!("memory attribute `{key}` must be positive"));
                        }
                        match key {
                            "width" => width = v,
                            "ports" => ports = v,
                            _ => banks = v,
                        }
                        i += 2;
                    }
                    other => return err(lno, format!("unknown memory attribute `{other}`")),
                }
            }
            if ports > MAX_MEM_PORTS {
                return err(
                    lno,
                    format!("memory port count {ports} exceeds the limit of {MAX_MEM_PORTS}"),
                );
            }
            if banks > words {
                return err(
                    lno,
                    format!("memory bank count {banks} exceeds its word count {words}"),
                );
            }
            Ok(Stmt::Mem {
                name: toks[1].to_owned(),
                words,
                width,
                ports,
                banks,
                external,
            })
        }
        "store" => {
            if toks.len() != 4 {
                return err(lno, "expected `store <mem> <addr-operand> <data-operand>`");
            }
            Ok(Stmt::Store(
                toks[1].to_owned(),
                parse_operand(toks[2], lno)?,
                parse_operand(toks[3], lno)?,
            ))
        }
        "output" => {
            if toks.len() != 4 || toks[2] != "=" {
                return err(lno, "expected `output <name> = <operand>`");
            }
            Ok(Stmt::Output(
                toks[1].to_owned(),
                parse_operand(toks[3], lno)?,
            ))
        }
        name => {
            if toks.len() < 3 || toks[1] != "=" {
                return err(lno, "expected `<name> = <op|call> ...`");
            }
            if toks[2] == "load" {
                if toks.len() != 5 {
                    return err(lno, "expected `<name> = load <mem> <addr-operand>`");
                }
                return Ok(Stmt::Load(
                    name.to_owned(),
                    toks[3].to_owned(),
                    parse_operand(toks[4], lno)?,
                ));
            }
            if toks[2] == "call" {
                if toks.len() < 4 {
                    return err(lno, "expected `<name> = call <dfg> <operands>...`");
                }
                let (op_toks, use_toks) = match toks.iter().position(|&t| t == "using") {
                    Some(p) => (&toks[4..p], &toks[p + 1..]),
                    None => (&toks[4..], &toks[toks.len()..]),
                };
                let operands = op_toks
                    .iter()
                    .map(|t| parse_operand(t, lno))
                    .collect::<Result<Vec<_>, _>>()?;
                let using = use_toks.iter().map(|t| t.to_string()).collect();
                Ok(Stmt::Call(
                    name.to_owned(),
                    toks[3].to_owned(),
                    operands,
                    using,
                ))
            } else {
                let op: Operation = toks[2].parse().map_err(|_| ParseError {
                    line: lno,
                    message: format!("unknown operation `{}`", toks[2]),
                })?;
                let operands = toks[3..]
                    .iter()
                    .map(|t| parse_operand(t, lno))
                    .collect::<Result<Vec<_>, _>>()?;
                if operands.len() != op.arity() {
                    return err(
                        lno,
                        format!(
                            "operation `{op}` takes {} operands, got {}",
                            op.arity(),
                            operands.len()
                        ),
                    );
                }
                Ok(Stmt::Op(name.to_owned(), op, operands))
            }
        }
    }
}

/// Print a hierarchy (and optional equivalence classes) in the textual
/// format accepted by [`parse`]. Node names are made unique by suffixing
/// duplicates, so `parse(&print(h))` round-trips structurally.
pub fn print(h: &Hierarchy, equiv: Option<&EquivClasses>) -> String {
    let mut out = String::new();
    for (gid, g) in h.dfgs() {
        let _ = writeln!(out, "dfg {} {{", g.name());
        // Unique display names per node.
        let mut used: HashMap<String, usize> = HashMap::new();
        let mut display: Vec<String> = Vec::with_capacity(g.node_count());
        for (_, n) in g.nodes() {
            let base = sanitize(n.name());
            let count = used.entry(base.clone()).or_insert(0);
            let name = if *count == 0 {
                base.clone()
            } else {
                format!("{base}_{count}")
            };
            *count += 1;
            display.push(name);
        }
        // Memories have their own namespace; unique display names likewise.
        let mut mem_used: HashMap<String, usize> = HashMap::new();
        let mut mem_display: Vec<String> = Vec::with_capacity(g.mem_count());
        for (_, m) in g.mems() {
            let base = sanitize(&m.name);
            let count = mem_used.entry(base.clone()).or_insert(0);
            let name = if *count == 0 {
                base.clone()
            } else {
                format!("{base}_{count}")
            };
            *count += 1;
            mem_display.push(name);
        }
        for (mid, m) in g.mems() {
            let mut line = format!(
                "  mem {} {} width {}",
                mem_display[mid.index()],
                m.words,
                m.elem_width
            );
            if m.ports != 1 {
                let _ = write!(line, " ports {}", m.ports);
            }
            if m.banks != 1 {
                let _ = write!(line, " banks {}", m.banks);
            }
            if m.scope == MemScope::External {
                line.push_str(" external");
            }
            let _ = writeln!(out, "{line}");
        }
        let operand = |nid: NodeId, port: u16, delay: u32| -> String {
            let mut s = display[nid.index()].clone();
            if port != 0 {
                let _ = write!(s, ".{port}");
            }
            if delay != 0 {
                let _ = write!(s, "@{delay}");
            }
            s
        };
        for (nid, n) in g.nodes() {
            match n.kind() {
                NodeKind::Input { .. } => {
                    let _ = writeln!(out, "  input {}", display[nid.index()]);
                }
                NodeKind::Const { value } => {
                    let _ = writeln!(out, "  const {} = {value}", display[nid.index()]);
                }
                NodeKind::Op(op) => {
                    let mut line = format!("  {} = {}", display[nid.index()], op.mnemonic());
                    for port in 0..op.arity() as u16 {
                        if let Some(e) = g.driver(nid, port) {
                            let _ = write!(line, " {}", operand(e.from.node, e.from.port, e.delay));
                        }
                    }
                    let _ = writeln!(out, "{line}");
                }
                NodeKind::Load { mem } => {
                    let mut line = format!(
                        "  {} = load {}",
                        display[nid.index()],
                        mem_display[mem.index()]
                    );
                    if let Some(e) = g.driver(nid, 0) {
                        let _ = write!(line, " {}", operand(e.from.node, e.from.port, e.delay));
                    }
                    let _ = writeln!(out, "{line}");
                }
                NodeKind::Store { mem } => {
                    let mut line = format!("  store {}", mem_display[mem.index()]);
                    for port in 0..2 {
                        if let Some(e) = g.driver(nid, port) {
                            let _ = write!(line, " {}", operand(e.from.node, e.from.port, e.delay));
                        }
                    }
                    let _ = writeln!(out, "{line}");
                }
                NodeKind::Hier { callee } => {
                    let mut line = format!(
                        "  {} = call {}",
                        display[nid.index()],
                        h.dfg(*callee).name()
                    );
                    for port in 0..h.in_arity(*callee) as u16 {
                        if let Some(e) = g.driver(nid, port) {
                            let _ = write!(line, " {}", operand(e.from.node, e.from.port, e.delay));
                        }
                    }
                    if !n.mem_binds().is_empty() {
                        line.push_str(" using");
                        for &b in n.mem_binds() {
                            let _ = write!(line, " {}", mem_display[b.index()]);
                        }
                    }
                    let _ = writeln!(out, "{line}");
                }
                NodeKind::Output { .. } => {
                    if let Some(e) = g.driver(nid, 0) {
                        let _ = writeln!(
                            out,
                            "  output {} = {}",
                            display[nid.index()],
                            operand(e.from.node, e.from.port, e.delay)
                        );
                    }
                }
            }
        }
        let _ = writeln!(out, "}}");
        let _ = gid;
    }
    if let Some(top) = h.try_top() {
        let _ = writeln!(out, "top {}", h.dfg(top).name());
    }
    if let Some(eq) = equiv {
        let mut seen: Vec<Vec<DfgId>> = Vec::new();
        for (gid, _) in h.dfgs() {
            let class = eq.class_of(gid);
            if class.len() > 1 && !seen.contains(&class) {
                let names: Vec<&str> = class.iter().map(|&id| h.dfg(id).name()).collect();
                let _ = writeln!(out, "equiv {}", names.join(" "));
                seen.push(class);
            }
        }
    }
    out
}

/// Replace characters the grammar cannot express in names.
fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    match cleaned.chars().next() {
        None => "n".to_owned(),
        Some(c) if c.is_ascii_digit() => format!("n{cleaned}"),
        Some(_) => cleaned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIQUAD: &str = "
# second-order section
dfg biquad {
  input x
  input a1
  input a2
  input b0
  input b1
  input b2
  m1 = mult a1 w@1
  m2 = mult a2 w@2
  s1 = sub x m1
  w = sub s1 m2
  p0 = mult b0 w
  p1 = mult b1 w@1
  p2 = mult b2 w@2
  t = add p0 p1
  output y = add_y
  add_y = add t p2
}
top biquad
";

    #[test]
    fn parse_biquad_with_feedback_and_forward_refs() {
        let parsed = parse(BIQUAD).expect("parses");
        parsed.hierarchy.validate().expect("valid");
        let g = parsed.hierarchy.dfg(parsed.hierarchy.top());
        assert_eq!(g.input_count(), 6);
        assert_eq!(g.output_count(), 1);
        assert_eq!(g.schedulable_count(), 9);
        assert_eq!(g.edges().filter(|(_, e)| e.delay > 0).count(), 4);
    }

    #[test]
    fn parse_hierarchical_call_and_equiv() {
        let src = "
dfg leaf_a {
  input p
  output q = n
  n = neg p
}
dfg leaf_b {
  input p
  const zero = 0
  output q = n
  n = sub zero p
}
dfg main {
  input x
  f = call leaf_a x
  output y = f.0
}
top main
equiv leaf_a leaf_b
";
        let parsed = parse(src).expect("parses");
        parsed.hierarchy.validate().expect("valid");
        let a = parsed.hierarchy.dfg_by_name("leaf_a").unwrap();
        let b = parsed.hierarchy.dfg_by_name("leaf_b").unwrap();
        assert!(parsed.equiv.equivalent(a, b));
        assert_eq!(parsed.hierarchy.depth(parsed.hierarchy.top()), 2);
    }

    /// A chain of `levels` DFGs, each calling the one before; the last is
    /// the top, at depth `levels`.
    fn call_chain(levels: usize) -> String {
        let mut src = String::from("dfg l0 {\n  input a\n  output y = a\n}\n");
        for i in 1..levels {
            let _ = write!(
                src,
                "dfg l{i} {{\n  input a\n  c = call l{} a\n  output y = c\n}}\n",
                i - 1
            );
        }
        let _ = writeln!(src, "top l{}", levels - 1);
        src
    }

    #[test]
    fn hierarchy_deeper_than_the_limit_is_a_parse_error() {
        let parsed = parse(&call_chain(MAX_HIER_DEPTH)).expect("the limit itself parses");
        parsed.hierarchy.validate().expect("valid");
        assert_eq!(
            parsed.hierarchy.depth(parsed.hierarchy.top()),
            MAX_HIER_DEPTH
        );
        for levels in [MAX_HIER_DEPTH + 1, 2_000, 20_000] {
            let e = parse(&call_chain(levels)).unwrap_err();
            assert_eq!(
                e.message,
                format!("hierarchy depth of dfg `l{MAX_HIER_DEPTH}` exceeds the limit of {MAX_HIER_DEPTH}"),
                "{levels} levels"
            );
            // Block `li` (i >= 1) opens on line 5i.
            assert_eq!(e.line, 5 * MAX_HIER_DEPTH, "{levels} levels");
        }
        // Mutual recursion is the validator's to report, not a depth.
        let cyclic = "dfg a {\n  input x\n  c = call b x\n  output y = c\n}\n\
                      dfg b {\n  input x\n  c = call a x\n  output y = c\n}\ntop a\n";
        let parsed = parse(cyclic).expect("depth check terminates on a cycle");
        assert!(parsed.hierarchy.validate().is_err());
    }

    #[test]
    fn error_reports_line_numbers() {
        let src = "dfg g {\n  input a\n  b = bogus a a\n}\ntop g\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn error_on_unknown_operand() {
        let src = "dfg g {\n  input a\n  s = add a ghost\n  output y = s\n}\ntop g\n";
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("ghost"), "{e}");
    }

    #[test]
    fn error_on_missing_close_brace() {
        let src = "dfg g {\n  input a\n";
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("closing"));
    }

    #[test]
    fn error_on_duplicate_names() {
        let src = "dfg g {\n  input a\n  input a\n  output y = a\n}\ntop g\n";
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("duplicate node name"));
        let src2 =
            "dfg g {\n input a\n output y = a\n}\ndfg g {\n input a\n output y = a\n}\ntop g\n";
        let e2 = parse(src2).unwrap_err();
        assert!(e2.message.contains("duplicate dfg name"));
    }

    #[test]
    fn error_on_bad_arity() {
        let src = "dfg g {\n  input a\n  s = add a\n  output y = s\n}\ntop g\n";
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("takes 2 operands"));
    }

    #[test]
    fn print_parse_round_trip() {
        let parsed = parse(BIQUAD).expect("parses");
        let printed = print(&parsed.hierarchy, Some(&parsed.equiv));
        let reparsed = parse(&printed).expect("round-trips");
        reparsed
            .hierarchy
            .validate()
            .expect("valid after round-trip");
        let g1 = parsed.hierarchy.dfg(parsed.hierarchy.top());
        let g2 = reparsed.hierarchy.dfg(reparsed.hierarchy.top());
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert_eq!(
            g1.edges().filter(|(_, e)| e.delay > 0).count(),
            g2.edges().filter(|(_, e)| e.delay > 0).count()
        );
    }

    const MEMORY_SRC: &str = "
dfg tap {
  mem line 8 width 16 ports 2 banks 2 external
  input addr
  input coeff
  l = load line addr
  output y = p
  p = mult l coeff
}
dfg top {
  input x
  input a0
  input a1
  mem line 8 width 16 ports 2 banks 2
  const one = 1
  ptr = add ptr@1 one
  store line ptr x
  t0 = call tap a0 x using line
  t1 = call tap a1 x using line
  output y = s
  s = add t0 t1
}
top top
";

    #[test]
    fn parse_memory_declarations_and_accesses() {
        let parsed = parse(MEMORY_SRC).expect("parses");
        parsed.hierarchy.validate().expect("valid");
        let h = &parsed.hierarchy;
        let top = h.dfg(h.top());
        assert_eq!(top.mem_count(), 1);
        let (mid, m) = top.mems().next().unwrap();
        assert_eq!((m.words, m.elem_width, m.ports, m.banks), (8, 16, 2, 2));
        assert_eq!(m.scope, MemScope::Owned);
        let tap = h.dfg(h.dfg_by_name("tap").unwrap());
        assert_eq!(tap.external_mems().len(), 1);
        // Both call sites bind the owned line memory.
        let binds: Vec<_> = top
            .nodes()
            .filter(|(_, n)| matches!(n.kind(), NodeKind::Hier { .. }))
            .map(|(_, n)| n.mem_binds().to_vec())
            .collect();
        assert_eq!(binds, vec![vec![mid], vec![mid]]);
    }

    #[test]
    fn memory_round_trip_is_structural() {
        let parsed = parse(MEMORY_SRC).expect("parses");
        let printed = print(&parsed.hierarchy, None);
        let reparsed = parse(&printed).expect("round-trips");
        reparsed.hierarchy.validate().expect("valid");
        let g1 = parsed.hierarchy.dfg(parsed.hierarchy.top());
        let g2 = reparsed.hierarchy.dfg(reparsed.hierarchy.top());
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert_eq!(g1.mem_count(), g2.mem_count());
        let m1: Vec<_> = g1.mems().map(|(_, m)| m.clone()).collect();
        let m2: Vec<_> = g2.mems().map(|(_, m)| m.clone()).collect();
        assert_eq!(m1, m2);
        // Program order of accesses survives (same kinds in same order).
        let kinds = |g: &Dfg| -> Vec<String> {
            g.nodes()
                .filter_map(|(_, n)| match n.kind() {
                    NodeKind::Load { .. } => Some("load".to_owned()),
                    NodeKind::Store { .. } => Some("store".to_owned()),
                    NodeKind::Hier { .. } => Some("call".to_owned()),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(kinds(g1), kinds(g2));
    }

    #[test]
    fn error_on_unknown_memory() {
        let src = "dfg g {\n  input a\n  l = load ghost a\n  output y = l\n}\ntop g\n";
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("unknown memory"), "{e}");
        let src2 = "dfg g {\n  input a\n  store ghost a a\n  output y = a\n}\ntop g\n";
        let e2 = parse(src2).unwrap_err();
        assert!(e2.message.contains("unknown memory"), "{e2}");
    }

    #[test]
    fn error_on_bad_memory_attributes() {
        let src = "dfg g {\n  mem m 0\n  input a\n  output y = a\n}\ntop g\n";
        assert!(parse(src).unwrap_err().message.contains("positive"));
        let src2 = "dfg g {\n  mem m 4 sideways\n  input a\n  output y = a\n}\ntop g\n";
        assert!(parse(src2)
            .unwrap_err()
            .message
            .contains("unknown memory attribute"));
        let src3 = "dfg g {\n  mem m 4 ports\n  input a\n  output y = a\n}\ntop g\n";
        assert!(parse(src3).unwrap_err().message.contains("needs a value"));
    }

    #[test]
    fn error_on_oversized_memory() {
        let at_cap =
            format!("dfg g {{\n  mem m {MAX_MEM_WORDS}\n  input a\n  output y = a\n}}\ntop g\n");
        assert!(parse(&at_cap).is_ok());
        let src = "dfg g {\n  mem m 4000000000\n  input a\n  output y = a\n}\ntop g\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("exceeds the limit of 65536"), "{e}");
    }

    #[test]
    fn error_on_oversized_ports_and_banks() {
        let mem = |attrs: &str| {
            format!("dfg g {{\n  mem m 4 {attrs}\n  input a\n  output y = a\n}}\ntop g\n")
        };
        assert!(parse(&mem(&format!("ports {MAX_MEM_PORTS} banks 4"))).is_ok());
        let e = parse(&mem(&format!("ports {}", MAX_MEM_PORTS + 1))).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(
            e.message.contains("port count 17 exceeds the limit of 16"),
            "{e}"
        );
        let e = parse(&mem("ports 2147483648 banks 4")).unwrap_err();
        assert!(e.message.contains("exceeds the limit of 16"), "{e}");
        let e = parse(&mem("banks 5")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(
            e.message.contains("bank count 5 exceeds its word count 4"),
            "{e}"
        );
        let e = parse(&mem("banks 200000")).unwrap_err();
        assert!(e.message.contains("exceeds its word count"), "{e}");
    }

    #[test]
    fn round_trip_preserves_equivalence() {
        let src = "
dfg a {
  input x
  output y = n
  n = neg x
}
dfg b {
  input x
  output y = n
  n = neg x
}
dfg m {
  input x
  f = call a x
  output y = f
}
top m
equiv a b
";
        let parsed = parse(src).unwrap();
        let printed = print(&parsed.hierarchy, Some(&parsed.equiv));
        let reparsed = parse(&printed).unwrap();
        let a = reparsed.hierarchy.dfg_by_name("a").unwrap();
        let b = reparsed.hierarchy.dfg_by_name("b").unwrap();
        assert!(reparsed.equiv.equivalent(a, b));
    }
}
