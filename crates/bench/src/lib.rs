//! # cred-bench — experiment harness
//!
//! Shared measurement code for the table binaries (`table1`..`table4`,
//! `figures`) and the Criterion benches. Every number printed by a table
//! binary is *measured from generated code* (instruction counts of real
//! [`cred_codegen::LoopProgram`]s, each first verified against the DFG
//! recurrence by `cred-vm`), with the paper's closed-form expectations
//! printed alongside.

use cred_codegen::cred::{cred_pipelined, cred_retime_unfold};
use cred_codegen::pipeline::{original_program, pipelined_program};
use cred_codegen::unfolded::{retime_unfold_program, unfold_retime_program};
use cred_codegen::DecMode;
use cred_dfg::{algo, Dfg};
use cred_retime::span::compact_values;
use cred_retime::{min_period_retiming, retime_to_period, Retiming};
use cred_unfold::unfold;
use cred_vm::check_against_reference;

/// The retiming pipeline used by all experiments: rate-optimal period via
/// OPT, whose answer has the minimum span (`M_r`), then register (`|N_r|`)
/// compaction.
pub fn tuned_retiming(g: &Dfg) -> (Retiming, u64) {
    let opt = min_period_retiming(g);
    let r = compact_values(g, opt.period, &opt.retiming);
    (r, opt.period)
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Original code size `L`.
    pub orig: usize,
    /// Software-pipelined code size (measured).
    pub retimed: usize,
    /// CRED code size (measured).
    pub cred: usize,
    /// Conditional registers used.
    pub registers: usize,
    /// Percent reduction retimed -> CRED.
    pub reduction: f64,
    /// Rate-optimal cycle period the retiming achieves.
    pub period: u64,
    /// Maximum (normalized) retiming value.
    pub m_r: i64,
}

/// Measure one Table 1 row; `n` is the trip count used for VM
/// verification.
pub fn table1_row(name: &str, g: &Dfg, n: u64) -> Table1Row {
    let (r, period) = tuned_retiming(g);
    let orig = original_program(g, n);
    let pip = pipelined_program(g, &r, n);
    let cred = cred_pipelined(g, &r, n);
    for p in [&orig, &pip, &cred] {
        check_against_reference(g, p).unwrap_or_else(|e| panic!("{name}/{}: {e}", p.name));
    }
    // Cross-check measured sizes against the closed forms (which assume a
    // non-degenerate kernel, n > M_r; smaller trip counts clip the windows).
    if n as i64 > r.max_value() {
        assert_eq!(
            pip.code_size() as u64,
            cred_codegen::size::pipelined_size(
                g.node_count() as u64,
                g.node_count() as u64,
                r.max_value() as u64
            ),
            "{name}: pipelined size formula"
        );
    }
    assert_eq!(
        cred.code_size() as u64,
        cred_codegen::size::cred_pipelined_size(g.node_count() as u64, r.register_count() as u64),
        "{name}: CRED size formula"
    );
    Table1Row {
        name: name.to_string(),
        orig: orig.code_size(),
        retimed: pip.code_size(),
        cred: cred.code_size(),
        registers: r.register_count(),
        reduction: cred_codegen::size::reduction_percent(
            pip.code_size() as u64,
            cred.code_size() as u64,
        ),
        period,
        m_r: r.max_value(),
    }
}

/// One row of Table 2 (retime + unfold, `f = 3`, `n = 101` in the paper).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Retime-then-unfold code size (measured).
    pub retime_unfold: usize,
    /// CRED code size, per-copy decrement mode (measured; Table 2's
    /// accounting).
    pub cred: usize,
    /// Conditional registers used.
    pub registers: usize,
    /// Percent reduction.
    pub reduction: f64,
}

/// Measure one Table 2 row.
pub fn table2_row(name: &str, g: &Dfg, f: usize, n: u64) -> Table2Row {
    let (r, _) = tuned_retiming(g);
    let ru = retime_unfold_program(g, &r, f, n);
    let cred = cred_retime_unfold(g, &r, f, n, DecMode::PerCopy);
    for p in [&ru, &cred] {
        check_against_reference(g, p).unwrap_or_else(|e| panic!("{name}/{}: {e}", p.name));
    }
    Table2Row {
        name: name.to_string(),
        retime_unfold: ru.code_size(),
        cred: cred.code_size(),
        registers: r.register_count(),
        reduction: cred_codegen::size::reduction_percent(
            ru.code_size() as u64,
            cred.code_size() as u64,
        ),
    }
}

/// One column of Tables 3–4: the three approaches at one unfolding factor.
#[derive(Debug, Clone)]
pub struct OrderComparison {
    /// Unfolding factor.
    pub f: usize,
    /// Code size of unfold-then-retime (measured).
    pub unfold_retime: usize,
    /// Code size of retime-then-unfold (measured).
    pub retime_unfold: usize,
    /// Code size of CRED on the retimed-unfolded loop (measured).
    pub cred: usize,
    /// Iteration period (cycle period of the unfolded body / f).
    pub iteration_period: f64,
    /// Registers CRED uses.
    pub registers: usize,
}

/// Compare the two transformation orders and CRED at unfolding factor `f`,
/// with the *cycle period of the unfolded graph* fixed to `target_period`
/// (the paper fixes performance per `uf` "to make a fair comparison";
/// `None` = rate-optimal, i.e. the minimum achievable).
///
/// `mode` selects the CRED decrement accounting (Table 3 uses Bulk,
/// Table 4 per-copy).
pub fn compare_orders(
    g: &Dfg,
    f: usize,
    target_period: Option<u64>,
    n: u64,
    mode: DecMode,
) -> OrderComparison {
    let u = unfold(g, f);
    // Unfold-then-retime at the target period (minimum-span solution).
    let opt_f = min_period_retiming(&u.graph);
    let period = target_period.unwrap_or(opt_f.period).max(opt_f.period);
    let r_f = retime_to_period(&u.graph, period).expect("period >= optimum is feasible");
    let r_f = compact_values(&u.graph, period, &r_f);
    let ur_prog = unfold_retime_program(g, &u, &r_f, n);

    // Retime-then-unfold via the projected retiming (Theorem 4.5), then
    // the CRED kernel on top of it.
    let projected = cred_unfold::orders::project_retiming(&u, &r_f);
    let ru = cred_unfold::orders::retime_then_unfold(g, &projected, f);
    let ru_prog = retime_unfold_program(g, &projected, f, n);
    let cred_prog = cred_retime_unfold(g, &projected, f, n, mode);
    for p in [&ur_prog, &ru_prog, &cred_prog] {
        check_against_reference(g, p).unwrap_or_else(|e| panic!("f={f}/{}: {e}", p.name));
    }
    let achieved = algo::cycle_period(&ru.unfolded.graph).expect("well-formed");
    OrderComparison {
        f,
        unfold_retime: ur_prog.code_size(),
        retime_unfold: ru_prog.code_size(),
        cred: cred_prog.code_size(),
        iteration_period: achieved.max(period) as f64 / f as f64,
        registers: projected.register_count(),
    }
}

/// Markdown-ish fixed-width table printer.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}
