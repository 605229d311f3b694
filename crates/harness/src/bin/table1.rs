//! Table I reproduction: the three preconditioners' iteration counts and
//! costs on the case-1 slope.
//!
//! Usage: `table1 [--blocks N] [--steps N] [--seed N] [--full]`

use dda_harness::experiments::preconditioner_study;
use dda_harness::table::{fmt_time, Table};
use dda_harness::Args;

fn main() {
    let mut a = Args::parse(400, 0, 5);
    if a.full {
        a.blocks = 4361;
        a.steps = 1000; // the paper's Table I window
    }
    println!(
        "Table I — preconditioner comparison (case 1, {} target blocks, {} steps, Tesla K40 model)\n",
        a.blocks, a.steps
    );
    let rows = preconditioner_study(a.blocks, a.steps, a.seed);

    let mut t = Table::new(vec![
        "Preconditioner",
        "Avg iterations/step",
        "Construction",
        "Implementation",
        "Eq. solving total",
    ]);
    for r in &rows {
        t.row(vec![
            r.name.to_string(),
            format!("{:.1}", r.avg_iterations),
            fmt_time(r.construct_s),
            fmt_time(r.apply_s),
            fmt_time(r.total_solve_s),
        ]);
    }
    t.print();

    println!("\nPaper (Table I, 4361 blocks, 1000 steps, K40):");
    let mut p = Table::new(vec![
        "Preconditioner",
        "Avg iters",
        "Construction",
        "Implementation",
        "Total",
    ]);
    p.row(vec!["BJ", "275", "0.059 ms", "0.011 ms", "60330 s"]);
    p.row(vec!["SSOR", "141", "0.208 ms", "0.118 ms", "62830 s"]);
    p.row(vec!["ILU", "93", "31.465 ms", "7.269 ms", "873787 s"]);
    p.print();

    let bj = &rows[0];
    let ssor = &rows[1];
    let ilu = &rows[2];
    println!("\nShape checks (paper's qualitative claims):");
    println!(
        "  iterations ILU ≤ SSOR ≤ BJ:              {} ({:.1} ≤ {:.1} ≤ {:.1})",
        ilu.avg_iterations <= ssor.avg_iterations && ssor.avg_iterations <= bj.avg_iterations,
        ilu.avg_iterations,
        ssor.avg_iterations,
        bj.avg_iterations
    );
    println!(
        "  convergence-rate gain ILU vs BJ:          {:.2}× (paper: 2.95×)",
        bj.avg_iterations / ilu.avg_iterations.max(1e-9)
    );
    println!(
        "  convergence-rate gain ILU vs SSOR:        {:.2}× (paper: 1.51×)",
        ssor.avg_iterations / ilu.avg_iterations.max(1e-9)
    );
    println!(
        "  ILU loses end-to-end despite fewer iters: {} ({} vs BJ {})",
        ilu.total_solve_s > bj.total_solve_s,
        fmt_time(ilu.total_solve_s),
        fmt_time(bj.total_solve_s)
    );
    // SSOR-AI's construction *is* Block-Jacobi's (it reuses the inverses),
    // so the two tie up to the rounding of their averages and both must
    // undercut ILU; CI's smoke step relies on the exit status.
    let bj_cheapest =
        bj.construct_s <= ssor.construct_s * (1.0 + 1e-9) && bj.construct_s <= ilu.construct_s;
    println!(
        "  BJ construction is the cheapest:          {bj_cheapest} ({} vs SSOR {}, ILU {})",
        fmt_time(bj.construct_s),
        fmt_time(ssor.construct_s),
        fmt_time(ilu.construct_s)
    );
    if !bj_cheapest {
        std::process::exit(1);
    }
}
