//! Table II reproduction: case-1 per-module times and speed-ups.
//!
//! Usage: `table2 [--blocks N] [--steps N] [--seed N] [--full]`
//! `--full` selects the paper scale (4361 blocks, 40 000 steps) — expect a
//! very long run; the default reproduces the per-step shape at reduced
//! scale.

use dda_harness::experiments::run_case1;
use dda_harness::table::{fmt_speedup, fmt_time, Table};
use dda_harness::Args;

fn main() {
    let mut a = Args::parse(800, 0, 3);
    if a.full {
        a.blocks = 4361;
        a.steps = 40_000;
    }
    println!(
        "Table II — case 1 (static slope stability), {} target blocks, {} steps\n",
        a.blocks, a.steps
    );
    let cs = run_case1(a.blocks, a.steps, a.seed);
    println!(
        "model: {} blocks, mean {:.0} contacts/step\n",
        cs.blocks, cs.mean_contacts
    );

    let s20 = cs.cpu.speedup_over(&cs.k20);
    let s40 = cs.cpu.speedup_over(&cs.k40);
    let mut t = Table::new(vec![
        "Module",
        "E5620 (model)",
        "K20 (model)",
        "K40 (model)",
        "K20 speed-up",
        "K40 speed-up",
    ]);
    let rows = cs.cpu.rows();
    let r20 = cs.k20.rows();
    let r40 = cs.k40.rows();
    let sp20 = s20.rows();
    let sp40 = s40.rows();
    for k in 0..rows.len() {
        t.row(vec![
            rows[k].0.to_string(),
            fmt_time(rows[k].1),
            fmt_time(r20[k].1),
            fmt_time(r40[k].1),
            fmt_speedup(sp20[k].1),
            fmt_speedup(sp40[k].1),
        ]);
    }
    t.row(vec![
        "Total".to_string(),
        fmt_time(cs.cpu.total()),
        fmt_time(cs.k20.total()),
        fmt_time(cs.k40.total()),
        fmt_speedup(cs.cpu.total() / cs.k20.total()),
        fmt_speedup(cs.cpu.total() / cs.k40.total()),
    ]);
    t.print();

    println!("\n{}", cs.default_footer());
    println!("\nPaper (Table II, 4361 blocks, 40000 steps):");
    let mut p = Table::new(vec!["Module", "E5620", "K20", "K40", "K20 ×", "K40 ×"]);
    p.row(vec![
        "Contact Detection",
        "4975.91 s",
        "53.4 s",
        "42.28 s",
        "93.18",
        "117.69",
    ]);
    p.row(vec![
        "Diagonal Matrix Building",
        "180.997 s",
        "2.13 s",
        "1.68 s",
        "84.98",
        "107.74",
    ]);
    p.row(vec![
        "Non-diagonal Matrix Building",
        "1063.25 s",
        "295.06 s",
        "242.76 s",
        "3.6",
        "4.38",
    ]);
    p.row(vec![
        "Equation Solving",
        "92401.4 s",
        "1992.1 s",
        "1723.7 s",
        "46.38",
        "53.60",
    ]);
    p.row(vec![
        "Interpenetration Checking",
        "2367.8 s",
        "63.66 s",
        "60.04 s",
        "37.19",
        "39.44",
    ]);
    p.row(vec![
        "Data Updating",
        "276.081 s",
        "6.19 s",
        "5.63 s",
        "44.6",
        "49.04",
    ]);
    p.row(vec![
        "Total", "101339 s", "2416.1 s", "2080.2 s", "41.94", "48.72",
    ]);
    p.print();
}
