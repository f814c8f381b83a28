//! Regenerates the paper's tables and figures.
//!
//! With no arguments every artifact runs in paper order, followed by the
//! total time. Name artifacts to run only those, in the order given:
//! `all_experiments fig21 table4`. An unknown name exits with status 2 and
//! lists the valid names.
//!
//! Set `HYVE_BENCH_SMALL=1` to restrict to the three smaller datasets.

use hyve_bench::experiments as e;

/// Every artifact by name, in the order a full run prints them.
const ARTIFACTS: [(&str, fn()); 17] = [
    ("table1", e::table1::print),
    ("table3", e::table3::print),
    ("fig09", e::fig09::print),
    ("fig10", e::fig10::print),
    ("fig11", e::fig11::print),
    ("fig12", e::fig12::print),
    ("fig13", e::fig13::print),
    ("fig14", e::fig14::print),
    ("fig15", e::fig15::print),
    ("fig16", e::fig16::print),
    ("fig17", e::fig17::print),
    ("fig18", e::fig18::print),
    ("fig19", e::fig19::print),
    ("fig20", e::fig20::print),
    ("fig21", e::fig21::print),
    ("table4", e::table4::print),
    ("ablation", e::ablation::print),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        let t = std::time::Instant::now();
        for (_, print) in ARTIFACTS {
            print();
        }
        println!(
            "\nall experiments regenerated in {:.1}s",
            t.elapsed().as_secs_f64()
        );
        return;
    }
    // Resolve every name before running anything, so a typo fails fast.
    let mut chosen = Vec::with_capacity(names.len());
    for name in &names {
        match ARTIFACTS.iter().find(|(n, _)| n == name) {
            Some(&(_, print)) => chosen.push(print),
            None => {
                let valid: Vec<&str> = ARTIFACTS.iter().map(|&(n, _)| n).collect();
                eprintln!("unknown artifact '{name}'; valid: {}", valid.join(" "));
                std::process::exit(2);
            }
        }
    }
    for print in chosen {
        print();
    }
}
