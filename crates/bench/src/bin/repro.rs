//! `repro` — regenerate every experiment table from DESIGN.md §4.
//!
//! ```text
//! cargo run --release -p urbane-bench --bin repro -- --exp all --scale 1000000
//! cargo run --release -p urbane-bench --bin repro -- --exp e2
//! cargo run --release -p urbane-bench --bin repro -- --exp verify --json VERIFY_report.json
//! ```
//!
//! Performance is measured by `benchmark/run.sh` (BENCHMARK.json), not here.

use urbane_bench::{experiments, verify_exp};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--exp all|verify|e1|...|e9] [--scale N] [--out DIR] [--json PATH]\n\
         defaults: --exp all --scale 1000000 --out out\n\
         --json applies to `verify`;\n\
         for `verify`, scale maps to corpus size (default = fast CI corpus)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp = "all".to_string();
    let mut scale = 1_000_000usize;
    let mut out_dir = "out".to_string();
    let mut json_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                exp = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out_dir = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    if exp == "verify" {
        let workloads = verify_exp::workloads_for_scale(scale);
        println!("ε-certification sweep: {workloads} differential workloads");
        let report = match verify_exp::run(workloads) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("verify experiment failed to execute: {e}");
                std::process::exit(2);
            }
        };
        if let Some(path) = &json_path {
            std::fs::write(path, report.to_json())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("wrote {path}");
        }
        print!("{}", report.render());
        if !report.passed() {
            std::process::exit(1);
        }
        return;
    }

    println!(
        "Urbane / Raster Join reproduction — experiments at scale {scale}\n\
         (see DESIGN.md §4 for the experiment index)\n"
    );
    let report = match exp.as_str() {
        "all" => experiments::run_all(scale, &out_dir),
        "e1" => experiments::e1_map_view(scale, &out_dir),
        "e2" => experiments::e2_scale_points(scale),
        "e3" => experiments::e3_polygon_complexity(scale),
        "e4" => experiments::e4_accuracy(scale.min(1_000_000)),
        "e5" => experiments::e5_filters(scale),
        "e6" => experiments::e6_interaction(scale),
        "e7" => experiments::e7_exploration(scale),
        "e8" => experiments::e8_aggregates(scale.min(1_000_000)),
        "e9" => experiments::e9_ablation(scale),
        _ => usage(),
    };
    println!("{report}");
}
