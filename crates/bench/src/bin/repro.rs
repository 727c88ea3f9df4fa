//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro                 # everything, in EXPERIMENTS.md order
//! repro table3 table8   # specific tables
//! repro list            # available experiment ids
//! ```

use httpipe_bench::registry::{Experiment, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "list") {
        println!("available experiments:");
        for e in EXPERIMENTS {
            println!("  {:<10} {}", e.id, e.what);
        }
        return;
    }

    let selected: Vec<&Experiment> = if args.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        let mut v = Vec::new();
        for arg in &args {
            match EXPERIMENTS.iter().find(|e| e.id == *arg) {
                Some(e) => v.push(e),
                None => {
                    eprintln!("unknown experiment '{arg}' (try: repro list)");
                    std::process::exit(1);
                }
            }
        }
        v
    };

    for e in selected {
        print!("{}", (e.text)());
    }
}
