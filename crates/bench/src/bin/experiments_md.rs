//! Generate `EXPERIMENTS.md`: run every reproduced experiment and record
//! paper-published versus measured values side by side.
//!
//! ```text
//! cargo run --release -p httpipe-bench --bin experiments_md > EXPERIMENTS.md
//! ```

use httpipe_bench::registry::{EXPERIMENTS, PREAMBLE};

fn main() {
    let sections: Vec<String> = EXPERIMENTS
        .iter()
        .filter_map(|e| e.section)
        .map(|section| section())
        .collect();
    print!("{PREAMBLE}{}", sections.join("\n"));
}
