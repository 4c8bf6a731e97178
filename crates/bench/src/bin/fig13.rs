//! Regenerates Figure 13 (vector multiply acceleration structures).
fn main() {
    print!("{}", sam_bench::figure13_report(2000));
}
