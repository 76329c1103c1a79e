//! Command-line entry of the benchmark; see the library docs.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = match args.workload {
        Some(wl) if !args.all => perfbench::measure::run_one(&args, wl),
        _ => perfbench::measure::run_all(&args),
    };
    std::process::exit(code);
}
