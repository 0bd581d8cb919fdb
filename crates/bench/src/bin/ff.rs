//! `ff` — the one binary: `soak | net | report | dst <run|corpus|minimize|replay>
//! | witness <thm18|thm19>`. Everything lives in `ff_bench`; `ff --help`
//! and `ff <command> --help` print usage generated from its flag table.

fn main() {
    // Lossy, not `args()`: a non-UTF-8 argument must be refused as a bad
    // value, not panic the process.
    let argv: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    std::process::exit(ff_bench::cli::run(&ff_bench::flags::COMMANDS, &argv));
}
