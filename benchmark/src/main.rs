//! See the library crate (`src/lib.rs`) and `benchmark/README.md`.

fn main() -> std::process::ExitCode {
    caraoke_benchmark::cli::main()
}
