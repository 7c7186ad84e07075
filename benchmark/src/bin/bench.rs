//! The benchmark binary for end-to-end (`--trace 0`) runs.

fn main() -> std::process::ExitCode {
    caribou_benchmark::run::main()
}
