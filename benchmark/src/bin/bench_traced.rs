//! The benchmark binary for traced (`--trace 1`) runs: the same program
//! behind an allocation-counting global allocator.

use caribou_benchmark::alloc_count::Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() -> std::process::ExitCode {
    caribou_benchmark::run::main()
}
