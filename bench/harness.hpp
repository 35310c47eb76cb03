// Shared benchmark entry point. Every bench binary links this instead of
// benchmark_main so runs are uniform — a fixed warmup budget and a JSON
// report written to the working directory as BENCH_<name>.json (argv[0]
// basename minus the "bench_" prefix) — keeping perf numbers comparable
// across PRs. Explicit --benchmark_* flags always win over the defaults.
//
// After the run the harness splices a "harness" block into the report:
// peak RSS of the process, the total bytes-on-disk under every directory
// registered with track_disk() — so space costs (journal segments, object
// stores) land in the same artifact as the timings.
#pragma once

#include <string>

namespace nonrep::bench {

/// Runs every registered Google Benchmark case. Called by the harness's
/// main(); exposed so a custom main can compose extra setup around it.
int run(int argc, char** argv);

/// Register a directory (or file) whose on-disk footprint should be summed
/// into the report's "harness.disk_bytes". Call any time before run()
/// finishes (bench setup lambdas included); duplicates are ignored.
void track_disk(const std::string& path);

}  // namespace nonrep::bench
