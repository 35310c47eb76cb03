#include "bench/harness.hpp"

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace nonrep::bench {
namespace {

std::string report_name(const char* argv0) {
  std::string name = argv0 != nullptr ? argv0 : "bench";
  if (auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  return "BENCH_" + name + ".json";
}

bool has_flag(int argc, char** argv, const char* prefix) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) return true;
  }
  return false;
}

std::mutex g_disk_mu;
std::vector<std::string>& tracked_paths() {
  static std::vector<std::string> paths;
  return paths;
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is kilobytes on Linux (bytes on macOS, but we only run here
  // on Linux CI and dev boxes; a 1024x inflation would be obvious anyway).
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

std::uint64_t disk_bytes() {
  namespace fs = std::filesystem;
  std::uint64_t total = 0;
  std::lock_guard lk(g_disk_mu);
  for (const auto& path : tracked_paths()) {
    std::error_code ec;
    if (fs::is_regular_file(path, ec)) {
      total += fs::file_size(path, ec);
      continue;
    }
    fs::recursive_directory_iterator it(path, fs::directory_options::skip_permission_denied, ec);
    if (ec) continue;
    for (const auto& entry : it) {
      std::error_code entry_ec;
      if (entry.is_regular_file(entry_ec)) total += entry.file_size(entry_ec);
    }
  }
  return total;
}

// Append {"harness": {...}} into the top-level JSON object of the report.
// Done textually (trailing '}' found and spliced before) so we need no JSON
// library; consumers like bench_diff.py read report["benchmarks"] and are
// unaffected.
void splice_harness_block(const std::string& report_path) {
  std::string text;
  {
    std::ifstream in(report_path, std::ios::binary);
    if (!in) return;
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const auto close = text.find_last_of('}');
  if (close == std::string::npos) return;
  const std::string block = ",\n  \"harness\": {\n    \"peak_rss_bytes\": " +
                            std::to_string(peak_rss_bytes()) +
                            ",\n    \"disk_bytes\": " + std::to_string(disk_bytes()) +
                            "\n  }\n";
  text.insert(close, block);
  std::ofstream out(report_path, std::ios::binary | std::ios::trunc);
  out << text;
}

}  // namespace

void track_disk(const std::string& path) {
  std::lock_guard lk(g_disk_mu);
  auto& paths = tracked_paths();
  for (const auto& p : paths) {
    if (p == path) return;
  }
  paths.push_back(path);
}

int run(int argc, char** argv) {
  std::vector<std::string> args;
  args.emplace_back(argv != nullptr && argv[0] != nullptr ? argv[0] : "bench");
  std::string report_path;
  if (!has_flag(argc, argv, "--benchmark_out=") &&
      !has_flag(argc, argv, "--benchmark_list_tests")) {
    report_path = report_name(args.front().c_str());
    args.emplace_back("--benchmark_out=" + report_path);
    args.emplace_back("--benchmark_out_format=json");
  }
  if (!has_flag(argc, argv, "--benchmark_min_warmup_time=")) {
    args.emplace_back("--benchmark_min_warmup_time=0.05");
  }
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());

  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!report_path.empty()) splice_harness_block(report_path);
  return 0;
}

}  // namespace nonrep::bench

int main(int argc, char** argv) { return nonrep::bench::run(argc, argv); }
