// perfbench_harness — the measuring half of the end-to-end benchmark
// (perfbench/README.md).  perfbench/run.py builds it and calls
//
//   perfbench_harness --workload=<name> --seed=<n> --seconds=<s>
//                     --trace=0|1 --bin_dir=<dir> --run_dir=<dir>
//                     [--tiny] [--inject=corrupt|reject]
//   perfbench_harness --workload=<campaign workload> --seed=<n> --pin
//
// The --pin form runs one plain campaign and prints only its result bytes
// (what perfbench/digests.json pins).  The measuring form's
// last stdout line is one JSON object: correct / attempted /
// failed / metrics (name -> {value, unit}) plus failures, info and the
// result bytes the pinned digests are checked against.  Exit code 1 when
// any correctness check failed, 2 on a usage or build-type error.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "core/format.hpp"

namespace {

// Every digit, so repeated runs never read alike by rounding; a value
// that is not finite is not JSON and fails the run instead.
std::string number(double v) {
  if (!std::isfinite(v)) throw std::domain_error("metric is not finite");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string to_json(const perfbench::Report& r, bool correct) {
  using megflood::json_quote;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, value] = r.metrics[i];
    if (i) out += ", ";
    out += json_quote(name) + ": {\"value\": " + number(value.first) +
           ", \"unit\": " + json_quote(value.second) + "}";
  }
  out += "}, \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i) out += ", ";
    out += json_quote(r.failures[i]);
  }
  out += "], \"info\": {";
  bool first = true;
  for (const auto& [key, value] : r.info) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(key) + ": " + json_quote(value);
  }
  out += "}, \"result_bytes\": " + json_quote(r.result_bytes) + "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench_harness: built as '" PERFBENCH_BUILD_TYPE
                 "', refusing to record (Release/-O2 only)\n";
    return 2;
  }
  perfbench::Options o;
  bool pin = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      const std::string flag = arg.substr(0, eq);
      const std::string value =
          eq == std::string::npos ? "" : arg.substr(eq + 1);
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
      } else if (flag == "--pin") {
        pin = true;
      } else if (flag == "--tiny") {
        o.tiny = true;
      } else if (flag == "--inject") {
        o.inject = value;
      } else if (flag == "--bin_dir") {
        o.bin_dir = value;
      } else if (flag == "--run_dir") {
        o.run_dir = value;
      } else {
        throw std::invalid_argument("unknown flag " + arg);
      }
    }
    if (pin && !o.workload.empty()) {
      std::cout << perfbench::campaign_result_bytes(o) << std::endl;
      return 0;
    }
    if (o.workload.empty() || o.bin_dir.empty() || o.run_dir.empty() ||
        !(o.seconds > 0)) {
      throw std::invalid_argument(
          "--workload, --bin_dir, --run_dir and --seconds > 0 are required");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }

  // Peak RSS should follow the campaign's live memory, not the
  // allocator's history.  With an arena per thread it depended on which
  // trial thread allocated first (gossip_edge_meg_32k: 25-31 MiB over
  // five runs, 26-27 MiB with one arena).  With glibc's sliding mmap
  // threshold, a freed 16 MiB buffer either stayed in the heap or not,
  // so flood_edge_meg_1m read 130-163 MiB; a fixed 1 MiB threshold maps
  // and unmaps every large buffer.  The daemon, a separate process,
  // keeps the defaults.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 1 << 20);

  perfbench::Report report;
  try {
    std::filesystem::create_directories(o.run_dir);
    report = o.workload.rfind("serve_", 0) == 0
                 ? perfbench::run_serve_workload(o)
                 : perfbench::run_campaign_workload(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
  const bool correct = report.failed == 0 && report.failures.empty() &&
                       report.attempted > 0;
  try {
    std::cout << to_json(report, correct) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
  return correct ? 0 : 1;
}
