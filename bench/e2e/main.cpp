// hs_e2e: runs one end-to-end benchmark workload and prints its report
// as one JSON line. bench/e2e/run.py builds and drives it; see README.md
// for the workloads and metrics.
//
//   hs_e2e --workload sim-paper15 --seed 1 --seconds 10 --trace 0
//
// Exits 1 when a correctness check fails, 2 on bad arguments or a
// library error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "e2e.h"
#include "rng/rng.h"
#include "util/check.h"
#include "util/cli.h"

namespace hs::e2e {

std::vector<double> uniform_speeds(size_t n) {
  rng::Xoshiro256 gen(20000829);
  std::vector<double> speeds(n);
  for (double& s : speeds) {
    s = gen.uniform(0.5, 20.0);
  }
  return speeds;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when that
  // one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void print_report(const Options& options, Report& report) {
  for (const auto& m : report.metrics) {
    report.check(std::isfinite(m.value), m.name + " is not finite");
  }
  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"correct\":%s,"
              "\"attempted\":%llu,\"failed\":%llu,\"failures\":[",
              json_string(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, report.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.failures.size(); ++i) {
    std::printf("%s%s", i > 0 ? "," : "",
                json_string(report.failures[i]).c_str());
  }
  std::printf("],\"metrics\":{");
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::printf("%s%s:{\"value\":%.17g,\"unit\":%s}", i > 0 ? "," : "",
                json_string(m.name).c_str(),
                std::isfinite(m.value) ? m.value : 0.0,
                json_string(m.unit).c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace hs::e2e

int main(int argc, char** argv) {
  using namespace hs::e2e;
  hs::util::ArgParser parser("Run one end-to-end benchmark workload.");
  parser.add_option("workload", "",
                    "sim-paper15 | sim-orr-1k | sim-chaos15 | serve-ll-10k");
  parser.add_option("seed", "1", "workload seed");
  parser.add_option("seconds", "10",
                    "work scale: about this many seconds at the seed state");
  parser.add_option("trace", "0",
                    "1: run half the work untraced, then the same half "
                    "traced, and report per-layer metrics");
  parser.add_option("trace-out", "", "Chrome trace JSON of the traced run");
  Options options;
  try {
    if (!parser.parse(argc, argv)) {
      return 0;
    }
    options.workload = parser.get_string("workload");
    options.seed = static_cast<uint64_t>(parser.get_long("seed"));
    options.seconds = parser.get_double("seconds");
    options.trace = parser.get_long("trace") != 0;
    options.trace_out = parser.get_string("trace-out");
    HS_CHECK(options.seconds > 0.0 && options.seconds <= 600.0,
             "--seconds must be in (0, 600]");

    Report report = is_sim_workload(options.workload)
                        ? run_sim_workload(options)
                        : run_serve_workload(options);
    if (!options.trace) {
      report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    print_report(options, report);
    return report.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hs_e2e: %s\n", e.what());
    return 2;
  }
}
