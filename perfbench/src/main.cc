// perfbench: one benchmark for the instrumented edge app, the offline
// debug session and open-loop serving. See perfbench/README.md.
//
//   perfbench --workload <edge_app|debug_session|serve_openloop>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//   perfbench --selftest [--work-dir <dir>]
//
// Prints `fingerprint {...}` and `validity {...}` lines and, as the last
// line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Host and build fingerprint: results whose fingerprints differ are never
// compared (perfbench/compare.py refuses).
std::string fingerprint_json() {
  std::string cpu_model = "unknown";
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key =
        line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && cpu_model == "unknown") cpu_model = value;
    if (key == "flags" && flags.empty()) flags = " " + value + " ";
  }
  std::string isa;
  for (const char* f : {"fma", "avx2", "avx512f", "avx512bw", "avx512vnni"}) {
    if (flags.find(std::string(" ") + f + " ") != std::string::npos) {
      isa += isa.empty() ? f : std::string(",") + f;
    }
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  return std::string("{\"cpu\": \"") + json_escape(cpu_model) +
         "\", \"isa\": \"" + isa + "\", \"nproc\": " + std::to_string(nproc) +
         ", \"compiler\": \"" + PERFBENCH_COMPILER + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\", \"cxx_flags\": \"" +
         json_escape(PERFBENCH_CXX_FLAGS) + "\"}";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "       perfbench --selftest [--work-dir <dir>]\n",
               msg);
  return 2;
}

int main_impl(int argc, char** argv) {
  RunConfig config;
  bool selftest = false;
  bool have_workload = false;
  config.work_dir = std::filesystem::current_path() / ".bench_build" / "work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      config.seconds = std::stod(value);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");
  // A private directory per process: concurrent runs never share spools.
  config.work_dir /= "pid" + std::to_string(getpid());
  std::filesystem::create_directories(config.work_dir);

  if (selftest) {
    const int failures = run_selftest(config.work_dir);
    std::filesystem::remove_all(config.work_dir);
    return failures == 0 ? 0 : 1;
  }
  if (!have_workload) return usage("--workload is required");

  WorkloadResult result;
  if (config.workload == "edge_app") {
    result = run_edge_app(config);
  } else if (config.workload == "debug_session") {
    result = run_debug_session(config);
  } else if (config.workload == "serve_openloop") {
    result = run_serve_openloop(config);
  } else {
    return usage(("unknown workload " + config.workload).c_str());
  }

  if (config.trace) {
    // Keep the span dump next to the other runs' results.
    const std::filesystem::path spans = config.work_dir / "spans.jsonl";
    if (std::filesystem::exists(spans)) {
      const std::filesystem::path keep =
          config.work_dir.parent_path() /
          (config.workload + "-seed" + std::to_string(config.seed) +
           ".spans.jsonl");
      std::filesystem::rename(spans, keep);
      std::fprintf(stderr, "perfbench: spans written to %s\n", keep.c_str());
    }
  }
  std::filesystem::remove_all(config.work_dir);

  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.c_str());
  }

  // End-to-end metrics for --trace 0, per-layer metrics for --trace 1.
  static const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb",
                                          "ok_ratio", "p50_ms", "ops_per_s"};
  std::string metrics;
  auto add = [&](const std::string& name, const Metric& m) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  };
  for (const auto& [name, m] : result.metrics) {
    bool e2e = false;
    for (const char* e : kEndToEnd) e2e = e2e || name == e;
    if (e2e != config.trace) add(name, m);
  }
  std::string invalid;
  for (const std::string& phase : result.invalid_phases) {
    invalid += (invalid.empty() ? "\"" : ", \"") + phase + "\"";
  }
  std::printf("fingerprint %s\n", fingerprint_json().c_str());
  std::printf("validity {\"valid\": %s, \"invalid_phases\": [%s]}\n",
              invalid.empty() ? "true" : "false", invalid.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              result.check_failures.empty() ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
