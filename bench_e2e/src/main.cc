// bench_e2e: the end-to-end and per-layer benchmark of hdldp.
//
//   bench_e2e --workload=<name|all> [--seed=N] [--seconds=S] [--scale=F]
//             [--scratch-dir=DIR] [--trace-out=DIR] [--expect-digests=FILE]
//
// One process runs one workload and prints, as its last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with --trace-out the per-layer metrics (and a
// Chrome trace-event file per workload in that directory). `all`
// re-executes this binary once per workload, so every peak_rss_mb is
// its own workload's. Exit status 0 iff every check passed. README.md
// lists the workloads, metrics and bounds.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng_lanes.h"
#include "harness.h"

namespace {

using hdldp::Status;
using hdldp::bench_e2e::Args;
using hdldp::bench_e2e::Outcome;

struct Workload {
  const char* name;
  Status (*run)(const Args&, Outcome*);
};

constexpr Workload kWorkloads[] = {
    {"mean_dense_shard", hdldp::bench_e2e::RunMeanDenseShard},
    {"mean_sampled_hdr4me", hdldp::bench_e2e::RunMeanSampledHdr4me},
    {"freq_sampled_onehot", hdldp::bench_e2e::RunFreqSampledOnehot},
    {"service_stream", hdldp::bench_e2e::RunServiceStream},
};

int Usage(const char* problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload=<name|all> "
               "[--seed=N] [--seconds=S] [--scale=F] [--scratch-dir=DIR] "
               "[--trace-out=DIR] [--expect-digests=FILE]\nworkloads:",
               problem);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string FirstLineWith(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The hardware and build the numbers were measured on.
void PrintFingerprint() {
  std::string l3 = "unknown";
  std::ifstream cache("/sys/devices/system/cpu/cpu0/cache/index3/size");
  cache >> l3;
  std::printf("fingerprint: cpu=\"%s\" nproc=%u l3=%s avx2=%s compiler=\"%s\" "
              "build=%s\n",
              FirstLineWith("/proc/cpuinfo", "model name").c_str(),
              std::thread::hardware_concurrency(), l3.c_str(),
              hdldp::RngLanes::kSimdEnabled ? "on" : "off", __VERSION__,
#ifdef NDEBUG
              "optimized"
#else
              "debug"
#endif
  );
}

int RunAll(int argc, char** argv) {
  int status = 0;
  for (const Workload& w : kWorkloads) {
    std::vector<std::string> args = {argv[0], std::string("--workload=") + w.name};
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]).rfind("--workload=", 0) != 0) {
        args.emplace_back(argv[i]);
      }
    }
    std::vector<char*> child_argv;
    for (std::string& a : args) child_argv.push_back(a.data());
    child_argv.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execv("/proc/self/exe", child_argv.data());
      std::_Exit(127);
    }
    int child = 0;
    if (pid < 0 || ::waitpid(pid, &child, 0) != pid || !WIFEXITED(child) ||
        WEXITSTATUS(child) != 0) {
      std::printf("workload %s FAILED\n", w.name);
      status = 1;
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--scale") {
      args.scale = std::strtod(value.c_str(), &end);
    } else if (key == "--scratch-dir") {
      args.scratch_dir = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--expect-digests") {
      args.expect_digests = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return Usage(("bad value in " + arg).c_str());
    }
  }
  if (!(args.seconds > 0) || !(args.scale > 0)) {
    return Usage("--seconds and --scale must be positive");
  }
  if (args.workload == "all") {
    PrintFingerprint();
    return RunAll(argc, argv);
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown or missing --workload");

  std::printf("== bench_e2e workload=%s seed=%llu seconds=%g scale=%g %s\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.scale, args.traced() ? "traced" : "untraced");
  PrintFingerprint();
  if (args.traced()) std::filesystem::create_directories(args.trace_out);
  Outcome out;
  const Status status = workload->run(args, &out);
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", out.JsonLine().c_str());
  return out.correct() ? 0 : 1;
}
