#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/rng.h"
#include "common/rng_lanes.h"

namespace hdldp {
namespace bench_e2e {

std::size_t Args::Scaled(std::size_t count, std::size_t floor) const {
  const auto scaled =
      static_cast<std::size_t>(std::llround(static_cast<double>(count) * scale));
  return std::max(scaled, floor);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Small stable id of the calling thread, for the trace's tid field.
std::uint32_t ThreadId() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1) + 1;
  return id;
}

// Linear interpolation between closest ranks of a sorted sample.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

}  // namespace

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return Quantile(samples, 0.5);
}

Summary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.count = samples.size();
  s.p50 = Quantile(samples, 0.5);
  const double n = static_cast<double>(samples.size());
  s.tail_quantile = samples.size() < 20 ? 0.5 : std::min(0.99, 1.0 - 10.0 / n);
  s.tail = Quantile(samples, s.tail_quantile);
  return s;
}

std::string PercentileName(double quantile) {
  char name[16];
  std::snprintf(name, sizeof(name), "p%.1f", 100 * quantile);
  return name;
}

void Digest::Add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (bits >> (8 * byte)) & 0xffu;
    hash_ *= 0x100000001b3ULL;
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void Outcome::Metric(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is finite");
    value = 0.0;
  }
  std::printf("  %-34s %16.6g %-10s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
  metrics_.push_back(Entry{name, value, unit});
}

void Outcome::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

void Outcome::Attempt(bool ok, std::uint64_t count) {
  attempted_ += count;
  if (!ok) failed_ += count;
}

void Outcome::CheckDigest(const Args& args, std::uint64_t digest) {
  std::printf("digest %s %016" PRIx64 "\n", args.workload.c_str(), digest);
  if (args.seed != kDefaultSeed || args.scale != 1.0 ||
      args.expect_digests.empty()) {
    return;
  }
  std::ifstream in(args.expect_digests);
  std::string name;
  std::string hex;
  while (in >> name >> hex) {
    if (name != args.workload) continue;
    const std::uint64_t expected = std::strtoull(hex.c_str(), nullptr, 16);
    Check(expected == digest,
          "estimate digest of " + name + " equals the baseline " + hex);
    return;
  }
  Check(false, "baseline " + args.expect_digests + " has a digest for " +
                   args.workload);
}

std::string Outcome::JsonLine() const {
  std::ostringstream json;
  json << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    json << (i == 0 ? "" : ", ") << '"' << metrics_[i].name
         << "\": {\"value\": " << value << ", \"unit\": \"" << metrics_[i].unit
         << "\"}";
  }
  json << "}}";
  return json.str();
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  double origin = all.empty() ? 0.0 : all.front().begin;
  for (const SpanRecord& s : all) origin = std::min(origin, s.begin);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                 ", \"parent\": %" PRIu64 "}}%s\n",
                 s.name, s.tid, 1e6 * (s.begin - origin),
                 1e6 * (s.end - s.begin), s.id, s.parent,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::Internal("cannot close " + path);
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.name = name;
  record_.id = tracer_->NextId();
  record_.parent = parent;
  record_.tid = ThreadId();
  record_.begin = Now();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end = Now();
  tracer_->Record(record_);
}

Result<std::span<const double>> TimedChunkSource::Chunk(
    std::size_t chunk, data::ChunkBuffer* buffer) const {
  Span span(tracer_, "data.Chunk", tracer_->stage.load());
  Result<std::span<const double>> rows = base_->Chunk(chunk, buffer);
  pulls_.fetch_add(1);
  if (rows.ok()) {
    bytes_.fetch_add(rows.value().size() * sizeof(double));
  } else {
    errors_.fetch_add(1);
  }
  return rows;
}

Result<std::vector<double>> TimedChunkSource::TrueMean() const {
  Span span(tracer_, "data.TrueMean", tracer_->stage.load());
  return base_->TrueMean();
}

ScratchDir::ScratchDir(const Args& args)
    : path_(args.scratch_dir + "/" + args.workload + "-" +
            std::to_string(::getpid())) {
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

Status TimeSetup(const std::function<Status()>& setup, double* median) {
  std::vector<double> times;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = Now();
    HDLDP_RETURN_NOT_OK(setup());
    times.push_back(Now() - t0);
  }
  *median = Median(times);
  return Status::OK();
}

std::vector<double> ReplayClientLayers(const mech::SamplerPlan& plan,
                                       const std::vector<double>& natives,
                                       std::size_t d, std::size_t m,
                                       std::uint64_t seed, Outcome* out) {
  std::vector<double> perturbed(natives.size());
  RngLanes lanes(seed);
  const double perturb_rate = ReplayRate(kReplaySeconds, [&] {
    mech::PerturbLanes(plan, natives, &lanes, perturbed);
  });
  out->Metric("mech.perturb_mvals_per_s",
              1e-6 * perturb_rate * static_cast<double>(natives.size()),
              "Mvals/s", "PerturbLanes, 1 thread");

  Rng rng(seed);
  BatchSamplerScratch scratch;
  std::vector<std::uint32_t> sampled;
  const double sample_rate = ReplayRate(kReplaySeconds, [&] {
    sampled.clear();
    rng.SampleWithoutReplacementBatch(d, m, data::kUsersPerChunk, true,
                                      &scratch, &sampled);
  });
  out->Metric("common.sample_dims_musers_per_s",
              1e-6 * sample_rate * static_cast<double>(data::kUsersPerChunk),
              "Musers/s", std::to_string(m) + " of " + std::to_string(d));
  return perturbed;
}

double ReplayRate(double seconds, const std::function<void()>& body) {
  body();  // warm caches and scratch allocations
  const double start = Now();
  std::uint64_t calls = 0;
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = Now() - start;
  } while (elapsed < seconds);
  return static_cast<double>(calls) / elapsed;
}

}  // namespace bench_e2e
}  // namespace hdldp
