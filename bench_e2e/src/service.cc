// The service workload: the online aggregation service fed numeric
// mean reports (d = 256, m = 8, duchi at eps = 1) from 1024 tenants,
// 4000 reports per event-time tick, sliding windows of 100 ticks with
// slide 1 (one publish per tick). Every envelope is generated during
// setup into memory, so the load generator is never timed.
//
//   closed phase: block mode, 2 workers; the main thread replays a prefix of
//     the envelopes as fast as the service takes them, advancing the
//     watermark at every tick. Repeated on fresh services; the median
//     rate is users_per_s (one report = one user).
//   open phase: a fresh service in shed mode, 2 workers, fed at a fixed
//     400k reports/s (10 ms ticks) with a snapshot every 25 ticks. Each
//     report is sent at its due time and each publish is timed from the
//     end of its tick, so a stall of the sender counts against the
//     publish it delays. The median publish delay is latency_p50_ms.
//
// The batch workloads bypass this whole layer.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "mech/registry.h"
#include "protocol/aggregator.h"
#include "protocol/client.h"
#include "protocol/wire.h"
#include "service/aggregation_service.h"

namespace hdldp {
namespace bench_e2e {
namespace {

using service::AggregationService;
using service::OverloadPolicy;
using service::ServiceOptions;
using service::ServiceStats;

constexpr std::size_t kDims = 256;
constexpr std::size_t kReportDims = 8;
constexpr double kEpsilon = 1.0;
constexpr std::uint64_t kTenants = 1024;
constexpr std::uint64_t kWindowWidth = 100;
constexpr std::size_t kWorkers = 2;
// Block mode needs only enough queue to keep the workers busy; shed
// mode gets enough for a sender catching up after a snapshot or a stall
// never to shed at the open-phase rate.
constexpr std::size_t kBlockQueueCapacity = 4096;
constexpr std::size_t kShedQueueCapacity = 1 << 16;
constexpr std::uint64_t kSnapshotEveryTicks = 25;
constexpr int kMinClosedReplays = 3;
// Shares of --seconds spent in the closed and the open phase.
constexpr double kClosedShare = 0.45;
constexpr double kOpenShare = 0.5;
// Upper bound of one envelope's size at this report shape (~86 B).
constexpr std::size_t kMaxEnvelopeBytes = 160;

// Every envelope of the run, generated in contiguous per-thread segments.
struct Envelopes {
  struct Segment {
    std::size_t first = 0;  // index of the segment's first envelope
    std::vector<std::uint8_t> bytes;
    std::vector<std::size_t> offsets;  // envelopes + 1 entries
  };
  std::vector<Segment> segments;
  std::size_t per_segment = 1;
  std::size_t count = 0;

  std::size_t bytes() const {
    std::size_t total = 0;
    for (const Segment& s : segments) total += s.bytes.size();
    return total;
  }
  std::span<const std::uint8_t> operator[](std::size_t i) const {
    const Segment& s = segments[i / per_segment];
    const std::size_t k = i - s.first;
    return {s.bytes.data() + s.offsets[k], s.offsets[k + 1] - s.offsets[k]};
  }
};

// Scale-dependent geometry of the run.
struct Geometry {
  std::uint64_t reports_per_tick = 0;
  double open_rate = 0.0;  // reports/s
  std::size_t open_reports = 0;
  std::size_t closed_reports = 0;
};

// The report of user i: its own tuple, uniform in [-1, 1]^d, and its own
// sampling and perturbation draws, all from a stream keyed by (seed, i).
Status GenerateSegment(const protocol::Client& client, std::uint64_t seed,
                       std::uint64_t per_tick, std::size_t end,
                       Envelopes::Segment* segment) {
  std::vector<double> tuple(kDims);
  protocol::ReportEnvelope envelope;
  // Reserved once, above any envelope's size: growing by reallocation
  // would make the peak resident set depend on how the threads' copies
  // overlap. Untouched reserved pages are never resident.
  segment->bytes.clear();
  segment->bytes.reserve((end - segment->first) * kMaxEnvelopeBytes);
  segment->offsets.clear();
  segment->offsets.reserve(end - segment->first + 1);
  segment->offsets.push_back(0);
  for (std::size_t i = segment->first; i < end; ++i) {
    Rng rng(ChunkSeed(seed, i));
    for (double& v : tuple) v = rng.Uniform(-1.0, 1.0);
    HDLDP_ASSIGN_OR_RETURN(const protocol::UserReport report,
                           client.Report(tuple, &rng));
    HDLDP_ASSIGN_OR_RETURN(envelope.payload, protocol::EncodeReport(report));
    envelope.tenant = i % kTenants;
    envelope.sequence = i / kTenants;
    envelope.tick = i / per_tick;
    const std::vector<std::uint8_t> bytes = protocol::EncodeEnvelope(envelope);
    if (bytes.size() > kMaxEnvelopeBytes) {
      return Status::Internal("envelope larger than kMaxEnvelopeBytes");
    }
    segment->bytes.insert(segment->bytes.end(), bytes.begin(), bytes.end());
    segment->offsets.push_back(segment->bytes.size());
  }
  return Status::OK();
}

// Generates `count` envelopes on kThreads threads (one Client each: a
// Client is not thread-safe).
Status Generate(const mech::MechanismPtr& mechanism, std::uint64_t seed,
                std::uint64_t per_tick, std::size_t count, Envelopes* out) {
  out->count = count;
  out->per_segment = (count + kThreads - 1) / kThreads;
  out->segments.assign(kThreads, {});
  std::vector<Status> status(kThreads);
  ThreadPool::Shared().ParallelFor(
      0, kThreads,
      [&](std::size_t t) {
        Envelopes::Segment& segment = out->segments[t];
        segment.first = std::min(count, t * out->per_segment);
        const std::size_t end = std::min(count, segment.first + out->per_segment);
        Result<protocol::Client> client = protocol::Client::Create(
            mechanism, kDims,
            {.total_epsilon = kEpsilon, .report_dims = kReportDims});
        status[t] = client.ok() ? GenerateSegment(*client, seed, per_tick,
                                                  end, &segment)
                                : client.status();
      },
      kThreads);
  for (const Status& st : status) HDLDP_RETURN_NOT_OK(st);
  return Status::OK();
}

Result<ServiceOptions> MakeServiceOptions(const protocol::Client& client,
                                          OverloadPolicy overload,
                                          std::size_t workers,
                                          const std::string& checkpoint) {
  ServiceOptions options;
  options.num_dims = kDims;
  options.domain_map = client.domain_map();
  options.expected_entries = kReportDims;
  HDLDP_ASSIGN_OR_RETURN(
      const mech::Interval output,
      client.mechanism().OutputDomain(client.PerDimensionEpsilon()));
  options.output_lo = output.lo;
  options.output_hi = output.hi;
  options.window.width = kWindowWidth;
  options.window.slide = 1;
  options.num_workers = workers;
  options.overload = overload;
  options.queue_capacity = overload == OverloadPolicy::kBlock
                               ? kBlockQueueCapacity
                               : kShedQueueCapacity;
  options.checkpoint_path = checkpoint;
  options.digest_tag = "bench_e2e";
  return options;
}

std::uint64_t ExpectedWindows(std::size_t reports, std::uint64_t per_tick) {
  const std::uint64_t ticks = (reports + per_tick - 1) / per_tick;
  return ticks >= kWindowWidth ? ticks - kWindowWidth + 1 : 0;
}

struct ClosedRun {
  double seconds = 0.0;
  double submit_s = 0.0;
  double advance_s = 0.0;
  ServiceStats stats;
  std::uint64_t digest = 0;
};

// Replays envelopes [0, count) into a fresh block-mode service.
Status ClosedReplay(const ServiceOptions& options, const Envelopes& envelopes,
                    std::size_t count, std::uint64_t per_tick,
                    Tracer* tracer, ClosedRun* run) {
  HDLDP_ASSIGN_OR_RETURN(std::unique_ptr<AggregationService> service,
                         AggregationService::Create(options));
  const double start = Now();
  for (std::size_t first = 0; first < count; first += per_tick) {
    const double t0 = Now();
    {
      Span span(tracer, "service.Submit");
      for (std::size_t i = first; i < std::min(count, first + per_tick); ++i) {
        HDLDP_RETURN_NOT_OK(service->Submit(envelopes[i]));
      }
    }
    const double t1 = Now();
    {
      Span span(tracer, "service.AdvanceWatermark");
      HDLDP_RETURN_NOT_OK(service->AdvanceWatermark(first / per_tick + 1));
    }
    run->submit_s += t1 - t0;
    run->advance_s += Now() - t1;
  }
  {
    const double t0 = Now();
    Span span(tracer, "service.Drain");
    HDLDP_RETURN_NOT_OK(service->Drain());
    run->advance_s += Now() - t0;
  }
  run->seconds = Now() - start;
  HDLDP_RETURN_NOT_OK(service->VerifyReconciliation());
  run->stats = service->Stats();
  Digest digest;
  for (const service::PublishedWindow& w : service->PublishedWindows()) {
    digest.Add(static_cast<double>(w.index));
    digest.Add(static_cast<double>(w.report_count));
    digest.Add(w.estimate);
  }
  run->digest = digest.value();
  return Status::OK();
}

struct OpenRun {
  std::vector<double> publish_delay;
  std::vector<double> advance;
  std::vector<double> snapshot;
  std::vector<double> lateness;
  double seconds = 0.0;
  ServiceStats stats;
  std::uintmax_t snapshot_file_bytes = 0;
};

// Blocks until Now() >= due: sleeps while far away, spins the rest.
void WaitUntil(double due) {
  for (double now = Now(); now < due; now = Now()) {
    if (due - now > 3e-4) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(due - now - 2e-4));
    }
  }
}

// Feeds envelopes [0, count) at the open-phase rate into a fresh
// shed-mode service.
Status OpenLoop(const ServiceOptions& options, const Envelopes& envelopes,
                std::size_t count, const Geometry& g, Tracer* tracer,
                OpenRun* run) {
  HDLDP_ASSIGN_OR_RETURN(std::unique_ptr<AggregationService> service,
                         AggregationService::Create(options));
  run->lateness.reserve(count);
  const double start = Now() + 1e-3;
  for (std::size_t i = 0; i < count; ++i) {
    const double due = start + static_cast<double>(i) / g.open_rate;
    if (i > 0 && i % g.reports_per_tick == 0) {
      // Tick `tick - 1` ended at `due`: seal it and publish the window
      // it completes.
      const std::uint64_t tick = i / g.reports_per_tick;
      WaitUntil(due);
      const double t0 = Now();
      {
        Span span(tracer, "service.AdvanceWatermark");
        HDLDP_RETURN_NOT_OK(service->AdvanceWatermark(tick));
      }
      const double t1 = Now();
      run->advance.push_back(t1 - t0);
      if (tick >= kWindowWidth) run->publish_delay.push_back(t1 - due);
      if (tick % kSnapshotEveryTicks == 0) {
        Span span(tracer, "service.SaveSnapshot");
        HDLDP_RETURN_NOT_OK(service->SaveSnapshot(i));
        run->snapshot.push_back(Now() - t1);
      }
    }
    WaitUntil(due);
    run->lateness.push_back(Now() - due);
    const Status st = service->Submit(envelopes[i]);
    if (!st.ok() && st.code() != StatusCode::kUnavailable) return st;
  }
  HDLDP_RETURN_NOT_OK(service->Drain());
  run->seconds = Now() - start;
  HDLDP_RETURN_NOT_OK(service->VerifyReconciliation());
  run->stats = service->Stats();
  std::error_code error;
  const std::uintmax_t bytes =
      std::filesystem::file_size(options.checkpoint_path, error);
  run->snapshot_file_bytes = error ? 0 : bytes;
  return Status::OK();
}

// Layer replays at the service's report shape: the client-side layers,
// then the service's own fold, ConsumeReport on decoded reports.
Status ServiceReplays(const protocol::Client& client,
                      const Envelopes& envelopes, std::uint64_t seed,
                      Outcome* out) {
  // The service's clients sample and perturb tuples uniform in [-1, 1].
  std::vector<double> natives(data::kUsersPerChunk * kReportDims);
  Rng value_rng(seed);
  for (double& v : natives) v = value_rng.Uniform(-1.0, 1.0);
  ReplayClientLayers(client.plan(), natives, kDims, kReportDims, seed, out);
  std::vector<protocol::UserReport> reports;
  for (std::size_t i = 0; i < std::min(data::kUsersPerChunk, envelopes.count);
       ++i) {
    HDLDP_ASSIGN_OR_RETURN(const protocol::ReportEnvelope envelope,
                           protocol::DecodeEnvelope(envelopes[i]));
    HDLDP_ASSIGN_OR_RETURN(protocol::UserReport report,
                           protocol::DecodeReport(envelope.payload));
    reports.push_back(std::move(report));
  }
  HDLDP_ASSIGN_OR_RETURN(
      protocol::MeanAggregator agg,
      protocol::MeanAggregator::Create(kDims, client.domain_map()));
  Status fold = Status::OK();
  const double rate = ReplayRate(kReplaySeconds, [&] {
    for (const protocol::UserReport& r : reports) {
      if (fold.ok()) fold = agg.ConsumeReport(r);
    }
  });
  HDLDP_RETURN_NOT_OK(fold);
  out->Metric("protocol.consume_mvals_per_s",
              1e-6 * rate * static_cast<double>(reports.size() * kReportDims),
              "Mvals/s", "ConsumeReport");
  return Status::OK();
}

}  // namespace

Status RunServiceStream(const Args& args, Outcome* out) {
  Geometry g;
  g.reports_per_tick = args.Scaled(4000, 10);
  g.open_rate = static_cast<double>(args.Scaled(400000, 1000));
  g.open_reports =
      static_cast<std::size_t>(g.open_rate * kOpenShare * args.seconds);
  g.closed_reports = args.Scaled(600000, 1000);
  HDLDP_ASSIGN_OR_RETURN(const mech::MechanismPtr mechanism,
                         mech::MakeMechanism("duchi"));
  HDLDP_ASSIGN_OR_RETURN(
      const protocol::Client client,
      protocol::Client::Create(
          mechanism, kDims,
          {.total_epsilon = kEpsilon, .report_dims = kReportDims}));
  const ScratchDir scratch(args);

  Envelopes envelopes;
  double setup_s = 0.0;
  HDLDP_RETURN_NOT_OK(TimeSetup(
      [&] {
        return Generate(mechanism, args.seed, g.reports_per_tick,
                        std::max(g.open_reports, g.closed_reports),
                        &envelopes);
      },
      &setup_s));
  std::printf("  %zu envelopes, %.1f B each, generated at %.4g reports/s "
              "(load.encode_reports_per_s); closed phase %zu reports, open "
              "phase %.0f reports/s, %llu reports per tick\n",
              envelopes.count,
              static_cast<double>(envelopes.bytes()) /
                  static_cast<double>(envelopes.count),
              static_cast<double>(envelopes.count) / setup_s,
              g.closed_reports, g.open_rate,
              static_cast<unsigned long long>(g.reports_per_tick));

  // Closed phase: untraced replays (a traced run adds traced ones and a
  // single-worker one after the open phase).
  const double closed_budget =
      kClosedShare * args.seconds / (args.traced() ? 2 : 1);
  const std::uint64_t expected_windows =
      ExpectedWindows(g.closed_reports, g.reports_per_tick);
  std::uint64_t digest = 0;
  auto closed = [&](std::size_t workers, Tracer* tracer,
                    ClosedRun* run) -> Status {
    HDLDP_ASSIGN_OR_RETURN(
        const ServiceOptions options,
        MakeServiceOptions(client, OverloadPolicy::kBlock, workers, ""));
    HDLDP_RETURN_NOT_OK(ClosedReplay(options, envelopes, g.closed_reports,
                                     g.reports_per_tick, tracer, run));
    const bool ok = run->stats.accepted == g.closed_reports &&
                    run->stats.submitted == g.closed_reports &&
                    run->stats.published_windows == expected_windows;
    out->Attempt(ok, g.closed_reports);
    out->Check(ok, "closed phase accepts every report and publishes " +
                       std::to_string(expected_windows) + " windows");
    if (digest == 0) digest = run->digest;
    out->Check(run->digest == digest,
               "published windows identical across replays and workers");
    return Status::OK();
  };
  std::vector<double> rates;
  const double closed_start = Now();
  while (rates.size() < kMinClosedReplays ||
         Now() - closed_start < closed_budget) {
    ClosedRun run;
    HDLDP_RETURN_NOT_OK(closed(kWorkers, nullptr, &run));
    rates.push_back(static_cast<double>(g.closed_reports) / run.seconds);
  }
  out->CheckDigest(args, digest);

  // Open phase.
  Tracer tracer;
  OpenRun open;
  {
    HDLDP_ASSIGN_OR_RETURN(
        const ServiceOptions options,
        MakeServiceOptions(client, OverloadPolicy::kShed, kWorkers,
                           scratch.path() + "/snapshot"));
    HDLDP_RETURN_NOT_OK(OpenLoop(options, envelopes, g.open_reports, g,
                                 args.traced() ? &tracer : nullptr, &open));
  }
  const ServiceStats& s = open.stats;
  const std::uint64_t lost = s.shed_queue_full + s.shed_late +
                             s.shed_quarantined + s.rejected_malformed +
                             s.rejected_invalid + s.rejected_budget;
  out->Attempt(true, s.submitted - lost);
  out->Attempt(false, lost);
  const Summary publish = Summarize(open.publish_delay);
  const Summary late = Summarize(open.lateness);
  const Summary advance = Summarize(open.advance);
  const Summary snapshot = Summarize(open.snapshot);
  const double snapshot_max =
      open.snapshot.empty()
          ? 0.0
          : *std::max_element(open.snapshot.begin(), open.snapshot.end());
  std::printf(
      "  open phase: submitted %llu, accepted %llu, shed %llu, late %llu, "
      "rejected %llu, windows %llu; error_rate %.3g\n",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.shed_queue_full),
      static_cast<unsigned long long>(s.shed_late),
      static_cast<unsigned long long>(s.rejected_malformed +
                                      s.rejected_invalid + s.rejected_budget),
      static_cast<unsigned long long>(s.published_windows),
      static_cast<double>(lost) / static_cast<double>(s.submitted));
  std::printf("  publish delay ms: p50 %.4g %s %.4g (n=%zu)\n",
              1e3 * publish.p50, PercentileName(publish.tail_quantile).c_str(),
              1e3 * publish.tail, publish.count);
  std::printf("  service.advance_ms: p50 %.4g %s %.4g (n=%zu)\n",
              1e3 * advance.p50, PercentileName(advance.tail_quantile).c_str(),
              1e3 * advance.tail, advance.count);
  std::printf("  service.snapshot_ms: p50 %.4g max %.4g (n=%zu), "
              "service.snapshot_bytes %.0f per snapshot\n",
              1e3 * snapshot.p50, 1e3 * snapshot_max, snapshot.count,
              open.snapshot.empty()
                  ? 0.0
                  : static_cast<double>(open.snapshot_file_bytes) /
                        static_cast<double>(open.snapshot.size()));
  std::printf("  load.late_ms: p50 %.4g %s %.4g (n=%zu); bytes_per_user "
              "%.2f\n",
              1e3 * late.p50, PercentileName(late.tail_quantile).c_str(),
              1e3 * late.tail, late.count,
              static_cast<double>(s.accepted_payload_bytes) /
                  static_cast<double>(s.accepted));

  if (!args.traced()) {
    out->Metric("setup_s", setup_s, "s",
                "median of " + std::to_string(kSetupRepeats) +
                    " envelope generations");
    out->Metric("users_per_s", Median(rates), "users/s",
                "closed phase, median of " + std::to_string(rates.size()) +
                    " replays");
    out->Metric("latency_p50_ms", 1e3 * publish.p50, "ms",
                "publish delay after tick end, n=" +
                    std::to_string(publish.count));
    out->Metric("peak_rss_mb", PeakRssMb(), "MiB", "VmHWM");
    return Status::OK();
  }

  std::vector<double> traced_rates;
  double submit_s = 0.0;
  double advance_s = 0.0;
  double traced_wall = 0.0;
  const double traced_start = Now();
  while (traced_rates.size() < kMinClosedReplays ||
         Now() - traced_start < closed_budget) {
    ClosedRun run;
    HDLDP_RETURN_NOT_OK(closed(kWorkers, &tracer, &run));
    traced_rates.push_back(static_cast<double>(g.closed_reports) /
                           run.seconds);
    submit_s += run.submit_s;
    advance_s += run.advance_s;
    traced_wall += run.seconds;
  }
  // One worker must publish the same bits (worker-count invariance).
  ClosedRun single;
  HDLDP_RETURN_NOT_OK(closed(1, nullptr, &single));
  const double single_rate =
      static_cast<double>(g.closed_reports) / single.seconds;
  double snapshot_s = 0.0;
  for (const double t : open.snapshot) snapshot_s += t;

  out->Metric("data.pull_share", 0.0, "share", "not on this workload");
  out->Metric("data.pull_gbps", 0.0, "GB/s", "not on this workload");
  out->Metric("data.true_mean_share", 0.0, "share", "not on this workload");
  out->Metric("engine.self_share", 0.0, "share", "not on this workload");
  out->Metric("framework.model_share", 0.0, "share", "not on this workload");
  out->Metric("hdr4me.recalibrate_share", 0.0, "share",
              "not on this workload");
  out->Metric("service.submit_share", submit_s / traced_wall, "share",
              "closed phase, main-thread time in Submit");
  out->Metric("service.advance_share", advance_s / traced_wall, "share",
              "closed phase, main-thread time in AdvanceWatermark + Drain");
  out->Metric("service.snapshot_share", snapshot_s / open.seconds, "share",
              "open phase, main-thread time in SaveSnapshot");
  HDLDP_RETURN_NOT_OK(ServiceReplays(client, envelopes, args.seed, out));
  out->Metric("job.parallel_efficiency",
              Median(rates) / (static_cast<double>(kWorkers) * single_rate),
              "ratio", "closed phase: 2-worker rate / (2 x 1-worker rate)");
  out->Metric("trace.overhead", Median(rates) / Median(traced_rates), "ratio",
              "untraced / traced closed-phase rate");
  out->Metric("trace.span_coverage", (submit_s + advance_s) / traced_wall,
              "share", "Submit + AdvanceWatermark + Drain spans / wall");
  const std::string path = args.trace_out + "/" + args.workload + ".json";
  HDLDP_RETURN_NOT_OK(tracer.WriteChromeJson(path));
  std::printf("  trace: %s (%zu spans)\n", path.c_str(),
              tracer.spans().size());
  return Status::OK();
}

}  // namespace bench_e2e
}  // namespace hdldp
