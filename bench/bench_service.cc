// Sustained-throughput benchmark of the online aggregation service:
// wire-format ingestion -> dedup/budget/fold -> rolling window publish,
// across the ingestion modes that matter operationally — single-threaded
// replay, multi-worker backpressure, multi-worker shedding under
// deliberate overload, and replay with periodic snapshots.
//
// Each mode's wire envelopes are generated before its stopwatch starts,
// so the timed loop is the service alone. Reported per mode: end-to-end
// reports/sec (submit through Drain), accepted/shed split, published
// window count, and the p50/p99/max seal-and-publish latency over the
// watermark advances and the final drain (estimate staleness).
// Contributes BENCH_service.json to the BENCH_records CI artifact.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/aggregation_service.h"
#include "service/report_stream.h"

namespace {

using hdldp::Status;
using hdldp::StatusCode;
using hdldp::bench::JsonRecord;
using hdldp::bench::Stopwatch;
using hdldp::service::AggregationService;
using hdldp::service::OverloadPolicy;
using hdldp::service::ReportStream;
using hdldp::service::ReportStreamOptions;
using hdldp::service::ServiceOptions;
using hdldp::service::ServiceStats;

struct ModeResult {
  double seconds = 0;
  // Seconds inside each AdvanceWatermark, then the final Drain.
  std::vector<double> publish_seconds;
  ServiceStats stats;
};

// Nearest-rank q-quantile of `seconds`, in milliseconds.
double QuantileMs(std::vector<double> seconds, double q) {
  if (seconds.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(seconds.size() - 1) + 0.5);
  std::nth_element(seconds.begin(), seconds.begin() + rank, seconds.end());
  return 1e3 * seconds[rank];
}

ReportStreamOptions StreamOptions(std::uint64_t reports,
                                  hdldp::protocol::ReportEncoding encoding) {
  ReportStreamOptions options;
  options.num_reports = reports;
  options.num_dims = 16;
  options.report_dims = 4;
  options.num_tenants = 64;
  options.seed = 99;
  options.reports_per_tick = reports / 20 == 0 ? 1 : reports / 20;
  options.encoding = encoding;
  // The frequency oracles are categorical: same question count and
  // sampling rate as the mean workload, 4 categories per question.
  if (encoding == hdldp::protocol::ReportEncoding::kOue ||
      encoding == hdldp::protocol::ReportEncoding::kOlh) {
    options.workload = hdldp::protocol::Workload::kFrequency;
    options.num_categories = 4;
  }
  return options;
}

Status RunMode(const ReportStreamOptions& stream_options,
               std::size_t workers, OverloadPolicy overload,
               std::size_t queue_capacity, std::uint64_t snapshot_every,
               const std::string& checkpoint, ModeResult* result) {
  HDLDP_ASSIGN_OR_RETURN(ReportStream stream,
                         ReportStream::Create(stream_options));
  ServiceOptions options = stream.MakeServiceOptions();
  options.window.width = 2;
  options.num_workers = workers;
  options.overload = overload;
  options.queue_capacity = queue_capacity;
  options.checkpoint_path = checkpoint;
  HDLDP_ASSIGN_OR_RETURN(std::unique_ptr<AggregationService> service,
                         AggregationService::Create(options));

  // Envelope k ends at bytes[ends[k]]; the stream position after it is
  // k + 1.
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> ends;
  std::vector<std::uint8_t> envelope;
  for (;;) {
    bool done = false;
    HDLDP_RETURN_NOT_OK(stream.Next(&envelope, &done));
    if (done) break;
    bytes.insert(bytes.end(), envelope.begin(), envelope.end());
    ends.push_back(bytes.size());
  }

  const std::uint64_t per_tick = stream_options.reports_per_tick;
  const Stopwatch total;
  std::uint64_t last_tick = 0;
  std::size_t begin = 0;
  for (std::size_t k = 0; k < ends.size(); ++k) {
    const Status status = service->Submit(
        std::span<const std::uint8_t>(bytes).subspan(begin, ends[k] - begin));
    begin = ends[k];
    if (!status.ok() && status.code() != StatusCode::kUnavailable) {
      return status;
    }
    const std::uint64_t position = k + 1;
    const std::uint64_t tick = position / per_tick;
    if (tick > last_tick) {
      last_tick = tick;
      const Stopwatch publish;
      HDLDP_RETURN_NOT_OK(service->AdvanceWatermark(tick));
      result->publish_seconds.push_back(publish.Seconds());
    }
    if (snapshot_every > 0 && position % snapshot_every == 0) {
      HDLDP_RETURN_NOT_OK(service->SaveSnapshot(position));
    }
  }
  {
    const Stopwatch publish;
    HDLDP_RETURN_NOT_OK(service->Drain());
    result->publish_seconds.push_back(publish.Seconds());
  }
  result->seconds = total.Seconds();
  HDLDP_RETURN_NOT_OK(service->VerifyReconciliation());
  result->stats = service->Stats();
  if (!checkpoint.empty()) {
    HDLDP_RETURN_NOT_OK(service->Finish());
  }
  return Status::OK();
}

}  // namespace

int main() {
  const std::uint64_t reports =
      static_cast<std::uint64_t>(hdldp::bench::ScaledUsers(500'000));
  hdldp::bench::PrintHeader(
      "online aggregation service: sustained ingestion throughput",
      "500k wire reports, d=16 m=4, 64 tenants, 20 ticks, width-2 windows");

  struct Mode {
    const char* name;
    std::size_t workers;
    OverloadPolicy overload;
    std::size_t queue_capacity;
    std::uint64_t snapshot_every;
    hdldp::protocol::ReportEncoding encoding;
  };
  const std::string checkpoint = "/tmp/hdldp_bench_service_ckpt";
  constexpr auto kDense = hdldp::protocol::ReportEncoding::kDense;
  const Mode modes[] = {
      {"replay-1w", 1, OverloadPolicy::kBlock, 4096, 0, kDense},
      {"serve-4w-block", 4, OverloadPolicy::kBlock, 4096, 0, kDense},
      {"serve-4w-shed-overload", 4, OverloadPolicy::kShed, 64, 0, kDense},
      {"replay-1w-snapshots", 1, OverloadPolicy::kBlock, 4096, 0 /*below*/,
       kDense},
      // Compact-encoding replay: same single-worker ingestion loop, but
      // the reports arrive as 1-bit Hadamard mean payloads / OUE / OLH
      // frequency-oracle payloads and flow through the PayloadCodec.
      // bytes/report next to reports/sec shows the communication-vs-CPU
      // trade against the dense replay baseline.
      {"replay-1w-hadamard1", 1, OverloadPolicy::kBlock, 4096, 0,
       hdldp::protocol::ReportEncoding::kHadamard1},
      {"replay-1w-oue", 1, OverloadPolicy::kBlock, 4096, 0,
       hdldp::protocol::ReportEncoding::kOue},
      {"replay-1w-olh", 1, OverloadPolicy::kBlock, 4096, 0,
       hdldp::protocol::ReportEncoding::kOlh},
  };

  JsonRecord record("bench_service");
  record.Meta("reports", static_cast<std::size_t>(reports));
  record.Meta("dims", std::size_t{16});
  record.Meta("report_dims", std::size_t{4});
  record.Meta("tenants", std::size_t{64});

  std::printf("%-24s %12s %12s %12s %10s %8s %8s %8s %8s\n", "mode",
              "reports/s", "accepted", "shed", "windows", "pub_p50", "pub_p99",
              "pub_max", "B/rpt");
  const Stopwatch wall;
  for (const Mode& mode : modes) {
    const bool snapshots = std::string(mode.name) == "replay-1w-snapshots";
    ModeResult result;
    const Status status = RunMode(
        StreamOptions(reports, mode.encoding), mode.workers, mode.overload,
        mode.queue_capacity, snapshots ? reports / 10 : 0,
        snapshots ? checkpoint : std::string(), &result);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_service %s: %s\n", mode.name,
                   status.ToString().c_str());
      return 1;
    }
    const double rate =
        result.seconds > 0 ? static_cast<double>(reports) / result.seconds
                           : 0.0;
    const double publish_p50 = QuantileMs(result.publish_seconds, 0.5);
    const double publish_p99 = QuantileMs(result.publish_seconds, 0.99);
    const double publish_max = QuantileMs(result.publish_seconds, 1.0);
    const double bytes_per_report =
        result.stats.accepted > 0
            ? static_cast<double>(result.stats.accepted_payload_bytes) /
                  static_cast<double>(result.stats.accepted)
            : 0.0;
    std::printf("%-24s %12.0f %12llu %12llu %10llu %8.3f %8.3f %8.3f %8.1f\n",
                mode.name, rate,
                static_cast<unsigned long long>(result.stats.accepted),
                static_cast<unsigned long long>(result.stats.shed_queue_full),
                static_cast<unsigned long long>(
                    result.stats.published_windows),
                publish_p50, publish_p99, publish_max, bytes_per_report);
    record.NewCell();
    record.Cell("mode", mode.name);
    record.Cell("workers", mode.workers);
    record.Cell("encoding", std::string(hdldp::protocol::ReportEncodingName(
                                mode.encoding)));
    record.Cell("reports_per_sec", rate);
    record.Cell("seconds", result.seconds);
    record.Cell("accepted", static_cast<std::size_t>(result.stats.accepted));
    record.Cell("shed_queue_full",
                static_cast<std::size_t>(result.stats.shed_queue_full));
    record.Cell("published_windows",
                static_cast<std::size_t>(result.stats.published_windows));
    record.Cell("publish_p50_ms", publish_p50);
    record.Cell("publish_p99_ms", publish_p99);
    record.Cell("publish_max_ms", publish_max);
    record.Cell("bytes_per_report", bytes_per_report);
  }
  record.Meta("wall_seconds", wall.Seconds());
  record.WriteIfRequested();
  return 0;
}
