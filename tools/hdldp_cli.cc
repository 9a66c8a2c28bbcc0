// hdldp_cli: command-line front end for the hdldp library.
//
// All flags are --key=value (a bare --key means --key=true); unknown keys
// and malformed values are errors (exit 3), and so is a flag the run
// would silently ignore. A key given twice is a usage error (exit 2),
// never "the last one wins". Values parse strictly: integers and reals
// must be consumed whole (--report-dims=4x, --threads=four and --seed=-1
// are rejected), booleans are true or false, and enum-valued flags take
// only their listed names. `hdldp_cli <verb> --help` prints the usage,
// like `hdldp_cli --help`, and exits 0.
//
// Subcommands and their own flags:
//
//   hdldp_cli mean    [--mechanism=piecewise] [--epsilon=1] [--report-dims=0]
//                     [--threads=1] [--recalibrate=both|l1|l2|none] [--gate]
//                     [--print-estimate] [--encoding=dense|hadamard1]
//                     + run-control flags + numeric source flags
//                       (--dataset=uniform --dims=128)
//       Runs the full mean-estimation protocol and prints naive and
//       HDR4ME-enhanced MSE (--print-estimate adds 17-digit estimates).
//       dense reports carry --report-dims values (m of d; 0 = all);
//       --encoding=hadamard1 runs the 1-bit compact-report path
//       (protocol/hadamard.h); oue/olh are frequency encodings and are
//       rejected here. --gate with --recalibrate=none is refused (exit 3),
//       and so is an explicit --gate or --recalibrate other than none
//       beside --encoding=hadamard1 (it has no value mechanism to model).
//       The header names mechanism=none under a compact encoding.
//
//   hdldp_cli freq    [--mechanism=piecewise] [--epsilon=1] [--sampled=0]
//                     [--questions=16] [--categories=8] [--zipf=1.0]
//                     [--threads=1] [--encoding=dense|oue|olh]
//                     + run-control flags + categorical source flags
//       Runs the Section V-C frequency-estimation protocol.
//       --sampled=m reports m of the questions (0 = all) under every
//       encoding. --encoding=oue|olh runs the frequency-oracle path (one
//       categorical report per sampled dimension at eps/m; the header
//       names mechanism=none); hadamard1 is a mean encoding and is
//       rejected here. With --input keep --questions/--categories: the
//       shard stores category indices, the schema stores cardinalities.
//
//   hdldp_cli variance [--mechanism=piecewise] [--epsilon=1] [--recalibrate]
//                      + run-control flags + numeric source flags
//                        (--dataset=gaussian --dims=64)
//       Runs the split-population variance-estimation extension.
//
//   hdldp_cli analyze [--epsilon=0.001] [--reports=10000]
//                     [--xi=0.001,0.01,0.05,0.1]
//       Pure analytical benchmark of all registered mechanisms at a
//       per-dimension budget (no experiment; the paper's framework).
//
//   hdldp_cli generate --out=<shard-dir> [--dataset=uniform] [--users=20000]
//                      [--dims=16] [--seed=1] [--chunks-per-file=1024]
//                      [--questions=16 --categories=8 --zipf=1.0]
//                      + write-fault flags
//       Streams a chunk-keyed synthetic population into an on-disk shard
//       directory (data/shard.h) without ever materializing it;
//       --dataset=categorical writes category indices for freq instead.
//       Each family's geometry flags are refused beside the other family
//       (--dims with categorical; --questions/--categories/--zipf with a
//       numeric dataset), exit 3.
//
//   hdldp_cli serve   [--workload=mean|freq] [--mechanism=duchi]
//                     [--reports=10000] [--dims=8 | --questions=4
//                     --categories=4] [--report-dims=0] [--epsilon=1]
//                     [--seed=1] [--tenants=4]
//                     [--tenant-budget=0] [--reports-per-tick=0]
//                     [--window-width=1] [--window-slide=0]
//                     [--window-lateness=0] [--threads=0]
//                     [--queue-capacity=1024] [--overload=shed|block]
//                     [--checkpoint=<file>] [--snapshot-every=0]
//                     [--kill-after=0] [--max-invalid-per-tenant=0]
//                     [--fault-drop-rate=P] [--fault-duplicate-rate=P]
//                     [--fault-reorder-rate=P] [--fault-reorder-delay=3]
//                     [--fault-seed=S] [--print-estimate]
//                     [--encoding=dense|oue|olh|hadamard1]
//                     + write-fault flags
//       Drives a deterministic report stream through the online
//       aggregation service (service::Drive): asynchronous multi-worker
//       ingestion, per-(tenant, sequence) dedup, per-tenant budget
//       enforcement, rolling tumbling/sliding window estimates, counted
//       load shedding, and crash-safe snapshots (--checkpoint +
//       --snapshot-every; re-running after a kill resumes from the file
//       and republishes bit-identical estimates; --snapshot-every without
//       --checkpoint is refused, exit 3). --kill-after=N
//       simulates the crash: the process exits abruptly (code 7) after N
//       stream envelopes. After K consecutive rejected reports
//       (--max-invalid-per-tenant) a tenant is quarantined and counted-
//       shed. The service's --checkpoint and --fault-* flags are its
//       own (snapshot file; report delivery faults), not the groups below.
//       The stream draws per-report scalar streams (the v1 contract of
//       common/rng_lanes.h); --seed-scheme is not a serve flag, so naming
//       one is an unknown flag (exit 3). The header names mechanism=none
//       under a compact encoding.
//
//   hdldp_cli replay  <serve flags minus --threads/--queue-capacity/
//                      --overload>
//       The deterministic single-threaded twin of serve: one worker,
//       lossless backpressure — the golden path whose published bits
//       serve must reproduce at any worker count.
//
// Run-control flags (mean/freq/variance; engine::RunControl):
//   --seed=1                   seed of the run; every stream derives from it.
//   --seed-scheme=v3           RNG stream contract (common/rng_lanes.h):
//       "v3" is the lane-parallel fast path with cross-user sampled
//       batching, "v2" replays the per-user sampled lane spans and "v1"
//       the legacy scalar streams, so recorded runs of every era stay
//       reproducible without recompiling.
//   --max-attempts=1           total attempts per chunk pull on transient
//       (Unavailable) faults; 1 = no retry. Every pull retries alike: the
//       estimate pass's and each reference pass's (ground truth, HDR4ME
//       marginals), so a resumed run recovers a faulted chunk it took
//       from its checkpoint too.
//   --backoff-ms=0             exponential backoff base: B << (k-1) ms
//       before retry k, saturating instead of wrapping.
//   --max-total-backoff-ms=0   wall-clock retry budget per pull from its
//       first failure (0 = unlimited).
//   --allow-missing-chunks     quarantine chunks that still fail after
//       retries instead of failing the run (the estimate then covers the
//       surviving users, and the run reports the quarantined chunks).
//       The ground truth the MSE lines score against and the marginals
//       behind the HDR4ME deviation models are then taken over the
//       surviving users too; no pass reads a quarantined chunk.
//   --checkpoint=<file>        persist per-group progress; re-running the
//       same command after a crash resumes with bit-identical final
//       estimates (a numeric freq run needs v2/v3; variance
//       checkpoints its halves at <file>.values and <file>.squares).
// --threads (mean/freq) bounds worker concurrency (0 = one per hardware
// thread); estimates never depend on it.
//
// Source flags (mean/freq/variance):
//   --input=<shard-dir>   estimate over an on-disk shard directory
//       (population size and dimensionality come from the shards, so the
//       in-memory generator flags are rejected). Estimates are
//       bit-identical to the same values resident in memory.
//   --users=20000         in-memory population size; mean/variance also
//       take --dataset=uniform|gaussian|poisson|correlated and --dims, and
//   --chunk-keyed         generate it with the chunk-keyed contract
//       (data/generator_source.h) instead of the classic sequential
//       stream, so mean and variance runs match `generate --seed=<same
//       seed>` + `--input` bit for bit (the classic stream does not).
//   --fault-seed=S --fault-transient-rate=P --fault-persistent-rate=P
//   --fault-bitflip-rate=P --fault-failing-attempts=K
//       wrap the source in a deterministic fault injector
//       (data/fault_injection.h): same seed, same faults, at any thread
//       count. For testing the run-control machinery, including from CI.
//
// Write-fault flags (generate: shard writes; serve/replay: snapshot
// writes) — deterministic, keyed by (seed, write-op index):
//   --write-fault-seed=S --write-fault-short-rate=P
//   --write-fault-nospace-rate=P --write-fault-fsync-rate=P
//       injected ENOSPC / short write exits 5 (resource exhausted),
//       injected fsync failure exits 4 (data loss); either way the
//       previous on-disk state survives intact.
//
// Exit codes: 0 success, 2 usage, 3 invalid configuration, 4 data
// loss / I/O failure, 5 resource exhausted (see ExitCodeFor below).

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/fault_injection.h"
#include "data/generator_source.h"
#include "data/generators.h"
#include "data/shard.h"
#include "engine/run_control.h"
#include "framework/benchmark.h"
#include "framework/deviation_model.h"
#include "framework/value_distribution.h"
#include "freq/encoding.h"
#include "freq/pipeline.h"
#include "hdr4me/recalibrate.h"
#include "hdr4me/variance.h"
#include "mech/registry.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"
#include "service/aggregation_service.h"
#include "service/report_stream.h"

namespace {

using hdldp::Result;
using hdldp::Status;
using hdldp::protocol::ReportEncoding;
using hdldp::protocol::Workload;

// Strict value parsers, one per flag value type.
Status ParseValue(std::string_view text, std::string* out) {
  *out = text;
  return Status::OK();
}

Status ParseValue(std::string_view text, bool* out) {
  if (text != "true" && text != "false") {
    return Status::InvalidArgument("want true or false");
  }
  *out = text == "true";
  return Status::OK();
}

template <typename T>
  requires std::is_arithmetic_v<T>
Status ParseValue(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(std::is_integral_v<T>
                                       ? "want a non-negative integer"
                                       : "want a number");
  }
  return Status::OK();
}

Status ParseValue(std::string_view text, std::vector<double>* out) {
  out->clear();
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view token = text.substr(0, comma);
    if (!token.empty()) {
      HDLDP_RETURN_NOT_OK(ParseValue(token, &out->emplace_back()));
    }
    text = comma == std::string_view::npos ? "" : text.substr(comma + 1);
  }
  return Status::OK();
}

// An enum-valued flag: `names` maps each accepted spelling to its value,
// and `want` is the error text listing them.
template <typename T>
Status ParseNamed(
    std::string_view text,
    std::initializer_list<std::pair<std::string_view, T>> names,
    const char* want, T* out) {
  for (const auto& [name, value] : names) {
    if (text == name) {
      *out = value;
      return Status::OK();
    }
  }
  return Status::InvalidArgument(want);
}

Status ParseValue(std::string_view text, hdldp::SeedScheme* out) {
  using enum hdldp::SeedScheme;
  return ParseNamed(text, {{"v3", kV3Batched}, {"3", kV3Batched},
                           {"v2", kV2Lanes}, {"2", kV2Lanes},
                           {"v1", kV1Scalar}, {"1", kV1Scalar}},
                    "want v1|v2|v3", out);
}

Status ParseValue(std::string_view text, hdldp::service::OverloadPolicy* out) {
  using enum hdldp::service::OverloadPolicy;
  return ParseNamed(text, {{"shed", kShed}, {"block", kBlock}},
                    "want shed|block", out);
}

Status ParseValue(std::string_view text, Workload* out) {
  using enum Workload;
  return ParseNamed(text, {{"mean", kMean}, {"freq", kFrequency}},
                    "want mean|freq", out);
}

// mean's --recalibrate: which HDR4ME regularizers run (none skips the
// deviation models too).
enum class Recalibration { kBoth, kL1, kL2, kNone };

Status ParseValue(std::string_view text, Recalibration* out) {
  using enum Recalibration;
  return ParseNamed(
      text, {{"both", kBoth}, {"l1", kL1}, {"l2", kL2}, {"none", kNone}},
      "want both|l1|l2|none", out);
}

Status ParseValue(std::string_view text, ReportEncoding* out) {
  HDLDP_ASSIGN_OR_RETURN(*out, hdldp::protocol::ParseReportEncoding(
                                   std::string(text)));
  return Status::OK();
}

// One row of a flag table: the flag's name and the variable its value
// parses into. The variable's current value is the flag's default.
struct Flag {
  template <typename T>
  Flag(const char* flag_name, T* target)
      : Flag(flag_name, [target](std::string_view text) {
          return ParseValue(text, target);
        }) {}
  Flag(const char* flag_name, std::function<Status(std::string_view)> parser)
      : name(flag_name), parse(std::move(parser)) {}

  const char* name;
  std::function<Status(std::string_view)> parse;
};

// A row whose parsed value must also pass `ok`; `want` describes the
// values that do.
template <typename T>
Flag Checked(const char* name, T* target, bool (*ok)(T), const char* want) {
  return {name, [=](std::string_view text) -> Status {
            HDLDP_RETURN_NOT_OK(ParseValue(text, target));
            return ok(*target) ? Status::OK() : Status::InvalidArgument(want);
          }};
}

// A probability row: a number in [0, 1].
Flag Rate(const char* name, double* target) {
  return Checked<double>(
      name, target, [](double rate) { return rate >= 0.0 && rate <= 1.0; },
      "want a rate in [0, 1]");
}

// A count row: at least 1.
template <typename T>
Flag AtLeastOne(const char* name, T* target) {
  return Checked<T>(
      name, target, [](T count) { return count >= 1; }, "want at least 1");
}

class Flags {
 public:
  /// Splits argv[first..] into key/value pairs. A key given twice is an
  /// error: the command line would say two things at once.
  static Result<Flags> Parse(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument("expected --key=value, got " + arg);
      }
      const std::size_t eq = arg.find('=');
      const std::string key = arg.substr(2, eq - 2);
      const bool fresh = flags.values_.try_emplace(
          key, eq == std::string::npos ? "true" : arg.substr(eq + 1)).second;
      if (!fresh) return Status::InvalidArgument("repeated flag --" + key);
    }
    return flags;
  }

  /// Parses every given flag of `table` into its variable (absent flags
  /// keep the default) and marks the table's names as known.
  Status Read(std::initializer_list<Flag> table) {
    for (const Flag& flag : table) {
      consumed_.insert(flag.name);
      const auto it = values_.find(flag.name);
      if (it == values_.end()) continue;
      const Status parsed = flag.parse(it->second);
      if (!parsed.ok()) {
        return Status::InvalidArgument("--" + it->first + "=" + it->second +
                                       ": " + parsed.message());
      }
    }
    return Status::OK();
  }

  /// Whether the flag was provided at all (does not consume it).
  bool Has(const std::string& key) const { return values_.contains(key); }

  /// The one refusal rule, for flags a run would silently ignore:
  /// InvalidArgument naming the first of `keys` that was given ("--key
  /// does not apply to <why>"), OK when none was.
  Status Refuse(std::initializer_list<const char*> keys,
                const std::string& why) const {
    for (const char* key : keys) {
      if (Has(key)) {
        return Status::InvalidArgument("--" + std::string(key) +
                                       " does not apply to " + why);
      }
    }
    return Status::OK();
  }

  /// Errors if any provided flag was never read (catches typos).
  Status CheckAllConsumed() const {
    for (const auto& [key, value] : values_) {
      if (consumed_.find(key) == consumed_.end()) {
        return Status::InvalidArgument("unknown flag --" + key);
      }
    }
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
};

// The compact encodings carry no value mechanism: an explicit
// --mechanism beside one would be silently ignored, so it is refused.
Status RefuseMechanism(const Flags& flags, ReportEncoding encoding) {
  if (encoding == ReportEncoding::kDense) return Status::OK();
  return flags.Refuse({"mechanism"},
                      std::string("--encoding=") +
                          hdldp::protocol::ReportEncodingName(encoding) +
                          " (compact encodings carry no value mechanism)");
}

// The mechanism a run's header names: none under a compact encoding.
const char* MechanismLabel(const std::string& name, ReportEncoding encoding) {
  return encoding == ReportEncoding::kDense ? name.c_str() : "none";
}

// The run-control group, straight into the options' engine::RunControl.
Status ReadRunControl(Flags* flags, hdldp::engine::RunControl* control) {
  return flags->Read(
      {{"seed", &control->seed},
       {"seed-scheme", &control->seed_scheme},
       AtLeastOne("max-attempts", &control->retry.max_attempts),
       {"backoff-ms", &control->retry.initial_backoff_ms},
       {"max-total-backoff-ms", &control->retry.max_total_backoff_ms},
       {"allow-missing-chunks", &control->allow_missing_chunks},
       {"checkpoint", &control->checkpoint_path}});
}

// Write-path fault-injection flags (generate: shard part files;
// serve/replay: snapshot records).
Result<hdldp::WriteFaultSchedule> ReadWriteFaults(Flags* flags) {
  std::uint64_t seed = 0;
  hdldp::WriteFaultSchedule::RandomOptions random;
  HDLDP_RETURN_NOT_OK(flags->Read(
      {{"write-fault-seed", &seed},
       Rate("write-fault-short-rate", &random.short_write_rate),
       Rate("write-fault-nospace-rate", &random.no_space_rate),
       Rate("write-fault-fsync-rate", &random.fsync_failure_rate)}));
  return hdldp::WriteFaultSchedule(seed, random);
}

// `generate`'s data tag: a numeric shard written by `generate --seed=S`
// holds the chunk-keyed population of seed S ^ kGenerateDataTag.
constexpr std::uint64_t kGenerateDataTag = 0xDA7Aull;
// freq's data tag: `freq --seed=S` and `generate --dataset=categorical
// --seed=S` draw categories from Rng(S ^ kFreqDataTag).
constexpr std::uint64_t kFreqDataTag = 0xF8E0ull;
// variance's data tag: its classic in-memory population draws from
// Rng(S ^ kVarianceDataTag).
constexpr std::uint64_t kVarianceDataTag = 0x5ECull;

Result<hdldp::data::GeneratorSpec> MakeGeneratorSpec(const std::string& name,
                                                     std::size_t users,
                                                     std::size_t dims) {
  namespace data = hdldp::data;
  const std::map<std::string, data::GeneratorSpec> specs = {
      {"uniform", data::UniformSpec{.num_users = users, .num_dims = dims}},
      {"gaussian", data::GaussianSpec{.num_users = users, .num_dims = dims}},
      {"poisson", data::PoissonSpec{.num_users = users, .num_dims = dims}},
      {"correlated",
       data::CorrelatedSpec{.num_users = users, .num_dims = dims}}};
  const auto it = specs.find(name);
  if (it == specs.end()) {
    return Status::InvalidArgument(
        "unknown dataset '" + name +
        "' (want uniform|gaussian|poisson|correlated)");
  }
  return it->second;
}

// The source group: where a mean/freq/variance population comes from,
// plus the deterministic fault injector around it. Verbs set their
// defaults with designated initializers; the `{}` members may be left
// out of them.
struct SourceFlags {
  // freq's categorical population (--zipf) instead of a numeric one
  // (--chunk-keyed/--dataset/--dims).
  bool categorical = false;
  std::string dataset{};
  std::size_t dims = 0;
  bool chunk_keyed = false;
  std::string input{};
  std::size_t users = 20000;
  // Categorical populations: set by the verb, which owns the schema
  // flags.
  std::optional<hdldp::freq::CategoricalSchema> schema{};
  double zipf = 1.0;
  std::uint64_t fault_seed = 0;
  hdldp::data::FaultSchedule::RandomOptions faults{};

  /// What the run's header line calls the population.
  const std::string& name() const { return input.empty() ? dataset : input; }
};

// Reads the source group; `source->categorical` selects freq's generator
// flag (--zipf) over the numeric ones (--chunk-keyed/--dataset/--dims).
Status ReadSource(Flags* flags, SourceFlags* source) {
  HDLDP_RETURN_NOT_OK(flags->Read(
      {{"input", &source->input},
       {"users", &source->users},
       {"fault-seed", &source->fault_seed},
       Rate("fault-transient-rate", &source->faults.transient_rate),
       Rate("fault-persistent-rate", &source->faults.persistent_rate),
       Rate("fault-bitflip-rate", &source->faults.bit_flip_rate),
       AtLeastOne("fault-failing-attempts",
                  &source->faults.failing_attempts)}));
  if (source->categorical) {
    HDLDP_RETURN_NOT_OK(flags->Read({{"zipf", &source->zipf}}));
  } else {
    HDLDP_RETURN_NOT_OK(flags->Read({{"chunk-keyed", &source->chunk_keyed},
                                     {"dataset", &source->dataset},
                                     {"dims", &source->dims}}));
  }
  if (source->input.empty()) return Status::OK();
  // --input reads the population geometry from the shard headers; the
  // in-memory generator flags contradict it.
  const char* why = "--input (it reads the population from the shards)";
  return source->categorical
             ? flags->Refuse({"users", "zipf"}, why)
             : flags->Refuse({"dataset", "users", "dims", "chunk-keyed"}, why);
}

// The resolved source group: whichever population the flags named, and
// the fault-injecting view a run reads. Members point at each other once
// opened, so a Population stays where Open filled it.
class Population {
 public:
  Population() = default;
  Population(const Population&) = delete;
  Population& operator=(const Population&) = delete;

  /// `seed` is the run's --seed. In-memory classic populations draw from
  /// Rng(seed ^ verb_tag), each verb's own recorded tag. Chunk-keyed
  /// populations take `generate`'s kGenerateDataTag in every verb, so a
  /// `--chunk-keyed` run and a `generate` + `--input` run of the same
  /// --seed see identical values.
  Status Open(const SourceFlags& flags, std::uint64_t seed,
              std::uint64_t verb_tag) {
    if (!flags.input.empty()) {
      HDLDP_ASSIGN_OR_RETURN(shard_,
                             hdldp::data::ShardFileSource::Open(flags.input));
      base_ = &*shard_;
    } else if (flags.schema.has_value()) {
      hdldp::Rng rng(seed ^ verb_tag);
      HDLDP_ASSIGN_OR_RETURN(categorical_,
                             hdldp::freq::GenerateCategorical(
                                 flags.users, *flags.schema, flags.zipf, &rng));
      base_ = &categorical_source_.emplace(&*categorical_);
    } else {
      HDLDP_ASSIGN_OR_RETURN(
          const auto spec,
          MakeGeneratorSpec(flags.dataset, flags.users, flags.dims));
      if (flags.chunk_keyed) {
        HDLDP_ASSIGN_OR_RETURN(generated_,
                               hdldp::data::GeneratorChunkSource::Create(
                                   spec, seed ^ kGenerateDataTag));
        base_ = &*generated_;
      } else {
        hdldp::Rng rng(seed ^ verb_tag);
        HDLDP_ASSIGN_OR_RETURN(dataset_, hdldp::data::Generate(spec, &rng));
        base_ = &resident_.emplace(&*dataset_);
      }
    }
    source_ = base_;
    if (flags.faults.transient_rate > 0.0 ||
        flags.faults.persistent_rate > 0.0 ||
        flags.faults.bit_flip_rate > 0.0) {
      source_ = &faulty_.emplace(
          base_, hdldp::data::FaultSchedule::Random(
                     flags.fault_seed, base_->num_chunks(), flags.faults));
    }
    return Status::OK();
  }

  /// What the run reads (fault-injected when any --fault-* rate is set).
  const hdldp::data::ChunkSource& source() const { return *source_; }

 private:
  std::optional<hdldp::data::ShardFileSource> shard_;
  std::optional<hdldp::data::Dataset> dataset_;
  std::optional<hdldp::data::ResidentChunkSource> resident_;
  std::optional<hdldp::data::GeneratorChunkSource> generated_;
  std::optional<hdldp::freq::CategoricalDataset> categorical_;
  std::optional<hdldp::freq::CategoricalChunkSource> categorical_source_;
  std::optional<hdldp::data::FaultInjectingChunkSource> faulty_;
  const hdldp::data::ChunkSource* base_ = nullptr;
  const hdldp::data::ChunkSource* source_ = nullptr;
};

// The estimation verbs' (mean/freq/variance) one prologue. A verb sets
// its source defaults, Reads with its own rows, checks its own values,
// then Opens and runs its pipeline over population.source().
struct Estimation {
  SourceFlags source;
  std::string mechanism_name = "piecewise";
  hdldp::mech::MechanismPtr mechanism{};
  Population population{};

  /// Reads run control, the source group, --mechanism and --epsilon, then
  /// `rows`; an Options with an encoding refuses --mechanism beside a
  /// compact one.
  template <typename Options>
  Status Read(Flags* flags, Options* opts, std::initializer_list<Flag> rows) {
    HDLDP_RETURN_NOT_OK(ReadRunControl(flags, opts));
    HDLDP_RETURN_NOT_OK(ReadSource(flags, &source));
    HDLDP_RETURN_NOT_OK(flags->Read(
        {{"mechanism", &mechanism_name}, {"epsilon", &opts->total_epsilon}}));
    HDLDP_RETURN_NOT_OK(flags->Read(rows));
    if constexpr (requires { opts->encoding; }) {
      return RefuseMechanism(*flags, opts->encoding);
    }
    return Status::OK();
  }

  /// Refuses any flag no Read knew, makes the mechanism and opens the
  /// population (`verb_tag`: see Population::Open).
  Status Open(const Flags& flags, std::uint64_t seed, std::uint64_t verb_tag) {
    HDLDP_RETURN_NOT_OK(flags.CheckAllConsumed());
    HDLDP_ASSIGN_OR_RETURN(mechanism,
                           hdldp::mech::MakeMechanism(mechanism_name));
    return population.Open(source, seed, verb_tag);
  }
};

// Reports the fault-tolerance outcome of a run — the RunOutcome of each
// of its reductions, summed — in a stable, greppable form (CI asserts on
// these lines).
void PrintFaultOutcome(
    std::initializer_list<const hdldp::engine::RunOutcome*> outcomes) {
  bool resumed = false;
  std::size_t chunks = 0;
  std::size_t users = 0;
  for (const hdldp::engine::RunOutcome* outcome : outcomes) {
    resumed = resumed || outcome->resumed_from_checkpoint;
    chunks += outcome->quarantined_chunks.size();
    users += outcome->surviving_users;
  }
  if (resumed) std::printf("resumed from checkpoint\n");
  if (chunks != 0) {
    std::printf("quarantined %zu chunks; surviving users %zu\n", chunks, users);
  }
}

Status RunMean(Flags flags) {
  Recalibration recalibrate = Recalibration::kBoth;
  bool gate = false;
  bool print_estimate = false;
  hdldp::protocol::PipelineOptions opts;
  Estimation est{.source = {.dataset = "uniform", .dims = 128}};
  HDLDP_RETURN_NOT_OK(est.Read(&flags, &opts,
                               {{"report-dims", &opts.report_dims},
                                {"threads", &opts.num_threads},
                                {"recalibrate", &recalibrate},
                                {"gate", &gate},
                                {"print-estimate", &print_estimate},
                                {"encoding", &opts.encoding}}));
  const bool hadamard1 = opts.encoding == ReportEncoding::kHadamard1;
  if (recalibrate == Recalibration::kNone) {
    // Gating is a lambda* option: without a re-calibration it would be
    // silently ignored, so it is refused.
    HDLDP_RETURN_NOT_OK(flags.Refuse(
        {"gate"}, "--recalibrate=none (no re-calibration runs)"));
  } else if (hadamard1) {
    // The 1-bit path has no value mechanism to model, so it never
    // re-calibrates: an explicit request for one is refused, while the
    // default only notes the skip below.
    HDLDP_RETURN_NOT_OK(flags.Refuse(
        {"gate", "recalibrate"},
        "--encoding=hadamard1 (no value mechanism to re-calibrate)"));
  }
  HDLDP_RETURN_NOT_OK(est.Open(flags, opts.seed, kGenerateDataTag));

  const hdldp::data::ChunkSource& source = est.population.source();
  const std::size_t dims = source.num_dims();
  HDLDP_ASSIGN_OR_RETURN(
      const auto run,
      hdldp::protocol::RunMeanEstimation(source, est.mechanism, opts));
  std::printf("mechanism=%s dataset=%s users=%zu dims=%zu eps=%g m=%zu "
              "encoding=%s\n",
              MechanismLabel(est.mechanism_name, opts.encoding),
              est.source.name().c_str(),
              source.num_users(), dims, opts.total_epsilon,
              opts.report_dims == 0 ? dims : opts.report_dims,
              hdldp::protocol::ReportEncodingName(opts.encoding));
  PrintFaultOutcome({&run.outcome});
  std::printf("%-24s %12.6g\n", "naive MSE", run.mse);
  if (print_estimate) {
    // Full-precision estimate, one dimension per line: CI resume tests
    // diff this output to assert bit-identical results.
    for (std::size_t j = 0; j < dims; ++j) {
      std::printf("estimate[%zu]=%.17g\n", j, run.estimated_mean[j]);
    }
  }

  if (recalibrate == Recalibration::kNone) return Status::OK();
  if (hadamard1) {
    // The deviation model below describes the numeric mechanism's
    // perturbation; the 1-bit path has no mechanism, so HDR4ME
    // re-calibration is not offered (naive MSE above is the result).
    std::printf("recalibration skipped: hadamard1 has no value mechanism\n");
    return Status::OK();
  }
  // Per-dimension deviation models from the surviving users' marginals.
  HDLDP_ASSIGN_OR_RETURN(
      const auto deviations,
      hdldp::hdr4me::MarginalDeviations(
          source, run.outcome.quarantined_chunks, opts.report_dims,
          *est.mechanism, run.per_dim_epsilon, {-1.0, 1.0}, opts.num_threads,
          opts.retry));
  HDLDP_ASSIGN_OR_RETURN(const double predicted,
                         hdldp::framework::PredictedMse(deviations));
  std::printf("%-24s %12.6g\n", "framework-predicted MSE", predicted);

  using hdldp::hdr4me::Regularizer;
  for (const auto& [label, only, regularizer] :
       {std::tuple{"l1", Recalibration::kL1, Regularizer::kL1},
        std::tuple{"l2", Recalibration::kL2, Regularizer::kL2}}) {
    if (recalibrate != Recalibration::kBoth && recalibrate != only) continue;
    hdldp::hdr4me::Hdr4meOptions h;
    h.regularizer = regularizer;
    h.lambda.gate_on_threshold = gate;
    HDLDP_ASSIGN_OR_RETURN(
        const auto result,
        hdldp::hdr4me::Recalibrate(run.estimated_mean, deviations, h));
    HDLDP_ASSIGN_OR_RETURN(const double mse,
                           hdldp::protocol::MeanSquaredError(
                               result.enhanced_mean, run.true_mean));
    std::printf("HDR4ME-%s%s MSE%*s %12.6g  (%zu dims zeroed)\n", label,
                gate ? " (gated)" : "", gate ? 5 : 13, "", mse,
                result.zeroed_dims);
  }
  HDLDP_ASSIGN_OR_RETURN(const double p_l1,
                         hdldp::hdr4me::ImprovementProbabilityL1(deviations));
  std::printf("%-24s %12.6g\n", "Theorem 3 lower bound", p_l1);
  return Status::OK();
}

Status RunFreq(Flags flags) {
  std::size_t questions = 16;
  std::size_t categories = 8;
  hdldp::freq::FrequencyOptions opts;
  Estimation est{.source = {.categorical = true}};
  HDLDP_RETURN_NOT_OK(est.Read(&flags, &opts,
                               {{"questions", &questions},
                                {"categories", &categories},
                                {"sampled", &opts.report_dims},
                                {"threads", &opts.num_threads},
                                {"encoding", &opts.encoding}}));
  HDLDP_ASSIGN_OR_RETURN(est.source.schema,
                         hdldp::freq::CategoricalSchema::Create(
                             std::vector<std::size_t>(questions, categories)));
  HDLDP_RETURN_NOT_OK(est.Open(flags, opts.seed, kFreqDataTag));

  const hdldp::data::ChunkSource& source = est.population.source();
  HDLDP_ASSIGN_OR_RETURN(
      const auto result,
      hdldp::freq::RunFrequencyEstimation(source, *est.source.schema,
                                          est.mechanism, opts));
  std::printf("mechanism=%s users=%zu questions=%zu categories=%zu eps=%g "
              "eps/entry=%g encoding=%s\n",
              MechanismLabel(est.mechanism_name, opts.encoding),
              source.num_users(), questions, categories, opts.total_epsilon,
              result.per_entry_epsilon,
              hdldp::protocol::ReportEncodingName(opts.encoding));
  PrintFaultOutcome({&result.outcome});
  std::printf("%-24s %12.6g\n", "naive MSE", result.mse_raw);
  std::printf("%-24s %12.6g\n", "HDR4ME MSE", result.mse_recalibrated);
  return Status::OK();
}

Status RunAnalyze(Flags flags) {
  double eps = 0.001;
  double reports = 10000.0;
  std::vector<double> xis = {0.001, 0.01, 0.05, 0.1};
  HDLDP_RETURN_NOT_OK(
      flags.Read({{"epsilon", &eps}, {"reports", &reports}, {"xi", &xis}}));
  HDLDP_RETURN_NOT_OK(flags.CheckAllConsumed());

  std::vector<double> values;
  std::vector<double> probs;
  for (int k = 1; k <= 10; ++k) {
    values.push_back(0.1 * k);
    probs.push_back(0.1);
  }
  HDLDP_ASSIGN_OR_RETURN(
      const auto dist,
      hdldp::framework::ValueDistribution::Create(values, probs));
  std::vector<hdldp::framework::BenchmarkSpec> specs;
  for (const auto name : hdldp::mech::RegisteredMechanismNames()) {
    hdldp::framework::BenchmarkSpec spec;
    HDLDP_ASSIGN_OR_RETURN(spec.mechanism, hdldp::mech::MakeMechanism(name));
    spec.values = dist;
    spec.data_domain = spec.mechanism->InputDomain();
    specs.push_back(std::move(spec));
  }
  HDLDP_ASSIGN_OR_RETURN(
      const auto table,
      hdldp::framework::BenchmarkMechanisms(specs, eps, reports, xis));
  std::printf("%-12s %10s %10s", "mechanism", "delta", "sigma");
  for (const double xi : xis) std::printf(" P(<=%-7g)", xi);
  std::printf("\n");
  for (const auto& row : table) {
    std::printf("%-12s %10.3g %10.3g", row.name.c_str(),
                row.model.deviation.mean, row.model.deviation.stddev);
    for (const double p : row.probabilities) std::printf(" %11.3g", p);
    std::printf("\n");
  }
  return Status::OK();
}

Status RunVariance(Flags flags) {
  hdldp::hdr4me::VarianceOptions opts;
  Estimation est{.source = {.dataset = "gaussian", .dims = 64}};
  HDLDP_RETURN_NOT_OK(
      est.Read(&flags, &opts, {{"recalibrate", &opts.recalibrate}}));
  HDLDP_RETURN_NOT_OK(est.Open(flags, opts.seed, kVarianceDataTag));

  const hdldp::data::ChunkSource& source = est.population.source();
  const std::size_t dims = source.num_dims();
  HDLDP_ASSIGN_OR_RETURN(
      const auto result,
      hdldp::hdr4me::RunVarianceEstimation(source, est.mechanism, opts));
  std::printf("mechanism=%s dataset=%s users=%zu dims=%zu eps=%g "
              "recalibrate=%d\n",
              est.mechanism_name.c_str(), est.source.name().c_str(),
              source.num_users(), dims, opts.total_epsilon,
              opts.recalibrate ? 1 : 0);
  PrintFaultOutcome({&result.values, &result.squares});
  std::printf("%-24s %12.6g\n", "variance MSE", result.mse);
  std::printf("first dims (true vs estimated variance):\n");
  for (std::size_t j = 0; j < std::min<std::size_t>(4, dims); ++j) {
    std::printf("  dim %zu: %10.5f vs %10.5f\n", j, result.true_variance[j],
                result.estimated_variance[j]);
  }
  return Status::OK();
}

Status RunGenerate(Flags flags) {
  std::string out;
  std::uint64_t seed = 1;
  std::size_t questions = 16;
  std::size_t categories = 8;
  SourceFlags source_flags{.dataset = "uniform", .dims = 16,
                           .chunk_keyed = true};
  hdldp::data::ShardWriterOptions shard_opts;
  HDLDP_RETURN_NOT_OK(
      flags.Read({{"out", &out},
                  {"dataset", &source_flags.dataset},
                  {"users", &source_flags.users},
                  {"dims", &source_flags.dims},
                  {"seed", &seed},
                  AtLeastOne("chunks-per-file", &shard_opts.chunks_per_file),
                  {"questions", &questions},
                  {"categories", &categories},
                  {"zipf", &source_flags.zipf}}));
  HDLDP_ASSIGN_OR_RETURN(shard_opts.write_faults, ReadWriteFaults(&flags));
  HDLDP_RETURN_NOT_OK(flags.CheckAllConsumed());
  if (out.empty()) {
    return Status::InvalidArgument("generate requires --out=<shard-dir>");
  }
  // Each dataset family reads only its own geometry flags; the other
  // family's would be silently ignored, so they are refused.
  const bool categorical = source_flags.dataset == "categorical";
  const std::string why = "--dataset=" + source_flags.dataset;
  if (categorical) {
    HDLDP_RETURN_NOT_OK(flags.Refuse({"dims"}, why));
    HDLDP_ASSIGN_OR_RETURN(
        source_flags.schema,
        hdldp::freq::CategoricalSchema::Create(
            std::vector<std::size_t>(questions, categories)));
  } else {
    HDLDP_RETURN_NOT_OK(flags.Refuse({"questions", "categories", "zipf"}, why));
  }

  // The population `freq --seed=S` (categorical) or `<verb> --chunk-keyed
  // --seed=S` (numeric, streamed with no resident n x d allocation) reads,
  // so a run over `--input=<out> --seed=S` reproduces it bit for bit.
  Population population;
  HDLDP_RETURN_NOT_OK(population.Open(source_flags, seed, kFreqDataTag));
  const hdldp::data::ChunkSource& source = population.source();
  HDLDP_ASSIGN_OR_RETURN(const std::size_t rows,
                         hdldp::data::WriteShards(source, out, shard_opts));
  std::printf("wrote %zu users x %zu %sdims to %s\n", rows, source.num_dims(),
              categorical ? "categorical " : "", out.c_str());
  return Status::OK();
}

// serve/replay: drive a deterministic report stream through the online
// aggregation service. `replay` pins the deterministic golden path (one
// worker, lossless backpressure); `serve` exercises the concurrent one.
Status RunServe(Flags flags, bool replay) {
  bool print_estimate = false;
  hdldp::service::DriveOptions drive;
  hdldp::service::ReportStreamOptions stream_options;
  stream_options.num_reports = 10000;
  stream_options.num_tenants = 4;
  hdldp::service::ServiceOptions service_options;
  HDLDP_RETURN_NOT_OK(flags.Read(
      {{"workload", &stream_options.workload},
       {"mechanism", &stream_options.mechanism},
       {"reports", &stream_options.num_reports},
       {"epsilon", &stream_options.epsilon},
       {"report-dims", &stream_options.report_dims},
       {"seed", &stream_options.seed},
       {"tenants", &stream_options.num_tenants},
       {"tenant-budget", &service_options.tenant_epsilon},
       {"reports-per-tick", &stream_options.reports_per_tick},
       {"checkpoint", &service_options.checkpoint_path},
       {"snapshot-every", &drive.snapshot_every},
       {"kill-after", &drive.stop_at},
       {"print-estimate", &print_estimate},
       {"encoding", &stream_options.encoding},
       Rate("fault-drop-rate", &stream_options.faults.drop_rate),
       Rate("fault-duplicate-rate", &stream_options.faults.duplicate_rate),
       Rate("fault-reorder-rate", &stream_options.faults.reorder_rate),
       {"fault-reorder-delay", &stream_options.faults.reorder_delay},
       {"fault-seed", &stream_options.fault_seed},
       {"window-width", &service_options.window.width},
       {"window-slide", &service_options.window.slide},
       {"window-lateness", &service_options.window.lateness},
       {"max-invalid-per-tenant", &service_options.max_invalid_per_tenant}}));
  HDLDP_RETURN_NOT_OK(RefuseMechanism(flags, stream_options.encoding));
  if (drive.snapshot_every > 0 && service_options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "--snapshot-every needs --checkpoint=<file> (without one there is "
        "nothing to snapshot to)");
  }
  const bool mean = stream_options.workload == Workload::kMean;
  if (mean) {
    stream_options.num_dims = 8;
    HDLDP_RETURN_NOT_OK(flags.Read({{"dims", &stream_options.num_dims}}));
  } else {
    stream_options.num_dims = 4;
    stream_options.num_categories = 4;
    HDLDP_RETURN_NOT_OK(
        flags.Read({{"questions", &stream_options.num_dims},
                    {"categories", &stream_options.num_categories}}));
  }
  if (replay) {
    service_options.num_workers = 1;
    service_options.overload = hdldp::service::OverloadPolicy::kBlock;
  } else {
    service_options.num_workers = 0;
    HDLDP_RETURN_NOT_OK(
        flags.Read({{"threads", &service_options.num_workers},
                    {"queue-capacity", &service_options.queue_capacity},
                    {"overload", &service_options.overload}}));
  }
  HDLDP_ASSIGN_OR_RETURN(service_options.snapshot_write_faults,
                         ReadWriteFaults(&flags));
  HDLDP_RETURN_NOT_OK(flags.CheckAllConsumed());

  HDLDP_ASSIGN_OR_RETURN(
      hdldp::service::ReportStream stream,
      hdldp::service::ReportStream::Create(stream_options));
  service_options = stream.MakeServiceOptions(std::move(service_options));
  if (service_options.tenant_epsilon > 0.0) {
    service_options.per_report_epsilon = stream.per_report_epsilon();
  }

  const hdldp::service::WindowConfig window = service_options.window;
  HDLDP_ASSIGN_OR_RETURN(
      const auto service,
      hdldp::service::AggregationService::Create(std::move(service_options)));
  std::printf("service workload=%s mechanism=%s reports=%llu tenants=%llu "
              "workers=%zu window=%llu/%llu+%llu\n",
              mean ? "mean" : "freq",
              MechanismLabel(stream_options.mechanism, stream_options.encoding),
              static_cast<unsigned long long>(stream_options.num_reports),
              static_cast<unsigned long long>(stream_options.num_tenants),
              service->num_workers(),
              static_cast<unsigned long long>(window.width),
              static_cast<unsigned long long>(window.slide),
              static_cast<unsigned long long>(window.lateness));
  if (service->resumed()) std::printf("resumed from checkpoint\n");
  HDLDP_ASSIGN_OR_RETURN(
      const hdldp::service::DriveEnd end,
      hdldp::service::Drive(&stream, service.get(), drive));
  if (end == hdldp::service::DriveEnd::kStopped) {
    // Simulated crash: no Drain, no Finish, no destructors — the
    // checkpoint on disk is all the next run gets.
    std::printf("simulated crash at report %llu\n",
                static_cast<unsigned long long>(stream.position()));
    std::fflush(stdout);
    std::_Exit(7);
  }
  HDLDP_RETURN_NOT_OK(service->VerifyReconciliation());

  std::printf("stats%s\n",
              hdldp::service::FormatStats(service->Stats()).c_str());
  std::printf("stream dropped=%llu duplicated=%llu reordered=%llu\n",
              static_cast<unsigned long long>(stream.dropped()),
              static_cast<unsigned long long>(stream.duplicated()),
              static_cast<unsigned long long>(stream.reordered()));
  for (const hdldp::service::PublishedWindow& published :
       service->PublishedWindows()) {
    std::printf("window[%llu] reports=%llu\n",
                static_cast<unsigned long long>(published.index),
                static_cast<unsigned long long>(published.report_count));
    if (print_estimate) {
      // Full precision, one line per dimension: resume/equivalence tests
      // diff this output to assert bit-identical published estimates.
      for (std::size_t j = 0; j < published.estimate.size(); ++j) {
        std::printf("window[%llu].estimate[%zu]=%.17g\n",
                    static_cast<unsigned long long>(published.index), j,
                    published.estimate[j]);
      }
    }
  }
  return service->Finish();
}

void PrintUsage(std::FILE* stream) {
  std::fprintf(stream,
               "usage: hdldp_cli <mean|freq|analyze|variance|generate|"
               "serve|replay> [--key=value ...]\n"
               "see the header of tools/hdldp_cli.cc for the flag list\n"
               "exit codes: 0 success, 2 usage, 3 invalid configuration, "
               "4 data loss / I/O failure, 5 resource exhausted\n");
}

// Exit-code contract (pinned by the smoke tests; scripts and CI branch
// on these):
//   0 — success
//   2 — usage error: unparseable command line (a bare word where a flag
//       belongs, a flag given twice), unknown subcommand
//   3 — validation error: a well-formed command line naming an invalid
//       configuration (unknown mechanism/dataset/flag, malformed flag
//       value, missing input, out-of-range parameter)
//   4 — I/O or corruption error: the configuration was valid but the
//       data could not be (fully) read — checksum mismatch, torn write,
//       exhausted retries
//   5 — resource exhausted: the run could not complete because a
//       resource ran out mid-write (ENOSPC/EDQUOT/EFBIG, real or
//       injected); previous on-disk state is intact and retrying after
//       freeing space is safe
//   1 — anything else (internal invariant failures)
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case hdldp::StatusCode::kOk:
      return 0;
    case hdldp::StatusCode::kInvalidArgument:
    case hdldp::StatusCode::kFailedPrecondition:
    case hdldp::StatusCode::kNotFound:
    case hdldp::StatusCode::kOutOfRange:
    case hdldp::StatusCode::kNotImplemented:
      return 3;
    case hdldp::StatusCode::kDataLoss:
    case hdldp::StatusCode::kUnavailable:
      return 4;
    case hdldp::StatusCode::kResourceExhausted:
      return 5;
    default:
      return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc < 2 ? "help" : argv[1];
  const std::map<std::string, std::function<Status(Flags)>> verbs = {
      {"mean", RunMean},
      {"freq", RunFreq},
      {"analyze", RunAnalyze},
      {"variance", RunVariance},
      {"generate", RunGenerate},
      {"serve", [](Flags flags) { return RunServe(std::move(flags), false); }},
      {"replay", [](Flags flags) { return RunServe(std::move(flags), true); }},
  };
  const auto verb = verbs.find(command);
  auto flags_or = Flags::Parse(argc, argv, 2);
  // Asking for usage (no arguments, --help/-h/help, <verb> --help) is not
  // an error.
  if (command == "--help" || command == "-h" || command == "help" ||
      (verb != verbs.end() && flags_or.ok() && flags_or->Has("help"))) {
    PrintUsage(stdout);
    return 0;
  }
  if (!flags_or.ok()) {
    std::fprintf(stderr, "error: %s\n", flags_or.status().ToString().c_str());
    return 2;
  }
  if (verb == verbs.end()) {
    PrintUsage(stderr);
    return 2;
  }
  const Status status = verb->second(std::move(flags_or).value());
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return ExitCodeFor(status);
  }
  return 0;
}
