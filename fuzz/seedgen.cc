// Seed-corpus generator: writes well-formed inputs for every fuzz
// target by running the project's own golden encoders, so the fuzzers
// start past the outermost "reject garbage" checks and mutate from
// inputs that reach the deep parsing paths.
//
//   fuzz_seedgen <corpus-root>
//
// populates <corpus-root>/{wire,payload_codec,shard,snapshot}/ and is
// idempotent (fixed seeds, deterministic encoders). The checked-in
// fuzz/corpus/ tree was produced by exactly this binary; regenerate
// with `fuzz_seedgen fuzz/corpus` after a wire/format change.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/shard.h"
#include "protocol/snapshot.h"
#include "protocol/wire.h"
#include "service/report_stream.h"

namespace fs = std::filesystem;

namespace {

bool WriteFile(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool CopyFileBytes(const fs::path& from, const fs::path& to) {
  std::ifstream in(from, std::ios::binary);
  if (!in) return false;
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  return WriteFile(to, bytes);
}

struct StreamSpec {
  const char* name;
  hdldp::protocol::Workload workload;
  hdldp::protocol::ReportEncoding encoding;
  std::size_t num_dims;
  std::size_t num_categories;
  std::size_t report_dims;
  // The compact encodings also feed the payload_codec corpus; their
  // geometry here must match the codecs in fuzz_payload_codec.cc.
  bool compact;
};

int GenerateWireAndPayloads(const fs::path& root) {
  using hdldp::protocol::ReportEncoding;
  using hdldp::protocol::Workload;
  const StreamSpec specs[] = {
      {"dense", Workload::kMean, ReportEncoding::kDense, 4, 2, 0,
       false},
      // m < d numeric reports; the label names the corpus files.
      {"sampled", Workload::kMean, ReportEncoding::kDense, 4, 2, 2,
       false},
      {"oue", Workload::kFrequency, ReportEncoding::kOue, 4, 3, 2, true},
      {"olh", Workload::kFrequency, ReportEncoding::kOlh, 4, 3, 2, true},
      {"hadamard1", Workload::kMean, ReportEncoding::kHadamard1, 16, 2,
       2, true},
  };
  for (const StreamSpec& spec : specs) {
    hdldp::service::ReportStreamOptions options;
    options.workload = spec.workload;
    options.encoding = spec.encoding;
    options.num_reports = 4;
    options.num_dims = spec.num_dims;
    options.num_categories = spec.num_categories;
    options.epsilon = 1.0;
    options.report_dims = spec.report_dims;
    options.seed = 7;
    options.num_tenants = 2;
    options.reports_per_tick = 2;
    auto stream = hdldp::service::ReportStream::Create(options);
    if (!stream.ok()) {
      std::fprintf(stderr, "seedgen: stream %s: %s\n", spec.name,
                   stream.status().ToString().c_str());
      return 1;
    }
    for (int i = 0;; ++i) {
      std::vector<std::uint8_t> envelope;
      bool done = false;
      if (const auto st = stream.value().Next(&envelope, &done); !st.ok()) {
        std::fprintf(stderr, "seedgen: stream %s next: %s\n", spec.name,
                     st.ToString().c_str());
        return 1;
      }
      if (done) break;
      char name[64];
      std::snprintf(name, sizeof(name), "%s-%02d.bin", spec.name, i);
      if (!WriteFile(root / "wire" / name, envelope)) return 1;
      if (spec.compact) {
        auto decoded = hdldp::protocol::DecodeEnvelope(envelope);
        if (decoded.ok() &&
            !WriteFile(root / "payload_codec" / name,
                       decoded.value().payload)) {
          return 1;
        }
      }
    }
  }
  return 0;
}

int GenerateShard(const fs::path& root, const fs::path& scratch) {
  const fs::path dir = scratch / "shard";
  auto writer = hdldp::data::ShardWriter::Create(dir.string(), 4);
  if (!writer.ok()) {
    std::fprintf(stderr, "seedgen: shard writer: %s\n",
                 writer.status().ToString().c_str());
    return 1;
  }
  std::vector<double> rows;
  for (int u = 0; u < 10; ++u) {
    for (int d = 0; d < 4; ++d) {
      rows.push_back((u % 2 == 0 ? 1.0 : -1.0) * (0.1 * (d + 1)));
    }
  }
  if (const auto st = writer.value().Append(rows); !st.ok()) return 1;
  if (const auto st = writer.value().Finish(); !st.ok()) return 1;
  return CopyFileBytes(dir / "part-00000.hds",
                       root / "shard" / "part-00000.bin")
             ? 0
             : 1;
}

int GenerateSnapshot(const fs::path& root, const fs::path& scratch) {
  // Same digest as fuzz_snapshot.cc, so the seed opens cleanly there.
  hdldp::protocol::RunDigest digest;
  digest.AddString("hdldp-fuzz-snapshot");
  digest.AddU64(42);
  const fs::path path = scratch / "ckpt";
  auto file = hdldp::protocol::SnapshotFile::Open(path.string(),
                                                  digest.bytes);
  if (!file.ok()) {
    std::fprintf(stderr, "seedgen: snapshot open: %s\n",
                 file.status().ToString().c_str());
    return 1;
  }
  const std::vector<unsigned char> blob = {0x01, 0x02, 0x03, 0x04,
                                           0x05, 0x06, 0x07, 0x08};
  if (const auto st = file.value().Save(0, 3, {1, 4}, blob); !st.ok()) {
    return 1;
  }
  if (const auto st = file.value().Save(1, 7, {}, blob); !st.ok()) return 1;
  if (const auto st = file.value().Close(); !st.ok()) return 1;
  return CopyFileBytes(path, root / "snapshot" / "ckpt.bin") ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  std::error_code ec;
  for (const char* sub : {"wire", "payload_codec", "shard", "snapshot"}) {
    fs::create_directories(root / sub, ec);
    if (ec) {
      std::fprintf(stderr, "seedgen: mkdir %s: %s\n", sub,
                   ec.message().c_str());
      return 1;
    }
  }
  const fs::path scratch = root / ".seedgen-scratch";
  fs::remove_all(scratch, ec);
  fs::create_directories(scratch, ec);
  int rc = GenerateWireAndPayloads(root);
  if (rc == 0) rc = GenerateShard(root, scratch);
  if (rc == 0) rc = GenerateSnapshot(root, scratch);
  fs::remove_all(scratch, ec);
  if (rc == 0) std::printf("seedgen: corpus written under %s\n", argv[1]);
  return rc;
}
