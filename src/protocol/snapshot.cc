#include "protocol/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/crc32c.h"

namespace hdldp {
namespace protocol {
namespace {

constexpr unsigned char kMagic[8] = {'H', 'D', 'L', 'S', 'N', 'A', 'P', '1'};
constexpr std::size_t kMagicBytes = 8;

// The file header: magic, version, digest, all guarded by one CRC.
std::vector<unsigned char> EncodeHeader(
    std::span<const unsigned char> digest) {
  std::vector<unsigned char> out;
  out.reserve(kMagicBytes + 8 + digest.size() + 4);
  ByteWriter w(&out);
  w.Bytes(kMagic);
  w.U32(kSnapshotFormatVersion);
  w.U32(static_cast<std::uint32_t>(digest.size()));
  w.Bytes(digest);
  w.U32(Crc32c(out.data(), out.size()));
  return out;
}

std::vector<unsigned char> EncodeRecord(
    std::size_t group, std::size_t chunks_done,
    const std::vector<std::size_t>& quarantined,
    std::span<const unsigned char> acc_state) {
  std::vector<unsigned char> payload;
  payload.reserve(32 + quarantined.size() * 8 + acc_state.size());
  ByteWriter p(&payload);
  p.U64(group);
  p.U64(chunks_done);
  p.U64(quarantined.size());
  for (const std::size_t chunk : quarantined) p.U64(chunk);
  p.U64(acc_state.size());
  p.Bytes(acc_state);

  std::vector<unsigned char> record;
  record.reserve(8 + payload.size());
  ByteWriter r(&record);
  r.U32(static_cast<std::uint32_t>(payload.size()));
  r.U32(Crc32c(payload.data(), payload.size()));
  r.Bytes(payload);
  return record;
}

// Parses the framed record at the front of `bytes` into *groups and
// returns its length. Fails (without touching *groups) on a torn or
// corrupt frame; the caller stops parsing there, keeping everything
// before it.
Result<std::size_t> ParseRecord(
    std::span<const unsigned char> bytes,
    std::unordered_map<std::size_t, SnapshotFile::GroupState>* groups) {
  ByteReader frame(bytes, StatusCode::kDataLoss, "torn checkpoint record");
  HDLDP_ASSIGN_OR_RETURN(const std::uint32_t payload_len, frame.U32());
  HDLDP_ASSIGN_OR_RETURN(const std::uint32_t payload_crc, frame.U32());
  HDLDP_ASSIGN_OR_RETURN(const std::span<const unsigned char> payload,
                         frame.Bytes(payload_len));
  const Status corrupt = Status::DataLoss("corrupt checkpoint record");
  if (Crc32c(payload.data(), payload.size()) != payload_crc) return corrupt;

  ByteReader in(payload, StatusCode::kDataLoss, "torn checkpoint record");
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t group, in.U64());
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t chunks_done, in.U64());
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t num_quarantined, in.U64());
  // Divide instead of multiplying: num_quarantined * 8 can wrap, and the
  // reserve below must never trust a wrapped count.
  if (num_quarantined > in.remaining() / 8) return corrupt;
  SnapshotFile::GroupState state;
  state.chunks_done = static_cast<std::size_t>(chunks_done);
  state.quarantined.reserve(static_cast<std::size_t>(num_quarantined));
  for (std::uint64_t i = 0; i < num_quarantined; ++i) {
    HDLDP_ASSIGN_OR_RETURN(const std::uint64_t chunk, in.U64());
    state.quarantined.push_back(static_cast<std::size_t>(chunk));
  }
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t state_len, in.U64());
  if (state_len != in.remaining()) return corrupt;
  HDLDP_ASSIGN_OR_RETURN(const std::span<const unsigned char> acc_state,
                         in.Bytes(state_len));
  state.acc_state.assign(acc_state.begin(), acc_state.end());

  (*groups)[static_cast<std::size_t>(group)] = std::move(state);
  return bytes.size() - frame.remaining();
}

}  // namespace

void RunDigest::AddU64(std::uint64_t v) { ByteWriter(&bytes).U64(v); }

void RunDigest::AddF64(double v) { ByteWriter(&bytes).F64(v); }

void RunDigest::AddString(std::string_view s) {
  ByteWriter w(&bytes);
  w.U64(s.size());
  w.Bytes({reinterpret_cast<const unsigned char*>(s.data()), s.size()});
}

SnapshotFile::SnapshotFile(SnapshotFile&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      writer_(std::move(other.writer_)),
      groups_(std::move(other.groups_)),
      mu_(std::move(other.mu_)) {
  other.fd_ = -1;
}

SnapshotFile& SnapshotFile::operator=(SnapshotFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    writer_ = std::move(other.writer_);
    groups_ = std::move(other.groups_);
    mu_ = std::move(other.mu_);
    other.fd_ = -1;
  }
  return *this;
}

SnapshotFile::~SnapshotFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<SnapshotFile> SnapshotFile::Open(
    const std::string& path, std::span<const unsigned char> digest,
    WriteFaultSchedule write_faults) {
  SnapshotFile file;
  file.path_ = path;
  file.writer_ = FileWriter(std::move(write_faults));
  file.mu_ = std::make_unique<std::mutex>();

  std::vector<unsigned char> contents;
  {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno != ENOENT) {
        return Status::DataLoss("cannot open checkpoint " + path + ": " +
                                std::strerror(errno));
      }
    } else {
      struct stat st;
      if (::fstat(fd, &st) != 0) {
        const Status status =
            Status::DataLoss("cannot stat checkpoint " + path + ": " +
                             std::strerror(errno));
        ::close(fd);
        return status;
      }
      contents.resize(static_cast<std::size_t>(st.st_size));
      std::size_t off = 0;
      while (off < contents.size()) {
        const ssize_t n = ::read(fd, contents.data() + off,
                                 contents.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          ::close(fd);
          return Status::DataLoss("cannot read checkpoint " + path);
        }
        off += static_cast<std::size_t>(n);
      }
      ::close(fd);
    }
  }

  const std::vector<unsigned char> header = EncodeHeader(digest);
  if (!contents.empty()) {
    // Validate the header against the expected one. The header is a
    // pure function of (format version, digest), so the comparison
    // covers magic, version, and run identity in one step; distinguish
    // the failure modes for the caller.
    if (contents.size() < kMagicBytes ||
        std::memcmp(contents.data(), kMagic, kMagicBytes) != 0) {
      return Status::DataLoss("not a checkpoint file (bad magic): " + path);
    }
    if (contents.size() < header.size() ||
        std::memcmp(contents.data(), header.data(), header.size()) != 0) {
      // Same magic but different version/digest bytes — either a future
      // format or another run's checkpoint. Check the stored CRC to
      // tell corruption apart from mismatch.
      const Status corrupt =
          Status::DataLoss("corrupt checkpoint header: " + path);
      ByteReader in(
          std::span<const unsigned char>(contents).subspan(kMagicBytes),
          StatusCode::kDataLoss, "corrupt checkpoint header");
      const Result<std::uint32_t> version = in.U32();
      const Result<std::uint32_t> digest_len = in.U32();
      if (!version.ok() || !digest_len.ok() || !in.Bytes(*digest_len).ok()) {
        return corrupt;
      }
      const std::size_t crc_covers = contents.size() - in.remaining();
      const Result<std::uint32_t> stored_crc = in.U32();
      if (!stored_crc.ok() ||
          Crc32c(contents.data(), crc_covers) != *stored_crc) {
        return corrupt;
      }
      if (*version != kSnapshotFormatVersion) {
        return Status::InvalidArgument(
            "unsupported checkpoint format version " +
            std::to_string(*version) + ": " + path);
      }
      return Status::InvalidArgument(
          "checkpoint belongs to a different run configuration "
          "(manifest digest mismatch): " +
          path);
    }
    // Header matches; load records tolerantly. A torn tail (crash
    // mid-append) fails its CRC frame and parsing stops there.
    std::size_t offset = header.size();
    while (offset < contents.size()) {
      const Result<std::size_t> record = ParseRecord(
          std::span<const unsigned char>(contents).subspan(offset),
          &file.groups_);
      if (!record.ok()) break;
      offset += *record;
    }
  }

  // Rewrite compacted (header + latest record per group) via .tmp +
  // rename. This drops any torn tail, so post-resume appends can never
  // hide behind one, and bounds file growth across many resumes.
  const std::string tmp = path + ".tmp";
  const int wfd =
      ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (wfd < 0) {
    return Status::DataLoss("cannot create checkpoint " + tmp + ": " +
                            std::strerror(errno));
  }
  file.fd_ = wfd;
  // Compaction writes route through the fault-injecting writer too: a
  // failure here leaves only the .tmp torn, never the original file,
  // which has not been renamed over yet.
  HDLDP_RETURN_NOT_OK(
      file.writer_.WriteFully(wfd, header.data(), header.size(), tmp));
  for (const auto& [group, state] : file.groups_) {
    const std::vector<unsigned char> record =
        EncodeRecord(group, state.chunks_done, state.quarantined,
                     state.acc_state);
    HDLDP_RETURN_NOT_OK(
        file.writer_.WriteFully(wfd, record.data(), record.size(), tmp));
  }
  HDLDP_RETURN_NOT_OK(file.writer_.Fsync(wfd, tmp));
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::DataLoss("cannot rename " + tmp + " to " + path + ": " +
                            std::strerror(errno));
  }
  // Flush the directory entry too, or a crash can roll the rename back
  // and orphan every record appended from here on. A bare file name
  // lives in ".".
  const std::size_t slash = path.rfind('/');
  HDLDP_RETURN_NOT_OK(FsyncDir(
      slash == std::string::npos
          ? "."
          : path.substr(0, std::max<std::size_t>(slash, 1))));
  // The descriptor survives the rename and stays positioned at the end,
  // ready for appends.
  return file;
}

std::optional<SnapshotFile::GroupState> SnapshotFile::Load(
    std::size_t group) const {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return std::nullopt;
  return it->second;
}

Status SnapshotFile::Save(std::size_t group, std::size_t chunks_done,
                          const std::vector<std::size_t>& quarantined,
                          std::span<const unsigned char> acc_state) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("checkpoint file is closed");
  }
  const std::vector<unsigned char> record =
      EncodeRecord(group, chunks_done, quarantined, acc_state);
  std::lock_guard<std::mutex> lock(*mu_);
  const off_t before = ::lseek(fd_, 0, SEEK_CUR);
  const Status status =
      writer_.WriteFully(fd_, record.data(), record.size(), path_);
  if (!status.ok() && before >= 0) {
    // Roll the torn tail back to the pre-append length. Without this a
    // later Save would append after the torn bytes and Open, stopping
    // at the first bad frame, would silently drop every record past it.
    (void)::ftruncate(fd_, before);
    (void)::lseek(fd_, before, SEEK_SET);
  }
  return status;
}

Status SnapshotFile::Close() {
  if (fd_ < 0) return Status::OK();
  Status status = writer_.Fsync(fd_, path_);
  if (::close(fd_) != 0 && status.ok()) {
    status = Status::DataLoss("close failed for " + path_ + ": " +
                              std::strerror(errno));
  }
  fd_ = -1;
  return status;
}

Status SnapshotFile::Remove(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::DataLoss("cannot remove checkpoint " + path + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace protocol
}  // namespace hdldp
