#include "common/file_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/rng.h"

namespace hdldp {
namespace {

// One uniform draw in [0, 1) per operation, keyed by (seed, op) — the
// fate-hash pattern of data::FaultSchedule::Random, with its own tag so
// write fates never correlate with chunk fates at equal seeds.
double FateDraw(std::uint64_t seed, std::uint64_t op) {
  std::uint64_t mix = seed ^ 0xD15CULL ^ (0x9e3779b97f4a7c15ULL * (op + 1));
  return static_cast<double>(SplitMix64(&mix) >> 11) * 0x1.0p-53;
}

bool IsResourceErrno(int err) {
  return err == ENOSPC || err == EDQUOT || err == EFBIG;
}

Status WriteLoop(int fd, const char* p, std::size_t len,
                 std::optional<std::size_t> offset, const std::string& path) {
  while (len > 0) {
    const ssize_t n =
        offset.has_value()
            ? ::pwrite(fd, p, len, static_cast<off_t>(*offset))
            : ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string msg =
          "write failed for " + path + ": " + std::strerror(errno);
      return IsResourceErrno(errno) ? Status::ResourceExhausted(msg)
                                    : Status::Internal(msg);
    }
    p += n;
    if (offset.has_value()) *offset += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace

std::optional<WriteFaultKind> WriteFaultSchedule::WriteFate(
    std::uint64_t op) const {
  const auto it = explicit_.find(op);
  if (it != explicit_.end()) {
    if (it->second == WriteFaultKind::kShortWrite ||
        it->second == WriteFaultKind::kNoSpace) {
      return it->second;
    }
    return std::nullopt;
  }
  if (options_.short_write_rate <= 0.0 && options_.no_space_rate <= 0.0) {
    return std::nullopt;
  }
  const double u = FateDraw(seed_, op);
  if (u < options_.short_write_rate) return WriteFaultKind::kShortWrite;
  if (u < options_.short_write_rate + options_.no_space_rate) {
    return WriteFaultKind::kNoSpace;
  }
  return std::nullopt;
}

std::optional<WriteFaultKind> WriteFaultSchedule::FsyncFate(
    std::uint64_t op) const {
  const auto it = explicit_.find(op);
  if (it != explicit_.end()) {
    return it->second == WriteFaultKind::kFsyncFailure
               ? std::optional<WriteFaultKind>(it->second)
               : std::nullopt;
  }
  if (options_.fsync_failure_rate <= 0.0) return std::nullopt;
  return FateDraw(seed_, op) < options_.fsync_failure_rate
             ? std::optional<WriteFaultKind>(WriteFaultKind::kFsyncFailure)
             : std::nullopt;
}

Status FileWriter::WriteFully(int fd, const void* data, std::size_t len,
                              const std::string& path) {
  const std::uint64_t op = op_++;
  const char* p = static_cast<const char*>(data);
  if (const auto fate = schedule_.WriteFate(op)) {
    if (*fate == WriteFaultKind::kShortWrite && len > 1) {
      // Land half the bytes for real, then report the disk full: the
      // torn prefix is on disk exactly as a device would leave it.
      HDLDP_RETURN_NOT_OK(WriteLoop(fd, p, len / 2, std::nullopt, path));
    }
    return Status::ResourceExhausted(
        "injected ENOSPC at write op " + std::to_string(op) + " for " + path);
  }
  return WriteLoop(fd, p, len, std::nullopt, path);
}

Status FileWriter::PWriteFully(int fd, const void* data, std::size_t len,
                               std::size_t offset, const std::string& path) {
  const std::uint64_t op = op_++;
  const char* p = static_cast<const char*>(data);
  if (const auto fate = schedule_.WriteFate(op)) {
    if (*fate == WriteFaultKind::kShortWrite && len > 1) {
      HDLDP_RETURN_NOT_OK(WriteLoop(fd, p, len / 2, offset, path));
    }
    return Status::ResourceExhausted(
        "injected ENOSPC at write op " + std::to_string(op) + " for " + path);
  }
  return WriteLoop(fd, p, len, offset, path);
}

Status FsyncDir(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return Status::DataLoss("cannot open directory for fsync " + dir + ": " +
                            std::strerror(errno));
  }
  const int rc = ::fsync(dfd);
  const int saved_errno = errno;
  ::close(dfd);
  if (rc != 0) {
    return Status::DataLoss("fsync failed for directory " + dir + ": " +
                            std::strerror(saved_errno));
  }
  return Status::OK();
}

Status FileWriter::Fsync(int fd, const std::string& path) {
  const std::uint64_t op = op_++;
  if (schedule_.FsyncFate(op).has_value()) {
    return Status::DataLoss("injected fsync failure at op " +
                            std::to_string(op) + " for " + path);
  }
  if (::fsync(fd) != 0) {
    return Status::DataLoss("fsync failed for " + path + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace hdldp
