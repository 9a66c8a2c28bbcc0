// Unit tests of the write-path fault-injection seam
// (common/file_writer.h): fates are deterministic in (seed, op), an
// injected short write leaves exactly half the bytes, and errno
// families map to the typed codes the callers branch on.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/file_writer.h"

namespace hdldp {
namespace {

class ScopedFile {
 public:
  explicit ScopedFile(const std::string& name)
      : path_(::testing::TempDir() + "hdldp_file_writer_" + name) {
    std::remove(path_.c_str());
    fd_ = ::open(path_.c_str(), O_CREAT | O_RDWR | O_TRUNC | O_CLOEXEC,
                 0644);
  }
  ~ScopedFile() {
    if (fd_ >= 0) ::close(fd_);
    std::remove(path_.c_str());
  }
  int fd() const { return fd_; }
  const std::string& path() const { return path_; }
  std::vector<char> Contents() const {
    std::ifstream in(path_, std::ios::binary);
    return std::vector<char>{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  }

 private:
  std::string path_;
  int fd_ = -1;
};

TEST(WriteFaultScheduleTest, RandomFatesAreDeterministicInSeedAndOp) {
  WriteFaultSchedule::RandomOptions random;
  random.short_write_rate = 0.25;
  random.no_space_rate = 0.25;
  random.fsync_failure_rate = 0.5;
  const WriteFaultSchedule a(7, random);
  const WriteFaultSchedule b(7, random);
  const WriteFaultSchedule other(8, random);
  bool any_fault = false;
  bool any_difference = false;
  for (std::uint64_t op = 0; op < 256; ++op) {
    EXPECT_EQ(a.WriteFate(op), b.WriteFate(op)) << op;
    EXPECT_EQ(a.FsyncFate(op), b.FsyncFate(op)) << op;
    any_fault |= a.WriteFate(op).has_value();
    any_difference |= a.WriteFate(op) != other.WriteFate(op);
  }
  EXPECT_TRUE(any_fault);       // the rates actually fire
  EXPECT_TRUE(any_difference);  // and the seed matters
}

TEST(WriteFaultScheduleTest, ExplicitFaultsTakePrecedenceAndActivate) {
  WriteFaultSchedule schedule;
  EXPECT_FALSE(schedule.active());
  schedule.Add(3, WriteFaultKind::kNoSpace);
  EXPECT_TRUE(schedule.active());
  EXPECT_FALSE(schedule.WriteFate(2).has_value());
  EXPECT_EQ(schedule.WriteFate(3), WriteFaultKind::kNoSpace);
  schedule.Add(3, WriteFaultKind::kShortWrite);  // replaces
  EXPECT_EQ(schedule.WriteFate(3), WriteFaultKind::kShortWrite);
}

TEST(FileWriterTest, CleanWritesLandAndCountOps) {
  ScopedFile file("clean");
  ASSERT_GE(file.fd(), 0);
  FileWriter writer;
  ASSERT_TRUE(writer.WriteFully(file.fd(), "abcd", 4, file.path()).ok());
  ASSERT_TRUE(writer.PWriteFully(file.fd(), "XY", 2, 1, file.path()).ok());
  ASSERT_TRUE(writer.Fsync(file.fd(), file.path()).ok());
  EXPECT_EQ(writer.ops(), 3u);
  EXPECT_EQ(file.Contents(), (std::vector<char>{'a', 'X', 'Y', 'd'}));
}

TEST(FileWriterTest, InjectedNoSpaceIsResourceExhaustedWithNoBytes) {
  ScopedFile file("nospace");
  WriteFaultSchedule schedule;
  schedule.Add(0, WriteFaultKind::kNoSpace);
  FileWriter writer(schedule);
  const Status status =
      writer.WriteFully(file.fd(), "abcdefgh", 8, file.path());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(file.Contents().empty());
  // The next operation is op 1: unfaulted, so the writer recovers.
  ASSERT_TRUE(writer.WriteFully(file.fd(), "abcdefgh", 8, file.path()).ok());
  EXPECT_EQ(file.Contents().size(), 8u);
}

TEST(FileWriterTest, InjectedShortWriteLandsHalfThenFails) {
  ScopedFile file("short");
  WriteFaultSchedule schedule;
  schedule.Add(0, WriteFaultKind::kShortWrite);
  FileWriter writer(schedule);
  const Status status =
      writer.WriteFully(file.fd(), "abcdefgh", 8, file.path());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // Half the bytes are REAL torn output — exactly what a caller's
  // .tmp/rename discipline must keep quarantined.
  EXPECT_EQ(file.Contents(), (std::vector<char>{'a', 'b', 'c', 'd'}));
}

TEST(FileWriterTest, InjectedFsyncFailureIsDataLoss) {
  ScopedFile file("fsync");
  WriteFaultSchedule schedule;
  schedule.Add(1, WriteFaultKind::kFsyncFailure);
  FileWriter writer(schedule);
  ASSERT_TRUE(writer.WriteFully(file.fd(), "abcd", 4, file.path()).ok());
  EXPECT_EQ(writer.Fsync(file.fd(), file.path()).code(),
            StatusCode::kDataLoss);
}

TEST(FsyncDirTest, FlushesADirectoryAndCallsAMissingOneDataLoss) {
  EXPECT_TRUE(FsyncDir(::testing::TempDir()).ok());
  EXPECT_TRUE(FsyncDir(".").ok());
  // Like a failed file fsync: whether a rename into it survives a crash
  // is unknowable, so the caller must not treat it as durable.
  EXPECT_EQ(FsyncDir(::testing::TempDir() + "hdldp_no_such_dir").code(),
            StatusCode::kDataLoss);
}

TEST(FileWriterTest, RealEbadfWriteIsInternalNotResourceExhausted) {
  // A genuinely broken descriptor is an Internal error: only the
  // out-of-space errno family maps to ResourceExhausted.
  FileWriter writer;
  const Status status = writer.WriteFully(-1, "abcd", 4, "bad-fd");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace hdldp
