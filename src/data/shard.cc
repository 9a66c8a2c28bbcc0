#include "data/shard.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/bytes.h"
#include "common/crc32c.h"

namespace hdldp {
namespace data {
namespace {

constexpr std::size_t kHeaderBytes = 4096;
constexpr unsigned char kMagic[8] = {'H', 'D', 'L', 'S', 'H', 'A', 'R', 'D'};

struct ShardHeader {
  std::uint32_t version = kShardFormatVersion;
  std::uint32_t flags = 0;
  std::uint64_t num_dims = 0;
  std::uint64_t users_per_chunk = kUsersPerChunk;
  std::uint64_t num_users = 0;
  std::uint64_t first_user = 0;
};

// Chunks stored in a part file holding `num_users` rows.
std::size_t ChunksInFile(std::uint64_t num_users) {
  return static_cast<std::size_t>((num_users + kUsersPerChunk - 1) /
                                  kUsersPerChunk);
}

// The magic and header fields in file order; the rest of the header
// block is zero.
std::vector<unsigned char> EncodeHeader(const ShardHeader& h) {
  std::vector<unsigned char> out;
  ByteWriter w(&out);
  w.Bytes(kMagic);
  w.U32(h.version);
  w.U32(h.flags);
  w.U64(h.num_dims);
  w.U64(h.users_per_chunk);
  w.U64(h.num_users);
  w.U64(h.first_user);
  return out;
}

Result<ShardHeader> DecodeHeader(std::span<const unsigned char> block,
                                 const std::string& path) {
  if (std::memcmp(block.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("corrupt shard header (bad magic): " + path);
  }
  ByteReader in(block.subspan(sizeof(kMagic)), StatusCode::kDataLoss,
                "truncated shard header");
  ShardHeader h;
  HDLDP_ASSIGN_OR_RETURN(h.version, in.U32());
  HDLDP_ASSIGN_OR_RETURN(h.flags, in.U32());
  HDLDP_ASSIGN_OR_RETURN(h.num_dims, in.U64());
  HDLDP_ASSIGN_OR_RETURN(h.users_per_chunk, in.U64());
  HDLDP_ASSIGN_OR_RETURN(h.num_users, in.U64());
  HDLDP_ASSIGN_OR_RETURN(h.first_user, in.U64());
  if (h.version == 0 || h.version > kShardFormatVersion) {
    return Status::InvalidArgument(
        "unsupported shard format version " + std::to_string(h.version) +
        " (reader supports up to " + std::to_string(kShardFormatVersion) +
        "): " + path);
  }
  if (h.flags != 0) {
    return Status::InvalidArgument("unknown shard header flags: " + path);
  }
  if (h.users_per_chunk != kUsersPerChunk) {
    return Status::InvalidArgument(
        "shard users_per_chunk " + std::to_string(h.users_per_chunk) +
        " does not match engine chunk size " +
        std::to_string(kUsersPerChunk) + ": " + path);
  }
  if (h.num_dims == 0 || h.num_users == 0) {
    return Status::InvalidArgument("empty shard part file: " + path);
  }
  // Geometry sanity: the expected-size formula in Open() must not wrap,
  // and the CRC-trailer resize must never trust a wild chunk count. The
  // bounds are far beyond any real population, so only a corrupt or
  // hostile header trips them.
  if (h.num_dims > (1ull << 24) ||
      h.num_users > (1ull << 56) / h.num_dims) {
    return Status::DataLoss("implausible shard geometry (num_users " +
                            std::to_string(h.num_users) + ", num_dims " +
                            std::to_string(h.num_dims) + "): " + path);
  }
  return h;
}

std::string PartPath(const std::string& dir, std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "part-%05zu.hds", index);
  return dir + "/" + name;
}

Status PReadFully(int fd, void* data, std::size_t len, std::size_t offset,
                  const std::string& path) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("read failed for " + path + ": " +
                              std::strerror(errno));
    }
    if (n == 0) {
      return Status::DataLoss("truncated shard file: " + path);
    }
    p += n;
    offset += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return Status::OK();
}

bool EndsWith(const std::string& name, std::string_view suffix) {
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

ShardWriter::ShardWriter(std::string dir, std::size_t num_dims,
                         const ShardWriterOptions& options)
    : dir_(std::move(dir)),
      num_dims_(num_dims),
      options_(options),
      writer_(options.write_faults) {}

ShardWriter::ShardWriter(ShardWriter&& other) noexcept
    : dir_(std::move(other.dir_)),
      num_dims_(other.num_dims_),
      options_(other.options_),
      writer_(std::move(other.writer_)),
      fd_(other.fd_),
      file_index_(other.file_index_),
      rows_in_file_(other.rows_in_file_),
      rows_written_(other.rows_written_),
      finished_(other.finished_),
      chunk_crcs_(std::move(other.chunk_crcs_)),
      chunk_crc_(other.chunk_crc_),
      rows_in_chunk_(other.rows_in_chunk_) {
  other.fd_ = -1;
}

ShardWriter& ShardWriter::operator=(ShardWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    dir_ = std::move(other.dir_);
    num_dims_ = other.num_dims_;
    options_ = other.options_;
    writer_ = std::move(other.writer_);
    fd_ = other.fd_;
    file_index_ = other.file_index_;
    rows_in_file_ = other.rows_in_file_;
    rows_written_ = other.rows_written_;
    finished_ = other.finished_;
    chunk_crcs_ = std::move(other.chunk_crcs_);
    chunk_crc_ = other.chunk_crc_;
    rows_in_chunk_ = other.rows_in_chunk_;
    other.fd_ = -1;
  }
  return *this;
}

ShardWriter::~ShardWriter() {
  // An unfinished shard leaves its .tmp file on disk as evidence of the
  // interrupted write; Create() recovers the directory on the next run.
  if (fd_ >= 0) ::close(fd_);
}

Result<ShardWriter> ShardWriter::Create(const std::string& dir,
                                        std::size_t num_dims,
                                        const ShardWriterOptions& options) {
  if (num_dims == 0) {
    return Status::InvalidArgument("ShardWriter requires num_dims > 0");
  }
  if (options.chunks_per_file == 0) {
    return Status::InvalidArgument("ShardWriter requires chunks_per_file > 0");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("cannot create shard directory " + dir + ": " +
                            std::strerror(errno));
  }
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::Internal("cannot open shard directory " + dir + ": " +
                            std::strerror(errno));
  }
  std::vector<std::string> parts;
  std::vector<std::string> temps;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (EndsWith(name, ".hds.tmp")) {
      temps.push_back(name);
    } else if (EndsWith(name, ".hds")) {
      parts.push_back(name);
    }
  }
  ::closedir(d);
  if (!temps.empty()) {
    // Debris of an interrupted write: the directory never became
    // readable, so wipe the partial output and start over.
    for (const std::string& name : temps) {
      (void)::unlink((dir + "/" + name).c_str());
    }
    for (const std::string& name : parts) {
      (void)::unlink((dir + "/" + name).c_str());
    }
    HDLDP_RETURN_NOT_OK(FsyncDir(dir));
  } else if (!parts.empty()) {
    return Status::FailedPrecondition(
        "shard directory already contains part files: " + dir);
  }
  return ShardWriter(dir, num_dims, options);
}

Status ShardWriter::OpenNextFile() {
  const std::string tmp = PartPath(dir_, file_index_) + ".tmp";
  fd_ = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::Internal("cannot create shard part " + tmp + ": " +
                            std::strerror(errno));
  }
  // Placeholder header; num_users is patched on close.
  std::vector<unsigned char> block = EncodeHeader(
      {.num_dims = num_dims_, .num_users = 0, .first_user = rows_written_});
  block.resize(kHeaderBytes);
  HDLDP_RETURN_NOT_OK(
      writer_.WriteFully(fd_, block.data(), block.size(), tmp));
  rows_in_file_ = 0;
  chunk_crcs_.clear();
  chunk_crc_ = 0;
  rows_in_chunk_ = 0;
  return Status::OK();
}

Status ShardWriter::CloseCurrentFile() {
  const std::string path = PartPath(dir_, file_index_);
  const std::string tmp = path + ".tmp";
  if (rows_in_chunk_ > 0) {
    chunk_crcs_.push_back(chunk_crc_);
    chunk_crc_ = 0;
    rows_in_chunk_ = 0;
  }
  // The CRC trailer goes after the payload; the descriptor's position
  // is already there.
  HDLDP_RETURN_NOT_OK(writer_.WriteFully(
      fd_, chunk_crcs_.data(), chunk_crcs_.size() * sizeof(std::uint32_t),
      tmp));
  const std::vector<unsigned char> header =
      EncodeHeader({.num_dims = num_dims_,
                    .num_users = rows_in_file_,
                    .first_user = rows_written_ - rows_in_file_});
  HDLDP_RETURN_NOT_OK(
      writer_.PWriteFully(fd_, header.data(), header.size(), 0, tmp));
  // Seal crash-consistently: flush the complete .tmp, rename it into
  // place, then flush the directory entry. A crash (or injected fault)
  // at any point leaves either no final file (stray .tmp, detected by
  // Open) or a complete checksummed one — never a torn final file.
  if (const Status st = writer_.Fsync(fd_, tmp); !st.ok()) {
    ::close(fd_);
    fd_ = -1;
    return st;
  }
  if (::close(fd_) != 0) {
    fd_ = -1;
    return Status::Internal("close failed for " + tmp + ": " +
                            std::strerror(errno));
  }
  fd_ = -1;
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("cannot rename " + tmp + " to " + path + ": " +
                            std::strerror(errno));
  }
  HDLDP_RETURN_NOT_OK(FsyncDir(dir_));
  ++file_index_;
  rows_in_file_ = 0;
  chunk_crcs_.clear();
  return Status::OK();
}

Status ShardWriter::Append(std::span<const double> values) {
  if (finished_) {
    return Status::FailedPrecondition("Append after Finish");
  }
  if (values.size() % num_dims_ != 0) {
    return Status::InvalidArgument(
        "Append size must be a multiple of num_dims");
  }
  const std::size_t rows_per_file = options_.chunks_per_file * kUsersPerChunk;
  std::size_t rows = values.size() / num_dims_;
  const double* p = values.data();
  while (rows > 0) {
    if (fd_ < 0) HDLDP_RETURN_NOT_OK(OpenNextFile());
    const std::size_t take = std::min(rows, rows_per_file - rows_in_file_);
    HDLDP_RETURN_NOT_OK(
        writer_.WriteFully(fd_, p, take * num_dims_ * sizeof(double),
                           PartPath(dir_, file_index_) + ".tmp"));
    // Fold the same bytes into the per-chunk CRCs, closing out each
    // chunk as its last row streams through.
    const double* q = p;
    std::size_t left = take;
    while (left > 0) {
      const std::size_t sub = std::min(left, kUsersPerChunk - rows_in_chunk_);
      chunk_crc_ = Crc32cExtend(chunk_crc_, q, sub * num_dims_ * sizeof(double));
      q += sub * num_dims_;
      rows_in_chunk_ += sub;
      left -= sub;
      if (rows_in_chunk_ == kUsersPerChunk) {
        chunk_crcs_.push_back(chunk_crc_);
        chunk_crc_ = 0;
        rows_in_chunk_ = 0;
      }
    }
    p += take * num_dims_;
    rows -= take;
    rows_in_file_ += take;
    rows_written_ += take;
    if (rows_in_file_ == rows_per_file) HDLDP_RETURN_NOT_OK(CloseCurrentFile());
  }
  return Status::OK();
}

Status ShardWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  if (rows_written_ == 0) {
    return Status::FailedPrecondition("Finish with no rows appended");
  }
  if (fd_ >= 0) HDLDP_RETURN_NOT_OK(CloseCurrentFile());
  finished_ = true;
  return Status::OK();
}

Result<std::size_t> WriteShards(const ChunkSource& source,
                                const std::string& dir,
                                const ShardWriterOptions& options) {
  HDLDP_ASSIGN_OR_RETURN(ShardWriter writer,
                         ShardWriter::Create(dir, source.num_dims(), options));
  ChunkBuffer buffer;
  for (std::size_t c = 0; c < source.num_chunks(); ++c) {
    HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                           source.Chunk(c, &buffer));
    HDLDP_RETURN_NOT_OK(writer.Append(rows));
  }
  HDLDP_RETURN_NOT_OK(writer.Finish());
  return writer.rows_written();
}

ShardFileSource::ShardFileSource(ShardFileSource&& other) noexcept
    : parts_(std::move(other.parts_)),
      num_users_(other.num_users_),
      num_dims_(other.num_dims_),
      checksummed_(other.checksummed_) {
  other.parts_.clear();
}

ShardFileSource& ShardFileSource::operator=(ShardFileSource&& other) noexcept {
  if (this != &other) {
    CloseAll();
    parts_ = std::move(other.parts_);
    num_users_ = other.num_users_;
    num_dims_ = other.num_dims_;
    checksummed_ = other.checksummed_;
    other.parts_.clear();
  }
  return *this;
}

ShardFileSource::~ShardFileSource() { CloseAll(); }

void ShardFileSource::CloseAll() {
  for (PartFile& part : parts_) {
    if (part.fd >= 0) ::close(part.fd);
    part.fd = -1;
  }
}

Result<ShardFileSource> ShardFileSource::Open(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::NotFound("shard directory not found: " + dir);
  }
  std::vector<std::string> names;
  std::string stray_tmp;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (EndsWith(name, ".hds.tmp")) {
      if (stray_tmp.empty()) stray_tmp = name;
    } else if (EndsWith(name, ".hds")) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  if (!stray_tmp.empty()) {
    return Status::DataLoss(
        "interrupted shard write (stray temporary file " + stray_tmp +
        "), directory is incomplete: " + dir);
  }
  if (names.empty()) {
    return Status::NotFound("no .hds part files in shard directory: " + dir);
  }
  std::sort(names.begin(), names.end());

  ShardFileSource source;
  bool all_checksummed = true;
  for (const std::string& name : names) {
    PartFile part;
    part.path = dir + "/" + name;
    part.fd = ::open(part.path.c_str(), O_RDONLY | O_CLOEXEC);
    if (part.fd < 0) {
      return Status::Internal("cannot open shard part " + part.path + ": " +
                              std::strerror(errno));
    }
    source.parts_.push_back(std::move(part));  // CloseAll covers errors below.
    PartFile& owned = source.parts_.back();
    unsigned char block[kHeaderBytes];
    HDLDP_RETURN_NOT_OK(
        PReadFully(owned.fd, block, kHeaderBytes, 0, owned.path));
    HDLDP_ASSIGN_OR_RETURN(const ShardHeader header,
                           DecodeHeader(block, owned.path));
    if (source.num_dims_ == 0) {
      source.num_dims_ = header.num_dims;
    } else if (header.num_dims != source.num_dims_) {
      return Status::InvalidArgument(
          "shard parts disagree on num_dims: " + owned.path);
    }
    if (header.first_user != source.num_users_) {
      return Status::InvalidArgument(
          "shard parts are not contiguous (expected first_user " +
          std::to_string(source.num_users_) + ", found " +
          std::to_string(header.first_user) + "): " + owned.path);
    }
    struct stat st;
    if (::fstat(owned.fd, &st) != 0) {
      return Status::Internal("cannot stat shard part " + owned.path + ": " +
                              std::strerror(errno));
    }
    const std::size_t file_chunks = ChunksInFile(header.num_users);
    const std::uint64_t payload_bytes =
        header.num_users * header.num_dims * sizeof(double);
    const std::uint64_t expected_size =
        kHeaderBytes + payload_bytes +
        (header.version >= 2 ? file_chunks * sizeof(std::uint32_t) : 0);
    if (static_cast<std::uint64_t>(st.st_size) != expected_size) {
      return Status::DataLoss(
          "truncated or oversized shard file (expected " +
          std::to_string(expected_size) + " bytes, found " +
          std::to_string(st.st_size) + "): " + owned.path);
    }
    if (header.version >= 2) {
      owned.chunk_crcs.resize(file_chunks);
      HDLDP_RETURN_NOT_OK(PReadFully(owned.fd, owned.chunk_crcs.data(),
                                     file_chunks * sizeof(std::uint32_t),
                                     kHeaderBytes + payload_bytes,
                                     owned.path));
    } else {
      all_checksummed = false;
    }
    owned.first_user = header.first_user;
    owned.num_users = header.num_users;
    source.num_users_ += header.num_users;
  }
  // Chunks must never span files: all parts but the last hold whole chunks.
  for (std::size_t i = 0; i + 1 < source.parts_.size(); ++i) {
    if (source.parts_[i].num_users % kUsersPerChunk != 0) {
      return Status::InvalidArgument(
          "non-final shard part holds a partial chunk: " +
          source.parts_[i].path);
    }
  }
  source.checksummed_ = all_checksummed;
  return source;
}

Result<std::span<const double>> ShardFileSource::Chunk(
    std::size_t chunk, ChunkBuffer* buffer) const {
  if (chunk >= num_chunks()) {
    return Status::OutOfRange("chunk index out of range");
  }
  const std::size_t begin = ChunkBegin(chunk);
  const std::size_t users = ChunkUsers(chunk);
  // Parts are sorted by first_user; find the one containing `begin`.
  std::size_t lo = 0, hi = parts_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (parts_[mid].first_user <= begin) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const PartFile& part = parts_[lo];
  const std::size_t local_row = begin - part.first_user;
  if (local_row + users > part.num_users) {
    return Status::Internal("chunk spans shard parts: " + part.path);
  }
  const std::size_t byte_offset =
      kHeaderBytes + local_row * num_dims_ * sizeof(double);
  const std::size_t byte_len = users * num_dims_ * sizeof(double);
  // Map one chunk-sized window, aligned down to the page boundary (a
  // no-op on 4 KiB pages — header block and chunk stride are both 4 KiB
  // multiples). The buffer unmaps the previous window, so each reader
  // holds at most one chunk of mapped address space at a time.
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t map_offset = byte_offset & ~(page - 1);
  const std::size_t delta = byte_offset - map_offset;
  void* addr = ::mmap(nullptr, byte_len + delta, PROT_READ, MAP_PRIVATE,
                      part.fd, static_cast<off_t>(map_offset));
  if (addr == MAP_FAILED) {
    return Status::Internal("mmap failed for " + part.path + ": " +
                            std::strerror(errno));
  }
  buffer->AdoptWindow(addr, byte_len + delta);
  const double* rows =
      reinterpret_cast<const double*>(static_cast<const char*>(addr) + delta);
  if (!part.chunk_crcs.empty()) {
    // Parts start on chunk boundaries (whole-chunk rule + contiguity),
    // so the local row offset maps directly to a trailer slot.
    const std::size_t local_chunk = local_row / kUsersPerChunk;
    const std::uint32_t stored = part.chunk_crcs[local_chunk];
    const std::uint32_t computed = Crc32c(rows, byte_len);
    if (computed != stored) {
      return Status::DataLoss(
          "shard chunk " + std::to_string(chunk) +
          " failed CRC32C verification (stored " + std::to_string(stored) +
          ", computed " + std::to_string(computed) + "): " + part.path);
    }
  }
  return std::span<const double>(rows, users * num_dims_);
}

}  // namespace data
}  // namespace hdldp
