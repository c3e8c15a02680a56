#include "common/recordio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

namespace sm::common {

namespace {

constexpr char kMagic[4] = {'S', 'M', 'R', 'F'};
constexpr uint16_t kVersion = 1;
constexpr size_t kHeaderSize = 8;

/// Slicing-by-8 tables: kCrc[0] is the classic byte table, and
/// kCrc[k][i] is the CRC of byte i followed by k zero bytes, so one
/// lookup per byte of an 8-byte block replaces eight dependent steps.
struct CrcTables {
  uint32_t t[8][256]{};
  constexpr CrcTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k)
      for (int i = 0; i < 256; ++i)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
};

constexpr CrcTables kCrc;

uint32_t load_le32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

uint32_t read_be32(const uint8_t* p) {
  return uint32_t{p[0]} << 24 | uint32_t{p[1]} << 16 | uint32_t{p[2]} << 8 |
         uint32_t{p[3]};
}

void write_be32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

}  // namespace

uint32_t crc32(std::span<const uint8_t> data, uint32_t seed) {
  const auto& t = kCrc.t;
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = c ^ load_le32(p), hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][lo >> 8 & 0xFFu] ^ t[5][lo >> 16 & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][hi >> 8 & 0xFFu] ^
        t[1][hi >> 16 & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void append_frame(Bytes& out, std::span<const uint8_t> payload) {
  const size_t at = out.size();
  out.resize(at + kFrameHeader + payload.size());
  uint8_t* frame = out.data() + at;
  write_be32(frame, static_cast<uint32_t>(payload.size()));
  write_be32(frame + 4, crc32(payload));
  if (!payload.empty())  // empty spans may carry a null data()
    std::memcpy(frame + kFrameHeader, payload.data(), payload.size());
}

Frame next_frame(std::span<const uint8_t> buf) {
  if (buf.size() < kFrameHeader) return {};
  const uint32_t len = read_be32(buf.data());
  if (len > kMaxPayload) return {Frame::Oversize, {}, 0};
  if (buf.size() - kFrameHeader < len) return {};
  std::span<const uint8_t> payload = buf.subspan(kFrameHeader, len);
  if (crc32(payload) != read_be32(buf.data() + 4))
    return {Frame::Corrupt, {}, 0};
  return {Frame::Whole, payload, kFrameHeader + len};
}

RecordScan scan_records(const std::string& path, uint16_t app_tag,
                        const RecordVisitor& visit) {
  RecordScan out;
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rbe"), &std::fclose);  // e: O_CLOEXEC
  if (!file) {
    if (errno == ENOENT) return out;  // cold start
    out.error = "open " + path + ": " + std::strerror(errno);
    return out;
  }
  out.exists = true;
  struct stat st {};
  if (::fstat(::fileno(file.get()), &st) != 0) {
    out.error = "stat " + path + ": " + std::strerror(errno);
    return out;
  }
  // The size bounds every length field before anything is allocated for
  // it: a corrupt length past the end is a tear, not a huge buffer.
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  std::setvbuf(file.get(), nullptr, _IOFBF, 1 << 16);
  // One payload buffer, grown only to the largest frame.
  Bytes buf;
  auto read = [&](size_t n) {
    if (buf.size() < n) buf.resize(n);
    return std::fread(buf.data(), 1, n, file.get());
  };
  auto read_failed = [&] {
    if (!std::ferror(file.get())) return false;
    out.error = "read " + path + ": " + std::strerror(errno);
    return true;
  };

  size_t got = read(kHeaderSize);
  if (got < kHeaderSize) {
    if (read_failed()) return out;
    // A header torn mid-write: nothing recoverable, rewrite from scratch.
    out.torn = got > 0;
    out.valid_bytes = 0;
    return out;
  }
  if (std::memcmp(buf.data(), kMagic, 4) != 0) {
    out.error = path + ": not a record file (bad magic)";
    return out;
  }
  uint16_t version = static_cast<uint16_t>(buf[4] << 8 | buf[5]);
  uint16_t tag = static_cast<uint16_t>(buf[6] << 8 | buf[7]);
  if (version != kVersion) {
    out.error = path + ": unsupported record-file version " +
                std::to_string(version);
    return out;
  }
  if (app_tag != 0 && tag != app_tag) {
    out.error = path + ": app tag " + std::to_string(tag) +
                " != expected " + std::to_string(app_tag);
    return out;
  }

  uint64_t pos = kHeaderSize;
  out.valid_bytes = pos;
  for (;;) {
    uint8_t frame[kFrameHeader];
    got = std::fread(frame, 1, kFrameHeader, file.get());
    if (got < kFrameHeader) {
      if (read_failed()) return out;
      out.torn = got > 0;  // a clean end falls on a frame boundary
      break;
    }
    uint32_t len = read_be32(frame);
    uint32_t want_crc = read_be32(frame + 4);
    if (len > kMaxPayload) {
      // An impossible length is corruption, not a tear: the writer never
      // frames payloads this large.
      out.corrupt = true;
      break;
    }
    if (pos + kFrameHeader + len > file_size || read(len) < len) {
      if (read_failed()) return out;
      out.torn = true;
      break;
    }
    std::span<const uint8_t> payload(buf.data(), len);
    if (crc32(payload) != want_crc) {
      out.corrupt = true;
      break;
    }
    visit(payload);
    pos += kFrameHeader + len;
    out.valid_bytes = pos;
  }
  return out;
}

RecordWriter::~RecordWriter() { close(); }

bool RecordWriter::open(const std::string& path, uint16_t app_tag,
                        int64_t valid_bytes) {
  close();
  dead_ = false;
  error_.clear();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    error_ = "open " + path + ": " + std::strerror(errno);
    return false;
  }
  off_t end = ::lseek(fd_, 0, SEEK_END);
  bool fresh = end < static_cast<off_t>(kHeaderSize) || valid_bytes == 0;
  if (fresh) {
    if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) != 0) {
      error_ = "truncate " + path + ": " + std::strerror(errno);
      close();
      return false;
    }
    uint8_t header[kHeaderSize];
    std::memcpy(header, kMagic, 4);
    header[4] = static_cast<uint8_t>(kVersion >> 8);
    header[5] = static_cast<uint8_t>(kVersion);
    header[6] = static_cast<uint8_t>(app_tag >> 8);
    header[7] = static_cast<uint8_t>(app_tag);
    if (!write_all(header, sizeof header)) return false;
    return true;
  }
  if (valid_bytes >= 0 && valid_bytes < end) {
    // Discard the torn tail a prior scan found; nothing before it moves.
    if (::ftruncate(fd_, valid_bytes) != 0) {
      error_ = "truncate " + path + ": " + std::strerror(errno);
      close();
      return false;
    }
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    error_ = "seek " + path + ": " + std::strerror(errno);
    close();
    return false;
  }
  return true;
}

bool RecordWriter::append(std::span<const uint8_t> payload) {
  if (fd_ < 0 || dead_) return false;
  if (payload.size() > kMaxPayload) {
    error_ = "payload exceeds frame cap";
    dead_ = true;
    return false;
  }
  Bytes frame;
  append_frame(frame, payload);

  size_t len = frame.size();
  if (fault_budget_ >= 0 && static_cast<int64_t>(len) > fault_budget_) {
    // Simulated crash mid-frame: emit only the bytes the budget covers,
    // exactly as a process killed inside write(2) would have.
    size_t partial = static_cast<size_t>(fault_budget_);
    if (partial > 0) write_all(frame.data(), partial);
    fault_budget_ = 0;
    dead_ = true;
    if (on_fault_) on_fault_();
    return false;
  }
  if (!write_all(frame.data(), len)) return false;
  if (fault_budget_ >= 0) fault_budget_ -= static_cast<int64_t>(len);
  return true;
}

bool RecordWriter::sync() {
  if (fd_ < 0 || dead_) return false;
  if (::fsync(fd_) != 0) {
    error_ = std::string("fsync: ") + std::strerror(errno);
    return false;
  }
  return true;
}

void RecordWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void RecordWriter::set_fault_budget(int64_t budget,
                                    std::function<void()> on_fault) {
  fault_budget_ = budget;
  on_fault_ = std::move(on_fault);
}

bool RecordWriter::write_all(const uint8_t* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::write(fd_, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      error_ = std::string("write: ") + std::strerror(errno);
      dead_ = true;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace sm::common
