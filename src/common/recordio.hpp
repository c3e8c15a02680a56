// Crash-safe append-only record files: the durable substrate under the
// campaign checkpoint layer.
//
// A record file is a fixed 8-byte header followed by length-prefixed,
// CRC-guarded frames (the same frames carry trial records over the
// process-shard result pipes):
//
//   "SMRF" magic | u16 version | u16 app tag
//   [ u32 payload_len | u32 crc32(payload) | payload bytes ]*
//
// The format is designed around one failure model: the writing process
// can die (kill -9, power loss) at ANY byte boundary, including mid-
// frame. Recovery is a single forward scan that stops at the first
// frame that is short (torn tail) or whose checksum does not match
// (corruption): everything before is a clean prefix of whole records,
// everything after is discarded and re-produced by the writer's owner.
// A torn or corrupted tail can therefore never be silently merged as a
// wrong record — it is either a valid record or it is not read at all.
//
// Writers only ever append; nothing is rewritten in place, so a clean
// prefix stays clean forever. For fault-injection tests the writer
// carries a byte-budget hook that truncates an append mid-frame and
// then reports the fault, simulating a crash at an arbitrary offset
// inside a checkpoint write.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "common/bytes.hpp"

namespace sm::common {

/// CRC-32 (IEEE 802.3, reflected) over `data`. `seed` chains partial
/// computations: crc32(b, crc32(a)) == crc32(a+b).
uint32_t crc32(std::span<const uint8_t> data, uint32_t seed = 0);
inline uint32_t crc32(std::string_view s, uint32_t seed = 0) {
  return crc32(std::span<const uint8_t>(
                   reinterpret_cast<const uint8_t*>(s.data()), s.size()),
               seed);
}

/// Frame header: u32 payload length | u32 crc32(payload), big-endian.
inline constexpr size_t kFrameHeader = 8;
/// Cap on one payload: a corrupted length field must not turn into a
/// multi-gigabyte allocation. Readers refuse a longer frame as Oversize.
inline constexpr uint32_t kMaxPayload = 1u << 28;

/// Appends one frame (header, then `payload`) to `out`. `payload` must
/// not point into `out`.
void append_frame(Bytes& out, std::span<const uint8_t> payload);

/// What next_frame found at the front of a buffer.
struct Frame {
  enum Status {
    Whole,     // a complete frame whose payload passed its checksum
    Short,     // the buffer ends inside the frame: wait for more bytes
    Oversize,  // the length field exceeds kMaxPayload
    Corrupt,   // a complete frame whose payload fails its checksum
  };
  Status status = Short;
  std::span<const uint8_t> payload;  // Whole only; points into the buffer
  size_t size = 0;                   // Whole only: header + payload bytes
};

/// Parses the frame at the front of `buf`, which may hold more frames
/// after it. Oversize is known from the header alone, before the payload
/// arrives.
Frame next_frame(std::span<const uint8_t> buf);

/// Result of scanning a record file's clean prefix.
struct RecordScan {
  /// Length in bytes of the clean prefix (header + whole frames). A
  /// recovering writer truncates/overwrites from here.
  uint64_t valid_bytes = 0;
  bool exists = false;   // file was present (absent is a normal cold start)
  bool torn = false;     // file ended inside a frame (crash mid-write)
  bool corrupt = false;  // a fully-present frame failed its checksum
  /// Non-empty on structural failure (unreadable, bad magic/version/tag);
  /// valid_bytes is meaningless then.
  std::string error;
  bool ok() const { return error.empty(); }
};

/// Receives each whole, checksum-verified payload in file order. The
/// span points into the scan's payload buffer and dies when the call
/// returns. A visitor may throw; the scan then closes the file and
/// rethrows.
using RecordVisitor = std::function<void(std::span<const uint8_t>)>;

/// Scans `path`, verifying every frame, and hands each payload of the
/// clean prefix to `visit`. Frames stream through one payload buffer
/// that grows only to the largest frame, so a scan never holds the whole
/// file or a copy of its payloads. Missing file: ok(), exists=false.
/// `app_tag` must match the header's (0 accepts any tag).
RecordScan scan_records(const std::string& path, uint16_t app_tag,
                        const RecordVisitor& visit);

/// Append-only writer. open() on a fresh path writes the header; on an
/// existing file it truncates to `valid_bytes` (from a prior scan) first,
/// discarding any torn tail, then appends after the clean prefix.
class RecordWriter {
 public:
  RecordWriter() = default;
  ~RecordWriter();
  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  /// Opens for appending; `valid_bytes` < 0 means "trust the whole file"
  /// (only safe right after scan_records reported no tear). Returns
  /// false (and sets error()) on I/O failure.
  bool open(const std::string& path, uint16_t app_tag, int64_t valid_bytes);
  /// Frames and appends one payload, then flushes it to the OS. Returns
  /// false once the writer is dead (I/O error or exhausted fault budget).
  bool append(std::span<const uint8_t> payload);
  bool append(const Bytes& payload) {
    return append(std::span<const uint8_t>(payload.data(), payload.size()));
  }
  /// fsync(); durability barrier for supervisors that are about to report
  /// progress externally.
  bool sync();
  void close();

  bool is_open() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }

  /// Fault injection: allow only `budget` more body bytes (frames, not
  /// header) to reach the file; the append that crosses the line is cut
  /// mid-frame, `on_fault` fires (tests _exit() there to emulate kill -9
  /// mid-checkpoint-write), and the writer goes dead. Negative budget
  /// disables the hook.
  void set_fault_budget(int64_t budget, std::function<void()> on_fault = {});

 private:
  bool write_all(const uint8_t* data, size_t len);

  int fd_ = -1;
  bool dead_ = false;
  std::string error_;
  int64_t fault_budget_ = -1;
  std::function<void()> on_fault_;
};

}  // namespace sm::common
