// Streaming writer of the binary trace format (see format.h).
//
// append() encodes one record into the pending frame buffer; a frame is
// flushed to disk whenever the payload reaches kFrameBytes, and finish()
// (or destruction) writes the final frame, the end marker and the
// record-count trailer. Callers must append records in canonical key order
// (trace::record_key_less) — the collector's merge guarantees it; the
// writer only chains the time deltas.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/format.h"

namespace ftgcs::trace {

class TraceWriter {
 public:
  /// Opens `path` for writing and emits the header. Throws
  /// std::runtime_error if the file cannot be created.
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const Record& record);

  /// Flushes the pending frame, writes end marker + trailer and closes
  /// the file. Idempotent. Throws std::runtime_error naming the path on a
  /// short write or a failed flush or close.
  void finish();

  std::uint64_t records() const { return records_; }

  /// Absolute file offset where the NEXT appended record's first byte will
  /// land. Exact even while the frame is still buffered: frame boundaries
  /// depend only on the record stream, so the pending frame's start offset
  /// is already determined. This is the byte half of a replay cursor.
  std::uint64_t next_record_offset() const {
    return kMagicBytes + framed_bytes_ + kFrameHeaderBytes + pending_.size();
  }

  /// Total file size once finish() has run.
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  static constexpr std::size_t kFrameHeaderBytes = 8;  // u32 len + u32 count

  void flush_frame();
  void put_u32(std::uint32_t v);

  std::string path_;  ///< named in every error message
  std::FILE* file_ = nullptr;
  std::vector<std::uint8_t> pending_;  ///< current frame payload
  std::uint32_t pending_count_ = 0;    ///< records in the pending frame
  std::uint64_t prev_time_bits_ = 0;   ///< XOR-delta chain state
  std::uint64_t records_ = 0;
  std::uint64_t framed_bytes_ = 0;  ///< flushed frames incl. their headers
  std::uint64_t bytes_written_ = 0;
  bool finished_ = false;
};

}  // namespace ftgcs::trace
