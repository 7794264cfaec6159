#include "trace/writer.h"

#include <stdexcept>

namespace ftgcs::trace {

namespace {

[[noreturn]] void fail(const char* what, const std::string& path) {
  throw std::runtime_error(std::string("trace: ") + what + " '" + path + "'");
}

}  // namespace

void TraceWriter::put_u32(std::uint32_t v) {
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  if (std::fwrite(bytes, 1, sizeof bytes, file_) != sizeof bytes) {
    fail("short write to", path_);
  }
}

TraceWriter::TraceWriter(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) fail("cannot create", path_);
  if (std::fwrite(kMagic, 1, kMagicBytes, file_) != kMagicBytes) {
    std::fclose(file_);
    file_ = nullptr;
    fail("short write to", path_);
  }
  bytes_written_ = kMagicBytes;
  pending_.reserve(kFrameBytes + 64);
}

TraceWriter::~TraceWriter() {
  try {
    finish();
  } catch (...) {
    // Destruction must not throw; a truncated trace fails loudly at read
    // time instead (missing end marker / trailer mismatch).
  }
  if (file_ != nullptr) std::fclose(file_);
}

void TraceWriter::append(const Record& record) {
  pending_.push_back(record.kind);
  append_varint(pending_, zigzag(record.sender));
  append_varint(pending_, zigzag(record.dest));
  const std::uint64_t bits = time_bits(record.at);
  append_varint(pending_, bits ^ prev_time_bits_);
  prev_time_bits_ = bits;
  if (kind_has_level(record.kind)) {
    append_varint(pending_, zigzag(record.level));
  }
  if (kind_has_value(record.kind)) {
    const std::uint64_t value = time_bits(record.value);
    for (int shift = 0; shift < 64; shift += 8) {
      pending_.push_back(static_cast<std::uint8_t>(value >> shift));
    }
  }
  ++pending_count_;
  ++records_;
  if (pending_.size() >= kFrameBytes) flush_frame();
}

void TraceWriter::flush_frame() {
  if (pending_.empty()) return;
  put_u32(static_cast<std::uint32_t>(pending_.size()));
  put_u32(pending_count_);
  if (std::fwrite(pending_.data(), 1, pending_.size(), file_) !=
      pending_.size()) {
    fail("short write to", path_);
  }
  framed_bytes_ += kFrameHeaderBytes + pending_.size();
  bytes_written_ += kFrameHeaderBytes + pending_.size();
  pending_.clear();
  pending_count_ = 0;
}

void TraceWriter::finish() {
  if (finished_ || file_ == nullptr) return;
  flush_frame();
  put_u32(0);  // end marker: empty frame
  put_u32(0);
  put_u32(static_cast<std::uint32_t>(records_));  // u64 trailer, low half
  put_u32(static_cast<std::uint32_t>(records_ >> 32));
  bytes_written_ += 16;
  if (std::fflush(file_) != 0) fail("flush failed for", path_);
  finished_ = true;
  // Closed here, not in the dtor, so a failed close is reported too.
  std::FILE* file = file_;
  file_ = nullptr;
  if (std::fclose(file) != 0) fail("close failed for", path_);
}

}  // namespace ftgcs::trace
