#include "trace/collector.h"

#include <algorithm>
#include <utility>

namespace ftgcs::trace {

/// Lock-free per-shard capture buffer: only its owning worker thread
/// appends, and the collector drains it only while the workers are parked.
class TraceCollector::ShardBuffer final : public TraceSink {
 public:
  void on_delivery(sim::Time at, const sim::EventPayload& payload) override {
    Record record;
    record.at = at;
    record.sender = payload.a;
    record.dest = payload.c;
    record.kind = static_cast<std::uint8_t>(payload.d);
    record.level = kind_has_level(record.kind) ? payload.b : 0;
    record.value = kind_has_value(record.kind) ? payload.x : 0.0;
    records_.push_back(record);
  }

  void on_delivery_batch(const sim::BatchedEvent* events,
                         std::size_t n) override {
    records_.reserve(records_.size() + n);
    for (std::size_t i = 0; i < n; ++i) {
      on_delivery(events[i].at, events[i].payload);
    }
  }

  std::vector<Record>& records() { return records_; }

 private:
  std::vector<Record> records_;
};

TraceCollector::TraceCollector(const std::string& path) : writer_(path) {}

TraceCollector::~TraceCollector() = default;

TraceSink* TraceCollector::shard_sink(int shard) {
  while (static_cast<int>(shards_.size()) <= shard) {
    shards_.push_back(std::make_unique<ShardBuffer>());
  }
  return shards_[static_cast<std::size_t>(shard)].get();
}

void TraceCollector::commit() {
  if (finished_) return;
  merge_scratch_.clear();
  for (auto& shard : shards_) {
    auto& pending = shard->records();
    merge_scratch_.insert(merge_scratch_.end(), pending.begin(),
                          pending.end());
    pending.clear();
  }
  // The full-key sort canonicalizes the stream so the bytes depend on
  // neither the shard interleaving nor the capture order within a probe
  // window: each shard buffer is in its own shard's fire order, and the
  // buffers are concatenated shard by shard. Both collapse to the same
  // bytes under the canonical (time, sender, dest, kind, level, value)
  // key; key ties are whole-record ties (see trace/format.h).
  std::sort(merge_scratch_.begin(), merge_scratch_.end(), record_key_less);
  for (const Record& record : merge_scratch_) writer_.append(record);
}

void TraceCollector::finish() {
  if (finished_) return;
  commit();
  finished_ = true;
  writer_.finish();
}

}  // namespace ftgcs::trace
