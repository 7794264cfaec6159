// The ONLY wall-clock reads in src/obs/ live in this translation unit —
// the determinism lint bans clock reads everywhere else in the directory
// (the deterministic series must be a pure function of scenario + seed).
#include "obs/phase_profiler.h"

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"
#include "support/assert.h"

namespace ftgcs::obs {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

PhaseProfiler::PhaseProfiler(const std::string& path) : path_(path) {
  FTGCS_EXPECTS(!path_.empty());
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("obs: cannot create '" + path_ + "'");
  }
  line_ = "{\"schema\":\"ftgcs-profile-v2\",\"plane\":\"nondeterministic\"}\n";
  try {
    write_row(file_, line_, path_);
  } catch (...) {
    std::fclose(file_);  // the dtor does not run for a throwing ctor
    throw;
  }
}

PhaseProfiler::~PhaseProfiler() {
  // Unchecked on purpose: a destructor must not throw, and a caller that
  // wants the rows and the close checked calls finish() first.
  if (file_ != nullptr) std::fclose(file_);
}

void PhaseProfiler::bind_shards(int shards) {
  FTGCS_EXPECTS(shards >= 0);
  slots_.assign(static_cast<std::size_t>(shards), ShardSlot{});
}

void PhaseProfiler::phase_begin(int shard, Phase phase) {
  slots_[static_cast<std::size_t>(shard)]
      .start_ns[static_cast<int>(phase)] = now_ns();
}

void PhaseProfiler::phase_end(int shard, Phase phase) {
  ShardSlot& slot = slots_[static_cast<std::size_t>(shard)];
  const int p = static_cast<int>(phase);
  slot.total_ns[p] += now_ns() - slot.start_ns[p];
}

void PhaseProfiler::count_window(int shard) {
  ++slots_[static_cast<std::size_t>(shard)].windows;
}

void PhaseProfiler::span_begin(const char* name) {
  for (int i = 0; i < num_spans_; ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      spans_[i].start_ns = now_ns();
      return;
    }
  }
  FTGCS_EXPECTS(num_spans_ < kMaxSpans);
  spans_[num_spans_].name = name;
  spans_[num_spans_].start_ns = now_ns();
  ++num_spans_;
}

void PhaseProfiler::span_end(const char* name) {
  for (int i = 0; i < num_spans_; ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      spans_[i].total_ns += now_ns() - spans_[i].start_ns;
      return;
    }
  }
  FTGCS_EXPECTS(!"span_end without span_begin");
}

void PhaseProfiler::probe_diag(double at,
                               const sim::EventQueue::TierStats& tiers,
                               const std::vector<ShardWindowDiag>& shards) {
  if (file_ == nullptr) return;
  line_.clear();
  line_ += "{\"section\":\"diag\",\"t\":";
  append_json_double(line_, at);
  sim::EventQueue::TierStats::each_field(
      [&](const char* name, auto field, support::Merge) {
        line_ += ",\"";
        line_ += name;
        line_ += "\":";
        append_json_u64(line_, tiers.*field);
      });
  line_ += ",\"entry_bytes\":";
  append_json_u64(line_, tiers.entry_bytes());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    char key[48];
    std::snprintf(key, sizeof(key), ",\"s%zu_routed\":", s);
    line_ += key;
    append_json_u64(line_, shards[s].routed);
    std::snprintf(key, sizeof(key), ",\"s%zu_mailbox_peak\":", s);
    line_ += key;
    append_json_u64(line_, shards[s].mailbox_peak);
    std::snprintf(key, sizeof(key), ",\"s%zu_fired\":", s);
    line_ += key;
    append_json_u64(line_, shards[s].fired);
  }
  line_ += "}\n";
  write_row(file_, line_, path_);
}

double PhaseProfiler::imbalance() const {
  std::uint64_t max_run = 0;
  std::uint64_t sum_run = 0;
  for (const ShardSlot& slot : slots_) {
    const std::uint64_t run = slot.total_ns[static_cast<int>(Phase::kRun)];
    if (run > max_run) max_run = run;
    sum_run += run;
  }
  if (sum_run == 0) return 0.0;
  const double mean =
      static_cast<double>(sum_run) / static_cast<double>(slots_.size());
  return static_cast<double>(max_run) / mean;
}

PhaseProfiler::PhaseTotals PhaseProfiler::totals() const {
  PhaseTotals t;
  for (const ShardSlot& slot : slots_) {
    t.merge_ms += to_ms(slot.total_ns[static_cast<int>(Phase::kMerge)]);
    t.run_ms += to_ms(slot.total_ns[static_cast<int>(Phase::kRun)]);
    t.collect_ms += to_ms(slot.total_ns[static_cast<int>(Phase::kCollect)]);
  }
  return t;
}

void PhaseProfiler::finish() {
  if (file_ == nullptr) return;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const ShardSlot& slot = slots_[s];
    line_.clear();
    line_ += "{\"section\":\"phase\",\"shard\":";
    append_json_u64(line_, s);
    line_ += ",\"merge_ms\":";
    append_json_double(line_,
                       to_ms(slot.total_ns[static_cast<int>(Phase::kMerge)]));
    line_ += ",\"run_ms\":";
    append_json_double(line_,
                       to_ms(slot.total_ns[static_cast<int>(Phase::kRun)]));
    line_ += ",\"wait_ms\":";
    append_json_double(
        line_, to_ms(slot.total_ns[static_cast<int>(Phase::kCollect)]));
    line_ += ",\"windows\":";
    append_json_u64(line_, slot.windows);
    line_ += "}\n";
    write_row(file_, line_, path_);
  }
  if (!slots_.empty()) {
    const PhaseTotals t = totals();
    line_.clear();
    line_ += "{\"section\":\"summary\",\"shards\":";
    append_json_u64(line_, slots_.size());
    line_ += ",\"merge_ms\":";
    append_json_double(line_, t.merge_ms);
    line_ += ",\"run_ms\":";
    append_json_double(line_, t.run_ms);
    line_ += ",\"wait_ms\":";
    append_json_double(line_, t.collect_ms);
    line_ += ",\"imbalance\":";
    append_json_double(line_, imbalance());
    line_ += "}\n";
    write_row(file_, line_, path_);
  }
  for (int i = 0; i < num_spans_; ++i) {
    line_.clear();
    line_ += "{\"section\":\"span\",\"name\":\"";
    line_ += spans_[i].name;
    line_ += "\",\"ms\":";
    append_json_double(line_, to_ms(spans_[i].total_ns));
    line_ += "}\n";
    write_row(file_, line_, path_);
  }
  std::FILE* file = file_;
  file_ = nullptr;
  close_file(file, path_);
}

}  // namespace ftgcs::obs
