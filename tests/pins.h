// Byte pins for the engine-identity checks.
//
// The simulator once had two queue engines — a 4-ary heap (the ordered
// reference) and the calendar/ladder queue — and many system tests ran a
// scenario on both and compared every byte. The heap is gone; each of
// those comparisons now holds the ladder run against a fingerprint that
// was recorded from the heap engine's run of the same scenario, so the
// ordered engine's output stays the reference. The fingerprints are
// FNV-1a hashes over trace/series file bytes or over a canonical text
// rendering of metric vectors (every double printed with %.17g, which
// round-trips exactly).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "exp/exp.h"

namespace ftgcs::pins {

inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Exact text form of a double (%.17g round-trips every finite value).
inline std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// One "name=value" line per metric, in schema order.
inline std::string metrics_text(const exp::RunResult& result) {
  std::string text;
  for (const auto& [name, value] : result.metrics) {
    text += name;
    text += '=';
    text += exact(value);
    text += '\n';
  }
  return text;
}

/// Every row of a sweep: its grid point, then its metrics.
inline std::string sweep_text(const exp::SweepResult& result) {
  std::string text;
  for (const exp::RunResult& row : result.rows) {
    for (const auto& [axis, value] : row.point) {
      text += axis;
      text += ':';
      text += value;
      text += ' ';
    }
    text += '\n';
    text += metrics_text(row);
  }
  return text;
}

}  // namespace ftgcs::pins
