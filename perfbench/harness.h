#ifndef COT_PERFBENCH_HARNESS_H_
#define COT_PERFBENCH_HARNESS_H_

// Arithmetic of the benchmark harness, kept free of the library so the unit
// tests in tests/harness_test.cc can pin it down on hand-made inputs:
// percentile selection, the key-encoding update values, and the self-time
// subtraction that turns raw steady_clock spans into layer costs.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace cot::perfbench {

/// One percentile of a sample set, with the counts that say how much to
/// trust it: `beyond` samples are strictly above the selected rank.
struct PercentileResult {
  double value = 0.0;
  size_t count = 0;
  size_t beyond = 0;
};

/// Nearest-rank percentile `p` (in (0, 100]) of `samples`: the value at
/// rank ceil(p/100 * n) of the sorted set. Reorders `samples` (selection,
/// not a full sort). An empty set yields value 0 and count 0.
template <typename T>
PercentileResult Percentile(std::vector<T>& samples, double p) {
  PercentileResult r;
  r.count = samples.size();
  if (samples.empty()) return r;
  // Computed in integer parts-per-million so 99.9% of 1000 is exactly 999.
  const uint64_t ppm = static_cast<uint64_t>(p * 10000.0 + 0.5);
  uint64_t rank = (ppm * r.count + 999999) / 1000000;
  rank = std::clamp<uint64_t>(rank, 1, r.count);
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  r.value = static_cast<double>(*nth);
  r.beyond = r.count - rank;
  return r;
}

// --- update values that encode their key ----------------------------------
//
// Keys fit in 20 bits (the key space is 1M). A written value carries a tag
// bit, a per-client sequence number and the key, so a read can be checked
// in O(1): it must be the key's initial storage value or decode to the key.

inline constexpr uint64_t kKeyBits = 20;
inline constexpr uint64_t kKeyMask = (uint64_t{1} << kKeyBits) - 1;
inline constexpr uint64_t kWrittenTag = uint64_t{1} << 63;

/// The value the benchmark writes for `key` as its `seq`-th update.
inline uint64_t EncodeValue(uint64_t key, uint64_t seq) {
  return kWrittenTag | ((seq << kKeyBits) & ~kWrittenTag) | (key & kKeyMask);
}

/// The key a benchmark-written value encodes; nullopt if `value` was not
/// written by `EncodeValue`.
inline std::optional<uint64_t> DecodeKey(uint64_t value) {
  if ((value & kWrittenTag) == 0) return std::nullopt;
  return value & kKeyMask;
}

/// True iff `value` is a correct read of `key`: its initial value
/// `initial` or a value written for that same key.
inline bool ValueIsFor(uint64_t key, uint64_t value, uint64_t initial) {
  if (value == initial) return true;
  std::optional<uint64_t> decoded = DecodeKey(value);
  return decoded.has_value() && *decoded == key;
}

// --- self time --------------------------------------------------------------

/// Corrects one raw span for the clock reads it contains. A span read as
/// t1 - t0 holds one clock read's cost of its own, and each of `nested`
/// child spans timed inside it adds two more. `clock_ns` is the measured
/// cost of one steady_clock read. Never negative.
inline double SpanNs(double raw_ns, uint64_t nested, double clock_ns) {
  double ns = raw_ns - clock_ns * (1.0 + 2.0 * static_cast<double>(nested));
  return ns > 0.0 ? ns : 0.0;
}

/// Sum of `spans` raw spans totalling `raw_total_ns`, each holding one
/// clock read's cost of its own (no nested spans). Never negative.
inline double SpansNs(double raw_total_ns, uint64_t spans, double clock_ns) {
  double ns = raw_total_ns - clock_ns * static_cast<double>(spans);
  return ns > 0.0 ? ns : 0.0;
}

/// A parent's self time: its span minus the time its children account for.
/// Signed on purpose: a negative residue says the children were priced
/// above what the parent actually spent.
inline double SelfNs(double parent_ns, const std::vector<double>& child_ns) {
  double self = parent_ns;
  for (double c : child_ns) self -= c;
  return self;
}

}  // namespace cot::perfbench

#endif  // COT_PERFBENCH_HARNESS_H_
