#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A latency histogram of fixed size: 128 linear sub-buckets per power of two
// (each under 0.8% wide). Recording samples does not grow the process with
// throughput, so the benchmark's own bookkeeping stays out of peak_rss_mb.
// Percentiles interpolate by rank inside their bucket.
class Histogram {
 public:
  Histogram() : counts_(kBuckets) {}

  void Record(uint64_t v) {
    counts_[Bucket(v)]++;
    n_++;
  }
  void Reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    n_ = 0;
  }
  uint64_t count() const { return n_; }

  // The value of the sample at 0-based rank `r` (r < count()).
  double AtRank(uint64_t r) const {
    uint64_t below = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      if (r < below + counts_[b]) {
        const double frac = (static_cast<double>(r - below) + 0.5) / static_cast<double>(counts_[b]);
        return static_cast<double>(Low(b)) + frac * static_cast<double>(Width(b));
      }
      below += counts_[b];
    }
    return 0;
  }
  double Median() const {
    if (n_ == 0) {
      return 0;
    }
    return n_ % 2 == 1 ? AtRank(n_ / 2) : (AtRank(n_ / 2 - 1) + AtRank(n_ / 2)) / 2;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static size_t Bucket(uint64_t v) {
    if (v < kSub) {
      return v;
    }
    const int octave = 63 - __builtin_clzll(v);
    const uint64_t sub = (v >> (octave - kSubBits)) & (kSub - 1);
    return (static_cast<size_t>(octave - kSubBits + 1) << kSubBits) + sub;
  }
  static uint64_t Low(size_t b) {
    if (b < kSub) {
      return b;
    }
    const int octave = static_cast<int>(b >> kSubBits) + kSubBits - 1;
    return (uint64_t{1} << octave) + ((b & (kSub - 1)) << (octave - kSubBits));
  }
  static uint64_t Width(size_t b) {
    return b < kSub ? 1 : uint64_t{1} << ((b >> kSubBits) - 1);
  }

  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
