#ifndef SMDB_OBS_HISTOGRAM_H_
#define SMDB_OBS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"

namespace smdb {

/// Mergeable log-bucketed histogram (HdrHistogram-style fixed layout).
///
/// The bucket layout is a pure function of the value — never of the insert
/// order, the thread that recorded, or the histogram's history — so per-node
/// or per-thread histograms merge by bucket-wise addition: any merge order
/// (and any work partitioning) yields bit-identical counts and therefore
/// bit-identical percentiles. That is the property the latency observatory
/// leans on for its stream-count-invariance guarantee.
///
/// Layout: values below kSubBuckets (128) are exact (unit-width buckets);
/// above that, each power-of-two range splits into kSubBuckets/2 buckets,
/// giving a worst-case relative resolution of 1/64 (~1.6%). The full
/// uint64_t range is representable; storage is one flat count array
/// (~30 KB), allocated lazily on first Record so an empty histogram costs a
/// pointer.
class Histogram {
 public:
  static constexpr uint32_t kSubBucketBits = 7;
  static constexpr uint32_t kSubBuckets = 1u << kSubBucketBits;       // 128
  static constexpr uint32_t kSubBucketHalf = kSubBuckets / 2;         // 64
  /// Power-of-two ranges beyond the first exact bucket: values up to 2^63.
  static constexpr uint32_t kBucketRanges = 64 - kSubBucketBits;      // 57
  static constexpr size_t kNumCounts =
      kSubBuckets + size_t{kBucketRanges} * kSubBucketHalf;           // 3776

  /// Index of the count bucket holding `value`.
  static size_t CountsIndex(uint64_t value);
  /// Smallest value mapping to the bucket at `index`.
  static uint64_t LowestEquivalent(size_t index);
  /// Largest value mapping to the bucket at `index` (the deterministic
  /// representative reported by percentiles).
  static uint64_t HighestEquivalent(size_t index);

  void Record(uint64_t value) { RecordN(value, 1); }
  void RecordN(uint64_t value, uint64_t count);

  /// Bucket-wise addition; commutative and associative by construction.
  void Merge(const Histogram& other);

  void Reset() { *this = Histogram(); }

  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Exact tracked extremes and total (not bucket-quantised).
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  uint64_t sum() const { return sum_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : double(sum_) / double(count_);
  }

  /// Value at percentile `pct` (0..100): the highest-equivalent value of the
  /// first bucket whose cumulative count reaches ceil(pct/100 * count).
  /// Deterministic for a given bucket state; 0 on an empty histogram.
  uint64_t ValueAtPercentile(double pct) const;
  uint64_t P50() const { return ValueAtPercentile(50.0); }
  uint64_t P90() const { return ValueAtPercentile(90.0); }
  uint64_t P99() const { return ValueAtPercentile(99.0); }
  uint64_t P999() const { return ValueAtPercentile(99.9); }

  /// Total count over buckets entirely inside [lo, hi] (inclusive). Exact
  /// whenever lo/hi fall on bucket boundaries — in particular for any
  /// bounds below kSubBuckets, where buckets are unit-width.
  uint64_t CountInRange(uint64_t lo, uint64_t hi) const;

  /// Visits every non-empty bucket in ascending value order as
  /// (lowest_equivalent, highest_equivalent, count).
  void ForEachNonZero(
      const std::function<void(uint64_t, uint64_t, uint64_t)>& fn) const;

  /// Compact summary object: count, min, max, mean, sum, p50/p90/p99/p99.9.
  json::Value SummaryJson() const;
  /// Summary plus the non-empty buckets as parallel columns
  /// ("bucket_lo"/"bucket_hi"/"bucket_count").
  json::Value ToJson() const;

  friend bool operator==(const Histogram& a, const Histogram& b) {
    return a.count_ == b.count_ && a.sum_ == b.sum_ && a.min_ == b.min_ &&
           a.max_ == b.max_ && a.counts_ == b.counts_;
  }

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ULL;
  uint64_t max_ = 0;
  std::vector<uint64_t> counts_;  ///< empty until first Record
};

/// Adaptive sim-duration formatting shared by the benches and the CLI
/// report ("875ns", "12.34us", "5.67ms", "1.20s").
std::string FormatSimTime(uint64_t ns);
/// Fixed-unit variants (the historical bench_util formats).
std::string FormatSimTimeUs(uint64_t ns);
std::string FormatSimTimeMs(uint64_t ns);

}  // namespace smdb

#endif  // SMDB_OBS_HISTOGRAM_H_
