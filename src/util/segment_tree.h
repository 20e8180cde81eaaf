// Min segment tree with argmin queries and point updates.
//
// This is the data structure §IV-B of the paper names for implementing the
// Greedy peel (Algorithm 1) in O((m + n) log n): it stores the *current*
// weighted degree of every still-present vertex and repeatedly extracts the
// vertex of minimum degree while supporting degree updates for the removed
// vertex's neighbors. Deleted positions are set to +infinity.
//
// It now backs the reference peel (densest/peel.cc) only: the library's
// DCSGreedy peels with an indexed heap (GreedyPeelHeap in core/kernels.h)
// whose (degree, id) order reproduces this tree's smallest-index argmin.

#ifndef DCS_UTIL_SEGMENT_TREE_H_
#define DCS_UTIL_SEGMENT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace dcs {

/// \brief Segment tree over a fixed-size array of doubles supporting
/// point assignment / point addition and global / range argmin.
class MinSegmentTree {
 public:
  /// Index + value of a minimum element. For an empty/all-deleted tree the
  /// index is kNoIndex and the value +infinity.
  struct MinEntry {
    size_t index;
    double value;
  };

  static constexpr size_t kNoIndex = static_cast<size_t>(-1);
  static constexpr double kDeleted = std::numeric_limits<double>::infinity();

  /// Builds the tree over `values` (O(n)).
  explicit MinSegmentTree(const std::vector<double>& values);

  /// Builds the tree over `size` copies of `fill`.
  explicit MinSegmentTree(size_t size, double fill = 0.0);

  size_t size() const { return size_; }

  /// Current value at `i` (kDeleted if the position was erased).
  double Get(size_t i) const;

  /// value[i] = v. O(log n).
  void Assign(size_t i, double v);

  /// value[i] += delta. No-op on deleted positions. O(log n).
  void Add(size_t i, double delta);

  /// Marks position i as deleted (value becomes +infinity). O(log n).
  void Erase(size_t i);

  bool IsErased(size_t i) const;

  /// Global minimum; ties broken towards the smallest index.
  MinEntry Min() const;

  /// Minimum over [lo, hi); returns kNoIndex when the range is empty or
  /// fully deleted.
  MinEntry RangeMin(size_t lo, size_t hi) const;

 private:
  void Build(const std::vector<double>& values);
  void Pull(size_t node);

  size_t size_ = 0;
  size_t base_ = 1;  // number of leaves (power of two >= size_)
  // tree_[k] = min over the leaves below k; leaf i lives at base_ + i.
  std::vector<double> tree_;
  // arg_[k] = leaf index achieving tree_[k] (smallest such index).
  std::vector<size_t> arg_;
};

}  // namespace dcs

#endif  // DCS_UTIL_SEGMENT_TREE_H_
