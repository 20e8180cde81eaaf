#include "core/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "util/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DCS_KERNELS_X86 1
#include <immintrin.h>
#else
#define DCS_KERNELS_X86 0
#endif

namespace dcs {

namespace {

// ---------------------------------------------------------------------------
// Counters: plain thread-local blocks registered with a process-wide list.
// The hot kernels bump their own block with relaxed load+store (the owning
// thread is the only writer, so no RMW and no cache-line ping-pong);
// KernelCountersSnapshot sums live blocks plus the totals of exited threads.
// Registry is a leaked singleton so thread exit after main stays safe.
// ---------------------------------------------------------------------------

enum CounterIdx : int {
  kIdxDifferenceRows = 0,
  kIdxDiscretizeElements,
  kIdxAxpyElements,
  kIdxExtremesScans,
  kIdxSupportReductions,
  kIdxStagedLookups,
  kIdxAvx2Calls,
  kIdxScalarCalls,
  kNumCounterIdx,
};

struct CounterBlock {
  std::atomic<uint64_t> v[kNumCounterIdx] = {};
};

struct CounterRegistry {
  std::mutex mu;
  std::vector<const CounterBlock*> live;
  uint64_t retired[kNumCounterIdx] = {};
};

CounterRegistry& Registry() {
  static CounterRegistry* registry = new CounterRegistry;
  return *registry;
}

struct ThreadCounterBlock {
  CounterBlock block;
  ThreadCounterBlock() {
    CounterRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.live.push_back(&block);
  }
  ~ThreadCounterBlock() {
    CounterRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (int i = 0; i < kNumCounterIdx; ++i) {
      r.retired[i] += block.v[i].load(std::memory_order_relaxed);
    }
    std::erase(r.live, &block);
  }
};

inline CounterBlock& Tls() {
  thread_local ThreadCounterBlock tls;
  return tls.block;
}

inline void Bump(CounterBlock& b, CounterIdx idx, uint64_t delta) {
  std::atomic<uint64_t>& a = b.v[idx];
  a.store(a.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

std::atomic<int> g_forced_isa{-1};

bool DetectAvx2() {
#if DCS_KERNELS_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// True when this call should take the AVX2 variant; bumps the ISA call
// counter either way so telemetry shows which path actually served.
inline bool UseAvx2(CounterBlock& counters) {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  const bool avx2 = forced >= 0
                        ? forced == static_cast<int>(KernelIsa::kAvx2)
                        : KernelCpuHasAvx2();
  Bump(counters, avx2 ? kIdxAvx2Calls : kIdxScalarCalls, 1);
  return avx2;
}

}  // namespace

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool KernelCpuHasAvx2() {
  static const bool has = DetectAvx2();
  return has;
}

KernelIsa ActiveKernelIsa() {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<KernelIsa>(forced);
  return KernelCpuHasAvx2() ? KernelIsa::kAvx2 : KernelIsa::kScalar;
}

void ForceKernelIsa(KernelIsa isa) {
  DCS_CHECK(isa == KernelIsa::kScalar || KernelCpuHasAvx2())
      << "forced ISA not supported by this CPU";
  g_forced_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void ResetForcedKernelIsa() {
  g_forced_isa.store(-1, std::memory_order_relaxed);
}

KernelCounters KernelCountersSnapshot() {
  CounterRegistry& r = Registry();
  uint64_t sum[kNumCounterIdx];
  {
    std::lock_guard<std::mutex> lock(r.mu);
    std::memcpy(sum, r.retired, sizeof(sum));
    for (const CounterBlock* block : r.live) {
      for (int i = 0; i < kNumCounterIdx; ++i) {
        sum[i] += block->v[i].load(std::memory_order_relaxed);
      }
    }
  }
  KernelCounters out;
  out.difference_rows = sum[kIdxDifferenceRows];
  out.discretize_elements = sum[kIdxDiscretizeElements];
  out.axpy_elements = sum[kIdxAxpyElements];
  out.extremes_scans = sum[kIdxExtremesScans];
  out.support_reductions = sum[kIdxSupportReductions];
  out.staged_lookups = sum[kIdxStagedLookups];
  out.avx2_calls = sum[kIdxAvx2Calls];
  out.scalar_calls = sum[kIdxScalarCalls];
  return out;
}

void StageAdjacencySoa(const Graph& graph, std::vector<VertexId>* targets,
                       std::vector<double>* weights) {
  const size_t total = 2 * graph.NumEdges();
  targets->clear();
  weights->clear();
  targets->reserve(total);
  weights->reserve(total);
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (const Neighbor& nb : graph.NeighborsOf(u)) {
      targets->push_back(nb.to);
      weights->push_back(nb.weight);
    }
  }
}

// ---------------------------------------------------------------------------
// Discretize map
// ---------------------------------------------------------------------------

namespace {

void DiscretizeMapScalar(const double* in, double* out, size_t count,
                         const DiscretizeSpec& spec) {
  for (size_t i = 0; i < count; ++i) out[i] = spec.Map(in[i]);
}

#if DCS_KERNELS_X86
// Exact vector transliteration of DiscretizeSpec::Map: a blend chain whose
// later conditions are exactly the scalar branch priorities ({d >= strong}
// inside {d >= weak}, {d <= strong_neg} inside {d < 0}); NaN takes no branch
// in either form and maps to 0.
__attribute__((target("avx2"))) void DiscretizeMapAvx2(
    const double* in, double* out, size_t count, const DiscretizeSpec& spec) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sp = _mm256_set1_pd(spec.strong_pos);
  const __m256d wp = _mm256_set1_pd(spec.weak_pos);
  const __m256d sn = _mm256_set1_pd(spec.strong_neg);
  const __m256d l1 = _mm256_set1_pd(spec.level_one);
  const __m256d l2 = _mm256_set1_pd(spec.level_two);
  const __m256d nl1 = _mm256_set1_pd(-spec.level_one);
  const __m256d nl2 = _mm256_set1_pd(-spec.level_two);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d d = _mm256_loadu_pd(in + i);
    __m256d r = zero;
    r = _mm256_blendv_pd(r, nl1, _mm256_cmp_pd(d, zero, _CMP_LT_OQ));
    r = _mm256_blendv_pd(r, nl2, _mm256_cmp_pd(d, sn, _CMP_LE_OQ));
    r = _mm256_blendv_pd(r, l1, _mm256_cmp_pd(d, wp, _CMP_GE_OQ));
    r = _mm256_blendv_pd(r, l2, _mm256_cmp_pd(d, sp, _CMP_GE_OQ));
    _mm256_storeu_pd(out + i, r);
  }
  for (; i < count; ++i) out[i] = spec.Map(in[i]);
}
#endif  // DCS_KERNELS_X86

}  // namespace

void DiscretizeMapPacked(const double* in, double* out, size_t count,
                         const DiscretizeSpec& spec) {
  CounterBlock& counters = Tls();
  Bump(counters, kIdxDiscretizeElements, count);
#if DCS_KERNELS_X86
  if (UseAvx2(counters)) {
    DiscretizeMapAvx2(in, out, count, spec);
    return;
  }
#else
  UseAvx2(counters);
#endif
  DiscretizeMapScalar(in, out, count, spec);
}

// ---------------------------------------------------------------------------
// dx accumulation (SetX inner loop)
// ---------------------------------------------------------------------------

// The products are never fused (the TU is built with -ffp-contract=off) and
// the scatter adds run in row order, so dx comes out bit-identical however
// the caller shards its seeds. An AVX2 twin that vectorized the products and
// prefetched dx ran at 0.88-1.01x of this loop, so the scalar loop is the
// only path.
void AxpyScatter(const VertexId* targets, const double* weights, size_t count,
                 double delta, double* dx) {
  CounterBlock& counters = Tls();
  Bump(counters, kIdxAxpyElements, count);
  Bump(counters, kIdxScalarCalls, 1);
  for (size_t i = 0; i < count; ++i) {
    dx[targets[i]] += weights[i] * delta;
  }
}

// ---------------------------------------------------------------------------
// Gradient extremes scan (CD pair selection)
// ---------------------------------------------------------------------------

namespace {

bool ScanExtremesScalar(const VertexId* candidates, size_t count,
                        const double* x, const double* dx, GradExtremes* out) {
  bool has_max = false, has_min = false;
  for (size_t i = 0; i < count; ++i) {
    const VertexId k = candidates[i];
    const double grad = 2.0 * dx[k];
    if (x[k] < 1.0 && (!has_max || grad > out->max_grad)) {
      out->argmax = k;
      out->max_grad = grad;
      has_max = true;
    }
    if (x[k] > 0.0 && (!has_min || grad < out->min_grad)) {
      out->argmin = k;
      out->min_grad = grad;
      has_min = true;
    }
  }
  return has_max && has_min;
}

#if DCS_KERNELS_X86
// Two-phase exact scan: a gather/max vector pass finds the numeric max/min
// gradient over the eligible sets (ineligible lanes blended to ∓inf), then a
// scalar pass recovers the *first* index attaining each — precisely the
// index the scalar running compare keeps, because a later equal value never
// wins a strict compare. The returned gradients are recomputed from the
// winning indices, so even the ±0.0 sign bits match the scalar scan.
__attribute__((target("avx2"))) bool ScanExtremesAvx2(
    const VertexId* candidates, size_t count, const double* x,
    const double* dx, GradExtremes* out) {
  const double kNegInf = -std::numeric_limits<double>::infinity();
  const double kPosInf = std::numeric_limits<double>::infinity();
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d ninf = _mm256_set1_pd(kNegInf);
  const __m256d pinf = _mm256_set1_pd(kPosInf);
  __m256d vmax = ninf;
  __m256d vmin = pinf;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(candidates + i));
    const __m256d xv = _mm256_i32gather_pd(x, idx, 8);
    const __m256d grad = _mm256_mul_pd(two, _mm256_i32gather_pd(dx, idx, 8));
    vmax = _mm256_max_pd(
        vmax, _mm256_blendv_pd(ninf, grad, _mm256_cmp_pd(xv, one, _CMP_LT_OQ)));
    vmin = _mm256_min_pd(
        vmin,
        _mm256_blendv_pd(pinf, grad, _mm256_cmp_pd(xv, zero, _CMP_GT_OQ)));
  }
  const __m128d max_halves = _mm_max_pd(_mm256_castpd256_pd128(vmax),
                                        _mm256_extractf128_pd(vmax, 1));
  double best_max =
      _mm_cvtsd_f64(_mm_max_sd(max_halves, _mm_unpackhi_pd(max_halves, max_halves)));
  const __m128d min_halves = _mm_min_pd(_mm256_castpd256_pd128(vmin),
                                        _mm256_extractf128_pd(vmin, 1));
  double best_min =
      _mm_cvtsd_f64(_mm_min_sd(min_halves, _mm_unpackhi_pd(min_halves, min_halves)));
  for (; i < count; ++i) {
    const VertexId k = candidates[i];
    const double grad = 2.0 * dx[k];
    if (x[k] < 1.0 && grad > best_max) best_max = grad;
    if (x[k] > 0.0 && grad < best_min) best_min = grad;
  }
  const bool has_max = best_max > kNegInf;
  const bool has_min = best_min < kPosInf;
  if (!has_max || !has_min) return false;
  bool found_max = false, found_min = false;
  for (size_t j = 0; j < count && !(found_max && found_min); ++j) {
    const VertexId k = candidates[j];
    const double grad = 2.0 * dx[k];
    if (!found_max && x[k] < 1.0 && grad == best_max) {
      out->argmax = k;
      found_max = true;
    }
    if (!found_min && x[k] > 0.0 && grad == best_min) {
      out->argmin = k;
      found_min = true;
    }
  }
  DCS_CHECK(found_max && found_min);
  out->max_grad = 2.0 * dx[out->argmax];
  out->min_grad = 2.0 * dx[out->argmin];
  return true;
}
#endif  // DCS_KERNELS_X86

}  // namespace

bool ScanGradientExtremes(const VertexId* candidates, size_t count,
                          const double* x, const double* dx,
                          GradExtremes* out) {
  CounterBlock& counters = Tls();
  Bump(counters, kIdxExtremesScans, 1);
#if DCS_KERNELS_X86
  if (count >= 8 && UseAvx2(counters)) {
    return ScanExtremesAvx2(candidates, count, x, dx, out);
  }
  if (count < 8) Bump(counters, kIdxScalarCalls, 1);
#else
  UseAvx2(counters);
#endif
  return ScanExtremesScalar(candidates, count, x, dx, out);
}

// ---------------------------------------------------------------------------
// Support reduction
// ---------------------------------------------------------------------------

// Ordered sum, one rounding per term. A gathered-product AVX2 twin ran at
// 0.72-1.03x of this loop, so the scalar loop is the only path.
double SupportReduce(const VertexId* support, size_t count, const double* x,
                     const double* dx) {
  CounterBlock& counters = Tls();
  Bump(counters, kIdxSupportReductions, 1);
  Bump(counters, kIdxScalarCalls, 1);
  double f = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const VertexId v = support[i];
    f += x[v] * dx[v];
  }
  return f;
}

double StagedRowLookup(const VertexId* targets, const double* weights,
                       size_t count, VertexId v) {
  Bump(Tls(), kIdxStagedLookups, 1);
  const VertexId* end = targets + count;
  const VertexId* it = std::lower_bound(targets, end, v);
  if (it == end || *it != v) return 0.0;
  return weights[it - targets];
}

void SeedOrderSort(const std::vector<double>& mu,
                   std::vector<VertexId>* order) {
  const size_t n = mu.size();
  CounterBlock& counters = Tls();
  order->resize(n);
  if (ActiveKernelIsa() == KernelIsa::kScalar) {
    Bump(counters, kIdxScalarCalls, 1);
    std::iota(order->begin(), order->end(), VertexId{0});
    std::sort(order->begin(), order->end(), [&mu](VertexId a, VertexId b) {
      return mu[a] != mu[b] ? mu[a] > mu[b] : a < b;
    });
    return;
  }
  Bump(counters, kIdxAvx2Calls, 1);
  // Pack each mu into a key whose unsigned ascending order is exactly
  // "descending mu": collapse −0 to +0, sign-flip the IEEE bits into a
  // monotone unsigned integer, complement. Equal mu ⇔ equal key, so a
  // stable sort of the keys reproduces the comparator's ascending-id
  // tie-break by construction.
  constexpr uint64_t kSignBit = 0x8000000000000000ull;
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &mu[i], sizeof bits);
    if (bits == kSignBit) bits = 0;  // −0 → +0
    const uint64_t ascending = (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
    keys[i] = ~ascending;
  }

  // Fast path: distinct-value counting sort. Discretized pipelines
  // concentrate mu on a handful of values (levels × small core numbers), so
  // one open-addressed table pass + a sort of the distinct keys + one
  // stable scatter replaces eight radix passes. Bail to radix when the
  // distinct count grows past the table's comfort zone.
  constexpr size_t kMaxDistinct = 1024;
  constexpr size_t kTableSize = 4096;  // power of two, ≥ 4× kMaxDistinct
  constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  const auto probe = [](uint64_t key) {
    // SplitMix64 finalizer: deterministic, well-mixed table index.
    uint64_t h = key + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return static_cast<size_t>((h ^ (h >> 31)) & (kTableSize - 1));
  };
  std::vector<uint64_t> slot_key(kTableSize);
  std::vector<uint32_t> slot_count(kTableSize, kEmpty);
  std::vector<size_t> used;
  used.reserve(kMaxDistinct);
  bool counting_ok = true;
  for (size_t i = 0; i < n && counting_ok; ++i) {
    size_t s = probe(keys[i]);
    while (slot_count[s] != kEmpty && slot_key[s] != keys[i]) {
      s = (s + 1) & (kTableSize - 1);
    }
    if (slot_count[s] == kEmpty) {
      if (used.size() == kMaxDistinct) {
        counting_ok = false;
        break;
      }
      slot_key[s] = keys[i];
      slot_count[s] = 1;
      used.push_back(s);
    } else {
      ++slot_count[s];
    }
  }
  if (counting_ok) {
    // Ascending key = descending mu. Turn counts into start offsets in key
    // order, then scatter ids in input (= ascending id) order: stable.
    std::sort(used.begin(), used.end(), [&](size_t a, size_t b) {
      return slot_key[a] < slot_key[b];
    });
    uint32_t running = 0;
    for (const size_t s : used) {
      const uint32_t count = slot_count[s];
      slot_count[s] = running;
      running += count;
    }
    for (size_t i = 0; i < n; ++i) {
      size_t s = probe(keys[i]);
      while (slot_key[s] != keys[i]) s = (s + 1) & (kTableSize - 1);
      (*order)[slot_count[s]++] = static_cast<VertexId>(i);
    }
    return;
  }

  // Generic fallback: stable LSD radix over the 8 key bytes, ids riding
  // along; byte columns where every key agrees permute nothing and are
  // skipped.
  std::vector<uint64_t> scratch_keys(n);
  std::vector<VertexId> ids(n), scratch_ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<VertexId>(i);
  for (int shift = 0; shift < 64; shift += 8) {
    size_t hist[256] = {0};
    for (size_t i = 0; i < n; ++i) ++hist[(keys[i] >> shift) & 0xFF];
    if (n != 0 && hist[(keys[0] >> shift) & 0xFF] == n) continue;
    size_t running = 0;
    for (size_t b = 0; b < 256; ++b) {
      const size_t count = hist[b];
      hist[b] = running;
      running += count;
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t dst = hist[(keys[i] >> shift) & 0xFF]++;
      scratch_keys[dst] = keys[i];
      scratch_ids[dst] = ids[i];
    }
    keys.swap(scratch_keys);
    ids.swap(scratch_ids);
  }
  *order = std::move(ids);
}

// ---------------------------------------------------------------------------
// Greedy peel
// ---------------------------------------------------------------------------

namespace {

// One heap slot: a vertex and its current induced degree, kept side by side
// so a sift step compares slots without a second lookup.
struct PeelSlot {
  double degree;
  VertexId id;
};

// The segment tree's argmin order: smaller degree first, equal degrees (==,
// so −0 and +0 tie) to the smaller id. Ids are distinct, so it is total.
// Bitwise, not short-circuit, so a child pick compiles without a branch.
inline bool PeelBefore(const PeelSlot& a, const PeelSlot& b) {
  return (a.degree < b.degree) | ((a.degree == b.degree) & (a.id < b.id));
}

// Indexed binary min-heap over PeelSlot; where_[v] is v's slot, or kGone
// once v was popped (or never entered). slots_[size_] holds a sentinel that
// orders after every vertex, so a node's right child can always be read.
class PeelHeap {
 public:
  static constexpr uint32_t kGone = std::numeric_limits<uint32_t>::max();

  PeelHeap(std::vector<PeelSlot> slots, VertexId n)
      : slots_(std::move(slots)),
        size_(static_cast<uint32_t>(slots_.size())),
        where_(n, kGone) {
    slots_.push_back(kSentinel);
    for (uint32_t i = 0; i < size_; ++i) where_[slots_[i].id] = i;
    for (uint32_t i = size_ / 2; i-- > 0;) SiftDown(i);
  }

  bool empty() const { return size_ == 0; }
  const PeelSlot& top() const { return slots_.front(); }

  // Removes the top: the hole walks down the smaller children to a leaf,
  // and the last slot fills it from there (Floyd), one compare per level.
  void Pop() {
    where_[slots_.front().id] = kGone;
    const PeelSlot last = slots_[--size_];
    slots_[size_] = kSentinel;
    if (size_ == 0) return;
    uint32_t hole = 0;
    for (uint32_t child = 1; child < size_; child = 2 * hole + 1) {
      child += PeelBefore(slots_[child + 1], slots_[child]) ? 1 : 0;
      Place(hole, slots_[child]);
      hole = child;
    }
    Place(hole, last);
    SiftUp(hole);
  }

  // degree[v] += delta for a queued v; a no-op once v was popped, like the
  // reference's Add on an erased leaf. delta is a non-zero edge weight, so
  // the rounded sum moves at most in delta's direction.
  void Add(VertexId v, double delta) {
    const uint32_t i = where_[v];
    if (i == kGone) return;
    slots_[i].degree += delta;
    if (delta > 0.0) {
      SiftDown(i);
    } else {
      SiftUp(i);
    }
  }

 private:
  static constexpr PeelSlot kSentinel = {
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<VertexId>::max()};

  void Place(uint32_t i, const PeelSlot& slot) {
    slots_[i] = slot;
    where_[slot.id] = i;
  }

  void SiftUp(uint32_t i) {
    const PeelSlot moving = slots_[i];
    while (i > 0) {
      const uint32_t parent = (i - 1) / 2;
      if (!PeelBefore(moving, slots_[parent])) break;
      Place(i, slots_[parent]);
      i = parent;
    }
    Place(i, moving);
  }

  void SiftDown(uint32_t i) {
    const PeelSlot moving = slots_[i];
    for (uint32_t child = 2 * i + 1; child < size_; child = 2 * i + 1) {
      child += PeelBefore(slots_[child + 1], slots_[child]) ? 1 : 0;
      if (!PeelBefore(slots_[child], moving)) break;
      Place(i, slots_[child]);
      i = child;
    }
    Place(i, moving);
  }

  std::vector<PeelSlot> slots_;
  uint32_t size_;
  std::vector<uint32_t> where_;
};

template <bool kPositiveEdgesOnly>
inline bool KeptEdge(const Neighbor& nb) {
  return !kPositiveEdgesOnly || nb.weight > 0.0;
}

template <bool kPositiveEdgesOnly>
PeelResult PeelWithHeap(const Graph& graph) {
  const VertexId n = graph.NumVertices();
  PeelResult result;
  if (n == 0) return result;

  // Degrees are summed in row order and W(S) in id order, edgeless vertices
  // included, exactly as the reference sums them.
  std::vector<PeelSlot> slots;
  slots.reserve(n);
  std::vector<VertexId> edgeless;  // ascending ids, degree 0.0 throughout
  double total_degree = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    double degree = 0.0;
    bool has_edge = false;
    for (const Neighbor& nb : graph.NeighborsOf(v)) {
      if (KeptEdge<kPositiveEdgesOnly>(nb)) {
        degree += nb.weight;
        has_edge = true;
      }
    }
    total_degree += degree;
    if (has_edge) {
      slots.push_back(PeelSlot{degree, v});
    } else {
      edgeless.push_back(v);
    }
  }
  PeelHeap heap(std::move(slots), n);
  size_t next_edgeless = 0;
  // Pops the (degree, id)-first remaining vertex: the heap top or the side
  // stream's head, whichever PeelBefore puts first.
  const auto pop = [&](double* degree) {
    if (next_edgeless < edgeless.size() &&
        (heap.empty() ||
         PeelBefore(PeelSlot{0.0, edgeless[next_edgeless]}, heap.top()))) {
      *degree = 0.0;
      return edgeless[next_edgeless++];
    }
    const PeelSlot top = heap.top();
    heap.Pop();
    *degree = top.degree;
    return top.id;
  };

  double best_density = total_degree / static_cast<double>(n);
  size_t best_removed = 0;
  result.peel_order.reserve(n);
  for (VertexId remaining = n; remaining > 1; --remaining) {
    double degree = 0.0;
    const VertexId victim = pop(&degree);
    total_degree -= 2.0 * degree;
    result.peel_order.push_back(victim);
    for (const Neighbor& nb : graph.NeighborsOf(victim)) {
      if (KeptEdge<kPositiveEdgesOnly>(nb)) heap.Add(nb.to, -nb.weight);
    }
    const double density = total_degree / static_cast<double>(remaining - 1);
    if (density > best_density) {
      best_density = density;
      best_removed = result.peel_order.size();
    }
  }
  double last_degree = 0.0;
  result.peel_order.push_back(pop(&last_degree));

  result.density = best_density;
  std::vector<char> in_best(n, 1);
  for (size_t t = 0; t < best_removed; ++t) in_best[result.peel_order[t]] = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (in_best[v]) result.subset.push_back(v);
  }
  return result;
}

}  // namespace

PeelResult GreedyPeelHeap(const Graph& graph, bool positive_edges_only) {
  Bump(Tls(), kIdxScalarCalls, 1);
  return positive_edges_only ? PeelWithHeap<true>(graph)
                             : PeelWithHeap<false>(graph);
}

// ---------------------------------------------------------------------------
// Graph-producing kernels
// ---------------------------------------------------------------------------

Result<Graph> GraphKernels::BuildDifferenceGraph(const Graph& g1,
                                                 const Graph& g2,
                                                 double alpha) {
  if (g1.NumVertices() != g2.NumVertices()) {
    return Status::InvalidArgument(
        "difference graph requires equal vertex sets: n1=" +
        std::to_string(g1.NumVertices()) +
        " n2=" + std::to_string(g2.NumVertices()));
  }
  if (!std::isfinite(alpha) || alpha <= 0.0) {
    return Status::InvalidArgument("alpha must be finite and positive");
  }
  const VertexId n = g1.NumVertices();
  CounterBlock& counters = Tls();
  Bump(counters, kIdxDifferenceRows, n);
  Bump(counters, kIdxScalarCalls, 1);
  // Single merge pass emitting the symmetric CSR directly. Both directions
  // of an edge compute d from the same operand bits (undirected rows store
  // the same weight both ways), so the rows come out mirror-identical, and
  // the keep rule |d| > kDefaultZeroEps is exactly the reference path's
  // "emit d != 0.0, then GraphBuilder::Build drops |w| <= zero_eps" (each
  // pair is emitted once there, so no accumulation intervenes).
  std::vector<size_t> offsets(n + 1, 0);
  std::vector<Neighbor> neighbors;
  neighbors.reserve(g1.neighbors_.size() + g2.neighbors_.size());
  for (VertexId u = 0; u < n; ++u) {
    const auto row1 = g1.NeighborsOf(u);
    const auto row2 = g2.NeighborsOf(u);
    size_t i = 0, j = 0;
    while (i < row1.size() || j < row2.size()) {
      VertexId v;
      double d;
      if (j == row2.size() || (i < row1.size() && row1[i].to < row2[j].to)) {
        v = row1[i].to;
        d = -alpha * row1[i].weight;
        ++i;
      } else if (i == row1.size() || row2[j].to < row1[i].to) {
        v = row2[j].to;
        d = row2[j].weight;
        ++j;
      } else {
        v = row1[i].to;
        d = row2[j].weight - alpha * row1[i].weight;
        ++i;
        ++j;
      }
      if (!std::isfinite(d)) {
        return Status::InvalidArgument("non-finite edge weight");
      }
      if (std::fabs(d) > kDefaultZeroEps) {
        neighbors.push_back(Neighbor{v, d});
      }
    }
    offsets[u + 1] = neighbors.size();
  }
  neighbors.shrink_to_fit();
  return Graph(std::move(offsets), std::move(neighbors));
}

Result<Graph> GraphKernels::DiscretizeWeights(const Graph& gd,
                                              const DiscretizeSpec& spec) {
  DCS_RETURN_NOT_OK(spec.Validate());
  const VertexId n = gd.NumVertices();
  const size_t total = gd.neighbors_.size();
  // Stage the weights packed, map them in one vectorized sweep, then compact
  // the survivors row by row. Keep rule mirrors the reference (emit mapped
  // != 0.0, builder drops |w| <= zero_eps); the mapped levels are identical
  // bits in both row directions, so the output stays mirror-symmetric.
  std::vector<double> mapped(total);
  for (size_t i = 0; i < total; ++i) mapped[i] = gd.neighbors_[i].weight;
  DiscretizeMapPacked(mapped.data(), mapped.data(), total, spec);
  std::vector<size_t> offsets(n + 1, 0);
  std::vector<Neighbor> neighbors;
  neighbors.reserve(total);
  for (VertexId u = 0; u < n; ++u) {
    const size_t begin = gd.offsets_[u];
    const size_t end = gd.offsets_[u + 1];
    for (size_t i = begin; i < end; ++i) {
      const double m = mapped[i];
      if (m != 0.0 && std::fabs(m) > kDefaultZeroEps) {
        neighbors.push_back(Neighbor{gd.neighbors_[i].to, m});
      }
    }
    offsets[u + 1] = neighbors.size();
  }
  neighbors.shrink_to_fit();
  return Graph(std::move(offsets), std::move(neighbors));
}

Graph GraphKernels::PositivePart(const Graph& gd) {
  const VertexId n = gd.NumVertices();
  CounterBlock& counters = Tls();
  Bump(counters, kIdxScalarCalls, 1);
  // Branchless single-pass compaction: every neighbor is written, the write
  // cursor only advances past the kept ones. Keep rule and order match the
  // reference exactly, so the CSR comes out bit-identical.
  std::vector<size_t> offsets(static_cast<size_t>(n) + 1, 0);
  std::vector<Neighbor> neighbors(gd.neighbors_.size());
  size_t out = 0;
  for (VertexId u = 0; u < n; ++u) {
    const size_t end = gd.offsets_[u + 1];
    for (size_t i = gd.offsets_[u]; i < end; ++i) {
      const Neighbor nb = gd.neighbors_[i];
      neighbors[out] = nb;
      out += nb.weight > 0.0 ? 1 : 0;
    }
    offsets[u + 1] = out;
  }
  neighbors.resize(out);
  neighbors.shrink_to_fit();
  return Graph(std::move(offsets), std::move(neighbors));
}

}  // namespace dcs
