#ifndef M3_LA_LANES_H_
#define M3_LA_LANES_H_

#include <cstddef>

/// \file
/// \brief The one summation order of the la reductions (private to
/// src/la/; not part of the library's interface).
///
/// Dot, SquaredDistance and SparseDot accumulate the term of element (or
/// column) j into lane j % kLanes, each lane in ascending j, and combine
/// the lanes in one fixed tree. The order depends only on column indices,
/// so a sparse row adds exactly its dense twin's nonzero terms into the
/// same lanes. The eight independent accumulators are also what lets -O3
/// keep four SSE2 add chains in flight instead of one latency-bound
/// chain. Changing kLanes or the combine tree changes every model's last
/// bits once, like a format change.

namespace m3::la::internal {

inline constexpr size_t kLanes = 8;

/// ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)).
inline double CombineLanes(const double (&lanes)[kLanes]) {
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/// Sum of term(0) ... term(n - 1) in lane order: full kLanes-wide blocks,
/// then the tail into lanes 0 ... n % kLanes - 1.
template <typename Term>
inline double LaneSum(size_t n, Term term) {
  double lanes[kLanes] = {};
  size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    for (size_t lane = 0; lane < kLanes; ++lane) {
      lanes[lane] += term(j + lane);
    }
  }
  for (size_t lane = 0; j + lane < n; ++lane) {
    lanes[lane] += term(j + lane);
  }
  return CombineLanes(lanes);
}

}  // namespace m3::la::internal

#endif  // M3_LA_LANES_H_
