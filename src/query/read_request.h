// ReadRequest: the one read-side request shape of the public API. The
// three query entry points (Query, QueryIterators, AggregateQuery) all take
// it — matchers, inclusive time range, strictness, and an optional
// aggregate shape (step + fn) — so the wire protocol's query handlers map
// onto the DB 1:1 and new read-side knobs have exactly one place to land.
#pragma once

#include <cstdint>
#include <vector>

#include "index/inverted_index.h"
#include "query/aggregate.h"

namespace tu::query {

struct ReadRequest {
  /// Conjunctive tag selectors; at least one required.
  std::vector<index::TagMatcher> matchers;
  /// Inclusive time range.
  int64_t t0 = INT64_MIN;
  int64_t t1 = INT64_MAX;

  /// Degraded-read behaviour for this request (a dashboard tolerates
  /// partial data, a billing export does not). The values are the wire
  /// protocol's strictness byte.
  enum class Strictness {
    kAllowPartial = 0,  ///< skip unreachable tables, report missing_ranges
    kStrict = 1,        ///< first unreachable table fails the read
  };
  Strictness strictness = Strictness::kAllowPartial;

  /// Aggregate shape: step_ms > 0 selects the aggregate path (AggregateQuery
  /// semantics — fn folded into step-aligned windows, rollup-served where
  /// possible); step_ms == 0 is a plain sample query.
  int64_t step_ms = 0;
  AggFn fn = AggFn::kMean;

  bool IsAggregate() const { return step_ms > 0; }
  bool AllowsPartial() const { return strictness != Strictness::kStrict; }

  static ReadRequest Range(std::vector<index::TagMatcher> matchers, int64_t t0,
                           int64_t t1) {
    ReadRequest r;
    r.matchers = std::move(matchers);
    r.t0 = t0;
    r.t1 = t1;
    return r;
  }
  static ReadRequest Aggregate(std::vector<index::TagMatcher> matchers,
                               int64_t t0, int64_t t1, int64_t step_ms,
                               AggFn fn) {
    ReadRequest r = Range(std::move(matchers), t0, t1);
    r.step_ms = step_ms;
    r.fn = fn;
    return r;
  }
};

}  // namespace tu::query
