#pragma once
// Dynamic data dependency graph (§3.1 Step 2). Vertices are runtime values
// (trace value ids); edges are the instructions transforming operand values
// into result values. Loads are wired to their defining stores through
// memory (use-def chains); loads with no in-region defining store are
// upward-exposed — the root set that identifies input variables. Final
// stores never re-read in-region form the leaf set.
//
// Construction can run in parallel (the paper parallelizes DDDG building to
// make trace analysis user-friendly): the trace is partitioned into chunks,
// chunk-local def maps and unresolved loads are computed concurrently, then
// a sequential stitch resolves cross-chunk memory dependencies.

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/recorder.hpp"

namespace ahn::trace {

class Dddg {
 public:
  /// Builds from a recorded trace. `threads` sets the number of chunks the
  /// trace is split into (0 = the caller's OpenMP budget); the result
  /// depends only on that count. The chunks run on a parallel_for team
  /// sized from the trace length and the caller's budget, so a caller at
  /// budget 1 (or a short trace) builds them one after another.
  static Dddg build(const TraceRecorder& rec, std::size_t threads = 0);

  /// Register-flow edges (operand value id -> result value id).
  [[nodiscard]] const std::vector<std::pair<ValueId, ValueId>>& edges() const noexcept {
    return edges_;
  }

  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  /// For each trace index of a Load: the trace index of its defining Store,
  /// or npos when upward-exposed (the use-def chain of §3.1).
  [[nodiscard]] const std::unordered_map<std::size_t, std::size_t>& use_def() const noexcept {
    return use_def_;
  }
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Variables with at least one upward-exposed load (DDDG roots).
  [[nodiscard]] const std::unordered_set<VarId>& root_vars() const noexcept {
    return root_vars_;
  }

  /// Variables whose final in-region store is never re-loaded in-region
  /// (DDDG leaves — output candidates).
  [[nodiscard]] const std::unordered_set<VarId>& leaf_vars() const noexcept {
    return leaf_vars_;
  }

  /// All variables stored to / loaded from inside the region.
  [[nodiscard]] const std::unordered_set<VarId>& stored_vars() const noexcept {
    return stored_vars_;
  }
  [[nodiscard]] const std::unordered_set<VarId>& loaded_vars() const noexcept {
    return loaded_vars_;
  }

 private:
  std::vector<std::pair<ValueId, ValueId>> edges_;
  std::unordered_map<std::size_t, std::size_t> use_def_;
  std::unordered_set<VarId> root_vars_, leaf_vars_, stored_vars_, loaded_vars_;
  std::size_t node_count_ = 0;
};

}  // namespace ahn::trace
