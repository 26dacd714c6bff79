#pragma once
// Dynamic data dependency graph (§3.1 Step 2). Vertices are runtime values
// (trace value ids); edges are the instructions transforming operand values
// into result values. Loads are wired to their defining stores through
// memory (use-def chains); loads with no in-region defining store are
// upward-exposed — the root set that identifies input variables. Final
// stores never re-read in-region form the leaf set.
//
// Loads resolve to their stores in one in-order pass over the trace. A
// chunked parallel pass with a serial cross-chunk stitch measured no faster
// at 2k-600k instructions on 4 vCPUs (trace_overhead), so there is none.

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/recorder.hpp"

namespace ahn::trace {

class Dddg {
 public:
  /// Builds from a recorded trace. Edges are listed in trace order.
  static Dddg build(const TraceRecorder& rec);

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
