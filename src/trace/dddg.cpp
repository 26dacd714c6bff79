#include "trace/dddg.hpp"

namespace ahn::trace {

namespace {

/// Packs (var, elem) into one map key.
[[nodiscard]] std::uint64_t cell_key(VarId var, std::size_t elem) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(var)) << 32) |
         (elem & 0xffffffffULL);
}

}  // namespace

Dddg Dddg::build(const TraceRecorder& rec) {
  const std::vector<Instruction>& trace = rec.instructions();
  Dddg g;

  // One in-order pass: each load resolves against the last store to its
  // cell seen so far, so use-def chains, memory RAW edges and roots need no
  // second look at the trace.
  std::unordered_map<std::uint64_t, std::size_t> last_store;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Instruction& inst = trace[i];
    switch (inst.kind) {
      case OpKind::Load: {
        const auto it = last_store.find(cell_key(inst.var, inst.elem));
        if (it != last_store.end()) {
          g.use_def_[i] = it->second;
          // Memory RAW edge: stored value -> loaded value.
          const ValueId stored = trace[it->second].lhs;
          if (stored != kNoValue) g.edges_.emplace_back(stored, inst.result);
        } else {
          g.use_def_[i] = npos;  // upward-exposed: a DDDG root
          g.root_vars_.insert(inst.var);
        }
        break;
      }
      case OpKind::Store:
        last_store[cell_key(inst.var, inst.elem)] = i;
        break;
      default:
        if (inst.lhs != kNoValue) g.edges_.emplace_back(inst.lhs, inst.result);
        if (inst.rhs != kNoValue) g.edges_.emplace_back(inst.rhs, inst.result);
        break;
    }
  }

  // Per-variable summaries and the last load of each cell, for the leaves.
  // A separate pass: folding these three tables into the loop above made
  // trace_overhead's BM_DddgBuildSerial/20000 ~18% slower (4 vCPUs).
  std::unordered_map<std::uint64_t, std::size_t> last_load;
  std::unordered_set<ValueId> nodes;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Instruction& inst = trace[i];
    if (inst.kind == OpKind::Load) {
      last_load[cell_key(inst.var, inst.elem)] = i;
      g.loaded_vars_.insert(inst.var);
    } else if (inst.kind == OpKind::Store) {
      g.stored_vars_.insert(inst.var);
    }
    if (inst.result != kNoValue) nodes.insert(inst.result);
  }

  // Leaves: cells whose final store is never re-loaded after it.
  for (const auto& [key, store_idx] : last_store) {
    const auto it = last_load.find(key);
    if (it == last_load.end() || it->second < store_idx) {
      g.leaf_vars_.insert(trace[store_idx].var);
    }
  }
  g.node_count_ = nodes.size();
  return g;
}

}  // namespace ahn::trace
