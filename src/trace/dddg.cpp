#include "trace/dddg.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace ahn::trace {

namespace {

/// Packs (var, elem) into one map key.
[[nodiscard]] std::uint64_t cell_key(VarId var, std::size_t elem) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(var)) << 32) |
         (elem & 0xffffffffULL);
}

struct ChunkResult {
  // Last store per memory cell within the chunk.
  std::unordered_map<std::uint64_t, std::size_t> last_store;
  // Loads whose defining store is not inside this chunk: (trace idx, cell).
  std::vector<std::pair<std::size_t, std::uint64_t>> unresolved_loads;
  // Register-flow edges local to the chunk (value ids are global, so these
  // are final as-is).
  std::vector<std::pair<ValueId, ValueId>> edges;
  // Use-def entries fully resolved inside the chunk.
  std::vector<std::pair<std::size_t, std::size_t>> resolved_use_def;
};

}  // namespace

Dddg Dddg::build(const TraceRecorder& rec, std::size_t threads) {
  const std::vector<Instruction>& trace = rec.instructions();
  Dddg g;
  if (trace.empty()) return g;

  const std::size_t hw = threads > 0
                             ? threads
                             : static_cast<std::size_t>(omp_get_max_threads());
  const std::size_t n = trace.size();
  const std::size_t chunks = std::max<std::size_t>(1, std::min(hw, (n + 1023) / 1024));
  std::vector<ChunkResult> results(chunks);

  // Phase 1 (parallel): per-chunk local analysis. The chunking, not the
  // team that runs it, fixes the result. The work passed is the plain
  // instruction count: trace_overhead's BM_DddgBuildParallel ran no faster
  // with a 4-thread team than serially at any trace size from 1.5k to 600k
  // instructions (4 vCPUs), since the serial stitch below dominates, so
  // there is no measured crossover to scale it by.
  parallel_for(n, chunks, [&](std::size_t c) {
    const std::size_t begin = c * n / chunks;
    const std::size_t end = (c + 1) * n / chunks;
    ChunkResult& r = results[c];
    for (std::size_t i = begin; i < end; ++i) {
      const Instruction& inst = trace[i];
      switch (inst.kind) {
        case OpKind::Load: {
          const std::uint64_t key = cell_key(inst.var, inst.elem);
          const auto it = r.last_store.find(key);
          if (it != r.last_store.end()) {
            r.resolved_use_def.emplace_back(i, it->second);
            // Memory RAW edge: stored value -> loaded value.
            const ValueId stored = trace[it->second].lhs;
            if (stored != kNoValue) r.edges.emplace_back(stored, inst.result);
          } else {
            r.unresolved_loads.emplace_back(i, key);
          }
          break;
        }
        case OpKind::Store:
          r.last_store[cell_key(inst.var, inst.elem)] = i;
          break;
        default:
          if (inst.lhs != kNoValue) r.edges.emplace_back(inst.lhs, inst.result);
          if (inst.rhs != kNoValue) r.edges.emplace_back(inst.rhs, inst.result);
          break;
      }
    }
  });

  // Phase 2 (sequential stitch): resolve cross-chunk loads left-to-right.
  std::unordered_map<std::uint64_t, std::size_t> global_last_store;
  for (std::size_t c = 0; c < chunks; ++c) {
    ChunkResult& r = results[c];
    for (const auto& [load_idx, key] : r.unresolved_loads) {
      const auto it = global_last_store.find(key);
      if (it != global_last_store.end()) {
        g.use_def_[load_idx] = it->second;
        const ValueId stored = trace[it->second].lhs;
        if (stored != kNoValue) {
          g.edges_.emplace_back(stored, trace[load_idx].result);
        }
      } else {
        g.use_def_[load_idx] = npos;  // upward-exposed: a DDDG root
        g.root_vars_.insert(trace[load_idx].var);
      }
    }
    for (const auto& [load_idx, def_idx] : r.resolved_use_def) {
      g.use_def_[load_idx] = def_idx;
    }
    for (const auto& [key, idx] : r.last_store) {
      auto [it, inserted] = global_last_store.try_emplace(key, idx);
      if (!inserted && idx > it->second) it->second = idx;
    }
    g.edges_.insert(g.edges_.end(), r.edges.begin(), r.edges.end());
  }

  // Phase 3: classify leaves — cells whose final store is never re-loaded
  // after that store. A load at trace index j kills finality of any store
  // with index < j to the same cell only if that store is the one recorded
  // in global_last_store with a later load; detect by scanning loads once.
  std::unordered_map<std::uint64_t, std::size_t> last_load;
  for (std::size_t i = 0; i < n; ++i) {
    if (trace[i].kind == OpKind::Load) {
      last_load[cell_key(trace[i].var, trace[i].elem)] = i;
    }
    if (trace[i].kind == OpKind::Store) g.stored_vars_.insert(trace[i].var);
    if (trace[i].kind == OpKind::Load) g.loaded_vars_.insert(trace[i].var);
  }
  for (const auto& [key, store_idx] : global_last_store) {
    const auto it = last_load.find(key);
    if (it == last_load.end() || it->second < store_idx) {
      g.leaf_vars_.insert(trace[store_idx].var);
    }
  }

  // Node count: distinct value ids touched by edges plus isolated results.
  std::unordered_set<ValueId> nodes;
  for (const auto& inst : trace) {
    if (inst.result != kNoValue) nodes.insert(inst.result);
  }
  g.node_count_ = nodes.size();
  return g;
}

}  // namespace ahn::trace
