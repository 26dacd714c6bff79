// Tests for src/trace: the recorder (region directives, loop compression),
// traced value handles, DDDG construction (roots/leaves/use-def),
// feature identification (inputs/outputs/internals with liveness), and
// Gaussian-perturbation sample generation.

#include <gtest/gtest.h>

#include "trace/dddg.hpp"
#include "trace/features.hpp"
#include "trace/recorder.hpp"
#include "trace/sampling.hpp"
#include "trace/traced.hpp"

namespace ahn::trace {
namespace {

TEST(Recorder, RegionDirectivesGateRecording) {
  TraceRecorder rec;
  TracedScalar s(rec, "s", true, 1.0);
  (void)(s + s);  // outside the region: not recorded
  EXPECT_TRUE(rec.instructions().empty());
  rec.begin_region();
  (void)(s + s);
  rec.end_region();
  EXPECT_FALSE(rec.instructions().empty());
}

TEST(Recorder, RegionCannotNest) {
  TraceRecorder rec;
  rec.begin_region();
  EXPECT_THROW(rec.begin_region(), Error);
}

TEST(Recorder, TracedArithmeticComputesCorrectValues) {
  TraceRecorder rec;
  TracedScalar a(rec, "a", true, 3.0);
  TracedScalar b(rec, "b", true, 4.0);
  TracedScalar out(rec, "out", true);
  rec.begin_region();
  out = tsqrt(a * a + b * b);
  rec.end_region();
  EXPECT_DOUBLE_EQ(out.value(), 5.0);
}

TEST(Recorder, LoopCompressionElidesUniformIterations) {
  TraceRecorder rec;
  TracedArray a(rec, "a", std::vector<double>(64, 2.0), true);
  TracedScalar sum(rec, "sum", true);
  rec.begin_region();
  rec.begin_loop();
  for (std::size_t i = 0; i < 64; ++i) {
    sum = sum + a[i];
    rec.end_loop_iteration();
  }
  rec.end_loop();
  rec.end_region();
  // All iterations have identical shape: only one is stored.
  EXPECT_GT(rec.compression_ratio(), 30.0);
  EXPECT_EQ(rec.total_region_instructions(),
            static_cast<std::uint64_t>(64 * 4));  // load a, load sum, add, store
}

TEST(Recorder, DivergentLoopIsNotCompressed) {
  TraceRecorder rec;
  TracedArray a(rec, "a", std::vector<double>{1, -2, 3, -4}, true);
  TracedScalar sum(rec, "pos_sum", true);
  rec.begin_region();
  rec.begin_loop();
  for (std::size_t i = 0; i < 4; ++i) {
    // Control-flow divergence: only positive entries touch `sum`.
    if (a.raw()[i] > 0) sum = sum + a[i];
    rec.end_loop_iteration();
  }
  rec.end_loop();
  rec.end_region();
  EXPECT_LT(rec.compression_ratio(), 2.0);
}

TEST(Recorder, PostRegionReadsTrackLiveness) {
  TraceRecorder rec;
  TracedScalar x(rec, "x", true, 1.0);
  TracedScalar y(rec, "y", true, 0.0);
  rec.begin_region();
  y = x + 1.0;
  rec.end_region();
  (void)y.get();  // read after region -> live-out
  EXPECT_TRUE(rec.read_after_region()[static_cast<std::size_t>(y.var())]);
  EXPECT_FALSE(rec.read_after_region()[static_cast<std::size_t>(x.var())]);
}

TEST(Recorder, PostRegionOverwriteKillsScalarLiveness) {
  TraceRecorder rec;
  TracedScalar y(rec, "y", true, 0.0);
  rec.begin_region();
  y = 5.0;
  rec.end_region();
  y = 0.0;       // overwritten before any read
  (void)y.get(); // later read sees the overwrite, not the region value
  EXPECT_TRUE(rec.overwritten_after_region()[static_cast<std::size_t>(y.var())]);
}

TEST(Dddg, RootsAreUpwardExposedLoads) {
  TraceRecorder rec;
  TracedScalar a(rec, "a", true, 2.0);
  TracedScalar t(rec, "t", false, 0.0);
  rec.begin_region();
  t = a + 1.0;           // a: read before any store -> root
  (void)(t + t);         // t: defined in region, not a root
  rec.end_region();
  const Dddg g = Dddg::build(rec);
  EXPECT_TRUE(g.root_vars().contains(a.var()));
  EXPECT_FALSE(g.root_vars().contains(t.var()));
}

TEST(Dddg, LeavesAreFinalStores) {
  TraceRecorder rec;
  TracedScalar a(rec, "a", true, 1.0);
  TracedScalar tmp(rec, "tmp", false);
  TracedScalar out(rec, "out", true);
  rec.begin_region();
  tmp = a + 1.0;
  out = tmp + 2.0;  // tmp re-read after its store; out never re-read
  rec.end_region();
  const Dddg g = Dddg::build(rec);
  EXPECT_TRUE(g.leaf_vars().contains(out.var()));
  EXPECT_FALSE(g.leaf_vars().contains(tmp.var()));
}

TEST(Dddg, UseDefChainsLinkLoadsToStores) {
  TraceRecorder rec;
  TracedScalar x(rec, "x", true, 1.0);
  rec.begin_region();
  x = x + 1.0;  // load x (upward-exposed), store x
  (void)(x + 0.0);  // load x again -> defined by the store above
  rec.end_region();
  const Dddg g = Dddg::build(rec);
  std::size_t exposed = 0, resolved = 0;
  for (const auto& [load_idx, def_idx] : g.use_def()) {
    if (def_idx == Dddg::npos) {
      ++exposed;
    } else {
      EXPECT_EQ(rec.instructions()[def_idx].kind, OpKind::Store);
      ++resolved;
    }
  }
  EXPECT_EQ(exposed, 1u);
  EXPECT_EQ(resolved, 1u);
}

TEST(Features, IdentifiesInputsOutputsInternals) {
  TraceRecorder rec;
  TracedArray a(rec, "A", std::vector<double>{1, 2, 3, 4}, true);  // input
  TracedScalar acc(rec, "acc", false);                             // internal
  TracedScalar result(rec, "result", true);                        // output
  rec.begin_region();
  for (std::size_t i = 0; i < 4; ++i) acc = acc + a[i];
  result = acc * 0.25;
  rec.end_region();
  (void)result.get();  // used after the region

  const FeatureReport rep = identify_features(rec);
  ASSERT_EQ(rep.inputs.size(), 1u);
  EXPECT_EQ(rep.inputs[0], a.var());
  ASSERT_EQ(rep.outputs.size(), 1u);
  EXPECT_EQ(rep.outputs[0], result.var());
  EXPECT_EQ(rep.input_width, 4u);   // array grouping: the whole array
  EXPECT_EQ(rep.output_width, 1u);
}

TEST(Features, InternalVariablesExcluded) {
  TraceRecorder rec;
  TracedScalar in(rec, "in", true, 2.0);
  TracedScalar scratch(rec, "scratch", false);
  TracedScalar out(rec, "out", true);
  rec.begin_region();
  scratch = in * in;
  out = scratch + 1.0;
  rec.end_region();
  (void)out.get();
  const FeatureReport rep = identify_features(rec);
  EXPECT_EQ(rep.inputs.size(), 1u);
  EXPECT_EQ(rep.outputs.size(), 1u);
  ASSERT_EQ(rep.internals.size(), 1u);
  EXPECT_EQ(rep.internals[0], scratch.var());
}

TEST(Features, FallsBackToDddgLeavesWithoutPostRegionInfo) {
  TraceRecorder rec;
  TracedScalar in(rec, "in", true, 1.0);
  TracedScalar out(rec, "out", true);
  rec.begin_region();
  out = in + 1.0;
  rec.end_region();
  // No post-region accesses recorded at all -> leaf-based fallback.
  const FeatureReport rep = identify_features(rec);
  ASSERT_EQ(rep.outputs.size(), 1u);
  EXPECT_EQ(rep.outputs[0], out.var());
}

TEST(Features, DescribeMentionsNames) {
  TraceRecorder rec;
  TracedArray a(rec, "matrixA", std::vector<double>{1, 2}, true);
  TracedScalar out(rec, "result", true);
  rec.begin_region();
  out = a[0] + a[1];
  rec.end_region();
  (void)out.get();
  const FeatureReport rep = identify_features(rec);
  const std::string desc = rep.describe(rec);
  EXPECT_NE(desc.find("matrixA[2]"), std::string::npos);
  EXPECT_NE(desc.find("result"), std::string::npos);
}

TEST(Sampling, GeneratesRequestedSamplesWithPerturbation) {
  Rng rng(3);
  const RegionFn region = [](const std::vector<double>& x) {
    return std::vector<double>{x[0] + x[1], x[0] * x[1]};
  };
  PerturbationSpec spec;
  spec.sigma = 0.1;
  const nn::Dataset data = generate_samples(region, {2.0, 3.0}, 50, spec, rng);
  EXPECT_EQ(data.size(), 50u);
  EXPECT_EQ(data.in_features(), 2u);
  EXPECT_EQ(data.out_features(), 2u);
  // Outputs must be consistent with inputs.
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data.y.at(i, 0), data.x.at(i, 0) + data.x.at(i, 1), 1e-12);
  }
  // Inputs perturbed around the base (not all identical).
  double spread = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    spread += std::abs(data.x.at(i, 0) - 2.0);
  }
  EXPECT_GT(spread, 0.5);
}

TEST(Sampling, UniformPerturbationBounded) {
  Rng rng(4);
  const RegionFn region = [](const std::vector<double>& x) {
    return std::vector<double>{x[0]};
  };
  PerturbationSpec spec;
  spec.kind = PerturbationKind::Uniform;
  spec.sigma = 0.5;
  const nn::Dataset data = generate_samples(region, {10.0}, 100, spec, rng);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_GE(data.x.at(i, 0), 5.0 - 1e-9);
    EXPECT_LE(data.x.at(i, 0), 15.0 + 1e-9);
  }
}

TEST(Sampling, TracedPcgRegionEndToEnd) {
  // A miniature Algorithm-1-style traced region: identify features of a
  // dot-product + axpy region, then generate training samples for it.
  TraceRecorder rec;
  TracedArray r(rec, "r", std::vector<double>{1.0, 2.0, 2.0}, true);
  TracedArray p(rec, "p", std::vector<double>{0.5, 0.5, 0.5}, true);
  TracedArray x(rec, "x", 3, true);
  rec.begin_region();
  // alpha = (r.r)/(p.p); x = x + alpha p
  TracedValue rr = TracedValue::constant(rec, 0.0);
  TracedValue pp = TracedValue::constant(rec, 0.0);
  rec.begin_loop();
  for (std::size_t i = 0; i < 3; ++i) {
    rr = rr + r[i] * r[i];
    pp = pp + p[i] * p[i];
    rec.end_loop_iteration();
  }
  rec.end_loop();
  const TracedValue alpha = rr / pp;
  for (std::size_t i = 0; i < 3; ++i) x[i] = x[i] + alpha * p[i];
  rec.end_region();
  for (std::size_t i = 0; i < 3; ++i) (void)x[i];  // post-region reads

  const FeatureReport rep = identify_features(rec);
  EXPECT_EQ(rep.input_width, 9u);   // r, p and x (x is read-modify-write)
  EXPECT_EQ(rep.output_width, 3u);  // x
}

}  // namespace
}  // namespace ahn::trace
