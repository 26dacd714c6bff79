// Tests for src/runtime: the roofline device model (monotonicity, profiles,
// Table-3 cache heuristics), the orchestrator/client tensor store and model
// registry (Listing 1 semantics), the modeled §7.3 phase cost, and the
// concurrent serving path (sharded store, micro-batching).

#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "nn/topology.hpp"
#include "runtime/deployment.hpp"
#include "runtime/orchestrator.hpp"
#include "runtime/sharded_store.hpp"
#include "team_budgets.hpp"

namespace ahn::runtime {
namespace {

TEST(Device, KernelTimeIncludesLaunchLatency) {
  const DeviceModel dev;
  const OpCounts none{};
  EXPECT_GE(dev.kernel_seconds(none, nn_inference_profile()),
            dev.spec().launch_latency);
}

TEST(Device, KernelTimeMonotoneInFlops) {
  const DeviceModel dev;
  OpCounts small{1000, 100, 100};
  OpCounts big{1000000000, 100, 100};
  EXPECT_LT(dev.kernel_seconds(small, nn_inference_profile()),
            dev.kernel_seconds(big, nn_inference_profile()));
}

TEST(Device, SparseSolverProfileSlowerThanNn) {
  const DeviceModel dev;
  const OpCounts ops{100000000, 1000000, 1000000};
  EXPECT_GT(dev.kernel_seconds(ops, sparse_solver_profile()),
            dev.kernel_seconds(ops, nn_inference_profile()));
}

TEST(Device, TransferTimeLinearInBytes) {
  const DeviceModel dev;
  const double t1 = dev.transfer_seconds(1 << 20);
  const double t2 = dev.transfer_seconds(2 << 20);
  EXPECT_GT(t2, t1);
  EXPECT_NEAR(t2 - t1, static_cast<double>(1 << 20) / dev.spec().transfer_bandwidth,
              1e-9);
}

TEST(Device, MissRateDecreasesWithIntensity) {
  const OpCounts low_intensity{100, 10000, 10000};   // memory-bound gather
  const OpCounts high_intensity{1000000, 1000, 0};   // GEMM-like
  const auto profile = nn_inference_profile();
  EXPECT_GT(DeviceModel::modeled_l2_miss_rate(low_intensity, profile),
            DeviceModel::modeled_l2_miss_rate(high_intensity, profile));
}

TEST(Device, MissRateCalibratedToTable3Regimes) {
  // Sparse-solver-on-CPU-like ops: low intensity -> ~30-45% misses.
  const OpCounts solver{2 * 512, 512 * 12, 512 * 8};
  const double cpu_like =
      DeviceModel::modeled_l2_miss_rate(solver, sparse_solver_profile());
  EXPECT_GT(cpu_like, 0.25);
  EXPECT_LT(cpu_like, 0.5);
  // NN inference: high intensity -> under 25%.
  const OpCounts gemm{2ULL * 64 * 64 * 64, 3 * 64 * 64 * 8, 64 * 64 * 8};
  const double nn_like = DeviceModel::modeled_l2_miss_rate(gemm, nn_inference_profile());
  EXPECT_LT(nn_like, 0.25);
}

TEST(Device, EnergyMonotoneAndAboveIdleFloor) {
  const DeviceModel dev;
  const OpCounts small{1000, 1000, 0};
  const OpCounts big{1000000000, 1000, 0};
  const double es = dev.kernel_joules(small, nn_inference_profile());
  const double eb = dev.kernel_joules(big, nn_inference_profile());
  EXPECT_GT(eb, es);
  // Energy >= idle power x modeled time.
  EXPECT_GE(es, 50.0 * dev.kernel_seconds(small, nn_inference_profile()) * 0.99);
}

TEST(Device, AchievedBandwidthComputed) {
  const OpCounts ops{0, 1000, 1000};
  EXPECT_DOUBLE_EQ(DeviceModel::achieved_bandwidth(ops, 2.0), 1000.0);
}

TEST(Device, PhasesPriceEachOnlinePhaseAndSumToTotal) {
  const DeviceModel dev;
  const OpCounts infer{2000, 800, 80};
  const RequestPhases p = dev.phases(OpCounts{}, infer, /*has_encoder=*/false,
                                     /*int8=*/false, /*rows=*/1, sizeof(double) * 6, 3);
  EXPECT_GT(p.fetch, 0.0);
  EXPECT_EQ(p.encode, 0.0);  // no encoder, no encode phase
  EXPECT_EQ(p.load, dev.spec().model_load_latency);
  EXPECT_GT(p.run, 0.0);
  EXPECT_EQ(p.total(), p.fetch + p.encode + p.load + p.run);
}

TEST(Device, PhasesAddAnEncodePhaseForAnEncoder) {
  const DeviceModel dev;
  const OpCounts encode{5000, 1200, 32};
  const OpCounts infer{2000, 800, 80};
  const RequestPhases p = dev.phases(encode, infer, /*has_encoder=*/true,
                                     /*int8=*/false, 1, sizeof(double) * 16, 2);
  EXPECT_EQ(p.encode, dev.kernel_seconds(encode, nn_inference_profile()));
  EXPECT_EQ(p.run, dev.kernel_seconds(infer, nn_inference_profile()) +
                       dev.transfer_seconds(sizeof(double) * 2));
}

TEST(Device, PhasesScaleKernelsWithRowsAndPriceInt8AtItsProfile) {
  const DeviceModel dev;
  const OpCounts infer{4'000'000'000ULL, 64, 16};  // compute-bound
  const RequestPhases four = dev.phases(OpCounts{}, infer, false, false, 4, 0, 8);
  EXPECT_EQ(four.run,
            dev.kernel_seconds(OpCounts{4 * infer.flops, 4 * infer.bytes_read,
                                        4 * infer.bytes_written},
                               nn_inference_profile()) +
                dev.transfer_seconds(sizeof(double) * 8));
  EXPECT_EQ(four.load, dev.spec().model_load_latency);  // once per call
  const RequestPhases int8 = dev.phases(OpCounts{}, infer, false, true, 1, 0, 2);
  EXPECT_EQ(int8.run, dev.kernel_seconds(infer, nn_int8_inference_profile()) +
                          dev.transfer_seconds(sizeof(double) * 2));
  EXPECT_LT(int8.run, dev.phases(OpCounts{}, infer, false, false, 1, 0, 2).run);
}

TEST(Orchestrator, TensorStorePutGetDelete) {
  Orchestrator orc;
  Tensor t({1, 3}, {1, 2, 3});
  orc.put_tensor("in", t);
  EXPECT_TRUE(orc.has_tensor("in"));
  const Tensor got = orc.get_tensor("in");
  EXPECT_EQ(got.at(0, 1), 2.0);
  orc.delete_tensor("in");
  EXPECT_FALSE(orc.has_tensor("in"));
  EXPECT_THROW((void)orc.get_tensor("in"), Error);
}

std::shared_ptr<ServableModel> tiny_model() {
  Rng rng(1);
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  nn::Network net = nn::build_surrogate(spec, 4, 2, rng);
  auto m = std::make_shared<ServableModel>();
  m->infer_ops = net.inference_cost(1);
  m->surrogate.net = std::move(net);
  return m;
}

TEST(Orchestrator, RunModelListing1Flow) {
  Orchestrator orc;
  orc.set_model("AI-CFD-net", tiny_model());

  // Listing 1: put_tensor -> run_model -> unpack_tensor.
  Client client(orc);
  Tensor in({1, 4}, {0.1, 0.2, 0.3, 0.4});
  client.put_tensor("in_key", in);
  EXPECT_TRUE(client.run_model("AI-CFD-net", "in_key", "out_key").is_ok());
  const Tensor out = client.unpack_tensor("out_key");
  EXPECT_EQ(out.rows(), 1u);
  EXPECT_EQ(out.cols(), 2u);

  // §7.3's four online phases are all accounted, in the serving.latency.*
  // histograms.
  const obs::RegistrySnapshot reg = orc.stats().metrics().snapshot();
  const auto phase_sum = [&reg](const std::string& phase) {
    return reg.histograms.at("serving.latency." + phase).sum;
  };
  EXPECT_EQ(reg.histograms.at("serving.latency.total").count, 1u);
  EXPECT_GT(phase_sum("fetch"), 0.0);
  EXPECT_GT(phase_sum("load"), 0.0);
  EXPECT_GT(phase_sum("run"), 0.0);
  EXPECT_EQ(phase_sum("encode"), 0.0);  // no encoder in this model
}

TEST(Orchestrator, UnknownModelReportsModelUnavailable) {
  Orchestrator orc;
  orc.put_tensor("x", Tensor({1, 1}, {1}));
  const Status s = orc.run_model("nope", "x", "y");
  EXPECT_EQ(s.code(), StatusCode::kModelUnavailable);
  EXPECT_NE(s.to_string().find("nope"), std::string::npos);
  // The throwing registry lookup is still the contract for direct use.
  EXPECT_THROW((void)orc.model("nope"), Error);
}

TEST(Orchestrator, MissingInputKeyReportsNotFound) {
  Orchestrator orc;
  orc.set_model("m", tiny_model());
  const Status s = orc.run_model("m", "absent", "out");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_FALSE(orc.has_tensor("out"));
}

// A quantized model served through keyed run_model prices its run phase at
// the int8 profile, as the offline evaluation and the search price it.
TEST(Serving, Int8ModelPricedLikeOfflineEvaluation) {
  Rng rng(5);
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  ServableModel base;
  base.surrogate.net = nn::build_surrogate(spec, 4, 2, rng);
  Tensor calib({32, 4});
  for (double& v : calib.flat()) v = rng.uniform(-1.0, 1.0);
  auto q = std::make_shared<ServableModel>(quantized_servable(base, calib));
  ASSERT_EQ(q->surrogate.net.precision(), nn::Precision::kInt8);
  // Dense layers this small are memory-bound, where both profiles price
  // alike; a compute-bound op count makes the profile visible.
  q->infer_ops = OpCounts{4'000'000'000ULL, 64, 16};

  Orchestrator orc;
  orc.set_model("q", q);
  orc.put_tensor("x", Tensor({1, 4}, {0.1, 0.2, 0.3, 0.4}));
  ASSERT_TRUE(orc.run_model("q", "x", "y").is_ok());
  const double served_run =
      orc.stats().metrics().snapshot().histograms.at("serving.latency.run").sum;

  const DeviceModel dev;
  const double output_transfer = dev.transfer_seconds(sizeof(double) * 2);
  EXPECT_EQ(served_run, dev.kernel_seconds(q->infer_ops, nn_int8_inference_profile()) +
                            output_transfer);
  EXPECT_LT(served_run,
            dev.kernel_seconds(q->infer_ops, nn_inference_profile()) + output_transfer);
}

// ------------------------------------------------------------ ShardedStore

TEST(ShardedStore, BasicPutGetEraseAndSize) {
  ShardedTensorStore store(/*shards=*/4);
  EXPECT_EQ(store.shard_count(), 4u);
  store.put("a", Tensor({1, 2}, {1, 2}));
  store.put("b", Tensor({1, 1}, {3}));
  EXPECT_TRUE(store.has("a"));
  EXPECT_EQ(store.get("b").at(0, 0), 3.0);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.erase("a"));
  EXPECT_FALSE(store.erase("a"));
  EXPECT_THROW((void)store.get("a"), Error);
}

TEST(ShardedStore, EightThreadsNoLostUpdates) {
  // The satellite stress contract: 8 writer/reader threads hammer the store;
  // afterwards every key must hold exactly the tensor its writer stored.
  ShardedTensorStore store;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeysPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (std::size_t k = 0; k < kKeysPerThread; ++k) {
        const std::string key = "t" + std::to_string(t) + ":" + std::to_string(k);
        const double v = static_cast<double>(t * kKeysPerThread + k);
        store.put(key, Tensor({1, 3}, {v, v, v}));
        // Read-your-write while other threads churn their own keyspaces.
        const Tensor got = store.get(key);
        EXPECT_EQ(got.at(0, 0), v);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(store.size(), kThreads * kKeysPerThread);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < kKeysPerThread; ++k) {
      const std::string key = "t" + std::to_string(t) + ":" + std::to_string(k);
      const double v = static_cast<double>(t * kKeysPerThread + k);
      const Tensor got = store.get(key);
      ASSERT_EQ(got.size(), 3u) << key;
      EXPECT_EQ(got.at(0, 2), v) << key;
    }
  }
}

TEST(ShardedStore, NoTornReadsUnderContendedOverwrites) {
  // Writers overwrite the SAME key with internally-uniform tensors; readers
  // must only ever observe a uniform tensor (value-copy semantics — a torn
  // or in-place-mutated read would mix two writes).
  ShardedTensorStore store;
  std::atomic<bool> go{true};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < 4; ++w) {
    writers.emplace_back([&store, &go, w] {
      for (std::size_t i = 0; i < 300 && go.load(); ++i) {
        const double v = static_cast<double>(w * 1000 + i);
        store.put("hot", Tensor({1, 16}, std::vector<double>(16, v)));
      }
    });
  }
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&store, &go] {
      for (std::size_t i = 0; i < 300; ++i) {
        if (!store.has("hot")) continue;
        Tensor t;
        try {
          t = store.get("hot");
        } catch (const Error&) {
          continue;  // not yet written
        }
        const double first = t.at(0, 0);
        for (std::size_t c = 1; c < t.cols(); ++c) {
          if (t.at(0, c) != first) {
            go.store(false);
            FAIL() << "torn read: " << t.at(0, c) << " vs " << first;
          }
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  for (auto& th : readers) th.join();
}

// ------------------------------------------------- Concurrent orchestration

TEST(Orchestrator, ConcurrentRunModelMatchesSyncResults) {
  Orchestrator orc;
  orc.set_model("m", tiny_model());
  Client client(orc);

  // Sync reference for each distinct input.
  std::vector<Tensor> expected;
  for (int i = 0; i < 16; ++i) {
    const double base = 0.1 * i;
    client.put_tensor("ref_in", Tensor({1, 4}, {base, base + 1, base + 2, base + 3}));
    ASSERT_TRUE(client.run_model("m", "ref_in", "ref_out").is_ok());
    expected.push_back(client.unpack_tensor("ref_out"));
  }

  // 8 threads × 2 requests each on distinct keys, concurrently.
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&orc, t] {
      Client c(orc);
      for (int j = 0; j < 2; ++j) {
        const int i = t * 2 + j;
        const double base = 0.1 * i;
        const std::string in = "in" + std::to_string(i);
        const std::string out = "out" + std::to_string(i);
        c.put_tensor(in, Tensor({1, 4}, {base, base + 1, base + 2, base + 3}));
        EXPECT_TRUE(c.run_model("m", in, out).is_ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int i = 0; i < 16; ++i) {
    const Tensor got = orc.get_tensor("out" + std::to_string(i));
    ASSERT_EQ(got.size(), expected[i].size());
    for (std::size_t c = 0; c < got.size(); ++c) EXPECT_EQ(got[c], expected[i][c]);
  }
  EXPECT_GE(orc.stats().requests_served(), 32u);
}

TEST(Orchestrator, MixedStoreAndInferenceStress) {
  // The satellite's combined stress: 8 threads hammer put/get/delete while
  // also issuing run_model calls; assert correctness of every result.
  Orchestrator orc;
  orc.set_model("m", tiny_model());

  // Reference output for the one shared input row.
  Client ref(orc);
  ref.put_tensor("ref_in", Tensor({1, 4}, {1, 2, 3, 4}));
  ASSERT_TRUE(ref.run_model("m", "ref_in", "ref_out").is_ok());
  const Tensor expected = ref.unpack_tensor("ref_out");

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&orc, &expected, t] {
      Client c(orc);
      const std::string tid = std::to_string(t);
      for (int i = 0; i < 25; ++i) {
        const std::string scratch = "scratch" + tid + "_" + std::to_string(i);
        c.put_tensor(scratch, Tensor({1, 2}, {double(t), double(i)}));
        const std::string in = "sin" + tid + "_" + std::to_string(i);
        const std::string out = "sout" + tid + "_" + std::to_string(i);
        c.put_tensor(in, Tensor({1, 4}, {1, 2, 3, 4}));
        EXPECT_TRUE(c.run_model("m", in, out).is_ok());
        EXPECT_TRUE(orc.has_tensor(scratch));
        orc.delete_tensor(scratch);
        const Tensor got = c.unpack_tensor(out);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got[k], expected[k]);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(orc.stats().requests_served(), 8u * 25u + 1u);
}

// ------------------------------------------------------------ Micro-batching

TEST(Batching, BitwiseIdenticalToPerRowInference) {
  OrchestratorOptions opts;
  opts.max_batch = 16;
  opts.batch_flusher = false;  // flush manually for determinism
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", tiny_model());
  Client client(orc);

  constexpr std::size_t kRows = 50;  // exercises full and partial batches
  std::vector<Tensor> rows;
  std::vector<Tensor> expected;
  Rng rng(7);
  for (std::size_t i = 0; i < kRows; ++i) {
    rows.push_back(Tensor::randn({1, 4}, rng));
    client.put_tensor("in", rows.back());
    ASSERT_TRUE(client.run_model("m", "in", "out").is_ok());
    expected.push_back(client.unpack_tensor("out"));
  }

  std::vector<std::future<Result<Tensor>>> futures;
  futures.reserve(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    futures.push_back(client.run_model_batched("m", rows[i]));
  }
  orc.flush_batches();  // resolve the trailing partial batch

  for (std::size_t i = 0; i < kRows; ++i) {
    Result<Tensor> r = futures[i].get();
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const Tensor got = r.value();
    ASSERT_EQ(got.size(), expected[i].size());
    // Bitwise comparison, not EXPECT_NEAR: the batched GEMM accumulates each
    // row in the same order as the single-row GEMM.
    EXPECT_EQ(std::memcmp(got.data(), expected[i].data(),
                          got.size() * sizeof(double)),
              0)
        << "row " << i << " diverged";
  }
}

// A multi-row keyed tensor is one batch through the same core: each of its
// rows equals, bitwise, the row the micro-batched path returns for it.
TEST(Batching, KeyedTensorRowsMatchBatchedRowsBitwise) {
  OrchestratorOptions opts;
  opts.max_batch = 4;  // the batched side runs full and partial batches
  opts.batch_flusher = false;
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", tiny_model());

  constexpr std::size_t kRows = 10;
  Rng rng(11);
  orc.put_tensor("in", Tensor::randn({kRows, 4}, rng));
  ASSERT_TRUE(orc.run_model("m", "in", "out").is_ok());
  const Tensor in = orc.get_tensor("in");
  const Tensor out = orc.get_tensor("out");
  ASSERT_EQ(out.rows(), kRows);

  std::vector<std::future<Result<Tensor>>> futures;
  for (std::size_t r = 0; r < kRows; ++r) {
    futures.push_back(orc.run_model_batched(
        "m", Tensor({1, 4}, std::vector<double>(in.row(r).begin(), in.row(r).end()))));
  }
  orc.flush_batches();
  for (std::size_t r = 0; r < kRows; ++r) {
    Result<Tensor> got = futures[r].get();
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    ASSERT_EQ(got.value().size(), out.cols());
    EXPECT_EQ(std::memcmp(got.value().data(), out.row(r).data(),
                          out.cols() * sizeof(double)),
              0)
        << "row " << r << " diverged";
  }
}

TEST(Batching, CoalescesUpToMaxBatch) {
  OrchestratorOptions opts;
  opts.max_batch = 16;
  opts.batch_flusher = false;
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", tiny_model());

  std::vector<std::future<Result<Tensor>>> futures;
  for (std::size_t i = 0; i < 40; ++i) {
    futures.push_back(orc.run_model_batched("m", Tensor({1, 4}, {1, 2, 3, 4})));
  }
  orc.flush_batches();
  for (auto& f : futures) EXPECT_TRUE(f.get().is_ok());

  const ServingStatsSnapshot snap = orc.stats().snapshot();
  EXPECT_EQ(snap.requests_served, 40u);
  // 40 rows with max_batch 16 from one thread: 16 + 16 + 8.
  EXPECT_EQ(snap.batches_executed, 3u);
  const obs::HistogramSnapshot sizes =
      orc.stats().metrics().snapshot().histograms.at("serving.batch_rows");
  EXPECT_EQ(sizes.count, 3u);
  EXPECT_EQ(sizes.sum, 40.0);
  EXPECT_EQ(sizes.buckets[obs::LatencyHistogram::bucket_index(16.0)], 2u);
  EXPECT_EQ(sizes.buckets[obs::LatencyHistogram::bucket_index(8.0)], 1u);
  EXPECT_GT(snap.mean_batch_size(), 1.0);
}

TEST(Batching, ConcurrentSubmittersAllResolve) {
  OrchestratorOptions opts;
  opts.max_batch = 8;
  opts.batch_flusher = true;  // background flusher handles stragglers
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", tiny_model());

  Client ref(orc);
  ref.put_tensor("in", Tensor({1, 4}, {1, 2, 3, 4}));
  ASSERT_TRUE(ref.run_model("m", "in", "out").is_ok());
  const Tensor expected = ref.unpack_tensor("out");

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&orc, &expected] {
      Client c(orc);
      for (int i = 0; i < 20; ++i) {
        Result<Tensor> r = c.run_model_batched("m", Tensor({1, 4}, {1, 2, 3, 4})).get();
        ASSERT_TRUE(r.is_ok()) << r.status().to_string();
        const Tensor got = r.value();
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got[k], expected[k]);
      }
    });
  }
  for (auto& th : threads) th.join();
}

TEST(Batching, UnknownModelResolvesTypedStatus) {
  OrchestratorOptions opts;
  opts.batch_flusher = false;
  Orchestrator orc(DeviceModel{}, opts);
  auto f = orc.run_model_batched("nope", Tensor({1, 4}, {1, 2, 3, 4}));
  orc.flush_batches();
  EXPECT_EQ(f.get().code(), StatusCode::kModelUnavailable);
}

TEST(Batching, ModelRemovedBeforeDispatchResolvesTypedStatus) {
  // The model exists at submit time but is gone at batch-execution time: the
  // failure must surface as a typed status through every affected future.
  OrchestratorOptions opts;
  opts.batch_flusher = false;
  Orchestrator orc(DeviceModel{}, opts);
  BatchingQueue queue(
      [](const std::string& name, const Tensor& batch,
         const std::vector<obs::SpanContext>&) {
        // Mimics the orchestrator's BatchFn against an empty registry.
        return BatchingQueue::RowResults(
            batch.rows(), Result<Tensor>(Status(StatusCode::kModelUnavailable,
                                                "no model named '" + name + "'")));
      },
      BatchingOptions{.max_batch = 8, .flusher = false});
  auto f1 = queue.submit("gone", Tensor({1, 4}, {1, 2, 3, 4}));
  auto f2 = queue.submit("gone", Tensor({1, 4}, {5, 6, 7, 8}));
  queue.flush();
  EXPECT_EQ(f1.get().code(), StatusCode::kModelUnavailable);
  EXPECT_EQ(f2.get().code(), StatusCode::kModelUnavailable);
}

// Every batch runs at a team of one for any work size, whichever thread
// serves it: the flusher, a client whose submit fills the batch, or a keyed
// caller. The calling thread gets its own budget back afterwards.
TEST(Orchestrator, EveryBatchRunsAtATeamOfOne) {
  std::atomic<int> team{0};
  std::atomic<bool> on_submitter{true};
  const std::thread::id submitter = std::this_thread::get_id();
  auto m = tiny_model();
  m->encode = [&](const Tensor& x) {
    team = parallel_team_size(std::size_t{1} << 40, std::size_t{1} << 20);
    on_submitter = std::this_thread::get_id() == submitter;
    return x;
  };
  const int saved = omp_get_max_threads();
  // libgomp is not TSan-instrumented: a TSan build keeps the process budget.
  const int budget = team_test::kThreadSanitizer ? saved : 4;
  omp_set_num_threads(budget);
  const Tensor row({1, 4}, {1, 2, 3, 4});

  {  // a partial batch, dispatched by the flusher
    Orchestrator orc;
    orc.set_model("m", m);
    team = 0;
    ASSERT_TRUE(orc.run_model_batched("m", row).get().is_ok());
    EXPECT_FALSE(on_submitter.load());
    EXPECT_EQ(team.load(), 1);
  }
  {  // an inline leader: the second submit fills max_batch on this thread
    OrchestratorOptions opts;
    opts.max_batch = 2;
    opts.batch_flusher = false;
    Orchestrator orc(DeviceModel{}, opts);
    orc.set_model("m", m);
    team = 0;
    auto first = orc.run_model_batched("m", row);
    auto second = orc.run_model_batched("m", row);
    ASSERT_TRUE(first.get().is_ok());
    ASSERT_TRUE(second.get().is_ok());
    EXPECT_TRUE(on_submitter.load());
    EXPECT_EQ(team.load(), 1);
    EXPECT_EQ(omp_get_max_threads(), budget);
  }
  {  // a keyed run_model on the caller's thread
    Orchestrator orc;
    orc.set_model("m", m);
    orc.put_tensor("in", row);
    team = 0;
    ASSERT_TRUE(orc.run_model("m", "in", "out").is_ok());
    EXPECT_TRUE(on_submitter.load());
    EXPECT_EQ(team.load(), 1);
    EXPECT_EQ(omp_get_max_threads(), budget);
  }
  omp_set_num_threads(saved);
}

// The flusher sleeps while nothing is pending: an idle queue sweeps zero
// times however long it waits, and one partial batch costs one sweep.
TEST(Batching, IdleFlusherDoesNotSweep) {
  BatchingQueue queue(
      [](const std::string&, const Tensor& batch, const std::vector<obs::SpanContext>&) {
        return BatchingQueue::RowResults(batch.rows(), Result<Tensor>(batch));
      },
      BatchingOptions{.max_batch = 32, .flusher = true});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(queue.flusher_sweeps(), 0u);

  ASSERT_TRUE(queue.submit("m", Tensor({1, 4}, {1, 2, 3, 4})).get().is_ok());
  EXPECT_EQ(queue.flusher_sweeps(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(queue.flusher_sweeps(), 1u);  // idle again
}

// ----------------------------------------------- Work-conserving dispatch

// Upper bound on any wait below. It only turns a hang into a failure; no
// test asserts on how fast a batch dispatches.
constexpr auto kHangGuard = std::chrono::seconds(30);

// A run_batch that records each batch's size and executing thread, and
// holds the first `held` batches inside run_batch until release(index), so
// a test decides exactly when the flusher or a leader is busy.
class GatedBatches {
 public:
  explicit GatedBatches(std::size_t held) : released_(held, false) {}

  BatchingQueue::BatchFn fn() {
    return [this](const std::string&, const Tensor& batch,
                  const std::vector<obs::SpanContext>&) {
      std::unique_lock<std::mutex> lock(mu_);
      const std::size_t index = sizes_.size();
      sizes_.push_back(batch.rows());
      threads_.push_back(std::this_thread::get_id());
      cv_.notify_all();
      (void)cv_.wait_for(lock, kHangGuard, [&] {
        return index >= released_.size() || released_[index];
      });
      return BatchingQueue::RowResults(batch.rows(), Result<Tensor>(batch));
    };
  }

  /// True once `n` batches have entered run_batch.
  bool wait_entered(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kHangGuard, [&] { return sizes_.size() >= n; });
  }

  void release(std::size_t index) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      released_[index] = true;
    }
    cv_.notify_all();
  }

  std::vector<std::size_t> sizes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return sizes_;
  }

  std::thread::id thread(std::size_t index) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return threads_.at(index);
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::size_t> sizes_;
  std::vector<std::thread::id> threads_;
  std::vector<bool> released_;
};

Tensor numbered_row(double id) { return Tensor({1, 4}, {id, id, id, id}); }

// With nothing else pending, one row is a batch: the flusher dispatches it
// at once, without flush() and without max_batch.
TEST(Batching, LoneRowResolvesWithoutFlushOrFullBatch) {
  GatedBatches gate(0);
  BatchingQueue queue(gate.fn(), BatchingOptions{.max_batch = 32});
  auto f = queue.submit("m", numbered_row(1));
  ASSERT_EQ(f.wait_for(kHangGuard), std::future_status::ready);
  EXPECT_TRUE(f.get().is_ok());
  EXPECT_EQ(gate.sizes(), std::vector<std::size_t>{1});
  EXPECT_EQ(queue.flusher_sweeps(), 1u);
}

// Group commit: rows B, C and D arrive while the flusher is inside row A's
// batch, and its next sweep takes them as exactly one batch of 3.
TEST(Batching, RowsArrivingDuringAFlushCoalesceIntoOneBatch) {
  GatedBatches gate(1);
  BatchingQueue queue(gate.fn(), BatchingOptions{.max_batch = 32});
  auto a = queue.submit("m", numbered_row(0));
  ASSERT_TRUE(gate.wait_entered(1));  // the flusher is held inside A's batch

  std::vector<std::future<Result<Tensor>>> later;
  for (int id = 1; id <= 3; ++id) later.push_back(queue.submit("m", numbered_row(id)));
  EXPECT_EQ(queue.flusher_sweeps(), 1u);
  gate.release(0);

  for (auto& f : later) {
    ASSERT_EQ(f.wait_for(kHangGuard), std::future_status::ready);
    Result<Tensor> r = f.get();
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const Tensor batch = r.value();
    ASSERT_EQ(batch.rows(), 3u);  // B, C, D in submit order
    EXPECT_EQ(batch.at(0, 0), 1.0);
    EXPECT_EQ(batch.at(2, 0), 3.0);
  }
  EXPECT_TRUE(a.get().is_ok());
  EXPECT_EQ(gate.sizes(), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(gate.thread(0), gate.thread(1));
  EXPECT_EQ(queue.flusher_sweeps(), 2u);
}

// "Leader executes" is unchanged at max_batch, and a row that arrives while
// the leader is still inside its full batch is dispatched by the flusher,
// not left for the leader.
TEST(Batching, RowsArrivingWhileALeaderExecutesGoToTheFlusher) {
  GatedBatches gate(2);  // hold the flusher's first batch and the leader's
  BatchingQueue queue(gate.fn(), BatchingOptions{.max_batch = 2});
  auto a = queue.submit("m", numbered_row(0));
  ASSERT_TRUE(gate.wait_entered(1));  // batch 0: the flusher, held

  auto b = queue.submit("m", numbered_row(1));
  auto leader = std::async(std::launch::async,
                           [&queue] { return queue.submit("m", numbered_row(2)); });
  ASSERT_TRUE(gate.wait_entered(2));  // batch 1: {B, C} on the leader, held

  auto d = queue.submit("m", numbered_row(3));
  gate.release(0);
  ASSERT_EQ(d.wait_for(kHangGuard), std::future_status::ready);
  EXPECT_TRUE(d.get().is_ok());

  gate.release(1);
  ASSERT_EQ(leader.wait_for(kHangGuard), std::future_status::ready);
  EXPECT_TRUE(leader.get().get().is_ok());
  EXPECT_TRUE(b.get().is_ok());
  EXPECT_TRUE(a.get().is_ok());

  EXPECT_EQ(gate.sizes(), (std::vector<std::size_t>{1, 2, 1}));
  EXPECT_EQ(gate.thread(2), gate.thread(0));  // D ran on the flusher
  EXPECT_NE(gate.thread(1), gate.thread(0));  // the leader ran its own batch
  EXPECT_NE(gate.thread(1), std::this_thread::get_id());
  EXPECT_EQ(queue.flusher_sweeps(), 2u);
}

// serving.batch_wait_seconds takes one sample per dispatched batch, whoever
// dispatches it: leaders, flush() and the flusher.
TEST(Batching, BatchWaitHistogramCountsEveryBatch) {
  OrchestratorOptions opts;
  opts.max_batch = 16;
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", tiny_model());

  std::vector<std::future<Result<Tensor>>> futures;
  for (std::size_t i = 0; i < 40; ++i) {
    futures.push_back(orc.run_model_batched("m", Tensor({1, 4}, {1, 2, 3, 4})));
  }
  orc.flush_batches();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(kHangGuard), std::future_status::ready);
    EXPECT_TRUE(f.get().is_ok());
  }

  const obs::RegistrySnapshot snap = orc.stats().metrics().snapshot();
  ASSERT_TRUE(snap.histograms.contains("serving.batch_wait_seconds"));
  const obs::HistogramSnapshot& wait = snap.histograms.at("serving.batch_wait_seconds");
  EXPECT_GE(orc.stats().batches_executed(), 3u);
  EXPECT_EQ(wait.count, orc.stats().batches_executed());
  EXPECT_GE(wait.min, 0.0);
}

// ------------------------------------------------------------- ServingStats

TEST(ServingStats, CountersHistogramAndPercentiles) {
  ServingStats stats;
  stats.record_request({1e-6, 0.0, 2e-6, 3e-6});
  stats.record_request({3e-6, 0.0, 2e-6, 5e-6});
  stats.record_batch(2);
  stats.record_qoi_fallback();

  EXPECT_EQ(stats.requests_served(), 2u);
  EXPECT_EQ(stats.batches_executed(), 1u);
  EXPECT_EQ(stats.qoi_fallbacks(), 1u);
  EXPECT_DOUBLE_EQ(stats.latency_percentile("fetch", 0.0), 1e-6);
  EXPECT_DOUBLE_EQ(stats.latency_percentile("fetch", 100.0), 3e-6);
  EXPECT_DOUBLE_EQ(stats.latency_percentile("load", 50.0), 2e-6);
  EXPECT_DOUBLE_EQ(stats.latency_percentile("total", 100.0), 1e-5);
  EXPECT_THROW((void)stats.latency_percentile("nope", 50.0), Error);

  const ServingStatsSnapshot snap = stats.snapshot();
  EXPECT_DOUBLE_EQ(snap.mean_batch_size(), 2.0);

  stats.reset();
  EXPECT_EQ(stats.requests_served(), 0u);
  EXPECT_DOUBLE_EQ(stats.latency_percentile("fetch", 50.0), 0.0);
}

TEST(ServingStats, ThreadSafeUnderConcurrentRecording) {
  ServingStats stats;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&stats] {
      for (int i = 0; i < 100; ++i) {
        stats.record_request({1e-6, 0.0, 1e-6, 1e-6});
        if (i % 10 == 0) stats.record_batch(10);
        (void)stats.requests_served();  // concurrent reader
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(stats.requests_served(), 800u);
  EXPECT_EQ(stats.batches_executed(), 80u);
}

TEST(ServingStats, PercentileReadsDoNotBlockRecording) {
  // Percentiles now come from fixed-bucket histograms: a reader computing
  // them holds no lock the recording hot path needs, so recorders lose
  // nothing no matter how hard the stats are hammered mid-flight.
  ServingStats stats;
  constexpr int kRecorders = 4;
  constexpr int kPerRecorder = 5000;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        (void)stats.latency_percentile("total", 99.0);
        (void)stats.latency_percentile("run", 50.0);
        (void)stats.snapshot();
      }
    });
  }
  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&stats] {
      for (int i = 0; i < kPerRecorder; ++i) {
        stats.record_request({1e-6, 0.0, 1e-6, 1e-6 * (1 + i % 7)});
      }
    });
  }
  for (auto& th : recorders) th.join();
  done.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  EXPECT_EQ(stats.requests_served(),
            static_cast<std::uint64_t>(kRecorders) * kPerRecorder);
  EXPECT_EQ(stats.metrics().snapshot().histograms.at("serving.latency.total").count,
            static_cast<std::uint64_t>(kRecorders) * kPerRecorder);
  const double p99 = stats.latency_percentile("total", 99.0);
  EXPECT_GT(p99, 0.0);
  EXPECT_LE(p99, stats.latency_percentile("total", 100.0));
}

}  // namespace
}  // namespace ahn::runtime
