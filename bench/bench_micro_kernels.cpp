// Engineering micro-benchmarks (google-benchmark) for the hot kernels:
// the diffusion strategies (with per-kernel work counters), QueuePush, TNAM
// construction, and SNAS evaluation. Not tied to a paper table; used to
// track kernel-level regressions.
//
// Besides the google-benchmark table, the binary emits BENCH_diffusion.json
// (per-kernel ns/edge, pushes, edge_work, and the workspace allocation
// counter) so the diffusion hot path's perf trajectory is machine-diffable
// across PRs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "attr/tnam.hpp"
#include "bench_util.hpp"
#include "common/cancel.hpp"
#include "common/timer.hpp"
#include "core/laca.hpp"
#include "diffusion/diffusion.hpp"
#include "diffusion/push.hpp"
#include "eval/datasets.hpp"

namespace laca {
namespace {

// Attaches work counters from the last run's stats: total edge traversals
// and their processing rate (the hot path's real throughput number).
void SetDiffusionCounters(benchmark::State& state,
                          const DiffusionStats& stats) {
  state.counters["edge_work"] = static_cast<double>(stats.push_work);
  state.counters["iterations"] = static_cast<double>(stats.iterations);
  state.counters["dense_rounds"] = static_cast<double>(stats.dense_rounds);
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(stats.push_work),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_GreedyDiffuse(benchmark::State& state) {
  const Dataset& ds = GetDataset("pubmed-sim");
  DiffusionEngine engine(ds.data.graph);
  DiffusionOptions opts;
  opts.epsilon = 1.0 / static_cast<double>(state.range(0));
  NodeId seed = SampleSeeds(ds, 1)[0];
  DiffusionStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Greedy(SparseVector::Unit(seed), opts, &stats));
  }
  SetDiffusionCounters(state, stats);
}
BENCHMARK(BM_GreedyDiffuse)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_AdaptiveDiffuse(benchmark::State& state) {
  const Dataset& ds = GetDataset("pubmed-sim");
  DiffusionEngine engine(ds.data.graph);
  DiffusionOptions opts;
  opts.epsilon = 1.0 / static_cast<double>(state.range(0));
  NodeId seed = SampleSeeds(ds, 1)[0];
  DiffusionStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Adaptive(SparseVector::Unit(seed), opts, &stats));
  }
  SetDiffusionCounters(state, stats);
}
BENCHMARK(BM_AdaptiveDiffuse)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

// The cancellation-poll tax on the serial hot path: same kernel, but with an
// armed far-future deadline so every poll site actually reads the clock's
// atomic gate. The PR's acceptance bound is <2% over BM_AdaptiveDiffuse.
void BM_AdaptiveDiffuseCancelPoll(benchmark::State& state) {
  const Dataset& ds = GetDataset("pubmed-sim");
  DiffusionEngine engine(ds.data.graph);
  CancelToken token;
  token.ArmDeadline(std::chrono::steady_clock::now() +
                    std::chrono::hours(24));
  DiffusionOptions opts;
  opts.epsilon = 1.0 / static_cast<double>(state.range(0));
  opts.cancel = &token;
  NodeId seed = SampleSeeds(ds, 1)[0];
  DiffusionStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Adaptive(SparseVector::Unit(seed), opts, &stats));
  }
  SetDiffusionCounters(state, stats);
}
BENCHMARK(BM_AdaptiveDiffuseCancelPoll)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000);

void BM_NonGreedyDiffuse(benchmark::State& state) {
  const Dataset& ds = GetDataset("pubmed-sim");
  DiffusionEngine engine(ds.data.graph);
  DiffusionOptions opts;
  opts.epsilon = 1.0 / static_cast<double>(state.range(0));
  NodeId seed = SampleSeeds(ds, 1)[0];
  DiffusionStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.NonGreedy(SparseVector::Unit(seed), opts, &stats));
  }
  SetDiffusionCounters(state, stats);
}
BENCHMARK(BM_NonGreedyDiffuse)->Arg(100'000)->Arg(1'000'000);

void BM_QueuePush(benchmark::State& state) {
  const Dataset& ds = GetDataset("pubmed-sim");
  DiffusionWorkspace workspace(ds.data.graph);
  QueuePushOptions opts;
  opts.epsilon = 1.0 / static_cast<double>(state.range(0));
  NodeId seed = SampleSeeds(ds, 1)[0];
  uint64_t edge_work = 0, pushes = 0;
  for (auto _ : state) {
    QueuePushResult result =
        QueuePush(ds.data.graph, SparseVector::Unit(seed), opts, &workspace);
    edge_work = result.edge_work;
    pushes = result.pushes;
    benchmark::DoNotOptimize(result);
  }
  state.counters["edge_work"] = static_cast<double>(edge_work);
  state.counters["pushes"] = static_cast<double>(pushes);
  state.counters["edges_per_s"] =
      benchmark::Counter(static_cast<double>(edge_work),
                         benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_QueuePush)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_TnamBuildCosine(benchmark::State& state) {
  const Dataset& ds = GetDataset("cora-sim");
  TnamOptions opts;
  opts.k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tnam::Build(ds.data.attributes, opts));
  }
}
BENCHMARK(BM_TnamBuildCosine)->Arg(16)->Arg(32)->Arg(64);

void BM_TnamBuildExpCosine(benchmark::State& state) {
  const Dataset& ds = GetDataset("cora-sim");
  TnamOptions opts;
  opts.k = static_cast<int>(state.range(0));
  opts.metric = SnasMetric::kExpCosine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tnam::Build(ds.data.attributes, opts));
  }
}
BENCHMARK(BM_TnamBuildExpCosine)->Arg(32);

void BM_LacaOnline(benchmark::State& state) {
  const Dataset& ds = GetDataset("pubmed-sim");
  TnamOptions topts;
  static Tnam tnam = Tnam::Build(ds.data.attributes, topts);
  Laca laca(ds.data.graph, &tnam);
  LacaOptions opts;
  opts.epsilon = 1.0 / static_cast<double>(state.range(0));
  NodeId seed = SampleSeeds(ds, 1)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(laca.ComputeBdd(seed, opts));
  }
}
BENCHMARK(BM_LacaOnline)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_SnasDot(benchmark::State& state) {
  const Dataset& ds = GetDataset("cora-sim");
  TnamOptions topts;
  static Tnam tnam = Tnam::Build(ds.data.attributes, topts);
  NodeId i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tnam.Snas(i, (i * 31 + 7) % tnam.num_rows()));
    i = (i + 1) % tnam.num_rows();
  }
}
BENCHMARK(BM_SnasDot);

// ---------------------------------------------------------------------------
// BENCH_diffusion.json: per-kernel ns/edge on the reference workload
// (pubmed-sim, eps = 1e-5 — the workload of the tentpole acceptance
// criterion), plus the zero-allocation witness.

constexpr int kJsonReps = 20;

void EmitDiffusionJson() {
  const Dataset& ds = GetDataset("pubmed-sim");
  const Graph& g = ds.data.graph;
  const double epsilon = 1e-5;
  NodeId seed = SampleSeeds(ds, 1)[0];
  bench::JsonEmitter json("diffusion_kernels");

  DiffusionEngine engine(g);
  DiffusionOptions opts;
  opts.epsilon = epsilon;
  const char* names[] = {"greedy", "adaptive", "nongreedy"};
  for (int k = 0; k < 3; ++k) {
    DiffusionStats stats;
    auto run = [&] {
      switch (k) {
        case 0: return engine.Greedy(SparseVector::Unit(seed), opts, &stats);
        case 1: return engine.Adaptive(SparseVector::Unit(seed), opts, &stats);
        default:
          return engine.NonGreedy(SparseVector::Unit(seed), opts, &stats);
      }
    };
    run();  // warm-up
    const uint64_t allocs_before = engine.workspace().alloc_events();
    Timer timer;
    for (int rep = 0; rep < kJsonReps; ++rep) run();
    const double sec = timer.ElapsedSeconds() / kJsonReps;
    json.BeginRecord()
        .Str("kernel", names[k])
        .Str("dataset", "pubmed-sim")
        .Num("epsilon", epsilon)
        .Num("seconds", sec)
        .Int("edge_work", stats.push_work)
        .Int("iterations", stats.iterations)
        .Int("dense_rounds", stats.dense_rounds)
        .Num("ns_per_edge",
             sec * 1e9 / static_cast<double>(stats.push_work ? stats.push_work
                                                             : 1))
        .Int("steady_state_allocs",
             engine.workspace().alloc_events() - allocs_before);
  }

  // Cancellation-poll overhead witness: the adaptive kernel with an armed
  // far-future deadline, paired against a plain run measured back-to-back.
  {
    DiffusionStats stats;
    auto time_adaptive = [&](const CancelToken* token) {
      DiffusionOptions topts = opts;
      topts.cancel = token;
      (void)engine.Adaptive(SparseVector::Unit(seed), topts, &stats);  // warm
      Timer t;
      for (int rep = 0; rep < kJsonReps; ++rep) {
        (void)engine.Adaptive(SparseVector::Unit(seed), topts, &stats);
      }
      return t.ElapsedSeconds() / kJsonReps;
    };
    CancelToken token;
    token.ArmDeadline(std::chrono::steady_clock::now() +
                      std::chrono::hours(24));
    const double plain_sec = time_adaptive(nullptr);
    // The armed-token path must stay allocation-flat too (the CI smoke
    // asserts every record's counter; this one was emitted without it and
    // tripped the gate).
    const uint64_t allocs_before = engine.workspace().alloc_events();
    const double polled_sec = time_adaptive(&token);
    json.BeginRecord()
        .Str("kernel", "adaptive_cancelpoll")
        .Str("dataset", "pubmed-sim")
        .Num("epsilon", epsilon)
        .Num("seconds", polled_sec)
        .Num("baseline_seconds", plain_sec)
        .Num("poll_overhead_pct",
             plain_sec > 0.0 ? (polled_sec / plain_sec - 1.0) * 100.0 : 0.0)
        .Int("edge_work", stats.push_work)
        .Int("steady_state_allocs",
             static_cast<int64_t>(engine.workspace().alloc_events() -
                                  allocs_before));
  }

  DiffusionWorkspace workspace(g);
  QueuePushOptions popts;
  popts.epsilon = epsilon;
  QueuePush(g, SparseVector::Unit(seed), popts, &workspace);  // warm-up
  const uint64_t allocs_before = workspace.alloc_events();
  QueuePushResult result;
  Timer timer;
  for (int rep = 0; rep < kJsonReps; ++rep) {
    result = QueuePush(g, SparseVector::Unit(seed), popts, &workspace);
  }
  const double sec = timer.ElapsedSeconds() / kJsonReps;
  json.BeginRecord()
      .Str("kernel", "queue_push")
      .Str("dataset", "pubmed-sim")
      .Num("epsilon", epsilon)
      .Num("seconds", sec)
      .Int("edge_work", result.edge_work)
      .Int("pushes", result.pushes)
      .Num("ns_per_edge",
           sec * 1e9 /
               static_cast<double>(result.edge_work ? result.edge_work : 1))
      .Int("steady_state_allocs", workspace.alloc_events() - allocs_before);

  json.WriteFile("BENCH_diffusion.json");
}

}  // namespace
}  // namespace laca

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  laca::EmitDiffusionJson();
  return 0;
}
