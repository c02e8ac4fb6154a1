// Component micro-benchmarks (google-benchmark).
//
// Substantiates the paper's §3.3 complexity claim: Glimpse's threshold-based
// validity predictors are O(1) per configuration versus Chameleon's
// O(n*k*iters) clustering-based sampling — plus throughput numbers for the
// simulator, featurizers, cost models and annealing that set the bench
// suite's wall-clock budget.
#include <benchmark/benchmark.h>

#include "baselines/autotvm.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "gpusim/perf_model.hpp"
#include "hwspec/database.hpp"
#include "ml/kmeans.hpp"
#include "searchspace/models.hpp"
#include "tuning/dataset.hpp"
#include "tuning/sa.hpp"

namespace {

using namespace glimpse;

// ---- shared fixtures (built once; small training sizes for fast startup) ----

const searchspace::Task& conv_task() {
  static const searchspace::Task task = [] {
    searchspace::ConvShape s;
    s.c = 512; s.h = 7; s.w = 7; s.k = 512; s.kh = 3; s.kw = 3; s.stride = 1; s.pad = 1;
    return searchspace::Task("bench.conv", searchspace::TemplateKind::kConv2d, s);
  }();
  return task;
}

const hwspec::GpuSpec& gpu() { return *hwspec::find_gpu("RTX 2080 Ti"); }

struct MicroSetup {
  std::vector<const searchspace::Task*> tasks{&conv_task()};
  std::vector<const hwspec::GpuSpec*> train_gpus =
      hwspec::training_gpus({"RTX 2080 Ti"});
  tuning::OfflineDataset dataset;
  core::GlimpseArtifacts artifacts;

  MicroSetup() {
    Rng rng(1);
    dataset = tuning::OfflineDataset::generate(tasks, train_gpus, 100, rng);
    core::PriorTrainOptions po;
    po.epochs = 6;
    core::MetaTrainOptions mo;
    mo.max_groups = 8;
    mo.epochs = 6;
    artifacts = core::pretrain_glimpse(dataset, train_gpus,
                                       core::default_blueprint_dim(), rng, po, mo);
  }
};

MicroSetup& setup() {
  static MicroSetup s;
  return s;
}

std::vector<searchspace::Config> random_configs(std::size_t n) {
  Rng rng(2);
  std::vector<searchspace::Config> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(conv_task().space().random_config(rng));
  return out;
}

// ---- simulator ----

void BM_SimulatorEstimate(benchmark::State& state) {
  auto configs = random_configs(256);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpusim::estimate(conv_task(), configs[i++ % 256], gpu()));
  }
}
BENCHMARK(BM_SimulatorEstimate);

void BM_ConfigFeaturize(benchmark::State& state) {
  auto configs = random_configs(256);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(searchspace::config_features(conv_task(), configs[i++ % 256]));
  }
}
BENCHMARK(BM_ConfigFeaturize);

void BM_BlueprintEncode(benchmark::State& state) {
  const auto& encoder = *setup().artifacts.encoder;  // setup cost untimed
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(gpu()));
  }
}
BENCHMARK(BM_BlueprintEncode);

// ---- §3.3 headline: O(1) threshold voting vs O(n*k*I) clustering ----

void BM_GlimpseValiditySampling(benchmark::State& state) {
  // Per-candidate cost of Hardware-Aware Sampling at batch size n: n O(1)
  // accept tests against precomputed thresholds.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto configs = random_configs(n);
  auto thresholds =
      setup().artifacts.validity->thresholds_for(setup().artifacts.encoder->encode(gpu()));
  for (auto _ : state) {
    int accepted = 0;
    for (const auto& c : configs)
      accepted += setup().artifacts.validity->accept(conv_task(), c, thresholds);
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_GlimpseValiditySampling)->Arg(32)->Arg(96)->Arg(288);

void BM_ChameleonClusteringSampling(benchmark::State& state) {
  // Chameleon's adaptive sampling: k-means over the candidate pool's
  // feature rows (k = 8 measurement slots).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto configs = random_configs(n);
  std::vector<linalg::Vector> rows;
  rows.reserve(n);
  for (const auto& c : configs)
    rows.push_back(searchspace::config_features(conv_task(), c));
  linalg::Matrix x = linalg::Matrix::from_rows(rows);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(x, 8, rng));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_ChameleonClusteringSampling)->Arg(32)->Arg(96)->Arg(288);

// ---- cost models ----

void BM_GbtCostModelPredict(benchmark::State& state) {
  Rng rng(4);
  auto configs = random_configs(256);
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  for (const auto& c : configs) {
    rows.push_back(searchspace::config_features(conv_task(), c));
    auto e = gpusim::estimate(conv_task(), c, gpu());
    y.push_back(e.valid ? e.gflops : 0.0);
  }
  ml::GbtRegressor gbt;
  gbt.fit(linalg::Matrix::from_rows(rows), y, rng);
  std::size_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(gbt.predict(rows[i++ % 256]));
}
BENCHMARK(BM_GbtCostModelPredict);

/// 128 measured configs as surrogate training data (features, scaled GFLOPS).
struct SurrogateData {
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  SurrogateData() {
    for (const auto& c : random_configs(128)) {
      rows.push_back(searchspace::config_features(conv_task(), c));
      auto e = gpusim::estimate(conv_task(), c, gpu());
      y.push_back(e.valid ? e.gflops / 1000.0 : 0.0);
    }
  }
};

void BM_NeuralSurrogatePredict(benchmark::State& state) {
  Rng rng(5);
  SurrogateData data;
  core::NeuralSurrogate surrogate(data.rows[0].size(), rng);
  surrogate.fit(linalg::Matrix::from_rows(data.rows), data.y, rng);
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(surrogate.predict(data.rows[i++ % 128]));
}
BENCHMARK(BM_NeuralSurrogatePredict);

void BM_NeuralSurrogateFit(benchmark::State& state) {
  // One online refit (Algorithm 1's per-round surrogate update) on 128
  // measured configs: every ensemble member, every epoch.
  Rng rng(5);
  SurrogateData data;
  const linalg::Matrix x = linalg::Matrix::from_rows(data.rows);
  core::NeuralSurrogate surrogate(x.cols(), rng);
  for (auto _ : state) {
    surrogate.fit(x, data.y, rng);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_NeuralSurrogateFit);

// ---- search machinery ----

void BM_SimulatedAnnealingRound(benchmark::State& state) {
  // One AutoTVM-style planning round: SA over a trivial score.
  Rng rng(6);
  tuning::ScoreFn score = [](const searchspace::Config& c) {
    return static_cast<double>(c[0] % 7);
  };
  tuning::SaOptions opts;
  opts.num_chains = 48;
  opts.num_steps = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tuning::simulated_annealing(conv_task().space(), score, 48, rng, opts));
  }
}
BENCHMARK(BM_SimulatedAnnealingRound);

void BM_PriorGenerate(benchmark::State& state) {
  // One-off prior generation per layer (paper: "negligible").
  auto bp = setup().artifacts.encoder->encode(gpu());
  const auto& prior = *setup().artifacts.prior;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prior.generate(conv_task(), bp));
  }
}
BENCHMARK(BM_PriorGenerate);

void BM_PriorTopConfigs(benchmark::State& state) {
  auto bp = setup().artifacts.encoder->encode(gpu());
  auto prior = setup().artifacts.prior->generate(conv_task(), bp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prior.top_configs(32));
  }
}
BENCHMARK(BM_PriorTopConfigs);

void BM_MetaOptimizerScore(benchmark::State& state) {
  auto bp = setup().artifacts.encoder->encode(gpu());
  auto configs = random_configs(64);
  std::vector<linalg::Vector> derived;
  for (const auto& c : configs)
    derived.push_back(core::MetaOptimizer::derived_block(conv_task(), c));
  core::MetaFeatures f{.surrogate_mean = 0.5, .surrogate_std = 0.1, .prior_z = 0.0,
                       .progress = 0.5};
  const auto& meta = *setup().artifacts.meta;
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(meta.score(f, bp, derived[i++ % 64]));
}
BENCHMARK(BM_MetaOptimizerScore);

void BM_MetaOptimizerScoreBatch(benchmark::State& state) {
  // One annealing step's fresh candidates through one batched forward pass;
  // items/s compares per candidate with BM_MetaOptimizerScore.
  const auto n = static_cast<std::size_t>(state.range(0));
  auto bp = setup().artifacts.encoder->encode(gpu());
  std::vector<linalg::Vector> derived;
  for (const auto& c : random_configs(n))
    derived.push_back(core::MetaOptimizer::derived_block(conv_task(), c));
  std::vector<std::span<const double>> spans(derived.begin(), derived.end());
  std::vector<core::MetaFeatures> features(
      n, {.surrogate_mean = 0.5, .surrogate_std = 0.1, .prior_z = 0.0, .progress = 0.5});
  const auto& meta = *setup().artifacts.meta;
  for (auto _ : state) benchmark::DoNotOptimize(meta.score_batch(features, bp, spans));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MetaOptimizerScoreBatch)->Arg(8)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
