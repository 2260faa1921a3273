#include "core/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "corpus/synthetic.h"
#include "dist/cluster_sim.h"
#include "dist/partitioner.h"
#include "obs/trace.h"

namespace warplda {
namespace {

Corpus TestCorpus() {
  SyntheticConfig config;
  config.num_docs = 140;
  config.vocab_size = 260;
  config.num_topics = 6;
  config.mean_doc_length = 22;
  config.alpha = 0.1;
  config.seed = 91;
  return GenerateLdaCorpus(config).corpus;
}

LdaConfig TestConfig() {
  LdaConfig config = LdaConfig::PaperDefaults(10);
  config.seed = 4242;
  config.mh_steps = 2;
  return config;
}

std::vector<int64_t> Histogram(const std::vector<TopicId>& assignments,
                               uint32_t num_topics) {
  std::vector<int64_t> counts(num_topics, 0);
  for (TopicId t : assignments) ++counts[t];
  return counts;
}

TEST(ParallelExecutorTest, RunsEveryTaskExactlyOnceWithValidWorkerIds) {
  ParallelExecutor executor(4);
  EXPECT_EQ(executor.num_threads(), 4u);
  constexpr uint32_t kTasks = 223;  // more tasks than threads, odd count
  std::vector<std::atomic<uint32_t>> ran(kTasks);
  std::atomic<bool> worker_in_range{true};
  executor.Run(kTasks, [&](uint32_t worker, uint32_t task) {
    if (worker >= 4) worker_in_range = false;
    ran[task].fetch_add(1);
  });
  EXPECT_TRUE(worker_in_range);
  for (uint32_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(ran[t].load(), 1u) << "task " << t;
  }
  // The pool is reusable after a run.
  std::atomic<uint32_t> total{0};
  executor.Run(10, [&](uint32_t, uint32_t task) { total += task; });
  EXPECT_EQ(total.load(), 45u);
}

TEST(ParallelExecutorTest, SingleThreadRunsInlineAndInOrder) {
  ParallelExecutor executor(1);
  std::vector<uint32_t> order;
  executor.Run(8, [&](uint32_t worker, uint32_t task) {
    EXPECT_EQ(worker, 0u);
    order.push_back(task);  // no synchronization: must be the calling thread
  });
  std::vector<uint32_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelExecutorTest, FirstTaskExceptionPropagatesAndPoolSurvives) {
  ParallelExecutor executor(3);
  EXPECT_THROW(
      executor.Run(50,
                   [&](uint32_t, uint32_t task) {
                     if (task == 17) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  std::atomic<uint32_t> count{0};
  executor.Run(50, [&](uint32_t, uint32_t) { ++count; });
  EXPECT_EQ(count.load(), 50u);
}

// Inline (1-thread) execution honors the same contract: the remaining tasks
// still run and the first exception is rethrown afterwards.
TEST(ParallelExecutorTest, SingleThreadExceptionRunsRemainingTasks) {
  ParallelExecutor executor(1);
  std::vector<char> ran(10, 0);
  EXPECT_THROW(
      executor.Run(10,
                   [&](uint32_t, uint32_t task) {
                     ran[task] = 1;
                     if (task == 3) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  EXPECT_EQ(std::count(ran.begin(), ran.end(), 1), 10);
}

// A sweep that throws mid-stage must not wedge the sampler: the driver
// aborts the sweep and the sampler stays fully usable.
TEST(ParallelSweepTest, AbortedSweepLeavesSamplerUsable) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  WarpLdaSampler sampler;
  sampler.Init(corpus, config);
  SweepPlan plan = MakeSweepPlan(corpus, 2, 2);

  // Worker 5 is out of range for the default 1-worker scratch, so the first
  // RunBlock of ParallelExecutor-free manual driving throws mid-stage.
  sampler.BeginSweep(plan);
  sampler.RunBlock(0, 0);
  EXPECT_THROW(sampler.RunBlock(0, 1, 5), std::invalid_argument);
  sampler.AbortSweep();
  EXPECT_EQ(sampler.sweep_stage(), SweepStage::kDone);
  EXPECT_NO_THROW(sampler.Iterate());
  EXPECT_EQ(sampler.topic_counts(),
            Histogram(sampler.Assignments(), config.num_topics));

  // AbortSweep with no open sweep is a no-op.
  EXPECT_NO_THROW(sampler.AbortSweep());

  // After recovery, grid sweeps still track the serial trajectory exactly.
  WarpLdaSampler reference;
  reference.Init(corpus, config);
  reference.Iterate();
  reference.Iterate();
  WarpLdaSampler fresh;
  fresh.Init(corpus, config);
  ParallelExecutor executor(2);
  executor.RunSweep(fresh, plan);
  executor.RunSweep(fresh, plan);
  EXPECT_EQ(reference.Assignments(), fresh.Assignments());
}

// The acceptance oracle of this PR: a multi-threaded grid sweep must
// reproduce the serial fused Iterate() bit for bit — same assignments AND
// same folded global topic counts.
TEST(ParallelSweepTest, OneAndEightThreadsMatchIterateOn4x4Plan) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  SweepPlan plan = MakeSweepPlan(corpus, 4, 4, PartitionStrategy::kGreedy);

  WarpLdaSampler serial;
  serial.Init(corpus, config);
  WarpLdaSampler grid_one;
  grid_one.Init(corpus, config);
  WarpLdaSampler grid_eight;
  grid_eight.Init(corpus, config);
  ParallelExecutor one(1);
  ParallelExecutor eight(8);

  for (int sweep = 0; sweep < 3; ++sweep) {
    serial.Iterate();
    one.RunSweep(grid_one, plan);
    eight.RunSweep(grid_eight, plan);
    ASSERT_EQ(serial.Assignments(), grid_one.Assignments())
        << "1-thread grid diverged at sweep " << sweep;
    ASSERT_EQ(serial.Assignments(), grid_eight.Assignments())
        << "8-thread grid diverged at sweep " << sweep;
    // The per-worker ck-delta partitions must fold to the serial counts,
    // which in turn must equal the assignment histogram.
    ASSERT_EQ(serial.topic_counts(), grid_eight.topic_counts());
    ASSERT_EQ(grid_eight.topic_counts(),
              Histogram(grid_eight.Assignments(), config.num_topics));
  }
}

// Stress: many more blocks than threads, uneven rectangular grid, repeated
// sweeps reusing the same executor and plan indices.
TEST(ParallelSweepTest, MoreBlocksThanThreadsStress) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  SweepPlan plan = MakeSweepPlan(corpus, 7, 5, PartitionStrategy::kDynamic);

  WarpLdaSampler serial;
  serial.Init(corpus, config);
  WarpLdaSampler grid;
  grid.Init(corpus, config);
  ParallelExecutor executor(3);
  for (int sweep = 0; sweep < 3; ++sweep) {
    serial.Iterate();
    executor.RunSweep(grid, plan);
  }
  EXPECT_EQ(serial.Assignments(), grid.Assignments());
  EXPECT_EQ(serial.topic_counts(), grid.topic_counts());
}

TEST(ParallelSweepTest, ClusterSimRunSweepWithExecutorMatchesSerial) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  ClusterConfig cluster;
  cluster.num_workers = 4;
  ClusterSim sim(corpus, cluster);

  WarpLdaSampler serial;
  serial.Init(corpus, config);
  WarpLdaSampler distributed;
  distributed.Init(corpus, config);
  ParallelExecutor executor(4);
  for (int sweep = 0; sweep < 2; ++sweep) {
    serial.Iterate();
    IterationTiming timing = sim.RunSweep(distributed, &executor);
    EXPECT_GT(timing.wall_seconds, 0.0);
  }
  EXPECT_EQ(serial.Assignments(), distributed.Assignments());
}

TEST(ParallelSweepTest, TrainerDefaultsMatchThreadedGridTraining) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();

  WarpLdaSampler trivial;
  TrainOptions default_options;  // trivial plan on the calling thread
  default_options.iterations = 4;
  default_options.eval_every = 2;
  TrainResult trivial_result = Train(trivial, corpus, config, default_options);

  WarpLdaSampler grid;
  TrainOptions grid_options = default_options;
  grid_options.sweep_plan = MakeSweepPlan(corpus, 3, 3);
  grid_options.sweep_threads = 4;
  TrainResult grid_result = Train(grid, corpus, config, grid_options);

  EXPECT_EQ(trivial_result.assignments, grid_result.assignments);
  ASSERT_EQ(trivial_result.history.size(), grid_result.history.size());
  for (size_t i = 0; i < trivial_result.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(trivial_result.history[i].log_likelihood,
                     grid_result.history[i].log_likelihood);
  }
}

TEST(ParallelSweepTest, TrainerGridOptionsRequireGridSampler) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  auto sampler = CreateSampler("cgs");  // no GridSampler implementation
  ASSERT_NE(sampler, nullptr);
  TrainOptions base;
  base.iterations = 1;

  TrainOptions plan = base;
  plan.sweep_plan = MakeSweepPlan(corpus, 2, 2);
  EXPECT_THROW(Train(*sampler, corpus, config, plan), std::invalid_argument);
  TrainOptions threads = base;
  threads.sweep_threads = 2;
  EXPECT_THROW(Train(*sampler, corpus, config, threads),
               std::invalid_argument);
  TrainOptions stages = base;
  stages.checkpoint_dir = testing::TempDir() + "/cgs_stages";
  stages.checkpoint_stages = true;
  EXPECT_THROW(Train(*sampler, corpus, config, stages),
               std::invalid_argument);
  // The baselines do not checkpoint at all.
  TrainOptions durable = base;
  durable.checkpoint_dir = testing::TempDir() + "/cgs_durable";
  EXPECT_THROW(Train(*sampler, corpus, config, durable),
               std::invalid_argument);
}

TEST(ParallelSweepTest, WorkerReservationIsEnforced) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  EXPECT_THROW(sampler.ReserveWorkers(2), std::logic_error);  // before Init

  WarpLdaSampler initialized;
  initialized.Init(corpus, TestConfig());
  SweepPlan plan = MakeSweepPlan(corpus, 2, 2);
  initialized.BeginSweep(plan);
  // At a stage barrier (BeginSweep opens one) the pool may grow — the
  // mid-sweep restore path relies on this; with blocks in flight it may not.
  initialized.ReserveWorkers(3);
  initialized.RunBlock(0, 0, 1);
  EXPECT_THROW(initialized.ReserveWorkers(8), std::logic_error);  // in flight
  // Scratch exists for 3 workers: worker 2 is usable, worker 3 is not.
  EXPECT_THROW(initialized.RunBlock(0, 1, 3), std::invalid_argument);
  initialized.RunBlock(0, 1, 2);
  initialized.RunBlock(1, 0, 1);
  initialized.RunBlock(1, 1, 0);
  initialized.EndStage();
  // Finish the sweep (how many barriers remain depends on the plan).
  while (initialized.sweep_stage() != SweepStage::kDone) {
    for (uint32_t i = 0; i < 2; ++i) {
      for (uint32_t j = 0; j < 2; ++j) initialized.RunBlock(i, j);
    }
    initialized.EndStage();
  }
  initialized.EndSweep();

  initialized.ReserveWorkers(8);  // between sweeps: fine
  ParallelExecutor executor(8);
  executor.RunSweep(initialized, plan);  // 8 workers on a 2x2 grid
  EXPECT_EQ(initialized.topic_counts(),
            Histogram(initialized.Assignments(), TestConfig().num_topics));
}

// Barrier-runner tests: K >= 1000 and 8x8 plans, so the move apply and
// delta-fold work at each barrier splits into several tasks.
Corpus BarrierCorpus() {
  SyntheticConfig config;
  config.num_docs = 300;
  config.vocab_size = 900;
  config.num_topics = 20;
  config.mean_doc_length = 40;
  config.alpha = 0.1;
  config.seed = 17;
  return GenerateLdaCorpus(config).corpus;
}

LdaConfig BarrierConfig() {
  LdaConfig config = LdaConfig::PaperDefaults(1000);
  config.seed = 99;
  config.mh_steps = 2;
  return config;
}

TaskRunner Pooled(ParallelExecutor& executor) {
  return [&executor](uint32_t num_tasks, const BarrierTask& fn) {
    executor.Run(num_tasks, fn);
  };
}

// One sweep with its blocks on `executor` and its barrier work on `run`;
// `at_barrier` fires after BeginSweep and after every EndStage.
void SteppedSweep(ParallelExecutor& executor, WarpLdaSampler& sampler,
                  const SweepPlan& plan, const TaskRunner& run,
                  const std::function<void()>& at_barrier = nullptr) {
  const uint32_t word_blocks = plan.num_word_blocks;
  sampler.ReserveWorkers(executor.num_threads());
  sampler.BeginSweep(plan, run);
  if (at_barrier) at_barrier();
  while (sampler.sweep_stage() != SweepStage::kDone) {
    executor.Run(plan.num_doc_blocks * word_blocks,
                 [&](uint32_t worker, uint32_t t) {
                   sampler.RunBlock(t / word_blocks, t % word_blocks, worker);
                 });
    sampler.EndStage(run);
    if (at_barrier) at_barrier();
  }
  sampler.EndSweep();
}

// Barrier work spread over the pool (ParallelExecutor::RunSweep) and run
// inline must both reproduce Iterate(): assignments and c_k.
TEST(BarrierRunnerTest, PooledAndInlineBarriersMatchIterate) {
  Corpus corpus = BarrierCorpus();
  LdaConfig config = BarrierConfig();
  WarpLdaSampler reference;
  reference.Init(corpus, config);
  reference.Iterate();
  reference.Iterate();
  const SweepPlan plans[] = {
      MakeSweepPlan(corpus, 8, 8, PartitionStrategy::kGreedy),
      SweepPlan::Trivial()};
  for (const SweepPlan& plan : plans) {
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      ParallelExecutor executor(threads);
      WarpLdaSampler pooled;
      pooled.Init(corpus, config);
      WarpLdaSampler inlined;
      inlined.Init(corpus, config);
      for (int sweep = 0; sweep < 2; ++sweep) {
        executor.RunSweep(pooled, plan);
        SteppedSweep(executor, inlined, plan, RunInline);
      }
      const std::string where = std::to_string(plan.num_doc_blocks) + "x" +
                                std::to_string(plan.num_word_blocks) + " at " +
                                std::to_string(threads) + " threads";
      EXPECT_EQ(pooled.Assignments(), reference.Assignments()) << where;
      EXPECT_EQ(inlined.Assignments(), reference.Assignments()) << where;
      EXPECT_EQ(pooled.topic_counts(), reference.topic_counts()) << where;
      EXPECT_EQ(inlined.topic_counts(), reference.topic_counts()) << where;
    }
  }
}

// Owned blocks run locally and the rest arrive as deltas cut by a reader
// map, every slice applied; pooled and inline barriers must still agree
// with a sampler that ran every block. Local blocks commit z in place and
// report those moves in RunBlockCaptured's delta; injected moves are
// committed at the barrier. The plans cover one, a row, a column and a
// grid of blocks. Each plan runs with the owned set and its complement, so
// the one block of the trivial plan is both injected and run locally.
TEST(BarrierRunnerTest, PooledBarrierMatchesInlineWithEverySliceInjected) {
  Corpus corpus = BarrierCorpus();
  LdaConfig config = BarrierConfig();
  struct NamedPlan {
    const char* name;
    SweepPlan plan;
  };
  const NamedPlan plans[] = {
      {"trivial", SweepPlan::Trivial()},
      {"1x4", MakeSweepPlan(corpus, 1, 4, PartitionStrategy::kGreedy)},
      {"4x1", MakeSweepPlan(corpus, 4, 1, PartitionStrategy::kGreedy)},
      {"8x8", MakeSweepPlan(corpus, 8, 8, PartitionStrategy::kGreedy)},
  };
  ParallelExecutor executor(4);
  const TaskRunner pool = Pooled(executor);
  for (const NamedPlan& np : plans) {
    for (bool invert : {false, true}) {
      SCOPED_TRACE(std::string("plan ") + np.name +
                   (invert ? " complement" : ""));
      const SweepPlan& plan = np.plan;
      const uint32_t num_blocks = plan.num_doc_blocks * plan.num_word_blocks;
      std::vector<char> owned(num_blocks, 0);
      std::vector<uint32_t> readers(num_blocks, 0);
      for (uint32_t b = 0; b < num_blocks; ++b) {
        owned[b] = (b % 3 == 1) != invert;
        readers[b] = b % 3;
      }

      WarpLdaSampler source;
      source.Init(corpus, config);
      WarpLdaSampler pooled;
      pooled.Init(corpus, config);
      WarpLdaSampler inlined;
      inlined.Init(corpus, config);
      pooled.ReserveWorkers(executor.num_threads());

      for (int sweep = 0; sweep < 2; ++sweep) {
        source.BeginSweep(plan);
        pooled.BeginSweep(plan, pool);
        inlined.BeginSweep(plan);
        while (source.sweep_stage() != SweepStage::kDone) {
          ASSERT_EQ(pooled.sweep_stage(), source.sweep_stage());
          std::vector<GridBlockDelta> deltas(num_blocks);
          for (uint32_t b = 0; b < num_blocks; ++b) {
            ASSERT_TRUE(source.RunBlockCaptured(b / plan.num_word_blocks,
                                                b % plan.num_word_blocks, 0,
                                                readers, &deltas[b]));
          }
          executor.Run(num_blocks, [&](uint32_t worker, uint32_t b) {
            if (owned[b]) {
              pooled.RunBlock(b / plan.num_word_blocks,
                              b % plan.num_word_blocks, worker);
            }
          });
          std::string error;
          for (uint32_t b = 0; b < num_blocks; ++b) {
            if (owned[b]) {
              inlined.RunBlock(b / plan.num_word_blocks,
                               b % plan.num_word_blocks);
            } else {
              ASSERT_TRUE(pooled.ApplyBlockDelta(deltas[b], readers, &error))
                  << error;
              ASSERT_TRUE(inlined.ApplyBlockDelta(deltas[b], readers, &error))
                  << error;
            }
          }
          source.EndStage();
          pooled.EndStage(pool);
          inlined.EndStage();
        }
        source.EndSweep();
        pooled.EndSweep();
        inlined.EndSweep();
        ASSERT_EQ(pooled.Assignments(), source.Assignments())
            << "sweep " << sweep;
        ASSERT_EQ(inlined.Assignments(), source.Assignments())
            << "sweep " << sweep;
        ASSERT_EQ(pooled.topic_counts(), source.topic_counts());
        ASSERT_EQ(inlined.topic_counts(), source.topic_counts());
      }
    }
  }
}

/// Storage (CSC) position of every token, in corpus (row-major) order:
/// columns by word id, each sorted by document, ties in insertion order.
std::vector<uint64_t> CscPositions(const Corpus& corpus) {
  std::vector<uint64_t> next(corpus.num_words() + 1, 0);
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    for (WordId w : corpus.doc_tokens(d)) ++next[w + 1];
  }
  std::partial_sum(next.begin(), next.end(), next.begin());
  std::vector<uint64_t> pos;
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    for (WordId w : corpus.doc_tokens(d)) pos.push_back(next[w]++);
  }
  return pos;
}

// Per-pass ownership, in one process: each reader sampler runs only its
// own blocks and applies only its slices of its peers' blocks. At every
// barrier it must match a sampler that ran everything on every token it
// reads in the next span — z and proposals — and on all of c_k.
TEST(BarrierRunnerTest, ReaderSlicesKeepEveryTokenReadNextCurrent) {
  Corpus corpus = BarrierCorpus();
  LdaConfig config = BarrierConfig();
  const uint32_t m = config.mh_steps;
  const std::vector<uint64_t> csc = CscPositions(corpus);
  struct NamedPlan {
    const char* name;
    SweepPlan plan;
  };
  const NamedPlan plans[] = {
      {"1x4", MakeSweepPlan(corpus, 1, 4, PartitionStrategy::kGreedy)},
      {"4x1", MakeSweepPlan(corpus, 4, 1, PartitionStrategy::kGreedy)},
      {"6x6", MakeSweepPlan(corpus, 6, 6, PartitionStrategy::kGreedy)},
  };
  for (const NamedPlan& np : plans) {
    for (uint32_t num_readers : {2u, 3u, 4u}) {
      SCOPED_TRACE(std::string("plan ") + np.name + ", " +
                   std::to_string(num_readers) + " readers");
      const SweepPlan& plan = np.plan;
      const uint32_t num_blocks = plan.num_doc_blocks * plan.num_word_blocks;
      std::vector<uint32_t> owner(num_blocks);
      for (uint32_t b = 0; b < num_blocks; ++b) owner[b] = b % num_readers;

      WarpLdaSampler full;
      full.Init(corpus, config);
      std::vector<WarpLdaSampler> readers(num_readers);
      for (WarpLdaSampler& r : readers) r.Init(corpus, config);

      for (int sweep = 0; sweep < 2; ++sweep) {
        full.BeginSweep(plan);
        for (WarpLdaSampler& r : readers) r.BeginSweep(plan);
        while (full.sweep_stage() != SweepStage::kDone) {
          for (uint32_t b = 0; b < num_blocks; ++b) {
            const uint32_t db = b / plan.num_word_blocks;
            const uint32_t wb = b % plan.num_word_blocks;
            full.RunBlock(db, wb);
            GridBlockDelta delta;
            ASSERT_TRUE(
                readers[owner[b]].RunBlockCaptured(db, wb, 0, owner, &delta));
            ASSERT_EQ(delta.slices.size(), num_readers);
            for (uint32_t q = 0; q < num_readers; ++q) {
              if (q == owner[b]) continue;
              GridBlockDelta mine = delta;
              mine.slices = {delta.slices[q]};
              std::string error;
              ASSERT_TRUE(readers[q].ApplyBlockDelta(mine, owner, &error))
                  << error;
            }
          }
          full.EndStage();
          for (WarpLdaSampler& r : readers) r.EndStage();

          // Who reads each token next: the owner of the block holding its
          // row (doc span next) or its column (word span next).
          const SweepStage next = full.sweep_stage();
          const bool word_next =
              next == SweepStage::kDone || next < SweepStage::kDocAccept;
          std::vector<uint32_t> item_owner(
              word_next ? corpus.num_words() : corpus.num_docs());
          for (uint32_t b = 0; b < num_blocks; ++b) {
            const auto [lo, hi] = full.BlockItems(b, word_next);
            for (uint32_t item = lo; item < hi; ++item) {
              item_owner[item] = owner[b];
            }
          }
          SweepCheckpoint want;
          ASSERT_TRUE(full.CaptureSweepState(&want));
          for (uint32_t q = 0; q < num_readers; ++q) {
            SweepCheckpoint got;
            ASSERT_TRUE(readers[q].CaptureSweepState(&got));
            ASSERT_EQ(readers[q].topic_counts(), full.topic_counts())
                << "reader " << q << ", sweep " << sweep;
            ASSERT_EQ(got.ck_fixed, want.ck_fixed);
            uint64_t checked = 0;
            uint64_t t = 0;
            for (DocId d = 0; d < corpus.num_docs(); ++d) {
              for (WordId w : corpus.doc_tokens(d)) {
                const uint64_t pos = csc[t++];
                if (item_owner[word_next ? w : d] != q) continue;
                ++checked;
                ASSERT_EQ(got.assignments[pos], want.assignments[pos])
                    << "reader " << q << ", token " << t - 1;
                for (uint32_t j = 0; j < m; ++j) {
                  ASSERT_EQ(got.proposals[pos * m + j],
                            want.proposals[pos * m + j])
                      << "reader " << q << ", token " << t - 1;
                }
              }
            }
            if (std::count(owner.begin(), owner.end(), q) > 0) {
              EXPECT_GT(checked, 0u) << "reader " << q;
            }
          }
        }
        full.EndSweep();
        for (WarpLdaSampler& r : readers) r.EndSweep();
      }
    }
  }
}

// The checkpoint a barrier captures must not depend on where the barrier
// work ran.
TEST(BarrierRunnerTest, CheckpointBytesMatchAtEveryBarrier) {
  Corpus corpus = BarrierCorpus();
  LdaConfig config = BarrierConfig();
  const SweepPlan plan =
      MakeSweepPlan(corpus, 8, 8, PartitionStrategy::kGreedy);
  ParallelExecutor executor(4);
  WarpLdaSampler pooled;
  pooled.Init(corpus, config);
  WarpLdaSampler inlined;
  inlined.Init(corpus, config);
  auto capture = [](const WarpLdaSampler& sampler,
                    std::vector<std::vector<uint8_t>>* out) {
    SweepCheckpoint checkpoint;
    ASSERT_TRUE(sampler.CaptureSweepState(&checkpoint));
    out->emplace_back();
    EncodeSweepCheckpointPayload(checkpoint, &out->back());
  };
  for (int sweep = 0; sweep < 2; ++sweep) {
    std::vector<std::vector<uint8_t>> pooled_bytes, inline_bytes;
    SteppedSweep(executor, pooled, plan, Pooled(executor),
                 [&] { capture(pooled, &pooled_bytes); });
    SteppedSweep(executor, inlined, plan, RunInline,
                 [&] { capture(inlined, &inline_bytes); });
    ASSERT_EQ(pooled_bytes.size(), 3u);  // BeginSweep + 2 barriers
    EXPECT_EQ(pooled_bytes, inline_bytes) << "sweep " << sweep;
  }
}

// The barrier applies each word block's moves in its own task, so an
// injected move must come from its own block, tagged with its token's
// column; anything else is rejected before it touches the sampler.
TEST(BarrierRunnerTest, DeltaMovesOutsideTheirBlockAreRejected) {
  Corpus corpus = BarrierCorpus();
  LdaConfig config = BarrierConfig();
  const SweepPlan plan =
      MakeSweepPlan(corpus, 8, 8, PartitionStrategy::kGreedy);
  WarpLdaSampler source;
  source.Init(corpus, config);
  WarpLdaSampler target;
  target.Init(corpus, config);
  source.BeginSweep(plan);
  target.BeginSweep(plan);
  GridBlockDelta own, other;
  ASSERT_TRUE(source.RunBlockCaptured(0, 0, 0, {}, &own));
  ASSERT_TRUE(source.RunBlockCaptured(0, 1, 0, {}, &other));
  ASSERT_EQ(own.slices.size(), 1u);
  ASSERT_FALSE(own.slices[0].moves.empty());
  ASSERT_FALSE(other.slices[0].moves.empty());

  std::string error;
  GridBlockDelta foreign = own;
  foreign.slices[0].moves = other.slices[0].moves;  // valid z, wrong block
  EXPECT_FALSE(target.ApplyBlockDelta(foreign, {}, &error));
  EXPECT_NE(error.find("token order"), std::string::npos) << error;
  GridBlockDelta retagged = own;
  retagged.slices[0].moves[0].item ^= 1;
  EXPECT_FALSE(target.ApplyBlockDelta(retagged, {}, &error));
  EXPECT_NE(error.find("column or row"), std::string::npos) << error;
  EXPECT_TRUE(target.ApplyBlockDelta(own, {}, &error)) << error;
}

// Malformed slices are rejected and leave the sampler untouched: after the
// rejections, the well-formed deltas still bring the target to the
// source's state.
TEST(BarrierRunnerTest, SlicesThatDoNotFitAreRejectedUntouched) {
  Corpus corpus = BarrierCorpus();
  LdaConfig config = BarrierConfig();
  const SweepPlan plan =
      MakeSweepPlan(corpus, 4, 4, PartitionStrategy::kGreedy);
  const uint32_t num_blocks = plan.num_doc_blocks * plan.num_word_blocks;
  std::vector<uint32_t> readers(num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) readers[b] = b % 3;
  WarpLdaSampler source;
  source.Init(corpus, config);
  WarpLdaSampler target;
  target.Init(corpus, config);
  source.BeginSweep(plan);
  target.BeginSweep(plan);
  std::vector<GridBlockDelta> deltas(num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    ASSERT_TRUE(source.RunBlockCaptured(b / plan.num_word_blocks,
                                        b % plan.num_word_blocks, 0, readers,
                                        &deltas[b]));
  }
  // A block whose first two readers both have moves.
  uint32_t pick = num_blocks;
  for (uint32_t b = 0; b < num_blocks && pick == num_blocks; ++b) {
    if (!deltas[b].slices[0].moves.empty() &&
        !deltas[b].slices[1].moves.empty()) {
      pick = b;
    }
  }
  ASSERT_LT(pick, num_blocks);
  const GridBlockDelta& good = deltas[pick];
  ASSERT_FALSE(good.ck_net.empty());

  struct Bad {
    const char* what;
    GridBlockDelta delta;
    const char* error;
  };
  std::vector<Bad> bad;
  bad.push_back({"short proposals", good, "proposal count"});
  bad.back().delta.slices[1].proposals.pop_back();
  bad.push_back({"move of another reader's token", good, "token order"});
  bad.back().delta.slices[1].moves.push_back(good.slices[0].moves.back());
  bad.push_back({"ck_net off balance", good, "sum to 0"});
  bad.back().delta.ck_net[0].count += 1;
  // Moving one unit between two topics keeps the sum at zero (a nonempty
  // ck_net has at least two entries); only the moves show it is wrong.
  bad.push_back({"ck_net disagreeing with the moves", good, "disagrees"});
  bad.back().delta.ck_net[0].count += 1;
  bad.back().delta.ck_net[1].count -= 1;
  // No sweep stops at a propose barrier, so no delta is cut there.
  bad.push_back({"delta at a propose stage", good, "word-propose"});
  bad.back().delta.stage = SweepStage::kWordPropose;
  for (const Bad& b : bad) {
    SweepCheckpoint before, after;
    ASSERT_TRUE(target.CaptureSweepState(&before));
    std::string error;
    EXPECT_FALSE(target.ApplyBlockDelta(b.delta, readers, &error)) << b.what;
    EXPECT_NE(error.find(b.error), std::string::npos)
        << b.what << ": " << error;
    ASSERT_TRUE(target.CaptureSweepState(&after)) << b.what;
    EXPECT_EQ(after.assignments, before.assignments) << b.what;
    EXPECT_EQ(after.proposals, before.proposals) << b.what;
  }
  for (const GridBlockDelta& delta : deltas) {
    std::string error;
    ASSERT_TRUE(target.ApplyBlockDelta(delta, readers, &error)) << error;
  }
  source.EndStage();
  target.EndStage();
  EXPECT_EQ(target.Assignments(), source.Assignments());
  EXPECT_EQ(target.topic_counts(), source.topic_counts());
  SweepCheckpoint want, got;
  ASSERT_TRUE(source.CaptureSweepState(&want));
  ASSERT_TRUE(target.CaptureSweepState(&got));
  EXPECT_EQ(got.proposals, want.proposals);
}

// After an aborted sweep, the next grid sweep still equals Iterate() from
// the same state, and c_k matches the assignments.
void ExpectNextSweepMatchesIterate(ParallelExecutor& executor,
                                   WarpLdaSampler& sampler,
                                   const SweepPlan& plan, uint32_t topics) {
  ASSERT_EQ(sampler.sweep_stage(), SweepStage::kDone);
  EXPECT_EQ(sampler.topic_counts(), Histogram(sampler.Assignments(), topics));
  WarpLdaSampler twin = sampler;
  twin.Iterate();
  executor.RunSweep(sampler, plan);
  EXPECT_EQ(sampler.Assignments(), twin.Assignments());
  EXPECT_EQ(sampler.topic_counts(), twin.topic_counts());
}

TEST(BarrierRunnerTest, BarrierTaskExceptionReachesCallerAndSweepRecovers) {
  Corpus corpus = BarrierCorpus();
  LdaConfig config = BarrierConfig();
  const SweepPlan plan =
      MakeSweepPlan(corpus, 8, 8, PartitionStrategy::kGreedy);
  const uint32_t num_blocks = plan.num_doc_blocks * plan.num_word_blocks;
  ParallelExecutor executor(4);
  WarpLdaSampler sampler;
  sampler.Init(corpus, config);
  executor.RunSweep(sampler, plan);
  sampler.ReserveWorkers(executor.num_threads());
  // Task 1 throws; the pool still runs the others, so a barrier is left
  // half applied.
  const TaskRunner failing = [&](uint32_t num_tasks, const BarrierTask& fn) {
    executor.Run(num_tasks, [&](uint32_t worker, uint32_t t) {
      if (t == 1) throw std::runtime_error("barrier task failed");
      fn(worker, t);
    });
  };

  // The word-span EndStage fails part-way through its tasks: the driver
  // aborts the open sweep. (BeginSweep runs no barrier tasks: blocks count
  // their items themselves.)
  sampler.BeginSweep(plan, failing);
  executor.Run(num_blocks, [&](uint32_t worker, uint32_t t) {
    sampler.RunBlock(t / plan.num_word_blocks, t % plan.num_word_blocks,
                     worker);
  });
  EXPECT_THROW(sampler.EndStage(failing), std::runtime_error);
  sampler.AbortSweep();
  ExpectNextSweepMatchesIterate(executor, sampler, plan, config.num_topics);
}

// Counts `"name": "<name>", "cat": "<cat>", "ph": "<ph>"` occurrences in a
// trace JSON string (the exact field order TraceRecorder::ToJson emits).
size_t CountTraceEvents(const std::string& json, const std::string& name,
                        const std::string& cat, char ph) {
  const std::string needle = "\"name\": \"" + name + "\", \"cat\": \"" + cat +
                             "\", \"ph\": \"" + ph + "\"";
  size_t count = 0;
  for (size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// A traced grid sweep emits one balanced span per stage span plus
// per-worker block spans, with every thread's B/E events forming a proper
// nesting. Every plan's schedule is [word-accept + word-propose],
// [doc-accept + doc-propose]: two spans named by their entry stage, two
// barriers, and one block pass per span.
TEST(ParallelSweepTest, RunSweepEmitsBalancedStageAndBlockSpans) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  sampler.Init(corpus, TestConfig());
  SweepPlan plan = MakeSweepPlan(corpus, 3, 3);
  ParallelExecutor executor(2);

  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Start();
  executor.RunSweep(sampler, plan);
  rec.Stop();
  const std::vector<obs::TraceEvent> events = rec.Snapshot();
  rec.Clear();

  std::map<uint32_t, int> depth;
  std::map<std::string, int> begins;
  for (const obs::TraceEvent& event : events) {
    if (event.phase == 'B') {
      ++depth[event.tid];
      ++begins[event.name];
    } else if (event.phase == 'E') {
      --depth[event.tid];
      ASSERT_GE(depth[event.tid], 0) << "unbalanced spans on tid "
                                     << event.tid;
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "open span left on tid " << tid;
  }
  EXPECT_EQ(begins["word-accept"], 1);
  EXPECT_EQ(begins["word-propose"], 0);  // runs inside word-accept's span
  EXPECT_EQ(begins["doc-accept"], 1);
  EXPECT_EQ(begins["doc-propose"], 0);  // runs inside doc-accept's span
  EXPECT_EQ(begins["end-stage"], 2);
  // Every span ran all 9 blocks under a block span.
  EXPECT_EQ(begins["block"], 2 * 9);
}

// Train() with trace_path set writes a Chrome trace whose JSON holds one
// sweep span per iteration and, per sweep, one stage span for each span of
// the schedule (named by its first stage), one end-stage fold per span and
// per-worker block spans. A 2x2 plan on two threads and the default
// options (the trivial plan, inline) run the same two spans per sweep,
// [word-accept + word-propose] and [doc-accept + doc-propose].
TEST(ParallelSweepTest, TrainWithTracePathWritesChromeTraceJson) {
  Corpus corpus = TestCorpus();
  struct Case {
    const char* name;
    uint32_t grid;  // grid x grid plan on 2 threads; 0 keeps the defaults
    std::vector<std::string> spans;
  };
  const Case cases[] = {
      {"2x2", 2, {"word-accept", "doc-accept"}},
      {"defaults", 0, {"word-accept", "doc-accept"}},
  };
  for (const Case& c : cases) {
    TrainOptions options;
    options.iterations = 3;
    options.eval_every = 0;
    if (c.grid > 0) {
      options.sweep_plan = MakeSweepPlan(corpus, c.grid, c.grid);
      options.sweep_threads = 2;
    }
    options.trace_path = testing::TempDir() + "/train_trace.json";
    WarpLdaSampler sampler;
    Train(sampler, corpus, TestConfig(), options);

    std::FILE* f = std::fopen(options.trace_path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "trace file not written: " << options.trace_path;
    std::string json;
    char buffer[4096];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      json.append(buffer, n);
    }
    std::fclose(f);
    std::remove(options.trace_path.c_str());

    EXPECT_NE(json.find("{\"traceEvents\": ["), std::string::npos);
    EXPECT_EQ(CountTraceEvents(json, "sweep", "trainer", 'B'),
              options.iterations)
        << c.name;
    for (const char* stage :
         {"word-accept", "word-propose", "doc-accept", "doc-propose"}) {
      const bool is_span =
          std::find(c.spans.begin(), c.spans.end(), stage) != c.spans.end();
      const size_t expected = is_span ? options.iterations : 0;
      EXPECT_EQ(CountTraceEvents(json, stage, "stage", 'B'), expected)
          << c.name << " " << stage;
      EXPECT_EQ(CountTraceEvents(json, stage, "stage", 'E'), expected)
          << c.name << " " << stage;
    }
    const size_t spans = options.iterations * c.spans.size();
    EXPECT_EQ(CountTraceEvents(json, "end-stage", "executor", 'B'), spans)
        << c.name;
    const size_t blocks_per_span =
        options.sweep_plan.num_doc_blocks * options.sweep_plan.num_word_blocks;
    EXPECT_EQ(CountTraceEvents(json, "block", "executor", 'B'),
              spans * blocks_per_span)
        << c.name;
  }
}

}  // namespace
}  // namespace warplda
