#include "core/sweep_plan.h"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/parallel_executor.h"
#include "core/warp_lda.h"
#include "corpus/synthetic.h"
#include "dist/cluster_sim.h"
#include "dist/partitioner.h"

namespace warplda {
namespace {

Corpus TestCorpus() {
  SyntheticConfig config;
  config.num_docs = 120;
  config.vocab_size = 250;
  config.num_topics = 6;
  config.mean_doc_length = 24;
  config.alpha = 0.1;
  config.seed = 77;
  return GenerateLdaCorpus(config).corpus;
}

LdaConfig TestConfig() {
  LdaConfig config = LdaConfig::PaperDefaults(12);
  config.seed = 321;
  config.mh_steps = 2;
  return config;
}

// The determinism regression behind the grid API: block-wise execution must
// change where work happens, never what is sampled.
TEST(GridSweepTest, TwoByTwoGridMatchesIterate) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();

  WarpLdaSampler serial;
  serial.Init(corpus, config);
  WarpLdaSampler grid;
  grid.Init(corpus, config);
  SweepPlan plan = MakeSweepPlan(corpus, 2, 2, PartitionStrategy::kGreedy);

  for (int sweep = 0; sweep < 3; ++sweep) {
    serial.Iterate();
    grid.RunSweep(plan);
    ASSERT_EQ(serial.Assignments(), grid.Assignments()) << "sweep " << sweep;
  }
}

TEST(GridSweepTest, TrivialPlanMatchesIterate) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  WarpLdaSampler serial;
  serial.Init(corpus, config);
  WarpLdaSampler grid;
  grid.Init(corpus, config);
  for (int sweep = 0; sweep < 2; ++sweep) {
    serial.Iterate();
    grid.RunSweep(SweepPlan::Trivial());
  }
  EXPECT_EQ(serial.Assignments(), grid.Assignments());
}

TEST(GridSweepTest, BlockOrderAndRectangularGridsDoNotChangeSamples) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();

  WarpLdaSampler canonical;
  canonical.Init(corpus, config);
  WarpLdaSampler reversed;
  reversed.Init(corpus, config);
  SweepPlan plan = MakeSweepPlan(corpus, 3, 2, PartitionStrategy::kDynamic);

  for (int sweep = 0; sweep < 2; ++sweep) {
    canonical.RunSweep(plan);
    // Same plan, blocks visited back-to-front within every stage.
    reversed.BeginSweep(plan);
    while (reversed.sweep_stage() != SweepStage::kDone) {
      for (uint32_t i = plan.num_doc_blocks; i-- > 0;) {
        for (uint32_t j = plan.num_word_blocks; j-- > 0;) {
          reversed.RunBlock(i, j);
        }
      }
      reversed.EndStage();
    }
    reversed.EndSweep();
  }
  EXPECT_EQ(canonical.Assignments(), reversed.Assignments());
}

TEST(GridSweepTest, ClusterSimRunSweepProducesSerialSamples) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  ClusterConfig cluster;
  cluster.num_workers = 4;
  ClusterSim sim(corpus, cluster);

  WarpLdaSampler serial;
  serial.Init(corpus, config);
  WarpLdaSampler distributed;
  distributed.Init(corpus, config);
  for (int sweep = 0; sweep < 2; ++sweep) {
    serial.Iterate();
    IterationTiming timing = sim.RunSweep(distributed);
    EXPECT_GT(timing.wall_seconds, 0.0);
  }
  EXPECT_EQ(serial.Assignments(), distributed.Assignments());
}

TEST(GridSweepTest, SweepProtocolViolationsThrow) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;

  // Grid calls before Init().
  EXPECT_THROW(sampler.BeginSweep(SweepPlan::Trivial()), std::logic_error);

  sampler.Init(corpus, TestConfig());
  EXPECT_THROW(sampler.RunBlock(0, 0), std::logic_error);
  EXPECT_THROW(sampler.EndStage(), std::logic_error);
  EXPECT_THROW(sampler.EndSweep(), std::logic_error);

  // Plan shape mismatches.
  SweepPlan bad;
  bad.num_doc_blocks = 2;  // 2 blocks but no per-doc assignment
  EXPECT_THROW(sampler.BeginSweep(bad), std::invalid_argument);
  bad = MakeSweepPlan(corpus, 2, 2, PartitionStrategy::kGreedy);
  bad.word_block[0] = 7;  // out of range block id
  EXPECT_THROW(sampler.BeginSweep(bad), std::invalid_argument);

  SweepPlan plan = MakeSweepPlan(corpus, 2, 2, PartitionStrategy::kGreedy);
  sampler.BeginSweep(plan);
  EXPECT_EQ(sampler.sweep_stage(), SweepStage::kWordAccept);
  EXPECT_THROW(sampler.BeginSweep(plan), std::logic_error);  // nested sweep
  EXPECT_THROW(sampler.Iterate(), std::logic_error);         // nested sweep
  EXPECT_THROW(sampler.EndStage(), std::logic_error);  // blocks missing
  sampler.RunBlock(0, 0);
  EXPECT_THROW(sampler.RunBlock(0, 0), std::logic_error);  // block ran twice
  EXPECT_THROW(sampler.RunBlock(5, 0), std::invalid_argument);
  sampler.RunBlock(0, 1);
  sampler.RunBlock(1, 0);
  sampler.RunBlock(1, 1);
  EXPECT_THROW(sampler.EndSweep(), std::logic_error);  // stages remain
  sampler.EndStage();
  // The word span covered word-accept and word-propose.
  EXPECT_EQ(sampler.sweep_stage(), SweepStage::kDocAccept);

  // Finish the sweep cleanly; the sampler must be fully usable afterwards.
  for (uint32_t i = 0; i < 2; ++i) {
    for (uint32_t j = 0; j < 2; ++j) sampler.RunBlock(i, j);
  }
  sampler.EndStage();
  EXPECT_EQ(sampler.sweep_stage(), SweepStage::kDone);
  sampler.EndSweep();
  EXPECT_NO_THROW(sampler.Iterate());
}

// The plan × thread bit-identity matrix: every plan's stage schedule on
// 1/2/8 executor threads must reproduce the Iterate() trajectory exactly —
// on plans that trigger every fused span (1x4 fuses [wa,wp] per column, 4x1
// fuses [wp,da], Trivial fuses [wa,wp] and [da,dp], 8x8 fuses only [wp,da])
// and with an asymmetric α so the doc-proposal prior alias is exercised.
TEST(GridSweepTest, PlanThreadMatrixMatchesIterate) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  config.alpha_vector.assign(config.num_topics, 0.08);
  config.alpha_vector[0] = 1.4;  // asymmetric: strong pull toward topic 0
  config.alpha_vector[3] = 0.4;

  WarpLdaSampler serial;
  serial.Init(corpus, config);
  for (int sweep = 0; sweep < 2; ++sweep) serial.Iterate();
  const std::vector<TopicId> expected = serial.Assignments();

  struct NamedPlan {
    const char* name;
    SweepPlan plan;
  };
  const NamedPlan plans[] = {
      {"1x4", MakeSweepPlan(corpus, 1, 4, PartitionStrategy::kGreedy)},
      {"4x1", MakeSweepPlan(corpus, 4, 1, PartitionStrategy::kGreedy)},
      {"trivial", SweepPlan::Trivial()},
      {"8x8", MakeSweepPlan(corpus, 8, 8, PartitionStrategy::kGreedy)},
  };
  for (const NamedPlan& np : plans) {
    for (uint32_t threads : {1u, 2u, 8u}) {
      WarpLdaSampler grid;
      grid.Init(corpus, config);
      ParallelExecutor executor(threads);
      for (int sweep = 0; sweep < 2; ++sweep) {
        executor.RunSweep(grid, np.plan);
      }
      EXPECT_EQ(grid.Assignments(), expected)
          << "plan " << np.name << " threads " << threads;
    }
  }
}

// Checkpoint capture at the barrier that ends the fused [word-accept,
// word-propose] span (every plan's only mid-sweep barrier) must restore
// and finish bit-identically on another thread count.
TEST(GridSweepTest, CheckpointAcrossFusedSpanBarrierRestoresBitIdentical) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  SweepPlan plan = MakeSweepPlan(corpus, 3, 3, PartitionStrategy::kGreedy);

  WarpLdaSampler reference;
  reference.Init(corpus, config);
  ParallelExecutor reference_exec(2);
  for (int sweep = 0; sweep < 3; ++sweep) reference_exec.RunSweep(reference, plan);

  WarpLdaSampler victim;
  victim.Init(corpus, config);
  ParallelExecutor capture_exec(2);
  capture_exec.RunSweep(victim, plan);
  SweepCheckpoint captured;
  bool saved = false;
  capture_exec.RunSweep(victim, plan, [&](SweepStage next) {
    // The sweep's spans are [word-accept, word-propose] ->
    // [doc-accept, doc-propose]; next == kDocAccept is the barrier right
    // after the fused word span ran.
    if (next != SweepStage::kDocAccept || saved) return;
    ASSERT_TRUE(victim.CaptureSweepState(&captured));
    saved = true;
  });
  ASSERT_TRUE(saved);
  EXPECT_EQ(captured.next_stage, SweepStage::kDocAccept);

  WarpLdaSampler resumed;
  resumed.Init(corpus, config);
  std::string error;
  ASSERT_TRUE(resumed.RestoreSweepState(captured, &error)) << error;
  ParallelExecutor resume_exec(8);
  resume_exec.FinishSweep(resumed, captured.plan);
  resume_exec.RunSweep(resumed, plan);

  EXPECT_EQ(resumed.Assignments(), reference.Assignments());
  EXPECT_EQ(resumed.topic_counts(), reference.topic_counts());
}

TEST(GridSweepTest, MakeSweepPlanCoversCorpusAndValidates) {
  Corpus corpus = TestCorpus();
  for (auto strategy :
       {PartitionStrategy::kStatic, PartitionStrategy::kDynamic,
        PartitionStrategy::kGreedy}) {
    SweepPlan plan = MakeSweepPlan(corpus, 4, 3, strategy);
    EXPECT_EQ(plan.num_doc_blocks, 4u);
    EXPECT_EQ(plan.num_word_blocks, 3u);
    std::string error;
    EXPECT_TRUE(plan.Validate(corpus.num_docs(), corpus.num_words(), &error))
        << ToString(strategy) << ": " << error;
  }
}

}  // namespace
}  // namespace warplda
