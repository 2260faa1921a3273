#include "core/checkpoint.h"

#include <pthread.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "core/parallel_executor.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "corpus/synthetic.h"
#include "dist/partitioner.h"
#include "serve/model_store.h"
#include "util/checkpoint_io.h"
#include "util/crc32.h"

namespace warplda {
namespace {

Corpus MakeCorpus() {
  SyntheticConfig config;
  config.num_docs = 80;
  config.vocab_size = 150;
  config.mean_doc_length = 20;
  config.seed = 71;
  return GenerateLdaCorpus(config).corpus;
}

/// Small corpus for the byte-level fuzz loops (every prefix / every byte),
/// keeping the checkpoint files a few hundred bytes.
Corpus MakeTinyCorpus() {
  SyntheticConfig config;
  config.num_docs = 12;
  config.vocab_size = 30;
  config.mean_doc_length = 6;
  config.seed = 9;
  return GenerateLdaCorpus(config).corpus;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A small valid sweep checkpoint over `assignments` (K topics, two
/// proposals per token, c_k snapshot the histogram of the assignments).
SweepCheckpoint ValidSweepCheckpoint(uint32_t k,
                                     std::vector<TopicId> assignments) {
  SweepCheckpoint checkpoint;
  checkpoint.config = LdaConfig::PaperDefaults(k);
  checkpoint.config.mh_steps = 2;
  checkpoint.ck_fixed.assign(k, 0);
  for (TopicId z : assignments) {
    checkpoint.proposals.push_back(z);
    checkpoint.proposals.push_back((z + 1) % k);
    ++checkpoint.ck_fixed[z];
  }
  checkpoint.assignments = std::move(assignments);
  return checkpoint;
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  SweepCheckpoint checkpoint = ValidSweepCheckpoint(8, {0, 1, 2, 7, 3, 3});
  checkpoint.config.alpha_vector = {0.4, 0.3, 0.2, 0.1, 0.1, 0.2, 0.3, 0.4};
  checkpoint.iteration = 17;
  checkpoint.phase_epoch = 34;
  checkpoint.base_word = 0x1234;
  checkpoint.base_doc = 0x5678;
  std::string path = TempPath("ckpt.bin");
  std::string error;
  ASSERT_TRUE(SaveSweepCheckpoint(checkpoint, path, &error)) << error;

  SweepCheckpoint loaded;
  ASSERT_TRUE(LoadSweepCheckpoint(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.config.num_topics, 8u);
  EXPECT_EQ(loaded.config.mh_steps, 2u);
  EXPECT_DOUBLE_EQ(loaded.config.alpha, checkpoint.config.alpha);
  EXPECT_EQ(loaded.config.alpha_vector, checkpoint.config.alpha_vector);
  EXPECT_EQ(loaded.iteration, 17u);
  EXPECT_EQ(loaded.next_stage, SweepStage::kWordAccept);
  EXPECT_EQ(loaded.phase_epoch, 34u);
  EXPECT_EQ(loaded.base_word, 0x1234u);
  EXPECT_EQ(loaded.base_doc, 0x5678u);
  EXPECT_EQ(loaded.assignments, checkpoint.assignments);
  EXPECT_EQ(loaded.proposals, checkpoint.proposals);
  EXPECT_EQ(loaded.ck_fixed, checkpoint.ck_fixed);
}

TEST(CheckpointTest, LoadRejectsGarbage) {
  std::string path = TempPath("ckpt_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "nonsense";
  }
  SweepCheckpoint checkpoint;
  std::string error;
  EXPECT_FALSE(LoadSweepCheckpoint(path, &checkpoint, &error));
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointTest, LoadRejectsLegacyV1FilesWithClearMessage) {
  // The retired WARPCKP1 format had no version, size, or CRC fields.
  std::string path = TempPath("ckpt_v1.bin");
  std::vector<uint8_t> bytes(64, 0);
  const uint64_t v1_magic = 0x57415250'434B5031ULL;
  std::memcpy(bytes.data(), &v1_magic, sizeof(v1_magic));
  WriteAll(path, bytes);
  SweepCheckpoint checkpoint;
  std::string error;
  EXPECT_FALSE(LoadSweepCheckpoint(path, &checkpoint, &error));
  EXPECT_NE(error.find("WARPCKP1"), std::string::npos) << error;
}

TEST(CheckpointTest, LoadRejectsOutOfRangeAssignments) {
  SweepCheckpoint checkpoint = ValidSweepCheckpoint(4, {0, 1});
  checkpoint.assignments[1] = 9;  // 9 >= K
  std::string path = TempPath("ckpt_range.bin");
  std::string error;
  ASSERT_TRUE(SaveSweepCheckpoint(checkpoint, path, &error)) << error;
  SweepCheckpoint loaded;
  EXPECT_FALSE(LoadSweepCheckpoint(path, &loaded, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

// Save() serializes whatever it is given; Load() is the validation gate.
// Poisonous hyper-parameters must be rejected at load time with a message,
// never allowed to reach a sampler.
TEST(CheckpointTest, LoadRejectsPoisonedConfigs) {
  const std::string path = TempPath("ckpt_poison.bin");
  auto save_and_expect_rejected = [&](const SweepCheckpoint& bad) {
    std::string error;
    ASSERT_TRUE(SaveSweepCheckpoint(bad, path, &error)) << error;
    SweepCheckpoint loaded;
    EXPECT_FALSE(LoadSweepCheckpoint(path, &loaded, &error));
    EXPECT_FALSE(error.empty());
  };
  const SweepCheckpoint base = ValidSweepCheckpoint(4, {0, 1});

  SweepCheckpoint bad = base;
  bad.config.alpha = std::numeric_limits<double>::quiet_NaN();
  save_and_expect_rejected(bad);
  bad = base;
  bad.config.alpha = -0.5;
  save_and_expect_rejected(bad);
  bad = base;
  bad.config.beta = std::numeric_limits<double>::infinity();
  save_and_expect_rejected(bad);
  bad = base;
  bad.config.beta = 0.0;
  save_and_expect_rejected(bad);
  bad = base;
  bad.config.mh_steps = 0;
  save_and_expect_rejected(bad);
  bad = base;
  bad.config.alpha_vector = {0.1, 0.2};  // wrong length for K=4
  save_and_expect_rejected(bad);
}

TEST(CheckpointTest, AtomicSaveLeavesOldCheckpointOnFailedWrite) {
  const SweepCheckpoint checkpoint = ValidSweepCheckpoint(4, {1, 2, 3});
  std::string path = TempPath("ckpt_atomic.bin");
  std::string error;
  ASSERT_TRUE(SaveSweepCheckpoint(checkpoint, path, &error)) << error;
  const std::vector<uint8_t> original = ReadAll(path);

  // A save into an unwritable location fails without touching `path`.
  EXPECT_FALSE(SaveSweepCheckpoint(checkpoint,
                                   "/nonexistent-dir-zz/ckpt.bin", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(ReadAll(path), original);
  // And no stray temp file is left beside the target.
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Corruption fuzzing: a checkpoint truncated at ANY byte boundary
// (SweepTruncationAtEveryByteIsRejected) or with ANY single-byte corruption
// must be rejected with an error — never a crash, a hang, or a
// multi-gigabyte allocation.

TEST(CheckpointFuzzTest, EverySingleByteCorruptionIsRejected) {
  SweepCheckpoint checkpoint = ValidSweepCheckpoint(5, {0, 1, 2, 3, 4});
  checkpoint.iteration = 2;
  const std::string path = TempPath("ckpt_flip.bin");
  std::string error;
  ASSERT_TRUE(SaveSweepCheckpoint(checkpoint, path, &error)) << error;
  const std::vector<uint8_t> bytes = ReadAll(path);

  const std::string flipped = TempPath("ckpt_flip_mut.bin");
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> mutated = bytes;
      mutated[pos] ^= bit;
      WriteAll(flipped, mutated);
      SweepCheckpoint loaded;
      EXPECT_FALSE(LoadSweepCheckpoint(flipped, &loaded, &error))
          << "accepted corruption at byte " << pos << " bit " << int(bit);
    }
  }
}

TEST(CheckpointFuzzTest, OversizedCountIsRejectedWithoutAllocation) {
  // Hand-craft a frame whose assignment count claims 2^50 entries. The
  // header and CRC are valid — only the bounded reader can catch it, and it
  // must do so BEFORE sizing the vector (the original bug resize()d first).
  PayloadWriter out;
  out.Put(uint32_t{4});                       // num_topics
  out.Put(uint32_t{2});                       // mh_steps
  out.Put(uint64_t{7});                       // seed
  out.Put(double{0.5});                       // alpha
  out.Put(double{0.01});                      // beta
  out.Put(uint64_t{0});                       // alpha_vector count
  out.Put(uint32_t{1});                       // iteration
  out.Put(uint32_t{0});                       // next_stage
  out.Put(uint64_t{0});                       // phase_epoch
  out.Put(uint64_t{0});                       // base_word
  out.Put(uint64_t{0});                       // base_doc
  out.Put(uint32_t{1});                       // plan.num_doc_blocks
  out.Put(uint32_t{1});                       // plan.num_word_blocks
  out.Put(uint64_t{0});                       // plan.doc_block count
  out.Put(uint64_t{0});                       // plan.word_block count
  out.Put(uint64_t{4});                       // ck_fixed count
  for (int k = 0; k < 4; ++k) out.Put(int64_t{0});
  out.Put(uint64_t{1} << 50);                 // assignment count: absurd
  out.Put(uint32_t{0});                       // ...backed by 4 bytes
  const std::string path = TempPath("ckpt_oversized.bin");
  std::string error;
  ASSERT_TRUE(WriteFrame(path, FrameKind::kSweepCheckpoint, out.bytes(),
                         &error))
      << error;
  SweepCheckpoint loaded;
  EXPECT_FALSE(LoadSweepCheckpoint(path, &loaded, &error));
  EXPECT_NE(error.find("truncated sweep state"), std::string::npos) << error;
  EXPECT_TRUE(loaded.assignments.empty());  // nothing was ever allocated
}

TEST(CheckpointFuzzTest, WrongFrameKindIsRejected) {
  // A frame of any other kind handed to the sweep loader must fail on the
  // kind field, not mis-parse — including kinds 1, 4 and 5, whose formats
  // are retired, and a serving model checkpoint.
  std::vector<uint8_t> payload;
  EncodeSweepCheckpointPayload(ValidSweepCheckpoint(4, {0, 1}), &payload);
  const std::string path = TempPath("ckpt_kind.bin");
  for (const uint32_t kind : {1u, 3u, 4u, 5u}) {
    std::string error;
    ASSERT_TRUE(
        WriteFrame(path, static_cast<FrameKind>(kind), payload, &error))
        << error;
    SweepCheckpoint loaded;
    EXPECT_FALSE(LoadSweepCheckpoint(path, &loaded, &error)) << kind;
    EXPECT_NE(error.find("kind " + std::to_string(kind)), std::string::npos)
        << error;
  }
}

TEST(CheckpointFuzzTest, SweepCheckpointValidatesInvariants) {
  SweepCheckpoint good;
  good.config = LdaConfig::PaperDefaults(4);
  good.config.mh_steps = 2;
  good.assignments = {0, 1, 2, 3};
  good.proposals = std::vector<TopicId>(8, 1);
  good.ck_fixed = {1, 1, 1, 1};
  const std::string path = TempPath("sweep_invariants.bin");
  std::string error;
  ASSERT_TRUE(SaveSweepCheckpoint(good, path, &error)) << error;
  SweepCheckpoint loaded;
  ASSERT_TRUE(LoadSweepCheckpoint(path, &loaded, &error)) << error;

  auto expect_rejected = [&](const SweepCheckpoint& bad) {
    ASSERT_TRUE(SaveSweepCheckpoint(bad, path, &error)) << error;
    SweepCheckpoint out;
    EXPECT_FALSE(LoadSweepCheckpoint(path, &out, &error));
    EXPECT_FALSE(error.empty());
  };
  SweepCheckpoint bad = good;
  bad.ck_fixed = {2, 1, 1, 1};  // sums to 5 over 4 tokens
  expect_rejected(bad);
  bad = good;
  bad.ck_fixed = {-1, 3, 1, 1};  // negative count
  expect_rejected(bad);
  bad = good;
  bad.proposals.pop_back();  // no longer mh_steps × tokens
  expect_rejected(bad);
  bad = good;
  bad.proposals[3] = 9;  // out-of-range topic
  expect_rejected(bad);
  bad = good;
  bad.plan.num_doc_blocks = 3;  // block map missing for a 3-block plan
  expect_rejected(bad);
}

TEST(CheckpointFuzzTest, SweepTruncationAtEveryByteIsRejected) {
  Corpus corpus = MakeTinyCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(4);
  WarpLdaSampler sampler;
  sampler.Init(corpus, config);
  SweepPlan plan = MakeSweepPlan(corpus, 2, 2);
  ParallelExecutor executor(2);
  const std::string path = TempPath("sweep_trunc.bin");
  std::string error;
  bool saved = false;
  executor.RunSweep(sampler, plan, [&](SweepStage next) {
    // Every plan's one mid-sweep barrier: between the word and doc passes.
    if (next != SweepStage::kDocAccept || saved) return;
    SweepCheckpoint captured;
    ASSERT_TRUE(sampler.CaptureSweepState(&captured));
    captured.iteration = 0;
    ASSERT_TRUE(SaveSweepCheckpoint(captured, path, &error)) << error;
    saved = true;
  });
  ASSERT_TRUE(saved);
  const std::vector<uint8_t> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 36u);

  const std::string cut = TempPath("sweep_trunc_cut.bin");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteAll(cut, std::vector<uint8_t>(bytes.begin(), bytes.begin() + len));
    SweepCheckpoint loaded;
    EXPECT_FALSE(LoadSweepCheckpoint(cut, &loaded, &error))
        << "accepted a sweep checkpoint truncated to " << len << " bytes";
  }
}

// ---------------------------------------------------------------------------
// In-flight sweep checkpointing: capture at a stage barrier, restore in a
// fresh sampler ("fresh process" state-wise), finish, and continue — the
// final assignments must be bit-identical to an uninterrupted run, at every
// combination of capture/resume thread widths.

class SweepRestoreBitIdentityTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(SweepRestoreBitIdentityTest, MidSweepRestoreMatchesUninterrupted) {
  const auto [capture_threads, resume_threads] = GetParam();
  Corpus corpus = MakeCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(8);
  config.alpha = 0.1;
  constexpr uint32_t kTotalSweeps = 6;
  constexpr uint32_t kInterruptedSweep = 3;  // capture mid-sweep 3

  // Uninterrupted reference (every plan samples what Iterate() samples).
  WarpLdaSampler reference;
  reference.Init(corpus, config);
  for (uint32_t i = 0; i < kTotalSweeps; ++i) reference.Iterate();

  // Every barrier of the interrupted sweep is a legal capture point; check
  // them all. Every plan runs the same two spans, [word-accept +
  // word-propose] and [doc-accept + doc-propose], so a sweep stops once, at
  // doc-accept. (Checkpoints at the word-propose and doc-propose barriers
  // of earlier builds are refused: LegacyProposeBarrierFixturesAreRejected.)
  struct PlanBarriers {
    uint32_t doc_blocks;
    uint32_t word_blocks;
    std::vector<SweepStage> barriers;
  };
  const std::vector<PlanBarriers> cases = {
      {3, 2, {SweepStage::kDocAccept}},
      {1, 2, {SweepStage::kDocAccept}},
  };
  for (const PlanBarriers& c : cases) {
    const SweepPlan plan = MakeSweepPlan(corpus, c.doc_blocks, c.word_blocks);
    for (SweepStage barrier : c.barriers) {
      const std::string label = std::to_string(c.doc_blocks) + "x" +
                                std::to_string(c.word_blocks) + " at " +
                                ToString(barrier);
      WarpLdaSampler victim;
      victim.Init(corpus, config);
      ParallelExecutor capture_exec(capture_threads);
      for (uint32_t i = 0; i + 1 < kInterruptedSweep; ++i) {
        capture_exec.RunSweep(victim, plan);
      }
      const std::string path = TempPath(
          "sweep_resume_" + std::to_string(capture_threads) + "_" +
          std::to_string(resume_threads) + "_" +
          std::to_string(c.doc_blocks) + "x" + std::to_string(c.word_blocks) +
          "_" + std::to_string(static_cast<int>(barrier)) + ".bin");
      std::string error;
      bool saved = false;
      std::vector<SweepStage> seen;
      capture_exec.RunSweep(victim, plan, [&](SweepStage next) {
        seen.push_back(next);
        if (next != barrier || saved) return;
        SweepCheckpoint captured;
        ASSERT_TRUE(victim.CaptureSweepState(&captured));
        captured.iteration = kInterruptedSweep - 1;
        ASSERT_TRUE(SaveSweepCheckpoint(captured, path, &error)) << error;
        saved = true;
      });
      EXPECT_EQ(seen, c.barriers) << label;
      ASSERT_TRUE(saved) << label;
      // `victim` dies here (the simulated kill); everything below uses
      // only the file.

      SweepCheckpoint loaded;
      ASSERT_TRUE(LoadSweepCheckpoint(path, &loaded, &error)) << error;
      EXPECT_EQ(loaded.next_stage, barrier);
      WarpLdaSampler resumed;
      resumed.Init(corpus, config);
      ASSERT_TRUE(resumed.RestoreSweepState(loaded, &error)) << error;
      ParallelExecutor resume_exec(resume_threads);
      resume_exec.FinishSweep(resumed, loaded.plan);
      for (uint32_t i = kInterruptedSweep; i < kTotalSweeps; ++i) {
        resume_exec.RunSweep(resumed, plan);
      }
      EXPECT_EQ(resumed.Assignments(), reference.Assignments())
          << "diverged after restoring " << label << " with "
          << capture_threads << "->" << resume_threads << " threads";
      EXPECT_EQ(resumed.topic_counts(), reference.topic_counts()) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadWidths, SweepRestoreBitIdentityTest,
    ::testing::Values(std::pair<uint32_t, uint32_t>{1, 8},
                      std::pair<uint32_t, uint32_t>{2, 2},
                      std::pair<uint32_t, uint32_t>{8, 1}),
    [](const auto& pinfo) {
      return "capture" + std::to_string(pinfo.param.first) + "_resume" +
             std::to_string(pinfo.param.second);
    });

// Checkpoints from an earlier build, whose 3x2 plan split columns and rows
// across blocks and so also stopped at the word-propose and doc-propose
// barriers: each was captured in sweep 3 of MakeCorpus() with
// PaperDefaults(8), alpha 0.1, on MakeSweepPlan(corpus, 3, 2). They still
// load (the frame and payload are unchanged), but no sweep stops at a
// propose barrier any more, so the restore is refused with a message that
// names the stage, and the refused sampler is left usable.
TEST(SweepRestoreTest, LegacyProposeBarrierFixturesAreRejected) {
  Corpus corpus = MakeCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(8);
  config.alpha = 0.1;
  WarpLdaSampler reference;
  reference.Init(corpus, config);
  reference.Iterate();

  const struct {
    const char* file;
    SweepStage stage;
  } fixtures[] = {
      {"sweep_3x2_word_propose.ckpt", SweepStage::kWordPropose},
      {"sweep_3x2_doc_propose.ckpt", SweepStage::kDocPropose},
  };
  for (const auto& fixture : fixtures) {
    const std::string path =
        std::string(WARPLDA_TEST_FIXTURES) + "/" + fixture.file;
    SweepCheckpoint loaded;
    std::string error;
    ASSERT_TRUE(LoadSweepCheckpoint(path, &loaded, &error)) << error;
    EXPECT_EQ(loaded.next_stage, fixture.stage) << fixture.file;
    EXPECT_EQ(loaded.iteration, 2u) << fixture.file;

    WarpLdaSampler refused;
    refused.Init(corpus, config);
    EXPECT_FALSE(refused.RestoreSweepState(loaded, &error)) << fixture.file;
    EXPECT_NE(error.find(ToString(fixture.stage)), std::string::npos)
        << error;
    EXPECT_NE(error.find("predates whole-item blocks"), std::string::npos)
        << error;
    EXPECT_EQ(refused.sweep_stage(), SweepStage::kDone) << fixture.file;
    refused.Iterate();
    EXPECT_EQ(refused.Assignments(), reference.Assignments()) << fixture.file;
  }
}

TEST(SweepRestoreTest, RestoreRejectsMismatchedRun) {
  Corpus corpus = MakeCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(8);
  WarpLdaSampler sampler;
  sampler.Init(corpus, config);
  SweepCheckpoint captured;
  ASSERT_TRUE(sampler.CaptureSweepState(&captured));

  std::string error;
  WarpLdaSampler other;
  LdaConfig other_config = config;
  other_config.seed = config.seed + 1;
  other.Init(corpus, other_config);
  EXPECT_FALSE(other.RestoreSweepState(captured, &error));  // seed mismatch
  EXPECT_FALSE(error.empty());

  Corpus tiny = MakeTinyCorpus();
  WarpLdaSampler wrong_corpus;
  wrong_corpus.Init(tiny, config);
  EXPECT_FALSE(wrong_corpus.RestoreSweepState(captured, &error));
}

// ---------------------------------------------------------------------------
// Trainer-level durability: WarpLDA's checkpoint_every writes
// between-sweeps checkpoints that resume bit-identically, under any plan
// and thread count. (Train refuses checkpoint_dir for the baselines:
// ParallelSweepTest.TrainerGridOptionsRequireGridSampler.)

TEST(TrainerDurabilityTest, GridResumeFromIterationCheckpointIsBitIdentical) {
  Corpus corpus = MakeCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(8);
  config.alpha = 0.1;

  TrainOptions defaults;  // trivial plan on the calling thread
  defaults.iterations = 9;
  defaults.eval_every = 0;
  TrainOptions grid = defaults;
  grid.sweep_plan = MakeSweepPlan(corpus, 2, 2);
  grid.sweep_threads = 2;

  for (const TrainOptions& base_options : {defaults, grid}) {
    const std::string label =
        base_options.sweep_plan.trivial() ? "defaults" : "2x2";
    WarpLdaSampler uninterrupted;
    TrainResult reference = Train(uninterrupted, corpus, config, base_options);

    const std::string dir = TempPath("train_grid_resume_" + label);
    std::filesystem::remove_all(dir);
    TrainOptions first_leg = base_options;
    first_leg.iterations = 6;
    first_leg.checkpoint_dir = dir;
    first_leg.checkpoint_every = 3;
    WarpLdaSampler killed;
    Train(killed, corpus, config, first_leg);
    EXPECT_TRUE(FileExists(dir + "/sweep.ckpt")) << label;

    TrainOptions second_leg = base_options;  // full 9 iterations
    second_leg.checkpoint_dir = dir;
    second_leg.checkpoint_every = 3;
    second_leg.resume = true;
    WarpLdaSampler resumed;
    TrainResult continued = Train(resumed, corpus, config, second_leg);
    EXPECT_EQ(continued.assignments, reference.assignments) << label;
    // Resume history restarts after the checkpointed iteration.
    ASSERT_FALSE(continued.history.empty()) << label;
    EXPECT_EQ(continued.history.front().iteration, 9u) << label;
  }
}

TEST(TrainerDurabilityTest, ResumeWithHyperOptimizationIsBitIdentical) {
  // Priors are re-estimated on the absolute iteration, so a run split by a
  // checkpoint optimizes after the same sweeps as the unsplit run — the
  // first leg's last sweep included when it falls on the stride (the 3 + 1
  // split) — and ends with the same assignments and the same priors.
  Corpus corpus = MakeCorpus();
  const LdaConfig config = LdaConfig::PaperDefaults(8);
  TrainOptions options;
  options.iterations = 4;
  options.eval_every = 0;
  options.optimize_hyper_every = 3;
  WarpLdaSampler uninterrupted;
  const TrainResult reference = Train(uninterrupted, corpus, config, options);
  ASSERT_NE(reference.final_alpha, config.alpha);
  ASSERT_NE(reference.final_beta, config.beta);

  for (uint32_t first : {2u, 3u}) {
    const std::string dir =
        TempPath("train_hyper_resume_" + std::to_string(first));
    std::filesystem::remove_all(dir);
    TrainOptions first_leg = options;
    first_leg.iterations = first;
    first_leg.checkpoint_dir = dir;
    WarpLdaSampler killed;
    Train(killed, corpus, config, first_leg);

    TrainOptions second_leg = options;
    second_leg.checkpoint_dir = dir;
    second_leg.resume = true;
    WarpLdaSampler resumed;
    const TrainResult continued = Train(resumed, corpus, config, second_leg);
    EXPECT_EQ(continued.assignments, reference.assignments) << first;
    EXPECT_EQ(continued.final_alpha, reference.final_alpha) << first;
    EXPECT_EQ(continued.final_beta, reference.final_beta) << first;
    EXPECT_EQ(continued.final_log_likelihood, reference.final_log_likelihood)
        << first;
  }
}

TEST(TrainerDurabilityTest, ResumeWithCorruptCheckpointThrows) {
  Corpus corpus = MakeCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(8);
  const std::string dir = TempPath("train_corrupt_resume");
  std::filesystem::remove_all(dir);
  TrainOptions options;
  options.iterations = 2;
  options.eval_every = 0;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 1;
  options.sweep_plan = MakeSweepPlan(corpus, 2, 2);
  WarpLdaSampler sampler;
  Train(sampler, corpus, config, options);

  // Flip a payload byte: resume must fail loudly, not retrain silently.
  std::vector<uint8_t> bytes = ReadAll(dir + "/sweep.ckpt");
  bytes[bytes.size() - 1] ^= 0x20;
  WriteAll(dir + "/sweep.ckpt", bytes);
  options.resume = true;
  WarpLdaSampler resumed;
  EXPECT_THROW(Train(resumed, corpus, config, options), std::runtime_error);
}

// The CI smoke test: a real SIGKILL mid-sweep (no destructors, no flushes —
// the closest a test gets to a power cut), then a resume in a fresh
// trainer, asserting the final model is bit-identical to a run that was
// never killed. Checkpoints at every stage barrier via checkpoint_stages.
TEST(CheckpointKillAndResumeTest, SigkillMidSweepResumesBitIdentical) {
  Corpus corpus = MakeCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(8);
  config.alpha = 0.1;

  TrainOptions options;
  options.iterations = 6;
  options.eval_every = 0;
  options.sweep_plan = MakeSweepPlan(corpus, 2, 2);
  options.sweep_threads = 2;

  WarpLdaSampler uninterrupted;
  TrainResult reference = Train(uninterrupted, corpus, config, options);

  const std::string dir = TempPath("kill_resume");
  std::filesystem::remove_all(dir);
  options.checkpoint_dir = dir;
  options.checkpoint_stages = true;

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: train until the doc-accept barrier of sweep 4 (the mid-sweep
    // barrier of every plan), then die hard.
    TrainOptions child_options = options;
    child_options.checkpoint_hook = [](uint32_t completed,
                                       SweepStage next_stage) {
      if (completed == 3 && next_stage == SweepStage::kDocAccept) {
        kill(getpid(), SIGKILL);
      }
    };
    WarpLdaSampler victim;
    Train(victim, corpus, config, child_options);
    _exit(3);  // reaching here means the kill never fired
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of being killed";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_TRUE(FileExists(dir + "/sweep.ckpt"));

  options.resume = true;
  WarpLdaSampler resumed;
  TrainResult continued = Train(resumed, corpus, config, options);
  EXPECT_EQ(continued.assignments, reference.assignments);
  EXPECT_EQ(continued.final_log_likelihood, reference.final_log_likelihood);
}

// ---------------------------------------------------------------------------
// Serving checkpoints: one file, dir/model.ckpt, that restores to exactly the
// model a direct publish would serve.

TEST(ModelStoreCheckpointTest, RestoreEqualsFullPublish) {
  Corpus corpus = MakeCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(8);
  WarpLdaSampler sampler;
  sampler.Init(corpus, config);

  serve::ModelStore store;
  const std::string dir = TempPath("model_ckpt");
  std::filesystem::remove_all(dir);
  const std::string file = dir + "/model.ckpt";
  std::string error;

  std::shared_ptr<const TopicModel> latest;
  for (int leg = 0; leg < 3; ++leg) {
    for (int i = 0; i < 2; ++i) sampler.Iterate();
    latest = sampler.ExportSharedModel();
    store.Publish(latest);
    ASSERT_TRUE(store.CheckpointTo(dir, &error)) << error;
  }
  // Each CheckpointTo rewrote the one file; nothing else is on disk.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);

  serve::ModelStore restored;
  ASSERT_TRUE(restored.RestoreFrom(dir, &error)) << error;
  ASSERT_NE(restored.Current(), nullptr);
  // The file holds the last published model, and the version continues
  // where the checkpointing store stopped.
  EXPECT_TRUE(restored.Current()->model() == *latest);
  EXPECT_EQ(restored.version(), store.version());
  EXPECT_EQ(restored.Current()->version(), 3u);

  // Serving reads are bit-identical to a direct publish of the same model.
  serve::ModelStore direct;
  auto direct_snapshot = direct.Publish(latest);
  auto restored_snapshot = restored.Current();
  for (WordId w = 0; w < latest->num_words(); ++w) {
    for (uint32_t k = 0; k < latest->num_topics(); ++k) {
      EXPECT_EQ(restored_snapshot->Phi(w, k), direct_snapshot->Phi(w, k));
    }
  }

  // A call at a version no newer than the one last written is a no-op: the
  // marker survives it, from the writing store and from the restored one.
  const std::vector<uint8_t> marker = {'s', 't', 'a', 'l', 'e'};
  WriteAll(file, marker);
  ASSERT_TRUE(store.CheckpointTo(dir, &error)) << error;
  ASSERT_TRUE(restored.CheckpointTo(dir, &error)) << error;
  EXPECT_EQ(ReadAll(file), marker);

  // The restored store's next publish overwrites the file, and the newer
  // model restores.
  for (int i = 0; i < 2; ++i) sampler.Iterate();
  latest = sampler.ExportSharedModel();
  restored.Publish(latest);
  ASSERT_TRUE(restored.CheckpointTo(dir, &error)) << error;
  serve::ModelStore again;
  ASSERT_TRUE(again.RestoreFrom(dir, &error)) << error;
  EXPECT_TRUE(again.Current()->model() == *latest);
  EXPECT_EQ(again.version(), 4u);
}

TEST(ModelStoreCheckpointTest, RestoreRejectsBadFiles) {
  serve::ModelStore empty_store;
  std::string error;
  const std::string missing = TempPath("no_such_model_dir");
  std::filesystem::remove_all(missing);
  EXPECT_FALSE(empty_store.RestoreFrom(missing, &error));
  EXPECT_NE(error.find("model.ckpt"), std::string::npos) << error;

  EXPECT_FALSE(empty_store.CheckpointTo(missing, &error));  // nothing published

  // A bit flip anywhere in the file fails the restore and leaves the store
  // unchanged.
  Corpus corpus = MakeCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(8);
  WarpLdaSampler sampler;
  sampler.Init(corpus, config);
  sampler.Iterate();
  serve::ModelStore store;
  store.Publish(sampler.ExportSharedModel());
  const std::string dir = TempPath("model_ckpt_flipped");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(store.CheckpointTo(dir, &error)) << error;
  const std::string file = dir + "/model.ckpt";
  std::vector<uint8_t> bytes = ReadAll(file);
  bytes[bytes.size() / 2] ^= 0x10;
  WriteAll(file, bytes);
  serve::ModelStore restored;
  EXPECT_FALSE(restored.RestoreFrom(dir, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(restored.Current(), nullptr);
  EXPECT_EQ(restored.version(), 0u);

  // A directory holding only the retired base + delta chain files is not
  // read: the error names the file that is.
  const std::string old_dir = TempPath("model_chain_retired");
  std::filesystem::remove_all(old_dir);
  std::filesystem::create_directories(old_dir);
  const std::vector<uint8_t> payload = {1, 2, 3, 4};
  ASSERT_TRUE(WriteFrame(old_dir + "/model-00000000000000000001.base",
                         FrameKind::kModelBase, payload, &error))
      << error;
  ASSERT_TRUE(WriteFrame(old_dir + "/model-00000000000000000002.delta",
                         static_cast<FrameKind>(4), payload, &error))
      << error;
  EXPECT_FALSE(restored.RestoreFrom(old_dir, &error));
  EXPECT_NE(error.find("model.ckpt"), std::string::npos) << error;
  EXPECT_EQ(restored.Current(), nullptr);
}

// ---------------------------------------------------------------------------
// Stream semantics of the frame readers/writers. A pipe (like a socket) may
// deliver one byte per read() and accept less than asked per write(); the
// helpers must loop, and must retry EINTR instead of failing — these are the
// seams the distributed transport (src/dist/) reads frames through.

std::vector<uint8_t> TestPayload(size_t size) {
  std::vector<uint8_t> payload(size);
  for (size_t i = 0; i < size; ++i) payload[i] = static_cast<uint8_t>(i * 7);
  return payload;
}

TEST(FrameStreamTest, ReadFrameFdSurvivesByteDribbledPipe) {
  const std::vector<uint8_t> payload = TestPayload(513);
  const std::vector<uint8_t> wire =
      EncodeFrame(FrameKind::kDistMessage, payload);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  // Dribble the frame one byte at a time: every read() on the other end
  // sees a 1-byte short read, for the header and the payload both.
  std::thread writer([&] {
    for (uint8_t byte : wire) {
      ASSERT_EQ(::write(fds[1], &byte, 1), 1);
    }
    ::close(fds[1]);
  });

  std::vector<uint8_t> got;
  std::string error;
  bool eof = true;
  EXPECT_TRUE(ReadFrameFd(fds[0], FrameKind::kDistMessage, 1 << 20, &got,
                          &error, &eof))
      << error;
  EXPECT_FALSE(eof);
  EXPECT_EQ(got, payload);

  // The stream then ends cleanly: the next read reports EOF, not an error.
  EXPECT_FALSE(ReadFrameFd(fds[0], FrameKind::kDistMessage, 1 << 20, &got,
                           &error, &eof));
  EXPECT_TRUE(eof);
  writer.join();
  ::close(fds[0]);
}

TEST(FrameStreamTest, WriteFrameFdSurvivesShortWritesIntoFullPipe) {
  // Larger than any default pipe buffer, so write() must block and return
  // short while the reader drains in tiny sips.
  const std::vector<uint8_t> payload = TestPayload(1 << 20);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  std::vector<uint8_t> got;
  std::string read_error;
  bool read_ok = false;
  std::thread reader([&] {
    read_ok = ReadFrameFd(fds[0], FrameKind::kDistMessage, 2 << 20, &got,
                          &read_error, nullptr);
    ::close(fds[0]);
  });

  std::string error;
  EXPECT_TRUE(WriteFrameFd(fds[1], FrameKind::kDistMessage, payload, &error))
      << error;
  ::close(fds[1]);
  reader.join();
  EXPECT_TRUE(read_ok) << read_error;
  EXPECT_EQ(got, payload);
}

TEST(FrameStreamTest, TruncatedStreamReportsErrorNotEof) {
  const std::vector<uint8_t> payload = TestPayload(300);
  const std::vector<uint8_t> wire =
      EncodeFrame(FrameKind::kDistMessage, payload);
  // Cut mid-header and mid-payload: both are hard errors (the peer died
  // mid-frame), never a clean EOF.
  for (const size_t cut : {kFrameHeaderBytes / 2, wire.size() - 10}) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], wire.data(), cut), static_cast<ssize_t>(cut));
    ::close(fds[1]);
    std::vector<uint8_t> got;
    std::string error;
    bool eof = true;
    EXPECT_FALSE(ReadFrameFd(fds[0], FrameKind::kDistMessage, 1 << 20, &got,
                             &error, &eof));
    EXPECT_FALSE(eof) << "a mid-frame cut must not look like a clean EOF";
    EXPECT_FALSE(error.empty());
    ::close(fds[0]);
  }
}

// EINTR: signals without SA_RESTART make blocked read()/write() return
// -1/EINTR; the helpers must retry, not fail. A sibling thread peppers the
// blocked reader with signals while dribbling bytes between them.
void FrameStreamSigusr1(int) {}

TEST(FrameStreamTest, ReadFrameFdRetriesEintr) {
  struct sigaction action {};
  struct sigaction old_action {};
  action.sa_handler = FrameStreamSigusr1;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(sigaction(SIGUSR1, &action, &old_action), 0);

  const std::vector<uint8_t> payload = TestPayload(4096);
  const std::vector<uint8_t> wire =
      EncodeFrame(FrameKind::kDistMessage, payload);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  const pthread_t reader_thread = pthread_self();
  std::thread writer([&] {
    size_t sent = 0;
    while (sent < wire.size()) {
      // Interrupt the (likely blocked) reader, then feed it a sliver.
      pthread_kill(reader_thread, SIGUSR1);
      const size_t chunk = std::min<size_t>(64, wire.size() - sent);
      ASSERT_EQ(::write(fds[1], wire.data() + sent, chunk),
                static_cast<ssize_t>(chunk));
      sent += chunk;
      pthread_kill(reader_thread, SIGUSR1);
    }
    ::close(fds[1]);
  });

  std::vector<uint8_t> got;
  std::string error;
  EXPECT_TRUE(ReadFrameFd(fds[0], FrameKind::kDistMessage, 1 << 20, &got,
                          &error, nullptr))
      << error;
  EXPECT_EQ(got, payload);
  writer.join();
  ::close(fds[0]);
  ASSERT_EQ(sigaction(SIGUSR1, &old_action, nullptr), 0);
}

// ==========================================================================
// CRC-32: the checksum in every checkpoint and dist frame. The fixtures in
// tests/fixtures carry CRCs from an earlier implementation, so any change to
// Crc32's bytes also fails LegacyProposeBarrierFixturesAreRejected's load.

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320, inverted in and out).
uint32_t ReferenceCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> CrcTestBytes(size_t size) {
  std::vector<uint8_t> bytes(size);
  uint32_t x = 0x9E3779B9u;
  for (uint8_t& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  const char kCheck[] = "123456789";
  EXPECT_EQ(Crc32(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(kCheck, 0), 0u);
  // Empty input leaves a chained seed unchanged, whatever the pointer.
  EXPECT_EQ(Crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
  EXPECT_EQ(Crc32(kCheck + 9, 0, 0x12345678u), 0x12345678u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<uint8_t> bytes = CrcTestBytes(257 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 257; ++size) {
      ASSERT_EQ(Crc32(bytes.data() + offset, size),
                ReferenceCrc32(bytes.data() + offset, size))
          << "offset " << offset << ", size " << size;
    }
  }
}

TEST(Crc32Test, SeedChainsAtEverySplitPoint) {
  const std::vector<uint8_t> bytes = CrcTestBytes(1024);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, ReferenceCrc32(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    ASSERT_EQ(Crc32(bytes.data() + split, bytes.size() - split,
                    Crc32(bytes.data(), split)),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace warplda
