#include "dist/transport.h"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_executor.h"
#include "core/warp_lda.h"
#include "corpus/synthetic.h"
#include "dist/dist_executor.h"
#include "dist/fault.h"
#include "dist/partitioner.h"
#include "obs/metrics.h"

namespace warplda {
namespace {

// ==========================================================================
// FrameChannel: the reliability envelope, one fault at a time. Both channel
// ends live in this process, joined by a socketpair — real fds, real
// nonblocking io threads, deterministic injected faults.

struct ChannelPair {
  std::unique_ptr<FrameChannel> a;
  std::unique_ptr<FrameChannel> b;
};

ChannelPair MakePair(const FaultSpec& a_fault = {},
                     const FaultSpec& b_fault = {}) {
  int fds[2];
  std::string error;
  EXPECT_TRUE(MakeSocketPair(fds, &error)) << error;
  FrameChannel::Options a_opts;
  a_opts.fault = a_fault;
  a_opts.peer = "b";
  FrameChannel::Options b_opts;
  b_opts.fault = b_fault;
  b_opts.peer = "a";
  ChannelPair pair;
  pair.a = std::make_unique<FrameChannel>(fds[0], a_opts);
  pair.b = std::make_unique<FrameChannel>(fds[1], b_opts);
  return pair;
}

std::vector<uint8_t> Body(uint32_t i) {
  std::vector<uint8_t> body(64 + i % 17);
  for (size_t j = 0; j < body.size(); ++j) {
    body[j] = static_cast<uint8_t>(i * 31 + j);
  }
  return body;
}

/// Sends `n` messages a->b and asserts in-order, uncorrupted delivery —
/// the invariant every fault below must leave intact.
void ExpectReliableDelivery(ChannelPair& pair, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(pair.a->Send(i, Body(i)));
  }
  for (uint32_t i = 0; i < n; ++i) {
    FrameChannel::Message msg;
    ASSERT_EQ(pair.b->Receive(&msg, 10000), FrameChannel::RecvStatus::kOk)
        << "message " << i << " never arrived";
    EXPECT_EQ(msg.type, i) << "reordered delivery";
    EXPECT_EQ(msg.body, Body(i)) << "corrupted delivery";
  }
}

TEST(FrameChannelTest, CleanExchangeBothDirections) {
  ChannelPair pair = MakePair();
  ExpectReliableDelivery(pair, 32);
  ASSERT_TRUE(pair.b->Send(99, Body(99)));
  FrameChannel::Message msg;
  ASSERT_EQ(pair.a->Receive(&msg, 10000), FrameChannel::RecvStatus::kOk);
  EXPECT_EQ(msg.type, 99u);
  EXPECT_EQ(pair.a->stats().frames_sent, 32u);
  EXPECT_EQ(pair.b->stats().frames_received, 32u);
  EXPECT_EQ(pair.b->stats().crc_rejects, 0u);
}

TEST(FrameChannelTest, TryReceiveAndTimeout) {
  ChannelPair pair = MakePair();
  FrameChannel::Message msg;
  EXPECT_FALSE(pair.b->TryReceive(&msg));
  EXPECT_EQ(pair.b->Receive(&msg, 20), FrameChannel::RecvStatus::kTimeout);
  ASSERT_TRUE(pair.a->Send(7, Body(7)));
  ASSERT_EQ(pair.b->Receive(&msg, 10000), FrameChannel::RecvStatus::kOk);
  EXPECT_EQ(msg.type, 7u);
}

TEST(FrameChannelTest, DroppedFramesAreRetransmitted) {
  FaultSpec fault;
  fault.seed = 0xD20;
  fault.drop = 0.3;
  fault.max_faults = 8;
  ChannelPair pair = MakePair(fault);
  ExpectReliableDelivery(pair, 48);
  const FrameChannel::Stats sent = pair.a->stats();
  EXPECT_GT(sent.faults_injected, 0u) << "fault schedule never fired";
  EXPECT_GT(sent.retransmits, 0u) << "drops must be repaired by retransmit";
  // Bounded: a frame suffers at most one fault and retransmissions are
  // clean, so repairs never exceed the injector's budget times the go-back-N
  // window cost.
  EXPECT_LE(sent.retransmits,
            static_cast<uint64_t>(fault.max_faults) * 48u);
  EXPECT_TRUE(pair.a->alive());
  EXPECT_TRUE(pair.b->alive());
}

TEST(FrameChannelTest, CorruptedFramesAreRejectedByCrcAndRenegotiated) {
  FaultSpec fault;
  fault.seed = 0xC0DE;
  fault.corrupt = 0.25;
  fault.max_faults = 6;
  ChannelPair pair = MakePair(fault);
  ExpectReliableDelivery(pair, 48);
  const FrameChannel::Stats sent = pair.a->stats();
  const FrameChannel::Stats recv = pair.b->stats();
  EXPECT_GT(sent.faults_injected, 0u);
  // Every injected corruption must be caught by the payload CRC — none may
  // reach the application (ExpectReliableDelivery already proved payload
  // integrity; this proves the *mechanism* was the CRC, not luck).
  EXPECT_GE(recv.crc_rejects, sent.faults_injected);
  EXPECT_GT(recv.naks_sent, 0u);
  EXPECT_GT(sent.naks_received, 0u);
  EXPECT_GT(sent.retransmits, 0u);
}

TEST(FrameChannelTest, DuplicatedFramesAreSuppressed) {
  FaultSpec fault;
  fault.seed = 0xD0B;
  fault.duplicate = 0.4;
  fault.max_faults = 10;
  ChannelPair pair = MakePair(fault);
  ExpectReliableDelivery(pair, 48);
  EXPECT_GT(pair.a->stats().faults_injected, 0u);
  EXPECT_GT(pair.b->stats().dup_suppressed, 0u)
      << "duplicates must be re-acked, never redelivered";
  EXPECT_EQ(pair.b->stats().frames_received, 48u);
}

TEST(FrameChannelTest, DelayedFramesStillArriveInOrder) {
  FaultSpec fault;
  fault.seed = 0xDE1A;
  fault.delay = 0.3;
  fault.delay_ms = 15;
  fault.max_faults = 6;
  ChannelPair pair = MakePair(fault);
  ExpectReliableDelivery(pair, 48);
  EXPECT_GT(pair.a->stats().faults_injected, 0u);
}

TEST(FrameChannelTest, AllFaultsAtOnceConverge) {
  FaultSpec fault;
  fault.seed = 0xA11;
  fault.drop = 0.1;
  fault.corrupt = 0.1;
  fault.duplicate = 0.1;
  fault.delay = 0.1;
  fault.max_faults = 24;
  // Both directions faulted (distinct seeds), acks included in the chaos.
  FaultSpec back = fault;
  back.seed = 0xB22;
  ChannelPair pair = MakePair(fault, back);
  ExpectReliableDelivery(pair, 64);
  EXPECT_GT(pair.a->stats().faults_injected + pair.b->stats().faults_injected,
            0u);
}

TEST(FrameChannelTest, PeerCloseIsDetectedAsDeath) {
  ChannelPair pair = MakePair();
  ASSERT_TRUE(pair.a->Send(1, Body(1)));
  FrameChannel::Message msg;
  ASSERT_EQ(pair.b->Receive(&msg, 10000), FrameChannel::RecvStatus::kOk);
  pair.b->Close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pair.a->alive() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(pair.a->alive());
  EXPECT_FALSE(pair.a->death_reason().empty());
  EXPECT_FALSE(pair.a->Send(2, Body(2)));
  EXPECT_EQ(pair.a->Receive(&msg, 50), FrameChannel::RecvStatus::kClosed);
}

TEST(FrameChannelTest, DeterministicFaultSchedule) {
  FaultSpec spec;
  spec.seed = 42;
  spec.drop = 0.2;
  spec.corrupt = 0.2;
  spec.duplicate = 0.2;
  spec.delay = 0.2;
  FaultInjector x(spec);
  FaultInjector y(spec);
  uint32_t fired = 0;
  for (uint64_t seq = 1; seq <= 200; ++seq) {
    const FaultAction ax = x.Decide(seq);
    ASSERT_EQ(static_cast<int>(ax), static_cast<int>(y.Decide(seq)))
        << "schedule must be a pure function of (seed, seq)";
    if (ax != FaultAction::kNone) ++fired;
  }
  EXPECT_GT(fired, 100u);  // ~80% fault probability
  // Corruption must actually change bytes.
  std::vector<uint8_t> payload(32, 0xAB);
  x.CorruptPayload(5, payload.data(), payload.size());
  EXPECT_NE(payload, std::vector<uint8_t>(32, 0xAB));
}

TEST(FrameChannelTest, LoopbackTcpConnectAcceptWithTimeouts) {
  uint16_t port = 0;
  std::string error;
  const int listen_fd = ListenLoopback(&port, &error);
  ASSERT_GE(listen_fd, 0) << error;
  ASSERT_NE(port, 0);
  // Accept deadline fires when nobody connects.
  EXPECT_LT(AcceptWithTimeout(listen_fd, 30, &error), 0);
  const int client = ConnectLoopback(port, 5000, &error);
  ASSERT_GE(client, 0) << error;
  const int server = AcceptWithTimeout(listen_fd, 5000, &error);
  ASSERT_GE(server, 0) << error;
  ::close(listen_fd);
  ChannelPair pair;
  FrameChannel::Options opts;
  pair.a = std::make_unique<FrameChannel>(client, opts);
  pair.b = std::make_unique<FrameChannel>(server, opts);
  ExpectReliableDelivery(pair, 16);
  // Connect to a dead port must time out, not hang.
  EXPECT_LT(ConnectLoopback(1, 100, &error), 0);
}

// ==========================================================================
// Distributed execution: the full fault matrix. Every run must end
// bit-identical to an uninterrupted single-process Iterate() — faults and
// deaths may change the wall clock, never the samples.

Corpus DistTestCorpus() {
  SyntheticConfig config;
  config.num_docs = 90;
  config.vocab_size = 160;
  config.num_topics = 5;
  config.mean_doc_length = 18;
  config.alpha = 0.1;
  config.seed = 1234;
  return GenerateLdaCorpus(config).corpus;
}

LdaConfig DistTestConfig() {
  LdaConfig config = LdaConfig::PaperDefaults(8);
  config.seed = 4321;
  config.mh_steps = 2;
  return config;
}

std::vector<TopicId> ReferenceAssignments(const Corpus& corpus,
                                          uint32_t iterations) {
  WarpLdaSampler serial;
  serial.Init(corpus, DistTestConfig());
  for (uint32_t i = 0; i < iterations; ++i) serial.Iterate();
  return serial.Assignments();
}

struct DistRun {
  DistResult result;
  std::vector<TopicId> assignments;
};

DistRun RunDist(const Corpus& corpus, DistConfig config,
                uint32_t grid = 4) {
  WarpLdaSampler sampler;
  sampler.Init(corpus, DistTestConfig());
  SweepPlan plan =
      MakeSweepPlan(corpus, grid, grid, PartitionStrategy::kGreedy);
  DistRun run;
  run.result = RunDistributedSweeps(sampler, corpus, plan, config);
  run.assignments = sampler.Assignments();
  return run;
}

enum class FaultKind { kNone, kDrop, kDelay, kDuplicate, kCorrupt };

FaultSpec MatrixFault(FaultKind kind) {
  FaultSpec fault;
  if (kind == FaultKind::kNone) return fault;
  fault.seed = 0xFA17;
  fault.max_faults = 16;
  switch (kind) {
    case FaultKind::kDrop:
      fault.drop = 0.08;
      break;
    case FaultKind::kDelay:
      fault.delay = 0.08;
      fault.delay_ms = 10;
      break;
    case FaultKind::kDuplicate:
      fault.duplicate = 0.08;
      break;
    case FaultKind::kCorrupt:
      fault.corrupt = 0.08;
      break;
    case FaultKind::kNone:
      break;
  }
  return fault;
}

using MatrixParam = std::tuple<FaultKind, uint32_t>;

class DistFaultMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

std::string MatrixParamName(const ::testing::TestParamInfo<MatrixParam>& info) {
  static const char* kNames[] = {"NoFault", "Drop", "Delay", "Duplicate",
                                 "Corrupt"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) + "_" +
         std::to_string(std::get<1>(info.param)) + "workers";
}

TEST_P(DistFaultMatrixTest, SweepIsBitIdenticalToIterate) {
  const FaultKind kind = std::get<0>(GetParam());
  const uint32_t workers = std::get<1>(GetParam());
  const uint32_t iterations = 2;
  Corpus corpus = DistTestCorpus();

  DistConfig config;
  config.num_workers = workers;
  config.iterations = iterations;
  config.fault = MatrixFault(kind);
  DistRun run = RunDist(corpus, config);

  ASSERT_TRUE(run.result.ok) << run.result.error;
  EXPECT_EQ(run.result.iterations_completed, iterations);
  EXPECT_EQ(run.result.recoveries, 0u);
  EXPECT_EQ(run.assignments, ReferenceAssignments(corpus, iterations))
      << "distributed sweep diverged from single-process Iterate()";

  const FrameChannel::Stats all = [&] {
    FrameChannel::Stats s = run.result.coordinator_stats;
    const FrameChannel::Stats& w = run.result.worker_stats;
    s.frames_sent += w.frames_sent;
    s.retransmits += w.retransmits;
    s.crc_rejects += w.crc_rejects;
    s.dup_suppressed += w.dup_suppressed;
    s.faults_injected += w.faults_injected;
    return s;
  }();
  if (kind != FaultKind::kNone) {
    EXPECT_GT(all.faults_injected, 0u)
        << "fault schedule never fired — the matrix tested nothing";
    // The bounded-retry envelope: faults are first-transmission-only and
    // retransmissions go out clean, so repair traffic is bounded by the
    // injection budget times the go-back-N window, never unbounded.
    EXPECT_LE(all.retransmits, all.faults_injected * 64 + 64);
  }
  if (kind == FaultKind::kCorrupt) {
    EXPECT_GT(all.crc_rejects, 0u) << "corruption never hit the CRC check";
  }
  if (kind == FaultKind::kDuplicate) {
    EXPECT_GT(all.dup_suppressed, 0u);
  }
  if (kind == FaultKind::kNone) {
    EXPECT_EQ(all.crc_rejects, 0u);
    EXPECT_EQ(all.faults_injected, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultByWorkers, DistFaultMatrixTest,
    ::testing::Combine(::testing::Values(FaultKind::kNone, FaultKind::kDrop,
                                         FaultKind::kDelay,
                                         FaultKind::kDuplicate,
                                         FaultKind::kCorrupt),
                       ::testing::Values(1u, 2u, 4u)),
    MatrixParamName);

TEST(DistExecutorTest, RetryCountsVisibleInObsMetrics) {
  obs::SetMetricsEnabled(true);
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* retransmits = reg.GetCounter("dist_retransmits_total");
  obs::Counter* crc_rejects = reg.GetCounter("dist_crc_rejects_total");
  obs::Counter* faults = reg.GetCounter("dist_faults_injected_total");
  const uint64_t retrans_before = retransmits->Value();
  const uint64_t crc_before = crc_rejects->Value();
  const uint64_t faults_before = faults->Value();

  Corpus corpus = DistTestCorpus();
  DistConfig config;
  config.num_workers = 2;
  config.iterations = 1;
  config.fault = MatrixFault(FaultKind::kCorrupt);
  DistRun run = RunDist(corpus, config);
  obs::SetMetricsEnabled(false);

  ASSERT_TRUE(run.result.ok) << run.result.error;
  // Coordinator-side injections and rejects land in the global registry
  // (worker processes keep their own); the retry envelope is observable
  // without touching channel internals.
  const uint64_t faults_seen = faults->Value() - faults_before;
  EXPECT_GT(faults_seen + run.result.worker_stats.faults_injected, 0u);
  EXPECT_GT(crc_rejects->Value() - crc_before +
                run.result.worker_stats.crc_rejects,
            0u);
  EXPECT_LE(retransmits->Value() - retrans_before,
            (faults_seen + run.result.worker_stats.faults_injected) * 64 +
                64);
}

TEST(DistExecutorTest, CoordinatorTimeVisibleInObsMetrics) {
  obs::SetMetricsEnabled(true);
  auto& reg = obs::MetricsRegistry::Global();
  const char* const kNames[] = {"dist_coord_relay_us", "dist_coord_apply_us",
                                "dist_coord_wait_us", "dist_coord_capture_us"};
  std::vector<uint64_t> before;
  for (const char* name : kNames) {
    before.push_back(reg.GetHistogram(name)->Snapshot().count);
  }

  Corpus corpus = DistTestCorpus();
  DistConfig config;
  config.num_workers = 2;
  config.iterations = 2;
  DistRun run = RunDist(corpus, config);
  obs::SetMetricsEnabled(false);

  ASSERT_TRUE(run.result.ok) << run.result.error;
  // Relay, apply and wait are observed once per span: two spans per sweep.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reg.GetHistogram(kNames[i])->Snapshot().count - before[i],
              2u * config.iterations)
        << kNames[i];
  }
  // One capture at the mid-sweep barrier and one after EndSweep; the
  // sweep's last EndStage is not captured.
  EXPECT_EQ(reg.GetHistogram(kNames[3])->Snapshot().count - before[3],
            2u * config.iterations);
}

// Per-pass ownership: the coordinator receives every block's whole delta,
// but forwards each worker only the slice it reads next, so no worker
// takes in more than half what the coordinator does.
TEST(DistExecutorTest, WorkersReceiveOnlyTheirSlices) {
  const uint32_t iterations = 2;
  Corpus corpus = DistTestCorpus();
  DistConfig config;
  config.num_workers = 3;
  config.iterations = iterations;
  DistRun run = RunDist(corpus, config);
  ASSERT_TRUE(run.result.ok) << run.result.error;
  EXPECT_EQ(run.assignments, ReferenceAssignments(corpus, iterations));
  ASSERT_EQ(run.result.worker_reports.size(), 3u);
  const uint64_t coordinator = run.result.coordinator_stats.bytes_received;
  for (uint32_t w = 0; w < 3; ++w) {
    const DistWorkerReport& report = run.result.worker_reports[w];
    ASSERT_TRUE(report.reported) << "worker " << w;
    EXPECT_GT(report.stats.bytes_received, 0u) << "worker " << w;
    EXPECT_LE(report.stats.bytes_received * 2, coordinator)
        << "worker " << w << " received " << report.stats.bytes_received
        << " bytes, the coordinator " << coordinator;
    EXPECT_GT(report.compute_us, 0u) << "worker " << w;
  }
}

TEST(DistExecutorTest, KillWorkerAtEveryBarrierStaysBitIdentical) {
  const uint32_t iterations = 2;
  Corpus corpus = DistTestCorpus();
  const std::vector<TopicId> reference =
      ReferenceAssignments(corpus, iterations);
  // One kill point per span of the run. The span count is what an
  // in-process sweep of RunDist's plan reports: its barrier hook fires at
  // every barrier but the sweep's last.
  uint32_t spans_per_sweep = 1;
  {
    WarpLdaSampler probe;
    probe.Init(corpus, DistTestConfig());
    ParallelExecutor(1).RunSweep(
        probe, MakeSweepPlan(corpus, 4, 4, PartitionStrategy::kGreedy),
        [&](SweepStage) { ++spans_per_sweep; });
  }
  const uint32_t kill_points = iterations * spans_per_sweep;

  for (const bool mid_stage : {false, true}) {
    uint32_t barriers_covered = 0;
    for (uint32_t barrier = 0; barrier < 16; ++barrier) {
      DistConfig config;
      config.num_workers = 2;
      config.iterations = iterations;
      config.kill.worker = 1;
      config.kill.barrier = barrier;
      config.kill.mid_stage = mid_stage;
      DistRun run = RunDist(corpus, config);
      ASSERT_TRUE(run.result.ok)
          << "barrier " << barrier << " mid_stage " << mid_stage << ": "
          << run.result.error;
      ASSERT_EQ(run.assignments, reference)
          << "kill at barrier " << barrier << " (mid_stage " << mid_stage
          << ") changed the samples";
      if (run.result.recoveries == 0) break;  // past the last real barrier
      EXPECT_EQ(run.result.recoveries, 1u);
      EXPECT_EQ(run.result.final_epoch, 1u);
      // The dead worker's blocks must all be repartitioned to the survivor.
      for (uint32_t owner : run.result.block_owner) EXPECT_EQ(owner, 0u);
      ++barriers_covered;
    }
    // A kill just before the run's final EndStage may go unnoticed: the
    // coordinator can already hold every delta of the run.
    const uint32_t must_recover = mid_stage ? kill_points : kill_points - 1;
    EXPECT_GE(barriers_covered, must_recover)
        << "expected a recovery from a kill in every span of the run";
    EXPECT_LE(barriers_covered, kill_points);
  }
}

TEST(DistExecutorTest, ExternalSigkillMidSweepRecovers) {
  const uint32_t iterations = 2;
  Corpus corpus = DistTestCorpus();
  const std::vector<TopicId> reference =
      ReferenceAssignments(corpus, iterations);

  // The kill races the sweep, so try progressively earlier kills; delay 0
  // lands right after the handshake and cannot miss. Whenever it lands, the
  // result must not change.
  bool recovered = false;
  for (const int delay_ms : {10, 4, 0}) {
    DistConfig config;
    config.num_workers = 2;
    config.iterations = iterations;
    std::thread killer;
    config.on_workers_spawned = [&](const std::vector<int>& pids) {
      ASSERT_EQ(pids.size(), 2u);
      const int victim = pids[1];
      killer = std::thread([victim, delay_ms] {
        if (delay_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        }
        ::kill(victim, SIGKILL);
      });
    };
    DistRun run = RunDist(corpus, config);
    if (killer.joinable()) killer.join();

    ASSERT_TRUE(run.result.ok) << run.result.error;
    ASSERT_EQ(run.assignments, reference)
        << "external SIGKILL at +" << delay_ms << "ms changed the samples";
    if (run.result.recoveries >= 1) {
      for (uint32_t owner : run.result.block_owner) EXPECT_EQ(owner, 0u);
      recovered = true;
      break;
    }
  }
  EXPECT_TRUE(recovered) << "no kill landed inside a run";
}

TEST(DistExecutorTest, KillUnderActiveFaultInjection) {
  const uint32_t iterations = 2;
  Corpus corpus = DistTestCorpus();

  DistConfig config;
  config.num_workers = 3;
  config.iterations = iterations;
  config.fault = MatrixFault(FaultKind::kDrop);
  config.kill.worker = 2;
  config.kill.barrier = 2;
  DistRun run = RunDist(corpus, config);

  ASSERT_TRUE(run.result.ok) << run.result.error;
  EXPECT_EQ(run.result.recoveries, 1u);
  EXPECT_EQ(run.assignments, ReferenceAssignments(corpus, iterations));
  for (uint32_t owner : run.result.block_owner) EXPECT_NE(owner, 2u);
}

TEST(DistExecutorTest, LoopbackTcpTransportMatchesIterate) {
  const uint32_t iterations = 1;
  Corpus corpus = DistTestCorpus();
  DistConfig config;
  config.num_workers = 2;
  config.iterations = iterations;
  config.use_tcp = true;
  DistRun run = RunDist(corpus, config);
  ASSERT_TRUE(run.result.ok) << run.result.error;
  EXPECT_EQ(run.assignments, ReferenceAssignments(corpus, iterations));
}

TEST(DistExecutorTest, BlockWeightsCoverEveryToken) {
  Corpus corpus = DistTestCorpus();
  SweepPlan plan = MakeSweepPlan(corpus, 3, 2, PartitionStrategy::kGreedy);
  const std::vector<uint64_t> weights = BlockTokenWeights(corpus, plan);
  ASSERT_EQ(weights.size(), 6u);
  uint64_t total = 0;
  for (uint64_t w : weights) total += w;
  EXPECT_EQ(total, corpus.num_tokens());
}

// A run that loses every worker fails, and the coordinator's sampler must
// stay usable for single-process training: abort the open sweep, then
// Iterate() on the trivial plan (no ownership mask left behind).
TEST(DistExecutorTest, FailedRunLeavesSamplerUsableForIterate) {
  Corpus corpus = DistTestCorpus();
  WarpLdaSampler sampler;
  sampler.Init(corpus, DistTestConfig());
  SweepPlan plan = MakeSweepPlan(corpus, 2, 2, PartitionStrategy::kGreedy);
  DistConfig config;
  config.num_workers = 1;
  config.iterations = 2;
  config.kill.worker = 0;
  config.kill.barrier = 1;
  const DistResult result = RunDistributedSweeps(sampler, corpus, plan, config);
  ASSERT_FALSE(result.ok);
  sampler.AbortSweep();
  EXPECT_NO_THROW(sampler.Iterate());
  std::vector<int64_t> counts(DistTestConfig().num_topics, 0);
  for (TopicId topic : sampler.Assignments()) ++counts[topic];
  EXPECT_EQ(sampler.topic_counts(), counts);
}

TEST(DistExecutorTest, RejectsInvalidConfigurations) {
  Corpus corpus = DistTestCorpus();
  WarpLdaSampler sampler;
  sampler.Init(corpus, DistTestConfig());
  SweepPlan plan = MakeSweepPlan(corpus, 2, 2, PartitionStrategy::kGreedy);

  DistConfig config;
  config.num_workers = 0;
  EXPECT_FALSE(RunDistributedSweeps(sampler, corpus, plan, config).ok);

  SweepPlan bad = plan;
  bad.doc_block.resize(3);  // wrong size for the corpus
  config.num_workers = 1;
  EXPECT_FALSE(RunDistributedSweeps(sampler, corpus, bad, config).ok);
}

}  // namespace
}  // namespace warplda
