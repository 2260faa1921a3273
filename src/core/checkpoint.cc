#include "core/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "obs/metrics.h"
#include "util/checkpoint_io.h"

namespace warplda {

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Structural sanity caps. Generous (the paper's largest run is K = 10^4,
// M = 16) — their job is to reject nonsense from corrupt files with a clear
// message, not to constrain real configurations.
constexpr uint32_t kMaxTopics = 1u << 24;
constexpr uint32_t kMaxMhSteps = 1u << 12;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool FinitePositive(double v) { return std::isfinite(v) && v > 0.0; }

void PutConfig(PayloadWriter& out, const LdaConfig& config) {
  out.Put(config.num_topics);
  out.Put(config.mh_steps);
  out.Put(config.seed);
  out.Put(config.alpha);
  out.Put(config.beta);
  out.PutVec(config.alpha_vector);
}

/// Parses and validates an LdaConfig: rejects non-finite or non-positive
/// priors and a zero MH chain length at load time, before they can poison
/// sampling (a NaN alpha silently corrupts every acceptance ratio; an
/// mh_steps of 0 indexes nothing and draws nothing).
bool GetConfig(PayloadReader& in, LdaConfig* config, const std::string& path,
               std::string* error) {
  if (!in.Get(&config->num_topics) || !in.Get(&config->mh_steps) ||
      !in.Get(&config->seed) || !in.Get(&config->alpha) ||
      !in.Get(&config->beta) ||
      !in.GetVec(&config->alpha_vector, kMaxTopics)) {
    return Fail(error, path + ": truncated config");
  }
  if (config->num_topics == 0 || config->num_topics > kMaxTopics) {
    return Fail(error, path + ": num_topics " +
                           std::to_string(config->num_topics) +
                           " out of range [1, " + std::to_string(kMaxTopics) +
                           "]");
  }
  if (config->mh_steps == 0 || config->mh_steps > kMaxMhSteps) {
    return Fail(error, path + ": mh_steps " +
                           std::to_string(config->mh_steps) +
                           " out of range [1, " +
                           std::to_string(kMaxMhSteps) + "]");
  }
  if (!FinitePositive(config->alpha)) {
    return Fail(error, path + ": alpha " + std::to_string(config->alpha) +
                           " is not finite and positive");
  }
  if (!FinitePositive(config->beta)) {
    return Fail(error, path + ": beta " + std::to_string(config->beta) +
                           " is not finite and positive");
  }
  if (!config->alpha_vector.empty()) {
    if (config->alpha_vector.size() != config->num_topics) {
      return Fail(error, path + ": alpha_vector has " +
                             std::to_string(config->alpha_vector.size()) +
                             " entries for " +
                             std::to_string(config->num_topics) + " topics");
    }
    for (double a : config->alpha_vector) {
      if (!FinitePositive(a)) {
        return Fail(error,
                    path + ": alpha_vector entry is not finite and positive");
      }
    }
  }
  return true;
}

bool TopicsInRange(const std::vector<TopicId>& topics, uint32_t num_topics) {
  for (TopicId z : topics) {
    if (z >= num_topics) return false;
  }
  return true;
}

}  // namespace

void EncodeSweepCheckpointPayload(const SweepCheckpoint& checkpoint,
                                  std::vector<uint8_t>* payload) {
  PayloadWriter out;
  PutConfig(out, checkpoint.config);
  out.Put(checkpoint.iteration);
  out.Put(static_cast<uint32_t>(checkpoint.next_stage));
  out.Put(checkpoint.phase_epoch);
  out.Put(checkpoint.base_word);
  out.Put(checkpoint.base_doc);
  out.Put(checkpoint.plan.num_doc_blocks);
  out.Put(checkpoint.plan.num_word_blocks);
  out.PutVec(checkpoint.plan.doc_block);
  out.PutVec(checkpoint.plan.word_block);
  out.PutVec(checkpoint.ck_fixed);
  out.PutVec(checkpoint.assignments);
  out.PutVec(checkpoint.proposals);
  *payload = out.Take();
}

bool SaveSweepCheckpoint(const SweepCheckpoint& checkpoint,
                         const std::string& path, std::string* error) {
  std::vector<uint8_t> payload;
  EncodeSweepCheckpointPayload(checkpoint, &payload);
  return WriteFrame(path, FrameKind::kSweepCheckpoint, payload, error);
}

bool LoadSweepCheckpoint(const std::string& path, SweepCheckpoint* checkpoint,
                         std::string* error) {
  std::vector<uint8_t> payload;
  if (!ReadFrame(path, FrameKind::kSweepCheckpoint, &payload, error)) {
    return false;
  }
  return DecodeSweepCheckpointPayload(payload, path, checkpoint, error);
}

bool DecodeSweepCheckpointPayload(const std::vector<uint8_t>& payload,
                                  const std::string& context,
                                  SweepCheckpoint* checkpoint,
                                  std::string* error) {
  const std::string& path = context;  // error-message naming
  PayloadReader in(payload);
  if (!GetConfig(in, &checkpoint->config, path, error)) return false;

  uint32_t stage = 0;
  if (!in.Get(&checkpoint->iteration) || !in.Get(&stage) ||
      !in.Get(&checkpoint->phase_epoch) || !in.Get(&checkpoint->base_word) ||
      !in.Get(&checkpoint->base_doc)) {
    return Fail(error, path + ": truncated sweep header");
  }
  if (stage >= static_cast<uint32_t>(SweepStage::kDone)) {
    return Fail(error, path + ": invalid sweep stage " +
                           std::to_string(stage));
  }
  checkpoint->next_stage = static_cast<SweepStage>(stage);

  SweepPlan& plan = checkpoint->plan;
  if (!in.Get(&plan.num_doc_blocks) || !in.Get(&plan.num_word_blocks) ||
      !in.GetVec(&plan.doc_block) || !in.GetVec(&plan.word_block)) {
    return Fail(error, path + ": truncated sweep plan");
  }
  if (plan.num_doc_blocks == 0 || plan.num_word_blocks == 0) {
    return Fail(error, path + ": sweep plan with zero blocks");
  }
  if (plan.doc_block.empty() && plan.num_doc_blocks != 1) {
    return Fail(error, path + ": sweep plan doc blocks without a doc map");
  }
  if (plan.word_block.empty() && plan.num_word_blocks != 1) {
    return Fail(error, path + ": sweep plan word blocks without a word map");
  }
  for (uint32_t b : plan.doc_block) {
    if (b >= plan.num_doc_blocks) {
      return Fail(error, path + ": doc block id out of range");
    }
  }
  for (uint32_t b : plan.word_block) {
    if (b >= plan.num_word_blocks) {
      return Fail(error, path + ": word block id out of range");
    }
  }

  if (!in.GetVec(&checkpoint->ck_fixed, kMaxTopics) ||
      !in.GetVec(&checkpoint->assignments) ||
      !in.GetVec(&checkpoint->proposals)) {
    return Fail(error, path + ": truncated sweep state");
  }
  if (!in.exhausted()) {
    return Fail(error, path + ": trailing bytes after sweep state");
  }

  const uint32_t k = checkpoint->config.num_topics;
  const uint64_t tokens = checkpoint->assignments.size();
  if (checkpoint->ck_fixed.size() != k) {
    return Fail(error, path + ": ck snapshot has " +
                           std::to_string(checkpoint->ck_fixed.size()) +
                           " entries for " + std::to_string(k) + " topics");
  }
  if (checkpoint->proposals.size() !=
      tokens * static_cast<uint64_t>(checkpoint->config.mh_steps)) {
    return Fail(error, path + ": proposal count " +
                           std::to_string(checkpoint->proposals.size()) +
                           " is not mh_steps × token count");
  }
  if (!TopicsInRange(checkpoint->assignments, k) ||
      !TopicsInRange(checkpoint->proposals, k)) {
    return Fail(error, path + ": topic id out of range");
  }
  // The c_k snapshot is a histogram of `tokens` assignments at some earlier
  // barrier: entries must be non-negative and sum to the token count.
  int64_t ck_sum = 0;
  for (int64_t c : checkpoint->ck_fixed) {
    if (c < 0 || static_cast<uint64_t>(c) > tokens) {
      return Fail(error, path + ": ck snapshot entry out of range");
    }
    ck_sum += c;
  }
  if (static_cast<uint64_t>(ck_sum) != tokens) {
    return Fail(error, path + ": ck snapshot sums to " +
                           std::to_string(ck_sum) + " over " +
                           std::to_string(tokens) + " tokens");
  }
  return true;
}

AsyncCheckpointWriter::AsyncCheckpointWriter(size_t max_pending)
    : max_pending_(std::max<size_t>(1, max_pending)),
      writer_([this] { WriterLoop(); }) {}

AsyncCheckpointWriter::~AsyncCheckpointWriter() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;  // writer drains the remaining queue before exiting
  }
  cv_work_.notify_all();
  writer_.join();
}

void AsyncCheckpointWriter::Submit(SweepCheckpoint checkpoint,
                                   std::string path, Completion done) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool metrics = obs::MetricsEnabled();
    const int64_t wait_start = metrics ? NowUs() : 0;
    cv_space_.wait(lock, [&] { return queue_.size() < max_pending_; });
    if (metrics) {
      obs::MetricsRegistry::Global()
          .GetHistogram("ckpt_submit_wait_us",
                        "Trainer wait for checkpoint-writer queue room")
          ->Observe(static_cast<double>(NowUs() - wait_start));
    }
    queue_.push_back(
        {std::move(checkpoint), std::move(path), std::move(done)});
  }
  cv_work_.notify_one();
}

void AsyncCheckpointWriter::WriterLoop() {
  obs::Histogram* save_us = nullptr;
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left to drain
      item = std::move(queue_.front());
      queue_.pop_front();
      writing_ = true;
    }
    cv_space_.notify_one();

    const bool metrics = obs::MetricsEnabled();
    const int64_t save_start = metrics ? NowUs() : 0;
    std::string err;
    const bool saved = SaveSweepCheckpoint(item.checkpoint, item.path, &err);
    if (metrics) {
      if (save_us == nullptr) {
        save_us = obs::MetricsRegistry::Global().GetHistogram(
            "ckpt_save_us",
            "Background serialize + write + fsync of one checkpoint");
      }
      save_us->Observe(static_cast<double>(NowUs() - save_start));
    }
    // The completion runs only for durable files and BEFORE the next item is
    // dequeued: at callback time the newest checkpoint on disk is this one.
    std::string callback_error;
    if (saved && item.done) {
      try {
        item.done();
      } catch (const std::exception& e) {
        callback_error = std::string("checkpoint completion threw: ") +
                         e.what();
      } catch (...) {
        callback_error = "checkpoint completion threw";
      }
    }

    {
      std::unique_lock<std::mutex> lock(mutex_);
      writing_ = false;
      if (!saved && first_error_.empty()) first_error_ = err;
      if (!callback_error.empty() && first_error_.empty()) {
        first_error_ = callback_error;
      }
    }
    cv_idle_.notify_all();
  }
}

bool AsyncCheckpointWriter::Flush(std::string* error) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [&] { return queue_.empty() && !writing_; });
  if (!first_error_.empty()) {
    if (error != nullptr) *error = first_error_;
    return false;
  }
  return true;
}

bool AsyncCheckpointWriter::ok(std::string* error) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!first_error_.empty()) {
    if (error != nullptr) *error = first_error_;
    return false;
  }
  return true;
}

}  // namespace warplda
