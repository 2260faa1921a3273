#include "serve/model_store.h"

#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "core/mh_sweep.h"
#include "util/checkpoint_io.h"

namespace warplda::serve {

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ModelStore::ModelStore(const ModelStoreOptions& options) : options_(options) {
  publish_reg_ = obs::MetricsRegistry::Global().RegisterHistogram(
      "store_publish_us", "Snapshot prebuild + swap time", &publish_us_);
}

size_t ModelSnapshot::CorrectionArena::HeapBytes() const {
  size_t bytes = topics.capacity() * sizeof(TopicId) +
                 values.capacity() * sizeof(double) +
                 alias.capacity() * sizeof(AliasTable);
  for (const AliasTable& table : alias) bytes += table.HeapBytes();
  return bytes;
}

ModelSnapshot::ModelSnapshot(std::shared_ptr<const TopicModel> model,
                             uint64_t version, SnapshotLayout layout)
    : model_(std::move(model)),
      version_(version),
      layout_(layout),
      num_topics_(model_->num_topics()),
      num_words_(model_->num_words()) {
  BuildTopicTier();
  if (layout_ == SnapshotLayout::kDense) {
    // Dense φ̂ rows and q_word proposals via the same flat-arena builder the
    // lazy Inferencer uses (DensePhiTable), so smoothing cannot drift.
    dense_.Reset(num_words_, num_topics_);
    dense_.BuildAll(*model_, model_->beta() * num_words_);
    word_alias_ptr_.assign(num_words_, nullptr);
    word_count_prob_.assign(num_words_, 0.0);
    for (WordId w = 0; w < num_words_; ++w) {
      word_alias_ptr_[w] = &dense_.alias(w);
      word_count_prob_[w] = dense_.count_prob(w);
    }
    return;
  }
  BuildArenaRows();
}

void ModelSnapshot::BuildTopicTier() {
  const double beta = model_->beta();
  const double beta_bar = beta * num_words_;
  topic_denom_.resize(num_topics_);
  for (uint32_t k = 0; k < num_topics_; ++k) {
    topic_denom_[k] = model_->topic_counts()[k] + beta_bar;
  }
  if (layout_ == SnapshotLayout::kSparseTiered) {
    floor_.resize(num_topics_);
    for (uint32_t k = 0; k < num_topics_; ++k) {
      // Identical operands and operations as FillPhiRow's floor entries, so
      // the sparse lookup is bit-identical to the dense row.
      floor_[k] = beta / topic_denom_[k];
    }
  }
}

void ModelSnapshot::BuildArenaRows() {
  size_t total_nnz = 0;
  for (WordId w = 0; w < num_words_; ++w) {
    total_nnz += model_->word_topics(w).size();
  }
  arena_.topics.reserve(total_nnz);
  arena_.values.reserve(total_nnz);
  arena_.alias.resize(num_words_);
  word_count_prob_.assign(num_words_, 0.0);

  const double beta = model_->beta();
  std::vector<size_t> offsets(num_words_ + 1, 0);
  for (WordId w = 0; w < num_words_; ++w) {
    // TopicModel rows are sorted by topic, which is what FindTopic requires.
    for (const auto& [k, c] : model_->word_topics(w)) {
      arena_.topics.push_back(k);
      arena_.values.push_back(c + beta);  // same sum FillPhiRow forms
    }
    offsets[w + 1] = arena_.topics.size();
    word_count_prob_[w] = BuildWordProposal(*model_, w, &arena_.alias[w]);
  }

  // Pointers are taken only now, when no arena vector can move again.
  spans_.resize(num_words_);
  word_alias_ptr_.resize(num_words_);
  for (WordId w = 0; w < num_words_; ++w) {
    spans_[w] = Span{arena_.topics.data() + offsets[w],
                     arena_.values.data() + offsets[w],
                     static_cast<uint32_t>(offsets[w + 1] - offsets[w])};
    word_alias_ptr_[w] = &arena_.alias[w];
  }
}

size_t ModelSnapshot::ApproxBytes() const {
  size_t bytes = sizeof(*this) + topic_denom_.capacity() * sizeof(double) +
                 floor_.capacity() * sizeof(double) +
                 spans_.capacity() * sizeof(Span) +
                 word_alias_ptr_.capacity() * sizeof(const AliasTable*) +
                 word_count_prob_.capacity() * sizeof(double);
  bytes += arena_.HeapBytes();
  if (layout_ == SnapshotLayout::kDense) bytes += dense_.MemoryBytes();
  return bytes;
}

std::shared_ptr<const ModelSnapshot> ModelStore::Publish(
    std::shared_ptr<const TopicModel> model) {
  // The O(nnz + K) (sparse) or O(V·K) (dense) prebuild happens outside the
  // lock; only the pointer swap is serialized.
  const int64_t start = NowUs();
  auto snapshot = std::make_shared<ModelSnapshot>(std::move(model),
                                                  /*version=*/0,
                                                  options_.layout);
  {
    // The version is stamped at swap time — while the publisher still holds
    // the only reference — so the last swap to land carries the highest
    // version even when publishers race, and version() never runs ahead of
    // Current().
    std::lock_guard<std::mutex> lock(swap_mutex_);
    snapshot->version_ = version_.load(std::memory_order_relaxed) + 1;
    current_ = snapshot;
    version_.fetch_add(1, std::memory_order_release);
  }
  publish_us_.Observe(static_cast<double>(NowUs() - start));
  return snapshot;
}

// ------------------------------------------------------- durable snapshots

namespace {

constexpr uint32_t kMaxTopicsOnDisk = 1u << 24;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// The one model checkpoint file in a CheckpointTo/RestoreFrom directory.
std::string ModelFilePath(const std::string& dir) {
  return dir + "/model.ckpt";
}

/// Scalar prefix of the model payload.
void PutModelHeader(PayloadWriter& out, const TopicModel& model,
                    uint64_t version) {
  out.Put(model.num_topics());
  out.Put(model.num_words());
  out.Put(model.alpha());
  out.Put(model.beta());
  out.Put(version);
}

void PutRow(PayloadWriter& out,
            const std::vector<std::pair<TopicId, int32_t>>& row) {
  out.Put(static_cast<uint32_t>(row.size()));
  for (const auto& [k, c] : row) {
    out.Put(k);
    out.Put(c);
  }
}

/// Reads one sparse row: length-prefixed (topic, count) pairs, validated
/// strictly ascending, in range, and positive — the invariants the serving
/// snapshot's binary search and the alias builders rely on.
bool GetRow(PayloadReader& in, uint32_t num_topics,
            std::vector<std::pair<TopicId, int32_t>>* row) {
  uint32_t len = 0;
  if (!in.Get(&len)) return false;
  if (len > num_topics || static_cast<uint64_t>(len) * 8 > in.remaining()) {
    return false;
  }
  row->clear();
  row->reserve(len);
  TopicId prev = 0;
  for (uint32_t i = 0; i < len; ++i) {
    TopicId k = 0;
    int32_t c = 0;
    if (!in.Get(&k) || !in.Get(&c)) return false;
    if (k >= num_topics || c <= 0 || (i > 0 && k <= prev)) return false;
    prev = k;
    row->emplace_back(k, c);
  }
  return true;
}

struct ModelHeader {
  uint32_t num_topics = 0;
  uint32_t num_words = 0;
  double alpha = 0.0;
  double beta = 0.0;
  uint64_t version = 0;
};

bool GetModelHeader(PayloadReader& in, ModelHeader* h, const std::string& path,
                    std::string* error) {
  if (!in.Get(&h->num_topics) || !in.Get(&h->num_words) ||
      !in.Get(&h->alpha) || !in.Get(&h->beta) || !in.Get(&h->version)) {
    return Fail(error, path + ": truncated model header");
  }
  if (h->num_topics == 0 || h->num_topics > kMaxTopicsOnDisk) {
    return Fail(error, path + ": num_topics out of range");
  }
  if (!std::isfinite(h->alpha) || h->alpha <= 0.0 ||
      !std::isfinite(h->beta) || h->beta <= 0.0) {
    return Fail(error, path + ": priors not finite and positive");
  }
  return true;
}

bool GetTopicCounts(PayloadReader& in, uint32_t num_topics,
                    std::vector<int64_t>* ck, const std::string& path,
                    std::string* error) {
  if (!in.GetVec(ck, kMaxTopicsOnDisk) || ck->size() != num_topics) {
    return Fail(error, path + ": truncated or mis-sized topic counts");
  }
  for (int64_t c : *ck) {
    if (c < 0) return Fail(error, path + ": negative topic count");
  }
  return true;
}

}  // namespace

bool ModelStore::CheckpointTo(const std::string& dir, std::string* error) {
  std::lock_guard<std::mutex> lock(ckpt_mutex_);
  // Read the snapshot under ckpt_mutex_ (Current() takes swap_mutex_
  // briefly; the two are never held nested the other way): two racing
  // CheckpointTo calls then serialize on a consistent view, and the stale
  // one below becomes a no-op instead of overwriting the newer file.
  const auto snapshot = Current();
  if (snapshot == nullptr) {
    return Fail(error, "ModelStore::CheckpointTo: nothing published yet");
  }
  const TopicModel& model = snapshot->model();
  const uint64_t version = snapshot->version();
  if (dir == ckpt_dir_ && version <= ckpt_version_) return true;
  if (!EnsureDirectory(dir, error)) return false;

  PayloadWriter out;
  PutModelHeader(out, model, version);
  out.PutVec(model.topic_counts());
  for (WordId w = 0; w < model.num_words(); ++w) {
    PutRow(out, model.word_topics(w));
  }
  if (!WriteFrame(ModelFilePath(dir), FrameKind::kModelBase, out.bytes(),
                  error)) {
    return false;
  }
  ckpt_dir_ = dir;
  ckpt_version_ = version;
  return true;
}

bool ModelStore::RestoreFrom(const std::string& dir, std::string* error) {
  const std::string path = ModelFilePath(dir);
  std::vector<uint8_t> payload;
  if (!ReadFrame(path, FrameKind::kModelBase, &payload, error)) return false;
  PayloadReader in(payload);
  ModelHeader header;
  std::vector<int64_t> ck;
  if (!GetModelHeader(in, &header, path, error) ||
      !GetTopicCounts(in, header.num_topics, &ck, path, error)) {
    return false;
  }
  // Bound the row-table allocation before sizing it: every word costs at
  // least a 4-byte length field, so num_words can't exceed remaining/4.
  if (header.num_words > in.remaining() / 4) {
    return Fail(error, path + ": word count " +
                           std::to_string(header.num_words) +
                           " exceeds what the payload can hold");
  }
  std::vector<std::vector<std::pair<TopicId, int32_t>>> rows(header.num_words);
  for (WordId w = 0; w < header.num_words; ++w) {
    if (!GetRow(in, header.num_topics, &rows[w])) {
      return Fail(error, path + ": corrupt row for word " + std::to_string(w));
    }
  }
  if (!in.exhausted()) {
    return Fail(error, path + ": trailing bytes");
  }

  auto model = std::make_shared<const TopicModel>(
      header.num_topics, header.alpha, header.beta, std::move(rows),
      std::move(ck));
  auto snapshot =
      std::make_shared<ModelSnapshot>(model, header.version, options_.layout);
  {
    std::lock_guard<std::mutex> lock(swap_mutex_);
    if (version_.load(std::memory_order_relaxed) >= header.version) {
      return Fail(error,
                  "ModelStore::RestoreFrom: store already published v" +
                      std::to_string(version_.load()) +
                      ", refusing to go back to checkpointed v" +
                      std::to_string(header.version));
    }
    current_ = snapshot;
    version_.store(header.version, std::memory_order_release);
  }
  {
    // The file already holds this version: a CheckpointTo(dir) before the
    // next publish has nothing to write.
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    ckpt_dir_ = dir;
    ckpt_version_ = header.version;
  }
  return true;
}

}  // namespace warplda::serve
