#include "eval/topic_model.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "util/hash_count.h"

namespace warplda {

TopicModel::TopicModel(const Corpus& corpus,
                       const std::vector<TopicId>& assignments,
                       uint32_t num_topics, double alpha, double beta)
    : num_topics_(num_topics), alpha_(alpha), beta_(beta) {
  rows_.resize(corpus.num_words());
  ck_.assign(num_topics, 0);
  HashCount counts;
  for (WordId w = 0; w < corpus.num_words(); ++w) {
    auto occurrences = corpus.word_tokens(w);
    if (occurrences.empty()) continue;
    counts.Init(2 * static_cast<uint32_t>(occurrences.size()));
    for (TokenIdx t : occurrences) {
      counts.Inc(assignments[t]);
      ++ck_[assignments[t]];
    }
    counts.ForEachNonZero([&](uint32_t k, int32_t c) {
      rows_[w].emplace_back(k, c);
    });
    std::sort(rows_[w].begin(), rows_[w].end());
  }
}

double TopicModel::Phi(WordId w, TopicId k) const {
  const double beta_bar = beta_ * num_words();
  int32_t cwk = 0;
  for (const auto& [topic, count] : rows_[w]) {
    if (topic == k) {
      cwk = count;
      break;
    }
  }
  return (cwk + beta_) / (ck_[k] + beta_bar);
}

std::vector<WordId> TopicModel::ChangedWords(const TopicModel& base) const {
  std::vector<WordId> changed;
  for (WordId w = 0; w < num_words(); ++w) {
    if (w >= base.num_words() || rows_[w] != base.rows_[w]) {
      changed.push_back(w);
    }
  }
  return changed;
}

std::vector<std::pair<WordId, int32_t>> TopicModel::TopWords(
    TopicId k, uint32_t n) const {
  std::vector<std::pair<WordId, int32_t>> hits;
  for (WordId w = 0; w < num_words(); ++w) {
    for (const auto& [topic, count] : rows_[w]) {
      if (topic == k) hits.emplace_back(w, count);
    }
  }
  std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (hits.size() > n) hits.resize(n);
  return hits;
}

std::string TopicModel::DescribeTopic(TopicId k, const Vocabulary& vocab,
                                      uint32_t n) const {
  std::string out;
  for (const auto& [w, count] : TopWords(k, n)) {
    if (!out.empty()) out += ' ';
    out += w < vocab.size() ? vocab.word(w) : ("w" + std::to_string(w));
  }
  return out;
}

namespace {
constexpr uint64_t kMagic = 0x57415250'4C444131ULL;  // "WARPLDA1"

template <typename T>
void Put(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
template <typename T>
bool Get(std::ifstream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}
}  // namespace

bool TopicModel::Save(const std::string& path, std::string* error) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  Put(out, kMagic);
  Put(out, num_topics_);
  Put(out, alpha_);
  Put(out, beta_);
  Put(out, static_cast<uint32_t>(rows_.size()));
  for (const auto& row : rows_) {
    Put(out, static_cast<uint32_t>(row.size()));
    for (const auto& [k, c] : row) {
      Put(out, k);
      Put(out, c);
    }
  }
  for (int64_t c : ck_) Put(out, c);
  if (!out.good()) {
    if (error) *error = "write error on " + path;
    return false;
  }
  return true;
}

bool TopicModel::Load(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  uint64_t magic = 0;
  uint32_t v = 0;
  if (!Get(in, &magic) || magic != kMagic) {
    if (error) *error = path + ": bad magic";
    return false;
  }
  if (!Get(in, &num_topics_) || !Get(in, &alpha_) || !Get(in, &beta_) ||
      !Get(in, &v)) {
    if (error) *error = path + ": truncated header";
    return false;
  }
  rows_.assign(v, {});
  for (uint32_t w = 0; w < v; ++w) {
    uint32_t n = 0;
    if (!Get(in, &n)) {
      if (error) *error = path + ": truncated row header";
      return false;
    }
    rows_[w].resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (!Get(in, &rows_[w][i].first) || !Get(in, &rows_[w][i].second)) {
        if (error) *error = path + ": truncated row";
        return false;
      }
    }
    // Ascending topic order is a class invariant (the sparse serving
    // snapshot binary-searches rows); Save() writes sorted rows, but don't
    // trust externally produced files.
    std::sort(rows_[w].begin(), rows_[w].end());
  }
  ck_.assign(num_topics_, 0);
  for (auto& c : ck_) {
    if (!Get(in, &c)) {
      if (error) *error = path + ": truncated topic counts";
      return false;
    }
  }
  return true;
}

bool TopicModel::operator==(const TopicModel& other) const {
  return num_topics_ == other.num_topics_ && alpha_ == other.alpha_ &&
         beta_ == other.beta_ && rows_ == other.rows_ && ck_ == other.ck_;
}

}  // namespace warplda
