// Negative fixture: hot bodies accumulate in ThreadScratch; barrier-side
// EndStage may synchronize.
#include <atomic>
#include <mutex>

void WarpLdaSampler::RunBlock(uint32_t doc_block, uint32_t word_block,
                              uint32_t worker) {
  ThreadScratch& s = scratch_[worker];
  for (uint32_t t = 0; t < block_tokens_; ++t) {
    s.tokens_sampled += 1;
  }
}

void WarpLdaSampler::FoldDeltaRange(uint32_t lo, uint32_t hi) {
  for (ThreadScratch& s : scratch_) {
    for (uint32_t k = lo; k < hi; ++k) ck_live_[k] += s.ck_delta[k];
  }
}

void WarpLdaSampler::EndStage() {
  std::lock_guard<std::mutex> guard(ck_mutex_);
  tokens_total_.fetch_add(pending_, std::memory_order_relaxed);
}
