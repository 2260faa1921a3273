#include "core/sweep_plan.h"

namespace warplda {
namespace {

bool ValidateAxis(const std::vector<uint32_t>& block, uint32_t num_items,
                  uint32_t num_blocks, const char* axis, std::string* error) {
  if (num_blocks == 0) {
    if (error) *error = std::string(axis) + " block count must be >= 1";
    return false;
  }
  if (block.empty()) {
    if (num_blocks != 1) {
      if (error) {
        *error = std::string("empty ") + axis +
                 " assignment requires a single block";
      }
      return false;
    }
    return true;
  }
  if (block.size() != num_items) {
    if (error) {
      *error = std::string(axis) + " assignment has " +
               std::to_string(block.size()) + " entries, corpus has " +
               std::to_string(num_items);
    }
    return false;
  }
  for (uint32_t b : block) {
    if (b >= num_blocks) {
      if (error) {
        *error = std::string(axis) + " block id " + std::to_string(b) +
                 " out of range [0, " + std::to_string(num_blocks) + ")";
      }
      return false;
    }
  }
  return true;
}

}  // namespace

bool SweepPlan::Validate(uint32_t num_docs, uint32_t num_words,
                         std::string* error) const {
  return ValidateAxis(doc_block, num_docs, num_doc_blocks, "doc", error) &&
         ValidateAxis(word_block, num_words, num_word_blocks, "word", error);
}

const char* ToString(SweepStage stage) {
  switch (stage) {
    case SweepStage::kWordAccept:
      return "word-accept";
    case SweepStage::kWordPropose:
      return "word-propose";
    case SweepStage::kDocAccept:
      return "doc-accept";
    case SweepStage::kDocPropose:
      return "doc-propose";
    case SweepStage::kDone:
      return "done";
  }
  return "invalid";
}

void RunInline(uint32_t num_tasks, const BarrierTask& fn) {
  for (uint32_t t = 0; t < num_tasks; ++t) fn(0, t);
}

void GridSampler::RunSweep(const SweepPlan& plan) {
  BeginSweep(plan);
  try {
    // Step stages until the sampler reports the sweep complete: a sampler
    // may fuse stages into fewer than four barriers, and sweep_stage() names
    // the span being run, so the driver asks rather than assumes.
    while (sweep_stage() != SweepStage::kDone) {
      for (uint32_t i = 0; i < plan.num_doc_blocks; ++i) {
        for (uint32_t j = 0; j < plan.num_word_blocks; ++j) {
          RunBlock(i, j);
        }
      }
      EndStage();
    }
    EndSweep();
  } catch (...) {
    AbortSweep();
    throw;
  }
}

}  // namespace warplda
