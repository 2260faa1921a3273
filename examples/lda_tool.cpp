// Command-line LDA workbench: the "download a dataset and go" entry point a
// downstream user reaches for first. Trains any of the six samplers on a UCI
// bag-of-words dataset (or a synthetic stand-in), with checkpoint/resume
// (WarpLDA only), model export, topic printing, and held-out evaluation.
//
//   ./lda_tool --docword docword.nytimes.txt --vocab vocab.nytimes.txt
//              --sampler warplda --k 1000 --iters 100
//              --model model.bin --checkpoint run.ckpt
//   ./lda_tool --resume run.ckpt --docword ... --iters 50   # continue
//
// The checkpoint is WarpLDA's between-sweeps SweepCheckpoint, so a resumed
// run continues bit-identically: 100 iterations in one go and 60 + 40 across
// a checkpoint write the same model.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "baselines/sampler.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "corpus/split.h"
#include "corpus/synthetic.h"
#include "corpus/uci.h"
#include "eval/coherence.h"
#include "eval/hyperparams.h"
#include "eval/log_likelihood.h"
#include "eval/perplexity.h"
#include "util/flags.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  std::string docword;
  std::string vocab_path;
  std::string sampler_name = "warplda";
  std::string model_path;
  std::string checkpoint_path;
  std::string resume_path;
  int64_t k = 100;
  int64_t iterations = 50;
  int64_t mh_steps = 2;
  int64_t eval_every = 10;
  int64_t min_df = 1;
  int64_t top_words = 10;
  int64_t optimize_hyper = 0;
  double heldout_fraction = 0.0;
  double synth_scale = 0.001;
  bool quiet = false;

  warplda::FlagSet flags;
  flags.String("docword", &docword, "UCI docword file (synthetic if empty)")
      .String("vocab", &vocab_path, "UCI vocab file (optional)")
      .String("sampler", &sampler_name,
              "cgs|sparselda|aliaslda|f+lda|lightlda|warplda")
      .String("model", &model_path, "write the trained TopicModel here")
      .String("checkpoint", &checkpoint_path, "write a resume checkpoint here")
      .String("resume", &resume_path, "resume training from this checkpoint")
      .Int("k", &k, "number of topics")
      .Int("iters", &iterations, "training iterations")
      .Int("m", &mh_steps, "MH proposals per token")
      .Int("eval-every", &eval_every, "log-likelihood stride (0 = end only)")
      .Int("min-df", &min_df, "drop words in fewer documents than this")
      .Int("top-words", &top_words, "top words to print per topic")
      .Int("optimize-hyper", &optimize_hyper,
           "re-estimate priors after every iteration whose absolute number "
           "is a multiple of N, the run's final iteration included, so a "
           "resumed run matches an unsplit one (0 = off)")
      .Double("heldout", &heldout_fraction,
              "hold out this fraction of docs for perplexity")
      .Double("scale", &synth_scale, "synthetic corpus scale if no docword")
      .Bool("quiet", &quiet, "suppress per-iteration output");
  if (!flags.Parse(argc, argv)) return 1;

  // --- Load data ---
  warplda::Corpus corpus;
  warplda::Vocabulary vocabulary;
  std::string error;
  if (!docword.empty()) {
    if (!warplda::uci::ReadDocword(docword, &corpus, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    if (!vocab_path.empty() &&
        !warplda::uci::ReadVocab(vocab_path, &vocabulary, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  } else {
    warplda::SyntheticConfig config = warplda::NYTimesShape(synth_scale);
    corpus = warplda::GenerateLdaCorpus(config).corpus;
    std::printf("no --docword given; using a synthetic NYTimes-shape corpus\n");
  }
  std::printf("corpus: %s\n", warplda::DescribeCorpus(corpus).c_str());

  if (min_df > 1) {
    warplda::VocabFilter filter;
    filter.min_document_frequency = static_cast<uint32_t>(min_df);
    warplda::FilteredCorpus filtered =
        warplda::FilterVocabulary(corpus, filter);
    std::printf("pruned vocabulary %u -> %u words\n", corpus.num_words(),
                filtered.corpus.num_words());
    // Remap the vocabulary strings alongside the ids.
    if (vocabulary.size() > 0) {
      warplda::Vocabulary pruned;
      for (warplda::WordId w : filtered.new_to_old) {
        pruned.GetOrAdd(w < vocabulary.size() ? vocabulary.word(w)
                                              : "w" + std::to_string(w));
      }
      vocabulary = std::move(pruned);
    }
    corpus = std::move(filtered.corpus);
  }

  warplda::Corpus heldout;
  if (heldout_fraction > 0.0) {
    warplda::CorpusSplit split =
        warplda::SplitByDocument(corpus, heldout_fraction);
    corpus = std::move(split.train);
    heldout = std::move(split.heldout);
    std::printf("held out %u documents for perplexity\n",
                heldout.num_docs());
  }

  // --- Build / restore the sampler ---
  std::string factory_error;
  auto sampler = warplda::CreateSamplerChecked(sampler_name, &factory_error);
  if (sampler == nullptr) {
    std::fprintf(stderr, "%s\n", factory_error.c_str());
    return 1;
  }
  // Checkpoints hold a grid sampler's sweep state; the baselines have none.
  auto* grid = dynamic_cast<warplda::GridSampler*>(sampler.get());
  if (grid == nullptr && (!checkpoint_path.empty() || !resume_path.empty())) {
    std::fprintf(stderr,
                 "--checkpoint and --resume need --sampler warplda (%s does "
                 "not checkpoint)\n",
                 sampler->name().c_str());
    return 1;
  }
  warplda::LdaConfig config =
      warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
  config.mh_steps = static_cast<uint32_t>(mh_steps);
  uint32_t start_iteration = 0;
  if (!resume_path.empty()) {
    // The checkpoint's config carries the priors in effect when it was
    // written, so Init with it and restore the sweep state on top.
    warplda::SweepCheckpoint checkpoint;
    if (!warplda::LoadSweepCheckpoint(resume_path, &checkpoint, &error)) {
      std::fprintf(stderr, "resume failed: %s\n", error.c_str());
      return 1;
    }
    sampler->Init(corpus, checkpoint.config);
    if (!grid->RestoreSweepState(checkpoint, &error)) {
      std::fprintf(stderr, "resume failed: %s\n", error.c_str());
      return 1;
    }
    config = checkpoint.config;
    start_iteration = checkpoint.iteration;
    std::printf("resumed %s at iteration %u\n", sampler->name().c_str(),
                start_iteration);
  } else {
    sampler->Init(corpus, config);
  }

  // --- Train ---
  warplda::Stopwatch total;
  double sampling_seconds = 0.0;
  for (int64_t i = 1; i <= iterations; ++i) {
    warplda::Stopwatch watch;
    sampler->Iterate();
    sampling_seconds += watch.Seconds();
    if (optimize_hyper > 0 && (start_iteration + i) % optimize_hyper == 0) {
      auto assignments = sampler->Assignments();
      config.alpha = warplda::EstimateSymmetricAlpha(
          corpus, assignments, config.num_topics, config.alpha);
      config.beta = warplda::EstimateSymmetricBeta(
          corpus, assignments, config.num_topics, config.beta);
      sampler->SetPriors(config.alpha, config.beta);
      if (!quiet) {
        std::printf("iter %4lld  priors optimized: alpha=%.4g beta=%.4g\n",
                    static_cast<long long>(start_iteration + i), config.alpha,
                    config.beta);
      }
    }
    bool last = i == iterations;
    if (!quiet &&
        (last || (eval_every > 0 && i % eval_every == 0))) {
      double ll = warplda::JointLogLikelihood(
          corpus, sampler->Assignments(), config.num_topics, config.alpha,
          config.beta);
      std::printf("iter %4lld  time %7.2fs  ll %.6e  %.2fM tok/s\n",
                  static_cast<long long>(start_iteration + i),
                  sampling_seconds, ll,
                  corpus.num_tokens() * i / sampling_seconds / 1e6);
      std::fflush(stdout);
    }
  }

  // --- Outputs ---
  warplda::TopicModel model(corpus, sampler->Assignments(),
                            config.num_topics, config.alpha, config.beta);
  if (top_words > 0) {
    uint32_t show = std::min<uint32_t>(model.num_topics(), 10);
    for (warplda::TopicId topic = 0; topic < show; ++topic) {
      if (vocabulary.size() > 0) {
        std::printf("topic %u: %s\n", topic,
                    model
                        .DescribeTopic(topic, vocabulary,
                                       static_cast<uint32_t>(top_words))
                        .c_str());
      } else {
        std::printf("topic %u:", topic);
        for (const auto& [w, c] :
             model.TopWords(topic, static_cast<uint32_t>(top_words))) {
          std::printf(" w%u", w);
        }
        std::printf("\n");
      }
    }
    auto coherence = warplda::UMassCoherence(model, corpus);
    std::printf("mean UMass coherence: %.3f\n", coherence.mean);
  }

  if (heldout.num_docs() > 0) {
    std::printf("held-out perplexity: %.2f\n",
                warplda::HeldOutPerplexity(model, heldout));
  }
  if (!model_path.empty()) {
    if (!model.Save(model_path, &error)) {
      std::fprintf(stderr, "model save failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("model written to %s\n", model_path.c_str());
  }
  if (!checkpoint_path.empty()) {
    warplda::SweepCheckpoint checkpoint;
    if (!grid->CaptureSweepState(&checkpoint)) {
      std::fprintf(stderr, "checkpoint capture failed\n");
      return 1;
    }
    checkpoint.iteration =
        start_iteration + static_cast<uint32_t>(iterations);
    if (!warplda::SaveSweepCheckpoint(checkpoint, checkpoint_path, &error)) {
      std::fprintf(stderr, "checkpoint save failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("checkpoint written to %s\n", checkpoint_path.c_str());
  }
  std::printf("done in %.2fs\n", total.Seconds());
  return 0;
}
