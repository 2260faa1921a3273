// Rule-pass entry points. Each pass appends Findings with a short rule id
// (the driver prefixes "warplint-"); suppression and reporting are the
// driver's job.

#ifndef WARPLINT_LINT_RULES_H_
#define WARPLINT_LINT_RULES_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint_model.h"

namespace warplint {

// ---------------------------------------------------- token rules (PR 7/8) ---

struct IncludeEdge {
  std::string from_rel;  // including file, repo-relative
  size_t line;
  std::string target;    // include path as written, e.g. "core/warp_lda.h"
};

void CheckDeterminism(const SourceFile& f, std::vector<Finding>* out);
void CheckUnorderedIter(const SourceFile& f, std::vector<Finding>* out);
void CheckHotpathSync(const SourceFile& f, std::vector<Finding>* out);
void CheckScalarRef(const SourceFile& f, std::vector<Finding>* out);
void CheckNakedNew(const SourceFile& f, std::vector<Finding>* out);
void CheckMemcpyNontrivial(const SourceFile& f, std::vector<Finding>* out);
void CollectAlignedTypes(const SourceFile& f, std::set<std::string>* types);
void CheckAlignasPad(const SourceFile& f,
                     const std::set<std::string>& aligned_types,
                     std::vector<Finding>* out);
void CheckNolintHygiene(const SourceFile& f, std::vector<Finding>* out);
void CollectIncludes(const SourceFile& f, std::vector<IncludeEdge>* edges);
void CheckLayering(const std::vector<IncludeEdge>& edges,
                   const std::set<std::string>& repo_headers,
                   std::vector<Finding>* out);

// ----------------------------------------- concurrency contracts (family 1) ---

// The per-class member model fed by src/util/contracts.h annotations.
struct ContractModel {
  std::vector<ClassDef> classes;                 // every class in the repo
  std::map<std::string, size_t> by_name;         // unqualified name -> index
};

ContractModel BuildContractModel(const std::vector<SourceFile>& files);

// Flags (a) writes to WARP_BARRIER_ONLY members from concurrent grid bodies
// (RunBlock / Run*Part / Accept* / Draw* / RunTasks), (b) accesses to
// WARP_WORKER_LOCAL members in those bodies not indexed by the worker
// argument, (c) mutations of WARP_IMMUTABLE_AFTER members outside their
// declared writer set (constructors always allowed), and (d) members that
// hold a worker-local-annotated type without carrying the annotation
// themselves.
void CheckContracts(const std::vector<SourceFile>& files,
                    const ContractModel& model, std::vector<Finding>* out);

// ---------------------------------------- serialized-schema lock (family 2) ---

struct SchemaOptions {
  std::string lock_path;  // resolved path of tools/lint/schema.lock
  bool write_lock = false;
};

// Extracts the field sequence of every struct reaching a PayloadWriter /
// PayloadReader serializer plus all k*Version constants, and diffs them
// against the committed lock. In write mode regenerates the lock instead —
// refusing (return 2) when a pinned struct drifted without any version
// constant changing, which is what forces the bump. Returns 0 otherwise.
int CheckSchema(const std::vector<SourceFile>& files, const SchemaOptions& opt,
                std::vector<Finding>* out);

// -------------------------------------------- cross-TU hygiene (family 3) ---

// obs metrics registered/fetched but never incremented/observed anywhere in
// src/, and metric-handle fields mutated but never registered.
void CheckObsOrphans(const std::vector<SourceFile>& files,
                     std::vector<Finding>* out);

// Seeded Rng construction inside concurrent grid bodies that does not flow
// from a per-token stream derivation (StreamRng).
void CheckRngStream(const SourceFile& f, std::vector<Finding>* out);

// NOLINT(warplint-*) suppressions whose target line no longer triggers the
// named rule. Must run after every other pass: it reads `findings`.
void CheckStaleNolint(const std::vector<SourceFile>& files,
                      std::vector<Finding>* findings);

}  // namespace warplint

#endif  // WARPLINT_LINT_RULES_H_
