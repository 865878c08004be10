// Paper claims as checked rows — the one reproduction path.
//
// Every paper number this repository reproduces is one Claim, measured by
// run_claims() at the paper's geometry and rendered into REPRODUCTION.md;
// `repro_cli --report` exits 1 when a row neither holds nor cites a listed
// deviation. Bands follow one rule per ClaimKind (claim_band), never the
// measured value: a row outside its band gets a deviation with a written
// cause, not a wider band, and a row that cites a deviation but holds is
// stale and fails too.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace s2c2::report {

/// Tolerance class of a claim; one tolerance per kind (claim_band).
enum class ClaimKind {
  kRatio,    // normalized latency or work ratio: ±10% of the paper value
  kRate,     // fraction of rounds, samples or work: ±0.05
  kMape,     // prediction error in percent: ±5 points
  kStorage,  // fraction of the full matrix held per node: ±0.05
  kCount,    // events per node: one-sided statements only
};

/// How the paper states the number.
enum class ClaimBound {
  kNear,     // "≈ v": v ± the kind's tolerance
  kAtLeast,  // "> v", "≫ 1": [v, +inf), no tolerance
  kAtMost,   // "< v", "no slower than": (-inf, v], no tolerance
};

struct Band {
  double lo = 0.0;
  double hi = 0.0;
};

/// The acceptance band for a paper value stated as `bound` on `kind`.
[[nodiscard]] Band claim_band(ClaimKind kind, ClaimBound bound, double value);

/// One numbered entry of the report's "Known deviations" list.
struct Deviation {
  std::string id;     // stable anchor rows cite, e.g. "synthetic-inputs"
  std::string title;
  std::string cause;  // the written, measured cause
};

struct Claim {
  std::string id;      // stable row id, e.g. "fig08.mds-10-7"
  std::string anchor;  // paper anchor, e.g. "Fig 8"
  std::string setup;   // geometry, seed, rounds, chunks
  std::string metric;
  std::string paper;   // the paper's statement, as text
  ClaimKind kind = ClaimKind::kRatio;
  Band band;
  double measured = 0.0;
  std::string deviation;  // cited Deviation::id, empty when none
};

enum class ClaimStatus {
  kHolds,             // inside the band, no deviation cited
  kKnownDeviation,    // outside the band, cites a listed deviation
  kUnexplained,       // outside the band, no deviation cited
  kUnknownDeviation,  // cites an id the deviation list does not have
  kStaleDeviation,    // cites a deviation but is inside the band
};

[[nodiscard]] ClaimStatus claim_status(const Claim& claim,
                                       std::span<const Deviation> deviations);

/// One "id: reason" line per row that neither holds nor cites a listed
/// deviation it needs (unexplained, unknown id, or stale); empty when all
/// rows pass.
[[nodiscard]] std::vector<std::string> claim_failures(
    std::span<const Claim> claims, std::span<const Deviation> deviations);

/// The report's "Known deviations" list, ids stable across releases.
[[nodiscard]] const std::vector<Deviation>& known_deviations();

/// Markdown table of the claims with their status; the header states the
/// tolerance of each kind.
[[nodiscard]] std::string claims_markdown(
    std::span<const Claim> claims, std::span<const Deviation> deviations);

/// Numbered markdown list of the deviations, each with its id.
[[nodiscard]] std::string deviations_markdown(
    std::span<const Deviation> deviations);

/// Measures every claim row. The experiments (one per paper figure or
/// ablation) shard over `jobs` threads (0 = hardware, 1 = serial); each is
/// a pure function of its fixed seeds, so the rows are identical at any
/// `jobs`.
[[nodiscard]] std::vector<Claim> run_claims(std::size_t jobs);

}  // namespace s2c2::report
