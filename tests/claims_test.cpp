// Claims-table logic on synthetic rows: bands, the status of a row against
// the deviation list, the failure list `repro_cli --report` exits on, and
// the markdown renderer. Measuring the real rows is the slow
// ReportClaims case in report_test.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/report/claims.h"

namespace s2c2::report {
namespace {

const std::vector<Deviation> kDeviations = {
    {"known-cause", "A known cause", "Measured and written down."},
};

/// A ratio row with paper value 1.20, so its band is [1.08, 1.32].
Claim row(std::string id, double measured, std::string deviation = {}) {
  Claim c;
  c.id = std::move(id);
  c.anchor = "Fig 99";
  c.setup = "synthetic";
  c.metric = "ratio";
  c.paper = "1.20";
  c.band = claim_band(ClaimKind::kRatio, ClaimBound::kNear, 1.20);
  c.measured = measured;
  c.deviation = std::move(deviation);
  return c;
}

TEST(ClaimBand, OneRulePerKindAndOneSidedStatements) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto near = [](ClaimKind k, double v) {
    return claim_band(k, ClaimBound::kNear, v);
  };
  EXPECT_DOUBLE_EQ(near(ClaimKind::kRatio, 1.20).lo, 1.08);
  EXPECT_DOUBLE_EQ(near(ClaimKind::kRatio, 1.20).hi, 1.32);
  EXPECT_NEAR(near(ClaimKind::kRate, 0.18).lo, 0.13, 1e-12);
  EXPECT_NEAR(near(ClaimKind::kRate, 0.18).hi, 0.23, 1e-12);
  EXPECT_EQ(near(ClaimKind::kRate, 0.0).lo, 0.0);  // clamps at zero
  EXPECT_NEAR(near(ClaimKind::kMape, 16.7).lo, 11.7, 1e-12);
  EXPECT_NEAR(near(ClaimKind::kStorage, 0.10).hi, 0.15, 1e-12);
  const Band at_least =
      claim_band(ClaimKind::kRatio, ClaimBound::kAtLeast, 3.0);
  EXPECT_EQ(at_least.lo, 3.0);
  EXPECT_EQ(at_least.hi, inf);
  const Band at_most = claim_band(ClaimKind::kCount, ClaimBound::kAtMost, 1.0);
  EXPECT_EQ(at_most.lo, -inf);
  EXPECT_EQ(at_most.hi, 1.0);
}

TEST(ClaimStatus, EveryCaseAndOnlyTheBrokenOnesFail) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    Claim claim;
    ClaimStatus status;
  } cases[] = {
      {row("a.holds", 1.25), ClaimStatus::kHolds},
      {row("b.band-edge", 1.08), ClaimStatus::kHolds},
      {row("c.known", 1.60, "known-cause"), ClaimStatus::kKnownDeviation},
      {row("d.unexplained", 1.60), ClaimStatus::kUnexplained},
      {row("e.failed-run", nan), ClaimStatus::kUnexplained},
      {row("f.unknown", 1.60, "no-such-id"), ClaimStatus::kUnknownDeviation},
      {row("g.unknown-holds", 1.20, "no-such-id"),
       ClaimStatus::kUnknownDeviation},
      {row("h.stale", 1.20, "known-cause"), ClaimStatus::kStaleDeviation},
  };
  std::vector<Claim> rows;
  for (const auto& c : cases) {
    EXPECT_EQ(claim_status(c.claim, kDeviations), c.status) << c.claim.id;
    rows.push_back(c.claim);
  }
  const auto failures = claim_failures(rows, kDeviations);
  const char* failing[] = {"d.unexplained:", "e.failed-run:", "f.unknown:",
                           "g.unknown-holds:", "h.stale:"};
  ASSERT_EQ(failures.size(), std::size(failing));
  for (std::size_t i = 0; i < failures.size(); ++i) {
    EXPECT_EQ(failures[i].rfind(failing[i], 0), 0u) << failures[i];
  }
}

TEST(ClaimsMarkdown, RendersBandsStatusAndTolerances) {
  std::vector<Claim> rows = {row("fig99.row", 1.25),
                             row("fig99.known", 1.60, "known-cause"),
                             row("fig99.broken", 1.60)};
  rows[2].band = claim_band(ClaimKind::kRatio, ClaimBound::kAtLeast, 2.0);
  const std::string md = claims_markdown(rows, kDeviations);
  for (const char* needle :
       {"v ± 10% of v", "v ± 0.05", "v ± 5 points",
        "| `fig99.row` | Fig 99 | synthetic | ratio | 1.20 | [1.080, 1.320] | "
        "1.250 | holds |",
        "| 1.600 | deviation `known-cause` |",
        "| ≥ 2.000 | 1.600 | **FAILS: unexplained** |"}) {
    EXPECT_NE(md.find(needle), std::string::npos) << needle;
  }
}

TEST(KnownDeviations, IdsAreUniqueAndEveryCauseIsWritten) {
  std::set<std::string> ids;
  for (const Deviation& d : known_deviations()) {
    EXPECT_TRUE(ids.insert(d.id).second) << d.id;
    EXPECT_FALSE(d.title.empty() || d.cause.empty()) << d.id;
  }
  const std::string md = deviations_markdown(known_deviations());
  EXPECT_EQ(md.find("1. **"), 0u);
  EXPECT_NE(md.find("(`synthetic-inputs`)"), std::string::npos);
}

}  // namespace
}  // namespace s2c2::report
