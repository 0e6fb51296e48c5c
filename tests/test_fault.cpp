// Unit tests for the deterministic fault-injection layer (util/fault.hpp):
// spec parsing, the fire-exactly-once-at-the-Nth-hit contract, the throwing
// check() wrapper, and the disabled fast path. The abort/hang actions are
// process-fatal by design; their end-to-end behavior is covered by the
// scaldtvd supervisor tests and tvfuzz --serve-chaos.
#include "util/fault.hpp"

#include <gtest/gtest.h>

namespace tv::fault {
namespace {

// The fault plan is process-global; every test starts and ends clean so
// ordering between tests (and with the rest of the suite) cannot matter.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
};

TEST_F(FaultTest, DisabledByDefault) {
  EXPECT_FALSE(enabled());
  EXPECT_FALSE(should_fail("evaluator.eval"));
  EXPECT_EQ(describe(), "off");
  EXPECT_NO_THROW(check("evaluator.eval"));
}

TEST_F(FaultTest, FiresExactlyOnceAtTheNthHit) {
  ASSERT_TRUE(configure("evaluator.eval@3:fail"));
  EXPECT_TRUE(enabled());
  EXPECT_FALSE(should_fail("evaluator.eval"));  // hit 1
  EXPECT_FALSE(should_fail("evaluator.eval"));  // hit 2
  EXPECT_TRUE(should_fail("evaluator.eval"));   // hit 3: fires
  EXPECT_FALSE(should_fail("evaluator.eval"));  // hit 4: armed once only
  EXPECT_EQ(hits("evaluator.eval"), 4u);
}

TEST_F(FaultTest, SitesAreIndependent) {
  ASSERT_TRUE(configure("io.read@1:fail,snapshot.case@2:fail"));
  EXPECT_FALSE(should_fail("snapshot.case"));
  EXPECT_TRUE(should_fail("io.read"));
  EXPECT_TRUE(should_fail("snapshot.case"));
  // A site with no plan entry is never counted and never fires.
  EXPECT_FALSE(should_fail("wave_table.intern"));
  EXPECT_EQ(hits("wave_table.intern"), 0u);
}

TEST_F(FaultTest, CheckThrowsInjectedFault) {
  ASSERT_TRUE(configure("wave_table.intern@1:fail"));
  EXPECT_THROW(check("wave_table.intern"), InjectedFault);
  EXPECT_NO_THROW(check("wave_table.intern"));  // fired once only
}

TEST_F(FaultTest, DescribeRoundTripsThePlan) {
  ASSERT_TRUE(configure("evaluator.eval@40:abort,serve.spawn@2:hang"));
  EXPECT_EQ(describe(), "evaluator.eval@40:abort,serve.spawn@2:hang");
  reset();
  EXPECT_EQ(describe(), "off");
}

TEST_F(FaultTest, MalformedSpecsAreRejectedWithAMessage) {
  const char* bad[] = {
      "evaluator.eval",           // no @N:action
      "@1:fail",                  // empty site
      "io.read@:fail",            // missing hit count
      "io.read@0:fail",           // hit counts are 1-based
      "io.read@x:fail",           // non-numeric hit count
      "io.read@1:explode",        // unknown action
      "io.read@1:fail,bogus",     // one bad entry poisons the spec
      "io read@1:fail",           // a site is a dotted identifier
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(configure(spec, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
    EXPECT_FALSE(enabled()) << spec;
  }
}

TEST_F(FaultTest, RejectedSpecLeavesThePreviousPlanActive) {
  ASSERT_TRUE(configure("io.read@1:fail"));
  EXPECT_FALSE(configure("nonsense"));
  EXPECT_TRUE(enabled());
  EXPECT_TRUE(should_fail("io.read"));
}

TEST_F(FaultTest, ValidateIsADryRunOfConfigure) {
  // The job-file loader's check: same verdicts as configure(), but the
  // active plan is never replaced or cleared.
  ASSERT_TRUE(configure("io.read@1:fail"));
  std::string error;
  EXPECT_TRUE(validate("evaluator.eval@2:abort,serve.spawn@1:hang", &error)) << error;
  EXPECT_TRUE(validate(""));
  EXPECT_FALSE(validate("io.read@x:fail", &error));
  EXPECT_NE(error.find("hit count"), std::string::npos) << error;
  EXPECT_FALSE(validate("io.read@0:fail"));
  EXPECT_EQ(describe(), "io.read@1:fail");
}

TEST_F(FaultTest, EmptySpecClearsThePlan) {
  ASSERT_TRUE(configure("io.read@1:fail"));
  ASSERT_TRUE(configure(""));
  EXPECT_FALSE(enabled());
}

}  // namespace
}  // namespace tv::fault
