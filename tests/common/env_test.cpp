#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

namespace geored {
namespace {

constexpr const char* kKnob = "GEORED_ENV_TEST_KNOB";

/// Unsets the test knob when a test exits.
struct KnobGuard {
  ~KnobGuard() { ::unsetenv(kKnob); }
};

TEST(EnvKnob, UnsetAndEmptyReadAsAbsent) {
  const KnobGuard guard;
  ::unsetenv(kKnob);
  EXPECT_FALSE(env_int(kKnob).has_value());
  EXPECT_EQ(env_count(kKnob, 7), 7u);
  ::setenv(kKnob, "", 1);
  EXPECT_FALSE(env_int(kKnob).has_value());
  EXPECT_EQ(env_count(kKnob, 7), 7u);
}

TEST(EnvKnob, ParsesWholeIntegers) {
  const KnobGuard guard;
  ::setenv(kKnob, "42", 1);
  EXPECT_EQ(env_int(kKnob), 42);
  EXPECT_EQ(env_count(kKnob, 7), 42u);
  ::setenv(kKnob, "0", 1);
  EXPECT_EQ(env_count(kKnob, 7), 0u);
  ::setenv(kKnob, "-3", 1);
  EXPECT_EQ(env_int(kKnob), -3);
}

TEST(EnvKnob, RejectsGarbageInsteadOfFallingBack) {
  const KnobGuard guard;
  for (const char* bad : {"abc", "4x", "x4", " 4", "4 ", "+4", "4.5", "1e3", "0x10", "-",
                          "99999999999999999999"}) {
    ::setenv(kKnob, bad, 1);
    EXPECT_THROW(env_int(kKnob), std::invalid_argument) << "'" << bad << "'";
    EXPECT_THROW(env_count(kKnob, 7), std::invalid_argument) << "'" << bad << "'";
  }
}

TEST(EnvKnob, CountRejectsNegativeValues) {
  const KnobGuard guard;
  ::setenv(kKnob, "-1", 1);
  EXPECT_THROW(env_count(kKnob, 7), std::invalid_argument);
}

TEST(EnvKnob, ErrorNamesTheKnobAndTheValue) {
  const KnobGuard guard;
  ::setenv(kKnob, "abc", 1);
  try {
    env_int(kKnob);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "GEORED_ENV_TEST_KNOB must be an integer, got 'abc'");
  }
}

}  // namespace
}  // namespace geored
