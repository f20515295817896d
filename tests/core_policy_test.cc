#include "core/policy.h"

#include <gtest/gtest.h>

#include <string>

#include "core/prompt_policy.h"
#include "util/sha1.h"

namespace pisrep::core {
namespace {

TEST(PolicyRuleTest, UnsetConditionsAlwaysMatch) {
  PolicyRule rule;
  EXPECT_TRUE(rule.Matches(PolicyInput{}));
}

TEST(PolicyRuleTest, BooleanConditions) {
  PolicyRule rule;
  rule.require_valid_signature = true;
  PolicyInput input;
  EXPECT_FALSE(rule.Matches(input));
  input.has_valid_signature = true;
  EXPECT_TRUE(rule.Matches(input));

  rule.require_vendor_blocked = false;
  input.vendor_blocked = true;
  EXPECT_FALSE(rule.Matches(input));
}

TEST(PolicyRuleTest, RatingWindowRequiresARating) {
  PolicyRule rule;
  rule.min_rating = 7.5;
  PolicyInput unrated;
  EXPECT_FALSE(rule.Matches(unrated));  // no rating → bounded rule skips

  PolicyInput rated;
  rated.rating = 8.0;
  EXPECT_TRUE(rule.Matches(rated));
  rated.rating = 7.0;
  EXPECT_FALSE(rule.Matches(rated));

  rule.max_rating = 9.0;
  rated.rating = 9.5;
  EXPECT_FALSE(rule.Matches(rated));
}

TEST(PolicyRuleTest, StrictBoundsExcludeTheirEndpoint) {
  PolicyRule above;
  above.min_rating = 7.5;
  PolicyInput input;
  input.rating = 7.5;
  EXPECT_TRUE(above.Matches(input));  // inclusive unless marked strict
  above.min_rating_strict = true;
  EXPECT_FALSE(above.Matches(input));
  input.rating = 7.6;
  EXPECT_TRUE(above.Matches(input));

  PolicyRule below;
  below.max_rating = 3.0;
  below.max_rating_strict = true;
  input.rating = 3.0;
  EXPECT_FALSE(below.Matches(input));
  input.rating = 2.9;
  EXPECT_TRUE(below.Matches(input));
  below.max_rating_strict = false;
  input.rating = 3.0;
  EXPECT_TRUE(below.Matches(input));

  PolicyRule feed;
  feed.min_feed_rating = 2.0;
  feed.min_feed_rating_strict = true;
  feed.max_feed_rating = 8.0;
  feed.max_feed_rating_strict = true;
  PolicyInput fed;
  for (double score : {2.0, 8.0}) {
    fed.feed_rating = score;
    EXPECT_FALSE(feed.Matches(fed)) << score;
  }
  fed.feed_rating = 5.0;
  EXPECT_TRUE(feed.Matches(fed));
}

TEST(PolicyRuleTest, MinVotes) {
  PolicyRule rule;
  rule.min_votes = 3;
  PolicyInput input;
  input.vote_count = 2;
  EXPECT_FALSE(rule.Matches(input));
  input.vote_count = 3;
  EXPECT_TRUE(rule.Matches(input));
}

TEST(PolicyRuleTest, BehaviorMasks) {
  PolicyRule rule;
  rule.forbidden_behaviors = static_cast<BehaviorSet>(Behavior::kShowsAds);
  PolicyInput input;
  EXPECT_TRUE(rule.Matches(input));
  input.reported_behaviors = static_cast<BehaviorSet>(Behavior::kShowsAds);
  EXPECT_FALSE(rule.Matches(input));

  PolicyRule requires_ads;
  requires_ads.required_behaviors =
      static_cast<BehaviorSet>(Behavior::kShowsAds);
  EXPECT_TRUE(requires_ads.Matches(input));
  input.reported_behaviors = kNoBehaviors;
  EXPECT_FALSE(requires_ads.Matches(input));
}

TEST(PolicyRuleTest, FeedRatingWindowRequiresFeedEntry) {
  PolicyRule rule;
  rule.max_feed_rating = 4.0;
  PolicyInput no_feed;
  no_feed.rating = 1.0;  // community rating does not satisfy a feed bound
  no_feed.vote_count = 10;
  EXPECT_FALSE(rule.Matches(no_feed));

  PolicyInput flagged;
  flagged.feed_rating = 2.0;
  EXPECT_TRUE(rule.Matches(flagged));
  flagged.feed_rating = 4.5;
  EXPECT_FALSE(rule.Matches(flagged));

  PolicyRule endorse;
  endorse.min_feed_rating = 7.5;
  PolicyInput endorsed;
  endorsed.feed_rating = 8.0;
  EXPECT_TRUE(endorse.Matches(endorsed));
  endorsed.feed_rating = 7.0;
  EXPECT_FALSE(endorse.Matches(endorsed));
}

TEST(PolicyTest, FirstMatchingRuleWins) {
  Policy policy("test");
  PolicyRule deny_all;
  deny_all.name = "deny-all";
  deny_all.action = PolicyAction::kDeny;
  policy.AddRule(deny_all);
  PolicyRule allow_all;
  allow_all.name = "allow-all";
  allow_all.action = PolicyAction::kAllow;
  policy.AddRule(allow_all);

  std::string fired;
  EXPECT_EQ(policy.Evaluate(PolicyInput{}, &fired), PolicyAction::kDeny);
  EXPECT_EQ(fired, "deny-all");
}

TEST(PolicyTest, DefaultActionWhenNothingMatches) {
  Policy policy("empty");
  std::string fired;
  EXPECT_EQ(policy.Evaluate(PolicyInput{}, &fired), PolicyAction::kAsk);
  EXPECT_EQ(fired, "<default>");
  policy.set_default_action(PolicyAction::kDeny);
  EXPECT_EQ(policy.Evaluate(PolicyInput{}), PolicyAction::kDeny);
}

// --- PromptScheduler --------------------------------------------------------

SoftwareId PromptId(int i) {
  return util::Sha1::Hash("software-" + std::to_string(i));
}

TEST(PromptSchedulerTest, PaperThresholdsAreFiftyAndTwo) {
  EXPECT_EQ(kExecutionsBeforeRatingPrompt, 50);
  EXPECT_EQ(kMaxRatingPromptsPerWeek, 2);
}

TEST(PromptSchedulerTest, PromptsOnlyAfterThreshold) {
  PromptScheduler scheduler;
  SoftwareId id = PromptId(1);
  // §3.1: executed 50 times → asked at the *next* start.
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(scheduler.RecordExecution(id, 0)) << "execution " << i;
  }
  EXPECT_TRUE(scheduler.RecordExecution(id, 0));
  EXPECT_EQ(scheduler.ExecutionCount(id), 51);
}

TEST(PromptSchedulerTest, RatedSoftwareNeverPromptsAgain) {
  PromptScheduler scheduler;
  SoftwareId id = PromptId(2);
  for (int i = 0; i < 51; ++i) scheduler.RecordExecution(id, 0);
  scheduler.MarkRated(id);
  EXPECT_TRUE(scheduler.IsRated(id));
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(scheduler.RecordExecution(id, 0));
  }
}

TEST(PromptSchedulerTest, WeeklyBudgetLimitsPrompts) {
  PromptScheduler scheduler;
  // Prime three different programs past the threshold.
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 50; ++i) scheduler.RecordExecution(PromptId(s), 0);
  }
  // §3.1: at most two rating prompts per week.
  EXPECT_TRUE(scheduler.RecordExecution(PromptId(0), 0));
  EXPECT_TRUE(scheduler.RecordExecution(PromptId(1), 0));
  EXPECT_FALSE(scheduler.RecordExecution(PromptId(2), 0));
  EXPECT_EQ(scheduler.PromptsIssuedThisWeek(0), 2);

  // Next week the budget resets.
  EXPECT_TRUE(scheduler.RecordExecution(PromptId(2), util::kWeek));
  EXPECT_EQ(scheduler.PromptsIssuedThisWeek(util::kWeek), 1);
}

TEST(PromptSchedulerTest, CustomThresholds) {
  PromptScheduler scheduler(PromptScheduler::Config{3, 1});
  SoftwareId id = PromptId(7);
  EXPECT_FALSE(scheduler.RecordExecution(id, 0));
  EXPECT_FALSE(scheduler.RecordExecution(id, 0));
  EXPECT_FALSE(scheduler.RecordExecution(id, 0));
  EXPECT_TRUE(scheduler.RecordExecution(id, 0));
}

}  // namespace
}  // namespace pisrep::core
