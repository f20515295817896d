#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "server/reputation_server.h"
#include "storage/database.h"
#include "util/sha1.h"
#include "web/html.h"
#include "web/portal.h"

namespace pisrep::web {
namespace {

using core::SoftwareMeta;

// --- HTML builder ------------------------------------------------------------

TEST(HtmlTest, EscapesEverywhere) {
  EXPECT_EQ(EscapeHtml("<b>&\"'"), "&lt;b&gt;&amp;&quot;&#39;");
  HtmlBuilder html;
  html.Open("a", {{"href", "/x?a=1&b=<2>"}}).Text("click <here>").Close();
  EXPECT_EQ(html.Finish(),
            "<a href=\"/x?a=1&amp;b=&lt;2&gt;\">click &lt;here&gt;</a>");
}

TEST(HtmlTest, FinishClosesOpenTags) {
  HtmlBuilder html;
  html.Open("html").Open("body").Open("p").Text("x");
  EXPECT_EQ(html.Finish(), "<html><body><p>x</p></body></html>");
}

TEST(HtmlTest, TableRowHelper) {
  HtmlBuilder html;
  html.Open("table").TableRow({"a", "b"}).TableRow({"h"}, "th");
  EXPECT_EQ(html.Finish(),
            "<table><tr><td>a</td><td>b</td></tr>"
            "<tr><th>h</th></tr></table>");
}

TEST(UrlDecodeTest, DecodesEscapesAndPlus) {
  EXPECT_EQ(WebPortal::UrlDecode("a+b%20c%2Fd"), "a b c/d");
  EXPECT_EQ(WebPortal::UrlDecode("plain"), "plain");
  // Malformed escapes pass through rather than failing the request.
  EXPECT_EQ(WebPortal::UrlDecode("bad%zz"), "bad%zz");
  EXPECT_EQ(WebPortal::UrlDecode("tail%2"), "tail%2");
}

// --- Portal over a populated server -------------------------------------------

class PortalTest : public ::testing::Test {
 protected:
  PortalTest() {
    db_ = storage::Database::Open("").value();
    server::ReputationServer::Config config;
    config.flood.registration_puzzle_bits = 0;
    config.flood.max_registrations_per_source_per_day = 0;
    config.flood.max_votes_per_user_per_day = 0;
    config.metrics = &metrics_;
    server_ = std::make_unique<server::ReputationServer>(db_.get(), &loop_,
                                                         config);
    portal_ = std::make_unique<WebPortal>(server_.get());

    // Populate: two vendors, three programs, a few votes and one remark.
    good_ = Register("photo_editor.exe", "PixelWorks", 1200);
    bad_ = Register("free_smileys.exe", "AdCorp", 90000);
    anon_ = Register("updater.exe", "", 512);

    std::string alice = MakeUser("alice");
    std::string bob = MakeUser("bob");
    Submit(alice, good_, 9, "helpful: excellent editor");
    Submit(bob, good_, 8, "");
    Submit(alice, bad_, 2, "helpful: endless popup ads");
    Submit(bob, anon_, 4, "noise: meh");
    core::UserId alice_id =
        server_->accounts().GetAccountByUsername("alice")->id;
    // Past the first aggregation window: younger raters are rejected.
    EXPECT_TRUE(
        server_->SubmitRemark(bob, alice_id, bad_.id, true, util::kWeek).ok());
    server_->aggregation().RunOnce(util::kDay);
  }

  SoftwareMeta Register(const std::string& name, const std::string& company,
                        std::int64_t size) {
    SoftwareMeta meta;
    meta.id = util::Sha1::Hash("web-" + name);
    meta.file_name = name;
    meta.file_size = size;
    meta.company = company;
    meta.version = "1.0";
    return meta;
  }

  std::string MakeUser(const std::string& name) {
    std::string email = name + "@web.example";
    EXPECT_TRUE(
        server_->Register("s", name, "password", email, "", "", 0).ok());
    auto mail = server_->FetchMail(email);
    EXPECT_TRUE(server_->Activate(name, mail->token).ok());
    return *server_->Login(name, "password", 0);
  }

  void Submit(const std::string& session, const SoftwareMeta& meta,
              int score, const std::string& comment) {
    ASSERT_TRUE(server_
                    ->SubmitRating(session, meta, score, comment,
                                   core::kNoBehaviors, 0)
                    .ok());
  }

  net::EventLoop loop_;
  /// Declared before server_ so every metric handle outlives its user.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::ReputationServer> server_;
  std::unique_ptr<WebPortal> portal_;
  SoftwareMeta good_, bad_, anon_;
};

TEST_F(PortalTest, SoftwarePageShowsMetadataScoreAndComments) {
  auto page = portal_->Handle("/software/" + good_.id.ToHex());
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_NE(page->find("photo_editor.exe"), std::string::npos);
  EXPECT_NE(page->find("PixelWorks"), std::string::npos);
  // Bob's positive remark lifted Alice's trust to 2 before aggregation, so
  // the weighted mean is (9*2 + 8*1) / 3 = 8.7.
  EXPECT_NE(page->find("8.7/10 (2 votes)"), std::string::npos);
  EXPECT_NE(page->find("excellent editor"), std::string::npos);
  // The empty comment is not rendered as an item.
  EXPECT_EQ(page->find("[8/10"), std::string::npos);
}

TEST_F(PortalTest, SoftwarePageShowsRemarkBalance) {
  auto page = portal_->SoftwarePage(bad_.id);
  ASSERT_TRUE(page.ok());
  EXPECT_NE(page->find("helpfulness +1"), std::string::npos);
  EXPECT_NE(page->find("endless popup ads"), std::string::npos);
}

TEST_F(PortalTest, AnonymousSoftwareIsFlagged) {
  auto page = portal_->SoftwarePage(anon_.id);
  ASSERT_TRUE(page.ok());
  // §3.3: missing company name is called out as a suspicion signal.
  EXPECT_NE(page->find("treat with suspicion"), std::string::npos);
}

TEST_F(PortalTest, VendorPageListsCatalogueWithLinks) {
  auto page = portal_->Handle("/vendor/PixelWorks");
  ASSERT_TRUE(page.ok());
  EXPECT_NE(page->find("derived vendor score"), std::string::npos);
  EXPECT_NE(page->find("/software/" + good_.id.ToHex()), std::string::npos);
  EXPECT_EQ(portal_->Handle("/vendor/NoSuchCo").status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(PortalTest, SearchFindsByCaseInsensitiveSubstring) {
  auto page = portal_->Handle("/search?q=SMILEYS");
  ASSERT_TRUE(page.ok());
  EXPECT_NE(page->find("free_smileys.exe"), std::string::npos);
  EXPECT_NE(page->find("1 result(s)"), std::string::npos);
  auto none = portal_->Handle("/search?q=zzzz");
  ASSERT_TRUE(none.ok());
  EXPECT_NE(none->find("0 result(s)"), std::string::npos);
}

TEST_F(PortalTest, TopAndWorstListsAreOrdered) {
  auto top = portal_->Handle("/top");
  ASSERT_TRUE(top.ok());
  std::size_t good_pos = top->find("photo_editor.exe");
  std::size_t bad_pos = top->find("free_smileys.exe");
  ASSERT_NE(good_pos, std::string::npos);
  ASSERT_NE(bad_pos, std::string::npos);
  EXPECT_LT(good_pos, bad_pos);

  auto worst = portal_->Handle("/worst");
  ASSERT_TRUE(worst.ok());
  EXPECT_LT(worst->find("free_smileys.exe"),
            worst->find("photo_editor.exe"));
}

TEST_F(PortalTest, StatsAndHomePages) {
  auto stats = portal_->Handle("/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("registered members"), std::string::npos);
  EXPECT_NE(stats->find("<td>2</td>"), std::string::npos);  // 2 members

  auto home = portal_->Handle("/");
  ASSERT_TRUE(home.ok());
  EXPECT_NE(home->find("3 programs tracked"), std::string::npos);
}

TEST_F(PortalTest, RouterRejectsGarbage) {
  EXPECT_EQ(portal_->Handle("/nope").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(portal_->Handle("/software/nothex").status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(portal_->Handle("/software/abcd").status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(PortalTest, MetricsEndpointExposesInstrumentedFamilies) {
  auto text = portal_->Handle("/metrics");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // The fixture submitted 4 ratings, 1 remark, and ran aggregation once;
  // every instrumented server-side family must be present with the
  // matching value in Prometheus text exposition.
  EXPECT_NE(text->find("# TYPE pisrep_server_votes_total counter"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("pisrep_server_votes_total 4\n"), std::string::npos);
  EXPECT_NE(text->find("pisrep_server_remarks_total 1\n"),
            std::string::npos);
  EXPECT_NE(text->find("pisrep_server_aggregation_runs_total 1\n"),
            std::string::npos);
  // Aggregation drained the dirty set, so the gauge is back to zero.
  EXPECT_NE(text->find("pisrep_server_vote_dirty_pending 0\n"),
            std::string::npos);
  for (const char* family :
       {"pisrep_server_flood_rejections_total{kind=\"puzzle\"}",
        "pisrep_server_flood_rejections_total{kind=\"registration\"}",
        "pisrep_server_flood_rejections_total{kind=\"vote\"}",
        "pisrep_server_aggregation_run_micros_bucket",
        "pisrep_server_aggregation_recomputed_total",
        "pisrep_net_events_pending", "pisrep_net_events_run_total"}) {
    EXPECT_NE(text->find(family), std::string::npos) << family;
  }

  auto json = portal_->Handle("/metrics.json");
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->front(), '[');
  EXPECT_EQ(json->back(), ']');
  EXPECT_NE(json->find("{\"name\":\"pisrep_server_votes_total\","
                       "\"type\":\"counter\",\"value\":4}"),
            std::string::npos)
      << *json;
  EXPECT_NE(json->find("\"name\":\"pisrep_server_aggregation_run_micros\","
                       "\"type\":\"histogram\""),
            std::string::npos);
}

TEST_F(PortalTest, MetricsUnavailableWithoutRegistry) {
  server::ReputationServer::Config config;
  server::ReputationServer bare(db_.get(), &loop_, config);
  WebPortal portal(&bare);
  EXPECT_EQ(portal.Handle("/metrics").status().code(),
            util::StatusCode::kUnavailable);
  EXPECT_EQ(portal.Handle("/metrics.json").status().code(),
            util::StatusCode::kUnavailable);
}

TEST_F(PortalTest, CommentsAreHtmlEscaped) {
  std::string carol = MakeUser("carol");
  SoftwareMeta meta = Register("evil_page.exe", "AdCorp", 1);
  Submit(carol, meta, 1, "<script>alert('xss')</script>");
  auto page = portal_->SoftwarePage(meta.id);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->find("<script>"), std::string::npos);
  EXPECT_NE(page->find("&lt;script&gt;"), std::string::npos);
}

}  // namespace
}  // namespace pisrep::web
