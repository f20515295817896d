// Unit tests for pisrep-lint (tools/lint): each rule is driven against
// in-memory fixtures, so the suite pins down rule ids, line numbers,
// suppression-comment handling, and baseline filtering without touching
// the real tree. Fixture code lives in string literals, which the lint
// lexer treats as opaque tokens — the fixtures cannot trip the lint run
// over this repository.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "driver.h"

namespace pisrep::lint {
namespace {

std::vector<Finding> Analyze(const std::vector<SourceFile>& files) {
  return AnalyzeProject(files);
}

std::vector<Finding> AnalyzeOne(const std::string& path,
                                const std::string& content) {
  return Analyze({{path, content}});
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                const std::string& file, int line) {
  for (const Finding& f : findings) {
    if (f.rule == rule && f.file == file && f.line == line) return true;
  }
  return false;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const Finding& f : findings) n += (f.rule == rule) ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// Registry

TEST(LintRegistry, RulesAreRegisteredWithUniqueIds) {
  const auto& checkers = AllCheckers();
  ASSERT_GE(checkers.size(), 10u);
  std::set<std::string> ids;
  for (const auto& checker : checkers) {
    EXPECT_FALSE(checker->rule().empty());
    EXPECT_FALSE(checker->description().empty());
    EXPECT_TRUE(ids.insert(std::string(checker->rule())).second)
        << "duplicate rule id " << checker->rule();
  }
  EXPECT_NE(FindChecker("discarded-status"), nullptr);
  EXPECT_NE(FindChecker("wall-clock"), nullptr);
  EXPECT_NE(FindChecker("unannotated-guarded-field"), nullptr);
  EXPECT_NE(FindChecker("raw-lock-unlock"), nullptr);
  EXPECT_NE(FindChecker("atomic-memory-order"), nullptr);
  EXPECT_NE(FindChecker("uncalled-api"), nullptr);
  EXPECT_EQ(FindChecker("no-such-rule"), nullptr);
}

// ---------------------------------------------------------------------------
// discarded-status

constexpr char kStatusDecl[] =
    "namespace pisrep::storage {\n"
    "util::Status Persist(int row);\n"
    "util::Result<int> Fetch(int key);\n"
    "}\n";

TEST(DiscardedStatus, FlagsBareStatementCall) {
  auto findings = Analyze({
      {"src/storage/api.h", kStatusDecl},
      {"src/storage/use.cc",
       "void Use() {\n"
       "  Persist(1);\n"      // line 2: discarded
       "  int v = Fetch(2).value();\n"
       "}\n"},
  });
  EXPECT_TRUE(HasFinding(findings, "discarded-status", "src/storage/use.cc", 2))
      << FormatHuman(findings);
  EXPECT_EQ(CountRule(findings, "discarded-status"), 1);
}

TEST(DiscardedStatus, FlagsDiscardedMemberChainCall) {
  auto findings = Analyze({
      {"src/storage/api.h", kStatusDecl},
      {"src/storage/use.cc",
       "void Use(Db* db) {\n"
       "  db->inner().Persist(7);\n"  // line 2
       "}\n"},
  });
  EXPECT_TRUE(
      HasFinding(findings, "discarded-status", "src/storage/use.cc", 2));
}

TEST(DiscardedStatus, AcceptsInspectedResults) {
  auto findings = Analyze({
      {"src/storage/api.h", kStatusDecl},
      {"src/storage/use.cc",
       "void Use() {\n"
       "  util::Status s = Persist(1);\n"
       "  if (!Persist(2).ok()) return;\n"
       "  return Persist(3);\n"
       "}\n"},
  });
  EXPECT_EQ(CountRule(findings, "discarded-status"), 0)
      << FormatHuman(findings);
}

TEST(DiscardedStatus, ParenthesizedReturnChainIsNotDiscarded) {
  // `return (*db)->Persist();` hands the Status to the caller. A naive
  // chain parse reads `return` as the chain's head identifier and flags
  // a perfectly inspected value.
  auto findings = Analyze({
      {"src/storage/api.h", kStatusDecl},
      {"src/storage/use.cc",
       "util::Status Use(Db** db) {\n"
       "  return (*db)->Persist(1);\n"
       "}\n"},
  });
  EXPECT_EQ(CountRule(findings, "discarded-status"), 0)
      << FormatHuman(findings);
}

TEST(DiscardedStatus, VoidCastNeedsJustifyingComment) {
  auto findings = Analyze({
      {"src/storage/api.h", kStatusDecl},
      {"src/storage/use.cc",
       "void Use() {\n"
       "  (void)Persist(1);\n"  // line 2: bare cast, no comment
       "  // best-effort: row is rewritten on the next sync anyway\n"
       "  (void)Persist(2);\n"  // line 4: justified
       "  (void)Persist(3);  // best-effort\n"
       "}\n"},
  });
  EXPECT_TRUE(
      HasFinding(findings, "discarded-status", "src/storage/use.cc", 2));
  EXPECT_EQ(CountRule(findings, "discarded-status"), 1)
      << FormatHuman(findings);
}

TEST(DiscardedStatus, AmbiguouslyDeclaredNamesAreNotFlagged) {
  // Login is declared returning Status in one layer and void in another
  // (callback-style client API). Token-level analysis cannot tell the call
  // sites apart, so neither is flagged — [[nodiscard]] covers the real one.
  auto findings = Analyze({
      {"src/server/api.h", "util::Status Login(const std::string& user);\n"},
      {"src/client/api.h", "void Login(LoginCallback done);\n"},
      {"src/client/use.cc",
       "void Use() {\n"
       "  Login(cb_);\n"
       "}\n"},
  });
  EXPECT_EQ(CountRule(findings, "discarded-status"), 0)
      << FormatHuman(findings);
}

// ---------------------------------------------------------------------------
// wall-clock

TEST(WallClock, FlagsWallClockAndEntropyOutsideUtil) {
  auto findings = AnalyzeOne(
      "src/core/t.cc",
      "void T() {\n"
      "  auto now = std::chrono::system_clock::now();\n"  // line 2
      "  long t = time(nullptr);\n"                       // line 3
      "  std::random_device rd;\n"                        // line 4
      "}\n");
  EXPECT_TRUE(HasFinding(findings, "wall-clock", "src/core/t.cc", 2));
  EXPECT_TRUE(HasFinding(findings, "wall-clock", "src/core/t.cc", 3));
  EXPECT_TRUE(HasFinding(findings, "wall-clock", "src/core/t.cc", 4));
}

TEST(WallClock, UtilLayerMayImplementTheClock) {
  auto findings = AnalyzeOne(
      "src/util/clock.cc",
      "long WallNow() { return time(nullptr); }\n");
  EXPECT_EQ(CountRule(findings, "wall-clock"), 0) << FormatHuman(findings);
}

TEST(WallClock, BenchTimerHeaderIsTheOneBenchAllowance) {
  // The benchmark timer helper wraps steady_clock by design...
  auto allowed = AnalyzeOne(
      "bench/bench_timer.h",
      "#ifndef T_H_\n"
      "#define T_H_\n"
      "auto Start() { return std::chrono::steady_clock::now(); }\n"
      "#endif  // T_H_\n");
  EXPECT_EQ(CountRule(allowed, "wall-clock"), 0) << FormatHuman(allowed);
  // ...but any other bench file reading the clock directly is still
  // flagged: timing must go through the helper.
  auto flagged = AnalyzeOne(
      "bench/bench_rogue.cc",
      "void B() {\n"
      "  auto t0 = std::chrono::steady_clock::now();\n"  // line 2
      "}\n");
  EXPECT_TRUE(HasFinding(flagged, "wall-clock", "bench/bench_rogue.cc", 2));
}

TEST(WallClock, MembersAndDeclarationsSharingLibcNamesAreFine) {
  auto findings = AnalyzeOne(
      "src/net/loop.h",
      "#ifndef L_H_\n"
      "#define L_H_\n"
      "struct Loop {\n"
      "  util::SimClock* clock() { return &clock_; }\n"  // declaration
      "  long Now() { return sim_.time(); }\n"           // member call
      "};\n"
      "#endif  // L_H_\n");
  EXPECT_EQ(CountRule(findings, "wall-clock"), 0) << FormatHuman(findings);
}

// ---------------------------------------------------------------------------
// banned-function

TEST(BannedFunction, FlagsUnsafeCStringCalls) {
  auto findings = AnalyzeOne(
      "src/xml/p.cc",
      "void P(char* d, const char* s) {\n"
      "  strcpy(d, s);\n"       // line 2
      "  int v = atoi(s);\n"    // line 3
      "}\n");
  EXPECT_TRUE(HasFinding(findings, "banned-function", "src/xml/p.cc", 2));
  EXPECT_TRUE(HasFinding(findings, "banned-function", "src/xml/p.cc", 3));
}

TEST(BannedFunction, ProjectFunctionsSharingTheNameAreFine) {
  auto findings = AnalyzeOne(
      "src/xml/p.cc",
      "void P(Obj* o) {\n"
      "  o->atoi(3);\n"
      "  mylib::strcpy(a, b);\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "banned-function"), 0)
      << FormatHuman(findings);
}

// ---------------------------------------------------------------------------
// include hygiene

TEST(IncludeHygiene, UsingNamespaceInHeaderIsFlagged) {
  auto findings = AnalyzeOne(
      "src/core/h.h",
      "#ifndef H_H_\n"
      "#define H_H_\n"
      "using namespace std;\n"  // line 3
      "#endif\n");
  EXPECT_TRUE(
      HasFinding(findings, "using-namespace-header", "src/core/h.h", 3));
}

TEST(IncludeHygiene, UsingNamespaceInSourceFileIsFine) {
  auto findings =
      AnalyzeOne("src/core/h.cc", "using namespace std::chrono;\n");
  EXPECT_EQ(CountRule(findings, "using-namespace-header"), 0);
}

TEST(IncludeHygiene, MissingIncludeGuardIsFlagged) {
  auto findings = AnalyzeOne("src/core/g.h", "struct G {};\n");
  EXPECT_EQ(CountRule(findings, "include-guard"), 1);
}

TEST(IncludeHygiene, GuardAndPragmaOnceBothAccepted) {
  auto guarded = AnalyzeOne("src/core/g.h",
                            "#ifndef G_H_\n"
                            "#define G_H_\n"
                            "struct G {};\n"
                            "#endif  // G_H_\n");
  EXPECT_EQ(CountRule(guarded, "include-guard"), 0) << FormatHuman(guarded);
  auto pragma = AnalyzeOne("src/core/g.h",
                           "#pragma once\n"
                           "struct G {};\n");
  EXPECT_EQ(CountRule(pragma, "include-guard"), 0) << FormatHuman(pragma);
}

TEST(IncludeHygiene, MismatchedGuardIsFlagged) {
  auto findings = AnalyzeOne("src/core/g.h",
                             "#ifndef G_H_\n"
                             "#define OTHER_H_\n"
                             "#endif\n");
  EXPECT_EQ(CountRule(findings, "include-guard"), 1);
}

// ---------------------------------------------------------------------------
// layering

TEST(Layering, LowerLayersMustNotReachUp) {
  auto findings = AnalyzeOne(
      "src/core/c.cc",
      "#include \"server/reputation_server.h\"\n"  // line 1: forbidden
      "#include \"util/status.h\"\n"               // allowed
      "#include <vector>\n");                      // system: always fine
  EXPECT_TRUE(HasFinding(findings, "layering", "src/core/c.cc", 1));
  EXPECT_EQ(CountRule(findings, "layering"), 1) << FormatHuman(findings);
}

TEST(Layering, ClientMayUseProtoButNotServer) {
  auto ok = AnalyzeOne("src/client/c.cc",
                       "#include \"proto/wire.h\"\n"
                       "#include \"core/software_id.h\"\n");
  EXPECT_EQ(CountRule(ok, "layering"), 0) << FormatHuman(ok);
  auto bad = AnalyzeOne("src/client/c.cc",
                        "#include \"server/feeds.h\"\n");
  EXPECT_TRUE(HasFinding(bad, "layering", "src/client/c.cc", 1));
}

TEST(Layering, UtilStaysLeafEvenWithParallelFor) {
  // The fan-out lives in util so every layer may use it; in return it must
  // depend on nothing above util.
  auto ok = AnalyzeOne("src/util/parallel_for.cc",
                       "#include \"util/parallel_for.h\"\n"
                       "#include \"util/logging.h\"\n");
  EXPECT_EQ(CountRule(ok, "layering"), 0) << FormatHuman(ok);
  auto bad = AnalyzeOne("src/util/parallel_for.h",
                        "#include \"server/aggregation_job.h\"\n");
  EXPECT_TRUE(HasFinding(bad, "layering", "src/util/parallel_for.h", 1));
}

TEST(Layering, ObsIsBelowEverythingButUtil) {
  // obs instruments the upper layers, so it must never include them —
  // otherwise attaching metrics to net/server/client would create a cycle.
  auto ok = AnalyzeOne("src/obs/metrics.cc",
                       "#include \"obs/metrics.h\"\n"
                       "#include \"util/check.h\"\n");
  EXPECT_EQ(CountRule(ok, "layering"), 0) << FormatHuman(ok);
  auto bad = AnalyzeOne("src/obs/trace.h",
                        "#include \"server/reputation_server.h\"\n"  // line 1
                        "#include \"client/client_app.h\"\n"         // line 2
                        "#include \"net/rpc.h\"\n");                 // line 3
  EXPECT_TRUE(HasFinding(bad, "layering", "src/obs/trace.h", 1));
  EXPECT_TRUE(HasFinding(bad, "layering", "src/obs/trace.h", 2));
  EXPECT_TRUE(HasFinding(bad, "layering", "src/obs/trace.h", 3));
  EXPECT_EQ(CountRule(bad, "layering"), 3) << FormatHuman(bad);
}

TEST(Layering, StorageTierStaysBelowObsAndServer) {
  // The tier engine is plain storage: cold store, hot LRU, and facade may
  // see each other and util, nothing else.
  auto ok = AnalyzeOne("src/storage/tiered_table.cc",
                       "#include \"storage/tiered_table.h\"\n"
                       "#include \"storage/cold_store.h\"\n"
                       "#include \"storage/hot_tier.h\"\n"
                       "#include \"util/clock.h\"\n");
  EXPECT_EQ(CountRule(ok, "layering"), 0) << FormatHuman(ok);
  // pisrep_storage_* metrics are exported by the *server* over TierStats();
  // the engine itself must not reach up into obs (or further, into the
  // server that publishes it).
  auto bad = AnalyzeOne("src/storage/cold_store.cc",
                        "#include \"obs/metrics.h\"\n"        // line 1
                        "#include \"server/feeds.h\"\n");     // line 2
  EXPECT_TRUE(HasFinding(bad, "layering", "src/storage/cold_store.cc", 1));
  EXPECT_TRUE(HasFinding(bad, "layering", "src/storage/cold_store.cc", 2));
  EXPECT_EQ(CountRule(bad, "layering"), 2) << FormatHuman(bad);
}

TEST(Layering, TrustSitsAboveCryptoStorageButBelowServer) {
  // The signed trust plane may use crypto (signatures), storage (audit
  // chain persistence) and proto (statement serialization)...
  auto ok = AnalyzeOne("src/trust/audit_log.cc",
                       "#include \"trust/audit_log.h\"\n"
                       "#include \"crypto/signing.h\"\n"
                       "#include \"storage/database.h\"\n"
                       "#include \"proto/wire.h\"\n"
                       "#include \"obs/metrics.h\"\n");
  EXPECT_EQ(CountRule(ok, "layering"), 0) << FormatHuman(ok);
  // ...but never the server/client/cluster layers that consume it — the
  // audit log must stay linkable into the offline pisrep-audit tool.
  auto bad = AnalyzeOne("src/trust/policy_rules.cc",
                        "#include \"server/reputation_server.h\"\n"  // 1
                        "#include \"client/client_app.h\"\n"         // 2
                        "#include \"cluster/replication.h\"\n");     // 3
  EXPECT_TRUE(HasFinding(bad, "layering", "src/trust/policy_rules.cc", 1));
  EXPECT_TRUE(HasFinding(bad, "layering", "src/trust/policy_rules.cc", 2));
  EXPECT_TRUE(HasFinding(bad, "layering", "src/trust/policy_rules.cc", 3));
  EXPECT_EQ(CountRule(bad, "layering"), 3) << FormatHuman(bad);
  // Consumers on every floor above may include trust/ headers.
  auto consumers = Analyze({
      {"src/server/reputation_server.cc", "#include \"trust/audit_log.h\"\n"},
      {"src/client/client_app.cc", "#include \"trust/policy_rules.h\"\n"},
      {"src/cluster/anti_entropy.cc", "#include \"trust/audit_log.h\"\n"},
  });
  EXPECT_EQ(CountRule(consumers, "layering"), 0) << FormatHuman(consumers);
  // Nothing below trust may look up at it: crypto stays a leaf-ish layer.
  auto below = AnalyzeOne("src/crypto/signing.cc",
                          "#include \"trust/signed_statement.h\"\n");
  EXPECT_TRUE(HasFinding(below, "layering", "src/crypto/signing.cc", 1));
}

TEST(Layering, InstrumentedLayersMayUseObs) {
  auto net = AnalyzeOne("src/net/rpc.cc",
                        "#include \"obs/metrics.h\"\n"
                        "#include \"obs/trace.h\"\n");
  EXPECT_EQ(CountRule(net, "layering"), 0) << FormatHuman(net);
  auto server = AnalyzeOne("src/server/vote_store.cc",
                           "#include \"obs/metrics.h\"\n");
  EXPECT_EQ(CountRule(server, "layering"), 0) << FormatHuman(server);
  // util stays the sole leaf: it may not include obs.
  auto util = AnalyzeOne("src/util/logging.cc",
                         "#include \"obs/metrics.h\"\n");
  EXPECT_TRUE(HasFinding(util, "layering", "src/util/logging.cc", 1));
}

TEST(Layering, ClusterSitsAboveServerButBelowSim) {
  // cluster/ shards whole servers, so it may include server/ and below...
  auto ok = AnalyzeOne("src/cluster/cluster.cc",
                       "#include \"cluster/hash_ring.h\"\n"
                       "#include \"server/reputation_server.h\"\n"
                       "#include \"net/rpc.h\"\n"
                       "#include \"storage/database.h\"\n"
                       "#include \"obs/metrics.h\"\n");
  EXPECT_EQ(CountRule(ok, "layering"), 0) << FormatHuman(ok);
  // ...but must not reach sideways into client/ or up into sim/.
  auto bad = AnalyzeOne("src/cluster/router.cc",
                        "#include \"client/client_app.h\"\n"  // line 1
                        "#include \"sim/scenario.h\"\n");     // line 2
  EXPECT_TRUE(HasFinding(bad, "layering", "src/cluster/router.cc", 1));
  EXPECT_TRUE(HasFinding(bad, "layering", "src/cluster/router.cc", 2));
  // server/ may never look back up at the deployment layer above it.
  auto up = AnalyzeOne("src/server/vote_store.cc",
                       "#include \"cluster/replication.h\"\n");
  EXPECT_TRUE(HasFinding(up, "layering", "src/server/vote_store.cc", 1));
  // sim drives shard clusters, so the include is legal there.
  auto sim = AnalyzeOne("src/sim/scenario.cc",
                        "#include \"cluster/cluster.h\"\n");
  EXPECT_EQ(CountRule(sim, "layering"), 0) << FormatHuman(sim);
}

TEST(Layering, ProtoCodecSpeaksXmlButNothingAbove) {
  // The binary frame codec serializes the shared XML element tree, so
  // proto/ may include xml/ (and core/util) — and net/ may speak the
  // codec to negotiate framing per connection...
  auto codec = AnalyzeOne("src/proto/binary_codec.cc",
                          "#include \"proto/binary_codec.h\"\n"
                          "#include \"xml/xml_node.h\"\n"
                          "#include \"core/types.h\"\n"
                          "#include \"util/status.h\"\n");
  EXPECT_EQ(CountRule(codec, "layering"), 0) << FormatHuman(codec);
  auto net = AnalyzeOne("src/net/rpc.cc",
                        "#include \"proto/binary_codec.h\"\n"
                        "#include \"proto/wire.h\"\n");
  EXPECT_EQ(CountRule(net, "layering"), 0) << FormatHuman(net);
  // ...but proto must never look up at the transports or stores that
  // carry its frames, and the leaf layers below it must not grow a
  // dependency on wire encodings.
  auto bad = AnalyzeOne("src/proto/binary_codec.cc",
                        "#include \"net/rpc.h\"\n"        // line 1
                        "#include \"storage/database.h\"\n");  // line 2
  EXPECT_TRUE(HasFinding(bad, "layering", "src/proto/binary_codec.cc", 1));
  EXPECT_TRUE(HasFinding(bad, "layering", "src/proto/binary_codec.cc", 2));
  EXPECT_EQ(CountRule(bad, "layering"), 2) << FormatHuman(bad);
  auto storage = AnalyzeOne("src/storage/wal.cc",
                            "#include \"proto/binary_codec.h\"\n");
  EXPECT_TRUE(HasFinding(storage, "layering", "src/storage/wal.cc", 1));
}

TEST(Layering, GossipAndAntiEntropyStayInTheClusterLayer) {
  // The gossip failure detector and anti-entropy sweeper are cluster-layer
  // citizens: free to use the RPC plane, storage digests, and metrics...
  auto gossip = AnalyzeOne("src/cluster/gossip.cc",
                           "#include \"cluster/gossip.h\"\n"
                           "#include \"cluster/hash_ring.h\"\n"
                           "#include \"net/rpc.h\"\n"
                           "#include \"obs/metrics.h\"\n");
  EXPECT_EQ(CountRule(gossip, "layering"), 0) << FormatHuman(gossip);
  auto entropy = AnalyzeOne("src/cluster/anti_entropy.cc",
                            "#include \"cluster/anti_entropy.h\"\n"
                            "#include \"cluster/replication.h\"\n"
                            "#include \"storage/database.h\"\n"
                            "#include \"util/sha1.h\"\n");
  EXPECT_EQ(CountRule(entropy, "layering"), 0) << FormatHuman(entropy);
  // ...but the layers below must not grow a dependency on them: a server
  // or net file reaching up into the failure detector inverts the DAG.
  auto up = AnalyzeOne("src/server/reputation_server.cc",
                       "#include \"cluster/gossip.h\"\n");
  EXPECT_TRUE(HasFinding(up, "layering", "src/server/reputation_server.cc", 1));
  auto net = AnalyzeOne("src/net/fault_injector.cc",
                        "#include \"cluster/anti_entropy.h\"\n");
  EXPECT_TRUE(HasFinding(net, "layering", "src/net/fault_injector.cc", 1));
}

TEST(Layering, TestsAreUnrestricted) {
  auto findings = AnalyzeOne("tests/x_test.cc",
                             "#include \"server/feeds.h\"\n"
                             "#include \"client/client_app.h\"\n");
  EXPECT_EQ(CountRule(findings, "layering"), 0);
}

// ---------------------------------------------------------------------------
// raw-new-delete

TEST(RawNewDelete, FlagsRawNewAndDelete) {
  auto findings = AnalyzeOne(
      "src/core/m.cc",
      "void M() {\n"
      "  int* p = new int(3);\n"  // line 2
      "  delete p;\n"             // line 3
      "}\n");
  EXPECT_TRUE(HasFinding(findings, "raw-new-delete", "src/core/m.cc", 2));
  EXPECT_TRUE(HasFinding(findings, "raw-new-delete", "src/core/m.cc", 3));
}

TEST(RawNewDelete, DeletedFunctionsAndOperatorOverloadsAreFine) {
  auto findings = AnalyzeOne(
      "src/core/m.h",
      "#pragma once\n"
      "struct M {\n"
      "  M(const M&) = delete;\n"
      "  M& operator=(const M&) = delete;\n"
      "  static void* operator new(std::size_t n);\n"
      "  static void operator delete(void* p);\n"
      "};\n");
  EXPECT_EQ(CountRule(findings, "raw-new-delete"), 0)
      << FormatHuman(findings);
}

// ---------------------------------------------------------------------------
// suppression comments

TEST(Suppression, SameLineAndPrecedingLineBothCover) {
  auto same = AnalyzeOne(
      "src/core/s.cc",
      "void S() { int* p = new int; }  // pisrep-lint: allow(raw-new-delete)\n");
  EXPECT_EQ(CountRule(same, "raw-new-delete"), 0) << FormatHuman(same);

  auto above = AnalyzeOne("src/core/s.cc",
                          "// pisrep-lint: allow(raw-new-delete)\n"
                          "int* p = new int;\n");
  EXPECT_EQ(CountRule(above, "raw-new-delete"), 0) << FormatHuman(above);
}

TEST(Suppression, OnlyTheNamedRuleIsSuppressed) {
  auto findings = AnalyzeOne(
      "src/core/s.cc",
      "// pisrep-lint: allow(wall-clock)\n"
      "int* p = new int;\n");  // line 2: still a raw-new finding
  EXPECT_TRUE(HasFinding(findings, "raw-new-delete", "src/core/s.cc", 2));
}

TEST(Suppression, AllowAllAndMultiRuleLists) {
  auto all = AnalyzeOne("src/core/s.cc",
                        "// pisrep-lint: allow(all)\n"
                        "long t = time(nullptr);\n");
  EXPECT_TRUE(all.empty()) << FormatHuman(all);

  auto multi = AnalyzeOne(
      "src/core/s.cc",
      "// pisrep-lint: allow(raw-new-delete, wall-clock)\n"
      "int* p = new int(time(nullptr));\n");
  EXPECT_TRUE(multi.empty()) << FormatHuman(multi);
}

TEST(Suppression, DoesNotLeakBeyondTheNextLine) {
  auto findings = AnalyzeOne("src/core/s.cc",
                             "// pisrep-lint: allow(raw-new-delete)\n"
                             "int a = 0;\n"
                             "int* p = new int;\n");  // line 3: uncovered
  EXPECT_TRUE(HasFinding(findings, "raw-new-delete", "src/core/s.cc", 3));
}

// ---------------------------------------------------------------------------
// unannotated-guarded-field

TEST(GuardedField, FieldAfterMutexWithoutAnnotationIsFlagged) {
  auto findings = AnalyzeOne("src/core/g.h",
                             "#ifndef G_H_\n"
                             "#define G_H_\n"
                             "class Tracker {\n"
                             " private:\n"
                             "  util::Mutex mu_;\n"
                             "  int count_ = 0;\n"  // line 6: unguarded
                             "};\n"
                             "#endif  // G_H_\n");
  EXPECT_TRUE(
      HasFinding(findings, "unannotated-guarded-field", "src/core/g.h", 6))
      << FormatHuman(findings);
  EXPECT_EQ(CountRule(findings, "unannotated-guarded-field"), 1);
}

TEST(GuardedField, DisciplinedClassIsClean) {
  // Config fields above the mutex, GUARDED_BY fields below it; atomics,
  // condition variables, and statics synchronize themselves.
  auto findings = AnalyzeOne("src/core/g.h",
                             "#ifndef G_H_\n"
                             "#define G_H_\n"
                             "class Tracker {\n"
                             " public:\n"
                             "  int limit() const { return limit_; }\n"
                             " private:\n"
                             "  int limit_ = 8;\n"
                             "  std::mutex mu_;\n"
                             "  int count_ GUARDED_BY(mu_) = 0;\n"
                             "  std::deque<int> work_ GUARDED_BY(mu_);\n"
                             "  std::condition_variable cv_;\n"
                             "  std::atomic<bool> done_{false};\n"
                             "  static constexpr int kMax_ = 4;\n"
                             "};\n"
                             "#endif  // G_H_\n");
  EXPECT_EQ(CountRule(findings, "unannotated-guarded-field"), 0)
      << FormatHuman(findings);
}

TEST(GuardedField, ClassWithoutMutexAndTestFilesAreExempt) {
  auto no_mutex = AnalyzeOne("src/core/g.h",
                             "#ifndef G_H_\n"
                             "#define G_H_\n"
                             "class Plain {\n"
                             "  int count_ = 0;\n"
                             "};\n"
                             "#endif  // G_H_\n");
  EXPECT_EQ(CountRule(no_mutex, "unannotated-guarded-field"), 0)
      << FormatHuman(no_mutex);

  // The rule is a src/ discipline; test fixtures may improvise.
  auto in_test = AnalyzeOne("tests/g_test.cc",
                            "class Fixture {\n"
                            "  std::mutex mu_;\n"
                            "  int count_ = 0;\n"
                            "};\n");
  EXPECT_EQ(CountRule(in_test, "unannotated-guarded-field"), 0)
      << FormatHuman(in_test);
}

TEST(GuardedField, SuppressionCommentIsHonoured) {
  auto findings = AnalyzeOne(
      "src/core/g.h",
      "#ifndef G_H_\n"
      "#define G_H_\n"
      "class Tracker {\n"
      "  std::mutex mu_;\n"
      "  // pisrep-lint: allow(unannotated-guarded-field)\n"
      "  int count_ = 0;\n"
      "};\n"
      "#endif  // G_H_\n");
  EXPECT_EQ(CountRule(findings, "unannotated-guarded-field"), 0)
      << FormatHuman(findings);
}

TEST(GuardedField, MethodBodiesAndInitializersDoNotConfuseTheScan) {
  // Inline method bodies between the mutex and a guarded field, and a
  // brace initializer on the field itself, must not derail statement
  // tracking.
  auto findings = AnalyzeOne("src/core/g.h",
                             "#ifndef G_H_\n"
                             "#define G_H_\n"
                             "class Tracker {\n"
                             " public:\n"
                             "  void Reset() { count_ = 0; }\n"
                             " private:\n"
                             "  std::mutex mu_;\n"
                             "  int count_ GUARDED_BY(mu_){0};\n"
                             "  int bad_{0};\n"  // line 9: unguarded
                             "};\n"
                             "#endif  // G_H_\n");
  EXPECT_TRUE(
      HasFinding(findings, "unannotated-guarded-field", "src/core/g.h", 9))
      << FormatHuman(findings);
  EXPECT_EQ(CountRule(findings, "unannotated-guarded-field"), 1);
}

// ---------------------------------------------------------------------------
// raw-lock-unlock

TEST(RawLockUnlock, ManualLockAndUnlockStatementsAreFlagged) {
  auto findings = AnalyzeOne("src/core/l.cc",
                             "void Poke() {\n"
                             "  mu_.lock();\n"
                             "  counter.Bump();\n"
                             "  mu_.unlock();\n"
                             "}\n");
  EXPECT_TRUE(HasFinding(findings, "raw-lock-unlock", "src/core/l.cc", 2))
      << FormatHuman(findings);
  EXPECT_TRUE(HasFinding(findings, "raw-lock-unlock", "src/core/l.cc", 4));
  EXPECT_EQ(CountRule(findings, "raw-lock-unlock"), 2);
}

TEST(RawLockUnlock, RaiiHoldersAndWeakPtrLockAreFine) {
  auto findings = AnalyzeOne(
      "src/core/l.cc",
      "void Poke() {\n"
      "  MutexLock lock(&mu_);\n"
      "  counter.Bump();\n"
      "}\n"
      "void Visit(std::weak_ptr<Conn> weak) {\n"
      // weak_ptr::lock() returns a value that is consumed, so it is not
      // a statement-level discarded call and never matches.
      "  if (auto self = weak.lock()) self->Visit();\n"
      "  auto held = weak.lock();\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "raw-lock-unlock"), 0)
      << FormatHuman(findings);
}

TEST(RawLockUnlock, SuppressionCommentIsHonoured) {
  auto findings = AnalyzeOne(
      "src/util/l.cc",
      "void Mutex::Lock() {\n"
      "  mu_.lock();  // pisrep-lint: allow(raw-lock-unlock)\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "raw-lock-unlock"), 0)
      << FormatHuman(findings);
}

// ---------------------------------------------------------------------------
// atomic-memory-order

TEST(AtomicMemoryOrder, DefaultedOrderIsFlaggedOutsideObs) {
  auto findings = AnalyzeOne("src/core/a.cc",
                             "void Bump() {\n"
                             "  hits_.fetch_add(1);\n"
                             "  ready_.store(true);\n"
                             "  int v = hits_.load();\n"
                             "}\n");
  EXPECT_TRUE(HasFinding(findings, "atomic-memory-order", "src/core/a.cc", 2))
      << FormatHuman(findings);
  EXPECT_TRUE(HasFinding(findings, "atomic-memory-order", "src/core/a.cc", 3));
  EXPECT_TRUE(HasFinding(findings, "atomic-memory-order", "src/core/a.cc", 4));
  EXPECT_EQ(CountRule(findings, "atomic-memory-order"), 3);
}

TEST(AtomicMemoryOrder, ExplicitOrderAndNonAtomicNamesAreFine) {
  auto findings = AnalyzeOne(
      "src/core/a.cc",
      "void Bump() {\n"
      "  hits_.fetch_add(1, std::memory_order_relaxed);\n"
      "  ready_.store(true, std::memory_order_release);\n"
      "  int v = hits_.load(std::memory_order_acquire);\n"
      "  bool won = state_.compare_exchange_strong(\n"
      "      expected, desired, std::memory_order_acq_rel,\n"
      "      std::memory_order_acquire);\n"
      // Free-function std::exchange and a container Load-alike are not
      // member atomic ops.
      "  int old = std::exchange(plain, 4);\n"
      "  wal.Load();\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "atomic-memory-order"), 0)
      << FormatHuman(findings);
}

TEST(AtomicMemoryOrder, ObsLayerIsExemptAndSuppressionWorks) {
  auto obs = AnalyzeOne("src/obs/m.cc",
                        "void Bump() { value_.fetch_add(1); }\n");
  EXPECT_EQ(CountRule(obs, "atomic-memory-order"), 0) << FormatHuman(obs);

  auto suppressed = AnalyzeOne(
      "src/core/a.cc",
      "// seq_cst deliberately: pisrep-lint: allow(atomic-memory-order)\n"
      "void Bump() { hits_.fetch_add(1); }\n");
  EXPECT_EQ(CountRule(suppressed, "atomic-memory-order"), 0)
      << FormatHuman(suppressed);
}

// ---------------------------------------------------------------------------
// uncalled-api

constexpr char kStoreHeader[] =
    "namespace pisrep::server {\n"
    "class Store {\n"
    " public:\n"
    "  explicit Store(int capacity);\n"
    "  ~Store();\n"
    "  bool operator==(const Store& other) const;\n"
    "  int Count() const;\n"         // line 7: called from tests/ only
    "  void Compact();\n"            // line 8: called from perfbench/ only
    "  void Forgotten();\n"          // line 9: never called
    "};\n"
    "std::string StoreName(const Store& store);\n"  // line 11: never called
    "}\n";

// Definitions, a comment and a string literal name every function; none of
// them is a use.
std::vector<SourceFile> StoreTree() {
  return {
      {"src/server/store.h", kStoreHeader},
      {"src/server/store.cc",
       "namespace pisrep::server {\n"
       "Store::Store(int capacity) {}\n"
       "Store::~Store() {}\n"
       "int Store::Count() const { return 0; }\n"
       "void pisrep::server::Store::Forgotten() {}\n"
       "std::string StoreName(const Store& store) { return \"Forgotten\"; }\n"
       "}\n"},
      {"tests/store_test.cc",
       "// Forgotten() and StoreName() are covered elsewhere.\n"
       "TEST(Store, Counts) { EXPECT_EQ(Store(4).Count(), 0); }\n"},
      {"perfbench/stack.cc",
       "void Run(Store* store) { int* p = new int(1); store->Compact(); }\n"},
  };
}

TEST(UncalledApi, FlagsFunctionsNothingCalls) {
  auto findings = AnalyzeProject(StoreTree(), /*whole_tree=*/true);
  EXPECT_TRUE(HasFinding(findings, "uncalled-api", "src/server/store.h", 9))
      << FormatHuman(findings);
  EXPECT_TRUE(HasFinding(findings, "uncalled-api", "src/server/store.h", 11));
  // Callers in tests/ and perfbench/ count; constructors, destructors and
  // operators are exempt; perfbench/ is read but not linted.
  EXPECT_EQ(CountRule(findings, "uncalled-api"), 2) << FormatHuman(findings);
  EXPECT_EQ(CountRule(findings, "raw-new-delete"), 0);
}

TEST(UncalledApi, AnyOtherMentionOfTheNameIsAUse) {
  auto files = StoreTree();
  files.push_back({"src/server/use.cc",
                   "const std::string kName = server::StoreName(Store(1));\n"
                   "void Wire() { auto fn = &Store::Forgotten; }\n"});
  auto findings = AnalyzeProject(files, /*whole_tree=*/true);
  EXPECT_EQ(CountRule(findings, "uncalled-api"), 0) << FormatHuman(findings);
}

TEST(UncalledApi, OnlyWholeTreeRunsReportIt) {
  // Linting files by path cannot see every caller.
  EXPECT_EQ(CountRule(AnalyzeProject(StoreTree()), "uncalled-api"), 0);
  EXPECT_EQ(CountRule(AnalyzeOne("src/server/store.h", kStoreHeader),
                      "uncalled-api"),
            0);
}

// ---------------------------------------------------------------------------
// baseline

TEST(Baseline, ParseSkipsCommentsAndBlankLines) {
  auto entries = ParseBaseline(
      "# grandfathered\n"
      "\n"
      "raw-new-delete src/core/old.cc:12\n"
      "  wall-clock src/net/old.cc:7  \n");
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.count("raw-new-delete src/core/old.cc:12"), 1u);
  EXPECT_EQ(entries.count("wall-clock src/net/old.cc:7"), 1u);
}

TEST(Baseline, FilterRemovesExactMatchesOnly) {
  std::vector<Finding> findings = {
      {"raw-new-delete", "src/core/old.cc", 12, "raw new"},
      {"raw-new-delete", "src/core/old.cc", 30, "raw new"},
      {"wall-clock", "src/core/old.cc", 12, "time()"},
  };
  auto filtered = FilterBaseline(
      findings, ParseBaseline("raw-new-delete src/core/old.cc:12\n"));
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_TRUE(HasFinding(filtered, "raw-new-delete", "src/core/old.cc", 30));
  EXPECT_TRUE(HasFinding(filtered, "wall-clock", "src/core/old.cc", 12));
}

TEST(Baseline, KeyMatchesDocumentedFormat) {
  Finding f{"layering", "src/core/c.cc", 1, "msg"};
  EXPECT_EQ(BaselineKey(f), "layering src/core/c.cc:1");
}

TEST(Baseline, FormatBaselineIsSortedDeduplicatedAndStable) {
  std::vector<Finding> findings = {
      {"wall-clock", "src/net/old.cc", 7, "time()"},
      {"raw-new-delete", "src/core/old.cc", 12, "raw new"},
      {"raw-new-delete", "src/core/old.cc", 12, "duplicate"},
  };
  std::string first = FormatBaseline(findings);
  // Entries are sorted and deduplicated regardless of input order.
  EXPECT_NE(first.find("raw-new-delete src/core/old.cc:12\n"
                       "wall-clock src/net/old.cc:7\n"),
            std::string::npos)
      << first;

  std::reverse(findings.begin(), findings.end());
  EXPECT_EQ(first, FormatBaseline(findings)) << "must be byte-stable";

  // Round trip: a regenerated baseline filters out exactly its findings,
  // so `--update-baseline` twice in a row is a no-op.
  auto filtered = FilterBaseline(findings, ParseBaseline(first));
  EXPECT_TRUE(filtered.empty()) << FormatHuman(filtered);
  EXPECT_EQ(FormatBaseline({}),
            FormatBaseline(filtered));  // header-only when clean
}

// ---------------------------------------------------------------------------
// output formats

TEST(Output, HumanAndJsonCarryRuleFileAndLine) {
  std::vector<Finding> findings = {
      {"wall-clock", "src/core/t.cc", 3, "call to 'time('"}};
  std::string human = FormatHuman(findings);
  EXPECT_NE(human.find("src/core/t.cc:3: [wall-clock]"), std::string::npos)
      << human;
  std::string json = FormatJson(findings);
  EXPECT_NE(json.find("\"rule\":\"wall-clock\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
}

TEST(Output, FindingsAreSortedByFileThenLine) {
  auto findings = Analyze({
      {"src/core/b.cc", "int* q = new int;\n"},
      {"src/core/a.cc", "int x = 0;\nint* p = new int;\n"},
  });
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/core/a.cc");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].file, "src/core/b.cc");
}

}  // namespace
}  // namespace pisrep::lint
