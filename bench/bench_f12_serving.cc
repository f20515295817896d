// F12: serving-path throughput — the epoch-snapshot read path (DESIGN.md
// §14) driven by a multi-threaded closed-loop load generator.
//
// Each worker thread plays both ends of the wire in-process: it frames a
// QuerySoftware request (XML or compact binary codec, single or batched),
// decodes it as the server would, answers from the published ScoreSnapshot
// via QuerySoftwareSnapshot (no mutex, no store walk), frames the response
// in the same codec and decodes it as the client would. The matrix is
// threads {1,2,4,8} x codec {xml,binary} x batch {1,16}.
//
// Self-checks (run before any timing):
//   - snapshot answers are byte-identical to a twin server running the
//     locked store-walk path (snapshot_reads = false),
//   - the binary codec round-trips to the exact same element tree as XML,
//   - responses collected through a batch frame are byte-identical to the
//     same queries framed one at a time.
//
// Emits BENCH_serving.json at the repo root (bench_util.h OutputPath). Throughput is only meaningful when the host
// has at least as many cpus as worker threads; every cell carries its own
// "speedup_valid" flag (cf. bench_a4's honesty rule). `--smoke` runs a
// reduced matrix with all self-checks (the `bench-smoke` ctest label).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_timer.h"
#include "bench_util.h"
#include "core/types.h"
#include "proto/binary_codec.h"
#include "proto/wire.h"
#include "server/reputation_server.h"
#include "storage/database.h"
#include "util/clock.h"
#include "util/hex.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "xml/xml_node.h"
#include "xml/xml_writer.h"

namespace pisrep::bench {
namespace {

using core::SoftwareId;
using core::SoftwareMeta;
using proto::WireCodec;
using server::ReputationServer;
using xml::XmlNode;

struct Shape {
  bool smoke = false;
  std::size_t programs = 300;
  std::size_t users = 100;
  std::size_t votes_per_user = 30;
  std::size_t ops_per_thread = 8'000;
  std::vector<int> threads = {1, 2, 4, 8};
};

struct Cell {
  int threads = 0;
  WireCodec codec = WireCodec::kXml;
  std::size_t batch = 1;
  double requests_per_sec = 0.0;
  bool speedup_valid = false;
};

SoftwareMeta ProgramMeta(std::size_t index) {
  SoftwareMeta meta;
  meta.id = util::Sha1::Hash("f12-program-" + std::to_string(index));
  meta.file_name = util::StrFormat("s%zu.exe", index);
  meta.file_size = 8192;
  meta.company = "vendor-" + std::to_string(index % 9);
  meta.version = "2.0";
  return meta;
}

/// Builds one server over an in-memory database with a deterministic
/// community, runs the aggregation (which publishes the snapshot when
/// snapshot_reads is on) and logs in one session per worker thread.
class Fixture {
 public:
  Fixture(const Shape& shape, bool snapshot_reads) : shape_(shape) {
    auto opened = storage::Database::Open("");
    MustOk(opened, "open in-memory db");
    db_ = std::move(*opened);
    ReputationServer::Config config;
    config.accounts.require_activation = false;
    config.snapshot_reads = snapshot_reads;
    server_ = std::make_unique<ReputationServer>(db_.get(), nullptr,
                                                 std::move(config));
    for (std::size_t p = 0; p < shape_.programs; ++p) {
      MustOk(server_->registry().RegisterSoftware(ProgramMeta(p)),
             "register software");
    }
    for (std::size_t u = 0; u < shape_.users; ++u) {
      std::string name = util::StrFormat("u%zu", u);
      MustOk(server_->accounts().Register(name, "password",
                                          name + "@f12.example", 0),
             "register user");
    }
    std::size_t stride = 13;
    while (shape_.programs % stride == 0) ++stride;
    for (std::size_t u = 0; u < shape_.users; ++u) {
      for (std::size_t k = 0; k < shape_.votes_per_user; ++k) {
        core::RatingRecord record;
        record.user = static_cast<core::UserId>(u + 1);
        record.software = ProgramMeta((u + k * stride) % shape_.programs).id;
        record.score = 1 + static_cast<int>((u * 3 + k) % 10);
        record.submitted_at = 0;
        record.comment = util::StrFormat("c%zu", k);
        MustOk(server_->votes().SubmitRating(record, true, 0.0),
               "submit vote");
      }
    }
    server_->aggregation().RunOnce(util::kDay, /*full_sweep=*/true);
    // Aggregation's post-run hook already published; the explicit call
    // covers the snapshot_reads = false twin (where it is a no-op).
    server_->PublishSnapshot();
    for (int t = 0; t < 16; ++t) {
      auto session = server_->Login("u0", "password", util::kDay);
      MustOk(session, "login");
      sessions_.push_back(*session);
    }
  }

  ReputationServer& server() { return *server_; }
  const std::string& session(int thread) const {
    return sessions_[static_cast<std::size_t>(thread) % sessions_.size()];
  }
  const Shape& shape() const { return shape_; }

 private:
  Shape shape_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<ReputationServer> server_;
  std::vector<std::string> sessions_;
};

std::string IdHex(std::size_t program) {
  const SoftwareId id = ProgramMeta(program).id;
  return util::HexEncode(id.bytes.data(), id.bytes.size());
}

XmlNode BuildRequest(const std::string& session, const std::string& id_hex,
                     std::uint64_t id) {
  XmlNode request("request");
  request.SetAttribute("id", std::to_string(id));
  request.SetAttribute("method", "QuerySoftware");
  request.AddTextChild("session", session);
  request.AddTextChild("id", id_hex);
  return request;
}

/// Serves the decoded request node from the snapshot and envelopes the
/// answer the way the RPC layer does. Aborts on any serving error: a
/// throughput number over failed queries would be meaningless.
XmlNode Serve(ReputationServer& server, const XmlNode& request) {
  std::string session = request.ChildText("session").value_or("");
  std::string id_hex = request.ChildText("id").value_or("");
  auto bytes = util::HexDecode(id_hex);
  MustOk(bytes, "decode id");
  SoftwareId id;
  for (std::size_t i = 0; i < id.bytes.size(); ++i) id.bytes[i] = (*bytes)[i];
  auto info = server.QuerySoftwareSnapshot(session, id);
  MustOk(info, "snapshot query");
  XmlNode response("response");
  response.SetAttribute("id", request.AttributeOr("id", ""));
  response.SetAttribute("status", "ok");
  response.AddChild(proto::SoftwareInfoToXml(*info));
  return response;
}

/// One closed-loop worker: `ops` queries, `batch` per frame.
void Worker(Fixture& fx, int thread, std::size_t ops, WireCodec codec,
            std::size_t batch) {
  const std::size_t programs = fx.shape().programs;
  const std::string& session = fx.session(thread);
  std::uint64_t next_id = 1;
  std::size_t done = 0;
  std::size_t cursor = static_cast<std::size_t>(thread) * 37;
  while (done < ops) {
    std::size_t in_frame = batch < ops - done ? batch : ops - done;
    // Client side: frame the queries.
    std::string frame;
    if (in_frame == 1) {
      frame = proto::EncodeFrame(
          BuildRequest(session, IdHex(cursor++ % programs), next_id++),
          codec);
    } else {
      XmlNode node("batch");
      node.SetAttribute("id", std::to_string(next_id++));
      for (std::size_t k = 0; k < in_frame; ++k) {
        node.AddChild(
            BuildRequest(session, IdHex(cursor++ % programs), next_id++));
      }
      frame = proto::EncodeFrame(node, codec);
    }
    // Server side: decode, serve every member from the snapshot, frame
    // the answer(s) back in the same codec.
    auto decoded = proto::DecodeFrame(frame);
    MustOk(decoded, "decode request frame");
    std::string reply_frame;
    if (decoded->node.name() == "batch") {
      XmlNode reply("batch");
      reply.SetAttribute("id", decoded->node.AttributeOr("id", ""));
      for (const XmlNode& child : decoded->node.children()) {
        reply.AddChild(Serve(fx.server(), child));
      }
      reply_frame = proto::EncodeFrame(reply, decoded->codec);
    } else {
      reply_frame =
          proto::EncodeFrame(Serve(fx.server(), decoded->node),
                             decoded->codec);
    }
    // Client side again: decode the reply.
    auto reply = proto::DecodeFrame(reply_frame);
    MustOk(reply, "decode response frame");
    done += in_frame;
  }
}

Cell RunCell(Fixture& fx, int threads, WireCodec codec, std::size_t batch,
             std::size_t ops_per_thread, unsigned host_cpus) {
  Cell cell;
  cell.threads = threads;
  cell.codec = codec;
  cell.batch = batch;
  cell.speedup_valid = host_cpus >= static_cast<unsigned>(threads);
  WallTimer timer;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(
        [&fx, t, ops_per_thread, codec, batch] {
          Worker(fx, t, ops_per_thread, codec, batch);
        });
  }
  for (std::thread& t : pool) t.join();
  double elapsed = static_cast<double>(timer.ElapsedMicros()) / 1e6;
  double total =
      static_cast<double>(ops_per_thread) * static_cast<double>(threads);
  cell.requests_per_sec = elapsed > 0 ? total / elapsed : 0.0;
  std::printf("  threads=%d codec=%-6s batch=%-2zu  %10.0f req/s%s\n",
              threads, codec == WireCodec::kBinary ? "binary" : "xml", batch,
              cell.requests_per_sec,
              cell.speedup_valid ? "" : "  (threads > cpus)");
  return cell;
}

/// Snapshot answers must be byte-identical to the locked store-walk path,
/// across both codecs and through batch frames.
void SelfCheck(Fixture& fast, Fixture& locked) {
  const std::size_t programs = fast.shape().programs;
  const std::string& session = fast.session(0);
  const std::string& locked_session = locked.session(0);
  std::vector<std::string> unbatched;
  unbatched.reserve(programs);
  for (std::size_t p = 0; p < programs; ++p) {
    SoftwareId id = ProgramMeta(p).id;
    // Locked oracle: the twin walks its stores under the historical path.
    auto oracle = locked.server().QuerySoftware(locked_session, id);
    MustOk(oracle, "oracle query");
    std::string oracle_xml =
        xml::WriteXml(proto::SoftwareInfoToXml(*oracle));
    auto info = fast.server().QuerySoftwareSnapshot(session, id);
    MustOk(info, "snapshot query");
    std::string fast_xml = xml::WriteXml(proto::SoftwareInfoToXml(*info));
    if (fast_xml != oracle_xml) {
      std::fprintf(stderr, "FAIL: snapshot answer diverged at program %zu\n",
                   p);
      std::exit(1);
    }
    // Codec equivalence: the binary frame must decode to the exact tree
    // the XML frame carries.
    XmlNode request = BuildRequest(session, IdHex(p), p + 1);
    auto via_xml = proto::DecodeFrame(
        proto::EncodeFrame(request, WireCodec::kXml));
    auto via_bin = proto::DecodeFrame(
        proto::EncodeFrame(request, WireCodec::kBinary));
    MustOk(via_xml, "decode xml frame");
    MustOk(via_bin, "decode binary frame");
    if (xml::WriteXml(via_xml->node) != xml::WriteXml(via_bin->node)) {
      std::fprintf(stderr, "FAIL: codec round-trips disagree at %zu\n", p);
      std::exit(1);
    }
    unbatched.push_back(xml::WriteXml(
        Serve(fast.server(), via_xml->node)));
  }
  // Batch equivalence: the same queries through one batch frame must
  // produce byte-identical member responses.
  std::size_t checked = 0;
  for (std::size_t base = 0; base < programs; base += 16) {
    XmlNode batch("batch");
    batch.SetAttribute("id", "0");
    std::size_t n =
        base + 16 <= programs ? std::size_t{16} : programs - base;
    for (std::size_t k = 0; k < n; ++k) {
      batch.AddChild(BuildRequest(session, IdHex(base + k),
                                  base + k + 1));
    }
    auto decoded = proto::DecodeFrame(
        proto::EncodeFrame(batch, WireCodec::kBinary));
    MustOk(decoded, "decode batch frame");
    for (const XmlNode& child : decoded->node.children()) {
      std::string reply = xml::WriteXml(Serve(fast.server(), child));
      if (reply != unbatched[checked]) {
        std::fprintf(stderr,
                     "FAIL: batched response %zu differs from unbatched\n",
                     checked);
        std::exit(1);
      }
      ++checked;
    }
  }
  if (checked != programs) {
    std::fprintf(stderr, "FAIL: batch check covered %zu of %zu programs\n",
                 checked, programs);
    std::exit(1);
  }
  std::printf("  self-checks passed over %zu programs "
              "(locked-path, codec, batch equivalence)\n",
              programs);
}

void WriteJson(const std::vector<Cell>& cells, const Shape& shape,
               unsigned host_cpus) {
  const std::string path = ResultPath("BENCH_serving.json", shape.smoke);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"serving\",\n  \"host_cpus\": %u,\n"
               "  \"programs\": %zu,\n  \"ops_per_thread\": %zu,\n"
               "  \"cells\": [\n",
               host_cpus, shape.programs, shape.ops_per_thread);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        out,
        "    {\"threads\": %d, \"codec\": \"%s\", \"batch\": %zu,\n"
        "     \"requests_per_sec\": %.0f, \"speedup_valid\": %s}%s\n",
        c.threads, c.codec == WireCodec::kBinary ? "binary" : "xml",
        c.batch, c.requests_per_sec, c.speedup_valid ? "true" : "false",
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

int Main(bool smoke) {
  Banner("F12: snapshot serving throughput (codec x batch x threads)",
         "DESIGN.md §14 — epoch-snapshot read path");
  Shape shape;
  if (smoke) {
    shape.smoke = true;
    shape.programs = 60;
    shape.users = 20;
    shape.votes_per_user = 10;
    shape.ops_per_thread = 500;
    shape.threads = {1, 2};
  }
  unsigned host_cpus = std::thread::hardware_concurrency();
  if (host_cpus == 0) host_cpus = 1;
  std::printf("  host cpus: %u\n", host_cpus);

  std::printf("  building community: %zu programs, %zu users...\n",
              shape.programs, shape.users);
  Fixture fast(shape, /*snapshot_reads=*/true);
  Fixture locked(shape, /*snapshot_reads=*/false);
  SelfCheck(fast, locked);
  Rule();

  std::vector<Cell> cells;
  for (int threads : shape.threads) {
    for (WireCodec codec : {WireCodec::kXml, WireCodec::kBinary}) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
        cells.push_back(RunCell(fast, threads, codec, batch,
                                shape.ops_per_thread, host_cpus));
      }
    }
  }
  WriteJson(cells, shape, host_cpus);
  Rule();
  std::printf("wrote BENCH_serving.json (%zu cells)\n", cells.size());
  return 0;
}

}  // namespace
}  // namespace pisrep::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return pisrep::bench::Main(smoke);
}
