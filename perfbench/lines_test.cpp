// Unit tests for the response-line parsers (lines.hpp). Plain main(): the
// benchmark package builds without a test framework. Exits non-zero on the
// first failed expectation, naming it.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "lines.hpp"

namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

void TestOk() {
  const std::string line = "OK id=7 us=61234 queue_us=12 n=3 nodes=4,9,11";
  const auto r = perfbench::ParseResponse(line);
  Expect(r.has_value(), "OK line parses");
  if (!r) return;
  Expect(r->kind == perfbench::Response::Kind::kOk, "OK kind");
  Expect(r->id == 7, "OK id");
  Expect(r->us == 61234.0 && r->queue_us == 12.0, "OK timings");
  Expect(r->n == 3 && r->nodes == "4,9,11", "OK node list");
  std::vector<laca::NodeId> nodes;
  Expect(perfbench::ParseNodes(r->nodes, &nodes), "node list splits");
  Expect(nodes == std::vector<laca::NodeId>({4, 9, 11}), "node values");
}

void TestOkMalformed() {
  Expect(!perfbench::ParseResponse("OK id=1 us=5 queue_us=1 n=2 nodes=4"),
         "n= disagreeing with the list is rejected");
  Expect(!perfbench::ParseResponse("OK id=1 us=x queue_us=1 n=1 nodes=4"),
         "non-numeric us is rejected");
  Expect(!perfbench::ParseResponse("OK id=-1 us=5 queue_us=1 n=1 nodes=4"),
         "negative id is rejected");
  Expect(!perfbench::ParseResponse("OK id=1 us=5 n=1 nodes=4"),
         "missing queue_us is rejected");
  Expect(!perfbench::ParseResponse("OK id=1 reload version=2"),
         "reload acknowledgement is not a cluster answer");
  Expect(!perfbench::ParseResponse(""), "empty line is rejected");
  std::vector<laca::NodeId> nodes;
  Expect(!perfbench::ParseNodes("1,,2", &nodes), "empty node id rejected");
  Expect(!perfbench::ParseNodes("1,4294967295", &nodes),
         "out-of-range node id rejected");
}

void TestErr() {
  const auto r = perfbench::ParseResponse(
      "ERR id=12 code=overloaded msg=queue full retry_after_ms=40");
  Expect(r.has_value(), "ERR line parses");
  if (!r) return;
  Expect(r->kind == perfbench::Response::Kind::kErr, "ERR kind");
  Expect(r->id == 12 && r->code == "overloaded", "ERR id and code");
  Expect(!perfbench::ParseResponse("ERR busy retry_after_ms=100"),
         "idless accept-time ERR has no request id");
  Expect(!perfbench::ParseResponse("ERR id=3 msg=x"), "ERR without code");
}

void TestStats() {
  std::string line = "STATS qps=1.5 p50_us=10 p99_us=20";
  for (const std::string& key : perfbench::RequiredStatsKeys()) {
    line += " " + key + "=" + (key == "cache_hits" ? "42" : "0");
  }
  std::string error;
  const auto s = perfbench::ParseStats(line, &error);
  Expect(s.has_value(), "full STATS line parses");
  if (s) Expect(s->at("cache_hits") == 42.0, "STATS value read");

  const std::string missing = "STATS qps=1 admitted=3";
  Expect(!perfbench::ParseStats(missing, &error), "missing token fails");
  Expect(error.find("lacks") != std::string::npos, "missing token named");

  const std::string garbled = line + " admitted=abc";
  Expect(!perfbench::ParseStats(garbled, &error), "non-numeric token fails");
  Expect(!perfbench::ParseStats(line + " novalue", &error),
         "token without '=' fails");
  Expect(!perfbench::ParseStats("HEALTH status=ok", &error),
         "non-STATS line fails");
}

}  // namespace

int main() {
  TestOk();
  TestOkMalformed();
  TestErr();
  TestStats();
  if (g_failures != 0) return EXIT_FAILURE;
  std::printf("lines_test: all expectations passed\n");
  return EXIT_SUCCESS;
}
