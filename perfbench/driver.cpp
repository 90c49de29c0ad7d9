// perfbench_driver — the benchmark's load generator and in-process driver
// (README.md beside this file; perfbench/run.py passes every flag).
//
// Subcommands:
//   gen       --dataset=NAME --out=DIR     generate a registry dataset and
//                                          save it as a TNAM-less snapshot
//   setup     --data=DIR --k=K             LoadSnapshot + Tnam::Build in this
//                                          (fresh) process; prints timings
//   calibrate --data=DIR --seconds=S       fixed serial Laca::Cluster loop
//                                          (host-speed witness)
//   serve     ...                          drive a real laca_serve over
//                                          loopback TCP (serve-* workloads)
//   batch     ...                          in-process BatchCluster workload
//
// Every subcommand prints one JSON object on stdout. Timings come from the
// benchmark's own clock reads around calls into the library's public
// functions; nothing inside the program is instrumented.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attr/tnam.hpp"
#include "common/rng.hpp"
#include "core/batch.hpp"
#include "core/cluster.hpp"
#include "core/laca.hpp"
#include "data/snapshot_io.hpp"
#include "diffusion/diffusion.hpp"
#include "eval/datasets.hpp"
#include "eval/metrics.hpp"
#include "lines.hpp"
#include "server/protocol.hpp"

extern char** environ;

namespace pb {
namespace {

using laca::NodeId;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

// The laca_serve process currently alive, killed by Die() so a failed run
// never leaves a server behind.
pid_t g_server_pid = -1;

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// Progress line on stderr (the JSON result goes to stdout).
void Note(const char* what) {
  std::fprintf(stderr, "perfbench_driver: %.2fs %s\n", Now(), what);
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
  if (g_server_pid > 0) {
    kill(g_server_pid, SIGKILL);
    waitpid(g_server_pid, nullptr, 0);
  }
  std::exit(3);
}

// Settings shared by every workload (per-workload ones arrive as flags).
constexpr double kTailQuantile = 0.95;  // lat_tail_ms: p95, >= 10 beyond
constexpr size_t kBoots = 3;            // timed set-ups, after a warm one
constexpr size_t kCheckSample = 16;     // answers compared with Laca::Cluster
constexpr size_t kRounds = 3;           // open/closed segment pairs
constexpr size_t kClosedConns = 8;      // closed-loop connections

// ---------------------------------------------------------------------------
// Flags: --key=value pairs after the subcommand.

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      const size_t eq = a.find('=');
      if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
        Die("bad flag '" + a + "' (want --key=value)");
      }
      kv_[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
  }
  std::string Str(const std::string& k) const {
    const auto it = kv_.find(k);
    if (it == kv_.end()) Die("missing flag --" + k);
    return it->second;
  }
  double Num(const std::string& k) const {
    const std::optional<double> v = laca::ParseF64(Str(k));
    if (!v) Die("flag --" + k + " is not a number");
    return *v;
  }
  size_t Count(const std::string& k) const {
    const std::optional<uint64_t> v = laca::ParseU64(Str(k));
    if (!v) Die("flag --" + k + " is not a count");
    return static_cast<size_t>(*v);
  }

 private:
  std::map<std::string, std::string> kv_;
};

// ---------------------------------------------------------------------------
// JSON output (flat objects of numbers, strings and nested objects).

class Json {
 public:
  Json& Num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    items_.emplace_back(k, buf);
    return *this;
  }
  Json& Str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        q += ' ';
        continue;
      }
      q += c;
    }
    items_.emplace_back(k, q + "\"");
    return *this;
  }
  Json& Obj(const std::string& k, const Json& v) {
    items_.emplace_back(k, v.Render());
    return *this;
  }
  Json& Array(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.6g", i ? "," : "", v[i]);
      s += buf;
    }
    items_.emplace_back(k, s + "]");
    return *this;
  }
  std::string Render() const {
    std::string s = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      if (i) s += ", ";
      s += "\"" + items_[i].first + "\": " + items_[i].second;
    }
    return s + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

// ---------------------------------------------------------------------------
// Statistics.

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------------------
// /proc readers.

double ProcCpuSeconds(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string s((std::istreambuf_iterator<char>(f)), {});
  const size_t close = s.rfind(')');
  if (close == std::string::npos) Die("cannot read /proc/<pid>/stat");
  std::istringstream in(s.substr(close + 2));
  std::vector<std::string> fields;
  std::string tok;
  while (in >> tok) fields.push_back(tok);
  // Fields after "pid (comm)": state is #3, utime #14, stime #15.
  if (fields.size() < 13) Die("short /proc/<pid>/stat");
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (std::stod(fields[11]) + std::stod(fields[12])) / ticks;
}

// A numeric field of /proc/<pid>/status ("VmHWM" in kB, "Threads", ...).
double ProcStatusField(pid_t pid, const std::string& key) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1));
    }
  }
  Die("no " + key + " in /proc/<pid>/status");
}

double SelfCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

Json Fingerprint() {
  Json j;
  j.Num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  std::ifstream cpu("/proc/cpuinfo");
  std::string line, model = "unknown";
  while (std::getline(cpu, line)) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  utsname u{};
  uname(&u);
  j.Str("cpu_model", model);
  j.Str("kernel", std::string(u.sysname) + " " + u.release);
  j.Str("compiler", PERFBENCH_COMPILER);
  j.Str("cxx_flags", PERFBENCH_CXX_FLAGS);
  j.Str("build_type", PERFBENCH_BUILD_TYPE);
  return j;
}

// ---------------------------------------------------------------------------
// Spans (traced runs): name, start, end, parent, request id; kept in memory
// and written out at the end.

struct Span {
  uint64_t request = 0;
  const char* name = "";
  int64_t parent = -1;  // index into the same span list, -1 = root
  double start = 0.0, end = 0.0;
};

class SpanLog {
 public:
  size_t Open(uint64_t request, const char* name, int64_t parent) {
    spans_.push_back(Span{request, name, parent, Now(), 0.0});
    return spans_.size() - 1;
  }
  void Close(size_t i) { spans_[i].end = Now(); }
  void Append(const SpanLog& other) {
    const int64_t base = static_cast<int64_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }

  // Self time per span name: duration minus the part its children cover
  // (children of one span never overlap here: they run sequentially).
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  void Write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream f(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << "{\"i\": " << i << ", \"request\": " << s.request << ", \"name\": \""
        << s.name << "\", \"parent\": " << s.parent << ", \"start\": "
        << s.start << ", \"end\": " << s.end << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Inputs: the snapshot, distinct seeds, ground truth.

struct Query {
  NodeId seed = 0;
  size_t size = 1;
};

struct Data {
  std::shared_ptr<const laca::DatasetSnapshot> snap;
  std::unique_ptr<laca::Dataset> view;  // SampleSeeds' input type
  double load_s = 0.0;
};

Data LoadData(const std::string& dir) {
  Data d;
  const double t0 = Now();
  d.snap = laca::LoadSnapshot(dir);
  d.load_s = Now() - t0;
  d.view = std::make_unique<laca::Dataset>(
      laca::Dataset{d.snap->name(), d.snap, d.snap->data(), 0.0});
  return d;
}

// `count` distinct seeds from SampleSeeds, in draw order.
std::vector<NodeId> DistinctSeeds(const laca::Dataset& ds, size_t count,
                                  uint64_t rng_seed) {
  std::vector<NodeId> out;
  std::set<NodeId> seen;
  for (uint64_t round = 0; out.size() < count && round < 16; ++round) {
    for (NodeId v : laca::SampleSeeds(ds, count * 2 + 64,
                                      rng_seed * 1000003 + round)) {
      if (out.size() < count && seen.insert(v).second) out.push_back(v);
    }
  }
  if (out.size() < count) Die("dataset has too few distinct seeds");
  return out;
}

laca::LacaOptions LacaOpts(const Flags& f) {
  laca::LacaOptions o;
  o.alpha = f.Num("alpha");
  o.epsilon = f.Num("eps");
  return o;
}

laca::Tnam BuildTnam(const laca::DatasetSnapshot& snap, int k,
                     double* seconds) {
  laca::TnamOptions topts;
  topts.k = k;
  const double t0 = Now();
  laca::Tnam tnam = laca::Tnam::Build(snap.attributes(), topts);
  *seconds = Now() - t0;
  return tnam;
}

// ---------------------------------------------------------------------------
// Answer book: every answer for one request identity must be identical (hits,
// pi'-tier hits and coalesced followers equal the leader); a deterministic
// sample of identities is compared bit for bit with Laca::Cluster.

class AnswerBook {
 public:
  explicit AnswerBook(size_t identities)
      : first_(identities), answered_(identities, 0) {}

  // Returns false when the answer differs from the identity's first one.
  bool Record(uint32_t ident, std::string_view nodes) {
    if (!answered_[ident]) {
      answered_[ident] = 1;
      first_[ident] = std::string(nodes);
      return true;
    }
    if (first_[ident] != nodes) {
      ++mismatches_;
      return false;
    }
    return true;
  }
  bool answered(uint32_t ident) const { return answered_[ident] != 0; }
  const std::string& first(uint32_t ident) const { return first_[ident]; }
  uint64_t mismatches() const { return mismatches_; }

 private:
  std::vector<std::string> first_;
  std::vector<uint8_t> answered_;
  uint64_t mismatches_ = 0;
};

std::string JoinNodes(const std::vector<NodeId>& nodes) {
  std::string s;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(nodes[i]);
  }
  return s;
}

struct CheckResult {
  uint64_t compared = 0;
  uint64_t mismatches = 0;
  std::set<uint32_t> wrong;  // identities whose answer differs
};

// Every k-th element of `ids`, at most `count` of them (deterministic).
std::vector<uint32_t> EveryKth(const std::vector<uint32_t>& ids,
                               size_t count) {
  std::vector<uint32_t> out;
  const size_t stride = std::max<size_t>(1, ids.size() / std::max<size_t>(1, count));
  for (size_t j = 0; j < ids.size() && out.size() < count; j += stride) {
    out.push_back(ids[j]);
  }
  return out;
}

// Compares the recorded answers of `sample` bit for bit against a serial
// in-process Laca::Cluster on the same snapshot.
CheckResult ReferenceCheck(const laca::DatasetSnapshot& snap,
                           const laca::Tnam& tnam,
                           const std::vector<Query>& idents,
                           const AnswerBook& book,
                           const std::vector<uint32_t>& sample,
                           const laca::LacaOptions& opts) {
  CheckResult r;
  laca::Laca solver(snap.graph(), &tnam);
  for (const uint32_t id : sample) {
    const std::vector<NodeId> want =
        solver.Cluster(idents[id].seed, idents[id].size, opts);
    ++r.compared;
    if (JoinNodes(want) != book.first(id)) {
      ++r.mismatches;
      r.wrong.insert(id);
    }
  }
  return r;
}

// |C ∩ Y_s| / |C| (Table V's metric) of one answer, with Y_s kept as a
// membership bitmap per distinct community set. Calling laca::Precision on
// every answer (it hashes Y_s each time) added 12-15 s to a 40 s
// batch-local run of 12800 answers. Every 64th answer is also scored by
// laca::Precision, and the run aborts if the two differ.
class PrecisionOf {
 public:
  explicit PrecisionOf(const laca::DatasetSnapshot& snap) : snap_(snap) {}
  double operator()(NodeId seed, const std::vector<NodeId>& cluster) {
    if (cluster.empty()) return 0.0;
    const laca::Communities& c = snap_.communities();
    auto it = truth_.find(c.node_comms[seed]);
    if (it == truth_.end()) {
      std::vector<uint8_t> member(snap_.graph().num_nodes(), 0);
      for (NodeId v : c.GroundTruthCluster(seed)) member[v] = 1;
      it = truth_.emplace(c.node_comms[seed], std::move(member)).first;
    }
    size_t common = 0;
    for (NodeId v : cluster) common += it->second[v];
    const double p =
        static_cast<double>(common) / static_cast<double>(cluster.size());
    if (calls_++ % 64 == 0 &&
        p != laca::Precision(cluster, c.GroundTruthCluster(seed))) {
      Die("precision disagrees with laca::Precision");
    }
    return p;
  }

 private:
  const laca::DatasetSnapshot& snap_;
  std::map<std::vector<uint32_t>, std::vector<uint8_t>> truth_;
  uint64_t calls_ = 0;
};

// Mean |C ∩ Y_s| / |C| over distinct answered identities.
double MeanPrecision(const laca::DatasetSnapshot& snap,
                     const std::vector<Query>& idents, const AnswerBook& book) {
  PrecisionOf precision(snap);
  std::vector<double> p;
  std::vector<NodeId> nodes;
  for (uint32_t i = 0; i < idents.size(); ++i) {
    if (book.answered(i) && perfbench::ParseNodes(book.first(i), &nodes)) {
      p.push_back(precision(idents[i].seed, nodes));
    }
  }
  return Mean(p);
}

// ---------------------------------------------------------------------------
// In-process replay (traced runs): each request runs the serving path's
// stages as separate public calls under a root span, on `threads` threads
// pulling from one counter (the server's worker split):
//   ParseRequestLine -> DiffusionEngine::Adaptive (Step 1)
//   -> Laca::ComputeBddFromRwr (Steps 2-3) -> TopKCluster/PadWithBfs
//   -> FormatResponse

struct ReplayStats {
  std::vector<double> root_ms, step1_ms, bdd_ms, extract_ms, parse_us,
      format_us, supp_frac, push_work, step3_push;
  std::vector<double> wait_ms;  // replay start -> a thread claims the query
  double padded = 0.0;
  double wall_s = 0.0;
  uint64_t mismatches = 0;  // replayed answers differing from the server's
  uint64_t compared = 0;
};

ReplayStats Replay(const laca::DatasetSnapshot& snap, const laca::Tnam& tnam,
                   const std::vector<Query>& idents,
                   const std::vector<uint32_t>& order, size_t threads,
                   const laca::LacaOptions& opts, const AnswerBook* book,
                   SpanLog* log) {
  const size_t n = order.size();
  struct Row {
    double wait, root, step1, bdd, extract, parse, format, supp, push, push3;
    bool padded;
    std::string answer;
  };
  std::vector<Row> rows(n);
  std::vector<SpanLog> logs(threads);
  std::atomic<size_t> next{0};
  const double n_nodes = static_cast<double>(snap.graph().num_nodes());
  const double w0 = Now();
  auto worker = [&](size_t t) {
    laca::DiffusionWorkspace ws;
    laca::DiffusionEngine engine(snap.graph(), &ws);
    laca::Laca solver(snap.graph(), &tnam, &ws);
    SpanLog& sl = logs[t];
    for (size_t i = next++; i < n; i = next++) {
      const Query q = idents[order[i]];
      Row& row = rows[i];
      const bool tr = log != nullptr;
      const double t0 = Now();
      const size_t root = tr ? sl.Open(i, "replay.request", -1) : 0;
      const auto root_i = static_cast<int64_t>(root);

      size_t s = tr ? sl.Open(i, "protocol.parse", root_i) : 0;
      const std::string line =
          std::to_string(q.seed) + " " + std::to_string(q.size);
      const laca::ParsedLine parsed = laca::ParseRequestLine(line);
      const double t1 = Now();
      if (tr) sl.Close(s);
      if (parsed.kind != laca::ParsedLine::Kind::kRequest) {
        Die("replay: request line failed to parse");
      }

      s = tr ? sl.Open(i, "diffusion.step1", root_i) : 0;
      laca::DiffusionStats st1;
      const laca::SparseVector pi = engine.Adaptive(
          laca::SparseVector::Unit(parsed.request.seed),
          opts.ToDiffusionOptions(), &st1);
      const double t2 = Now();
      if (tr) sl.Close(s);

      s = tr ? sl.Open(i, "core.bdd", root_i) : 0;
      const laca::LacaResult r =
          solver.ComputeBddFromRwr(parsed.request.seed, pi, opts);
      const double t3 = Now();
      if (tr) sl.Close(s);

      s = tr ? sl.Open(i, "core.extract", root_i) : 0;
      laca::ServeResponse resp;
      resp.cluster = laca::TopKCluster(r.bdd, q.seed, q.size);
      row.padded = resp.cluster.size() < q.size;
      if (row.padded) {
        resp.cluster = laca::PadWithBfs(snap.graph(), std::move(resp.cluster),
                                        q.size, q.seed);
      }
      const double t4 = Now();
      if (tr) sl.Close(s);

      s = tr ? sl.Open(i, "protocol.format", root_i) : 0;
      const std::string out = laca::FormatResponse(i + 1, resp);
      const double t5 = Now();
      if (tr) {
        sl.Close(s);
        sl.Close(root);
      }
      row.wait = (t0 - w0) * 1e3;
      row.root = (t5 - t0) * 1e3;
      row.parse = (t1 - t0) * 1e6;
      row.step1 = (t2 - t1) * 1e3;
      row.bdd = (t3 - t2) * 1e3;
      row.extract = (t4 - t3) * 1e3;
      row.format = (t5 - t4) * 1e6;
      row.supp = static_cast<double>(pi.Size()) / n_nodes;
      row.push = static_cast<double>(st1.push_work);
      row.push3 = static_cast<double>(r.bdd_stats.push_work);
      const std::optional<perfbench::Response> parsed_out =
          perfbench::ParseResponse(out);
      if (!parsed_out) Die("replay: FormatResponse output does not parse");
      row.answer = std::string(parsed_out->nodes);
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();
  ReplayStats out;
  out.wall_s = Now() - w0;
  for (size_t i = 0; i < n; ++i) {
    const Row& r = rows[i];
    out.wait_ms.push_back(r.wait);
    out.root_ms.push_back(r.root);
    out.step1_ms.push_back(r.step1);
    out.bdd_ms.push_back(r.bdd);
    out.extract_ms.push_back(r.extract);
    out.parse_us.push_back(r.parse);
    out.format_us.push_back(r.format);
    out.supp_frac.push_back(r.supp);
    out.push_work.push_back(r.push);
    out.step3_push.push_back(r.push3);
    out.padded += r.padded ? 1.0 : 0.0;
    if (book != nullptr && book->answered(order[i])) {
      ++out.compared;
      if (book->first(order[i]) != r.answer) ++out.mismatches;
    }
  }
  out.padded /= static_cast<double>(std::max<size_t>(1, n));
  if (log != nullptr) {
    for (const SpanLog& l : logs) log->Append(l);
  }
  return out;
}

// Replays untraced, then traced; fills the replay-derived per-layer metrics
// and returns the traced replay's figures.
ReplayStats ReplayMetrics(const laca::DatasetSnapshot& snap, const laca::Tnam& tnam,
                   const std::vector<Query>& idents,
                   const std::vector<uint32_t>& order, size_t threads,
                   const laca::LacaOptions& opts, const AnswerBook* book,
                   double tail_q, const std::string& span_path, Json* m,
                   CheckResult* check) {
  const ReplayStats plain =
      Replay(snap, tnam, idents, order, threads, opts, book, nullptr);
  SpanLog log;
  const ReplayStats r =
      Replay(snap, tnam, idents, order, threads, opts, book, &log);
  log.Write(span_path);
  check->compared += plain.compared + r.compared;
  check->mismatches += plain.mismatches + r.mismatches;

  const std::map<std::string, double> self = log.SelfSeconds();
  auto self_of = [&self](const char* k) {
    const auto it = self.find(k);
    return it == self.end() ? 0.0 : it->second;
  };
  const double root_self = self_of("replay.request");
  const double total = root_self + self_of("protocol.parse") +
                       self_of("diffusion.step1") + self_of("core.bdd") +
                       self_of("core.extract") + self_of("protocol.format");
  const double stages = self_of("diffusion.step1") + self_of("core.bdd") +
                        self_of("core.extract");
  m->Num("diffusion.step1_ms.p50", Quantile(r.step1_ms, 0.5));
  m->Num("diffusion.step1_ms.tail", Quantile(r.step1_ms, tail_q));
  m->Num("diffusion.push_work", Mean(r.push_work));
  m->Num("diffusion.supp_frac", Quantile(r.supp_frac, 0.5));
  m->Num("diffusion.ns_per_push",
         Sum(r.step1_ms) * 1e6 / std::max(1.0, Sum(r.push_work)));
  m->Num("core.bdd_ms", Quantile(r.bdd_ms, 0.5));
  m->Num("core.step3_push_work", Mean(r.step3_push));
  m->Num("core.extract_ms", Quantile(r.extract_ms, 0.5));
  m->Num("core.pad_frac", r.padded);
  m->Num("batch.efficiency",
         Sum(r.root_ms) / 1e3 / (static_cast<double>(threads) * r.wall_s));
  m->Num("protocol.parse_us", Quantile(r.parse_us, 0.5));
  m->Num("protocol.format_us", Quantile(r.format_us, 0.5));
  m->Num("replay.total_ms", Quantile(r.root_ms, 0.5));
  m->Num("replay.stage_frac", total > 0.0 ? stages / total : 0.0);
  m->Num("trace.overhead_frac", r.wall_s / plain.wall_s - 1.0);
  return r;
}

// ---------------------------------------------------------------------------
// Child processes.

void CleanEnvironment() {
  // The dataset cache and bench-seed overrides would change what the
  // program under test loads or how much work it does.
  unsetenv("LACA_DATASET_CACHE");
  unsetenv("LACA_BENCH_SEEDS");
}

pid_t Spawn(const std::vector<std::string>& args, int stdout_fd,
            int stderr_fd) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (stdout_fd >= 0) posix_spawn_file_actions_adddup2(&fa, stdout_fd, 1);
  if (stderr_fd >= 0) posix_spawn_file_actions_adddup2(&fa, stderr_fd, 2);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) Die("cannot spawn " + args[0] + ": " + std::strerror(rc));
  return pid;
}

// Runs a child to completion and returns its stdout; dies on failure.
std::string RunCapture(const std::vector<std::string>& args) {
  int p[2];
  if (pipe(p) != 0) Die("pipe failed");
  const pid_t pid = Spawn(args, p[1], -1);
  close(p[1]);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t k = read(p[0], buf, sizeof(buf));
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) break;
    out.append(buf, static_cast<size_t>(k));
  }
  close(p[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("child " + args[1] + " failed");
  }
  return out;
}

// A laca_serve process on an ephemeral loopback port. Boot time runs from
// spawn to the "listening on" line (decode + TNAM build + fleet start).
class Server {
 public:
  Server(const std::vector<std::string>& args, double* boot_seconds) {
    int p[2];
    if (pipe(p) != 0) Die("pipe failed");
    const double t0 = Now();
    pid_ = Spawn(args, -1, p[1]);
    g_server_pid = pid_;
    close(p[1]);
    err_fd_ = p[0];
    std::string buf;
    const std::string marker = "listening on 127.0.0.1:";
    for (;;) {
      char c[512];
      const ssize_t k = read(err_fd_, c, sizeof(c));
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) Die("laca_serve exited during boot:\n" + buf);
      buf.append(c, static_cast<size_t>(k));
      const size_t at = buf.find(marker);
      if (at != std::string::npos && buf.find('\n', at) != std::string::npos) {
        *boot_seconds = Now() - t0;
        port_ = std::atoi(buf.c_str() + at + marker.size());
        break;
      }
    }
    // Keeps the pipe empty so the server never blocks on its stderr.
    drain_ = std::thread([this] {
      char c[512];
      for (;;) {
        const ssize_t k = read(err_fd_, c, sizeof(c));
        if (k < 0 && errno == EINTR) continue;
        if (k <= 0) break;
      }
    });
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { Stop(); }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  // SIGTERM drains and exits; waits for the process and the log reader.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    g_server_pid = -1;
    drain_.join();
    close(err_fd_);
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int err_fd_ = -1;
  std::thread drain_;
};

// ---------------------------------------------------------------------------
// Loopback client.

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die(std::string("connect failed: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

void SendAll(int fd, const std::string& s) {
  size_t off = 0;
  while (off < s.size()) {
    const ssize_t k = write(fd, s.data() + off, s.size() - off);
    if (k < 0 && (errno == EINTR || errno == EAGAIN)) {
      pollfd p{fd, POLLOUT, 0};
      poll(&p, 1, 100);
      continue;
    }
    if (k <= 0) Die("write to laca_serve failed");
    off += static_cast<size_t>(k);
  }
}

// Blocking single line exchange on a control connection (STATS).
std::string Exchange(int fd, const std::string& line) {
  SendAll(fd, line + "\n");
  std::string buf;
  char c[4096];
  const double deadline = Now() + 30.0;
  while (buf.find('\n') == std::string::npos) {
    if (Now() > deadline) Die("no reply to '" + line + "'");
    pollfd p{fd, POLLIN, 0};
    poll(&p, 1, 100);
    const ssize_t k = read(fd, c, sizeof(c));
    if (k == 0) Die("laca_serve closed the control connection");
    if (k > 0) buf.append(c, static_cast<size_t>(k));
  }
  return buf.substr(0, buf.find('\n'));
}

using Stats = std::map<std::string, double>;

Stats ReadStats(int control_fd) {
  std::string err;
  const std::string line = Exchange(control_fd, "stats");
  const std::optional<Stats> s = perfbench::ParseStats(line, &err);
  if (!s) Die("STATS: " + err + " in: " + line);  // never report a 0
  return *s;
}

struct Outcome {
  double due = 0.0, sent = 0.0, recv = -1.0;
  bool ok = false, err = false, wrong = false;
  double us = 0.0, queue_us = 0.0;
};

struct Phase {
  std::vector<Outcome> out;
  double wall_s = 0.0;
  double self_cpu_s = 0.0;
  double server_cpu_s = 0.0;
};

// Sends `reqs` (identity indices) over `conns` persistent connections.
// With `due` set, an open loop: request i goes out at due[i] (seconds from
// the phase start) on connection i % conns, pipelined behind whatever that
// connection still has in flight, as a multiplexing front end would send
// it. Without `due`, a closed loop: each connection sends its next request
// when the previous answer arrives.
Phase RunPhase(int port, pid_t server_pid, const std::vector<Query>& idents,
               const std::vector<uint32_t>& reqs,
               const std::vector<double>* due, size_t conns,
               AnswerBook* book) {
  struct Conn {
    int fd;
    std::deque<size_t> inflight;  // request indices, in send order
    uint64_t ids = 0;             // response ids issued on this connection
    std::string buf;
  };
  std::vector<Conn> pool;
  for (size_t i = 0; i < conns; ++i) pool.push_back(Conn{Connect(port)});
  Phase ph;
  ph.out.resize(reqs.size());
  size_t next = 0, done = 0;
  const double t0 = Now();
  auto send = [&](size_t c, size_t r) {
    const Query& q = idents[reqs[r]];
    pool[c].inflight.push_back(r);
    ph.out[r].sent = Now() - t0;
    if (due == nullptr) ph.out[r].due = ph.out[r].sent;
    SendAll(pool[c].fd,
            std::to_string(q.seed) + " " + std::to_string(q.size) + "\n");
  };
  const double cpu0 = SelfCpuSeconds();
  const double srv0 = ProcCpuSeconds(server_pid);
  if (due == nullptr) {
    for (size_t c = 0; c < pool.size() && next < reqs.size(); ++c) {
      send(c, next++);
    }
  }
  // A request unanswered for this long counts as lost: it fails the run
  // instead of hanging it.
  const double give_up = 120.0;
  double last_event = 0.0;
  std::vector<pollfd> pfds;
  std::vector<size_t> pidx;
  char rbuf[65536];
  while (done < reqs.size()) {
    double now = Now() - t0;
    if (due != nullptr) {
      while (next < reqs.size() && (*due)[next] <= now) {
        ph.out[next].due = (*due)[next];
        send(next % pool.size(), next);
        ++next;
        now = Now() - t0;
        last_event = now;
      }
    }
    if (now - last_event > give_up) break;
    pfds.clear();
    pidx.clear();
    for (size_t c = 0; c < pool.size(); ++c) {
      if (!pool[c].inflight.empty()) {
        pfds.push_back(pollfd{pool[c].fd, POLLIN, 0});
        pidx.push_back(c);
      }
    }
    double wait_s = 0.05;
    if (due != nullptr && next < reqs.size()) {
      wait_s = std::max(0.0, (*due)[next] - now);
    }
    timespec ts{static_cast<time_t>(wait_s),
                static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    const int pr = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (pr <= 0) continue;
    for (size_t k = 0; k < pfds.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& cn = pool[pidx[k]];
      const ssize_t got = read(cn.fd, rbuf, sizeof(rbuf));
      if (got == 0) Die("laca_serve closed a client connection");
      if (got < 0) continue;
      cn.buf.append(rbuf, static_cast<size_t>(got));
      const double recv = Now() - t0;
      last_event = recv;
      size_t nl;
      while ((nl = cn.buf.find('\n')) != std::string::npos) {
        const std::string line = cn.buf.substr(0, nl);
        cn.buf.erase(0, nl + 1);
        if (cn.inflight.empty()) Die("unsolicited response: " + line);
        const size_t r = cn.inflight.front();
        cn.inflight.pop_front();
        Outcome& o = ph.out[r];
        o.recv = recv;
        const std::optional<perfbench::Response> resp =
            perfbench::ParseResponse(line);
        if (!resp) Die("unparseable response: " + line.substr(0, 120));
        if (resp->id != ++cn.ids) Die("response out of order: " + line);
        if (resp->kind == perfbench::Response::Kind::kOk) {
          o.ok = true;
          o.us = resp->us;
          o.queue_us = resp->queue_us;
          o.wrong = !book->Record(reqs[r], resp->nodes);
        } else {
          o.err = true;
        }
        ++done;
        if (due == nullptr && next < reqs.size()) send(pidx[k], next++);
      }
    }
  }
  ph.wall_s = Now() - t0;
  ph.self_cpu_s = SelfCpuSeconds() - cpu0;
  ph.server_cpu_s = ProcCpuSeconds(server_pid) - srv0;
  for (Conn& c : pool) close(c.fd);
  return ph;
}

// ---------------------------------------------------------------------------
// Subcommands.

int CmdGen(const Flags& f) {
  const laca::Dataset& ds = laca::GetDataset(f.Str("dataset"));
  laca::SaveSnapshot(*ds.snapshot, f.Str("out"));
  std::printf("%s\n", Json()
                          .Str("dataset", ds.name)
                          .Num("n", ds.num_nodes())
                          .Num("m", static_cast<double>(ds.num_edges()))
                          .Render()
                          .c_str());
  return 0;
}

int CmdSetup(const Flags& f) {
  const Data d = LoadData(f.Str("data"));
  double tnam_s = 0.0;
  BuildTnam(*d.snap, static_cast<int>(f.Count("k")), &tnam_s);
  std::printf("%s\n",
              Json().Num("load_s", d.load_s).Num("tnam_s", tnam_s).Render().c_str());
  return 0;
}

int CmdCalibrate(const Flags& f) {
  const Data d = LoadData(f.Str("data"));
  double tnam_s = 0.0;
  const laca::Tnam tnam = BuildTnam(*d.snap, 32, &tnam_s);
  const std::vector<NodeId> seeds = DistinctSeeds(*d.view, 8, 7);
  laca::Laca solver(d.snap->graph(), &tnam);
  laca::LacaOptions opts;
  const double seconds = f.Num("seconds");
  size_t queries = 0;
  const double cpu0 = SelfCpuSeconds();
  const double t0 = Now();
  while (Now() - t0 < seconds) {
    for (NodeId s : seeds) {
      solver.Cluster(s, d.snap->communities().GroundTruthCluster(s).size(),
                     opts);
      ++queries;
    }
  }
  const double wall = Now() - t0;
  std::printf("%s\n", Json()
                          .Num("qps", static_cast<double>(queries) / wall)
                          .Num("cpu_ms_per_query", (SelfCpuSeconds() - cpu0) *
                                                       1e3 / queries)
                          .Render()
                          .c_str());
  return 0;
}

std::vector<Query> MakeIdents(const laca::DatasetSnapshot& snap,
                              const std::vector<NodeId>& seeds,
                              const std::vector<double>& size_factors) {
  std::vector<Query> out;
  for (NodeId s : seeds) {
    const size_t y = snap.communities().GroundTruthCluster(s).size();
    for (double fct : size_factors) {
      out.push_back(Query{s, std::max<size_t>(
                                 1, static_cast<size_t>(std::ceil(y * fct)))});
    }
  }
  return out;
}

// A Zipf(s) stream over `seeds` seed ranks, each draw paired with one of
// `variants` size variants: identity = seed_index * variants + variant.
// Ranks map to seed indices through a seeded permutation. The draws are a
// low-discrepancy (golden-ratio) sequence through the Zipf CDF rather than
// independent uniforms, so each rank's share of the stream is nearly exact
// and the hit/miss mix barely depends on the seed; the seed still picks the
// popular nodes and the sequence's phase.
std::vector<uint32_t> ZipfStream(size_t seeds, size_t variants, double s,
                                 size_t length, laca::Rng* rng) {
  std::vector<double> cdf(seeds);
  double acc = 0.0;
  for (size_t r = 0; r < seeds; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = acc;
  }
  std::vector<uint32_t> perm(seeds);
  for (uint32_t i = 0; i < seeds; ++i) perm[i] = i;
  for (size_t i = seeds; i-- > 1;) {
    std::swap(perm[i], perm[rng->UniformInt(i + 1)]);
  }
  const double rank_phase = rng->Uniform();
  const double variant_phase = rng->Uniform();
  std::vector<uint32_t> out(length);
  for (size_t i = 0; i < length; ++i) {
    const double di = static_cast<double>(i);
    const double u = std::fmod(rank_phase + di * 0.6180339887498949, 1.0);
    const double v = std::fmod(variant_phase + di * 0.4142135623730950, 1.0);
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u * acc) - cdf.begin());
    out[i] = static_cast<uint32_t>(
        perm[std::min(r, seeds - 1)] * variants +
        std::min(variants - 1, static_cast<size_t>(v * variants)));
  }
  return out;
}

// One timed stretch of traffic: an open-loop segment (due times relative to
// the segment start) or a closed-loop segment of `count` requests.
struct Segment {
  bool open = false;
  std::vector<double> due;
  size_t count = 0;
  std::vector<uint32_t> reqs;
};

struct StatsDelta {
  Stats a, b;
  double d(const std::string& k) const { return b.at(k) - a.at(k); }
};

// admitted == completed once the phase is quiescent; nothing in flight.
bool StatsQuiescent(const Stats& s) {
  return s.at("admitted") == s.at("completed") && s.at("queue") == 0 &&
         s.at("in_flight") == 0;
}

double LateMs(const Phase& ph, double q) {
  std::vector<double> late;
  for (const Outcome& o : ph.out) late.push_back((o.sent - o.due) * 1e3);
  return Quantile(late, q);
}

int CmdServe(const Flags& f) {
  const uint64_t seed = f.Count("seed");
  const bool zipf = f.Str("traffic") == "zipf";
  const size_t threads = f.Count("threads");
  const int k = static_cast<int>(f.Count("k"));
  const laca::LacaOptions opts = LacaOpts(f);
  const double tail_q = kTailQuantile;
  const double limit_ms = f.Num("limit-ms");
  const Data d = LoadData(f.Str("data"));
  const std::string serve_bin = PERFBENCH_SERVE_BIN;

  // --- inputs (from --seed only) ---
  laca::Rng rng(seed * 7919 + 17);
  const double rate = f.Num("rate");
  const double open_s = f.Num("open-seconds");
  std::vector<double> due;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate;  // Poisson arrivals
    if (t >= open_s) break;
    due.push_back(t);
  }
  const size_t n_closed = f.Count("closed-requests");
  const size_t warm_n = f.Count("warmup-requests");
  // The timed traffic alternates kRounds open-loop and closed-loop
  // segments, so each phase's measurements spread over the whole run
  // instead of one contiguous stretch of a drifting host.
  std::vector<Segment> segs;
  for (size_t j = 0; j < kRounds; ++j) {
    Segment o{true}, c{false};
    const double lo = open_s * static_cast<double>(j) / kRounds;
    const double hi = open_s * static_cast<double>(j + 1) / kRounds;
    for (double t : due) {
      if (t >= lo && t < hi) o.due.push_back(t - lo);
    }
    c.count = n_closed * (j + 1) / kRounds - n_closed * j / kRounds;
    segs.push_back(std::move(o));
    segs.push_back(std::move(c));
  }
  size_t timed_n = 0;
  for (Segment& sg : segs) timed_n += sg.open ? sg.due.size() : sg.count;
  // Requests are drawn in consumption order: warm-up, then each segment.
  std::vector<Query> idents;
  std::vector<uint32_t> order;  // identity per request, consumption order
  if (zipf) {
    const std::vector<double> factors = {1.0, 0.5, 0.25};
    idents = MakeIdents(*d.snap, DistinctSeeds(*d.view, f.Count("pool"), seed),
                        factors);
    order = ZipfStream(idents.size() / factors.size(), factors.size(),
                       f.Num("zipf-s"), warm_n + timed_n, &rng);
  } else {
    idents = MakeIdents(
        *d.snap, DistinctSeeds(*d.view, warm_n + timed_n, seed), {1.0});
    for (uint32_t i = 0; i < idents.size(); ++i) order.push_back(i);
  }
  const std::vector<uint32_t> warm(order.begin(), order.begin() + warm_n);
  size_t at = warm_n;
  std::vector<uint32_t> open, closed;  // identities in outcome order
  for (Segment& sg : segs) {
    const size_t n = sg.open ? sg.due.size() : sg.count;
    sg.reqs.assign(order.begin() + at, order.begin() + at + n);
    at += n;
    std::vector<uint32_t>& dst = sg.open ? open : closed;
    dst.insert(dst.end(), sg.reqs.begin(), sg.reqs.end());
  }

  // --- set-up: one untimed warm boot, then the median of timed boots; the
  // last boot's process serves the workload ---
  const std::vector<std::string> args = {
      serve_bin,
      "--snapshot-dir=" + f.Str("data"),
      "--port=0",
      "--threads=" + std::to_string(threads),
      "--workers=" + std::to_string(threads),
      "--k=" + std::to_string(k),
      "--alpha=" + f.Str("alpha"),
      "--eps=" + f.Str("eps"),
      "--cache=" + f.Str("cache"),
      "--cache-bytes=" + f.Str("cache-bytes"),
      "--queue=1024",
      "--default-timeout=0",
      "--stats-every=0"};
  std::vector<double> boots;
  std::unique_ptr<Server> server;
  for (size_t b = 0; b <= kBoots; ++b) {
    server.reset();
    double boot_s = 0.0;
    server = std::make_unique<Server>(args, &boot_s);
    if (b > 0) boots.push_back(boot_s);
  }
  const int control = Connect(server->port());
  AnswerBook book(idents.size());
  Note("server booted");

  // --- warm-up (untimed): serve-cold warms the workers; serve-zipf replays
  // the stream prefix so the timed phases start from a warm cache. The
  // prefix length is fixed (chosen where the per-chunk hit share has
  // levelled); each chunk's hit share goes into the record ---
  const size_t conns = kClosedConns;
  Stats s_prev = ReadStats(control);
  const size_t chunk = f.Count("warmup-chunk");
  std::vector<double> warm_hits;
  for (size_t at = 0; at < warm.size(); at += chunk) {
    const std::vector<uint32_t> part(
        warm.begin() + at, warm.begin() + std::min(warm.size(), at + chunk));
    RunPhase(server->port(), server->pid(), idents, part, nullptr, conns,
             &book);
    const Stats s = ReadStats(control);
    warm_hits.push_back((s.at("cache_hits") - s_prev.at("cache_hits")) /
                        static_cast<double>(part.size()));
    s_prev = s;
  }
  const Stats s0 = ReadStats(control);
  Note("warm-up done");

  // --- timed segments; STATS after each: quiescent, allocation-flat ---
  Phase po, pc;
  bool invariants = true;
  double hits_open = 0.0, hits_closed = 0.0;
  Stats s_last = s0;
  for (const Segment& sg : segs) {
    const Phase ph =
        RunPhase(server->port(), server->pid(), idents, sg.reqs,
                 sg.open ? &sg.due : nullptr,
                 sg.open ? f.Count("open-conns") : conns, &book);
    const Stats s = ReadStats(control);
    invariants = invariants && StatsQuiescent(s) &&
                 s.at("alloc_events") == s0.at("alloc_events");
    (sg.open ? hits_open : hits_closed) +=
        s.at("cache_hits") - s_last.at("cache_hits");
    s_last = s;
    Phase& acc = sg.open ? po : pc;
    acc.out.insert(acc.out.end(), ph.out.begin(), ph.out.end());
    acc.wall_s += ph.wall_s;
    acc.self_cpu_s += ph.self_cpu_s;
    acc.server_cpu_s += ph.server_cpu_s;
  }
  const Stats s2 = s_last;
  const double peak_rss_mb = ProcStatusField(server->pid(), "VmHWM") / 1024.0;
  const double server_threads = ProcStatusField(server->pid(), "Threads");
  close(control);
  server->Stop();
  Note("timed segments done, server stopped");

  // --- checks (after the server's memory was read) ---
  double tnam_s = 0.0;
  const laca::Tnam tnam = BuildTnam(*d.snap, k, &tnam_s);
  std::vector<uint32_t> answered;
  for (uint32_t i = 0; i < idents.size(); ++i) {
    if (book.answered(i)) answered.push_back(i);
  }
  CheckResult check =
      ReferenceCheck(*d.snap, tnam, idents, book,
                     EveryKth(answered, kCheckSample), opts);
  Note("checks done");
  uint64_t attempted = 0, failed = 0, errs = 0, lost = 0, wrong = 0;
  std::vector<double> lat_ms, wait_ms, queue_ms, service_ms, open_lat_all;
  uint64_t good = 0;
  for (const Phase* ph : {&po, &pc}) {
    const std::vector<uint32_t>& ids = ph == &po ? open : closed;
    for (size_t i = 0; i < ph->out.size(); ++i) {
      const Outcome& o = ph->out[i];
      ++attempted;
      const bool bad_answer = o.ok && (o.wrong || check.wrong.count(ids[i]));
      if (o.recv < 0.0) ++lost;
      else if (o.err) ++errs;
      else if (bad_answer) ++wrong;
      if (ph != &po) continue;
      const double lat = (o.recv - o.due) * 1e3;
      if (o.recv >= 0.0) open_lat_all.push_back(lat);
      if (!o.ok) continue;
      lat_ms.push_back(lat);
      if (lat <= limit_ms && !bad_answer) ++good;
      wait_ms.push_back((o.recv - o.sent) * 1e3 - o.us / 1e3);
      if (o.us >= 1000.0) {  // reached a worker (a full-tier hit takes µs)
        queue_ms.push_back(o.queue_us / 1e3);
        service_ms.push_back((o.us - o.queue_us) / 1e3);
      }
    }
  }
  failed = errs + lost + wrong;
  uint64_t closed_ok = 0;
  for (const Outcome& o : pc.out) closed_ok += o.ok ? 1 : 0;

  const StatsDelta dt{s0, s2};
  const double timed = static_cast<double>(open.size() + closed.size());

  Json e2e;
  e2e.Num("setup_s", Quantile(boots, 0.5));
  e2e.Num("lat_p50_ms", Quantile(lat_ms, 0.5));
  e2e.Num("lat_tail_ms", Quantile(lat_ms, tail_q));
  e2e.Num("goodput_frac", static_cast<double>(good) / due.size());
  e2e.Num("sat_qps", static_cast<double>(closed_ok) / pc.wall_s);
  e2e.Num("cpu_ms_per_req",
          pc.server_cpu_s * 1e3 / std::max<double>(1.0, closed_ok));
  e2e.Num("ok_frac", 1.0 - static_cast<double>(failed) / attempted);
  e2e.Num("precision", MeanPrecision(*d.snap, idents, book));
  e2e.Num("peak_rss_mb", peak_rss_mb);

  Json layer;
  if (f.Count("trace") != 0) {
    std::vector<uint32_t> order;
    std::set<uint32_t> seen;
    for (uint32_t id : open) {
      if (order.size() < f.Count("replay-requests") && seen.insert(id).second) {
        order.push_back(id);
      }
    }
    ReplayMetrics(*d.snap, tnam, idents, order, threads, opts, &book, tail_q,
                  f.Str("spans"), &layer, &check);
    layer.Num("attr.tnam_build_ms", tnam_s * 1e3);
    layer.Num("data.load_ms", d.load_s * 1e3);
    layer.Num("serving_engine.queue_ms.p50", Quantile(queue_ms, 0.5));
    layer.Num("serving_engine.queue_ms.tail", Quantile(queue_ms, tail_q));
    layer.Num("serving_engine.service_ms.p50", Quantile(service_ms, 0.5));
    layer.Num("serving_engine.alloc_events_delta", dt.d("alloc_events"));
    layer.Num("serving_engine.shed", dt.d("shed"));
    layer.Num("serving_engine.cancelled", dt.d("cancelled"));
    layer.Num("result_cache.hit_frac", dt.d("cache_hits") / timed);
    layer.Num("result_cache.pi_hit_frac", dt.d("cache_pi_hits") / timed);
    layer.Num("result_cache.coalesced_frac", dt.d("coalesced") / timed);
    layer.Num("result_cache.evictions", dt.d("cache_evictions"));
    layer.Num("result_cache.bytes", s2.at("cache_bytes"));
    layer.Num("session.wait_ms.p50", Quantile(wait_ms, 0.5));
    layer.Num("session.wait_ms.tail", Quantile(wait_ms, tail_q));
    layer.Num("laca_serve.cpu_busy_frac",
              pc.server_cpu_s / (pc.wall_s * static_cast<double>(threads)));
    layer.Num("laca_serve.threads", server_threads);
    layer.Num("loadgen.late_p99_ms", LateMs(po, 0.99));
    layer.Num("loadgen.cpu_frac",
              (po.self_cpu_s + pc.self_cpu_s) / (po.wall_s + pc.wall_s));
  }
  layer.Num("check.compared", static_cast<double>(check.compared));
  layer.Num("check.mismatches",
            static_cast<double>(check.mismatches + book.mismatches()));

  Json rec;
  rec.Num("attempted", static_cast<double>(attempted));
  rec.Num("failed", static_cast<double>(failed));
  rec.Num("errors", static_cast<double>(errs));
  rec.Num("lost", static_cast<double>(lost));
  rec.Num("wrong", static_cast<double>(wrong));
  rec.Num("stats_invariants_hold", invariants ? 1 : 0);
  rec.Num("alloc_events", s2.at("alloc_events"));
  rec.Num("warmup_requests", static_cast<double>(warm.size()));
  rec.Array("warmup_chunk_hit_frac", warm_hits);
  rec.Num("open_requests", static_cast<double>(due.size()));
  rec.Num("open_rate_qps", rate);
  rec.Num("open_wall_s", po.wall_s);
  rec.Num("open_conns", static_cast<double>(f.Count("open-conns")));
  rec.Num("closed_requests", static_cast<double>(closed.size()));
  rec.Num("closed_wall_s", pc.wall_s);
  rec.Num("tail_pct", tail_q * 100.0);
  rec.Num("tail_samples", static_cast<double>(lat_ms.size()));
  rec.Num("tail_samples_beyond",
          std::floor(static_cast<double>(lat_ms.size()) * (1.0 - tail_q)));
  rec.Num("rounds", static_cast<double>(kRounds));
  rec.Num("hit_frac_open",
          hits_open / static_cast<double>(std::max<size_t>(1, open.size())));
  rec.Num("hit_frac_closed",
          hits_closed / static_cast<double>(std::max<size_t>(1, closed.size())));
  rec.Num("late_p99_ms", LateMs(po, 0.99));
  rec.Array("boots_s", boots);
  rec.Obj("fingerprint", Fingerprint());

  Json out;
  out.Num("correct", failed == 0 && invariants && check.mismatches == 0 &&
                             book.mismatches() == 0
                         ? 1
                         : 0);
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Obj("end_to_end", e2e);
  out.Obj("per_layer", layer);
  out.Obj("record", rec);
  out.Array("latencies_ms", open_lat_all);
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

int CmdBatch(const Flags& f) {
  const uint64_t seed = f.Count("seed");
  const size_t threads = f.Count("threads");
  const int k = static_cast<int>(f.Count("k"));
  const laca::LacaOptions opts = LacaOpts(f);
  const double tail_q = kTailQuantile;
  const double limit_ms = f.Num("limit-ms");

  // --- set-up: LoadSnapshot + Tnam::Build in fresh processes. One untimed
  // warm run first; this process (which never generated data) is the last
  // of the kBoots timed samples; set-up time is their median ---
  std::vector<double> setups;
  const std::vector<std::string> setup_args = {
      "/proc/self/exe", "setup", "--data=" + f.Str("data"),
      "--k=" + std::to_string(k)};
  for (size_t b = 0; b < kBoots; ++b) {
    const std::string j = RunCapture(setup_args);
    double load = 0.0, tnam = 0.0;
    if (std::sscanf(j.c_str(), "{\"load_s\": %lf, \"tnam_s\": %lf", &load,
                    &tnam) != 2) {
      Die("bad setup output: " + j);
    }
    if (b > 0) setups.push_back(load + tnam);
  }
  Note("set-up processes done");
  const Data d = LoadData(f.Str("data"));
  double tnam_s = 0.0;
  const laca::Tnam tnam = BuildTnam(*d.snap, k, &tnam_s);
  setups.push_back(d.load_s + tnam_s);
  Note("snapshot loaded, TNAM built");
  const size_t bsize = f.Count("batch-size");
  const size_t nbatches = f.Count("batches");
  const std::vector<Query> idents = MakeIdents(
      *d.snap, DistinctSeeds(*d.view, bsize * (nbatches + 1), seed), {1.0});
  laca::BatchClusterOptions bopts;
  bopts.laca = opts;
  bopts.num_threads = threads;
  auto batch_of = [&](size_t b) {
    std::vector<laca::BatchQuery> q;
    for (size_t i = b * bsize; i < (b + 1) * bsize; ++i) {
      q.push_back(laca::BatchQuery{idents[i].seed, idents[i].size});
    }
    return q;
  };
  AnswerBook book(idents.size());
  uint64_t errs = 0;
  // Untimed warm-up batch (the last block of seeds, never timed).
  laca::BatchCluster(d.snap->graph(), &tnam, batch_of(nbatches), bopts);

  // Each answer is scored right after its batch, outside the call's timer,
  // and dropped unless a check compares it, so the harness's memory does
  // not grow with the run and peak_rss_mb stays the workload's.
  const uint64_t attempted = bsize * nbatches;
  std::vector<uint32_t> all(attempted);
  for (uint32_t i = 0; i < attempted; ++i) all[i] = i;
  const std::vector<uint32_t> sample = EveryKth(all, kCheckSample);
  const size_t replay_n =
      std::min<size_t>(f.Count("replay-requests"), attempted);
  PrecisionOf precision(*d.snap);
  std::vector<double> precisions;
  // Only batches whose call returned feed the latency, goodput and
  // throughput figures: a failed batch counts as a goodput miss and its
  // (short) time stays out of lat_ms and of sat_qps's wall.
  std::vector<double> lat_ms;
  std::vector<double> gap_ms;  // previous call's return -> this call
  double wall = 0.0, cpu = 0.0, prev_end = -1.0;
  for (size_t b = 0; b < nbatches; ++b) {
    const std::vector<laca::BatchQuery> q = batch_of(b);
    std::vector<std::vector<NodeId>> answers;
    bool failed_call = false;
    const double c0 = SelfCpuSeconds();
    const double b0 = Now();
    if (prev_end >= 0.0) gap_ms.push_back((b0 - prev_end) * 1e3);
    try {
      answers = laca::BatchCluster(d.snap->graph(), &tnam, q, bopts);
    } catch (const std::exception&) {
      errs += bsize;
      failed_call = true;
    }
    prev_end = Now();
    const double dt = prev_end - b0;
    cpu += SelfCpuSeconds() - c0;
    if (failed_call) continue;
    wall += dt;
    lat_ms.push_back(dt * 1e3);
    for (size_t j = 0; j < answers.size(); ++j) {
      const auto i = static_cast<uint32_t>(b * bsize + j);
      precisions.push_back(precision(idents[i].seed, answers[j]));
      if (i < replay_n || std::binary_search(sample.begin(), sample.end(), i)) {
        book.Record(i, JoinNodes(answers[j]));
      }
    }
  }
  Note("batches done");
  const double peak_rss_mb = ProcStatusField(getpid(), "VmHWM") / 1024.0;

  // --- checks (after peak memory was read) ---
  CheckResult check =
      ReferenceCheck(*d.snap, tnam, idents, book, sample, opts);
  const uint64_t wrong = check.wrong.size();
  Note("checks done");
  const uint64_t failed = errs + wrong;
  uint64_t good = 0;
  for (double l : lat_ms) good += l <= limit_ms ? 1 : 0;

  Json e2e;
  e2e.Num("setup_s", Quantile(setups, 0.5));
  e2e.Num("lat_p50_ms", Quantile(lat_ms, 0.5));
  e2e.Num("lat_tail_ms", Quantile(lat_ms, tail_q));
  e2e.Num("goodput_frac", static_cast<double>(good) / nbatches);
  e2e.Num("sat_qps",
          wall > 0.0 ? static_cast<double>(attempted - errs) / wall : 0.0);
  e2e.Num("cpu_ms_per_req", cpu * 1e3 / attempted);
  e2e.Num("ok_frac", 1.0 - static_cast<double>(failed) / attempted);
  e2e.Num("precision", Mean(precisions));
  e2e.Num("peak_rss_mb", peak_rss_mb);

  Json layer;
  if (f.Count("trace") != 0) {
    const std::vector<uint32_t> order(all.begin(), all.begin() + replay_n);
    const ReplayStats r =
        ReplayMetrics(*d.snap, tnam, idents, order, threads, opts, &book,
                      tail_q, f.Str("spans"), &layer, &check);
    layer.Num("attr.tnam_build_ms", tnam_s * 1e3);
    layer.Num("data.load_ms", d.load_s * 1e3);
    // No server runs here. The admission-queue metrics take the replay's
    // shared work counter (BatchCluster's dynamic schedule) instead: wait
    // until a thread claims a query, and its service time. The generator's
    // lateness is the gap between one call's return and the next call.
    layer.Num("serving_engine.queue_ms.p50", Quantile(r.wait_ms, 0.5));
    layer.Num("serving_engine.queue_ms.tail", Quantile(r.wait_ms, tail_q));
    layer.Num("serving_engine.service_ms.p50", Quantile(r.root_ms, 0.5));
    layer.Num("loadgen.late_p99_ms", Quantile(gap_ms, 0.99));
    for (const char* key :
         {"serving_engine.alloc_events_delta", "serving_engine.shed",
          "serving_engine.cancelled", "result_cache.hit_frac",
          "result_cache.pi_hit_frac", "result_cache.coalesced_frac",
          "result_cache.evictions", "result_cache.bytes",
          "session.wait_ms.p50", "session.wait_ms.tail",
          "laca_serve.cpu_busy_frac", "laca_serve.threads"}) {
      layer.Num(key, 0.0);
    }
    layer.Num("loadgen.cpu_frac",
              wall > 0.0 ? cpu / (wall * static_cast<double>(threads)) : 0.0);
  }
  layer.Num("check.compared", static_cast<double>(check.compared));
  layer.Num("check.mismatches",
            static_cast<double>(check.mismatches + book.mismatches()));

  Json rec;
  rec.Num("attempted", static_cast<double>(attempted));
  rec.Num("failed", static_cast<double>(failed));
  rec.Num("batches", static_cast<double>(nbatches));
  rec.Num("batch_size", static_cast<double>(bsize));
  rec.Num("wall_s", wall);
  rec.Num("tail_pct", tail_q * 100.0);
  rec.Num("tail_samples", static_cast<double>(lat_ms.size()));
  rec.Num("tail_samples_beyond",
          std::floor(static_cast<double>(lat_ms.size()) * (1.0 - tail_q)));
  rec.Array("setups_s", setups);
  rec.Obj("fingerprint", Fingerprint());

  Json out;
  out.Num("correct",
          failed == 0 && check.mismatches == 0 && book.mismatches() == 0 ? 1
                                                                          : 0);
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Obj("end_to_end", e2e);
  out.Obj("per_layer", layer);
  out.Obj("record", rec);
  out.Array("latencies_ms", lat_ms);
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench_driver: built as '%s'; only a Release build may "
                 "be measured\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s gen|setup|calibrate|serve|batch --key=value...\n",
                 argv[0]);
    return 2;
  }
  pb::CleanEnvironment();
  prctl(PR_SET_TIMERSLACK, 1UL);  // sub-millisecond open-loop send schedule
  signal(SIGPIPE, SIG_IGN);
  const std::string cmd = argv[1];
  const pb::Flags flags(argc, argv);
  try {
    if (cmd == "gen") return pb::CmdGen(flags);
    if (cmd == "setup") return pb::CmdSetup(flags);
    if (cmd == "calibrate") return pb::CmdCalibrate(flags);
    if (cmd == "serve") return pb::CmdServe(flags);
    if (cmd == "batch") return pb::CmdBatch(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 3;
  }
  std::fprintf(stderr, "perfbench_driver: unknown subcommand '%s'\n",
               cmd.c_str());
  return 2;
}
