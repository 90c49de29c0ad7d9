// Parsers for the laca_serve response lines the benchmark reads:
//
//   OK id=<id> us=<total> queue_us=<queued> n=<count> nodes=v1,v2,...
//   ERR id=<id> code=<code> msg=<reason> [retry_after_ms=<hint>]
//   STATS key=value key=value ...
//
// (grammar: src/server/protocol.hpp). Every numeric token goes through the
// repository's strict whole-token parsers, so a garbled line is reported as
// malformed instead of being read as zeros.
#ifndef PERFBENCH_LINES_HPP_
#define PERFBENCH_LINES_HPP_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hpp"
#include "common/types.hpp"

namespace perfbench {

struct Response {
  enum class Kind : uint8_t { kOk, kErr };
  Kind kind = Kind::kErr;
  uint64_t id = 0;
  double us = 0.0;        ///< server-side admission -> completion
  double queue_us = 0.0;  ///< server-side admission -> worker claim
  size_t n = 0;
  std::string_view nodes;  ///< the raw comma list (view into the line)
  std::string code;        ///< ERR code
};

namespace detail {

inline std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\r')) ++i;
    const size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\r') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

// Value of `key=` in `tok`, or nullopt when the token has another key.
inline std::optional<std::string_view> Value(std::string_view tok,
                                             std::string_view key) {
  if (tok.size() <= key.size() || tok.substr(0, key.size()) != key ||
      tok[key.size()] != '=') {
    return std::nullopt;
  }
  return tok.substr(key.size() + 1);
}

}  // namespace detail

/// Parses an OK or ERR response line; nullopt when malformed (missing
/// token, non-numeric field, or n= disagreeing with the node list length).
inline std::optional<Response> ParseResponse(std::string_view line) {
  const std::vector<std::string_view> t = detail::Tokens(line);
  if (t.size() < 2) return std::nullopt;
  const std::optional<std::string_view> id_text = detail::Value(t[1], "id");
  if (!id_text) return std::nullopt;
  const std::optional<uint64_t> id = laca::ParseU64(*id_text);
  if (!id) return std::nullopt;
  Response r;
  r.id = *id;
  if (t[0] == "ERR") {
    if (t.size() < 3) return std::nullopt;
    const std::optional<std::string_view> code = detail::Value(t[2], "code");
    if (!code || code->empty()) return std::nullopt;
    r.kind = Response::Kind::kErr;
    r.code = std::string(*code);
    return r;
  }
  if (t[0] != "OK" || t.size() != 6) return std::nullopt;
  const auto us = detail::Value(t[2], "us");
  const auto queue_us = detail::Value(t[3], "queue_us");
  const auto n = detail::Value(t[4], "n");
  if (!us || !queue_us || !n) return std::nullopt;
  const std::optional<double> us_v = laca::ParseF64(*us);
  const std::optional<double> queue_v = laca::ParseF64(*queue_us);
  const std::optional<uint64_t> n_v = laca::ParseU64(*n);
  if (!us_v || !queue_v || !n_v) return std::nullopt;
  if (t[5].substr(0, 6) != "nodes=") return std::nullopt;
  r.kind = Response::Kind::kOk;
  r.us = *us_v;
  r.queue_us = *queue_v;
  r.n = static_cast<size_t>(*n_v);
  r.nodes = t[5].substr(6);
  const size_t listed =
      r.nodes.empty()
          ? 0
          : static_cast<size_t>(std::count(r.nodes.begin(), r.nodes.end(),
                                           ',')) + 1;
  if (listed != r.n) return std::nullopt;
  return r;
}

/// Splits a comma node list; false on any non-numeric or out-of-range id.
inline bool ParseNodes(std::string_view text, std::vector<laca::NodeId>* out) {
  out->clear();
  size_t i = 0;
  while (i < text.size()) {
    size_t j = text.find(',', i);
    if (j == std::string_view::npos) j = text.size();
    const std::optional<uint64_t> v = laca::ParseU64(text.substr(i, j - i));
    if (!v || *v >= laca::kInvalidNode) return false;
    out->push_back(static_cast<laca::NodeId>(*v));
    i = j + 1;
  }
  return true;
}

/// The STATS tokens the benchmark reads; a STATS line missing any of them
/// is malformed.
inline const std::vector<std::string>& RequiredStatsKeys() {
  static const std::vector<std::string> keys = {
      "queue",           "in_flight",    "admitted",      "completed",
      "rejected",        "alloc_events", "deadline",      "shed",
      "cancelled",       "internal",     "brownout",      "coalesced",
      "cache_hits",      "cache_misses", "cache_pi_hits", "cache_pi_misses",
      "cache_evictions", "cache_bytes"};
  return keys;
}

/// Parses a STATS line into key -> value. Fails (nullopt, with `error` set)
/// when the line is not a STATS line, a token is not key=value, a value is
/// not numeric, or a required key is missing.
inline std::optional<std::map<std::string, double>> ParseStats(
    std::string_view line, std::string* error) {
  const std::vector<std::string_view> t = detail::Tokens(line);
  if (t.empty() || t[0] != "STATS") {
    *error = "not a STATS line";
    return std::nullopt;
  }
  std::map<std::string, double> out;
  for (size_t i = 1; i < t.size(); ++i) {
    const size_t eq = t[i].find('=');
    if (eq == std::string_view::npos || eq == 0) {
      *error = "bad STATS token '" + std::string(t[i]) + "'";
      return std::nullopt;
    }
    const std::optional<double> v = laca::ParseF64(t[i].substr(eq + 1));
    if (!v) {
      *error = "non-numeric STATS token '" + std::string(t[i]) + "'";
      return std::nullopt;
    }
    out[std::string(t[i].substr(0, eq))] = *v;
  }
  for (const std::string& key : RequiredStatsKeys()) {
    if (out.count(key) == 0) {
      *error = "STATS line lacks '" + key + "'";
      return std::nullopt;
    }
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_LINES_HPP_
