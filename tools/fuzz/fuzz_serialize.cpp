// Fuzz target: the checksummed-container readers behind binary persistence
// (graph / attributes / communities / dataset payload decoders).
//
// Input framing (structure-aware): byte 0 is a mode byte, the rest is the
// file body. Mode bits 0-1 select the decoder; bit 2, when set, wraps the
// body in a VALID container (correct magic/version/kind/size/CRC via
// WrapContainer) so mutations reach the payload-schema code instead of dying
// at the checksum — without it the CRC rejects virtually every mutation.
// Bit 3 selects the expected-row-count attrs overload; communities ALWAYS
// go through the expected-nodes overload, because the unchecked loader is
// documented trusted-cache-only (its node count is not payload-boundable —
// isolated nodes contribute zero payload bytes; DESIGN.md §12).
//
// Invariants:
//   - Decoders are total over arbitrary bytes: every failure is
//     std::invalid_argument (the documented contract callers catch). A
//     std::length_error or std::bad_alloc escaping means a length field was
//     trusted before it was bounded — the allocation-bomb class.
//   - An accepted graph re-saves and re-loads to the same topology (the
//     container format round-trips what it validated).
//   - An accepted graph satisfies the paper's model: undirected (every
//     stored edge has a mirror of equal weight) with finite degrees.
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "fuzz_common.hpp"
#include "graph/binary_io.hpp"

namespace {

constexpr size_t kMaxBody = 1 << 15;

// Checks the model invariants of an accepted graph with lookups independent
// of the decoder's own validation.
void CheckGraphModel(const laca::Graph& graph,
                     std::span<const uint8_t> input) {
  for (laca::NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (!std::isfinite(graph.Degree(v))) {
      laca::fuzz_harness::Die("fuzz_serialize", input,
                              "accepted a graph with an infinite degree");
    }
    for (laca::NodeId u : graph.Neighbors(v)) {
      if (!graph.HasEdge(u, v) ||
          graph.EdgeWeight(u, v) != graph.EdgeWeight(v, u)) {
        laca::fuzz_harness::Die("fuzz_serialize", input,
                                "accepted an asymmetric graph");
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using laca::fuzz_harness::Die;
  using laca::fuzz_harness::ScratchDir;
  using laca::fuzz_harness::WrapContainer;
  using laca::fuzz_harness::WriteFile;
  if (size == 0) return 0;
  if (size > kMaxBody) size = kMaxBody;
  const std::span<const uint8_t> input(data, size);
  const uint8_t mode = data[0];
  const std::span<const uint8_t> body = input.subspan(1);

  static const laca::BinaryKind kKinds[4] = {
      laca::BinaryKind::kGraph, laca::BinaryKind::kAttributes,
      laca::BinaryKind::kCommunities, laca::BinaryKind::kDataset};
  const int which = mode & 3;
  const bool wrapped = (mode & 4) != 0;
  const bool checked = (mode & 8) != 0;

  const std::string path = ScratchDir("fuzz_serialize") + "/input.laca";
  if (wrapped) {
    WriteFile(path, WrapContainer(kKinds[which], body));
  } else {
    WriteFile(path, body);
  }

  try {
    switch (which) {
      case 0: {
        laca::Graph graph = laca::LoadGraphBinary(path);
        CheckGraphModel(graph, input);
        // Round-trip: what the validator accepted must re-save and re-load
        // to the identical topology.
        const std::string again = ScratchDir("fuzz_serialize") + "/again.laca";
        laca::SaveGraphBinary(graph, again);
        const laca::Graph reloaded = laca::LoadGraphBinary(again);
        if (reloaded.num_nodes() != graph.num_nodes() ||
            reloaded.num_edges() != graph.num_edges() ||
            reloaded.is_weighted() != graph.is_weighted()) {
          Die("fuzz_serialize", input, "graph save/load round-trip drifted");
        }
        break;
      }
      case 1:
        if (checked) {
          (void)laca::LoadAttributesBinary(path, laca::NodeId{8});
        } else {
          (void)laca::LoadAttributesBinary(path);
        }
        break;
      case 2:
        (void)laca::LoadCommunitiesBinary(path, laca::NodeId{8});
        break;
      default:
        CheckGraphModel(laca::LoadDatasetBinary(path).graph, input);
        break;
    }
  } catch (const std::invalid_argument&) {
    // The documented rejection path — fine.
  } catch (const std::exception& e) {
    Die("fuzz_serialize", input,
        std::string("decoder escaped the invalid_argument contract with ") +
            typeid(e).name() + ": " + e.what());
  }
  return 0;
}
