// Versioned on-disk artifacts for tuned networks (the deployment half of the
// compile-once / serve-many split).
//
// A tuned CompiledNetwork is fully determined by four pieces — the tuned
// graph (including inserted conversion ops), the layout assignment, the
// fused groups, and the per-group loop schedules — because lowering
// (loop::LowerGroup) is a pure deterministic function of them. The artifact
// therefore serializes exactly those pieces plus tuning provenance, and
// LoadArtifact re-lowers: a saved network round-trips to bit-identical
// execution without storing any IR and without re-tuning.
//
// FILE FORMAT — text, one record per line, each line independently framed
// with the tuning database's CRC scheme (support/crc32:
// "<crc32-hex-8> <payload>"):
//
//   altart v1 gsig=<hex16>            header; format version + graph signature
//   machine <name>                    sim machine the network was tuned for
//   prov seed=.. budget=.. variant=.. method=.. best_us=<%.17g>
//        measurements=..              tuning provenance
//   net <name>                        graph name
//   tensor <id> <var|const> shape=<csv> name=<rest>
//   op <id> <kind> out=<id> in=<csv|-> conv=.. pool=.. padb=.. pada=..
//        scalar=<%.17g> axis=.. name=<rest>
//   layout <tensor-id> <primitives>   one per assigned layout sequence
//   group <anchor-id> fused=<csv|-> s=.. r=.. par=.. rot=.. unroll=..
//   kernel <key-hex16> size=<bytes> lines=<k>   (v2) native kernel object
//   kdata <hex>                       (v2) one chunk of the object's bytes
//   end n=<line-count>                trailer; line count excludes itself
//
// v2 extends v1 with an optional native-kernel section: the JIT-compiled
// shared objects (src/codegen) for the network's programs, keyed by the
// codegen cache key, so a loaded artifact serves under ExecEngine::kNative
// with zero recompiles. SaveArtifact emits v2 only when kernels are present
// (options.engine == kNative and the toolchain produced objects); otherwise
// it writes plain v1. LoadArtifact registers embedded kernels with the
// process-wide codegen::KernelCache; an object that fails to dlopen (e.g.
// saved on a different architecture) is skipped with a warning — kernels are
// an execution *strategy*, the re-lowered programs remain the source of
// truth and the native engine falls back per program.
//
// VERSIONING RULES — the version is bumped when a line's meaning changes;
// readers reject any version they don't know (unlike the tuning database,
// which skips unknown RECORD KINDS — an artifact must reproduce execution
// exactly or not at all). Unknown versions, CRC failures, a missing or
// mismatched trailer (truncation), and a graph-signature mismatch are all
// InvalidArgument — never aborts, never a partially-loaded network.
//
// `gsig` is Fnv1a64 over the serialized graph section (net/tensor/op lines);
// LoadArtifact recomputes it from the lines it parsed and rejects the file
// when the header disagrees — a bit flip that survives all line CRCs (it
// cannot) or a hand-edited graph is caught before lowering.

#ifndef ALT_CORE_ARTIFACT_H_
#define ALT_CORE_ARTIFACT_H_

#include <cstdint>
#include <string>

#include "src/core/alt.h"

namespace alt::core {

// Provenance and identity carried by an artifact.
struct ArtifactInfo {
  int version = 1;
  uint64_t graph_signature = 0;
  std::string machine;
  uint64_t seed = 0;
  int budget = 0;
  AltVariant variant = AltVariant::kFull;
  autotune::SearchMethod method = autotune::SearchMethod::kPpoPretrained;
  // Best tuned latency (last point of the tuning curve); NaN when the run
  // produced no successful measurement.
  double best_latency_us = 0.0;
  int measurements_used = 0;
  // Native kernel objects delivered to the codegen::KernelCache by this load
  // (records whose object was registered or already resident; 0 for v1).
  int kernels = 0;
};

struct LoadedArtifact {
  ArtifactInfo info;
  // Re-lowered network: graph, assignment, groups, schedules, and programs
  // are fully populated; perf is re-estimated when the machine name is known
  // to this build, and the tuning curve / measure stats are empty (they
  // belong to the tuning run, not the artifact).
  autotune::CompiledNetwork network;
};

// Stable signature of a graph's structure (the exact serialized graph
// section an artifact would carry). Two graphs with equal signatures
// serialize identically — same tensors, shapes, ops, attributes, and names.
uint64_t GraphSignature(const graph::Graph& graph);

// Stable signature of a graph's SERVING INTERFACE: the (name, canonical
// shape) of every graph input and constant, in tensor order. Unlike
// GraphSignature it is invariant under retuning — inserted conversion ops,
// layout changes, and schedule changes don't alter it — so the serving
// front-end uses it to decide whether a freshly tuned artifact can hot-swap
// in for a live model (same clients, same request format).
uint64_t InterfaceSignature(const graph::Graph& graph);

// Writes `network` (+ provenance from `options`) to `path`, atomically
// replacing any existing file contents.
Status SaveArtifact(const autotune::CompiledNetwork& network, const sim::Machine& machine,
                    const AltOptions& options, const std::string& path);

// Parses, validates, and re-lowers an artifact. Any corruption, version or
// signature mismatch, or structurally invalid content yields a Status.
StatusOr<LoadedArtifact> LoadArtifact(const std::string& path);

}  // namespace alt::core

#endif  // ALT_CORE_ARTIFACT_H_
