#include "src/core/artifact.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "src/codegen/kernel_cache.h"
#include "src/loop/serialization.h"
#include "src/runtime/interpreter.h"
#include "src/sim/perf_model.h"
#include "src/support/crc32.h"
#include "src/support/fileio.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace alt::core {

namespace {

using graph::Graph;
using graph::Op;
using graph::OpKind;

// --- kernel section (v2) ------------------------------------------------

// Bytes of object code per kdata line (128 hex characters of payload).
constexpr size_t kKernelChunkBytes = 64;

std::string EncodeHex(const unsigned char* data, size_t n) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(kDigits[data[i] >> 4]);
    out.push_back(kDigits[data[i] & 0xf]);
  }
  return out;
}

Status DecodeHexAppend(const std::string& s, std::vector<unsigned char>* out) {
  if (s.empty() || s.size() % 2 != 0) {
    return Status::InvalidArgument("bad kdata hex length");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') {
      return c - '0';
    }
    if (c >= 'a' && c <= 'f') {
      return c - 'a' + 10;
    }
    return -1;
  };
  for (size_t i = 0; i < s.size(); i += 2) {
    int hi = nibble(s[i]);
    int lo = nibble(s[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("bad kdata hex digit");
    }
    out->push_back(static_cast<unsigned char>((hi << 4) | lo));
  }
  return Status::Ok();
}

// A kernel record mid-parse: header seen, kdata chunks still arriving.
struct PendingKernel {
  std::string key;
  uint64_t size = 0;
  uint64_t lines = 0;
  uint64_t seen_lines = 0;
  std::vector<unsigned char> bytes;
};

std::string EncodeIntCsv(const std::vector<int64_t>& v) { return v.empty() ? "-" : Join(v, ","); }

std::string EncodeOpInputCsv(const std::vector<int>& v) { return v.empty() ? "-" : Join(v, ","); }

StatusOr<std::vector<int64_t>> DecodeIntCsv(const std::string& s) {
  if (s == "-") {
    return std::vector<int64_t>{};
  }
  return loop::ParseInts(s);
}

// --- graph section ------------------------------------------------------

// The graph section is the identity of the artifact: these exact payload
// lines (in this order, '\n'-joined) are what GraphSignature fingerprints.
std::vector<std::string> GraphSectionLines(const Graph& graph) {
  std::vector<std::string> lines;
  lines.push_back("net " + graph.name());
  for (const auto& t : graph.tensors()) {
    std::string line = "tensor " + std::to_string(t.id) + " " +
                       (graph.IsConstant(t.id) ? "const" : "var") + " shape=" +
                       EncodeIntCsv(t.shape) + " name=" + t.name;
    lines.push_back(std::move(line));
  }
  for (const Op& op : graph.ops()) {
    const auto& c = op.conv;
    std::vector<int64_t> conv = {c.spatial_dims, c.stride[0],     c.stride[1],     c.stride[2],
                                 c.dilation[0],  c.dilation[1],   c.dilation[2],   c.pad[0],
                                 c.pad[1],       c.pad[2],        c.groups,        c.output_pad[0],
                                 c.output_pad[1], c.output_pad[2]};
    const auto& p = op.pool;
    std::vector<int64_t> pool = {p.window[0], p.window[1], p.stride[0], p.stride[1],
                                 p.pad[0],    p.pad[1],    p.global ? 1 : 0};
    std::string line = "op " + std::to_string(op.id) + " " + graph::OpKindName(op.kind) +
                       " out=" + std::to_string(op.output) +
                       " in=" + EncodeOpInputCsv(op.inputs) + " conv=" + Join(conv, ",") +
                       " pool=" + Join(pool, ",") + " padb=" + EncodeIntCsv(op.pad.before) +
                       " pada=" + EncodeIntCsv(op.pad.after) +
                       " scalar=" + FormatDouble(op.scalar) +
                       " axis=" + std::to_string(op.bias_axis) + " name=" + op.name;
    lines.push_back(std::move(line));
  }
  return lines;
}

uint64_t SignatureOfLines(const std::vector<std::string>& lines) {
  return Fnv1a64(Join(lines, "\n"));
}

// Splits a graph-section payload into its space-separated head tokens and
// the trailing free-form name (everything after the first " name=").
Status SplitNameTail(const std::string& payload, std::vector<std::string>* head,
                     std::string* name) {
  size_t pos = payload.find(" name=");
  if (pos == std::string::npos) {
    return Status::InvalidArgument("missing name field: " + payload);
  }
  *head = Split(payload.substr(0, pos), ' ');
  *name = payload.substr(pos + 6);
  return Status::Ok();
}

StatusOr<ir::Tensor> ParseTensorLine(const std::string& payload, bool* is_const) {
  std::vector<std::string> head;
  std::string name;
  ALT_RETURN_IF_ERROR(SplitNameTail(payload, &head, &name));
  if (head.size() != 4 || head[0] != "tensor" || (head[2] != "var" && head[2] != "const") ||
      head[3].rfind("shape=", 0) != 0) {
    return Status::InvalidArgument("bad tensor line: " + payload);
  }
  auto id = ParseInt32(head[1]);
  if (!id.ok()) {
    return id.status();
  }
  auto shape = DecodeIntCsv(head[3].substr(6));
  if (!shape.ok()) {
    return shape.status();
  }
  ir::Tensor t;
  t.id = *id;
  t.name = std::move(name);
  t.shape = std::move(*shape);
  *is_const = head[2] == "const";
  return t;
}

StatusOr<Op> ParseOpLine(const std::string& payload) {
  std::vector<std::string> head;
  std::string name;
  ALT_RETURN_IF_ERROR(SplitNameTail(payload, &head, &name));
  if (head.size() != 11 || head[0] != "op") {
    return Status::InvalidArgument("bad op line: " + payload);
  }
  static const char* kPrefixes[] = {"out=", "in=", "conv=", "pool=", "padb=", "pada=",
                                    "scalar=", "axis="};
  for (int i = 0; i < 8; ++i) {
    if (head[3 + i].rfind(kPrefixes[i], 0) != 0) {
      return Status::InvalidArgument("bad op line: " + payload);
    }
    head[3 + i] = head[3 + i].substr(std::string(kPrefixes[i]).size());
  }
  Op op;
  auto id = ParseInt32(head[1]);
  auto kind = graph::OpKindFromName(head[2]);
  auto out = ParseInt32(head[3]);
  auto in = DecodeIntCsv(head[4]);
  auto conv = loop::ParseInts(head[5]);
  auto pool = loop::ParseInts(head[6]);
  auto padb = DecodeIntCsv(head[7]);
  auto pada = DecodeIntCsv(head[8]);
  auto scalar = ParseDouble(head[9]);
  auto axis = ParseInt32(head[10]);
  for (const Status& s :
       {id.status(), kind.status(), out.status(), in.status(), conv.status(), pool.status(),
        padb.status(), pada.status(), scalar.status(), axis.status()}) {
    if (!s.ok()) {
      return s;
    }
  }
  if (conv->size() != 14 || pool->size() != 7) {
    return Status::InvalidArgument("bad op attribute arity: " + payload);
  }
  op.id = *id;
  op.kind = *kind;
  op.name = std::move(name);
  op.output = *out;
  for (int64_t v : *in) {
    op.inputs.push_back(static_cast<int>(v));
  }
  op.conv.spatial_dims = static_cast<int>((*conv)[0]);
  for (int d = 0; d < 3; ++d) {
    op.conv.stride[d] = (*conv)[1 + d];
    op.conv.dilation[d] = (*conv)[4 + d];
    op.conv.pad[d] = (*conv)[7 + d];
    op.conv.output_pad[d] = (*conv)[11 + d];
  }
  op.conv.groups = (*conv)[10];
  op.pool.window[0] = (*pool)[0];
  op.pool.window[1] = (*pool)[1];
  op.pool.stride[0] = (*pool)[2];
  op.pool.stride[1] = (*pool)[3];
  op.pool.pad[0] = (*pool)[4];
  op.pool.pad[1] = (*pool)[5];
  op.pool.global = (*pool)[6] != 0;
  op.pad.before = std::move(*padb);
  op.pad.after = std::move(*pada);
  op.scalar = *scalar;
  op.bias_axis = *axis;
  return op;
}

}  // namespace

uint64_t GraphSignature(const Graph& graph) {
  return SignatureOfLines(GraphSectionLines(graph));
}

uint64_t InterfaceSignature(const Graph& graph) {
  // Same line discipline as the graph section, restricted to the tensors a
  // client feeds: retuning inserts conversion ops and interior tensors but
  // never changes the inputs/constants a request must supply.
  std::vector<std::string> lines;
  for (const auto& t : graph.tensors()) {
    if (!graph.IsGraphInput(t.id) && !graph.IsConstant(t.id)) {
      continue;
    }
    lines.push_back(std::string("feed ") + (graph.IsConstant(t.id) ? "const" : "var") +
                    " shape=" + EncodeIntCsv(t.shape) + " name=" + t.name);
  }
  return SignatureOfLines(lines);
}

Status SaveArtifact(const autotune::CompiledNetwork& network, const sim::Machine& machine,
                    const AltOptions& options, const std::string& path) {
  if (network.schedules.size() != network.groups.size()) {
    return Status::InvalidArgument("network has " + std::to_string(network.groups.size()) +
                                   " groups but " + std::to_string(network.schedules.size()) +
                                   " schedules; cannot serialize");
  }
  std::vector<std::string> graph_lines = GraphSectionLines(network.graph);
  const uint64_t gsig = SignatureOfLines(graph_lines);

  // Collect native kernel objects first: the header version depends on
  // whether any are embedded. Programs the native engine cannot compile
  // (non-affine, no toolchain) are simply not embedded — at load time those
  // programs serve through the interpreter exactly as they would have here.
  std::vector<std::pair<std::string, std::vector<unsigned char>>> kernels;
  if (options.engine == runtime::ExecEngine::kNative) {
    for (const auto& program : network.programs) {
      auto key = runtime::EnsureNativeKernel(program);
      if (!key.ok()) {
        continue;
      }
      bool seen = false;
      for (const auto& [k, b] : kernels) {
        seen = seen || k == *key;
      }
      if (seen) {
        continue;  // programs with equal structure share one object
      }
      auto bytes = codegen::KernelCache::Global().ObjectBytes(*key);
      if (!bytes.ok()) {
        ALT_LOG(Warning) << "artifact: not embedding kernel " << *key << ": "
                         << bytes.status().message();
        continue;
      }
      kernels.emplace_back(*key, std::move(*bytes));
    }
  }

  std::vector<std::string> payloads;
  payloads.push_back(std::string("altart v") + (kernels.empty() ? "1" : "2") +
                     " gsig=" + FormatU64Hex(gsig));
  payloads.push_back("machine " + machine.name);
  const double best_us =
      network.history_us.empty() ? std::nan("") : network.history_us.back();
  payloads.push_back("prov seed=" + std::to_string(options.seed) +
                     " budget=" + std::to_string(options.budget) +
                     " variant=" + std::to_string(static_cast<int>(options.variant)) +
                     " method=" + std::to_string(static_cast<int>(options.method)) +
                     " best_us=" + FormatDouble(best_us) +
                     " measurements=" + std::to_string(network.measurements_used));
  for (auto& line : graph_lines) {
    payloads.push_back(std::move(line));
  }
  for (const auto& t : network.graph.tensors()) {
    if (network.assignment.Has(t.id)) {
      payloads.push_back("layout " + std::to_string(t.id) + " " +
                         loop::EncodeLayoutSeq(network.assignment.Get(t.id)));
    }
  }
  for (size_t i = 0; i < network.groups.size(); ++i) {
    std::vector<int64_t> fused(network.groups[i].fused_ops.begin(),
                               network.groups[i].fused_ops.end());
    payloads.push_back("group " + std::to_string(network.groups[i].anchor_op) +
                       " fused=" + EncodeIntCsv(fused) + " " +
                       loop::EncodeSchedule(network.schedules[i]));
  }
  for (const auto& [key, bytes] : kernels) {
    const size_t chunks = (bytes.size() + kKernelChunkBytes - 1) / kKernelChunkBytes;
    payloads.push_back("kernel " + key + " size=" + std::to_string(bytes.size()) +
                       " lines=" + std::to_string(chunks));
    for (size_t off = 0; off < bytes.size(); off += kKernelChunkBytes) {
      payloads.push_back(
          "kdata " + EncodeHex(bytes.data() + off, std::min(kKernelChunkBytes, bytes.size() - off)));
    }
  }
  payloads.push_back("end n=" + std::to_string(payloads.size()));

  std::string contents;
  for (const std::string& payload : payloads) {
    contents += FrameLine(payload);
    contents += '\n';
  }
  return WriteFile(path, contents);
}

StatusOr<LoadedArtifact> LoadArtifact(const std::string& path) {
  auto contents = ReadFile(path);
  if (!contents.ok()) {
    return contents.status();
  }

  // Frame check: every line must be complete (newline-terminated) and pass
  // its CRC. A truncated tail or a flipped bit anywhere is fatal — an
  // artifact reproduces execution exactly or not at all.
  std::vector<std::string> payloads;
  size_t pos = 0;
  while (pos < contents->size()) {
    size_t nl = contents->find('\n', pos);
    if (nl == std::string::npos) {
      return Status::InvalidArgument("artifact truncated: unterminated final line");
    }
    std::string payload;
    if (!UnframeLine(std::string_view(*contents).substr(pos, nl - pos), &payload)) {
      return Status::InvalidArgument("artifact corrupt: bad CRC frame at line " +
                                     std::to_string(payloads.size() + 1));
    }
    payloads.push_back(std::move(payload));
    pos = nl + 1;
  }
  if (payloads.size() < 2) {
    return Status::InvalidArgument("artifact truncated: missing header or trailer");
  }

  // Header: version gate first — nothing else is interpreted under an
  // unknown version.
  std::string header = payloads.front();
  if (!ConsumePrefix(header, "altart v")) {
    return Status::InvalidArgument("not an ALT artifact: bad header");
  }
  size_t sp = header.find(' ');
  if (sp == std::string::npos) {
    return Status::InvalidArgument("not an ALT artifact: bad header");
  }
  auto version = ParseInt32(header.substr(0, sp));
  if (!version.ok()) {
    return version.status();
  }
  if (*version != 1 && *version != 2) {
    return Status::InvalidArgument("unsupported artifact version " + std::to_string(*version) +
                                   " (this build reads v1 and v2)");
  }
  std::string gsig_field = header.substr(sp + 1);
  if (!ConsumePrefix(gsig_field, "gsig=")) {
    return Status::InvalidArgument("not an ALT artifact: bad header");
  }
  auto declared_gsig = ParseU64Hex(gsig_field);
  if (!declared_gsig.ok()) {
    return declared_gsig.status();
  }

  // Trailer: the line count commits the artifact's full extent, so dropping
  // whole framed lines off the end (which every per-line CRC would accept)
  // is still detected.
  std::string trailer = payloads.back();
  if (!ConsumePrefix(trailer, "end n=")) {
    return Status::InvalidArgument("artifact truncated: missing 'end' trailer");
  }
  auto declared_count = ParseInt64(trailer);
  if (!declared_count.ok()) {
    return declared_count.status();
  }
  if (*declared_count != static_cast<int64_t>(payloads.size()) - 1) {
    return Status::InvalidArgument("artifact truncated: trailer declares " +
                                   std::to_string(*declared_count) + " lines, file has " +
                                   std::to_string(payloads.size() - 1));
  }

  LoadedArtifact result;
  result.info.version = *version;

  bool saw_net = false;
  bool saw_machine = false;
  bool saw_prov = false;
  std::string graph_name;
  std::vector<ir::Tensor> tensors;
  std::vector<bool> is_const;
  std::vector<Op> ops;
  std::vector<std::string> graph_lines;            // verbatim, for gsig recompute
  std::vector<std::pair<int, std::string>> layouts;  // tensor id -> encoded seq
  std::vector<loop::FusedGroup> groups;
  std::vector<loop::LoopSchedule> schedules;
  std::vector<std::pair<std::string, std::vector<unsigned char>>> kernel_objects;
  std::optional<PendingKernel> pending_kernel;

  for (size_t i = 1; i + 1 < payloads.size(); ++i) {
    std::string payload = payloads[i];
    if (pending_kernel.has_value() && payload.rfind("kdata ", 0) != 0) {
      return Status::InvalidArgument("artifact corrupt: kernel " + pending_kernel->key +
                                     " interrupted before its kdata completed");
    }
    if (ConsumePrefix(payload, "machine ")) {
      if (saw_machine) {
        return Status::InvalidArgument("artifact has multiple machine lines");
      }
      saw_machine = true;
      result.info.machine = payload;
    } else if (ConsumePrefix(payload, "prov ")) {
      if (saw_prov) {
        return Status::InvalidArgument("artifact has multiple prov lines");
      }
      saw_prov = true;
      for (const std::string& token : Split(payload, ' ')) {
        size_t eq = token.find('=');
        if (eq == std::string::npos) {
          return Status::InvalidArgument("bad prov token: " + token);
        }
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);
        if (key == "seed") {
          auto v = ParseU64Dec(value);
          if (!v.ok()) {
            return v.status();
          }
          result.info.seed = *v;
        } else if (key == "budget") {
          auto v = ParseInt32(value);
          if (!v.ok()) {
            return v.status();
          }
          result.info.budget = *v;
        } else if (key == "variant") {
          auto v = ParseInt32(value);
          if (!v.ok()) {
            return v.status();
          }
          if (*v < 0 || *v > static_cast<int>(AltVariant::kAnsor)) {
            return Status::InvalidArgument("bad prov variant: " + value);
          }
          result.info.variant = static_cast<AltVariant>(*v);
        } else if (key == "method") {
          auto v = ParseInt32(value);
          if (!v.ok()) {
            return v.status();
          }
          if (*v < 0 || *v > static_cast<int>(autotune::SearchMethod::kRandom)) {
            return Status::InvalidArgument("bad prov method: " + value);
          }
          result.info.method = static_cast<autotune::SearchMethod>(*v);
        } else if (key == "best_us") {
          auto v = ParseDouble(value);
          if (!v.ok()) {
            return v.status();
          }
          result.info.best_latency_us = *v;
        } else if (key == "measurements") {
          auto v = ParseInt32(value);
          if (!v.ok()) {
            return v.status();
          }
          result.info.measurements_used = *v;
        } else {
          return Status::InvalidArgument("unknown prov token: " + token);
        }
      }
    } else if (payload.rfind("net ", 0) == 0) {
      if (saw_net) {
        return Status::InvalidArgument("artifact has multiple net lines");
      }
      saw_net = true;
      graph_lines.push_back(payload);
      graph_name = payload.substr(4);
    } else if (payload.rfind("tensor ", 0) == 0) {
      graph_lines.push_back(payload);
      bool c = false;
      auto t = ParseTensorLine(payload, &c);
      if (!t.ok()) {
        return t.status();
      }
      tensors.push_back(std::move(*t));
      is_const.push_back(c);
    } else if (payload.rfind("op ", 0) == 0) {
      graph_lines.push_back(payload);
      auto op = ParseOpLine(payload);
      if (!op.ok()) {
        return op.status();
      }
      ops.push_back(std::move(*op));
    } else if (ConsumePrefix(payload, "layout ")) {
      size_t space = payload.find(' ');
      if (space == std::string::npos) {
        return Status::InvalidArgument("bad layout line: " + payload);
      }
      auto id = ParseInt32(payload.substr(0, space));
      if (!id.ok()) {
        return id.status();
      }
      layouts.emplace_back(*id, payload.substr(space + 1));
    } else if (ConsumePrefix(payload, "group ")) {
      std::vector<std::string> tokens = Split(payload, ' ');
      if (tokens.size() < 2 || tokens[1].rfind("fused=", 0) != 0) {
        return Status::InvalidArgument("bad group line: " + payload);
      }
      auto anchor = ParseInt32(tokens[0]);
      auto fused = DecodeIntCsv(tokens[1].substr(6));
      if (!anchor.ok()) {
        return anchor.status();
      }
      if (!fused.ok()) {
        return fused.status();
      }
      loop::FusedGroup group;
      group.anchor_op = *anchor;
      for (int64_t v : *fused) {
        group.fused_ops.push_back(static_cast<int>(v));
      }
      auto sched = loop::DecodeSchedule({tokens.begin() + 2, tokens.end()});
      if (!sched.ok()) {
        return sched.status();
      }
      groups.push_back(std::move(group));
      schedules.push_back(std::move(*sched));
    } else if (*version >= 2 && ConsumePrefix(payload, "kernel ")) {
      std::vector<std::string> tokens = Split(payload, ' ');
      if (tokens.size() != 3 || tokens[0].size() != 16 ||
          tokens[1].rfind("size=", 0) != 0 || tokens[2].rfind("lines=", 0) != 0) {
        return Status::InvalidArgument("bad kernel line: " + payload);
      }
      auto key_check = ParseU64Hex(tokens[0]);
      auto size = ParseU64Dec(tokens[1].substr(5));
      auto chunk_lines = ParseU64Dec(tokens[2].substr(6));
      for (const Status& s : {key_check.status(), size.status(), chunk_lines.status()}) {
        if (!s.ok()) {
          return s;
        }
      }
      if (*size == 0 || *chunk_lines == 0) {
        return Status::InvalidArgument("bad kernel line: empty object: " + payload);
      }
      PendingKernel pk;
      pk.key = tokens[0];
      pk.size = *size;
      pk.lines = *chunk_lines;
      pk.bytes.reserve(*size);
      pending_kernel = std::move(pk);
    } else if (*version >= 2 && ConsumePrefix(payload, "kdata ")) {
      if (!pending_kernel.has_value()) {
        return Status::InvalidArgument("artifact corrupt: kdata line outside a kernel record");
      }
      ALT_RETURN_IF_ERROR(DecodeHexAppend(payload, &pending_kernel->bytes));
      if (pending_kernel->bytes.size() > pending_kernel->size) {
        return Status::InvalidArgument("artifact corrupt: kernel " + pending_kernel->key +
                                       " exceeds its declared size");
      }
      if (++pending_kernel->seen_lines == pending_kernel->lines) {
        if (pending_kernel->bytes.size() != pending_kernel->size) {
          return Status::InvalidArgument("artifact corrupt: kernel " + pending_kernel->key +
                                         " declares " + std::to_string(pending_kernel->size) +
                                         " bytes, carries " +
                                         std::to_string(pending_kernel->bytes.size()));
        }
        kernel_objects.emplace_back(std::move(pending_kernel->key),
                                    std::move(pending_kernel->bytes));
        pending_kernel.reset();
      }
    } else {
      return Status::InvalidArgument("unknown artifact line: " + payloads[i]);
    }
  }
  if (pending_kernel.has_value()) {
    return Status::InvalidArgument("artifact truncated: kernel " + pending_kernel->key +
                                   " missing kdata lines");
  }

  if (!saw_net || !saw_machine || !saw_prov) {
    return Status::InvalidArgument("artifact missing net, machine, or prov line");
  }

  // Identity check: the graph section we parsed must hash to what the header
  // promised. Reordered, dropped, or injected graph lines all land here.
  result.info.graph_signature = SignatureOfLines(graph_lines);
  if (result.info.graph_signature != *declared_gsig) {
    return Status::InvalidArgument("graph signature mismatch: header declares " +
                                   FormatU64Hex(*declared_gsig) + ", graph section hashes to " +
                                   FormatU64Hex(result.info.graph_signature));
  }

  auto graph = Graph::FromParts(std::move(graph_name), std::move(tensors), std::move(ops),
                                std::move(is_const));
  if (!graph.ok()) {
    return graph.status();
  }
  autotune::CompiledNetwork& network = result.network;
  network.graph = std::move(*graph);

  const int num_tensors = static_cast<int>(network.graph.tensors().size());
  const int num_ops = static_cast<int>(network.graph.ops().size());
  for (const auto& [tensor_id, encoded] : layouts) {
    if (tensor_id < 0 || tensor_id >= num_tensors) {
      return Status::InvalidArgument("layout line references tensor " +
                                     std::to_string(tensor_id) + " out of range");
    }
    layout::LayoutSeq seq;
    for (const std::string& prim_text : Split(encoded, ' ')) {
      if (prim_text.empty()) {
        continue;
      }
      auto prim = loop::DecodePrimitive(prim_text);
      if (!prim.ok()) {
        return prim.status();
      }
      seq.Append(std::move(*prim));
    }
    network.assignment.Set(tensor_id, std::move(seq));
  }
  // Applicability check: every assigned sequence must map its tensor to a
  // valid physical shape (split divisibility, store_at sources, ...).
  for (const auto& [tensor_id, encoded] : layouts) {
    auto phys = network.assignment.PhysicalShape(network.graph, tensor_id);
    if (!phys.ok()) {
      return Status::InvalidArgument("layout for tensor " + std::to_string(tensor_id) +
                                     " is not applicable: " + phys.status().message());
    }
  }

  // Re-lower. LowerGroup is deterministic and LowerGroupNaive is exactly
  // LowerGroup with the naive schedule (the tuner records one schedule per
  // group, naive for groups it didn't tune), so this reproduces the tuner's
  // programs bit for bit.
  if (groups.empty()) {
    return Status::InvalidArgument("artifact has no groups");
  }
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].anchor_op < 0 || groups[i].anchor_op >= num_ops) {
      return Status::InvalidArgument("group anchor op out of range");
    }
    for (int fused : groups[i].fused_ops) {
      if (fused < 0 || fused >= num_ops) {
        return Status::InvalidArgument("group fused op out of range");
      }
    }
    auto program =
        loop::LowerGroup(network.graph, network.assignment, groups[i], schedules[i]);
    if (!program.ok()) {
      return Status::InvalidArgument("artifact group " + std::to_string(i) +
                                     " failed to lower: " + program.status().message());
    }
    network.programs.push_back(std::move(*program));
  }
  network.groups = std::move(groups);
  network.schedules = std::move(schedules);
  network.measurements_used = result.info.measurements_used;

  // Deliver embedded kernel objects to the process-wide cache so native-
  // engine sessions over this network hit without compiling. A load failure
  // (object from another architecture, dlopen unavailable) is a degraded
  // environment, not a corrupt artifact: the programs above are the source
  // of truth and the native engine falls back per program, bit-identically.
  for (const auto& [key, bytes] : kernel_objects) {
    Status s = codegen::KernelCache::Global().RegisterObject(key, bytes);
    if (s.ok()) {
      ++result.info.kernels;
    } else {
      ALT_LOG(Warning) << "artifact: embedded kernel " << key
                       << " not loadable here: " << s.message();
    }
  }

  // Artifacts carry untrusted text: perf re-estimation is skipped for a
  // machine this build doesn't know.
  if (const sim::Machine* m = sim::Machine::Find(result.info.machine)) {
    network.perf = sim::EstimatePrograms(network.programs, *m);
  }
  return result;
}

}  // namespace alt::core
