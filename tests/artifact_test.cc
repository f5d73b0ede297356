// Artifact save/load: round-trip bit-identity and numerical correctness,
// corruption rejection, malformed layout and schedule tokens, version and
// graph-signature gates.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/core/alt.h"
#include "src/graph/networks.h"
#include "src/runtime/session.h"
#include "src/support/crc32.h"
#include "src/support/fileio.h"
#include "src/support/string_util.h"
#include "tests/reference_check.h"

namespace alt::core {
namespace {

graph::Graph SmallWorkload() {
  graph::Graph g("artifact_target");
  int x = g.AddInput("x", {1, 8, 12, 12});
  int w = g.AddConstant("w", {16, 8, 3, 3});
  graph::ConvAttrs attrs;
  int c = g.AddConv(graph::OpKind::kConv2d, x, w, attrs, "conv");
  int b = g.AddConstant("b", {16});
  g.AddRelu(g.AddBiasAdd(c, b, 1, "bias"), "relu");
  return g;
}

StatusOr<autotune::CompiledNetwork> TuneSmall(const sim::Machine& machine,
                                              AltOptions* options_out = nullptr) {
  AltOptions options;
  options.budget = 120;
  options.method = autotune::SearchMethod::kRandom;
  options.seed = 7;
  if (options_out != nullptr) {
    *options_out = options;
  }
  return Compile(SmallWorkload(), machine, options);
}

std::string TempPath(const std::string& name) { return ::testing::TempDir() + name; }

TEST(Artifact, RoundTripIsBitIdentical) {
  const auto& machine = sim::Machine::IntelCpu();
  AltOptions options;
  auto tuned = TuneSmall(machine, &options);
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();

  const std::string path = TempPath("artifact_roundtrip.altart");
  ASSERT_TRUE(SaveArtifact(*tuned, machine, options, path).ok());
  auto loaded = LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Provenance survives.
  EXPECT_EQ(loaded->info.version, 1);
  EXPECT_EQ(loaded->info.machine, machine.name);
  EXPECT_EQ(loaded->info.seed, options.seed);
  EXPECT_EQ(loaded->info.budget, options.budget);
  EXPECT_EQ(loaded->info.variant, options.variant);
  EXPECT_EQ(loaded->info.method, options.method);
  EXPECT_EQ(loaded->info.measurements_used, tuned->measurements_used);
  EXPECT_EQ(loaded->info.graph_signature, GraphSignature(tuned->graph));
  if (!tuned->history_us.empty()) {
    EXPECT_EQ(loaded->info.best_latency_us, tuned->history_us.back());
  }
  // Re-lowering reproduces the structure and the perf estimate.
  ASSERT_EQ(loaded->network.programs.size(), tuned->programs.size());
  EXPECT_EQ(loaded->network.perf.latency_us, tuned->perf.latency_us);

  // The loaded network, served through an InferenceSession, is bit-identical
  // to running the in-process tuned network.
  Rng rng(99);
  runtime::TensorDataMap data;
  runtime::FillGraphInputs(tuned->graph, rng, data);
  auto in_process_session = runtime::InferenceSession::Create(
      tuned->graph, tuned->assignment, {tuned->groups, tuned->programs});
  ASSERT_TRUE(in_process_session.ok()) << in_process_session.status().ToString();
  auto in_process = in_process_session->Run(data);
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  auto session = runtime::InferenceSession::Create(
      loaded->network.graph, loaded->network.assignment,
      {loaded->network.groups, loaded->network.programs});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto served = session->Run(data);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->size(), in_process->size());
  EXPECT_EQ(0, std::memcmp(served->data(), in_process->data(),
                           served->size() * sizeof(float)));

  // And what it computes is the graph's meaning: the loaded network matches
  // the canonical reference executor.
  auto diff = testutil::ServedDiffVsReference(
      loaded->network.graph, loaded->network.assignment,
      {loaded->network.groups, loaded->network.programs}, 55);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_LT(*diff, 5e-3);
}

TEST(Artifact, SaveIsDeterministic) {
  const auto& machine = sim::Machine::ArmCpu();
  AltOptions options;
  auto tuned = TuneSmall(machine, &options);
  ASSERT_TRUE(tuned.ok());
  const std::string a = TempPath("artifact_det_a.altart");
  const std::string b = TempPath("artifact_det_b.altart");
  ASSERT_TRUE(SaveArtifact(*tuned, machine, options, a).ok());
  ASSERT_TRUE(SaveArtifact(*tuned, machine, options, b).ok());
  auto ca = ReadFile(a);
  auto cb = ReadFile(b);
  ASSERT_TRUE(ca.ok() && cb.ok());
  EXPECT_EQ(*ca, *cb);
}

// Every truncation point and every flipped byte must yield a Status — never
// an abort, never a partially-loaded network.
TEST(Artifact, CorruptionCorpusIsRejectedWithStatus) {
  const auto& machine = sim::Machine::IntelCpu();
  AltOptions options;
  auto tuned = TuneSmall(machine, &options);
  ASSERT_TRUE(tuned.ok());
  const std::string path = TempPath("artifact_corrupt.altart");
  ASSERT_TRUE(SaveArtifact(*tuned, machine, options, path).ok());
  auto contents = ReadFile(path);
  ASSERT_TRUE(contents.ok());
  const std::string& good = *contents;
  const std::string mutated = TempPath("artifact_mutated.altart");

  // Truncations: cut at every 41st byte (and the exact last byte) to cover
  // torn lines, missing trailers, and empty files.
  for (size_t cut = 0; cut < good.size(); cut += 41) {
    ASSERT_TRUE(WriteFile(mutated, std::string_view(good).substr(0, cut)).ok());
    auto loaded = LoadArtifact(mutated);
    EXPECT_FALSE(loaded.ok()) << "truncation at " << cut << " byte(s) was accepted";
  }

  // Bit flips: flip one bit every 37 bytes across the whole file. Flipping a
  // newline can merge two framed lines; everything must still be rejected.
  for (size_t pos = 0; pos < good.size(); pos += 37) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    ASSERT_TRUE(WriteFile(mutated, bad).ok());
    auto loaded = LoadArtifact(mutated);
    EXPECT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " was accepted";
  }

  // Dropping a whole (validly framed) line is caught by the trailer count.
  size_t first_nl = good.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  size_t second_nl = good.find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  std::string dropped = good.substr(0, first_nl + 1) + good.substr(second_nl + 1);
  ASSERT_TRUE(WriteFile(mutated, dropped).ok());
  EXPECT_FALSE(LoadArtifact(mutated).ok());

  // The pristine file still loads.
  EXPECT_TRUE(LoadArtifact(path).ok());
}

// The artifact is the one reader of layout primitive and schedule tokens.
// Each malformed token, fed in a correctly framed `layout` or `group` line
// (so every CRC and the trailer count still pass), must be InvalidArgument.
TEST(Artifact, MalformedLayoutAndScheduleTokensAreInvalidArgument) {
  const auto& machine = sim::Machine::IntelCpu();
  AltOptions options;
  auto tuned = TuneSmall(machine, &options);
  ASSERT_TRUE(tuned.ok());
  const std::string path = TempPath("artifact_tokens.altart");
  ASSERT_TRUE(SaveArtifact(*tuned, machine, options, path).ok());
  auto contents = ReadFile(path);
  ASSERT_TRUE(contents.ok());
  const std::vector<std::string> lines = Split(*contents, '\n');

  // The file with its first line whose payload starts with `kind` replaced
  // by `kind` + `rest`, re-framed.
  auto with_line = [&](const std::string& kind, const std::string& rest) {
    std::vector<std::string> edited = lines;
    for (auto& line : edited) {
      std::string payload;
      if (UnframeLine(line, &payload) && payload.rfind(kind, 0) == 0) {
        line = FrameLine(kind + rest);
        return Join(edited, "\n");
      }
    }
    ADD_FAILURE() << "artifact has no '" << kind << "' line";
    return std::string();
  };
  // The first layout line's tensor and the first group line's anchor and
  // fused ops, kept so only the tokens under test change, and that group's
  // own schedule tokens.
  std::string layout_head;
  std::string group_head;
  std::string group_sched;
  for (const auto& line : lines) {
    std::string payload;
    if (!UnframeLine(line, &payload)) {
      continue;
    }
    if (layout_head.empty() && payload.rfind("layout ", 0) == 0) {
      layout_head = payload.substr(7, payload.find(' ', 7) - 7) + " ";
    }
    if (group_head.empty() && payload.rfind("group ", 0) == 0) {
      const size_t fused_end = payload.find(' ', payload.find(" fused=") + 1);
      group_head = payload.substr(6, fused_end - 6) + " ";
      group_sched = payload.substr(fused_end + 1);
    }
  }
  ASSERT_FALSE(layout_head.empty()) << "the tuned network assigns no layout";
  ASSERT_FALSE(group_head.empty());
  ASSERT_EQ(group_sched.rfind("s=", 0), 0u) << group_sched;
  const std::string mutated = TempPath("artifact_tokens_mutated.altart");

  for (const char* token : {
           "split:9999999999999999999:2",                // out-of-range integers
           "split:1:99999999999999999999999999",
           "unfold:0:123456789123456789123456789:1",
           "split:1",                                    // truncated primitives
           "unfold:1:2",
           "pad:0:1",
           "store_at:3",
           "split::",                                    // empty fields
           ":::",
           "frobnicate:1",                               // unknown kind
           "\x01\x02\x03",                               // garbage
       }) {
    SCOPED_TRACE(std::string("layout token: ") + token);
    ASSERT_TRUE(WriteFile(mutated, with_line("layout ", layout_head + token)).ok());
    auto loaded = LoadArtifact(mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
  for (const char* tokens : {
           "par=x",                                      // non-numeric fields
           "rot=abc",
           "s=a,b,c,d",
           "r=1,z",
           "par=99999999999999999999",                   // out-of-range integers
           "s=99999999999999999999999,1,1,1",
           "s=0,1,7,4;1,1,16,1 r=4,4",                   // structurally invalid
           "s=-2,1,7,4;1,1,16,1 r=4,4",
           "s=2,1,7,4;1,1,16,1 r=0,4",
           "s=2,1,7,4;1,1,16,1 r=-1,4",
           "par=-1",
           "par=1000",
           "rot=-3",
           "rot=999",
           "unroll",                                     // no '='
       }) {
    SCOPED_TRACE(std::string("schedule tokens: ") + tokens);
    ASSERT_TRUE(WriteFile(mutated, with_line("group ", group_head + tokens)).ok());
    auto loaded = LoadArtifact(mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }

  // Tokens the writer never produces, each the group's own schedule with one
  // change, so only the strictness of the decoder rejects them.
  auto replace_first = [&](const std::string& from, const std::string& to) {
    std::string text = group_sched;
    const size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from << " in " << group_sched;
    return pos == std::string::npos ? text : text.replace(pos, from.size(), to);
  };
  for (const std::string& tokens : {
           group_sched.substr(0, group_sched.rfind("unroll=")) + "unroll=7",  // not 0/1
           group_sched + " frob=1",                                      // unknown key
           replace_first(" par=", " par=0 par="),                        // repeated key
           replace_first(",", ",,"),                                     // empty element
           replace_first(" r=", ", r="),                                 // trailing comma
           replace_first(" r=", "; r="),                                 // empty axis
       }) {
    SCOPED_TRACE("schedule tokens: " + tokens);
    ASSERT_TRUE(WriteFile(mutated, with_line("group ", group_head + tokens)).ok());
    auto loaded = LoadArtifact(mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }

  // The same edit with the original payloads loads: the failures above come
  // from the tokens, not from re-framing.
  ASSERT_TRUE(WriteFile(mutated, Join(lines, "\n")).ok());
  EXPECT_TRUE(LoadArtifact(mutated).ok());
}

// `prov variant=` carries the AltVariant number: every one of the nine
// loads back, and no other number does.
TEST(Artifact, ProvenanceAcceptsExactlyTheNineVariants) {
  const auto& machine = sim::Machine::IntelCpu();
  AltOptions options;
  auto tuned = TuneSmall(machine, &options);
  ASSERT_TRUE(tuned.ok());
  const std::string path = TempPath("artifact_variant.altart");
  for (int v = 0; v <= static_cast<int>(AltVariant::kAnsor); ++v) {
    options.variant = static_cast<AltVariant>(v);
    ASSERT_TRUE(SaveArtifact(*tuned, machine, options, path).ok());
    auto loaded = LoadArtifact(path);
    ASSERT_TRUE(loaded.ok()) << VariantName(options.variant) << ": "
                             << loaded.status().ToString();
    EXPECT_EQ(loaded->info.variant, options.variant);
  }
  auto contents = ReadFile(path);  // saved with variant=8 (Ansor)
  ASSERT_TRUE(contents.ok());
  const std::string mutated = TempPath("artifact_variant_mutated.altart");
  for (const std::string bad : {"-1", "9", "x"}) {
    std::vector<std::string> lines = Split(*contents, '\n');
    for (auto& line : lines) {
      std::string payload;
      if (UnframeLine(line, &payload) && payload.rfind("prov ", 0) == 0) {
        const size_t at = payload.find(" variant=8 ");
        ASSERT_NE(at, std::string::npos) << payload;
        line = FrameLine(payload.replace(at, 11, " variant=" + bad + " "));
      }
    }
    ASSERT_TRUE(WriteFile(mutated, Join(lines, "\n")).ok());
    auto loaded = LoadArtifact(mutated);
    ASSERT_FALSE(loaded.ok()) << "variant=" << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
}

TEST(Artifact, RejectsUnknownVersion) {
  const auto& machine = sim::Machine::IntelCpu();
  AltOptions options;
  auto tuned = TuneSmall(machine, &options);
  ASSERT_TRUE(tuned.ok());
  const std::string path = TempPath("artifact_version.altart");
  ASSERT_TRUE(SaveArtifact(*tuned, machine, options, path).ok());
  auto contents = ReadFile(path);
  ASSERT_TRUE(contents.ok());

  // Forge a v3 header WITH a valid CRC frame: only the version gate can
  // reject it. (v2 is the kernel-embedding format and loads fine.)
  std::vector<std::string> lines = Split(*contents, '\n');
  ASSERT_FALSE(lines.empty());
  std::string payload;
  ASSERT_TRUE(UnframeLine(lines[0], &payload));
  ASSERT_EQ(payload.rfind("altart v1 ", 0), 0u);
  payload.replace(0, 9, "altart v3");
  lines[0] = FrameLine(payload);
  ASSERT_TRUE(WriteFile(path, Join(lines, "\n")).ok());
  auto loaded = LoadArtifact(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos)
      << loaded.status().ToString();
}

TEST(Artifact, RejectsGraphSignatureMismatch) {
  const auto& machine = sim::Machine::IntelCpu();
  AltOptions options;
  auto tuned = TuneSmall(machine, &options);
  ASSERT_TRUE(tuned.ok());
  const std::string path = TempPath("artifact_gsig.altart");
  ASSERT_TRUE(SaveArtifact(*tuned, machine, options, path).ok());
  auto contents = ReadFile(path);
  ASSERT_TRUE(contents.ok());

  // Rename a tensor with a correctly re-framed line: every CRC passes, the
  // graph even rebuilds — only the signature check can catch the edit.
  std::vector<std::string> lines = Split(*contents, '\n');
  bool edited = false;
  for (auto& line : lines) {
    std::string payload;
    if (!UnframeLine(line, &payload)) {
      continue;
    }
    size_t name_pos = payload.rfind(" name=");
    if (payload.rfind("tensor ", 0) == 0 && name_pos != std::string::npos) {
      payload = payload.substr(0, name_pos) + " name=forged";
      line = FrameLine(payload);
      edited = true;
      break;
    }
  }
  ASSERT_TRUE(edited);
  ASSERT_TRUE(WriteFile(path, Join(lines, "\n")).ok());
  auto loaded = LoadArtifact(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("signature"), std::string::npos)
      << loaded.status().ToString();
}

TEST(Artifact, UnknownMachineNameSkipsPerfEstimate) {
  const auto& machine = sim::Machine::IntelCpu();
  AltOptions options;
  auto tuned = TuneSmall(machine, &options);
  ASSERT_TRUE(tuned.ok());
  sim::Machine future = machine;
  future.name = "quantum-tpu-v9";
  const std::string path = TempPath("artifact_unknown_machine.altart");
  ASSERT_TRUE(SaveArtifact(*tuned, future, options, path).ok());
  auto loaded = LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->info.machine, "quantum-tpu-v9");
  EXPECT_EQ(loaded->network.perf.latency_us, 0.0);  // not estimated, not aborted
}

TEST(Artifact, LoadOfMissingFileIsAnError) {
  EXPECT_FALSE(LoadArtifact(TempPath("no_such_artifact.altart")).ok());
}

}  // namespace
}  // namespace alt::core
