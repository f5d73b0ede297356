#include "src/core/alt.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>

#include "src/core/tuning_database.h"
#include "src/support/logging.h"

namespace alt::core {

namespace {

// Indexed by AltVariant.
constexpr const char* kVariantNames[] = {"ALT",    "ALT-OL",  "ALT-WP",     "ALT-FP", "ALT-BP",
                                         "Vendor", "AutoTVM", "FlexTensor", "Ansor"};
static_assert(std::size(kVariantNames) == static_cast<size_t>(AltVariant::kAnsor) + 1);

}  // namespace

const char* VariantName(AltVariant variant) {
  const size_t v = static_cast<size_t>(variant);
  return v < std::size(kVariantNames) ? kVariantNames[v] : "?";
}

std::optional<AltVariant> VariantFromName(std::string_view name) {
  auto same_letter = [](char a, char b) {
    return std::tolower(static_cast<unsigned char>(a)) ==
           std::tolower(static_cast<unsigned char>(b));
  };
  for (size_t v = 0; v < std::size(kVariantNames); ++v) {
    if (std::ranges::equal(name, std::string_view(kVariantNames[v]), same_letter)) {
      return static_cast<AltVariant>(v);
    }
  }
  return std::nullopt;
}

const std::vector<double>& SharedPretrainedAgent(const sim::Machine& machine) {
  static std::mutex mutex;
  static std::map<std::string, std::vector<double>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(machine.name);
  if (it == cache.end()) {
    it = cache.emplace(machine.name, autotune::PretrainLayoutAgent(machine)).first;
  }
  return it->second;
}

autotune::TuningOptions ToTuningOptions(const AltOptions& options,
                                        const sim::Machine& machine) {
  autotune::TuningOptions tuning;
  tuning.total_budget = options.budget;
  tuning.joint_fraction = options.joint_fraction;
  tuning.method = options.method;
  tuning.two_level_templates = options.two_level_templates;
  tuning.seed = options.seed;
  tuning.measure = options.measure;
  tuning.trace_path = options.trace_path;
  switch (options.variant) {
    case AltVariant::kFull:
      break;
    case AltVariant::kLoopOnly:
      tuning.tune_layout = false;
      tuning.fixed_layout = autotune::FixedLayout::kChannelsLast;  // NHWO / NDHWO
      break;
    case AltVariant::kWithoutPropagation:
      tuning.propagate_multi_hop = false;
      break;
    case AltVariant::kInheritProducer:
      tuning.input_policy = autotune::InputLayoutPolicy::kInheritProducer;
      break;
    case AltVariant::kForceProducer:
      tuning.input_policy = autotune::InputLayoutPolicy::kForceProducer;
      break;
    case AltVariant::kAutoTvm:
      tuning.tune_layout = false;
      tuning.restricted_loop_space = true;
      tuning.fixed_layout = autotune::FixedLayout::kBlocked;
      break;
    case AltVariant::kFlexTensor:
      tuning.tune_layout = false;
      tuning.use_cost_model = false;  // every sampled candidate is measured
      tuning.fixed_layout = autotune::FixedLayout::kCanonical;
      break;
    case AltVariant::kVendor:
      tuning.total_budget = 0;  // the default schedules, no search
      [[fallthrough]];
    case AltVariant::kAnsor:
      // The libraries' layouts: MKL-DNN's blocked NCHWc, cuDNN's NCHW.
      tuning.tune_layout = false;
      tuning.fixed_layout = machine.gpu_like ? autotune::FixedLayout::kCanonical
                                             : autotune::FixedLayout::kBlocked;
      break;
  }
  if (tuning.tune_layout && options.method == autotune::SearchMethod::kPpoPretrained) {
    tuning.pretrained_agent = &SharedPretrainedAgent(machine);
  }
  return tuning;
}

runtime::SessionOptions ToSessionOptions(const AltOptions& options) {
  runtime::SessionOptions session;
  session.engine = options.engine;
  session.intra_threads = options.intra_threads;
  return session;
}

StatusOr<autotune::CompiledNetwork> RunTuner(const graph::Graph& graph,
                                             const sim::Machine& machine,
                                             const AltOptions& options,
                                             autotune::TuningOptions tuning) {
  std::unique_ptr<TuningDatabase> database;
  if (!options.tuning_db.empty()) {
    auto db_or = TuningDatabase::Open(options.tuning_db, machine);
    if (!db_or.ok()) {
      return db_or.status();
    }
    database = std::move(*db_or);
    tuning.measure_database = database.get();
    ALT_LOG(Info) << "tuning database " << options.tuning_db << ": "
                  << database->stats().loaded << " measurement(s) for this machine";
  }
  autotune::JointTuner tuner(graph, machine, tuning);
  auto result = tuner.Tune();
  if (database != nullptr) {
    Status db_status = database->Close();
    if (!db_status.ok()) {
      // The run itself is fine; only its persistence is gone.
      ALT_LOG(Warning) << "tuning database " << options.tuning_db
                       << " stopped recording: " << db_status.message();
    }
  }
  return result;
}

StatusOr<autotune::CompiledNetwork> Compile(const graph::Graph& graph,
                                            const sim::Machine& machine,
                                            const AltOptions& options) {
  return RunTuner(graph, machine, options, ToTuningOptions(options, machine));
}

}  // namespace alt::core
