#include "src/core/alt.h"

#include <map>
#include <memory>
#include <mutex>

#include "src/core/tuning_database.h"
#include "src/support/logging.h"

namespace alt::core {

const char* VariantName(AltVariant variant) {
  switch (variant) {
    case AltVariant::kFull:
      return "ALT";
    case AltVariant::kLoopOnly:
      return "ALT-OL";
    case AltVariant::kWithoutPropagation:
      return "ALT-WP";
  }
  return "?";
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
