#include "src/core/tuning_database.h"

#include <sstream>
#include <string_view>

#include "src/support/crc32.h"
#include "src/support/logging.h"
#include "src/support/metrics.h"
#include "src/support/string_util.h"

namespace alt::core {

namespace {

// Parses the fields after "record ": "<machine> <site> ok <latency>" or
// "<machine> <site> fail", each exactly as TuningDatabase::Record writes it.
bool ParseRecordFields(const std::string& fields, uint64_t* machine_fp, uint64_t* site,
                       TuningDatabase::Entry* entry) {
  const std::vector<std::string> f = Split(fields, ' ');
  if (f.size() < 3) {
    return false;
  }
  auto machine = ParseU64Hex(f[0]);
  auto parsed_site = ParseU64Hex(f[1]);
  if (!machine.ok() || !parsed_site.ok()) {
    return false;
  }
  if (f.size() == 4 && f[2] == "ok") {
    auto latency = ParseDouble(f[3]);
    if (!latency.ok()) {
      return false;
    }
    entry->latency_us = *latency;
  } else if (f.size() == 3 && f[2] == "fail") {
    entry->failed = true;
  } else {
    return false;
  }
  *machine_fp = *machine;
  *site = *parsed_site;
  return true;
}

}  // namespace

uint64_t MachineFingerprint(const sim::Machine& machine) {
  std::ostringstream oss;
  oss << "name=" << machine.name << ";cores=" << machine.cores
      << ";lanes=" << machine.vector_lanes << ";freq=" << FormatDouble(machine.freq_ghz)
      << ";bw=" << FormatDouble(machine.dram_bw_gbps)
      << ";dramlat=" << FormatDouble(machine.dram_latency_cycles) << ";caches=";
  for (const auto& level : machine.caches) {
    oss << level.size_bytes << "," << level.line_bytes << "," << level.associativity << ","
        << FormatDouble(level.hit_latency_cycles) << ";";
  }
  oss << "prefetch=" << machine.prefetch_lines
      << ";fma=" << FormatDouble(machine.fma_per_cycle) << ";gpu=" << (machine.gpu_like ? 1 : 0)
      << ";peff=" << FormatDouble(machine.parallel_efficiency);
  return Fnv1a64(oss.str());
}

StatusOr<std::unique_ptr<TuningDatabase>> TuningDatabase::Open(const std::string& path,
                                                               const sim::Machine& machine) {
  std::unique_ptr<TuningDatabase> db(new TuningDatabase());
  db->machine_fp_ = MachineFingerprint(machine);

  bool has_header = false;
  if (FileExists(path)) {
    auto data_or = ReadFile(path);
    if (!data_or.ok()) {
      return data_or.status();
    }
    const std::string& data = *data_or;
    // Record lines seen since the last good trailer; a trailer claims the
    // cumulative count, so a mismatch means the trailer (or a record before
    // it) was forged or lost — the trailer is then worthless and skipped.
    int64_t records_seen = 0;
    size_t pos = 0;
    while (pos < data.size()) {
      size_t nl = data.find('\n', pos);
      const bool torn = nl == std::string::npos;
      std::string_view line =
          std::string_view(data).substr(pos, torn ? data.size() - pos : nl - pos);
      pos = torn ? data.size() : nl + 1;
      std::string payload;
      if (torn || !UnframeLine(line, &payload)) {
        ++db->stats_.skipped_records;  // torn tail or checksum failure
        continue;
      }
      if (payload == "tuningdb v1") {
        has_header = true;
        continue;
      }
      if (ConsumePrefix(payload, "record ")) {
        uint64_t machine_fp = 0;
        uint64_t site = 0;
        Entry entry;
        if (!ParseRecordFields(payload, &machine_fp, &site, &entry)) {
          ++db->stats_.skipped_records;
          continue;
        }
        ++records_seen;
        ++db->stats_.total_records;
        if (machine_fp != db->machine_fp_) {
          continue;  // another machine's measurement: real, just not ours
        }
        if (!db->entries_.emplace(site, entry).second) {
          ++db->stats_.duplicate_records;  // first occurrence wins
        } else {
          ++db->stats_.loaded;
        }
        continue;
      }
      if (ConsumePrefix(payload, "trailer records=")) {
        auto claimed = ParseU64Dec(payload);
        if (!claimed.ok() || *claimed != static_cast<uint64_t>(records_seen)) {
          ++db->stats_.skipped_records;  // forged or stale checkpoint
        }
        continue;
      }
      // Unknown record kind written by a newer version: ignore, don't count
      // it as corruption.
    }
    // A torn tail (no final newline) was skipped above, but it must also be
    // cut from the file — otherwise the next appended line glues onto it and
    // becomes unreadable too.
    const size_t last_nl = data.rfind('\n');
    const size_t valid_end = last_nl == std::string::npos ? 0 : last_nl + 1;
    if (valid_end < data.size()) {
      ALT_RETURN_IF_ERROR(TruncateFile(path, valid_end));
    }
  }

  if (db->stats_.skipped_records > 0) {
    ALT_LOG(Warning) << "tuning database " << path << ": skipped "
                     << db->stats_.skipped_records << " corrupt record(s), loaded "
                     << db->stats_.loaded << " for this machine";
    MetricsRegistry::Global()
        .counter("measure.db_skipped_records")
        .Add(db->stats_.skipped_records);
  }

  auto writer = AppendWriter::Open(path);
  if (!writer.ok()) {
    return writer.status();
  }
  db->writer_ = std::move(*writer);
  db->open_ = true;
  if (!has_header) {
    std::lock_guard<std::mutex> lock(db->mu_);
    db->Append("tuningdb v1");
    if (!db->status_.ok()) {
      return db->status_;
    }
  }
  return db;
}

void TuningDatabase::Append(const std::string& payload) {
  if (!status_.ok() || !open_) {
    return;  // sticky failure: the run continues, just unpersisted
  }
  status_ = writer_.AppendLine(FrameLine(payload));
}

std::optional<TuningDatabase::Entry> TuningDatabase::Lookup(uint64_t site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(site);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void TuningDatabase::Record(uint64_t site, const Entry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!entries_.emplace(site, entry).second) {
    return;  // already known; keep the first record, append nothing
  }
  std::string payload = "record " + FormatU64Hex(machine_fp_) + " " + FormatU64Hex(site);
  if (entry.failed) {
    payload += " fail";
  } else {
    payload += " ok " + FormatDouble(entry.latency_us);
  }
  Append(payload);
  if (status_.ok()) {
    ++stats_.appended;
    ++stats_.total_records;
  }
}

Status TuningDatabase::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) {
    return status_;
  }
  Append("trailer records=" + std::to_string(stats_.total_records));
  writer_.Close();
  open_ = false;
  return status_;
}

TuningDatabase::~TuningDatabase() { Close(); }

TuningDatabase::Stats TuningDatabase::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status TuningDatabase::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

}  // namespace alt::core
