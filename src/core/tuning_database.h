// Persistent tuning database: the one store of measured outcomes, serving
// both warm start and crash-safe resume.
//
// A tuning run's only expensive step — lowering a candidate and running the
// analytic cost model over it — is a pure function of its inputs, so the
// measured outcomes are the one thing a long run needs to keep. The database
// is an append-only file of (machine, program-structure site) -> measured
// latency records that accumulates across runs, networks, and option sets.
// The measurement engine consults it before measuring and writes through
// after every fresh outcome (the MeasureEngine database argument). Hits report
// cache_hit == false, so a run against a populated database spends its
// budget exactly as the run that recorded them did, walks the same
// trajectory, and issues zero redundant measurements (see measure.h).
//
// RESUME. Every record is flushed as it is appended, so a run killed at any
// point leaves a valid database plus at most one torn final line. Re-running
// the same compile against the same database re-executes the tuner from the
// start with the same seed; measurements the interrupted run recorded are
// answered from disk instead of re-run, so every budget decrement, reward and
// cost-model training row is reproduced up to the crash point, after which
// tuning continues live. The result is bit-identical to an uninterrupted
// run's. Damage costs only the damaged lines: a torn or bit-flipped record is
// skipped and re-measured while the records around it still answer. Records
// written under another configuration either describe the same measurement
// or are never looked up, so resuming needs no configuration check.
//
// FILE FORMAT — text, one record per line, each line independently framed
// with the <crc32-hex-8> <payload> scheme of support/crc32.h:
//
//   tuningdb v1                                   header
//   record <machine-hex-16> <site-hex-16> ok <latency %.17g>
//   record <machine-hex-16> <site-hex-16> fail    persistent failure
//   trailer records=<n>                           checkpoint: record lines so
//                                                 far, written by Close()
//
// `machine` is MachineFingerprint() of the sim::Machine the latency was
// measured on — a latency is only meaningful on the machine that produced it,
// so Lookup() is scoped to the handle's machine while the file freely mixes
// records from many. `site` is Fnv1a64 of the full measurement cache key
// (group structure + layouts + schedule), the same fingerprint the fault
// injector uses.
//
// TOLERANT LOAD. Records are independent facts: a corrupt line invalidates
// nothing around it. Open() therefore SKIPS lines that fail CRC or parsing
// (counting them in stats().skipped_records, mirrored to the
// measure.db_skipped_records counter) and keeps loading. A trailer whose
// count disagrees with the records actually seen is treated as forged and
// skipped the same way. Duplicate (machine, site) records keep the FIRST
// occurrence, matching the engine's own memoization.

#ifndef ALT_CORE_TUNING_DATABASE_H_
#define ALT_CORE_TUNING_DATABASE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/autotune/measure.h"
#include "src/sim/machine.h"
#include "src/support/fileio.h"
#include "src/support/status.h"

namespace alt::core {

// Stable fingerprint of every performance-affecting sim::Machine field.
// Latencies recorded under one fingerprint are never served to another.
uint64_t MachineFingerprint(const sim::Machine& machine);

class TuningDatabase : public autotune::MeasureDatabase {
 public:
  struct Stats {
    int64_t total_records = 0;      // valid record lines loaded, any machine
    int64_t loaded = 0;             // records usable by this handle's machine
    int64_t duplicate_records = 0;  // same (machine, site) seen again (first wins)
    int64_t skipped_records = 0;    // corrupt / unparsable / forged-trailer lines
    int64_t appended = 0;           // records written through by this handle
  };

  // Loads `path` (created if absent) scoped to `machine` and opens it for
  // appending. Corrupt lines are skipped, not fatal; only I/O errors fail.
  static StatusOr<std::unique_ptr<TuningDatabase>> Open(const std::string& path,
                                                        const sim::Machine& machine);

  // MeasureDatabase. Lookup answers only records for this handle's machine;
  // Record appends one framed line per fresh measurement (write-through).
  // Append failures are sticky in status(): the run continues unpersisted.
  std::optional<Entry> Lookup(uint64_t site) override;
  void Record(uint64_t site, const Entry& entry) override;

  // Appends a `trailer records=<n>` checkpoint and closes the file. Further
  // Records are dropped (sticky status). Called by the destructor if not
  // called explicitly; call it directly to observe the final status.
  Status Close();
  ~TuningDatabase() override;

  Stats stats() const;
  Status status() const;
  uint64_t machine_fingerprint() const { return machine_fp_; }

  TuningDatabase(const TuningDatabase&) = delete;
  TuningDatabase& operator=(const TuningDatabase&) = delete;

 private:
  TuningDatabase() = default;

  void Append(const std::string& payload);  // requires mu_ held

  mutable std::mutex mu_;
  uint64_t machine_fp_ = 0;
  std::unordered_map<uint64_t, Entry> entries_;  // this machine only
  AppendWriter writer_;
  bool open_ = false;
  Status status_ = Status::Ok();
  Stats stats_;
};

}  // namespace alt::core

#endif  // ALT_CORE_TUNING_DATABASE_H_
