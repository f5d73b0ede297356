// Text encoding of layout primitive sequences and loop schedules.
//
// Artifacts (src/core/artifact.cc) store layouts and schedules in this form,
// and the measurement cache keys candidates by exactly the same strings — a
// (layout sequence, schedule) pair that serializes identically is by
// construction the same measurement, so the cache and the on-disk format can
// never drift apart.
//
// All decoders take untrusted text: they return Status instead of throwing,
// including on non-numeric or out-of-range integers (see ParseInt64).

#ifndef ALT_LOOP_SERIALIZATION_H_
#define ALT_LOOP_SERIALIZATION_H_

#include <string>
#include <vector>

#include "src/layout/primitive.h"
#include "src/loop/schedule.h"
#include "src/support/status.h"

namespace alt::loop {

// "split:1:4,8" / "reorder:0,2,1" / "unfold:2:3:1" ... (one primitive).
std::string EncodePrimitive(const layout::Primitive& p);
StatusOr<layout::Primitive> DecodePrimitive(const std::string& text);

// Space-separated primitives; empty string for the canonical layout.
std::string EncodeLayoutSeq(const layout::LayoutSeq& seq);

// "s=o,m,i,v;... r=o,i;... par=N rot=N unroll=0|1" — the schedule portion of
// an artifact group line.
std::string EncodeSchedule(const LoopSchedule& sched);

// Applies one "key=value" schedule token to `sched`. Unknown keys are
// ignored (forward compatibility with newer writers).
Status DecodeScheduleToken(const std::string& key, const std::string& value,
                           LoopSchedule& sched);

// Comma-separated int64 list; rejects non-numeric or out-of-range entries.
StatusOr<std::vector<int64_t>> ParseInts(const std::string& s);

// Structural sanity of a decoded schedule: every tile factor >= 1,
// parallel_axes and inner_order_rotation within [0, 64]. Decoders accept any
// integers (the token grammar doesn't know the op signature), so untrusted
// schedules must pass through this before being lowered or stored.
Status ValidateSchedule(const LoopSchedule& sched);

}  // namespace alt::loop

#endif  // ALT_LOOP_SERIALIZATION_H_
