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

// Inverse of EncodeSchedule, over its space-separated "key=value" tokens.
// Rejects what EncodeSchedule never writes: a token without '=', an unknown
// or repeated key, an unroll other than 0 or 1, and an empty list element.
// Also rejects structurally unsound schedules (a tile factor below 1,
// parallel_axes or inner_order_rotation outside [0, 64]), since the token
// grammar does not know the op signature and the result may be lowered.
StatusOr<LoopSchedule> DecodeSchedule(const std::vector<std::string>& tokens);

// Comma-separated int64 list; rejects empty, non-numeric or out-of-range
// entries.
StatusOr<std::vector<int64_t>> ParseInts(const std::string& s);

}  // namespace alt::loop

#endif  // ALT_LOOP_SERIALIZATION_H_
