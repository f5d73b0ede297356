#include "src/loop/serialization.h"

#include <set>
#include <sstream>

#include "src/support/string_util.h"

namespace alt::loop {

using layout::LayoutSeq;
using layout::Primitive;
using layout::PrimitiveKind;

std::string EncodePrimitive(const Primitive& p) {
  std::ostringstream oss;
  switch (p.kind) {
    case PrimitiveKind::kSplit:
      oss << "split:" << p.dim << ":" << Join(p.factors, ",");
      break;
    case PrimitiveKind::kReorder:
      oss << "reorder:" << Join(p.perm, ",");
      break;
    case PrimitiveKind::kFuse:
      oss << "fuse:" << p.dim << ":" << p.num_dims;
      break;
    case PrimitiveKind::kUnfold:
      oss << "unfold:" << p.dim << ":" << p.tile_size << ":" << p.stride;
      break;
    case PrimitiveKind::kPad:
      oss << "pad:" << p.dim << ":" << p.pad_before << ":" << p.pad_after;
      break;
    case PrimitiveKind::kStoreAt:
      oss << "store_at:" << p.store_src_tensor << ":" << p.dim;
      break;
  }
  return oss.str();
}

StatusOr<std::vector<int64_t>> ParseInts(const std::string& s) {
  std::vector<int64_t> out;
  for (const auto& part : Split(s, ',')) {
    auto v = ParseInt64(part);
    if (!v.ok()) {
      return v.status();
    }
    out.push_back(*v);
  }
  return out;
}

namespace {

StatusOr<int> ParseIntField(const std::string& s) {
  auto v = ParseInt32(s);
  if (!v.ok()) {
    return Status::InvalidArgument("bad primitive field: " + v.status().message());
  }
  return v;
}

StatusOr<int64_t> ParseInt64Field(const std::string& s) {
  auto v = ParseInt64(s);
  if (!v.ok()) {
    return Status::InvalidArgument("bad primitive field: " + v.status().message());
  }
  return v;
}

}  // namespace

StatusOr<Primitive> DecodePrimitive(const std::string& text) {
  auto fields = Split(text, ':');
  if (fields.empty()) {
    return Status::InvalidArgument("empty primitive");
  }
  const std::string& kind = fields[0];
  if (kind == "split" && fields.size() == 3) {
    auto dim = ParseIntField(fields[1]);
    auto factors = ParseInts(fields[2]);
    if (!dim.ok()) {
      return dim.status();
    }
    if (!factors.ok()) {
      return factors.status();
    }
    return Primitive::Split(*dim, *factors);
  }
  if (kind == "reorder" && fields.size() == 2) {
    auto vals = ParseInts(fields[1]);
    if (!vals.ok()) {
      return vals.status();
    }
    std::vector<int> perm;
    for (int64_t v : *vals) {
      perm.push_back(static_cast<int>(v));
    }
    return Primitive::Reorder(perm);
  }
  if (kind == "fuse" && fields.size() == 3) {
    auto dim = ParseIntField(fields[1]);
    auto num = ParseIntField(fields[2]);
    if (!dim.ok()) {
      return dim.status();
    }
    if (!num.ok()) {
      return num.status();
    }
    return Primitive::Fuse(*dim, *num);
  }
  if (kind == "unfold" && fields.size() == 4) {
    auto dim = ParseIntField(fields[1]);
    auto tile = ParseInt64Field(fields[2]);
    auto stride = ParseInt64Field(fields[3]);
    if (!dim.ok()) {
      return dim.status();
    }
    if (!tile.ok()) {
      return tile.status();
    }
    if (!stride.ok()) {
      return stride.status();
    }
    return Primitive::Unfold(*dim, *tile, *stride);
  }
  if (kind == "pad" && fields.size() == 4) {
    auto dim = ParseIntField(fields[1]);
    auto before = ParseInt64Field(fields[2]);
    auto after = ParseInt64Field(fields[3]);
    if (!dim.ok()) {
      return dim.status();
    }
    if (!before.ok()) {
      return before.status();
    }
    if (!after.ok()) {
      return after.status();
    }
    return Primitive::Pad(*dim, *before, *after);
  }
  if (kind == "store_at" && fields.size() == 3) {
    auto src = ParseIntField(fields[1]);
    auto dim = ParseIntField(fields[2]);
    if (!src.ok()) {
      return src.status();
    }
    if (!dim.ok()) {
      return dim.status();
    }
    return Primitive::StoreAt(*src, *dim);
  }
  return Status::InvalidArgument("unparsable primitive: " + text);
}

std::string EncodeLayoutSeq(const LayoutSeq& seq) {
  std::ostringstream oss;
  bool first = true;
  for (const auto& p : seq.primitives()) {
    if (!first) {
      oss << " ";
    }
    oss << EncodePrimitive(p);
    first = false;
  }
  return oss.str();
}

std::string EncodeSchedule(const LoopSchedule& sched) {
  std::ostringstream oss;
  oss << "s=";
  for (size_t j = 0; j < sched.spatial.size(); ++j) {
    if (j > 0) {
      oss << ";";
    }
    oss << sched.spatial[j].outer << "," << sched.spatial[j].mid << ","
        << sched.spatial[j].inner << "," << sched.spatial[j].vec;
  }
  oss << " r=";
  for (size_t j = 0; j < sched.reduction.size(); ++j) {
    if (j > 0) {
      oss << ";";
    }
    oss << sched.reduction[j].outer << "," << sched.reduction[j].inner;
  }
  oss << " par=" << sched.parallel_axes << " rot=" << sched.inner_order_rotation
      << " unroll=" << (sched.unroll_inner_reduction ? 1 : 0);
  return oss.str();
}

namespace {

// Splits a ';'-separated list of axes into their int lists, each of exactly
// `arity` entries. An empty value is the empty list.
StatusOr<std::vector<std::vector<int64_t>>> ParseAxes(const std::string& value, size_t arity) {
  std::vector<std::vector<int64_t>> axes;
  if (value.empty()) {
    return axes;
  }
  for (const auto& axis : Split(value, ';')) {
    auto parts = ParseInts(axis);
    if (!parts.ok()) {
      return parts.status();
    }
    if (parts->size() != arity) {
      return Status::InvalidArgument("bad schedule axis: " + axis);
    }
    axes.push_back(std::move(*parts));
  }
  return axes;
}

Status ValidateSchedule(const LoopSchedule& sched) {
  for (size_t j = 0; j < sched.spatial.size(); ++j) {
    const auto& a = sched.spatial[j];
    if (a.outer < 1 || a.mid < 1 || a.inner < 1 || a.vec < 1) {
      return Status::InvalidArgument("spatial axis " + std::to_string(j) +
                                     ": tile factors must be >= 1");
    }
  }
  for (size_t k = 0; k < sched.reduction.size(); ++k) {
    const auto& a = sched.reduction[k];
    if (a.outer < 1 || a.inner < 1) {
      return Status::InvalidArgument("reduction axis " + std::to_string(k) +
                                     ": tile factors must be >= 1");
    }
  }
  if (sched.parallel_axes < 0 || sched.parallel_axes > 64) {
    return Status::InvalidArgument("parallel_axes out of range");
  }
  if (sched.inner_order_rotation < 0 || sched.inner_order_rotation > 64) {
    return Status::InvalidArgument("inner_order_rotation out of range");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<LoopSchedule> DecodeSchedule(const std::vector<std::string>& tokens) {
  LoopSchedule sched;
  std::set<std::string> seen;
  for (const std::string& token : tokens) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad schedule token: " + token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (!seen.insert(key).second) {
      return Status::InvalidArgument("repeated schedule token: " + token);
    }
    if (key == "s") {
      auto axes = ParseAxes(value, 4);
      if (!axes.ok()) {
        return axes.status();
      }
      for (const auto& a : *axes) {
        sched.spatial.push_back({a[0], a[1], a[2], a[3]});
      }
    } else if (key == "r") {
      auto axes = ParseAxes(value, 2);
      if (!axes.ok()) {
        return axes.status();
      }
      for (const auto& a : *axes) {
        sched.reduction.push_back({a[0], a[1]});
      }
    } else if (key == "par") {
      auto v = ParseInt32(value);
      if (!v.ok()) {
        return v.status();
      }
      sched.parallel_axes = *v;
    } else if (key == "rot") {
      auto v = ParseInt32(value);
      if (!v.ok()) {
        return v.status();
      }
      sched.inner_order_rotation = *v;
    } else if (key == "unroll" && (value == "0" || value == "1")) {
      sched.unroll_inner_reduction = value == "1";
    } else {
      return Status::InvalidArgument("bad schedule token: " + token);
    }
  }
  ALT_RETURN_IF_ERROR(ValidateSchedule(sched));
  return sched;
}

}  // namespace alt::loop
