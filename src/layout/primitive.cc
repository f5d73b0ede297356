#include "src/layout/primitive.h"

#include <sstream>

#include "src/support/string_util.h"

namespace alt::layout {

Primitive Primitive::Split(int dim, std::vector<int64_t> factors) {
  Primitive p;
  p.kind = PrimitiveKind::kSplit;
  p.dim = dim;
  p.factors = std::move(factors);
  return p;
}

Primitive Primitive::Reorder(std::vector<int> perm) {
  Primitive p;
  p.kind = PrimitiveKind::kReorder;
  p.perm = std::move(perm);
  return p;
}

Primitive Primitive::Fuse(int dim, int num_dims) {
  Primitive p;
  p.kind = PrimitiveKind::kFuse;
  p.dim = dim;
  p.num_dims = num_dims;
  return p;
}

Primitive Primitive::Unfold(int dim, int64_t tile_size, int64_t stride) {
  Primitive p;
  p.kind = PrimitiveKind::kUnfold;
  p.dim = dim;
  p.tile_size = tile_size;
  p.stride = stride;
  return p;
}

Primitive Primitive::Pad(int dim, int64_t before, int64_t after) {
  Primitive p;
  p.kind = PrimitiveKind::kPad;
  p.dim = dim;
  p.pad_before = before;
  p.pad_after = after;
  return p;
}

Primitive Primitive::StoreAt(int src_tensor, int dim) {
  Primitive p;
  p.kind = PrimitiveKind::kStoreAt;
  p.dim = dim;
  p.store_src_tensor = src_tensor;
  return p;
}

bool Primitive::IsNontrivialAdvanced() const {
  switch (kind) {
    case PrimitiveKind::kUnfold:
      // Overlapped tiling duplicates data whenever the stride is smaller than
      // the tile; a non-overlapping unfold (S == B) is an ordinary split.
      return stride < tile_size;
    case PrimitiveKind::kPad:
      return pad_before != 0 || pad_after != 0;
    case PrimitiveKind::kStoreAt:
      return true;
    default:
      return false;
  }
}

std::string Primitive::ToString() const {
  std::ostringstream oss;
  switch (kind) {
    case PrimitiveKind::kSplit:
      oss << "split(dim=" << dim << ", factors=[" << Join(factors, ", ") << "])";
      break;
    case PrimitiveKind::kReorder:
      oss << "reorder(perm=[" << Join(perm, ", ") << "])";
      break;
    case PrimitiveKind::kFuse:
      oss << "fuse(dim=" << dim << ", num=" << num_dims << ")";
      break;
    case PrimitiveKind::kUnfold:
      oss << "unfold(dim=" << dim << ", tile=" << tile_size << ", stride=" << stride << ")";
      break;
    case PrimitiveKind::kPad:
      oss << "pad(dim=" << dim << ", before=" << pad_before << ", after=" << pad_after << ")";
      break;
    case PrimitiveKind::kStoreAt:
      oss << "store_at(src=T" << store_src_tensor << ", dim=" << dim << ")";
      break;
  }
  return oss.str();
}

// Shared with relation.cc (the relation replays primitive steps for shape
// transforms and access-map emission).
namespace detail {

// Number of tiles an unfold produces: ceil((D - B) / S) + 1 (paper §4.1.2).
int64_t UnfoldTiles(int64_t extent, int64_t tile, int64_t stride) {
  int64_t n = (extent - tile + stride - 1) / stride + 1;
  return n < 1 ? 1 : n;
}

Status ApplyPrimitiveToShape(const Primitive& p, std::vector<int64_t>& shape) {
  int rank = static_cast<int>(shape.size());
  switch (p.kind) {
    case PrimitiveKind::kSplit: {
      if (p.dim < 0 || p.dim >= rank) {
        return Status::InvalidArgument("split: dim out of range");
      }
      int64_t prod = 1;
      for (int64_t f : p.factors) {
        if (f <= 0) {
          return Status::InvalidArgument("split: non-positive factor");
        }
        prod *= f;
      }
      if (prod != shape[p.dim]) {
        return Status::InvalidArgument("split: factors do not multiply to the extent");
      }
      shape.erase(shape.begin() + p.dim);
      shape.insert(shape.begin() + p.dim, p.factors.begin(), p.factors.end());
      return Status::Ok();
    }
    case PrimitiveKind::kReorder: {
      if (static_cast<int>(p.perm.size()) != rank) {
        return Status::InvalidArgument("reorder: permutation size mismatch");
      }
      std::vector<bool> seen(rank, false);
      std::vector<int64_t> out(rank);
      for (int d = 0; d < rank; ++d) {
        int s = p.perm[d];
        if (s < 0 || s >= rank || seen[s]) {
          return Status::InvalidArgument("reorder: invalid permutation");
        }
        seen[s] = true;
        out[d] = shape[s];
      }
      shape = std::move(out);
      return Status::Ok();
    }
    case PrimitiveKind::kFuse: {
      if (p.dim < 0 || p.num_dims < 2 || p.dim + p.num_dims > rank) {
        return Status::InvalidArgument("fuse: dim range out of bounds");
      }
      int64_t prod = 1;
      for (int i = 0; i < p.num_dims; ++i) {
        prod *= shape[p.dim + i];
      }
      shape.erase(shape.begin() + p.dim, shape.begin() + p.dim + p.num_dims);
      shape.insert(shape.begin() + p.dim, prod);
      return Status::Ok();
    }
    case PrimitiveKind::kUnfold: {
      if (p.dim < 0 || p.dim >= rank) {
        return Status::InvalidArgument("unfold: dim out of range");
      }
      if (p.tile_size <= 0 || p.stride <= 0 || p.stride > p.tile_size) {
        return Status::InvalidArgument("unfold: require 0 < stride <= tile_size");
      }
      if (p.tile_size > shape[p.dim]) {
        return Status::InvalidArgument("unfold: tile larger than extent");
      }
      int64_t tiles = UnfoldTiles(shape[p.dim], p.tile_size, p.stride);
      shape[p.dim] = tiles;
      shape.insert(shape.begin() + p.dim + 1, p.tile_size);
      return Status::Ok();
    }
    case PrimitiveKind::kPad: {
      if (p.dim < 0 || p.dim >= rank) {
        return Status::InvalidArgument("pad: dim out of range");
      }
      if (p.pad_before < 0 || p.pad_after < 0) {
        return Status::InvalidArgument("pad: negative padding");
      }
      shape[p.dim] += p.pad_before + p.pad_after;
      return Status::Ok();
    }
    case PrimitiveKind::kStoreAt: {
      if (p.dim < 0 || p.dim >= rank) {
        return Status::InvalidArgument("store_at: dim out of range");
      }
      shape[p.dim] += 1;
      return Status::Ok();
    }
  }
  return Status::Internal("unknown primitive");
}

}  // namespace detail

using detail::ApplyPrimitiveToShape;

Status LayoutSeq::ApplyToShape(std::vector<int64_t>& shape) const {
  for (const auto& p : prims_) {
    ALT_RETURN_IF_ERROR(ApplyPrimitiveToShape(p, shape));
  }
  return Status::Ok();
}

std::string LayoutSeq::ToString() const {
  std::ostringstream oss;
  for (size_t i = 0; i < prims_.size(); ++i) {
    if (i > 0) {
      oss << "; ";
    }
    oss << prims_[i].ToString();
  }
  return oss.str();
}

const Primitive* HostedStoreAt(const LayoutSeq& seq) {
  if (seq.size() != 1 || seq.primitives()[0].kind != PrimitiveKind::kStoreAt) {
    return nullptr;
  }
  return &seq.primitives()[0];
}

}  // namespace alt::layout
