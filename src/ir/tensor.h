// Tensor descriptors: a named, shaped buffer in the computational graph.
//
// The *storage layout* of a tensor is its shape plus the primitive sequence
// that produced it (tracked by the layout module); the descriptor here always
// reflects the current physical shape.

#ifndef ALT_IR_TENSOR_H_
#define ALT_IR_TENSOR_H_

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace alt::ir {

enum class DType { kFloat32, kInt32 };

inline int64_t DTypeBytes(DType t) {
  switch (t) {
    case DType::kFloat32:
    case DType::kInt32:
      return 4;
  }
  return 4;
}

// Role of a buffer inside a lowered program.
enum class BufferRole { kInput, kOutput, kIntermediate, kConstant };

struct Tensor {
  int id = -1;                   // graph-unique id
  std::string name;
  std::vector<int64_t> shape;    // physical shape (post layout transforms)
  DType dtype = DType::kFloat32;

  int64_t NumElements() const {
    int64_t n = 1;
    for (int64_t d : shape) {
      n *= d;
    }
    return n;
  }
  int64_t SizeBytes() const { return NumElements() * DTypeBytes(dtype); }
};

// Row-major strides (in elements) for a shape.
std::vector<int64_t> RowMajorStrides(const std::vector<int64_t>& shape);

std::string ShapeToString(const std::vector<int64_t>& shape);

}  // namespace alt::ir

#endif  // ALT_IR_TENSOR_H_
