#include "src/ir/value.h"

#include <sstream>

namespace alt::ir {

namespace {

Val MakeBinary(ValKind kind, const Val& a, const Val& b) {
  auto node = std::make_shared<ValNode>();
  node->kind = kind;
  node->a = a;
  node->b = b;
  return node;
}

Val MakeUnary(ValKind kind, const Val& a) {
  auto node = std::make_shared<ValNode>();
  node->kind = kind;
  node->a = a;
  return node;
}

}  // namespace

Val Imm(double v) {
  auto node = std::make_shared<ValNode>();
  node->kind = ValKind::kImm;
  node->imm = v;
  return node;
}

Val Load(int tensor_id, std::vector<Expr> indices) {
  auto node = std::make_shared<ValNode>();
  node->kind = ValKind::kLoad;
  node->tensor_id = tensor_id;
  node->indices = std::move(indices);
  return node;
}

Val VAdd(const Val& a, const Val& b) { return MakeBinary(ValKind::kAdd, a, b); }
Val VSub(const Val& a, const Val& b) { return MakeBinary(ValKind::kSub, a, b); }
Val VMul(const Val& a, const Val& b) { return MakeBinary(ValKind::kMul, a, b); }
Val VDiv(const Val& a, const Val& b) { return MakeBinary(ValKind::kDiv, a, b); }
Val VMax(const Val& a, const Val& b) { return MakeBinary(ValKind::kMax, a, b); }
Val VMin(const Val& a, const Val& b) { return MakeBinary(ValKind::kMin, a, b); }
Val VExp(const Val& a) { return MakeUnary(ValKind::kExp, a); }
Val VTanh(const Val& a) { return MakeUnary(ValKind::kTanh, a); }
Val VSqrt(const Val& a) { return MakeUnary(ValKind::kSqrt, a); }

Val Select(std::vector<IntervalCond> conds, const Val& then_val, const Val& else_val) {
  auto node = std::make_shared<ValNode>();
  node->kind = ValKind::kSelect;
  node->conds = std::move(conds);
  node->a = then_val;
  node->b = else_val;
  return node;
}

Val RewriteIndices(const Val& v, const std::function<Expr(const Expr&)>& fn) {
  auto node = std::make_shared<ValNode>(*v);
  if (v->kind == ValKind::kLoad) {
    for (auto& idx : node->indices) {
      idx = fn(idx);
    }
    return node;
  }
  for (auto& cond : node->conds) {
    cond.expr = fn(cond.expr);
  }
  if (v->a) {
    node->a = RewriteIndices(v->a, fn);
  }
  if (v->b) {
    node->b = RewriteIndices(v->b, fn);
  }
  return node;
}

Val RewriteLoadsOfTensor(
    const Val& v, int tensor_id,
    const std::function<std::vector<Expr>(const std::vector<Expr>&)>& fn) {
  if (v->kind == ValKind::kLoad) {
    if (v->tensor_id != tensor_id) {
      return v;
    }
    auto node = std::make_shared<ValNode>(*v);
    node->indices = fn(v->indices);
    return node;
  }
  auto node = std::make_shared<ValNode>(*v);
  if (v->a) {
    node->a = RewriteLoadsOfTensor(v->a, tensor_id, fn);
  }
  if (v->b) {
    node->b = RewriteLoadsOfTensor(v->b, tensor_id, fn);
  }
  return node;
}

Val SubstituteVal(const Val& v, const std::unordered_map<int, Expr>& map) {
  return RewriteIndices(v, [&map](const Expr& e) { return Substitute(e, map); });
}

namespace {
void CollectLoadTensorsInto(const Val& v, std::vector<int>& out) {
  if (v->kind == ValKind::kLoad) {
    for (int id : out) {
      if (id == v->tensor_id) {
        return;
      }
    }
    out.push_back(v->tensor_id);
    return;
  }
  if (v->a) {
    CollectLoadTensorsInto(v->a, out);
  }
  if (v->b) {
    CollectLoadTensorsInto(v->b, out);
  }
}
}  // namespace

std::vector<int> CollectLoadTensors(const Val& v) {
  std::vector<int> out;
  CollectLoadTensorsInto(v, out);
  return out;
}

std::string ToString(const Val& v) {
  std::ostringstream oss;
  switch (v->kind) {
    case ValKind::kImm:
      oss << v->imm;
      break;
    case ValKind::kLoad: {
      oss << "T" << v->tensor_id;
      for (const auto& idx : v->indices) {
        oss << "[" << ToString(idx) << "]";
      }
      break;
    }
    case ValKind::kAdd:
      oss << "(" << ToString(v->a) << " + " << ToString(v->b) << ")";
      break;
    case ValKind::kSub:
      oss << "(" << ToString(v->a) << " - " << ToString(v->b) << ")";
      break;
    case ValKind::kMul:
      oss << "(" << ToString(v->a) << " * " << ToString(v->b) << ")";
      break;
    case ValKind::kDiv:
      oss << "(" << ToString(v->a) << " / " << ToString(v->b) << ")";
      break;
    case ValKind::kMax:
      oss << "max(" << ToString(v->a) << ", " << ToString(v->b) << ")";
      break;
    case ValKind::kMin:
      oss << "min(" << ToString(v->a) << ", " << ToString(v->b) << ")";
      break;
    case ValKind::kExp:
      oss << "exp(" << ToString(v->a) << ")";
      break;
    case ValKind::kTanh:
      oss << "tanh(" << ToString(v->a) << ")";
      break;
    case ValKind::kSqrt:
      oss << "sqrt(" << ToString(v->a) << ")";
      break;
    case ValKind::kSelect: {
      oss << "select(";
      for (size_t i = 0; i < v->conds.size(); ++i) {
        if (i > 0) {
          oss << " && ";
        }
        oss << v->conds[i].lo << " <= " << ToString(v->conds[i].expr) << " < " << v->conds[i].hi;
      }
      oss << ", " << ToString(v->a) << ", " << ToString(v->b) << ")";
      break;
    }
  }
  return oss.str();
}

}  // namespace alt::ir
