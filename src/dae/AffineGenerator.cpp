//===- dae/AffineGenerator.cpp - Polyhedral access synthesis ---------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dae/AffineGenerator.h"

#include "analysis/LoopInfo.h"
#include "analysis/ScalarEvolution.h"
#include "ir/IRBuilder.h"
#include "pm/Analyses.h"
#include "poly/ConvexHull.h"
#include "support/Casting.h"
#include "support/Format.h"

#include <algorithm>
#include <set>

using namespace dae;
using namespace dae::analysis;
using namespace dae::ir;
using namespace dae::poly;

namespace {

//===----------------------------------------------------------------------===//
// Parameter space
//===----------------------------------------------------------------------===//

/// Integer arguments of the task, in argument order. These are the symbolic
/// parameters of every polyhedron (dimensions the generator never scans).
std::vector<const Value *> collectParams(const Function &Task) {
  std::vector<const Value *> Params;
  for (const auto &A : Task.args())
    if (A->getType() == Type::Int64)
      Params.push_back(A.get());
  return Params;
}

int paramIndex(const std::vector<const Value *> &Params, const Value *P) {
  for (unsigned I = 0; I != Params.size(); ++I)
    if (Params[I] == P)
      return static_cast<int>(I);
  return -1;
}

//===----------------------------------------------------------------------===//
// Access classes
//===----------------------------------------------------------------------===//

/// One access class: same base array, same shape, same parameter signature
/// (the paper's classA / classD separation, section 5.1 item 3).
struct AccessClass {
  Value *Base = nullptr;
  std::vector<std::int64_t> DimSizes;
  std::int64_t ElemSize = 0;
  std::vector<int> ParamSig; ///< Sorted parameter indices.
  std::vector<Polyhedron> Images;

  unsigned dims() const { return static_cast<unsigned>(DimSizes.size()); }
};

std::vector<int> signatureOf(const AffineAccess &Acc,
                             const std::vector<const Value *> &Params) {
  std::vector<int> Sig;
  for (const Value *P : Acc.paramSignature()) {
    int Idx = paramIndex(Params, P);
    assert(Idx >= 0 && "access references unknown parameter");
    Sig.push_back(Idx);
  }
  std::sort(Sig.begin(), Sig.end());
  return Sig;
}

//===----------------------------------------------------------------------===//
// Loop-nest emission helpers
//===----------------------------------------------------------------------===//

/// Emits floor(Num / Den) for a positive constant Den, correct for negative
/// numerators: (Num - ((Num % Den + Den) % Den)) / Den.
Value *emitFloorDiv(IRBuilder &B, Value *Num, std::int64_t Den) {
  assert(Den > 0 && "floor division by non-positive constant");
  if (Den == 1)
    return Num;
  Value *D = B.getInt(Den);
  Value *Rem = B.createSRem(Num, D);
  Value *Fixed = B.createSRem(B.createAdd(Rem, D), D);
  return B.createSDiv(B.createSub(Num, Fixed), D);
}

/// Emits ceil(Num / Den) = -floor(-Num / Den) for positive constant Den.
Value *emitCeilDiv(IRBuilder &B, Value *Num, std::int64_t Den) {
  if (Den == 1)
    return Num;
  Value *NegNum = B.createSub(B.getInt(0), Num);
  Value *Floored = emitFloorDiv(B, NegNum, Den);
  return B.createSub(B.getInt(0), Floored);
}

Value *emitMax(IRBuilder &B, Value *L, Value *R) {
  Value *Cmp = B.createCmp(CmpPred::SGT, L, R);
  return B.createSelect(Cmp, L, R);
}

Value *emitMin(IRBuilder &B, Value *L, Value *R) {
  Value *Cmp = B.createCmp(CmpPred::SLT, L, R);
  return B.createSelect(Cmp, L, R);
}

/// Emission context mapping polyhedron variables to IR values.
struct ScanContext {
  unsigned Dims = 0;                       ///< Number of scanned y dims.
  std::vector<Value *> YValues;            ///< IVs of emitted loops.
  std::vector<Value *> ParamValues;        ///< Access-fn args per parameter.
};

/// Emits the IR value of (Const + sum coeffs*vars) excluding variable
/// \p Skip. Variables [0, Dims) read from Ctx.YValues, the rest from
/// Ctx.ParamValues.
Value *emitLinearRest(IRBuilder &B, const PolyConstraint &C, unsigned Skip,
                      const ScanContext &Ctx) {
  Value *Acc = B.getInt(C.Const);
  for (unsigned V = 0; V != C.Coeffs.size(); ++V) {
    if (V == Skip || C.Coeffs[V] == 0)
      continue;
    Value *Var = V < Ctx.Dims ? Ctx.YValues[V]
                              : Ctx.ParamValues[V - Ctx.Dims];
    assert(Var && "scan references a dimension with no value yet");
    Value *Term = C.Coeffs[V] == 1
                      ? Var
                      : B.createMul(Var, B.getInt(C.Coeffs[V]));
    Acc = B.createAdd(Acc, Term);
  }
  return Acc;
}

/// Computes the [lower, upperExclusive) IR bounds of dimension \p Dim of
/// \p Scan, given values for outer dims and parameters in \p Ctx.
std::pair<Value *, Value *> emitDimBounds(IRBuilder &B, const Polyhedron &Scan,
                                          unsigned Dim,
                                          const ScanContext &Ctx) {
  // Project away inner dims so bounds depend only on outer dims + params.
  Polyhedron P = Scan;
  for (unsigned Inner = Dim + 1; Inner != Ctx.Dims; ++Inner)
    P = P.eliminate(Inner);
  P = P.removeRedundant();

  Value *Lower = nullptr, *UpperExcl = nullptr;
  for (const PolyConstraint &C : P.constraints()) {
    std::int64_t A = C.Coeffs[Dim];
    if (A == 0)
      continue;
    Value *Rest = emitLinearRest(B, C, Dim, Ctx);
    if (A > 0) {
      // A*y + rest >= 0  =>  y >= ceil(-rest / A).
      Value *Neg = B.createSub(B.getInt(0), Rest);
      Value *Bound = emitCeilDiv(B, Neg, A);
      Lower = Lower ? emitMax(B, Lower, Bound) : Bound;
    } else {
      // A*y + rest >= 0, A < 0  =>  y <= floor(rest / -A).
      Value *Bound = emitFloorDiv(B, Rest, -A);
      Value *Excl = B.createAdd(Bound, B.getInt(1));
      UpperExcl = UpperExcl ? emitMin(B, UpperExcl, Excl) : Excl;
    }
  }
  assert(Lower && UpperExcl && "scan dimension is unbounded");
  return {Lower, UpperExcl};
}

/// A prefetch target inside a (possibly merged) nest.
struct PrefetchTarget {
  Value *Base = nullptr;                ///< Remapped to the access function.
  std::vector<std::int64_t> DimSizes;
  std::int64_t ElemSize = 0;
  /// Per-dimension offset constants relative to the scanned class's lower
  /// bound (zero vector for the class that owns the scan shape); see nest
  /// merging. Values are emitted as (scan IV + OffsetExpr_d).
  std::vector<Value *> OffsetExprs; ///< Null entries mean zero offset.
};

/// Recursively emits the scan loops for \p Scan and calls prefetches in the
/// innermost body. \p Step applies to the innermost dimension only.
void emitScanLoops(IRBuilder &B, const Polyhedron &Scan, unsigned Dim,
                   ScanContext &Ctx,
                   const std::vector<PrefetchTarget> &Targets,
                   std::int64_t InnerStep) {
  if (Dim == Ctx.Dims) {
    for (const PrefetchTarget &T : Targets) {
      std::vector<Value *> Indices;
      for (unsigned D = 0; D != Ctx.Dims; ++D) {
        Value *Idx = Ctx.YValues[D];
        if (D < T.OffsetExprs.size() && T.OffsetExprs[D])
          Idx = B.createAdd(Idx, T.OffsetExprs[D]);
        Indices.push_back(Idx);
      }
      Value *Ptr = B.createGep(T.Base, Indices, T.DimSizes, T.ElemSize);
      B.createPrefetch(Ptr);
    }
    return;
  }

  auto [Lower, UpperExcl] = emitDimBounds(B, Scan, Dim, Ctx);
  std::int64_t Step = Dim + 1 == Ctx.Dims ? InnerStep : 1;
  emitCountedLoop(B, Lower, UpperExcl, B.getInt(Step),
                  strfmt("pf%u", Dim),
                  [&](IRBuilder &Inner, Value *IV) {
                    Ctx.YValues[Dim] = IV;
                    emitScanLoops(Inner, Scan, Dim + 1, Ctx, Targets,
                                  InnerStep);
                  });
  Ctx.YValues[Dim] = nullptr;
}

//===----------------------------------------------------------------------===//
// Counting helpers
//===----------------------------------------------------------------------===//

/// Substitutes representative values for all parameter dims of \p P.
Polyhedron instantiateParams(const Polyhedron &P, unsigned Dims,
                             const std::vector<std::int64_t> &ParamValues) {
  Polyhedron Res = P;
  for (unsigned I = 0; I != ParamValues.size(); ++I)
    Res = Res.instantiate(Dims + I, ParamValues[I]);
  return Res;
}

/// |union of images| at the representative parameters, or nullopt over limit.
std::optional<long long>
countUnion(const std::vector<Polyhedron> &Images, unsigned Dims,
           const std::vector<std::int64_t> &ParamValues, long long Limit) {
  std::set<std::vector<std::int64_t>> Points;
  for (const Polyhedron &Img : Images) {
    Polyhedron Inst = instantiateParams(Img, Dims, ParamValues);
    auto Count = Inst.countIntegerPoints(Limit);
    if (!Count)
      return std::nullopt;
    for (auto &Pt : Inst.enumerateIntegerPoints(Limit)) {
      Pt.resize(Dims); // Drop the (instantiated) parameter coordinates.
      Points.insert(std::move(Pt));
      if (static_cast<long long>(Points.size()) > Limit)
        return std::nullopt;
    }
  }
  return static_cast<long long>(Points.size());
}

/// True when every scan dimension of \p P has at least one symbolic lower
/// and upper bound after projecting inner dimensions away. A hull of blocks
/// at unrelated parameter offsets needs min()/max() bounds, which H-form
/// cannot express — such scans are not emittable and the planner must fall
/// back (this is the quantitative argument for the paper's class
/// separation).
bool scanIsEmittable(const Polyhedron &Scan, unsigned Dims) {
  for (unsigned Dim = 0; Dim != Dims; ++Dim) {
    Polyhedron P = Scan;
    for (unsigned Inner = Dim + 1; Inner != Dims; ++Inner)
      P = P.eliminate(Inner);
    bool HasLower = false, HasUpper = false;
    for (const PolyConstraint &C : P.constraints()) {
      if (C.Coeffs[Dim] > 0)
        HasLower = true;
      else if (C.Coeffs[Dim] < 0)
        HasUpper = true;
    }
    if (!HasLower || !HasUpper)
      return false;
  }
  return true;
}

/// True when every constraint of \p P involves at most one scanned (y)
/// dimension — i.e. the scan shape is a per-dimension box (possibly with
/// parametric bounds). Merging offsets require box shapes.
bool isBoxShape(const Polyhedron &P, unsigned Dims) {
  for (const PolyConstraint &C : P.constraints()) {
    unsigned NumY = 0;
    for (unsigned V = 0; V != Dims; ++V)
      if (C.Coeffs[V] != 0)
        ++NumY;
    if (NumY > 1)
      return false;
  }
  return true;
}

/// Per-dimension extents (hi - lo + 1) at representative parameters; nullopt
/// when unbounded.
std::optional<std::vector<std::int64_t>>
dimExtents(const Polyhedron &P, unsigned Dims,
           const std::vector<std::int64_t> &ParamValues) {
  Polyhedron Inst = instantiateParams(P, Dims, ParamValues);
  std::vector<std::int64_t> Ext;
  for (unsigned D = 0; D != Dims; ++D) {
    auto B = Inst.integerBounds(D);
    if (!B.Lo || !B.Hi)
      return std::nullopt;
    Ext.push_back(*B.Hi - *B.Lo + 1);
  }
  return Ext;
}

} // namespace

//===----------------------------------------------------------------------===//
// Access image computation
//===----------------------------------------------------------------------===//

std::optional<Polyhedron>
dae::computeAccessImage(const AffineAccess &Acc, ScalarEvolution &SE,
                        const std::vector<const Value *> &Params) {
  const LoopInfo &LI = SE.getLoopInfo();
  const unsigned D = static_cast<unsigned>(Acc.Indices.size());
  const unsigned M = static_cast<unsigned>(Params.size());

  // Enclosing loops, outermost first.
  std::vector<const Loop *> Loops;
  for (Loop *L = LI.getLoopFor(Acc.MemInst->getParent()); L;
       L = L->getParent())
    Loops.push_back(L);
  std::reverse(Loops.begin(), Loops.end());
  const unsigned NIV = static_cast<unsigned>(Loops.size());

  auto ivIndex = [&](const Loop *L) -> int {
    for (unsigned I = 0; I != Loops.size(); ++I)
      if (Loops[I] == L)
        return static_cast<int>(I);
    return -1;
  };

  // Combined space: [0, D) = y, [D, D+NIV) = IVs, [D+NIV, D+NIV+M) = params.
  const unsigned Total = D + NIV + M;
  Polyhedron Combined(Total);

  auto addAffineTerm = [&](std::vector<std::int64_t> &Row,
                           const AffineExpr &E, std::int64_t Scale,
                           std::int64_t &Const) -> bool {
    Const += Scale * E.Const;
    for (const auto &[L, C] : E.IVCoeffs) {
      int Idx = ivIndex(L);
      if (Idx < 0)
        return false; // References an IV outside the enclosing nest.
      Row[D + static_cast<unsigned>(Idx)] += Scale * C;
    }
    for (const auto &[P, C] : E.ParamCoeffs) {
      int Idx = paramIndex(Params, P);
      if (Idx < 0)
        return false;
      Row[D + NIV + static_cast<unsigned>(Idx)] += Scale * C;
    }
    return true;
  };

  // y_t == f_t(iv, p).
  for (unsigned T = 0; T != D; ++T) {
    std::vector<std::int64_t> Row(Total, 0);
    std::int64_t Const = 0;
    Row[T] = 1;
    if (!addAffineTerm(Row, Acc.Indices[T], -1, Const))
      return std::nullopt;
    Combined.addEquality(std::move(Row), Const);
  }

  // Domain: Lower <= iv < Upper for each enclosing loop.
  for (unsigned I = 0; I != NIV; ++I) {
    auto Bounds = SE.getLoopBounds(Loops[I]);
    if (!Bounds)
      return std::nullopt;
    {
      std::vector<std::int64_t> Row(Total, 0);
      std::int64_t Const = 0;
      Row[D + I] = 1;
      if (!addAffineTerm(Row, Bounds->Lower, -1, Const))
        return std::nullopt;
      Combined.addInequality(std::move(Row), Const);
    }
    {
      std::vector<std::int64_t> Row(Total, 0);
      std::int64_t Const = -1; // iv <= Upper - 1.
      Row[D + I] = -1;
      if (!addAffineTerm(Row, Bounds->Upper, 1, Const))
        return std::nullopt;
      Combined.addInequality(std::move(Row), Const);
    }
  }

  // Project out the IV dims.
  for (unsigned I = 0; I != NIV; ++I)
    Combined = Combined.eliminate(D + I);
  Combined = Combined.removeRedundant();

  // Repack into [y][p] layout.
  Polyhedron Image(D + M);
  for (const PolyConstraint &C : Combined.constraints()) {
    std::vector<std::int64_t> Row(D + M, 0);
    bool UsesIV = false;
    for (unsigned V = 0; V != Total; ++V) {
      if (C.Coeffs[V] == 0)
        continue;
      if (V < D)
        Row[V] = C.Coeffs[V];
      else if (V < D + NIV)
        UsesIV = true;
      else
        Row[D + (V - D - NIV)] = C.Coeffs[V];
    }
    assert(!UsesIV && "projection left an IV term behind");
    if (UsesIV)
      return std::nullopt;
    Image.addInequality(std::move(Row), C.Const);
  }
  return Image;
}

//===----------------------------------------------------------------------===//
// Generator driver
//===----------------------------------------------------------------------===//

AccessPhaseResult dae::generateAffineAccess(Module &M, Function &Task,
                                            const DaeOptions &Opts,
                                            pm::FunctionAnalysisManager &FAM) {
  AccessPhaseResult Result;
  Result.Strategy = TaskClass::Affine;

  ScalarEvolution &SE = FAM.getResult<pm::ScalarEvolutionAnalysis>(Task);
  std::vector<const Value *> Params = collectParams(Task);

  // Representative parameter values (defaults keep counting bounded).
  std::vector<std::int64_t> RepValues;
  for (unsigned I = 0; I != Params.size(); ++I) {
    const auto *Arg = cast<Argument>(Params[I]);
    std::int64_t V = 8;
    if (Arg->getIndex() < Opts.RepresentativeArgs.size())
      V = Opts.RepresentativeArgs[Arg->getIndex()];
    RepValues.push_back(V);
  }

  // Collect and classify accesses. Reads only, unless PrefetchWrites.
  std::vector<AccessClass> Classes;
  for (const auto &BB : Task) {
    for (const auto &I : *BB) {
      bool IsLoad = isa<LoadInst>(I.get());
      bool IsStore = isa<StoreInst>(I.get());
      if (!IsLoad && !(IsStore && Opts.PrefetchWrites))
        continue;
      if (IsStore && !Opts.PrefetchWrites)
        continue;
      auto Acc = SE.getAccess(I.get());
      if (!Acc) {
        Result.Notes = "non-affine access; affine generation abandoned";
        return Result;
      }
      if (!Opts.UseConvexUnion) {
        // Memory-range mode (section 5.1.1): flatten the access to the 1-D
        // element-offset space, so the hull of the union degenerates to the
        // union-of-ranges interval — including any unaccessed memory between
        // the touched locations (Figure 1(b)).
        AffineExpr Flat;
        for (unsigned T = 0; T != Acc->Indices.size(); ++T) {
          std::int64_t StrideElems =
              Acc->Gep->getIndexStride(T) / Acc->ElemSize;
          Flat = Flat + Acc->Indices[T].scaled(StrideElems);
        }
        Acc->Indices = {Flat};
        Acc->DimSizes = {0};
      }
      auto Image = computeAccessImage(*Acc, SE, Params);
      if (!Image) {
        Result.Notes = "access image not computable";
        return Result;
      }
      std::vector<int> Sig =
          Opts.SplitClasses ? signatureOf(*Acc, Params) : std::vector<int>();
      AccessClass *Class = nullptr;
      for (AccessClass &C : Classes)
        if (C.Base == Acc->Base && C.DimSizes == Acc->DimSizes &&
            C.ElemSize == Acc->ElemSize && C.ParamSig == Sig) {
          Class = &C;
          break;
        }
      if (!Class) {
        Classes.push_back({Acc->Base, Acc->DimSizes, Acc->ElemSize, Sig, {}});
        Class = &Classes.back();
      }
      Class->Images.push_back(std::move(*Image));
    }
  }
  if (Classes.empty()) {
    Result.Notes = "task performs no prefetchable reads";
    return Result;
  }
  Result.NumClasses = static_cast<unsigned>(Classes.size());

  // Per class: pick the scan shape (convex union guarded by the count test,
  // the 5.1.1 range hull, or the per-image fallback).
  struct PlannedNest {
    const AccessClass *Class;
    Polyhedron Scan;
    PlannedNest(const AccessClass *C, Polyhedron S)
        : Class(C), Scan(std::move(S)) {}
  };
  std::vector<PlannedNest> Nests;
  long long TotalNOrig = 0, TotalNScan = 0;
  bool AllHullsAccepted = true;

  for (AccessClass &C : Classes) {
    const unsigned D = C.dims();
    auto NOrig = countUnion(C.Images, D, RepValues, Opts.CountLimit);
    if (!NOrig) {
      Result.Notes = "lattice-point counting exceeded the configured limit";
      return Result;
    }
    TotalNOrig += *NOrig;

    // In memory-range mode the accesses were flattened to 1-D, so the hull
    // of the union *is* the union-of-ranges interval of section 5.1.1.
    Polyhedron Hull = convexHullOfUnion(C.Images);
    auto NHull = instantiateParams(Hull, D, RepValues)
                     .countIntegerPoints(Opts.CountLimit);
    if (!NHull) {
      Result.Notes = "hull counting exceeded the configured limit";
      return Result;
    }

    // The count guard is the refinement introduced with the convex-union
    // analysis; the 5.1.1 baseline scans its range unconditionally.
    const bool TakeHull = scanIsEmittable(Hull, D) &&
                          (!Opts.UseConvexUnion ||
                           *NHull - Opts.HullSlackThreshold <= *NOrig);
    if (TakeHull) {
      TotalNScan += *NHull;
      Nests.emplace_back(&C, std::move(Hull));
    } else {
      // Hull too wide (would prefetch unaccessed memory): scan each distinct
      // image individually instead.
      AllHullsAccepted = false;
      std::vector<Polyhedron> Unique;
      for (const Polyhedron &Img : C.Images) {
        Polyhedron Canon = Img.removeRedundant();
        bool Dup = false;
        for (const Polyhedron &Seen : Unique)
          if (Seen.constraints() == Canon.constraints()) {
            Dup = true;
            break;
          }
        if (!Dup)
          Unique.push_back(std::move(Canon));
      }
      for (Polyhedron &Img : Unique) {
        if (!scanIsEmittable(Img, D)) {
          Result.Notes = "access image lacks affine symbolic bounds";
          return Result;
        }
        auto N = instantiateParams(Img, D, RepValues)
                     .countIntegerPoints(Opts.CountLimit);
        TotalNScan += N ? *N : 0;
        Nests.emplace_back(&C, std::move(Img));
      }
    }
  }
  Result.NOrig = TotalNOrig;
  Result.NConvUn = TotalNScan;
  Result.UsedConvexUnion = Opts.UseConvexUnion && AllHullsAccepted;

  // Merge nests with identical dimensionality, box shape, and trip counts
  // (sections 5.1 items 2-3).
  struct MergedNest {
    std::vector<const PlannedNest *> Members;
  };
  std::vector<MergedNest> Merged;
  std::vector<std::optional<std::vector<std::int64_t>>> Extents;
  for (const PlannedNest &N : Nests)
    Extents.push_back(
        isBoxShape(N.Scan, N.Class->dims())
            ? dimExtents(N.Scan, N.Class->dims(), RepValues)
            : std::nullopt);
  std::vector<bool> Used(Nests.size(), false);
  for (unsigned I = 0; I != Nests.size(); ++I) {
    if (Used[I])
      continue;
    MergedNest MN;
    MN.Members.push_back(&Nests[I]);
    Used[I] = true;
    if (Opts.MergeLoopNests && Extents[I]) {
      for (unsigned J = I + 1; J != Nests.size(); ++J) {
        if (Used[J] || !Extents[J])
          continue;
        if (Nests[J].Class->dims() != Nests[I].Class->dims())
          continue;
        if (*Extents[J] != *Extents[I])
          continue;
        MN.Members.push_back(&Nests[J]);
        Used[J] = true;
      }
    }
    Merged.push_back(std::move(MN));
  }
  Result.NumPrefetchNests = static_cast<unsigned>(Merged.size());
  Result.Trace.MergeApplied = Merged.size() != Nests.size();

  // Emit the access function.
  std::vector<Type> ParamTys;
  for (const auto &A : Task.args())
    ParamTys.push_back(A->getType());
  Function *AccessFn =
      M.createFunction(Task.getName() + ".access", Type::Void, ParamTys);

  auto remapBase = [&](Value *Base) -> Value * {
    if (auto *Arg = dyn_cast<Argument>(Base))
      return AccessFn->getArg(Arg->getIndex());
    return Base; // Globals are shared.
  };

  IRBuilder B(M, AccessFn->createBlock("entry"));
  ScanContext Ctx;
  Ctx.ParamValues.clear();
  for (const Value *P : Params)
    Ctx.ParamValues.push_back(
        AccessFn->getArg(cast<Argument>(P)->getIndex()));

  for (const MergedNest &MN : Merged) {
    const PlannedNest *Lead = MN.Members.front();
    const unsigned D = Lead->Class->dims();
    Ctx.Dims = D;
    Ctx.YValues.assign(D, nullptr);

    // Innermost-dim step for per-cache-line prefetching.
    std::int64_t InnerStep = 1;
    if (Opts.PrefetchPerCacheLine) {
      std::int64_t Elem = Lead->Class->ElemSize;
      bool SameElem = true;
      for (const PlannedNest *N : MN.Members)
        SameElem &= N->Class->ElemSize == Elem;
      if (SameElem && Elem > 0 && Opts.CacheLineBytes > Elem)
        InnerStep = Opts.CacheLineBytes / Elem;
    }

    // Prefetch targets: the lead scans its own shape; merged members are
    // addressed at (scan IV - lead lower + member lower) per dimension.
    std::vector<PrefetchTarget> Targets;
    for (const PlannedNest *N : MN.Members) {
      PrefetchTarget T;
      T.Base = remapBase(N->Class->Base);
      T.DimSizes = N->Class->DimSizes;
      T.ElemSize = N->Class->ElemSize;
      T.OffsetExprs.assign(D, nullptr);
      if (N != Lead) {
        for (unsigned Dim = 0; Dim != D; ++Dim) {
          // Symbolic lower bounds of both shapes along Dim: since shapes are
          // boxes, the single lower-bound row determines it.
          auto lowerExpr = [&](const Polyhedron &Scan) -> Value * {
            Polyhedron P = Scan;
            for (unsigned Other = 0; Other != D; ++Other)
              if (Other != Dim)
                P = P.eliminate(Other);
            P = P.removeRedundant();
            Value *Lower = nullptr;
            for (const PolyConstraint &C : P.constraints()) {
              if (C.Coeffs[Dim] <= 0)
                continue;
              Value *Rest = emitLinearRest(B, C, Dim, Ctx);
              Value *Neg = B.createSub(B.getInt(0), Rest);
              Value *Bound = emitCeilDiv(B, Neg, C.Coeffs[Dim]);
              Lower = Lower ? emitMax(B, Lower, Bound) : Bound;
            }
            assert(Lower && "box shape without a lower bound");
            return Lower;
          };
          Value *LeadLo = lowerExpr(Lead->Scan);
          Value *MemberLo = lowerExpr(N->Scan);
          T.OffsetExprs[Dim] = B.createSub(MemberLo, LeadLo);
        }
      }
      Targets.push_back(std::move(T));
    }

    emitScanLoops(B, Lead->Scan, 0, Ctx, Targets, InnerStep);
  }
  B.createRet();

  Result.AccessFn = AccessFn;
  Result.Trace.AffineRan = true;
  Result.Notes = strfmt(
      "affine access: %u classes, %u nests, NOrig=%lld, NScan=%lld%s",
      Result.NumClasses, Result.NumPrefetchNests, Result.NOrig,
      Result.NConvUn, AllHullsAccepted ? "" : " (hull rejected for a class)");
  return Result;
}
