//===- sim/ThreadedInterpreter.cpp - Direct-threaded dispatch loop ----------===//
//
// Part of daecc. Distributed under the MIT license.
//
// The hot loop of the threaded backend. Handlers are written once, against
// the OP()/NEXT()/JUMP() macros, and assembled either into a computed-goto
// dispatch chain (GCC/Clang: every handler ends in an indirect jump through
// the label-address table, giving the branch predictor one distinct jump
// site per opcode) or into a portable switch loop on other compilers.
//
// Bit-exactness contract with the switch interpreter (Interpreter.cpp):
//  * every IR instruction bumps PhaseStats::Instructions exactly once and
//    adds its cost to ComputeCycles as its own FP addition, in program
//    order — fused superinstructions apply STEP()/STEP2() separately;
//  * trace events are appended in the same order relative to the counter
//    bumps and the actual memory access;
//  * each handler reproduces the reference's RuntimeValue write pattern
//    (.I-only / .D-only / full-struct) so register files stay bit-identical
//    to the reference's slot environment at every step.
//
//===----------------------------------------------------------------------===//

#include "sim/ThreadedInterpreter.h"

#include "ir/Function.h"
#include "sim/SimOps.h"

#include <cassert>

using namespace dae;
using namespace dae::ir;
using namespace dae::sim;

#if defined(__GNUC__) || defined(__clang__)
#define DAECC_COMPUTED_GOTO 1
#else
#define DAECC_COMPUTED_GOTO 0
#endif

ThreadedInterpreter::ThreadedInterpreter(Program &Prog, Memory &Mem)
    : Prog(Prog), View(Mem, Prog.loader()) {}

PhaseStats ThreadedInterpreter::exec(const bc::BytecodeFunction &BF,
                                     const RuntimeValue *Args,
                                     std::size_t NArgs, RuntimeValue *RetOut,
                                     AccessTrace &Trace) {
  PhaseStats S;

  // Per-activation frame carved out of the shared arena: no allocation or
  // zeroing per run (see the Frame member comment). A nested Call may grow
  // the arena, so its handler re-derives R after the callee returns.
  const std::size_t FrameBase = FrameTop;
  if (Frame.size() < FrameBase + BF.NumRegs)
    Frame.resize(std::max(Frame.size() * 2,
                          static_cast<std::size_t>(FrameBase + BF.NumRegs)));
  FrameTop = FrameBase + BF.NumRegs;
  RuntimeValue *R = Frame.data() + FrameBase;
  for (std::size_t K = 0; K != NArgs; ++K)
    R[K] = Args[K];
  for (std::size_t K = 0; K != BF.ConstPool.size(); ++K)
    R[BF.ConstBase + K] = BF.ConstPool[K];

  // Register-resident counters, flushed into S once at exit. The integer
  // counts are order-independent; the ComputeCycles local sees the exact
  // same addition sequence the reference applies to the struct field.
  std::uint64_t NInstr = 0, NLoads = 0, NStores = 0, NPrefetches = 0;
  double Cycles = 0.0;

  const bc::Instr *Code = BF.Code.data();
  const bc::Instr *I = Code;

#if DAECC_COMPUTED_GOTO
  static const void *const Labels[] = {
#define DAECC_BC_LABEL(Name) &&H_##Name,
      DAECC_BC_OPCODES(DAECC_BC_LABEL)
#undef DAECC_BC_LABEL
  };
#define DISPATCH() goto *Labels[static_cast<unsigned>(I->Op)]
#define OP(Name) H_##Name:
#else
#define DISPATCH() goto dispatch
#define OP(Name) case bc::Opcode::Name:
#endif

#define STEP()                                                                 \
  do {                                                                         \
    ++NInstr;                                                                  \
    Cycles += I->Cost;                                                         \
  } while (0)
#define STEP2()                                                                \
  do {                                                                         \
    ++NInstr;                                                                  \
    Cycles += I->CostB;                                                        \
  } while (0)
#define NEXT()                                                                 \
  do {                                                                         \
    ++I;                                                                       \
    DISPATCH();                                                                \
  } while (0)
#define JUMP(Pc)                                                               \
  do {                                                                         \
    I = Code + (Pc);                                                           \
    DISPATCH();                                                                \
  } while (0)

// Integer ops compute through uint64_t so Add/Sub/Mul wrap in two's
// complement like native code (signed overflow is undefined in C++); the
// bitwise ops give the same bits either way.
#define INT_BIN(Name, OPER)                                                    \
  OP(Name) {                                                                   \
    STEP();                                                                    \
    R[I->Dst].I = static_cast<std::int64_t>(                                   \
        static_cast<std::uint64_t>(R[I->A].I)                                  \
            OPER static_cast<std::uint64_t>(R[I->B].I));                       \
    NEXT();                                                                    \
  }
#define INT_BIN_IMM(Name, OPER)                                                \
  OP(Name) {                                                                   \
    STEP();                                                                    \
    R[I->Dst].I = static_cast<std::int64_t>(                                   \
        static_cast<std::uint64_t>(R[I->A].I)                                  \
            OPER static_cast<std::uint64_t>(I->Imm.I));                        \
    NEXT();                                                                    \
  }
#define FP_BIN(Name, OPER)                                                     \
  OP(Name) {                                                                   \
    STEP();                                                                    \
    R[I->Dst].D = R[I->A].D OPER R[I->B].D;                                    \
    NEXT();                                                                    \
  }
#define CMP_I(Name, OPER)                                                      \
  OP(Name) {                                                                   \
    STEP();                                                                    \
    R[I->Dst] = RuntimeValue::ofInt(R[I->A].I OPER R[I->B].I);                 \
    NEXT();                                                                    \
  }
#define CMP_F(Name, OPER)                                                      \
  OP(Name) {                                                                   \
    STEP();                                                                    \
    R[I->Dst] = RuntimeValue::ofInt(R[I->A].D OPER R[I->B].D);                 \
    NEXT();                                                                    \
  }
#define BR_CMP(Name, OPER)                                                     \
  OP(Name) {                                                                   \
    STEP();                                                                    \
    bool Taken = R[I->A].I OPER R[I->B].I;                                     \
    R[I->Dst] = RuntimeValue::ofInt(Taken);                                    \
    STEP2();                                                                   \
    JUMP(Taken ? I->C : I->Aux);                                               \
  }
#define BR_CMP_IMM(Name, OPER)                                                 \
  OP(Name) {                                                                   \
    STEP();                                                                    \
    bool Taken = R[I->A].I OPER I->Imm.I;                                      \
    R[I->Dst] = RuntimeValue::ofInt(Taken);                                    \
    STEP2();                                                                   \
    JUMP(Taken ? I->C : I->Aux);                                               \
  }
#define LOAD_F_BIN(Name, OPER)                                                 \
  OP(Name) {                                                                   \
    STEP();                                                                    \
    std::uint64_t Addr = static_cast<std::uint64_t>(R[I->A].I);                \
    ++NLoads;                                                                  \
    Trace.push(AccessTrace::Kind::Load, Addr);                                 \
    RuntimeValue Out;                                                          \
    Out.D = View.loadF64(Addr);                                                \
    R[I->Aux] = Out;                                                           \
    STEP2();                                                                   \
    R[I->Dst].D = R[I->B].D OPER R[I->C].D;                                    \
    NEXT();                                                                    \
  }

#if DAECC_COMPUTED_GOTO
  DISPATCH();
#else
dispatch:
  switch (I->Op) {
#endif

  OP(Trap)
  reportUnknownOpcode("threaded dispatch", static_cast<int>(I->Op));

  OP(MovI) {
    STEP();
    R[I->Dst].I = R[I->A].I;
    NEXT();
  }
  OP(PhiMov) {
    R[I->Dst] = R[I->A];
    NEXT();
  }
  OP(PhiMovImm) {
    R[I->Dst] = I->Imm;
    NEXT();
  }

  INT_BIN(Add, +)
  INT_BIN(Sub, -)
  INT_BIN(Mul, *)
  OP(SDiv) {
    STEP();
    R[I->Dst].I = ir::sdivTotal(R[I->A].I, R[I->B].I);
    NEXT();
  }
  OP(SRem) {
    STEP();
    R[I->Dst].I = ir::sremTotal(R[I->A].I, R[I->B].I);
    NEXT();
  }
  INT_BIN(And, &)
  INT_BIN(Or, |)
  INT_BIN(Xor, ^)
  OP(Shl) {
    STEP();
    R[I->Dst].I = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(R[I->A].I)
        << (static_cast<std::uint64_t>(R[I->B].I) & 63));
    NEXT();
  }
  OP(AShr) {
    STEP();
    R[I->Dst].I =
        R[I->A].I >> (static_cast<std::uint64_t>(R[I->B].I) & 63);
    NEXT();
  }

  INT_BIN_IMM(AddImm, +)
  INT_BIN_IMM(SubImm, -)
  INT_BIN_IMM(MulImm, *)

  FP_BIN(FAdd, +)
  FP_BIN(FSub, -)
  FP_BIN(FMul, *)
  FP_BIN(FDiv, /)
  OP(FMulImm) {
    STEP();
    R[I->Dst].D = R[I->A].D * I->Imm.D;
    NEXT();
  }

  CMP_I(CmpEQ, ==)
  CMP_I(CmpNE, !=)
  CMP_I(CmpSLT, <)
  CMP_I(CmpSLE, <=)
  CMP_I(CmpSGT, >)
  CMP_I(CmpSGE, >=)
  CMP_F(CmpFLT, <)
  CMP_F(CmpFLE, <=)
  CMP_F(CmpFGT, >)
  CMP_F(CmpFGE, >=)
  CMP_F(CmpFEQ, ==)
  CMP_F(CmpFNE, !=)

  OP(Select) {
    STEP();
    R[I->Dst] = R[I->A].I != 0 ? R[I->B] : R[I->C];
    NEXT();
  }
  OP(SIToFP) {
    STEP();
    R[I->Dst].D = static_cast<double>(R[I->A].I);
    NEXT();
  }
  OP(FPToSI) {
    STEP();
    R[I->Dst].I = static_cast<std::int64_t>(R[I->A].D);
    NEXT();
  }

  // Address math wraps like Add/Sub/Mul, through uint64_t.
  OP(Gep1Shl) {
    STEP();
    R[I->Dst] = RuntimeValue::ofInt(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(R[I->A].I) +
        (static_cast<std::uint64_t>(R[I->B].I) << I->Imm.I)));
    NEXT();
  }
  OP(GepN) {
    STEP();
    const bc::GepDesc &G = BF.GepDescs[I->A];
    std::uint64_t Linear = 0;
    for (std::size_t J = 0; J != G.IdxRegs.size(); ++J)
      Linear = Linear * static_cast<std::uint64_t>(J ? G.Dims[J] : 1) +
               static_cast<std::uint64_t>(R[G.IdxRegs[J]].I);
    R[I->Dst] = RuntimeValue::ofInt(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(R[G.Base].I) +
        Linear * static_cast<std::uint64_t>(G.ElemSize)));
    NEXT();
  }

  OP(LoadI) {
    STEP();
    std::uint64_t Addr = static_cast<std::uint64_t>(R[I->A].I);
    ++NLoads;
    Trace.push(AccessTrace::Kind::Load, Addr);
    RuntimeValue Out;
    Out.I = View.loadI64(Addr);
    R[I->Dst] = Out;
    NEXT();
  }
  OP(LoadF) {
    STEP();
    std::uint64_t Addr = static_cast<std::uint64_t>(R[I->A].I);
    ++NLoads;
    Trace.push(AccessTrace::Kind::Load, Addr);
    RuntimeValue Out;
    Out.D = View.loadF64(Addr);
    R[I->Dst] = Out;
    NEXT();
  }
  OP(StoreI) {
    STEP();
    std::uint64_t Addr = static_cast<std::uint64_t>(R[I->B].I);
    std::int64_t V = R[I->A].I;
    ++NStores;
    Trace.push(AccessTrace::Kind::Store, Addr);
    View.storeI64(Addr, V);
    NEXT();
  }
  OP(StoreF) {
    STEP();
    std::uint64_t Addr = static_cast<std::uint64_t>(R[I->B].I);
    double V = R[I->A].D;
    ++NStores;
    Trace.push(AccessTrace::Kind::Store, Addr);
    View.storeF64(Addr, V);
    NEXT();
  }
  OP(Prefetch) {
    STEP();
    std::uint64_t Addr = static_cast<std::uint64_t>(R[I->A].I);
    ++NPrefetches;
    Trace.push(AccessTrace::Kind::Prefetch, Addr);
    NEXT();
  }

  LOAD_F_BIN(LoadFSubF, -)
  LOAD_F_BIN(LoadFMulF, *)

  OP(Jmp) {
    NInstr += I->Count;
    Cycles += I->Cost;
    JUMP(I->A);
  }
  OP(CondBr) {
    STEP();
    JUMP(R[I->A].I != 0 ? I->B : I->C);
  }

  BR_CMP(BrCmpEQ, ==)
  BR_CMP(BrCmpSLT, <)
  BR_CMP_IMM(BrCmpNEImm, !=)
  BR_CMP_IMM(BrCmpSLTImm, <)

  OP(Ret) {
    STEP();
    goto done;
  }
  OP(RetVal) {
    STEP();
    if (RetOut)
      *RetOut = R[I->A];
    goto done;
  }
  OP(Call) {
    STEP();
    const bc::CallDesc &D = BF.CallDescs[I->A];
    // Gather actuals into an on-stack buffer (no allocation per call); the
    // heap fallback keeps arbitrary signatures correct.
    RuntimeValue ArgBuf[16];
    std::vector<RuntimeValue> ArgSpill;
    RuntimeValue *CallArgs = ArgBuf;
    if (D.ArgRegs.size() > 16) {
      ArgSpill.resize(D.ArgRegs.size());
      CallArgs = ArgSpill.data();
    }
    for (std::size_t K = 0; K != D.ArgRegs.size(); ++K)
      CallArgs[K] = R[D.ArgRegs[K]];
    RuntimeValue Ret;
    PhaseStats Sub = exec(*Prog.lookup(*D.Callee).Bytecode, CallArgs,
                          D.ArgRegs.size(), &Ret, Trace);
    // The callee may have grown the arena; re-derive our frame pointer.
    R = Frame.data() + FrameBase;
    // Fold the callee's counts into ours: the same totals, and the same one
    // ComputeCycles addition, as the reference's S += Sub.
    NInstr += Sub.Instructions;
    NLoads += Sub.Loads;
    NStores += Sub.Stores;
    NPrefetches += Sub.Prefetches;
    Cycles += Sub.ComputeCycles;
    if (I->Dst != bc::NoReg)
      R[I->Dst] = Ret;
    NEXT();
  }

#if !DAECC_COMPUTED_GOTO
  }
  reportUnknownOpcode("threaded dispatch", static_cast<int>(I->Op));
#endif

done:
  S.Instructions += NInstr;
  S.Loads += NLoads;
  S.Stores += NStores;
  S.Prefetches += NPrefetches;
  S.ComputeCycles += Cycles;
  FrameTop = FrameBase;
  return S;

#undef LOAD_F_BIN
#undef BR_CMP_IMM
#undef BR_CMP
#undef CMP_F
#undef CMP_I
#undef FP_BIN
#undef INT_BIN_IMM
#undef INT_BIN
#undef JUMP
#undef NEXT
#undef STEP2
#undef STEP
#undef OP
#undef DISPATCH
}

PhaseStats ThreadedInterpreter::runTraced(const Function &F,
                                          const std::vector<RuntimeValue> &Args,
                                          AccessTrace &Trace,
                                          RuntimeValue *RetOut) {
  assert(Args.size() == F.getNumArgs() && "argument count mismatch");
  return exec(*Prog.lookup(F).Bytecode, Args.data(), Args.size(), RetOut,
              Trace);
}
