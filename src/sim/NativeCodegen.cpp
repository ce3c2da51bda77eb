//===- sim/NativeCodegen.cpp - Bytecode -> native code lowering -------------===//
//
// Part of daecc. Distributed under the MIT license.
//
// Lowers sim/Bytecode.h functions to x86-64 machine code; see
// NativeCodegen.h for the architecture. FnEmitter below is a template JIT:
// every opcode but Trap has a stencil of a few instructions; stencils are
// concatenated per bytecode function with branch targets resolved by a
// second pass over recorded fixups.
//
// Register plan (all callee-saved, so C++ helpers preserve them):
//   rbp = NativeContext*          rbx = frame (RuntimeValue[])
//   r13 = trace write cursor
//   r14 = first footprint address r15 = arena base (host of sim 0)
//   xmm15 = running ComputeCycles
// r14/r15 never change for an interpreter: loaded in the prologue, never
// written back. A load or store is sub + cmp + add (see translate()).
// rax/rcx/rdx are stencil scratch; xmm0/xmm1 are FP scratch.
//
// Bit-exactness ground rules (checked against ThreadedInterpreter::exec):
//  - ComputeCycles additions happen in original program order: per-opcode
//    Cost, then the op's effects, then CostB for fused pairs. They
//    accumulate into xmm15 (mirroring ctx->Cycles, canonical at helper
//    boundaries).
//  - Integer counters are region-coalesced into the shared ctx cells
//    (order-independent totals; flushed before any point with multiple
//    predecessors, so no path double-counts).
//  - Value writes reproduce the reference's RuntimeValue write pattern
//    (.I-only / .D-only / full 16 bytes with a zeroed other half).
//  - Costs equal to +0.0 are skipped: every cost is non-negative and the
//    accumulators never hold -0.0, so x += 0.0 is a bitwise identity.
//
//===----------------------------------------------------------------------===//

#include "sim/NativeCodegen.h"

#include "ir/Function.h"
#include "sim/Bytecode.h"
#include "sim/NativeExec.h"

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(DAECC_NATIVE_JIT)
#include <sys/mman.h>
#include <unistd.h>
#endif

using namespace dae;
using namespace dae::sim;
using namespace dae::sim::native;

namespace {

/// Stops the run: the native backend has no other engine to run \p BF on.
[[noreturn]] void cannotCompile(const bc::BytecodeFunction &BF,
                                const std::string &Cause) {
  std::fprintf(stderr,
               "error: the native backend cannot compile function '%s': %s\n",
               BF.Source->getName().c_str(), Cause.c_str());
  std::abort();
}

} // namespace

#if defined(DAECC_NATIVE_JIT)

namespace {

//===----------------------------------------------------------------------===//
// Rejection scan
//===----------------------------------------------------------------------===//

/// True when the lowerer handles \p Op. Trap is deliberately unsupported
/// (a correct lowering never emits it), and the range check catches
/// corrupted opcodes before they index any table.
bool opcodeSupported(bc::Opcode Op) {
  if (Op == bc::Opcode::Trap)
    return false;
  return static_cast<unsigned>(Op) <= static_cast<unsigned>(bc::Opcode::Call);
}

/// Returns the name of the first unsupported opcode in \p BF, or null when
/// every instruction can be lowered.
const char *findUnsupported(const bc::BytecodeFunction &BF) {
  for (const bc::Instr &I : BF.Code)
    if (!opcodeSupported(I.Op))
      return bc::opcodeName(I.Op);
  return nullptr;
}

std::uint64_t bitsOf(double D) {
  std::uint64_t U;
  std::memcpy(&U, &D, sizeof(U));
  return U;
}

//===----------------------------------------------------------------------===//
// x86-64 encoder
//===----------------------------------------------------------------------===//

enum Reg : unsigned {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

enum Xmm : unsigned { XMM0 = 0, XMM1 = 1, XMM15 = 15 };

// Condition codes (the low nibble of 0F 8x / 0F 9x).
enum Cc : std::uint8_t {
  CC_E = 0x4,
  CC_NE = 0x5,
  CC_BE = 0x6,
  CC_A = 0x7,
  CC_AE = 0x3,
  CC_P = 0xA,
  CC_NP = 0xB,
  CC_L = 0xC,
  CC_GE = 0xD,
  CC_LE = 0xE,
  CC_G = 0xF,
};

/// Minimal x86-64 instruction encoder: exactly the forms the stencils use,
/// nothing more. Memory operands are always [base + disp32] (mod=10), which
/// sidesteps every disp8/disp0 special case except the SIB byte rsp/r12
/// require as a base.
struct Asm {
  std::vector<std::uint8_t> Code;
  std::vector<std::uint64_t> Lits;
  std::unordered_map<std::uint64_t, std::size_t> LitIndex;
  std::vector<std::pair<std::size_t, std::size_t>> LitFix; // disp pos, lit idx

  std::size_t pos() const { return Code.size(); }
  void b(std::uint8_t X) { Code.push_back(X); }
  void i32(std::int32_t V) {
    for (int K = 0; K != 4; ++K)
      b(static_cast<std::uint8_t>(static_cast<std::uint32_t>(V) >> (K * 8)));
  }
  void i64(std::uint64_t V) {
    for (int K = 0; K != 8; ++K)
      b(static_cast<std::uint8_t>(V >> (K * 8)));
  }
  void patch32(std::size_t P, std::int32_t V) {
    std::memcpy(&Code[P], &V, 4);
  }

  void rex(bool W, unsigned R, unsigned X, unsigned B) {
    b(0x40 | (static_cast<unsigned>(W) << 3) | ((R >> 3) << 2) |
      ((X >> 3) << 1) | (B >> 3));
  }
  void modrm(unsigned Mod, unsigned R, unsigned Rm) {
    b(static_cast<std::uint8_t>((Mod << 6) | ((R & 7) << 3) | (Rm & 7)));
  }
  void memRM(unsigned R, unsigned Base, std::int32_t Disp) {
    modrm(2, R, Base);
    if ((Base & 7) == 4)
      b(0x24); // SIB: scale 0, no index, base = rsp/r12
    i32(Disp);
  }

  // mov r64, [base+disp] / [base+disp], r64 / r64, r64 / r64, imm.
  void movRM(unsigned R, unsigned Base, std::int32_t D) {
    rex(true, R, 0, Base);
    b(0x8B);
    memRM(R, Base, D);
  }
  void movMR(unsigned Base, std::int32_t D, unsigned R) {
    rex(true, R, 0, Base);
    b(0x89);
    memRM(R, Base, D);
  }
  void movRR(unsigned Dst, unsigned Src) {
    rex(true, Src, 0, Dst);
    b(0x89);
    modrm(3, Src, Dst);
  }
  void movImm64(unsigned R, std::uint64_t V) {
    rex(true, 0, 0, R);
    b(0xB8 + (R & 7));
    i64(V);
  }
  void movImm32(unsigned R, std::uint32_t V) { // 32-bit mov, zero-extends
    if (R >= 8)
      b(0x41);
    b(0xB8 + (R & 7));
    i32(static_cast<std::int32_t>(V));
  }
  /// mov qword [base+disp], imm32 (sign-extended).
  void movMemImm32(unsigned Base, std::int32_t D, std::int32_t V) {
    rex(true, 0, 0, Base);
    b(0xC7);
    memRM(0, Base, D);
    i32(V);
  }

  // ALU op r64, r/m64. Opcode bytes: add 03, sub 2B, and 23, or 0B, xor 33,
  // cmp 3B.
  void aluRM(std::uint8_t Op, unsigned R, unsigned Base, std::int32_t D) {
    rex(true, R, 0, Base);
    b(Op);
    memRM(R, Base, D);
  }
  void aluRR(std::uint8_t Op, unsigned R, unsigned Rm) {
    rex(true, R, 0, Rm);
    b(Op);
    modrm(3, R, Rm);
  }
  /// 81 /N: op r64, imm32 (sign-extended). /0 add, /4 and, /5 sub, /7 cmp.
  void aluImm32(std::uint8_t N, unsigned Rm, std::int32_t V) {
    rex(true, 0, 0, Rm);
    b(0x81);
    modrm(3, N, Rm);
    i32(V);
  }
  /// add qword [base+disp], imm32 — the counter-flush form. Clobbers EFLAGS.
  void addMemImm32(unsigned Base, std::int32_t D, std::int32_t V) {
    rex(true, 0, 0, Base);
    b(0x81);
    memRM(0, Base, D);
    i32(V);
  }
  void imulRM(unsigned R, unsigned Base, std::int32_t D) {
    rex(true, R, 0, Base);
    b(0x0F);
    b(0xAF);
    memRM(R, Base, D);
  }
  void imulRR(unsigned R, unsigned Rm) {
    rex(true, R, 0, Rm);
    b(0x0F);
    b(0xAF);
    modrm(3, R, Rm);
  }
  void xorEcx() { b(0x31); modrm(3, RCX, RCX); } // xor ecx, ecx
  void xorEdx() { b(0x31); modrm(3, RDX, RDX); } // xor edx, edx
  void xorEax() { b(0x31); modrm(3, RAX, RAX); } // xor eax, eax
  void shlCl(unsigned Rm) {
    rex(true, 0, 0, Rm);
    b(0xD3);
    modrm(3, 4, Rm);
  }
  void sarCl(unsigned Rm) {
    rex(true, 0, 0, Rm);
    b(0xD3);
    modrm(3, 7, Rm);
  }
  void shlImm8(unsigned Rm, std::uint8_t S) {
    rex(true, 0, 0, Rm);
    b(0xC1);
    modrm(3, 4, Rm);
    b(S);
  }
  void testRR(unsigned A, unsigned B2) {
    rex(true, A, 0, B2);
    b(0x85);
    modrm(3, A, B2);
  }
  void cqo() {
    b(0x48);
    b(0x99);
  }
  void idiv(unsigned Rm) {
    rex(true, 0, 0, Rm);
    b(0xF7);
    modrm(3, 7, Rm);
  }
  /// setcc cl/dl only (no REX, so only the legacy low byte regs are safe).
  void setcc(std::uint8_t CC, unsigned Rm) {
    assert(Rm < 4 && "setcc without REX needs a legacy low-byte register");
    b(0x0F);
    b(0x90 + CC);
    modrm(3, 0, Rm);
  }
  void cmovzRM(unsigned R, unsigned Base, std::int32_t D) {
    rex(true, R, 0, Base);
    b(0x0F);
    b(0x44);
    memRM(R, Base, D);
  }
  void lea(unsigned Dst, unsigned Base, std::int32_t D) {
    rex(true, Dst, 0, Base);
    b(0x8D);
    memRM(Dst, Base, D);
  }
  /// lea dst, [base + index] (scale 1, no disp; base must not be rbp/r13).
  void leaRR(unsigned Dst, unsigned Base, unsigned Index) {
    assert((Base & 7) != 5 && "rbp/r13 base needs a disp form");
    rex(true, Dst, Index, Base);
    b(0x8D);
    modrm(0, Dst, 4);
    b(static_cast<std::uint8_t>(((Index & 7) << 3) | (Base & 7)));
  }
  /// bts r64, imm8 — sets the trace-event kind bit.
  void btsImm(unsigned Rm, std::uint8_t Bit) {
    rex(true, 0, 0, Rm);
    b(0x0F);
    b(0xBA);
    modrm(3, 5, Rm);
    b(Bit);
  }
  void callMem(unsigned Base, std::int32_t D) {
    if (Base >= 8)
      b(0x41);
    b(0xFF);
    memRM(2, Base, D);
  }
  void push(unsigned R) {
    if (R >= 8)
      b(0x41);
    b(0x50 + (R & 7));
  }
  void pop(unsigned R) {
    if (R >= 8)
      b(0x41);
    b(0x58 + (R & 7));
  }
  void ret() { b(0xC3); }

  // SSE scalar-double forms. Prefix order: mandatory prefix, REX, 0F, op.
  void sseRM(std::uint8_t Pfx, std::uint8_t Op, unsigned X, unsigned Base,
             std::int32_t D, bool W = false) {
    if (Pfx)
      b(Pfx);
    if (W || X >= 8 || Base >= 8)
      rex(W, X, 0, Base);
    b(0x0F);
    b(Op);
    memRM(X, Base, D);
  }
  void sseRR(std::uint8_t Pfx, std::uint8_t Op, unsigned X, unsigned Rm) {
    if (Pfx)
      b(Pfx);
    if (X >= 8 || Rm >= 8)
      rex(false, X, 0, Rm);
    b(0x0F);
    b(Op);
    modrm(3, X, Rm);
  }
  /// SSE op xmm, qword [rip + lit]: the literal pool carries FP immediates
  /// (costs, FP Imm operands); deduplicated by bit pattern.
  void sseRip(std::uint8_t Pfx, std::uint8_t Op, unsigned X,
              std::uint64_t Bits) {
    if (Pfx)
      b(Pfx);
    if (X >= 8)
      rex(false, X, 0, 0);
    b(0x0F);
    b(Op);
    modrm(0, X, 5); // RIP-relative disp32
    auto It = LitIndex.find(Bits);
    std::size_t Idx;
    if (It != LitIndex.end()) {
      Idx = It->second;
    } else {
      Idx = Lits.size();
      Lits.push_back(Bits);
      LitIndex.emplace(Bits, Idx);
    }
    LitFix.emplace_back(pos(), Idx);
    i32(0);
  }
  void xorpdSelf(unsigned X) { sseRR(0x66, 0x57, X, X); }

  // Forward local labels (within one stencil).
  std::size_t jccFwd(std::uint8_t CC) {
    b(0x0F);
    b(0x80 + CC);
    std::size_t P = pos();
    i32(0);
    return P;
  }
  std::size_t jmpFwd() {
    b(0xE9);
    std::size_t P = pos();
    i32(0);
    return P;
  }
  void bind(std::size_t P) {
    patch32(P, static_cast<std::int32_t>(pos() - (P + 4)));
  }

  /// Appends the literal pool (8-aligned) and resolves its RIP fixups.
  /// Call last, after all code bytes.
  void finalizeLits() {
    while (Code.size() % 8)
      b(0xCC);
    std::size_t LitBase = Code.size();
    for (std::uint64_t V : Lits)
      i64(V);
    for (const auto &Fix : LitFix)
      patch32(Fix.first, static_cast<std::int32_t>(LitBase + 8 * Fix.second -
                                                   (Fix.first + 4)));
  }
};

// NativeContext field offsets (static_asserted in NativeExec.h).
constexpr std::int32_t CtxFrame = 0;
constexpr std::int32_t CtxNInstr = 8;
constexpr std::int32_t CtxNLoads = 16;
constexpr std::int32_t CtxNStores = 24;
constexpr std::int32_t CtxNPref = 32;
constexpr std::int32_t CtxCycles = 40;
constexpr std::int32_t CtxTracePtr = 48;
constexpr std::int32_t CtxTraceEnd = 56;
constexpr std::int32_t CtxMemBase = 64;
constexpr std::int32_t CtxMemLo = 72;
constexpr std::int32_t CtxMemLimit = 80;
constexpr std::int32_t CtxRet = 88;
constexpr std::int32_t CtxRetValid = 104;
constexpr std::int32_t CtxOutOfBounds = 120;
constexpr std::int32_t CtxTraceGrow = 128;
constexpr std::int32_t CtxCall = 136;

bool isTerminator(bc::Opcode Op) {
  switch (Op) {
  case bc::Opcode::Jmp:
  case bc::Opcode::CondBr:
  case bc::Opcode::BrCmpEQ:
  case bc::Opcode::BrCmpSLT:
  case bc::Opcode::BrCmpNEImm:
  case bc::Opcode::BrCmpSLTImm:
  case bc::Opcode::Ret:
  case bc::Opcode::RetVal:
    return true;
  default:
    return false;
  }
}

/// Trace events one executed instance of \p Op appends.
unsigned traceEventsOf(bc::Opcode Op) {
  switch (Op) {
  case bc::Opcode::LoadI:
  case bc::Opcode::LoadF:
  case bc::Opcode::StoreI:
  case bc::Opcode::StoreF:
  case bc::Opcode::Prefetch:
  case bc::Opcode::LoadFSubF:
  case bc::Opcode::LoadFMulF:
    return 1;
  default:
    return 0;
  }
}

bool fitsI32(std::int64_t V) {
  return V == static_cast<std::int64_t>(static_cast<std::int32_t>(V));
}

/// Region discovery. The unit of control-flow bookkeeping is the
/// straight-line *region*: leaders are the entry, every branch target, and
/// the instruction after every terminator or Call. Fills \p Leader per pc
/// and, at each leader, the trace-event count of its region in \p Events (a
/// Call ends a region because the callee consumes capacity through its own
/// cursor).
void analyzeRegions(const bc::BytecodeFunction &BF, std::vector<bool> &Leader,
                    std::vector<std::uint32_t> &Events) {
  const std::size_t N = BF.Code.size();
  Leader.assign(N, false);
  Leader[0] = true;
  auto Mark = [&](std::uint32_t T) {
    assert(T < N && "branch target out of range");
    Leader[T] = true;
  };
  for (std::size_t Pc = 0; Pc != N; ++Pc) {
    const bc::Instr &I = BF.Code[Pc];
    switch (I.Op) {
    case bc::Opcode::Jmp:
      Mark(I.A);
      break;
    case bc::Opcode::CondBr:
      Mark(I.B);
      Mark(I.C);
      break;
    case bc::Opcode::BrCmpEQ:
    case bc::Opcode::BrCmpSLT:
    case bc::Opcode::BrCmpNEImm:
    case bc::Opcode::BrCmpSLTImm:
      Mark(I.C);
      Mark(I.Aux);
      break;
    default:
      break;
    }
    if ((isTerminator(I.Op) || I.Op == bc::Opcode::Call) && Pc + 1 < N)
      Leader[Pc + 1] = true;
  }
  Events.assign(N, 0);
  for (std::size_t L = 0; L != N; ++L) {
    if (!Leader[L])
      continue;
    std::uint32_t Ev = 0;
    for (std::size_t Pc = L; Pc != N; ++Pc) {
      Ev += traceEventsOf(BF.Code[Pc].Op);
      if (isTerminator(BF.Code[Pc].Op) || BF.Code[Pc].Op == bc::Opcode::Call)
        break;
      if (Pc + 1 < N && Leader[Pc + 1])
        break;
    }
    Events[L] = Ev;
  }
}

/// Emits one bytecode function. Invariants at every region boundary (label
/// or jump; see analyzeRegions): pending counter increments are flushed to
/// the ctx cells, and the hoisted capacity check guarantees room for every
/// trace event the region emits.
class FnEmitter {
public:
  explicit FnEmitter(const bc::BytecodeFunction &BF) : BF(BF) {}

  /// False when \p BF has no code. Every opcode it meets must have a
  /// stencil (findUnsupported).
  bool emit();

  Asm A;

private:
  const bc::BytecodeFunction &BF;
  std::vector<std::size_t> Off;                            // pc -> code offset
  std::vector<std::pair<std::size_t, std::uint32_t>> PcFix; // disp pos, pc
  std::vector<std::size_t> EpiFix;
  std::vector<std::size_t> OobFix; // jae displacements to the stub
  std::vector<bool> Leader;
  std::vector<std::uint32_t> RegionEvents; // at leaders
  std::uint64_t PendInstr = 0, PendLoads = 0, PendStores = 0, PendPref = 0;

  std::int32_t fi(std::uint32_t R) const {
    return static_cast<std::int32_t>(R) * 16;
  }
  std::int32_t fd(std::uint32_t R) const {
    return static_cast<std::int32_t>(R) * 16 + 8;
  }

  bool emitOne(std::uint32_t Pc);

  void pcJmp(std::uint32_t Target) {
    A.b(0xE9);
    PcFix.emplace_back(A.pos(), Target);
    A.i32(0);
  }
  void pcJcc(std::uint8_t CC, std::uint32_t Target) {
    A.b(0x0F);
    A.b(0x80 + CC);
    PcFix.emplace_back(A.pos(), Target);
    A.i32(0);
  }
  void jmpEpilogue() {
    A.b(0xE9);
    EpiFix.push_back(A.pos());
    A.i32(0);
  }

  /// One ComputeCycles addition, in program order, into xmm15 (mirror of
  /// ctx->Cycles). +0.0 is skipped: a bitwise identity here (costs are never
  /// -0.0/NaN and the accumulator never holds -0.0).
  void cost(double C) {
    const std::uint64_t Bits = bitsOf(C);
    if (Bits)
      A.sseRip(0xF2, 0x58, XMM15, Bits); // addsd xmm15, [rip+lit]
  }

  /// Writes the region's accumulated counter increments to the shared ctx
  /// cells. Clobbers EFLAGS — every stencil that branches on a computed flag
  /// re-tests after flushing.
  void flushPending() {
    assert(PendInstr < (1u << 30) && "region counter overflows imm32");
    if (PendInstr)
      A.addMemImm32(RBP, CtxNInstr, static_cast<std::int32_t>(PendInstr));
    if (PendLoads)
      A.addMemImm32(RBP, CtxNLoads, static_cast<std::int32_t>(PendLoads));
    if (PendStores)
      A.addMemImm32(RBP, CtxNStores, static_cast<std::int32_t>(PendStores));
    if (PendPref)
      A.addMemImm32(RBP, CtxNPref, static_cast<std::int32_t>(PendPref));
    PendInstr = PendLoads = PendStores = PendPref = 0;
  }

  /// Bounds check and translation: simulated address in rax -> host
  /// pointer in rdx. An address outside the footprint jumps, with rax
  /// intact, to the out-of-bounds stub. Clobbers rcx.
  void translate() {
    A.movRR(RCX, RAX);
    A.aluRR(0x2B, RCX, R14);              // sub rcx, r14
    A.aluRM(0x3B, RCX, RBP, CtxMemLimit); // cmp rcx, [limit]
    OobFix.push_back(A.jccFwd(CC_AE));
    A.leaRR(RDX, RAX, R15); // host = arena base + addr
  }

  /// Hoisted per-region capacity check: M trace slots or grow.
  void traceCheck(std::uint32_t M) {
    A.lea(RAX, R13, static_cast<std::int32_t>(8 * M));
    A.aluRM(0x3B, RAX, RBP, CtxTraceEnd);
    std::size_t Ok = A.jccFwd(CC_BE);
    A.sseRM(0xF2, 0x11, XMM15, RBP, CtxCycles);
    A.movMR(RBP, CtxTracePtr, R13);
    A.movRR(RDI, RBP);
    A.movImm32(RSI, M);
    A.callMem(RBP, CtxTraceGrow);
    A.movRM(R13, RBP, CtxTracePtr);
    A.sseRM(0xF2, 0x10, XMM15, RBP, CtxCycles);
    A.bind(Ok);
  }

  /// Appends one trace event for the address in rax (kind 0 load, 1 store,
  /// 2 prefetch); capacity was guaranteed by the region check. Preserves rax.
  void tracePush(unsigned Kind) {
    if (Kind == 0) {
      A.movMR(R13, 0, RAX);
    } else {
      A.movRR(RCX, RAX);
      A.btsImm(RCX, Kind == 1 ? 62 : 63);
      A.movMR(R13, 0, RCX);
    }
    A.aluImm32(0, R13, 8);
  }

  /// R[Dst] = RuntimeValue::ofInt(rax): full 16-byte write, zeroed .D half.
  void storeOfInt(std::uint32_t Dst) {
    A.movMR(RBX, fi(Dst), RAX);
    A.movMemImm32(RBX, fd(Dst), 0);
  }
};

bool FnEmitter::emit() {
  const std::size_t N = BF.Code.size();
  if (N == 0)
    return false;
  analyzeRegions(BF, Leader, RegionEvents);
  Off.assign(N, 0);

  // Prologue. Entry rsp % 16 == 8; five pushes make every later helper call
  // site 16-aligned per the SysV ABI.
  A.push(RBX);
  A.push(RBP);
  A.push(R13);
  A.push(R14);
  A.push(R15);
  A.movRR(RBP, RDI);
  A.movRM(RBX, RBP, CtxFrame);
  A.movRM(R14, RBP, CtxMemLo);
  A.movRM(R15, RBP, CtxMemBase);
  A.movRM(R13, RBP, CtxTracePtr);
  A.sseRM(0xF2, 0x10, XMM15, RBP, CtxCycles); // invoker zeroed it

  for (std::uint32_t Pc = 0; Pc != N; ++Pc) {
    if (Leader[Pc]) {
      flushPending(); // fallthrough edge; jumps land past this, already clean
      Off[Pc] = A.pos();
      if (RegionEvents[Pc])
        traceCheck(RegionEvents[Pc]);
    } else {
      Off[Pc] = A.pos();
    }
    if (!emitOne(Pc))
      return false;
  }
  // Bytecode always ends in a terminator; keep a fall-off from running into
  // the epilogue with unflushed counters anyway.
  flushPending();
  jmpEpilogue();

  const std::size_t Epi = A.pos();
  A.movMR(RBP, CtxTracePtr, R13);
  A.sseRM(0xF2, 0x11, XMM15, RBP, CtxCycles);
  A.pop(R15);
  A.pop(R14);
  A.pop(R13);
  A.pop(RBP);
  A.pop(RBX);
  A.ret();

  // Out-of-bounds stub, shared by every access: the body's stack is
  // call-aligned and rax holds the address.
  if (!OobFix.empty()) {
    const std::size_t Oob = A.pos();
    A.movRR(RDI, RBP);
    A.movRR(RSI, RAX);
    A.callMem(RBP, CtxOutOfBounds);
    A.b(0x0F); // ud2: the helper never returns
    A.b(0x0B);
    for (std::size_t P : OobFix)
      A.patch32(P, static_cast<std::int32_t>(Oob - (P + 4)));
  }

  for (std::size_t P : EpiFix)
    A.patch32(P, static_cast<std::int32_t>(Epi - (P + 4)));
  for (const auto &Fx : PcFix)
    A.patch32(Fx.first,
              static_cast<std::int32_t>(Off[Fx.second] - (Fx.first + 4)));
  A.finalizeLits();
  return true;
}

bool FnEmitter::emitOne(std::uint32_t Pc) {
  const bc::Instr &I = BF.Code[Pc];
  using O = bc::Opcode;

  auto intBin = [&](std::uint8_t AluOp) {
    cost(I.Cost);
    ++PendInstr;
    A.movRM(RAX, RBX, fi(I.A));
    A.aluRM(AluOp, RAX, RBX, fi(I.B));
    A.movMR(RBX, fi(I.Dst), RAX);
  };
  auto intBinImm = [&](std::uint8_t AluOp, std::uint8_t ImmSlash) {
    cost(I.Cost);
    ++PendInstr;
    A.movRM(RAX, RBX, fi(I.A));
    if (fitsI32(I.Imm.I)) {
      A.aluImm32(ImmSlash, RAX, static_cast<std::int32_t>(I.Imm.I));
    } else {
      A.movImm64(RCX, static_cast<std::uint64_t>(I.Imm.I));
      A.aluRR(AluOp, RAX, RCX);
    }
    A.movMR(RBX, fi(I.Dst), RAX);
  };
  auto divRem = [&](bool WantRem) {
    cost(I.Cost);
    ++PendInstr;
    A.movRM(RCX, RBX, fi(I.B));
    A.movRM(RAX, RBX, fi(I.A));
    // Divisors 0 and -1 (exactly those with rcx + 1 <= 1 unsigned) skip
    // idiv, which traps on INT64_MIN / -1. Both quotients are x * rcx
    // (0, and the wrapping -x); both remainders are 0.
    A.lea(RDX, RCX, 1);
    A.aluImm32(7, RDX, 1);
    std::size_t Special = A.jccFwd(CC_BE);
    A.cqo();
    A.idiv(RCX);
    if (WantRem)
      A.movRR(RAX, RDX);
    std::size_t Done = A.jmpFwd();
    A.bind(Special);
    WantRem ? A.xorEax() : A.imulRR(RAX, RCX);
    A.bind(Done);
    A.movMR(RBX, fi(I.Dst), RAX);
  };
  auto shiftCl = [&](bool Left) {
    cost(I.Cost);
    ++PendInstr;
    A.movRM(RCX, RBX, fi(I.B));
    A.movRM(RAX, RBX, fi(I.A));
    Left ? A.shlCl(RAX) : A.sarCl(RAX); // hw masks cl & 63 like the reference
    A.movMR(RBX, fi(I.Dst), RAX);
  };
  auto fpBin = [&](std::uint8_t SseOp) {
    cost(I.Cost);
    ++PendInstr;
    A.sseRM(0xF2, 0x10, XMM0, RBX, fd(I.A));
    A.sseRM(0xF2, SseOp, XMM0, RBX, fd(I.B));
    A.sseRM(0xF2, 0x11, XMM0, RBX, fd(I.Dst));
  };
  auto cmpStore = [&] {
    A.movMR(RBX, fi(I.Dst), RCX);
    A.movMemImm32(RBX, fd(I.Dst), 0);
  };
  auto cmpI = [&](std::uint8_t CC) {
    cost(I.Cost);
    ++PendInstr;
    A.xorEcx();
    A.movRM(RAX, RBX, fi(I.A));
    A.aluRM(0x3B, RAX, RBX, fi(I.B));
    A.setcc(CC, RCX);
    cmpStore();
  };
  // FP ordered compares via ucomisd: a<b and a<=b run as b>a / b>=a so the
  // unordered outcome (CF=1) reads false; ==/!= combine ZF with PF to get
  // IEEE semantics for NaN.
  auto cmpF = [&](bool Swapped, std::uint8_t CC) {
    cost(I.Cost);
    ++PendInstr;
    A.xorEcx();
    A.sseRM(0xF2, 0x10, XMM0, RBX, fd(Swapped ? I.B : I.A));
    A.sseRM(0x66, 0x2E, XMM0, RBX, fd(Swapped ? I.A : I.B)); // ucomisd
    A.setcc(CC, RCX);
    cmpStore();
  };
  auto cmpFEq = [&](bool Negated) {
    cost(I.Cost);
    ++PendInstr;
    A.xorEcx();
    A.xorEdx();
    A.sseRM(0xF2, 0x10, XMM0, RBX, fd(I.A));
    A.sseRM(0x66, 0x2E, XMM0, RBX, fd(I.B));
    A.setcc(Negated ? CC_NE : CC_E, RCX);
    A.setcc(Negated ? CC_P : CC_NP, RDX);
    A.aluRR(Negated ? 0x0B : 0x23, RCX, RDX); // or / and
    cmpStore();
  };
  auto loadCommon = [&](bool ToF, std::uint32_t Dst) {
    // Address in rax; trace event, translate, then the value write (full 16
    // bytes, other half zeroed — the reference's Out pattern).
    tracePush(0);
    translate();
    A.movRM(RAX, RDX, 0);
    if (ToF) {
      A.movMR(RBX, fd(Dst), RAX);
      A.movMemImm32(RBX, fi(Dst), 0);
    } else {
      A.movMR(RBX, fi(Dst), RAX);
      A.movMemImm32(RBX, fd(Dst), 0);
    }
  };
  auto loadFBin = [&](std::uint8_t SseOp) { // LoadF{Sub,Mul}F
    cost(I.Cost);
    ++PendInstr;
    ++PendLoads;
    A.movRM(RAX, RBX, fi(I.A));
    loadCommon(true, I.Aux);
    cost(I.CostB);
    ++PendInstr;
    A.sseRM(0xF2, 0x10, XMM0, RBX, fd(I.B));
    A.sseRM(0xF2, SseOp, XMM0, RBX, fd(I.C));
    A.sseRM(0xF2, 0x11, XMM0, RBX, fd(I.Dst));
  };
  auto brCmp = [&](std::uint8_t CC, bool ImmRhs) {
    cost(I.Cost);
    ++PendInstr;
    A.xorEcx();
    A.movRM(RAX, RBX, fi(I.A));
    if (!ImmRhs) {
      A.aluRM(0x3B, RAX, RBX, fi(I.B));
    } else if (fitsI32(I.Imm.I)) {
      A.aluImm32(7, RAX, static_cast<std::int32_t>(I.Imm.I));
    } else {
      A.movImm64(RDX, static_cast<std::uint64_t>(I.Imm.I));
      A.aluRR(0x3B, RAX, RDX);
    }
    A.setcc(CC, RCX);
    cmpStore();
    cost(I.CostB);
    ++PendInstr;
    flushPending(); // clobbers EFLAGS; re-test the materialized 0/1
    A.testRR(RCX, RCX);
    pcJcc(CC_NE, I.C);
    pcJmp(I.Aux);
  };

  switch (I.Op) {
  case O::MovI:
    cost(I.Cost);
    ++PendInstr;
    A.movRM(RAX, RBX, fi(I.A));
    A.movMR(RBX, fi(I.Dst), RAX);
    break;
  case O::PhiMovImm: // uncounted, uncosted
    A.movImm64(RAX, static_cast<std::uint64_t>(I.Imm.I));
    A.movMR(RBX, fi(I.Dst), RAX);
    A.movImm64(RAX, bitsOf(I.Imm.D));
    A.movMR(RBX, fd(I.Dst), RAX);
    break;
  case O::PhiMov: // uncounted, uncosted parallel-copy move
    A.movRM(RAX, RBX, fi(I.A));
    A.movMR(RBX, fi(I.Dst), RAX);
    A.movRM(RAX, RBX, fd(I.A));
    A.movMR(RBX, fd(I.Dst), RAX);
    break;

  case O::Add:
    intBin(0x03);
    break;
  case O::Sub:
    intBin(0x2B);
    break;
  case O::Mul:
    cost(I.Cost);
    ++PendInstr;
    A.movRM(RAX, RBX, fi(I.A));
    A.imulRM(RAX, RBX, fi(I.B));
    A.movMR(RBX, fi(I.Dst), RAX);
    break;
  case O::SDiv:
    divRem(false);
    break;
  case O::SRem:
    divRem(true);
    break;
  case O::And:
    intBin(0x23);
    break;
  case O::Or:
    intBin(0x0B);
    break;
  case O::Xor:
    intBin(0x33);
    break;
  case O::Shl:
    shiftCl(true);
    break;
  case O::AShr:
    shiftCl(false);
    break;

  case O::AddImm:
    intBinImm(0x03, 0);
    break;
  case O::SubImm:
    intBinImm(0x2B, 5);
    break;
  case O::MulImm:
    cost(I.Cost);
    ++PendInstr;
    A.movRM(RAX, RBX, fi(I.A));
    A.movImm64(RCX, static_cast<std::uint64_t>(I.Imm.I));
    A.imulRR(RAX, RCX);
    A.movMR(RBX, fi(I.Dst), RAX);
    break;

  case O::FAdd:
    fpBin(0x58);
    break;
  case O::FSub:
    fpBin(0x5C);
    break;
  case O::FMul:
    fpBin(0x59);
    break;
  case O::FDiv:
    fpBin(0x5E);
    break;
  case O::FMulImm:
    cost(I.Cost);
    ++PendInstr;
    A.sseRM(0xF2, 0x10, XMM0, RBX, fd(I.A));
    A.sseRip(0xF2, 0x59, XMM0, bitsOf(I.Imm.D));
    A.sseRM(0xF2, 0x11, XMM0, RBX, fd(I.Dst));
    break;

  case O::CmpEQ:
    cmpI(CC_E);
    break;
  case O::CmpNE:
    cmpI(CC_NE);
    break;
  case O::CmpSLT:
    cmpI(CC_L);
    break;
  case O::CmpSLE:
    cmpI(CC_LE);
    break;
  case O::CmpSGT:
    cmpI(CC_G);
    break;
  case O::CmpSGE:
    cmpI(CC_GE);
    break;
  case O::CmpFLT:
    cmpF(true, CC_A);
    break;
  case O::CmpFLE:
    cmpF(true, CC_AE);
    break;
  case O::CmpFGT:
    cmpF(false, CC_A);
    break;
  case O::CmpFGE:
    cmpF(false, CC_AE);
    break;
  case O::CmpFEQ:
    cmpFEq(false);
    break;
  case O::CmpFNE:
    cmpFEq(true);
    break;

  case O::Select:
    cost(I.Cost);
    ++PendInstr;
    A.movRM(RCX, RBX, fi(I.A));
    A.movRM(RAX, RBX, fi(I.B));
    A.movRM(RDX, RBX, fd(I.B));
    A.testRR(RCX, RCX);
    A.cmovzRM(RAX, RBX, fi(I.C));
    A.cmovzRM(RDX, RBX, fd(I.C));
    A.movMR(RBX, fi(I.Dst), RAX);
    A.movMR(RBX, fd(I.Dst), RDX);
    break;
  case O::SIToFP:
    cost(I.Cost);
    ++PendInstr;
    A.sseRM(0xF2, 0x2A, XMM0, RBX, fi(I.A), true); // cvtsi2sd
    A.sseRM(0xF2, 0x11, XMM0, RBX, fd(I.Dst));
    break;
  case O::FPToSI:
    cost(I.Cost);
    ++PendInstr;
    A.sseRM(0xF2, 0x2C, RAX, RBX, fd(I.A), true); // cvttsd2si
    A.movMR(RBX, fi(I.Dst), RAX);
    break;

  case O::Gep1Shl:
    cost(I.Cost);
    ++PendInstr;
    A.movRM(RAX, RBX, fi(I.B));
    A.shlImm8(RAX, static_cast<std::uint8_t>(I.Imm.I));
    A.aluRM(0x03, RAX, RBX, fi(I.A));
    storeOfInt(I.Dst);
    break;
  case O::GepN: {
    cost(I.Cost);
    ++PendInstr;
    const bc::GepDesc &G = BF.GepDescs[I.A];
    if (G.IdxRegs.empty()) {
      A.xorEax();
    } else {
      A.movRM(RAX, RBX, fi(G.IdxRegs[0]));
      for (std::size_t J = 1; J < G.IdxRegs.size(); ++J) {
        A.movImm64(RCX, static_cast<std::uint64_t>(G.Dims[J]));
        A.imulRR(RAX, RCX);
        A.aluRM(0x03, RAX, RBX, fi(G.IdxRegs[J]));
      }
    }
    A.movImm64(RCX, static_cast<std::uint64_t>(G.ElemSize));
    A.imulRR(RAX, RCX);
    A.aluRM(0x03, RAX, RBX, fi(G.Base));
    storeOfInt(I.Dst);
    break;
  }

  case O::LoadI:
  case O::LoadF:
    cost(I.Cost);
    ++PendInstr;
    ++PendLoads;
    A.movRM(RAX, RBX, fi(I.A));
    loadCommon(I.Op == O::LoadF, I.Dst);
    break;
  case O::StoreI:
  case O::StoreF:
    cost(I.Cost);
    ++PendInstr;
    ++PendStores;
    A.movRM(RAX, RBX, fi(I.B));
    tracePush(1);
    translate();
    A.movRM(RCX, RBX, I.Op == O::StoreI ? fi(I.A) : fd(I.A));
    A.movMR(RDX, 0, RCX);
    break;
  case O::Prefetch: // trace only: no translation, no memory touch
    cost(I.Cost);
    ++PendInstr;
    ++PendPref;
    A.movRM(RAX, RBX, fi(I.A));
    tracePush(2);
    break;

  case O::LoadFSubF:
    loadFBin(0x5C);
    break;
  case O::LoadFMulF:
    loadFBin(0x59);
    break;

  case O::Jmp:
    PendInstr += I.Count;
    cost(I.Cost);
    flushPending();
    pcJmp(I.A);
    break;
  case O::CondBr:
    cost(I.Cost);
    ++PendInstr;
    flushPending();
    A.movRM(RAX, RBX, fi(I.A));
    A.testRR(RAX, RAX);
    pcJcc(CC_NE, I.B);
    pcJmp(I.C);
    break;

  case O::BrCmpEQ:
    brCmp(CC_E, false);
    break;
  case O::BrCmpSLT:
    brCmp(CC_L, false);
    break;
  case O::BrCmpNEImm:
    brCmp(CC_NE, true);
    break;
  case O::BrCmpSLTImm:
    brCmp(CC_L, true);
    break;

  case O::Ret:
    cost(I.Cost);
    ++PendInstr;
    flushPending();
    A.movMemImm32(RBP, CtxRetValid, 0);
    jmpEpilogue();
    break;
  case O::RetVal:
    cost(I.Cost);
    ++PendInstr;
    flushPending();
    A.movRM(RAX, RBX, fi(I.A));
    A.movMR(RBP, CtxRet, RAX);
    A.movRM(RAX, RBX, fd(I.A));
    A.movMR(RBP, CtxRet + 8, RAX);
    A.movMemImm32(RBP, CtxRetValid, 1);
    jmpEpilogue();
    break;
  case O::Call:
    cost(I.Cost);
    ++PendInstr;
    flushPending();
    // Full helper boundary: the callee traces and may move the frame arena;
    // write the cursor and cycles back, reload them and the frame afterwards
    // (r14/r15 are callee-saved and the same for every activation).
    A.movMR(RBP, CtxTracePtr, R13);
    A.sseRM(0xF2, 0x11, XMM15, RBP, CtxCycles);
    A.movRR(RDI, RBP);
    A.movImm64(RSI, reinterpret_cast<std::uintptr_t>(&BF.CallDescs[I.A]));
    A.movImm32(RDX, I.Dst);
    A.callMem(RBP, CtxCall);
    A.movRM(RBX, RBP, CtxFrame);
    A.movRM(R13, RBP, CtxTracePtr);
    A.sseRM(0xF2, 0x10, XMM15, RBP, CtxCycles);
    break;

  case O::Trap:
  default:
    return false; // pre-scan should have rejected; refuse to miscompile
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Compile driver
//===----------------------------------------------------------------------===//

/// Emits \p BF into its own mmap'd buffer, W^X: RW while the stencils are
/// copied in, RX from publication on (never both).
std::unique_ptr<NativeCode> jitCompile(const bc::BytecodeFunction &BF) {
  if (const char *Bad = findUnsupported(BF))
    cannotCompile(BF, std::string("opcode '") + Bad + "' has no stencil");
  FnEmitter Emit(BF);
  if (!Emit.emit())
    cannotCompile(BF, "it has no code");
  const std::size_t Total = Emit.A.Code.size();
  const std::size_t Page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t MapSize = (Total + Page - 1) & ~(Page - 1);
  void *Mem = mmap(nullptr, MapSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED)
    cannotCompile(BF, std::string("mmap failed: ") + std::strerror(errno));
  std::memcpy(Mem, Emit.A.Code.data(), Total);
  if (mprotect(Mem, MapSize, PROT_READ | PROT_EXEC) != 0)
    cannotCompile(BF, std::string("mprotect failed: ") + std::strerror(errno));
  return std::make_unique<NativeCode>(static_cast<std::uint8_t *>(Mem),
                                      MapSize);
}

} // namespace

#endif // DAECC_NATIVE_JIT

namespace dae {
namespace sim {
namespace native {

NativeCode::NativeCode(std::uint8_t *Base, std::size_t Size)
    : Base(Base), Size(Size) {}

NativeCode::~NativeCode() {
#if defined(DAECC_NATIVE_JIT)
  munmap(Base, Size);
#endif
}

std::unique_ptr<NativeCode> compile(const bc::BytecodeFunction &BF) {
#if defined(DAECC_NATIVE_JIT)
  return jitCompile(BF);
#else
  cannotCompile(BF, "this build has no JIT");
#endif
}

} // namespace native
} // namespace sim
} // namespace dae
