// The kCleartextFast execution backend: scenario sweeps without crypto.
//
// The ROADMAP's large scenario sweeps (N in the tens of thousands) are out
// of reach for the secure stack — every vertex would cost a full GMW block
// evaluation plus k+1 encrypted transfers per edge per iteration. This
// backend drops the cryptography but deliberately keeps everything else the
// secure path has:
//
//  * the *semantics*: the very same update / aggregation / noise boolean
//    circuits are built and evaluated (in cleartext), so fixed-point
//    saturation, division and clamping behave bit-for-bit like the MPC run
//    and the released figure matches the EnSolveFixed/EgjSolveFixed
//    references exactly (modulo the output noise, which is drawn from the
//    same sampler circuit fed by a seed-derived PRG);
//  * the *transport layer*: every inter-vertex message (one L-bit word per
//    edge per iteration, one state word per vertex at aggregation) crosses
//    a metered net::Transport with the secure path's FIFO (from, to,
//    session) channel discipline — so traffic shapes are observable and any
//    registered transport (including the TCP multi-process backend, single-
//    or multi-machine) can back this mode too;
//  * the *scheduler layer*: compute phases run as word-chunk tasks on a
//    persistent core::WorkerPool, like the secure runtime's transfer phase.
//
// What it does not preserve: byte counts (a cleartext message is the L-bit
// word, not an encrypted share matrix) and, of course, any privacy.
#ifndef SRC_ENGINE_CLEARTEXT_BACKEND_H_
#define SRC_ENGINE_CLEARTEXT_BACKEND_H_

#include <memory>

#include "src/engine/backend.h"

namespace dstress::engine {

// The kCleartextFast backend: the flat-arena graph plane (src/graphplane,
// docs/graph-plane.md) behind the ExecutionBackend seam. Every run, solo or
// ensemble, goes through one chunk loop over one plane. Checkpointing is a
// secure-mode feature: a config that asks for it aborts.
std::unique_ptr<ExecutionBackend> MakeArenaCleartextBackend(const BackendContext& context);

}  // namespace dstress::engine

#endif  // SRC_ENGINE_CLEARTEXT_BACKEND_H_
