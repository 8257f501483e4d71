#ifndef COSTSENSE_RUNTIME_SINK_SINK_H_
#define COSTSENSE_RUNTIME_SINK_SINK_H_

#include <string_view>

#include "common/status.h"

namespace costsense::runtime::sink {

/// One stage of a composable result-output chain (modeled on xtrabackup's
/// ds_* datasinks): every producer in the repo — figure stdout, the JSON
/// sidecar, cache-store snapshots, serve's streamed response records —
/// writes through a stack of these stages instead of bespoke I/O code.
///
/// Contract:
///
///   Write(span)  Appends `span` to the stream. Byte-oriented stages
///                (file, stdio, socket) treat the stream as one byte
///                sequence and MUST produce output that depends only on
///                the concatenated bytes plus the Flush/Close points,
///                never on how writes were chunked. Record-oriented
///                stages (CRC framing, transport frames) treat each Write
///                as exactly one record.
///   Flush()      Pushes everything buffered in this stage downstream and
///                flushes downstream — the checkpoint entry point. An
///                aborted producer keeps every byte written up to the
///                last successful Flush. Idempotent when nothing is
///                buffered.
///   Close()      Finalizes this stage (draining any buffered tail) and
///                closes the downstream stage. After Close, Write and
///                Flush are kFailedPrecondition; a second Close is a
///                no-op success.
///
/// Chains compose by reference: a stage holds `Sink&` to its downstream
/// neighbour and owns nothing, so a chain is built bottom-up on the stack
/// (an atomic file, then CRC framing over it) and torn down
/// by a single Close on the top stage. Stages are not thread-safe; a
/// chain belongs to one producer, which is also what keeps the emitted
/// bytes deterministic.
class Sink {
 public:
  virtual ~Sink() = default;

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  [[nodiscard]] virtual Status Write(std::string_view span) = 0;
  [[nodiscard]] virtual Status Flush() = 0;
  [[nodiscard]] virtual Status Close() = 0;

 protected:
  Sink() = default;
};

}  // namespace costsense::runtime::sink

#endif  // COSTSENSE_RUNTIME_SINK_SINK_H_
