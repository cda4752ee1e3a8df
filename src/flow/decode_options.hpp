// Knobs of the stateful IPFIX template decoder.
#pragma once

#include <cstddef>

namespace booterscope::flow {

struct DecoderOptions {
  /// Template cache bound per decoder; exceeding it evicts the oldest
  /// cached template (FIFO). An exporter under fault injection can announce
  /// unbounded fresh template ids; an unbounded cache is a memory leak.
  std::size_t max_templates = 256;
  /// When true, an export packet whose (source, sequence) pair was already
  /// processed is rejected with DecodeError::kDuplicateSequence — the dedup
  /// half of the retry/duplicate-tolerant I/O path. Off by default so
  /// benchmark loops and stateless replays keep decoding the same bytes.
  bool dedup_sequences = false;
  /// How many recent sequence numbers per source are remembered.
  std::size_t dedup_window = 64;
};

}  // namespace booterscope::flow
