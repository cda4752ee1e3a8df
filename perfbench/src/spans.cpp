#include "spans.hpp"

#include <cstdio>
#include <cstring>
#include <memory>

namespace perfbench {

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent != kNoParent) {
      self[spans_[i].parent] -= spans_[i].end - spans_[i].start;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const char* name = spans_[i].name;
    const char* dot = std::strchr(name, '.');
    const std::string layer =
        dot == nullptr ? std::string(name)
                       : std::string(name, static_cast<std::size_t>(dot - name));
    by_layer[layer] += static_cast<double>(self[i]) / 1e9;
  }
  return by_layer;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out.get(),
                 "{\"run\":\"%s\",\"span\":%zu,\"name\":\"%s\",\"parent\":",
                 run_id_.c_str(), i, s.name);
    if (s.parent == kNoParent) {
      std::fputs("null", out.get());
    } else {
      std::fprintf(out.get(), "%u", s.parent);
    }
    std::fprintf(out.get(), ",\"start_ns\":%lld,\"end_ns\":%lld",
                 static_cast<long long>(s.start - origin),
                 static_cast<long long>(s.end - origin));
    if (s.index != kNoIndex) {
      std::fprintf(out.get(), ",\"index\":%lld",
                   static_cast<long long>(s.index));
    }
    std::fputs("}\n", out.get());
  }
  return std::fflush(out.get()) == 0 && std::ferror(out.get()) == 0;
}

}  // namespace perfbench
