#include "spans.hpp"

#include <cstdio>

namespace sm::perfbench {

uint32_t Tracer::intern(const char* name) {
  auto it = name_ids_.find(std::string_view(name));
  if (it != name_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTime& t = out[names_[s.name]];
    int64_t dur = s.end_ns - s.start_ns;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    t.calls += s.count;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    long long parent = s.parent == kNoParent ? -1 : (long long)s.parent;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%zu,\"parent\":%lld,\"trial\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"count\":%llu}\n",
                 names_[s.name].c_str(), i, parent,
                 (unsigned long long)s.trial, (long long)s.start_ns,
                 (long long)s.end_ns, (unsigned long long)s.count);
  }
  return std::fclose(f) == 0;
}

}  // namespace sm::perfbench
