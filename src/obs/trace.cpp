#include "obs/trace.hpp"

#include <atomic>

namespace psclip::obs {

const char* to_string(Cat c) {
  switch (c) {
    case Cat::kRequest: return "request";
    case Cat::kPhase: return "phase";
    case Cat::kSlab: return "slab";
    case Cat::kRung: return "rung";
    case Cat::kParse: return "parse";
    case Cat::kSchedule: return "schedule";
    case Cat::kSerialize: return "serialize";
  }
  return "?";
}

namespace {
std::atomic<TraceSink*> g_sink{nullptr};
}  // namespace

TraceSink* global_sink() { return g_sink.load(std::memory_order_acquire); }

void set_global_sink(TraceSink* sink) {
  g_sink.store(sink, std::memory_order_release);
}

}  // namespace psclip::obs
