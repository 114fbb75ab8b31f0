// Timing decorators for the two narrow boundaries of the query path: the
// debugger interface (dbg::DebuggerBackend) and the remote wire
// (rsp::Transport). They forward every call unchanged and record how many
// calls crossed, how long they took and how many bytes they moved. The
// benchmark puts them around the shipped backends only in its traced run.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "histogram.h"
#include "src/dbg/backend.h"
#include "src/rsp/transport.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Counts of one layer, snapshotted around the calls being attributed.
struct BoundaryCounts {
  uint64_t calls = 0;
  uint64_t busy_ns = 0;
  uint64_t bytes = 0;

  BoundaryCounts operator-(const BoundaryCounts& o) const {
    return {calls - o.calls, busy_ns - o.busy_ns, bytes - o.bytes};
  }
};

class TimingBackend : public duel::dbg::DebuggerBackend {
 public:
  explicit TimingBackend(duel::dbg::DebuggerBackend& inner) : inner_(&inner) {}

  // calls/busy_ns cover every narrow call; bytes counts bytes read.
  const BoundaryCounts& counts() const { return counts_; }

  void GetTargetBytes(duel::target::Addr addr, void* out, size_t size) override {
    Timer t(this, size);
    inner_->GetTargetBytes(addr, out, size);
  }
  void PutTargetBytes(duel::target::Addr addr, const void* in, size_t size) override {
    Timer t(this, 0);
    inner_->PutTargetBytes(addr, in, size);
  }
  bool ValidTargetBytes(duel::target::Addr addr, size_t size) override {
    Timer t(this, 0);
    return inner_->ValidTargetBytes(addr, size);
  }
  duel::target::Addr AllocTargetSpace(size_t size, size_t align) override {
    Timer t(this, 0);
    return inner_->AllocTargetSpace(size, align);
  }
  size_t ReadTargetPrefix(duel::target::Addr addr, void* out, size_t size) override {
    Timer t(this, 0);
    size_t n = inner_->ReadTargetPrefix(addr, out, size);
    counts_.bytes += n;
    return n;
  }
  std::vector<std::vector<uint8_t>> ReadTargetRanges(
      std::span<const duel::dbg::ReadRange> ranges) override {
    Timer t(this, 0);
    std::vector<std::vector<uint8_t>> out = inner_->ReadTargetRanges(ranges);
    for (const std::vector<uint8_t>& r : out) {
      counts_.bytes += r.size();
    }
    return out;
  }
  void BeginQueryEpoch() override { inner_->BeginQueryEpoch(); }
  uint64_t SymbolEpoch() override { return inner_->SymbolEpoch(); }
  duel::target::RawDatum CallTargetFunc(const std::string& name,
                                        std::span<const duel::target::RawDatum> args) override {
    Timer t(this, 0);
    return inner_->CallTargetFunc(name, args);
  }
  std::optional<duel::dbg::VariableInfo> GetTargetVariable(const std::string& name) override {
    Timer t(this, 0);
    return inner_->GetTargetVariable(name);
  }
  std::optional<duel::dbg::FunctionInfo> GetTargetFunction(const std::string& name) override {
    Timer t(this, 0);
    return inner_->GetTargetFunction(name);
  }
  duel::target::TypeRef GetTargetTypedef(const std::string& name) override {
    Timer t(this, 0);
    return inner_->GetTargetTypedef(name);
  }
  duel::target::TypeRef GetTargetStruct(const std::string& tag) override {
    Timer t(this, 0);
    return inner_->GetTargetStruct(tag);
  }
  duel::target::TypeRef GetTargetUnion(const std::string& tag) override {
    Timer t(this, 0);
    return inner_->GetTargetUnion(tag);
  }
  duel::target::TypeRef GetTargetEnum(const std::string& tag) override {
    Timer t(this, 0);
    return inner_->GetTargetEnum(tag);
  }
  std::optional<duel::dbg::EnumeratorInfo> GetTargetEnumerator(
      const std::string& name) override {
    Timer t(this, 0);
    return inner_->GetTargetEnumerator(name);
  }
  size_t NumFrames() override {
    Timer t(this, 0);
    return inner_->NumFrames();
  }
  std::string FrameFunction(size_t frame) override {
    Timer t(this, 0);
    return inner_->FrameFunction(frame);
  }
  std::vector<duel::dbg::FrameVariable> FrameLocals(size_t frame) override {
    Timer t(this, 0);
    return inner_->FrameLocals(frame);
  }
  duel::target::TypeTable& Types() override { return inner_->Types(); }

 private:
  struct Timer {
    Timer(TimingBackend* b, size_t bytes) : b_(b), start_(NowNs()) {
      b_->counts_.calls++;
      b_->counts_.bytes += bytes;
    }
    ~Timer() { b_->counts_.busy_ns += NowNs() - start_; }
    TimingBackend* b_;
    uint64_t start_;
  };

  duel::dbg::DebuggerBackend* inner_;
  BoundaryCounts counts_;
};

class TimingTransport final : public duel::rsp::Transport {
 public:
  explicit TimingTransport(duel::rsp::Transport& inner) : inner_(&inner) {}

  std::string RoundTrip(const std::string& request) override {
    const uint64_t start = NowNs();
    std::string response = inner_->RoundTrip(request);
    const uint64_t ns = NowNs() - start;
    round_trips_ = inner_->round_trips();
    bytes_on_wire_ = inner_->bytes_on_wire();
    busy_ns_ += ns;
    samples_.Record(ns);
    return response;
  }

  // calls = round trips, bytes = bytes on the wire (both directions).
  BoundaryCounts counts() const { return {round_trips_, busy_ns_, bytes_on_wire_}; }
  const Histogram& round_trip_ns() const { return samples_; }

 private:
  duel::rsp::Transport* inner_;
  uint64_t busy_ns_ = 0;
  Histogram samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
