#include "flow/batch.hpp"

#include <utility>

namespace booterscope::flow {

FlowBatch::FlowBatch(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  src_.reserve(capacity_);
  dst_.reserve(capacity_);
  src_port_.reserve(capacity_);
  dst_port_.reserve(capacity_);
  proto_.reserve(capacity_);
  packets_.reserve(capacity_);
  bytes_.reserve(capacity_);
  first_.reserve(capacity_);
  last_.reserve(capacity_);
  src_asn_.reserve(capacity_);
  dst_asn_.reserve(capacity_);
  peer_asn_.reserve(capacity_);
  direction_.reserve(capacity_);
  sampling_rate_.reserve(capacity_);
}

void FlowBatch::push_back(const FlowRecord& f) {
  src_.push_back(f.src);
  dst_.push_back(f.dst);
  src_port_.push_back(f.src_port);
  dst_port_.push_back(f.dst_port);
  proto_.push_back(f.proto);
  packets_.push_back(f.packets);
  bytes_.push_back(f.bytes);
  first_.push_back(f.first);
  last_.push_back(f.last);
  src_asn_.push_back(f.src_asn);
  dst_asn_.push_back(f.dst_asn);
  peer_asn_.push_back(f.peer_asn);
  direction_.push_back(f.direction);
  sampling_rate_.push_back(f.sampling_rate);
}

void FlowBatch::clear() noexcept {
  src_.clear();
  dst_.clear();
  src_port_.clear();
  dst_port_.clear();
  proto_.clear();
  packets_.clear();
  bytes_.clear();
  first_.clear();
  last_.clear();
  src_asn_.clear();
  dst_asn_.clear();
  peer_asn_.clear();
  direction_.clear();
  sampling_rate_.clear();
}

FlowBatchView FlowBatch::view() const noexcept {
  return FlowBatchView{src_,    dst_,     src_port_, dst_port_,  proto_,
                       packets_, bytes_,  first_,    last_,      src_asn_,
                       dst_asn_, peer_asn_, direction_, sampling_rate_};
}

void FlowBatchSink::day_complete(int /*day*/, util::Timestamp /*day_start*/) {}

CollectingSink::CollectingSink(std::size_t vantages) : flows_(vantages) {}

void CollectingSink::consume(std::size_t vantage, const FlowBatchView& batch) {
  if (vantage >= flows_.size()) flows_.resize(vantage + 1);
  FlowList& out = flows_[vantage];
  for (std::size_t i = 0; i < batch.size(); ++i) out.push_back(batch.record(i));
}

FanOutSink::FanOutSink(std::vector<FlowBatchSink*> sinks)
    : sinks_(std::move(sinks)) {}

void FanOutSink::consume(std::size_t vantage, const FlowBatchView& batch) {
  for (FlowBatchSink* sink : sinks_) sink->consume(vantage, batch);
}

void FanOutSink::day_complete(int day, util::Timestamp day_start) {
  for (FlowBatchSink* sink : sinks_) sink->day_complete(day, day_start);
}

FlowBatcher::FlowBatcher(FlowBatchSink& sink, std::size_t vantage,
                         std::size_t batch_capacity)
    : sink_(&sink), vantage_(vantage), batch_(batch_capacity) {}

void FlowBatcher::push(const FlowRecord& f) {
  batch_.push_back(f);
  if (batch_.full()) flush();
}

void FlowBatcher::flush() {
  if (batch_.empty()) return;
  delivered_ += batch_.size();
  sink_->consume(vantage_, batch_.view());
  batch_.clear();
}

}  // namespace booterscope::flow
