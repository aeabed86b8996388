#include "mptcp/receiver.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace progmp::mptcp {

AckInfo Receiver::on_data(const DataSegment& seg) {
  PROGMP_CHECK(seg.sbf_slot >= 0 && seg.sbf_slot < kMaxSubflows);
  SubflowRx& rx = subflows_[static_cast<std::size_t>(seg.sbf_slot)];

  if (seg.sbf_seq < rx.expected || rx.ooo.contains(seg.sbf_seq)) {
    // Subflow-level duplicate (spurious retransmission); re-ACK.
    ++dup_segs_;
    ++dup_segs_network_;
    return make_ack(seg.sbf_slot);
  }

  // Bounded reassembly: a first-seen segment that would be *parked* out of
  // order must fit in what is left of the receive buffer, or it is dropped
  // as if lost on the wire (the sender's RTO recovers it once space frees
  // up). In-order data always fits — the advertised window already charges
  // for unread bytes, and OOO data inside the advertised span never shrank
  // it — so only the slow-path-fills-the-buffer pathology is cut off here.
  if (buffered_bytes() + seg.size > mem_liability_bytes() &&
      would_park(rx, seg)) {
    ++recv_buf_drops_;
    if (trace_ != nullptr) {
      trace_->emit(TraceEventType::kRecvBufDrop, sim_.now(), seg.sbf_slot,
                   buffered_bytes(), seg.size,
                   static_cast<std::int64_t>(seg.meta_seq));
    }
    return make_ack(seg.sbf_slot);
  }

  if (seg.sbf_seq == rx.expected) {
    // In subflow order: advance and drain any now-contiguous held segments.
    ++rx.expected;
    if (cfg_.model == ReceiverModel::kMultiLayer) {
      meta_receive_checked(seg);
    }
    auto it = rx.ooo.begin();
    while (it != rx.ooo.end() && it->first == rx.expected) {
      ++rx.expected;
      if (cfg_.model == ReceiverModel::kMultiLayer) {
        sbf_ooo_bytes_ -= it->second.size;
        meta_receive_checked(it->second);
      }
      index_erase(it->second.meta_seq);
      it = rx.ooo.erase(it);
    }
  } else {
    // Subflow-level out of order: hold (multilayer keeps the data hostage
    // here; optimized only remembers the seq for ACK bookkeeping).
    rx.ooo.emplace(seg.sbf_seq, seg);
    ++sbf_ooo_meta_[seg.meta_seq];
    if (cfg_.model == ReceiverModel::kMultiLayer) {
      sbf_ooo_bytes_ += seg.size;
    }
  }

  if (cfg_.model == ReceiverModel::kOptimized) {
    // The optimized receiver hands every first-seen segment to the meta
    // layer immediately, regardless of subflow ordering.
    meta_receive_checked(seg);
  }

  if (cfg_.autotune) maybe_autotune();

  return make_ack(seg.sbf_slot);
}

AckInfo Receiver::peek_ack(int slot) {
  PROGMP_CHECK(slot >= 0 && slot < kMaxSubflows);
  const AckInfo ack{slot, subflows_[static_cast<std::size_t>(slot)].expected,
                    meta_expected_, rwnd_bytes(), ack_stamp_};
  note_advertised(ack.rwnd_bytes);
  return ack;
}

bool Receiver::would_park(const SubflowRx& rx, const DataSegment& seg) const {
  if (seg.sbf_seq > rx.expected) return true;  // subflow-level hold
  // In subflow order; parks only when the meta reassembly has to hold it.
  return seg.meta_seq > meta_expected_ && meta_ooo_.count(seg.meta_seq) == 0;
}

AckInfo Receiver::make_ack(int slot) {
  const AckInfo ack{slot, subflows_[static_cast<std::size_t>(slot)].expected,
                    meta_expected_, rwnd_bytes(), ++ack_stamp_};
  last_advertised_rwnd_ = ack.rwnd_bytes;
  note_advertised(ack.rwnd_bytes);
  return ack;
}

void Receiver::note_advertised(std::int64_t rwnd) {
  // The sender's license to transmit now extends to rcv_nxt + rwnd. In
  // delivered-byte coordinates that right edge is delivered_bytes_ + rwnd;
  // the monotone max over all advertisements is what the liability envelope
  // must keep covering after a buffer shrink.
  max_right_edge_bytes_ =
      std::max(max_right_edge_bytes_, delivered_bytes_ + rwnd);
}

void Receiver::index_erase(std::uint64_t meta_seq) {
  auto it = sbf_ooo_meta_.find(meta_seq);
  PROGMP_CHECK(it != sbf_ooo_meta_.end());
  if (--it->second == 0) sbf_ooo_meta_.erase(it);
}

void Receiver::reset_subflow(int slot) {
  PROGMP_CHECK(slot >= 0 && slot < kMaxSubflows);
  SubflowRx& rx = subflows_[static_cast<std::size_t>(slot)];
  for (const auto& [seq, seg] : rx.ooo) {
    // Segments held hostage at the subflow level die with the subflow; the
    // sender reinjects the unacked meta range elsewhere anyway.
    if (cfg_.model == ReceiverModel::kMultiLayer) sbf_ooo_bytes_ -= seg.size;
    index_erase(seg.meta_seq);
  }
  rx.ooo.clear();
  rx.expected = 0;
}

void Receiver::meta_receive_checked(const DataSegment& seg) {
  const bool csum_bad =
      cfg_.dss_checksum && !seg.dss_stripped &&
      seg.dss_csum != dss_checksum(seg.meta_seq, seg.size);
  if (seg.dss_stripped) {
    // The bytes arrived as plain TCP data with no DSS mapping: the subflow
    // level already processed (and will ACK) them, but the meta layer has
    // nothing to place. A detecting receiver reports the mapping failure so
    // the sender can requeue the data and fall back (RFC 8684 section 3.7);
    // a naive one silently loses the data at the meta level and the
    // transfer wedges on the never-advancing DATA_ACK.
    if (cfg_.dss_checksum) {
      ++mapping_lost_segments_;
      if (mapping_failure_fn_) {
        mapping_failure_fn_(seg.sbf_slot, seg.meta_seq,
                            MappingFailure::kStripped);
      }
    }
    return;
  }
  if (csum_bad) {
    // DSS checksum mismatch: a proxy rewrote the payload in flight. The
    // mapping itself is intact but the data under it is not trustworthy —
    // discard it and report, exactly what the checksum exists for.
    ++csum_fail_segments_;
    if (mapping_failure_fn_) {
      mapping_failure_fn_(seg.sbf_slot, seg.meta_seq,
                          MappingFailure::kChecksum);
    }
    return;
  }
  if (seg.payload_rewritten) {
    // Detection is off (or the checksum happened to be unvalidated): the
    // rewritten payload is delivered as if genuine. Count it so benches can
    // show what the naive receiver silently accepts.
    const bool first_seen =
        seg.meta_seq >= meta_expected_ && !meta_ooo_.contains(seg.meta_seq);
    if (first_seen) corrupt_delivered_bytes_ += seg.size;
  }
  meta_receive(seg);
}

void Receiver::meta_receive(const DataSegment& seg) {
  if (seg.meta_seq < meta_expected_ || meta_ooo_.contains(seg.meta_seq)) {
    // Meta-level duplicate — a redundant copy arrived on another subflow.
    // This is the D-SACK signal: a *different* transmission of data already
    // held, i.e. a redundant scheduler's extra copy burning receive memory.
    ++dup_segs_;
    ++dsack_dups_;
    return;
  }
  meta_ooo_.emplace(seg.meta_seq, seg.size);
  meta_ooo_bytes_ += seg.size;
  deliver_contiguous();
}

void Receiver::deliver_contiguous() {
  auto it = meta_ooo_.begin();
  while (it != meta_ooo_.end() && it->first == meta_expected_) {
    const std::int32_t size = it->second;
    meta_ooo_bytes_ -= size;
    delivered_bytes_ += size;
    deliveries_.push_back({sim_.now(), it->first});
    if (trace_ != nullptr) {
      trace_->emit(TraceEventType::kDeliver, sim_.now(), -1, 0, size,
                   static_cast<std::int64_t>(it->first));
    }
    if (cfg_.app_read_bytes_per_sec > 0) {
      unread_bytes_ += size;
      schedule_app_read();
    }
    if (deliver_fn_) deliver_fn_(it->first, size);
    ++meta_expected_;
    it = meta_ooo_.erase(it);
  }
}

std::int64_t Receiver::rwnd_bytes() const {
  // The window is advertised from the cumulative ACK point (rcv_nxt), so
  // out-of-order data — which lies *inside* the advertised span — must not
  // shrink it; otherwise the sender could never fit the gap-filling
  // retransmission and the connection would deadlock. Only data the
  // application has not read yet reduces the window.
  return std::max<std::int64_t>(0, recv_buf_target_ - unread_bytes_);
}

void Receiver::set_recv_buf_limit(std::int64_t cap) {
  recv_buf_limit_ = std::max<std::int64_t>(0, cap);
  if (!cfg_.autotune) {
    // Static buffers track the grant exactly (the standalone value was
    // recv_buf_bytes; under a pool the grant *is* the buffer size).
    recv_buf_target_ = recv_buf_limit_;
  } else if (recv_buf_target_ > recv_buf_limit_) {
    // Autotuned targets clamp down immediately; growing back is the DRS
    // loop's job, driven by demand.
    recv_buf_target_ = recv_buf_limit_;
  }
}

void Receiver::maybe_autotune() {
  if (rtt_hint_ <= TimeNs{0}) return;  // no RTT sample yet: no epoch clock
  const TimeNs now = sim_.now();
  if (drs_epoch_start_ < TimeNs{0}) {
    drs_epoch_start_ = now;
    drs_epoch_delivered_ = delivered_bytes_;
    return;
  }
  if (now - drs_epoch_start_ < rtt_hint_) return;

  // One epoch elapsed: the classic DRS estimate is that a healthy flow
  // needs twice what it delivered in the last RTT (data in flight plus the
  // next RTT's worth arriving while the app reads).
  const std::int64_t want = 2 * (delivered_bytes_ - drs_epoch_delivered_);
  if (want > recv_buf_target_) {
    if (want > recv_buf_limit_ && mem_grant_fn_) {
      // Ask the pool for more. Its answer is authoritative in *both*
      // directions — it may also be smaller than the current limit if the
      // pool reclaimed or shed this connection since the last grant.
      recv_buf_limit_ = std::max<std::int64_t>(0, mem_grant_fn_(want));
      if (recv_buf_target_ > recv_buf_limit_) {
        recv_buf_target_ = recv_buf_limit_;
      }
    }
    const std::int64_t next = std::min(want, recv_buf_limit_);
    if (next > recv_buf_target_) {
      recv_buf_target_ = next;
      ++autotune_grows_;
    }
    drs_low_epochs_ = 0;
  } else if (want < recv_buf_target_ / 2) {
    // Demand collapsed. Require two consecutive low epochs (one could be a
    // scheduler hiccup or a loss burst), then halve at most per epoch so a
    // transient lull never slams the window shut.
    if (++drs_low_epochs_ >= 2) {
      const std::int64_t floor =
          std::min(kAutotuneMinBytes, recv_buf_limit_);
      const std::int64_t next =
          std::max({want, floor, recv_buf_target_ / 2});
      if (next < recv_buf_target_) {
        recv_buf_target_ = next;
        ++autotune_shrinks_;
      }
      drs_low_epochs_ = 0;
    }
  } else {
    drs_low_epochs_ = 0;
  }
  drs_epoch_start_ = now;
  drs_epoch_delivered_ = delivered_bytes_;
}

void Receiver::schedule_app_read() {
  if (read_scheduled_ || unread_bytes_ <= 0) return;
  read_scheduled_ = true;
  // Drain in ~4KB chunks at the configured application read rate.
  const std::int64_t chunk = std::min<std::int64_t>(unread_bytes_, 4096);
  const TimeNs delay = transmission_time(chunk, cfg_.app_read_bytes_per_sec * 8);
  sim_.schedule_after(delay, [this, chunk] {
    read_scheduled_ = false;
    unread_bytes_ = std::max<std::int64_t>(0, unread_bytes_ - chunk);
    maybe_emit_window_update();
    schedule_app_read();
  });
}

void Receiver::maybe_emit_window_update() {
  constexpr std::int64_t kSwsMssBytes = 1400;
  const std::int64_t rwnd = rwnd_bytes();
  // SWS avoidance (RFC 9293 §3.8.6.2.2): silly little window advances are
  // swallowed; only a window opening from zero or a full-MSS gain since the
  // last advertisement is worth an update of its own.
  const bool opens_from_zero = last_advertised_rwnd_ <= 0 && rwnd > 0;
  const bool grew_an_mss = rwnd - last_advertised_rwnd_ >= kSwsMssBytes;
  if (!opens_from_zero && !grew_an_mss) {
    ++window_updates_coalesced_;
    return;
  }
  ++window_updates_emitted_;
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kWindowUpdate, sim_.now(), -1,
                 last_advertised_rwnd_, rwnd);
  }
  last_advertised_rwnd_ = rwnd;
  note_advertised(rwnd);
  if (window_update_fn_) window_update_fn_(++ack_stamp_, meta_expected_, rwnd);
}

std::optional<std::string> Receiver::audit() const {
  std::int64_t meta_bytes = 0;
  for (const auto& [seq, size] : meta_ooo_) meta_bytes += size;
  if (meta_bytes != meta_ooo_bytes_) {
    return "meta_ooo_bytes counter " + std::to_string(meta_ooo_bytes_) +
           " != recomputed " + std::to_string(meta_bytes);
  }
  std::int64_t sbf_bytes = 0;
  std::map<std::uint64_t, int> index;
  for (const SubflowRx& rx : subflows_) {
    for (const auto& [sbf_seq, seg] : rx.ooo) {
      ++index[seg.meta_seq];
      if (cfg_.model == ReceiverModel::kMultiLayer) sbf_bytes += seg.size;
    }
  }
  if (sbf_bytes != sbf_ooo_bytes_) {
    return "sbf_ooo_bytes counter " + std::to_string(sbf_ooo_bytes_) +
           " != recomputed " + std::to_string(sbf_bytes);
  }
  if (index != sbf_ooo_meta_) {
    return "has_received meta_seq index out of sync with subflow OOO queues";
  }
  if (unread_bytes_ < 0) {
    return "unread_bytes negative: " + std::to_string(unread_bytes_);
  }
  if (recv_buf_target_ > recv_buf_limit_) {
    return "recv_buf_target " + std::to_string(recv_buf_target_) +
           " above limit " + std::to_string(recv_buf_limit_);
  }
  if (buffered_bytes() > mem_liability_bytes()) {
    return "receive buffer overrun: unread+ooo " +
           std::to_string(buffered_bytes()) + " > liability envelope " +
           std::to_string(mem_liability_bytes());
  }
  return std::nullopt;
}

}  // namespace progmp::mptcp
