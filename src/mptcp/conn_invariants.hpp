// The connection-level invariant pack for InvariantChecker.
//
// These are the structural facts the MPTCP engine promises at every event
// boundary — the properties §3.1/§3.3 of the paper state informally
// ("packets must not be lost", "ACKed data vanishes from all queues") made
// machine-checkable so a chaos soak can assert them across hundreds of
// seeded fault plans.
//
// Cheap checks (every event boundary):
//  * byte_conservation_cheap — delivered and meta-ACKed bytes never exceed
//    written bytes;
//  * inflight_le_cwnd — a subflow's in-flight segment count only *grows*
//    while within its congestion window. Growth-gated because an RTO or a
//    recovery halving legitimately leaves old in-flight above the shrunken
//    window; within one event the final pump() always sees the final cwnd,
//    so growth beyond it is a real violation. This rule needs *consecutive*
//    boundaries, hence the every-event class.
//  * recv_buffer_bound — the advertised window is never negative, and
//    unread + out-of-order bytes never exceed the receiver's liability
//    envelope (recv_buf_bytes unless the buffer was resized);
//  * sender_within_window — the transmitted right edge never *grows* past
//    meta_una + the advertised window. Growth-gated like inflight_le_cwnd:
//    cross-path ACK reordering can legitimately shrink the sender's window
//    view after a compliant transmission.
//
// Strided checks (full scans; their violations are persistent, so a sparser
// cadence still catches them):
//  * byte_conservation — meta_una_bytes + sum(unacked sizes) == written;
//  * unacked_ring — the unacked ring holds exactly the meta_seqs
//    meta_una .. next_meta_seq-1, in order (what lets the meta ACK pop its
//    front and a mapping failure index it by meta_seq - meta_una);
//  * queue_membership — Q/QU/RQ entries carry the matching membership flag,
//    hold no duplicates and no ACKed/DROPped packets, and qu_bytes matches
//    the actual QU byte sum;
//  * sent_mask_sanity — no skb claims transmission on a slot that does not
//    exist;
//  * receiver_accounting — Receiver::audit(): the OOO byte counters and the
//    has_received meta_seq index match a ground-truth recount of the
//    reassembly queues, and the occupancy bound holds;
//  * no_stranded_packets — every unacked, undropped packet has an owner:
//    waiting in Q or RQ, tracked by some subflow's queue/in-flight list, or
//    already received by the far end (sbf-ACKed but meta-holed packets park
//    in QU with no subflow owner until the hole fills — that is legitimate).
//    This is the check that catches a lost reinjection harvest.
#pragma once

#include "core/invariants.hpp"

namespace progmp::mptcp {

class MptcpConnection;

/// Registers the pack on `checker`. `conn` must outlive every checker run.
void install_connection_invariants(InvariantChecker& checker,
                                   const MptcpConnection& conn);

}  // namespace progmp::mptcp
