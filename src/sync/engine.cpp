#include "sync/engine.hpp"

#include "obs/prom.hpp"

namespace ribltx::sync::v2 {

namespace {

[[nodiscard]] bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kAdminReply);
}

/// Reads a length-prefixed payload, rejecting length claims the frame
/// cannot possibly hold before any allocation.
[[nodiscard]] std::vector<std::byte> read_payload(ByteReader& r) {
  const std::uint64_t len = r.uvarint();
  if (len > r.remaining()) {
    throw ProtocolError("frame payload length exceeds frame size");
  }
  const auto view = r.bytes(static_cast<std::size_t>(len));
  return std::vector<std::byte>(view.begin(), view.end());
}

}  // namespace

Frame parse_frame(std::span<const std::byte> data) {
  if (data.empty()) throw ProtocolError("empty frame");
  try {
    ByteReader r(data);
    Frame out;
    const std::uint8_t type = r.u8();
    if (!known_type(type)) throw ProtocolError("unknown frame type");
    out.type = static_cast<FrameType>(type);
    out.session_id = r.uvarint();
    if (out.session_id == 0) {
      throw ProtocolError("session id 0 is reserved");
    }
    switch (out.type) {
      case FrameType::kHello: {
        if (r.u8() != kVersion) throw ProtocolError("version mismatch");
        out.backend = r.u8();
        out.item_size = r.u32();
        out.checksum_len = r.u8();
        const std::uint8_t flags = r.u8();
        if ((flags & ~kKnownHelloFlags) != 0) {
          throw ProtocolError("unknown HELLO flags");
        }
        out.count_residuals = (flags & kFlagCountResiduals) != 0;
        if ((flags & kFlagSharded) != 0) {
          const std::uint64_t shard_index = r.uvarint();
          const std::uint64_t shard_count = r.uvarint();
          if (shard_count == 0 || shard_count > 0xffffffffull ||
              shard_index >= shard_count) {
            throw ProtocolError("HELLO shard fields out of range");
          }
          out.shard_index = static_cast<std::uint32_t>(shard_index);
          out.shard_count = static_cast<std::uint32_t>(shard_count);
        }
        if ((flags & kFlagAdaptive) != 0) {
          out.adaptive = true;
          out.peer_id = r.uvarint();
          out.probe = read_payload(r);
        }
        break;
      }
      case FrameType::kHelloAck: {
        out.backend = r.u8();
        out.checksum_len = r.u8();
        const std::uint8_t flags = r.u8();
        if ((flags & ~kKnownHelloAckFlags) != 0) {
          throw ProtocolError("unknown HELLO_ACK flags");
        }
        out.count_residuals = (flags & kFlagCountResiduals) != 0;
        if (out.count_residuals) out.value = r.uvarint();
        if ((flags & kFlagAdaptive) != 0) {
          out.adaptive = true;
          out.d_estimate = r.uvarint();
          out.pace_cap = r.uvarint();
        }
        break;
      }
      case FrameType::kSymbols:
      case FrameType::kRound:
      case FrameType::kError:
      case FrameType::kAdmin:
        out.payload = read_payload(r);
        break;
      case FrameType::kAdminReply:
        // `value` carries the final-chunk flag (1 = last chunk of the
        // reassembled admin reply body).
        out.value = r.u8();
        out.payload = read_payload(r);
        break;
      case FrameType::kDone:
        out.value = r.uvarint();
        // Adaptive sessions append the recovered |diff|; the extension is
        // optional so a pre-adaptive DONE still parses.
        if (!r.done()) out.diff_count = r.uvarint();
        break;
    }
    if (!r.done()) throw ProtocolError("trailing bytes in frame");
    return out;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception&) {
    // ByteReader/varint overruns on truncated or garbage input.
    throw ProtocolError("truncated frame");
  }
}

std::uint64_t peek_session_id(std::span<const std::byte> data) {
  if (data.empty()) throw ProtocolError("empty frame");
  try {
    ByteReader r(data);
    if (!known_type(r.u8())) throw ProtocolError("unknown frame type");
    const std::uint64_t sid = r.uvarint();
    if (sid == 0) throw ProtocolError("session id 0 is reserved");
    return sid;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception&) {
    throw ProtocolError("truncated frame");
  }
}

std::vector<std::byte> encode_frame(const Frame& frame) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(frame.type));
  w.uvarint(frame.session_id);
  switch (frame.type) {
    case FrameType::kHello: {
      w.u8(kVersion);
      w.u8(frame.backend);
      w.u32(frame.item_size);
      w.u8(frame.checksum_len);
      std::uint8_t flags = 0;
      if (frame.shard_count != 0) flags |= kFlagSharded;
      if (frame.count_residuals) flags |= kFlagCountResiduals;
      if (frame.adaptive) flags |= kFlagAdaptive;
      w.u8(flags);
      if (frame.shard_count != 0) {
        w.uvarint(frame.shard_index);
        w.uvarint(frame.shard_count);
      }
      if (frame.adaptive) {
        w.uvarint(frame.peer_id);
        w.uvarint(frame.probe.size());
        w.bytes(frame.probe);
      }
      break;
    }
    case FrameType::kHelloAck: {
      w.u8(frame.backend);
      w.u8(frame.checksum_len);
      std::uint8_t flags = 0;
      if (frame.count_residuals) flags |= kFlagCountResiduals;
      if (frame.adaptive) flags |= kFlagAdaptive;
      w.u8(flags);
      if (frame.count_residuals) w.uvarint(frame.value);
      if (frame.adaptive) {
        w.uvarint(frame.d_estimate);
        w.uvarint(frame.pace_cap);
      }
      break;
    }
    case FrameType::kSymbols:
    case FrameType::kRound:
    case FrameType::kError:
    case FrameType::kAdmin:
      w.uvarint(frame.payload.size());
      w.bytes(frame.payload);
      break;
    case FrameType::kAdminReply:
      w.u8(frame.value != 0 ? 1 : 0);
      w.uvarint(frame.payload.size());
      w.bytes(frame.payload);
      break;
    case FrameType::kDone:
      w.uvarint(frame.value);
      if (frame.diff_count) w.uvarint(*frame.diff_count);
      break;
  }
  return std::move(w).take();
}

std::vector<std::byte> make_error_frame(std::uint64_t session_id,
                                        const std::string& message) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.session_id = session_id;
  // Clamp: an exception message of arbitrary length (e.g. one that embeds
  // attacker-controlled input) must never produce an ERROR frame larger
  // than a conduit's max_frame -- that would escalate a contained
  // per-session failure into a dead connection.
  const std::size_t n = std::min(message.size(), kMaxErrorBytes);
  frame.payload.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    frame.payload.push_back(static_cast<std::byte>(message[i]));
  }
  return encode_frame(frame);
}

AdminAnswer answer_admin(std::uint64_t session_id,
                         std::span<const std::byte> raw,
                         obs::MetricsRegistry* metrics, obs::Tracer* tracer) {
  std::string verb;
  try {
    verb = error_text(parse_frame(raw));  // payload bytes as text
  } catch (const ProtocolError&) {
    return {false, {make_error_frame(session_id, "malformed ADMIN")}};
  }
  std::string body;
  if ((verb == "METRICS" || verb == "METRICS_JSON") && metrics != nullptr) {
    const obs::MetricsSnapshot snap = metrics->snapshot();
    body = verb == "METRICS" ? obs::prometheus_text(snap)
                             : obs::json_text(snap);
  } else if (verb == "TRACE" && tracer != nullptr) {
    body = tracer->chrome_json();
  } else {
    return {false, {make_error_frame(session_id,
                                     "unsupported ADMIN verb: " + verb)}};
  }
  return {true, make_admin_reply(session_id, body)};
}

std::string error_text(const Frame& frame) {
  std::string out;
  out.reserve(frame.payload.size());
  for (const std::byte b : frame.payload) {
    out.push_back(static_cast<char>(b));
  }
  return out;
}

}  // namespace ribltx::sync::v2

namespace ribltx::sync {

EngineCells::EngineCells(obs::MetricsRegistry& m) {
  for (std::uint8_t wire = 1; wire <= per_backend.size(); ++wire) {
    const obs::Labels labels{
        {"backend", backend_name(static_cast<BackendId>(wire))}};
    per_backend[wire - 1] = Backend{
        &m.counter("riblt_sessions_opened_total", "Sessions accepted at HELLO",
                   labels),
        &m.counter("riblt_sessions_done_total",
                   "Sessions completed by a client DONE", labels),
        &m.counter("riblt_sessions_failed_total",
                   "Sessions ended by contained failure, abort, reap, "
                   "eviction, or close while active",
                   labels),
        &m.histogram("riblt_session_bytes_to_peer",
                     "SYMBOLS bytes emitted per finished session", labels),
        &m.histogram("riblt_session_rounds",
                     "Round escalations per finished session", labels),
        &m.histogram("riblt_serve_cpu_us",
                     "Serving-side encode/round CPU per call (microseconds; "
                     "emit() calls sampled 1-in-8)",
                     labels),
        &m.histogram("riblt_session_duration_us",
                     "HELLO to outcome per finished session (microseconds, "
                     "engine clock)",
                     labels)};
  }
  bytes_from_peers = &m.counter("riblt_engine_bytes_from_peers_total",
                                "HELLO/ROUND/DONE/ERROR frame bytes received");
  frames_sent = &m.counter("riblt_engine_frames_sent_total",
                           "SYMBOLS frames emitted");
  items_added =
      &m.counter("riblt_engine_items_added_total", "Successful add_item calls");
  items_removed = &m.counter("riblt_engine_items_removed_total",
                             "Successful remove_item calls");
  reaped = &m.counter("riblt_sessions_reaped_total", "Idle sessions reclaimed");
  evicted = &m.counter("riblt_sessions_evicted_total",
                       "Oldest-idle sessions shed at the cap");
  journal_depth = &m.gauge("riblt_cache_journal_depth",
                           "Churn ops retained for open snapshots");
}

EngineTotals EngineCells::totals() const {
  EngineTotals t;
  for (const Backend& b : per_backend) {
    // Outcomes before openings: a session's opened increment precedes
    // its outcome's, so this order keeps `active` from running negative.
    t.done += b.done->load();
    t.failed += b.failed->load();
    t.bytes_to_peers += b.bytes_to_peer->sum();
    t.rounds += b.rounds->sum();
  }
  for (const Backend& b : per_backend) t.sessions += b.opened->load();
  const std::size_t ended = t.done + t.failed;
  t.active = t.sessions > ended ? t.sessions - ended : 0;
  t.bytes_from_peers = bytes_from_peers->load();
  t.frames_sent = frames_sent->load();
  t.items_added = items_added->load();
  t.items_removed = items_removed->load();
  t.journal_depth = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, journal_depth->load()));
  t.sessions_reaped = reaped->load();
  t.sessions_evicted = evicted->load();
  return t;
}

}  // namespace ribltx::sync
