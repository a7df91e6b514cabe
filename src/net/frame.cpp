#include "net/frame.h"

#include <cstring>
#include <string>

#include "common/ensure.h"

namespace geored::net {

namespace {

void put_u32(std::uint8_t* out, std::uint32_t value) {
  std::memcpy(out, &value, sizeof value);
}

std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t value;
  std::memcpy(&value, in, sizeof value);
  return value;
}

constexpr std::size_t kHeaderBytes = 2 * sizeof(std::uint32_t);

void write_header(std::uint8_t* header, std::size_t payload_bytes) {
  GEORED_ENSURE(payload_bytes <= kMaxFramePayload, "frame payload exceeds the sanity cap");
  put_u32(header, kFrameMagic);
  put_u32(header + sizeof(std::uint32_t), static_cast<std::uint32_t>(payload_bytes));
}

}  // namespace

void write_frame(Socket& socket, std::span<const std::uint8_t> payload) {
  std::uint8_t header[kHeaderBytes];
  write_header(header, payload.size());
  socket.send_all(header, sizeof header);
  if (!payload.empty()) socket.send_all(payload.data(), payload.size());
}

void write_truncated_frame(Socket& socket, std::span<const std::uint8_t> payload,
                           std::size_t sent_bytes) {
  GEORED_ENSURE(sent_bytes < payload.size(),
                "a truncated frame must stop short of its declared length");
  std::uint8_t header[kHeaderBytes];
  write_header(header, payload.size());
  socket.send_all(header, sizeof header);
  if (sent_bytes > 0) socket.send_all(payload.data(), sent_bytes);
}

IoStatus read_frame(Socket& socket, std::vector<std::uint8_t>& payload, int timeout_ms) {
  std::uint8_t header[kHeaderBytes];
  const IoStatus header_status = socket.recv_exact(header, sizeof header, timeout_ms);
  if (header_status != IoStatus::kOk) return header_status;

  const std::uint32_t magic = get_u32(header);
  if (magic != kFrameMagic) {
    throw FrameError("frame header has wrong magic 0x" + std::to_string(magic) +
                     " (cross-protocol garbage or a corrupted stream)");
  }
  const std::uint32_t length = get_u32(header + sizeof(std::uint32_t));
  if (length > kMaxFramePayload) {
    throw FrameError("frame length " + std::to_string(length) +
                     " exceeds the sanity cap (corrupt length prefix)");
  }
  payload.assign(length, 0);
  if (length == 0) return IoStatus::kOk;
  switch (socket.recv_exact(payload.data(), payload.size(), timeout_ms)) {
    case IoStatus::kOk:
      return IoStatus::kOk;
    case IoStatus::kClosed:
      throw FrameError("stream closed mid-frame: " + std::to_string(length) +
                       "-byte payload truncated");
    case IoStatus::kTimeout:
      throw FrameError("stream stalled mid-frame: " + std::to_string(length) +
                       "-byte payload never completed");
  }
  return IoStatus::kOk;  // unreachable; keeps -Wreturn-type quiet
}

}  // namespace geored::net
