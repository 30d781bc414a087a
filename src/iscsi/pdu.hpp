// Simplified iSCSI PDU layer.
//
// The PDU set mirrors the subset of RFC 7143 that StorM's data path
// exercises: login/logout, SCSI read/write commands, streamed Data-In /
// Data-Out segments, and SCSI responses. Framing is a u32 length prefix;
// the StreamParser reassembles PDUs from arbitrary TCP segmentation —
// the same parser is reused by the middle-box interception API (the
// paper reuses Open-iSCSI's parsing logic the same way).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/buf.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"

namespace storm::iscsi {

/// Data segments of large I/Os are streamed in chunks of at most this
/// many bytes (MaxRecvDataSegmentLength).
inline constexpr std::uint32_t kMaxDataSegment = 8 * 1024;

/// Default iSCSI target port.
inline constexpr std::uint16_t kIscsiPort = 3260;

enum class Opcode : std::uint8_t {
  kNopOut = 0x00,
  kScsiCommand = 0x01,
  kLoginRequest = 0x03,
  kDataOut = 0x05,
  kLogoutRequest = 0x06,
  kNopIn = 0x20,
  kScsiResponse = 0x21,
  kLoginResponse = 0x23,
  kDataIn = 0x25,
  kLogoutResponse = 0x26,
  kReject = 0x3F,
};

const char* to_string(Opcode op);

// Pdu::flags bits.
inline constexpr std::uint8_t kFlagFinal = 0x01;  // last segment of a burst
inline constexpr std::uint8_t kFlagRead = 0x02;   // SCSI command direction

// Pdu::status values.
inline constexpr std::uint8_t kStatusGood = 0x00;
inline constexpr std::uint8_t kStatusCheckCondition = 0x02;
inline constexpr std::uint8_t kStatusLoginFailed = 0x10;

struct Pdu {
  Opcode opcode = Opcode::kNopOut;
  std::uint8_t flags = 0;
  std::uint8_t status = kStatusGood;
  std::uint32_t task_tag = 0;
  std::uint64_t lba = 0;             // sectors
  std::uint32_t transfer_length = 0; // bytes (SCSI command)
  std::uint32_t data_offset = 0;     // bytes into the burst (Data-In/Out)
  std::string text;                  // login parameters ("iqn=...")
  Buf data;                          // data segment (refcounted view)
  std::uint32_t data_digest = 0;     // CRC32 of data (0 when data empty)

  bool is_final() const { return flags & kFlagFinal; }
  bool is_read() const { return flags & kFlagRead; }
};

/// Serialized sizes (u32 length prefix included for serialized_size).
std::size_t serialized_body_size(const Pdu& pdu);
std::size_t serialized_size(const Pdu& pdu);

/// Serialize with the u32 length prefix included (contiguous buffer,
/// reserved exactly once). The data segment is copied; the zero-copy data
/// path uses serialize_chunks instead.
Bytes serialize(const Pdu& pdu);

/// Zero-copy serialization: [prefix + headers + text, data, digests].
/// The middle chunk *references* pdu.data — no payload byte is copied —
/// and the concatenation is byte-identical to serialize(). Feed the chain
/// to TcpConnection::send(BufChain).
BufChain serialize_chunks(const Pdu& pdu);

/// Parse one PDU from `body` (the bytes after the length prefix).
/// Returns a parse-error status for malformed bodies. The Buf form sets
/// pdu.data as an O(1) slice of `body`; the span form copies.
Result<Pdu> parse_pdu(Buf body);
Result<Pdu> parse_pdu(std::span<const std::uint8_t> body);

/// Incremental reassembly of PDUs from a TCP byte stream. Buffers the
/// fed chunks by reference; a PDU body that lands inside a single chunk
/// is parsed out of a zero-copy slice, one that straddles chunk
/// boundaries is gathered with a single counted copy.
class StreamParser {
 public:
  /// Feed stream bytes; appends any completed PDUs to `out`.
  /// Returns an error (and stops consuming) on a malformed PDU.
  Status feed(Buf bytes, std::vector<Pdu>& out);
  Status feed(std::span<const std::uint8_t> bytes, std::vector<Pdu>& out) {
    return feed(Buf::copy(bytes), out);
  }

  /// Bytes buffered awaiting a complete PDU.
  std::size_t pending_bytes() const { return pending_; }

 private:
  std::uint32_t peek_u32() const;
  Buf gather(std::size_t skip, std::size_t n) const;
  void consume(std::size_t n);

  std::deque<Buf> chunks_;
  std::size_t head_ = 0;     // consumed bytes of chunks_.front()
  std::size_t pending_ = 0;  // unconsumed bytes across all chunks
};

// Convenience constructors for the PDUs the data path uses.
Pdu make_login_request(const std::string& iqn);
/// The IQN a login request names.
std::string_view login_iqn(const Pdu& login);
Pdu make_login_response(std::uint8_t status);
Pdu make_read_command(std::uint32_t task_tag, std::uint64_t lba,
                      std::uint32_t length_bytes);
Pdu make_write_command(std::uint32_t task_tag, std::uint64_t lba,
                       std::uint32_t length_bytes);
Pdu make_data_out(std::uint32_t task_tag, std::uint32_t offset, Buf data,
                  bool final);
Pdu make_data_in(std::uint32_t task_tag, std::uint32_t offset, Buf data,
                 bool final);
Pdu make_scsi_response(std::uint32_t task_tag, std::uint8_t status);

}  // namespace storm::iscsi
