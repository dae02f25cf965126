#pragma once
/// \file wire.hpp
/// \brief Length-prefixed binary wire protocol over POSIX sockets, so
/// external processes can submit chips to a Server and receive score rows.
///
/// ## Framing
///
/// Every message is one frame: a `u32 length` prefix (bytes that follow,
/// capped at kWireMaxFrameBytes — an oversized prefix is answered with
/// kBadRequest and the connection is closed) followed by `length` payload
/// bytes. Integers and floats are host-endian: the protocol targets
/// same-machine or same-architecture deployments (Unix-domain sockets or a
/// rack-local TCP loopback), mirroring the repo's .dcnx convention.
///
/// Request payload:
///   u32  magic      0x44434E57 ("DCNW")
///   u8   version    1
///   u8   type       1 = infer (the only type today)
///   u16  model_len  + model_len bytes of model name
///   u32  deadline_us  SLO deadline relative to admission; 0 = untagged
///   u8   ndim       3 = (C,H,W) or 4 = (1,C,H,W)
///   u32  dims[ndim]
///   f32  data[prod(dims)]
///
/// Response payload:
///   u32  magic
///   u8   version
///   u8   status     WireStatus; reject statuses 1..4 are RejectReason values
///   ok:     u8 ndim, u32 dims[ndim], f32 data[prod(dims)]
///   error:  u16 message_len + message bytes
///
/// ## Endpoints
///
/// WireServer accepts on a Unix-domain socket path or a TCP port (one
/// handler thread per connection; frames on one connection are processed
/// sequentially — clients wanting pipelining open several connections).
/// WireClient is the blocking client library used by serve_daemon
/// --self-test, the repobench serve_wire workload, and the integration
/// tests.
/// Malformed input (bad magic, truncated frame, oversized length, shape /
/// payload mismatch) is answered with a kBadRequest frame where possible
/// and the connection is closed; the server never crashes on garbage bytes
/// (tests/serve/wire_test.cpp byte-flips valid frames to enforce this).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dcnas/serve/server.hpp"

namespace dcnas::serve {

inline constexpr std::uint32_t kWireMagic = 0x44434E57u;  // "DCNW"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::uint8_t kWireTypeInfer = 1;
/// Hard per-frame cap: a length prefix past this is a protocol error, not
/// an allocation request.
inline constexpr std::uint32_t kWireMaxFrameBytes = 64u << 20;  // 64 MiB

/// Response status byte. Reject statuses reuse RejectReason's numbering so
/// clients reconstruct the typed error losslessly.
enum class WireStatus : std::uint8_t {
  kOk = 0,
  kShutdown = 1,         ///< == RejectReason::kShutdown — gone, do not retry
  kQueueFull = 2,        ///< == RejectReason::kQueueFull — retry later
  kShedOverload = 3,     ///< == RejectReason::kShedOverload
  kDeadlineExpired = 4,  ///< == RejectReason::kDeadlineExpired
  kBadRequest = 5,       ///< malformed frame / unknown model / bad shape
  kInternalError = 6,    ///< execution failure; message carries details
};

static_assert(static_cast<std::uint8_t>(WireStatus::kShutdown) ==
                  static_cast<std::uint8_t>(RejectReason::kShutdown) &&
              static_cast<std::uint8_t>(WireStatus::kQueueFull) ==
                  static_cast<std::uint8_t>(RejectReason::kQueueFull) &&
              static_cast<std::uint8_t>(WireStatus::kShedOverload) ==
                  static_cast<std::uint8_t>(RejectReason::kShedOverload) &&
              static_cast<std::uint8_t>(WireStatus::kDeadlineExpired) ==
                  static_cast<std::uint8_t>(RejectReason::kDeadlineExpired),
              "wire status bytes must track RejectReason numbering");

const char* to_string(WireStatus status);

/// One decoded inference request.
struct WireRequest {
  std::string model;
  Tensor input;  ///< (C,H,W) or (1,C,H,W), as sent
  std::uint32_t deadline_us = 0;
};

/// One decoded response.
struct WireResponse {
  WireStatus status = WireStatus::kOk;
  Tensor output;        ///< valid when status == kOk
  std::string message;  ///< error detail otherwise
};

/// Frame payload codecs (exclusive of the u32 length prefix). Decoders
/// throw InvalidArgument on malformed bytes — and must never crash or read
/// out of bounds, whatever the input (fuzzed in tests/serve/wire_test.cpp).
std::vector<std::uint8_t> encode_request(const WireRequest& request);
WireRequest decode_request(const std::uint8_t* data, std::size_t size);
std::vector<std::uint8_t> encode_response(const WireResponse& response);
WireResponse decode_response(const std::uint8_t* data, std::size_t size);

/// Where a WireServer listens: a Unix-domain socket path when \p unix_path
/// is non-empty, else TCP on 127.0.0.1:\p tcp_port (0 = ephemeral; the
/// bound port is reported by WireServer::port()).
struct WireServerOptions {
  std::string unix_path;
  std::uint16_t tcp_port = 0;
  int listen_backlog = 64;
};

/// Socket front-end for a Server. Construction binds, listens, and starts
/// the accept thread; stop() (also the destructor) closes the listener and
/// every live connection, then joins all handler threads. The Server must
/// outlive the WireServer.
class WireServer {
 public:
  WireServer(Server& server, WireServerOptions options);
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  void stop();

  /// Bound TCP port (0 when listening on a Unix socket).
  std::uint16_t port() const { return port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  /// Connection handler threads currently held: every live connection,
  /// plus closed ones not yet joined (the acceptor joins those before it
  /// starts the next handler).
  std::size_t connection_threads() const;

 private:
  struct Impl;
  void accept_loop();
  void handle_connection(int fd, std::uint64_t id);

  Server& server_;
  WireServerOptions options_;
  std::uint16_t port_ = 0;
  std::unique_ptr<Impl> impl_;
};

/// Blocking client: one connection, sequential request/response. Not
/// thread-safe; open one WireClient per concurrent stream.
class WireClient {
 public:
  static WireClient connect_unix(const std::string& path);
  static WireClient connect_tcp(const std::string& host, std::uint16_t port);

  WireClient(WireClient&& other) noexcept;
  WireClient& operator=(WireClient&& other) noexcept;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;
  ~WireClient();

  /// Sends one inference request and returns the raw response (status +
  /// tensor or message). Throws Error on connection/framing failures only.
  WireResponse infer_raw(const std::string& model, const Tensor& input,
                         std::uint32_t deadline_us = 0);

  /// As infer_raw, but maps non-ok statuses to exceptions: reject statuses
  /// throw RejectedError carrying the decoded reason, kBadRequest throws
  /// InvalidArgument, kInternalError throws Error.
  Tensor infer(const std::string& model, const Tensor& input,
               std::uint32_t deadline_us = 0);

  void close();

 private:
  explicit WireClient(int fd) : fd_(fd) {}
  int fd_ = -1;
};

}  // namespace dcnas::serve
