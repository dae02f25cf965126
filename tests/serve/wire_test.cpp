/// Wire protocol: codec round-trips, an external client driving the server
/// over a real socket (the PR-9 acceptance integration test), typed reject
/// statuses crossing the wire, and the negative/fuzz suite — bad magic,
/// truncated frames, oversized length prefixes, byte-flipped requests.

#include "dcnas/serve/wire.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <vector>

#include "serve_test_util.hpp"

namespace dcnas::serve {
namespace {

using ms = std::chrono::milliseconds;

std::shared_ptr<ModelRegistry> make_registry() {
  auto registry = std::make_shared<ModelRegistry>();
  registry->register_model("m", testing::make_executor());
  return registry;
}

ServerOptions quick_options() {
  ServerOptions o;
  o.num_replicas = 2;
  o.num_workers = 2;
  o.batch.max_batch = 4;
  o.batch.max_delay = ms(2);
  return o;
}

std::string unique_socket_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dcnas_wire_test_") + tag + "_" +
           std::to_string(::getpid()) + ".sock"))
      .string();
}

/// Raw unix-domain connection for protocol-violation tests: no framing, no
/// validation — just bytes on the socket.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }
  void send_bytes(const void* data, std::size_t n) {
    ASSERT_EQ(::send(fd_, data, n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
  }
  void send_frame(const std::vector<std::uint8_t>& payload) {
    const auto length = static_cast<std::uint32_t>(payload.size());
    send_bytes(&length, sizeof(length));
    send_bytes(payload.data(), payload.size());
  }
  void close_write() { ::shutdown(fd_, SHUT_WR); }

  /// Reads one response frame; empty vector on EOF.
  std::vector<std::uint8_t> read_frame() {
    std::uint32_t length = 0;
    if (!read_exact(&length, sizeof(length))) return {};
    std::vector<std::uint8_t> payload(length);
    if (length > 0 && !read_exact(payload.data(), length)) return {};
    return payload;
  }
  bool at_eof() {
    std::uint8_t byte = 0;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  bool read_exact(void* data, std::size_t n) {
    auto* p = static_cast<std::uint8_t*>(data);
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, p + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<std::size_t>(r);
    }
    return true;
  }
  int fd_ = -1;
};

TEST(WireCodecTest, RequestRoundTripsBitExactly) {
  Rng rng(8);
  WireRequest request;
  request.model = "drainage";
  request.input = testing::make_image(rng);
  request.deadline_us = 1234567;
  const auto bytes = encode_request(request);
  const WireRequest back = decode_request(bytes.data(), bytes.size());
  EXPECT_EQ(back.model, request.model);
  EXPECT_EQ(back.deadline_us, request.deadline_us);
  ASSERT_TRUE(back.input.same_shape(request.input));
  for (std::int64_t j = 0; j < request.input.numel(); ++j) {
    ASSERT_EQ(back.input[j], request.input[j]);
  }
}

TEST(WireCodecTest, ResponseRoundTripsOkAndError) {
  WireResponse ok;
  ok.status = WireStatus::kOk;
  ok.output = Tensor::full({2, 3}, 1.5f);
  const auto ok_bytes = encode_response(ok);
  const WireResponse ok_back = decode_response(ok_bytes.data(), ok_bytes.size());
  EXPECT_EQ(ok_back.status, WireStatus::kOk);
  ASSERT_TRUE(ok_back.output.same_shape(ok.output));
  for (std::int64_t j = 0; j < ok.output.numel(); ++j) {
    ASSERT_EQ(ok_back.output[j], ok.output[j]);
  }

  WireResponse err;
  err.status = WireStatus::kQueueFull;
  err.message = "queue full on every replica";
  const auto err_bytes = encode_response(err);
  const WireResponse err_back =
      decode_response(err_bytes.data(), err_bytes.size());
  EXPECT_EQ(err_back.status, WireStatus::kQueueFull);
  EXPECT_EQ(err_back.message, err.message);
}

TEST(WireCodecTest, DecodeRejectsMalformedFrames) {
  Rng rng(9);
  WireRequest request;
  request.model = "m";
  request.input = testing::make_image(rng);
  const auto good = encode_request(request);

  // Bad magic.
  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(decode_request(bad_magic.data(), bad_magic.size()),
               InvalidArgument);
  // Unsupported version.
  auto bad_version = good;
  bad_version[4] = 0x7F;
  EXPECT_THROW(decode_request(bad_version.data(), bad_version.size()),
               InvalidArgument);
  // Truncations at every prefix length must throw, never crash.
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_THROW(decode_request(good.data(), n), InvalidArgument)
        << "prefix of " << n << " bytes decoded";
  }
  // Trailing garbage after the tensor payload.
  auto trailing = good;
  trailing.push_back(0xAB);
  EXPECT_THROW(decode_request(trailing.data(), trailing.size()),
               InvalidArgument);
  // Empty frame.
  EXPECT_THROW(decode_request(good.data(), 0), InvalidArgument);
}

// Fuzz: flipping any single byte of a valid request must yield either a
// clean decode (data bytes) or InvalidArgument (structure bytes) — never a
// crash or out-of-bounds read (run under ASan in CI).
TEST(WireCodecTest, SingleByteFlipsNeverCrashTheDecoder) {
  Rng rng(10);
  WireRequest request;
  request.model = "drainage";
  request.input = Tensor::rand_uniform({5, 8, 8}, rng, -1.0f, 1.0f);
  request.deadline_us = 42;
  const auto good = encode_request(request);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const std::uint8_t flip :
         {std::uint8_t(0x01), std::uint8_t(0x80), std::uint8_t(0xFF)}) {
      auto mutated = good;
      mutated[i] ^= flip;
      try {
        (void)decode_request(mutated.data(), mutated.size());
      } catch (const InvalidArgument&) {
        ++rejected;
      }
    }
  }
  // Header/structure mutations must actually be caught, not silently
  // accepted — the exact count depends on layout, but many must reject.
  EXPECT_GT(rejected, 16u);
}

// Acceptance (d): an external client drives the server over the wire
// protocol and gets bit-exact results — unix-domain socket path.
TEST(WireServerTest, UnixSocketRoundTripMatchesDirectExecution) {
  auto registry = make_registry();
  const auto plan = registry->snapshot("m").plan;
  Server server(registry, quick_options());
  WireServerOptions wopt;
  wopt.unix_path = unique_socket_path("unix");
  WireServer wire(server, wopt);

  WireClient client = WireClient::connect_unix(wopt.unix_path);
  Rng rng(77);
  for (int i = 0; i < 8; ++i) {
    const Tensor input = testing::make_image(rng);
    const Tensor got = client.infer("m", input);
    const Tensor want = plan->run(input);
    ASSERT_TRUE(got.same_shape(want)) << "request " << i;
    for (std::int64_t j = 0; j < want.numel(); ++j) {
      ASSERT_EQ(got[j], want[j]) << "request " << i << " element " << j;
    }
  }
  client.close();
  wire.stop();
  EXPECT_FALSE(std::filesystem::exists(wopt.unix_path))
      << "socket file must be unlinked on stop";
}

// Same contract over TCP loopback with an ephemeral port.
TEST(WireServerTest, TcpRoundTripMatchesDirectExecution) {
  auto registry = make_registry();
  const auto plan = registry->snapshot("m").plan;
  Server server(registry, quick_options());
  WireServer wire(server, WireServerOptions{});  // tcp_port 0 = ephemeral
  ASSERT_NE(wire.port(), 0);

  WireClient client = WireClient::connect_tcp("127.0.0.1", wire.port());
  Rng rng(78);
  const Tensor input = testing::make_image(rng);
  const Tensor got = client.infer("m", input);
  const Tensor want = plan->run(input);
  for (std::int64_t j = 0; j < want.numel(); ++j) ASSERT_EQ(got[j], want[j]);
}

// Typed rejections cross the wire losslessly: the status byte reconstructs
// the same RejectReason (and retryability) the in-process caller would see.
TEST(WireServerTest, RejectStatusesCrossTheWireTyped) {
  auto registry = make_registry();
  ServerOptions o = quick_options();
  o.num_replicas = 1;
  o.num_workers = 1;
  o.batch.max_batch = 1024;
  o.batch.max_delay = ms(60000);  // pin queued work: deadline shed must fire
  Server server(registry, o);
  WireServerOptions wopt;
  wopt.unix_path = unique_socket_path("typed");
  WireServer wire(server, wopt);
  WireClient client = WireClient::connect_unix(wopt.unix_path);
  Rng rng(5);

  // Deadline shed: tagged 5ms, queue pinned for 60s.
  const WireResponse shed = client.infer_raw("m", testing::make_image(rng),
                                             /*deadline_us=*/5000);
  EXPECT_EQ(shed.status, WireStatus::kDeadlineExpired);

  // Shutdown: typed, non-retryable, reconstructed by infer().
  server.shutdown();
  const WireResponse gone = client.infer_raw("m", testing::make_image(rng));
  EXPECT_EQ(gone.status, WireStatus::kShutdown);
  try {
    client.infer("m", testing::make_image(rng));
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kShutdown);
    EXPECT_FALSE(e.retryable());
  }
}

// An unknown model is a well-formed frame the server cannot serve: the
// status is kBadRequest (not a connection drop) and infer() maps it back to
// InvalidArgument.
TEST(WireServerTest, UnknownModelIsBadRequestNotDisconnect) {
  auto registry = make_registry();
  Server server(registry, quick_options());
  WireServerOptions wopt;
  wopt.unix_path = unique_socket_path("ghost");
  WireServer wire(server, wopt);
  WireClient client = WireClient::connect_unix(wopt.unix_path);
  Rng rng(5);
  const WireResponse ghost = client.infer_raw("ghost", testing::make_image(rng));
  EXPECT_EQ(ghost.status, WireStatus::kBadRequest);
  EXPECT_THROW(client.infer("ghost", testing::make_image(rng)),
               InvalidArgument);
  // The same connection still serves known models afterwards.
  EXPECT_NO_THROW(client.infer("m", testing::make_image(rng)));
}

// Bad magic bytes: the server answers kBadRequest, closes the connection,
// and keeps serving well-formed clients.
TEST(WireServerTest, BadMagicGetsBadRequestThenClose) {
  auto registry = make_registry();
  Server server(registry, quick_options());
  WireServerOptions wopt;
  wopt.unix_path = unique_socket_path("badmagic");
  WireServer wire(server, wopt);

  RawConn raw(wopt.unix_path);
  ASSERT_TRUE(raw.ok());
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF,
                                             0x01, 0x01, 0x00, 0x00};
  raw.send_frame(garbage);
  const auto frame = raw.read_frame();
  ASSERT_FALSE(frame.empty()) << "expected a kBadRequest response frame";
  const WireResponse response = decode_response(frame.data(), frame.size());
  EXPECT_EQ(response.status, WireStatus::kBadRequest);
  EXPECT_TRUE(raw.at_eof()) << "connection must close after a framing error";

  // The server survives: a fresh well-formed client still gets answers.
  WireClient client = WireClient::connect_unix(wopt.unix_path);
  Rng rng(6);
  EXPECT_NO_THROW(client.infer("m", testing::make_image(rng)));
}

// An oversized length prefix is a protocol error, not a 4 GiB allocation.
TEST(WireServerTest, OversizedLengthPrefixIsRejectedNotAllocated) {
  auto registry = make_registry();
  Server server(registry, quick_options());
  WireServerOptions wopt;
  wopt.unix_path = unique_socket_path("oversized");
  WireServer wire(server, wopt);

  RawConn raw(wopt.unix_path);
  ASSERT_TRUE(raw.ok());
  const std::uint32_t huge = 0xFFFFFFFFu;
  raw.send_bytes(&huge, sizeof(huge));
  const auto frame = raw.read_frame();
  ASSERT_FALSE(frame.empty());
  const WireResponse response = decode_response(frame.data(), frame.size());
  EXPECT_EQ(response.status, WireStatus::kBadRequest);
  EXPECT_NE(response.message.find("oversized"), std::string::npos);
  EXPECT_TRUE(raw.at_eof());
}

// A frame that claims more bytes than the peer ever sends (peer closes
// mid-frame) is answered best-effort and dropped without hanging the server.
TEST(WireServerTest, TruncatedFrameClosesConnectionAndServerSurvives) {
  auto registry = make_registry();
  Server server(registry, quick_options());
  WireServerOptions wopt;
  wopt.unix_path = unique_socket_path("truncated");
  WireServer wire(server, wopt);

  {
    RawConn raw(wopt.unix_path);
    ASSERT_TRUE(raw.ok());
    const std::uint32_t claimed = 100;
    raw.send_bytes(&claimed, sizeof(claimed));
    const std::uint8_t partial[10] = {};
    raw.send_bytes(partial, sizeof(partial));
    raw.close_write();  // EOF mid-frame
    const auto frame = raw.read_frame();
    if (!frame.empty()) {  // best-effort response may or may not arrive
      EXPECT_EQ(decode_response(frame.data(), frame.size()).status,
                WireStatus::kBadRequest);
    }
  }
  WireClient client = WireClient::connect_unix(wopt.unix_path);
  Rng rng(7);
  EXPECT_NO_THROW(client.infer("m", testing::make_image(rng)));
}

// stop() while clients hold open connections: handlers are unblocked and
// joined, later requests on the dead socket fail cleanly client-side.
TEST(WireServerTest, StopUnblocksIdleConnections) {
  auto registry = make_registry();
  Server server(registry, quick_options());
  WireServerOptions wopt;
  wopt.unix_path = unique_socket_path("stop");
  auto wire = std::make_unique<WireServer>(server, wopt);
  WireClient client = WireClient::connect_unix(wopt.unix_path);
  Rng rng(12);
  EXPECT_NO_THROW(client.infer("m", testing::make_image(rng)));
  wire->stop();  // must not hang on the idle open connection
  wire.reset();
  EXPECT_THROW(client.infer("m", testing::make_image(rng)), Error);
}

// A long-lived server must not keep a thread per connection it has ever
// accepted: closed connections' handlers are joined as new ones arrive, so
// sequential short connections leave at most the latest one or two held.
TEST(WireServerTest, ClosedConnectionThreadsAreJoined) {
  auto registry = make_registry();
  Server server(registry, quick_options());
  WireServerOptions wopt;
  wopt.unix_path = unique_socket_path("reap");
  WireServer wire(server, wopt);
  Rng rng(13);
  const Tensor input = testing::make_image(rng);
  for (int i = 0; i < 200; ++i) {
    WireClient client = WireClient::connect_unix(wopt.unix_path);
    ASSERT_NO_THROW(client.infer("m", input)) << "cycle " << i;
    client.close();
  }
  EXPECT_LE(wire.connection_threads(), 2u);
}

}  // namespace
}  // namespace dcnas::serve
