#include "dcnas/serve/wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "dcnas/obs/metrics.hpp"
#include "dcnas/obs/trace.hpp"

namespace dcnas::serve {

namespace {

obs::Counter& wire_request_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.wire.request.count");
  return c;
}

obs::Counter& wire_bad_frame_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.wire.bad_frame.count");
  return c;
}

obs::Counter& wire_connection_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.wire.connection.count");
  return c;
}

// ---------------------------------------------------------------------------
// Byte-level codec helpers. Writer appends host-endian POD values; Reader
// bounds-checks every access and throws InvalidArgument on truncation, so a
// decoder can never read past the frame whatever bytes arrive.

class Writer {
 public:
  template <class T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(&value, sizeof(T));
  }
  void put_bytes(const void* data, std::size_t n) {
    DCNAS_CHECK(n <= kWireMaxFrameBytes, "wire: frame payload exceeds cap");
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  template <class T>
  T get(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    DCNAS_CHECK(size_ - pos_ >= sizeof(T),
                std::string("wire: truncated frame reading ") + what);
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }
  const std::uint8_t* get_bytes(std::size_t n, const char* what) {
    DCNAS_CHECK(size_ - pos_ >= n,
                std::string("wire: truncated frame reading ") + what);
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void check_header(Reader& r) {
  const auto magic = r.get<std::uint32_t>("magic");
  DCNAS_CHECK(magic == kWireMagic, "wire: bad magic");
  const auto version = r.get<std::uint8_t>("version");
  DCNAS_CHECK(version == kWireVersion, "wire: unsupported protocol version");
}

Tensor decode_tensor(Reader& r) {
  const auto ndim = r.get<std::uint8_t>("ndim");
  DCNAS_CHECK(ndim >= 1 && ndim <= 4, "wire: tensor rank must be 1..4");
  Shape shape;
  std::uint64_t numel = 1;
  for (std::uint8_t i = 0; i < ndim; ++i) {
    const auto d = r.get<std::uint32_t>("dim");
    DCNAS_CHECK(d >= 1 && d <= kWireMaxFrameBytes, "wire: dim out of range");
    numel *= d;
    DCNAS_CHECK(numel * sizeof(float) <= kWireMaxFrameBytes,
                "wire: tensor payload exceeds frame cap");
    shape.push_back(static_cast<std::int64_t>(d));
  }
  const std::size_t payload =
      static_cast<std::size_t>(numel) * sizeof(float);
  DCNAS_CHECK(r.remaining() == payload,
              "wire: tensor payload size mismatch");
  Tensor t(shape);
  std::memcpy(t.data(), r.get_bytes(payload, "tensor data"), payload);
  return t;
}

void encode_tensor(Writer& w, const Tensor& t) {
  DCNAS_CHECK(t.ndim() >= 1 && t.ndim() <= 4,
              "wire: tensor rank must be 1..4");
  w.put<std::uint8_t>(static_cast<std::uint8_t>(t.ndim()));
  for (std::size_t i = 0; i < t.ndim(); ++i) {
    w.put<std::uint32_t>(static_cast<std::uint32_t>(t.dim(i)));
  }
  w.put_bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

// ---------------------------------------------------------------------------
// Socket helpers. All loops retry EINTR; writes use MSG_NOSIGNAL so a
// vanished peer yields EPIPE instead of killing the process.

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

/// Reads exactly \p n bytes. Returns false on clean EOF before the first
/// byte; throws on EOF mid-read or a socket error.
bool read_exact(int fd, void* data, std::size_t n, bool eof_ok_at_start) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("wire: recv failed: ") + std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && eof_ok_at_start) return false;
      throw InvalidArgument("wire: truncated frame (peer closed mid-frame)");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool send_frame(int fd, const std::vector<std::uint8_t>& payload) {
  const auto length = static_cast<std::uint32_t>(payload.size());
  if (!write_all(fd, &length, sizeof(length))) return false;
  return write_all(fd, payload.data(), payload.size());
}

/// Reads one length-prefixed frame. Returns empty optional on clean EOF.
/// Throws InvalidArgument on an oversized length prefix or truncation.
std::optional<std::vector<std::uint8_t>> read_frame(int fd) {
  std::uint32_t length = 0;
  if (!read_exact(fd, &length, sizeof(length), /*eof_ok_at_start=*/true)) {
    return std::nullopt;
  }
  DCNAS_CHECK(length <= kWireMaxFrameBytes,
              "wire: oversized length prefix (" + std::to_string(length) +
                  " bytes, cap " + std::to_string(kWireMaxFrameBytes) + ")");
  std::vector<std::uint8_t> payload(length);
  if (length > 0) read_exact(fd, payload.data(), length, false);
  return payload;
}

WireResponse error_response(WireStatus status, std::string message) {
  WireResponse r;
  r.status = status;
  r.message = std::move(message);
  return r;
}

}  // namespace

const char* to_string(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kShutdown: return "shutdown";
    case WireStatus::kQueueFull: return "queue_full";
    case WireStatus::kShedOverload: return "shed_overload";
    case WireStatus::kDeadlineExpired: return "deadline_expired";
    case WireStatus::kBadRequest: return "bad_request";
    case WireStatus::kInternalError: return "internal_error";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_request(const WireRequest& request) {
  DCNAS_CHECK(!request.model.empty(), "wire: request needs a model name");
  DCNAS_CHECK(request.model.size() <= 0xFFFF, "wire: model name too long");
  Writer w;
  w.put<std::uint32_t>(kWireMagic);
  w.put<std::uint8_t>(kWireVersion);
  w.put<std::uint8_t>(kWireTypeInfer);
  w.put<std::uint16_t>(static_cast<std::uint16_t>(request.model.size()));
  w.put_bytes(request.model.data(), request.model.size());
  w.put<std::uint32_t>(request.deadline_us);
  encode_tensor(w, request.input);
  return w.take();
}

WireRequest decode_request(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  check_header(r);
  const auto type = r.get<std::uint8_t>("type");
  DCNAS_CHECK(type == kWireTypeInfer, "wire: unknown request type");
  const auto model_len = r.get<std::uint16_t>("model_len");
  DCNAS_CHECK(model_len >= 1, "wire: empty model name");
  const auto* model = r.get_bytes(model_len, "model name");
  WireRequest request;
  request.model.assign(reinterpret_cast<const char*>(model), model_len);
  request.deadline_us = r.get<std::uint32_t>("deadline_us");
  request.input = decode_tensor(r);
  return request;
}

std::vector<std::uint8_t> encode_response(const WireResponse& response) {
  Writer w;
  w.put<std::uint32_t>(kWireMagic);
  w.put<std::uint8_t>(kWireVersion);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(response.status));
  if (response.status == WireStatus::kOk) {
    encode_tensor(w, response.output);
  } else {
    const std::size_t n = std::min<std::size_t>(response.message.size(), 0xFFFF);
    w.put<std::uint16_t>(static_cast<std::uint16_t>(n));
    w.put_bytes(response.message.data(), n);
  }
  return w.take();
}

WireResponse decode_response(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  check_header(r);
  const auto status = r.get<std::uint8_t>("status");
  DCNAS_CHECK(status <= static_cast<std::uint8_t>(WireStatus::kInternalError),
              "wire: unknown status byte");
  WireResponse response;
  response.status = static_cast<WireStatus>(status);
  if (response.status == WireStatus::kOk) {
    response.output = decode_tensor(r);
  } else {
    const auto n = r.get<std::uint16_t>("message_len");
    const auto* msg = r.get_bytes(n, "message");
    response.message.assign(reinterpret_cast<const char*>(msg), n);
    DCNAS_CHECK(r.remaining() == 0, "wire: trailing bytes after message");
  }
  return response;
}

// ---------------------------------------------------------------------------
// WireServer

struct WireServer::Impl {
  int listen_fd = -1;
  std::atomic<bool> stopping{false};
  std::thread acceptor;
  std::mutex mu;  ///< guards conns, finished, next_conn and live_fds
  std::map<std::uint64_t, std::thread> conns;  ///< handler threads by id
  std::vector<std::uint64_t> finished;  ///< handlers that have returned
  std::uint64_t next_conn = 0;
  std::vector<int> live_fds;
  bool unlink_on_stop = false;
};

WireServer::WireServer(Server& server, WireServerOptions options)
    : server_(server), options_(std::move(options)),
      impl_(std::make_unique<Impl>()) {
  if (!options_.unix_path.empty()) {
    DCNAS_CHECK(options_.unix_path.size() < sizeof(sockaddr_un{}.sun_path),
                "wire: unix socket path too long");
    impl_->listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    DCNAS_CHECK(impl_->listen_fd >= 0, "wire: cannot create unix socket");
    ::unlink(options_.unix_path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(impl_->listen_fd);
      throw Error("wire: cannot bind " + options_.unix_path + ": " +
                  std::strerror(errno));
    }
    impl_->unlink_on_stop = true;
  } else {
    impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    DCNAS_CHECK(impl_->listen_fd >= 0, "wire: cannot create tcp socket");
    const int one = 1;
    ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(impl_->listen_fd);
      throw Error(std::string("wire: cannot bind tcp port: ") +
                  std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(impl_->listen_fd, options_.listen_backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(impl_->listen_fd);
    throw Error("wire: listen failed: " + err);
  }
  impl_->acceptor = std::thread([this] { accept_loop(); });
}

WireServer::~WireServer() { stop(); }

void WireServer::stop() {
  if (impl_->stopping.exchange(true)) return;
  // Closing the listener unblocks accept(); shutting down live connections
  // unblocks their reads so handlers exit promptly.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  ::close(impl_->listen_fd);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const int fd : impl_->live_fds) ::shutdown(fd, SHUT_RDWR);
  }
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  std::map<std::uint64_t, std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    conns.swap(impl_->conns);
    impl_->finished.clear();
  }
  for (auto& [id, t] : conns) {
    if (t.joinable()) t.join();
  }
  if (impl_->unlink_on_stop) ::unlink(options_.unix_path.c_str());
}

std::size_t WireServer::connection_threads() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->conns.size();
}

void WireServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(impl_->listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    // Join the handlers that have returned since the last accept, so a
    // long-lived daemon holds threads (and their stacks) only for live
    // connections. The joins run outside mu: a finished handler has
    // already released it, but a live one may still need it.
    std::vector<std::thread> done;
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      for (const std::uint64_t id : impl_->finished) {
        const auto it = impl_->conns.find(id);
        done.push_back(std::move(it->second));
        impl_->conns.erase(it);
      }
      impl_->finished.clear();
    }
    for (std::thread& t : done) t.join();
    // Register under the same lock stop() uses to shut live fds down, so a
    // connection accepted while stop() runs is either closed here or
    // visible to stop()'s shutdown sweep — never a stranded blocking read.
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stopping.load()) {
      ::close(fd);
      return;
    }
    wire_connection_counter().add(1);
    impl_->live_fds.push_back(fd);
    const std::uint64_t id = impl_->next_conn++;
    impl_->conns.emplace(
        id, std::thread([this, fd, id] { handle_connection(fd, id); }));
  }
}

void WireServer::handle_connection(int fd, std::uint64_t id) {
  for (;;) {
    WireRequest request;
    try {
      auto frame = read_frame(fd);
      if (!frame) break;  // clean EOF
      request = decode_request(frame->data(), frame->size());
    } catch (const std::exception& e) {
      // Garbage framing: answer best-effort, then drop the connection —
      // after a framing error the byte stream can no longer be trusted.
      wire_bad_frame_counter().add(1);
      send_frame(fd, encode_response(
                         error_response(WireStatus::kBadRequest, e.what())));
      break;
    }
    wire_request_counter().add(1);
    obs::Span span("serve", "serve.wire.request");
    if (span.armed()) span.arg("model", request.model);
    WireResponse response;
    try {
      auto future = server_.submit(
          request.model, request.input,
          std::chrono::microseconds(request.deadline_us));
      response.output = future.get();
      response.status = WireStatus::kOk;
    } catch (const RejectedError& e) {
      response = error_response(
          static_cast<WireStatus>(static_cast<std::uint8_t>(e.reason())),
          e.what());
    } catch (const InvalidArgument& e) {
      response = error_response(WireStatus::kBadRequest, e.what());
    } catch (const std::exception& e) {
      response = error_response(WireStatus::kInternalError, e.what());
    }
    if (span.armed()) span.arg("status", to_string(response.status));
    if (!send_frame(fd, encode_response(response))) break;
  }
  // Deregister before closing: once closed, the fd number can be reused by
  // a concurrent accept, and erasing by value afterwards could remove the
  // new connection's entry instead. Marking the handler finished in the
  // same critical section lets the next accept join this thread.
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (auto it = impl_->live_fds.begin(); it != impl_->live_fds.end();
         ++it) {
      if (*it == fd) {
        impl_->live_fds.erase(it);
        break;
      }
    }
    impl_->finished.push_back(id);
  }
  ::close(fd);
}

// ---------------------------------------------------------------------------
// WireClient

WireClient WireClient::connect_unix(const std::string& path) {
  DCNAS_CHECK(path.size() < sizeof(sockaddr_un{}.sun_path),
              "wire: unix socket path too long");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DCNAS_CHECK(fd >= 0, "wire: cannot create unix socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw Error("wire: cannot connect to " + path + ": " + err);
  }
  return WireClient(fd);
}

WireClient WireClient::connect_tcp(const std::string& host,
                                   std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DCNAS_CHECK(fd >= 0, "wire: cannot create tcp socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw InvalidArgument("wire: bad IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw Error("wire: cannot connect to " + host + ":" +
                std::to_string(port) + ": " + err);
  }
  return WireClient(fd);
}

WireClient::WireClient(WireClient&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

WireClient& WireClient::operator=(WireClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

WireClient::~WireClient() { close(); }

void WireClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

WireResponse WireClient::infer_raw(const std::string& model,
                                   const Tensor& input,
                                   std::uint32_t deadline_us) {
  DCNAS_CHECK(fd_ >= 0, "wire: client is closed");
  WireRequest request;
  request.model = model;
  request.input = input;
  request.deadline_us = deadline_us;
  if (!send_frame(fd_, encode_request(request))) {
    throw Error("wire: send failed (connection lost)");
  }
  auto frame = read_frame(fd_);
  if (!frame) throw Error("wire: connection closed before response");
  return decode_response(frame->data(), frame->size());
}

Tensor WireClient::infer(const std::string& model, const Tensor& input,
                         std::uint32_t deadline_us) {
  WireResponse response = infer_raw(model, input, deadline_us);
  switch (response.status) {
    case WireStatus::kOk:
      return std::move(response.output);
    case WireStatus::kShutdown:
    case WireStatus::kQueueFull:
    case WireStatus::kShedOverload:
    case WireStatus::kDeadlineExpired:
      throw RejectedError(
          static_cast<RejectReason>(static_cast<std::uint8_t>(response.status)),
          "wire: " + response.message);
    case WireStatus::kBadRequest:
      throw InvalidArgument("wire: " + response.message);
    case WireStatus::kInternalError:
    default:
      throw Error("wire: " + response.message);
  }
}

}  // namespace dcnas::serve
