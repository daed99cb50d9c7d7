#include "serve/client.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "serve/json.hpp"

namespace megflood::serve {

namespace {

// Non-blocking connect bounded by ::poll: a listener that accepted the
// TCP handshake but never progresses (or a backlogged unix socket) times
// out instead of blocking the caller in ::connect forever.
void connect_with_timeout(int fd, const sockaddr* address,
                          socklen_t address_size, int timeout_ms,
                          const std::string& target) {
  const auto fail = [&](const std::string& why) {
    ::close(fd);
    throw std::runtime_error("client: cannot connect to " + target + ": " +
                             why);
  };
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    fail(std::strerror(errno));
  }
  if (::connect(fd, address, address_size) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) fail(std::strerror(errno));
    pollfd poller{};
    poller.fd = fd;
    poller.events = POLLOUT;
    const int ready = ::poll(&poller, 1, timeout_ms);
    if (ready == 0) fail("connect timed out");
    if (ready < 0) fail(std::strerror(errno));
    int error = 0;
    socklen_t error_size = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_size) != 0) {
      fail(std::strerror(errno));
    }
    if (error != 0) fail(std::strerror(error));
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) fail(std::strerror(errno));
}

}  // namespace

LineClient::~LineClient() { close(); }

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

void LineClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

LineClient LineClient::connect_unix(const std::string& path, int timeout_ms) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("client: unix socket path too long: " + path);
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("client: socket: ") +
                             std::strerror(errno));
  }
  connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&address),
                       sizeof(address), timeout_ms, "'" + path + "'");
  return LineClient(fd);
}

LineClient LineClient::connect_tcp(std::uint16_t port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("client: socket: ") +
                             std::strerror(errno));
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&address),
                       sizeof(address), timeout_ms,
                       "port " + std::to_string(port));
  return LineClient(fd);
}

bool LineClient::send_line(const std::string& line, int timeout_ms) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    // MSG_NOSIGNAL: a vanished server is a false return, not SIGPIPE.
    // MSG_DONTWAIT + the POLLOUT guard below bound a full kernel buffer
    // (a stalled server reader) by timeout_ms instead of blocking.
    const ssize_t got = ::send(fd_, framed.data() + sent,
                               framed.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd poller{};
        poller.fd = fd_;
        poller.events = POLLOUT;
        const int ready = ::poll(&poller, 1, timeout_ms);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) return false;  // timeout or poll error
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(got);
  }
  return true;
}

std::optional<std::string> LineClient::recv_line(int timeout_ms,
                                                 RecvStatus* status) {
  const auto out = [&](RecvStatus s) {
    if (status != nullptr) *status = s;
  };
  if (fd_ < 0) {
    out(RecvStatus::kClosed);
    return std::nullopt;
  }
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      out(RecvStatus::kLine);
      return line;
    }
    pollfd poller{};
    poller.fd = fd_;
    poller.events = POLLIN;
    const int ready = ::poll(&poller, 1, timeout_ms);
    if (ready == 0) {
      out(RecvStatus::kTimeout);
      return std::nullopt;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      out(RecvStatus::kClosed);
      return std::nullopt;
    }
    char chunk[4096];
    const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      out(RecvStatus::kClosed);  // EOF or error: the server is gone
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

// ---------------------------------------------------------------------------
// RetryingClient
// ---------------------------------------------------------------------------

RetryingClient::RetryingClient(std::function<LineClient()> connect,
                               RetryPolicy policy)
    : connect_(std::move(connect)),
      policy_(policy),
      jitter_(policy.seed),
      backoff_ms_(policy.base_backoff_ms) {}

void RetryingClient::sleep_ms(std::uint64_t ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Decorrelated jitter (exponential on average, randomized so a fleet of
// retrying clients does not re-dogpile the server in lockstep): each wait
// is uniform in [base, 3 * previous], capped.
std::uint64_t RetryingClient::next_backoff_ms() {
  const std::uint64_t lo = std::max<std::uint64_t>(1, policy_.base_backoff_ms);
  const std::uint64_t hi = std::max(lo + 1, 3 * backoff_ms_);
  backoff_ms_ = std::min(policy_.max_backoff_ms,
                         lo + jitter_.uniform_int(hi - lo));
  return backoff_ms_;
}

bool RetryingClient::reconnect_and_resubmit() {
  for (int attempt = 0; attempt < std::max(1, policy_.max_attempts);
       ++attempt) {
    if (attempt > 0) sleep_ms(next_backoff_ms());
    LineClient fresh;
    try {
      fresh = connect_();
    } catch (const std::runtime_error&) {
      continue;
    }
    if (!fresh.connected()) continue;
    client_ = std::move(fresh);
    const bool is_reconnect = connected_once_;
    if (is_reconnect) ++reconnects_;
    connected_once_ = true;
    backoff_ms_ = policy_.base_backoff_ms;  // healthy again: restart cheap
    bool all_sent = true;
    for (const auto& [id, line] : pending_) {
      // Idempotent by campaign identity: a resubmitted job whose first
      // attempt already completed resolves from the result cache with the
      // exact same bytes.
      if (!client_.send_line(line)) {
        all_sent = false;
        break;
      }
      if (is_reconnect) ++resubmits_;
    }
    if (all_sent) return true;
    client_.close();
  }
  return false;
}

bool RetryingClient::submit(const std::string& id,
                            const std::string& request_line) {
  pending_[id] = request_line;
  if (client_.connected() && client_.send_line(request_line)) return true;
  client_.close();
  // reconnect_and_resubmit resends every pending line, including this one.
  if (reconnect_and_resubmit()) return true;
  pending_.erase(id);
  return false;
}

std::optional<std::string> RetryingClient::recv_event(int timeout_ms) {
  const auto started = std::chrono::steady_clock::now();
  const auto remaining = [&]() -> int {
    if (timeout_ms < 0) return -1;
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    return static_cast<int>(
        std::max<long long>(0, timeout_ms - static_cast<long long>(elapsed)));
  };
  while (true) {
    if (!client_.connected() && !reconnect_and_resubmit()) return std::nullopt;
    RecvStatus status = RecvStatus::kClosed;
    auto line = client_.recv_line(remaining(), &status);
    if (status == RecvStatus::kTimeout) return std::nullopt;
    if (status == RecvStatus::kClosed) {
      client_.close();
      if (!reconnect_and_resubmit()) return std::nullopt;
      continue;
    }
    // One full event line.  Peek at it just enough to absorb backpressure
    // and to notice terminal events for pending jobs.
    std::string parse_error;
    const auto parsed = parse_json(*line, parse_error);
    if (!parsed || !parsed->is_object()) return line;
    const JsonValue* event = parsed->find("event");
    if (event == nullptr || !event->is_string()) return line;
    const JsonValue* id_field = parsed->find("id");
    const std::string id =
        (id_field != nullptr && id_field->is_string()) ? id_field->string : "";
    if (event->string == "rejected" && pending_.count(id) != 0) {
      const JsonValue* reason = parsed->find("reason");
      const bool retryable =
          reason != nullptr && reason->is_string() &&
          (reason->string == "queue_full" || reason->string == "draining");
      if (retryable) {
        const JsonValue* hint = parsed->find("retry_after_ms");
        const std::uint64_t hint_ms =
            (hint != nullptr && hint->is_number() && hint->number > 0)
                ? static_cast<std::uint64_t>(hint->number)
                : 0;
        ++rejected_retries_;
        sleep_ms(std::max(hint_ms, next_backoff_ms()));
        if (!client_.send_line(pending_[id])) client_.close();
        continue;
      }
      pending_.erase(id);  // too_large: permanent, surface to the caller
      return line;
    }
    if (event->string == "done" || event->string == "cancelled" ||
        event->string == "failed" ||
        (event->string == "error" && !id.empty())) {
      pending_.erase(id);
    }
    return line;
  }
}

}  // namespace megflood::serve
