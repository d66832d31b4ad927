#include "net/udp_socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace witrack::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Room for the largest UDP payload (just under 64 KiB).
constexpr std::size_t kMaxUdpPayload = 65536;

sockaddr_in loopback_addr(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return addr;
}

}  // namespace

UdpSocket::UdpSocket(std::uint16_t port) : scratch_(kMaxUdpPayload) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) throw_errno("UdpSocket: socket");
    const sockaddr_in addr = loopback_addr(port);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd_);
        fd_ = -1;
        throw_errno("UdpSocket: bind 127.0.0.1:" + std::to_string(port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        ::close(fd_);
        fd_ = -1;
        throw_errno("UdpSocket: getsockname");
    }
    port_ = ntohs(bound.sin_port);
}

UdpSocket::~UdpSocket() {
    if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(std::exchange(other.port_, 0)),
      scratch_(std::move(other.scratch_)) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
    if (this != &other) {
        if (fd_ >= 0) ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
        port_ = std::exchange(other.port_, 0);
        scratch_ = std::move(other.scratch_);
    }
    return *this;
}

void UdpSocket::send_to(std::uint16_t port, std::span<const std::uint8_t> bytes) {
    const sockaddr_in addr = loopback_addr(port);
    const ssize_t sent =
        ::sendto(fd_, bytes.data(), bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    if (sent < 0) throw_errno("UdpSocket: sendto 127.0.0.1:" + std::to_string(port));
    if (static_cast<std::size_t>(sent) != bytes.size())
        throw std::runtime_error("UdpSocket: short datagram send");
}

bool UdpSocket::receive(std::vector<std::uint8_t>& datagram) {
    // One recv per datagram into the socket's own 64 KiB buffer, so no
    // protocol-legal datagram is ever truncated by the read itself; only
    // the bytes received are copied out.
    const ssize_t got =
        ::recvfrom(fd_, scratch_.data(), scratch_.size(), MSG_DONTWAIT,
                   nullptr, nullptr);
    if (got < 0) {
        datagram.clear();
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            return false;
        throw_errno("UdpSocket: recvfrom");
    }
    datagram.assign(scratch_.begin(), scratch_.begin() + got);
    return true;
}

bool UdpSocket::wait(int timeout_ms) {
    pollfd pfd{fd_, POLLIN, 0};
    for (;;) {
        const int ready = ::poll(&pfd, 1, timeout_ms);
        if (ready < 0) {
            if (errno == EINTR) continue;
            throw_errno("UdpSocket: poll");
        }
        return ready > 0 && (pfd.revents & POLLIN) != 0;
    }
}

}  // namespace witrack::net
