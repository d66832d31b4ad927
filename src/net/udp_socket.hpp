// Thin RAII wrapper over a POSIX UDP socket, loopback-oriented: enough for
// a radio daemon on the same box or a LAN ingest port, and for the
// loopback test rigs. Receives are non-blocking (receive()) with an
// explicit poll-based wait(); sends address 127.0.0.1 directly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/datagram_source.hpp"

namespace witrack::net {

class UdpSocket final : public DatagramSource {
  public:
    /// Bind a datagram socket to 127.0.0.1:`port` (0 = kernel-assigned
    /// ephemeral port, read it back with local_port()). Throws
    /// std::runtime_error when the bind fails.
    explicit UdpSocket(std::uint16_t port = 0);
    ~UdpSocket() override;

    UdpSocket(UdpSocket&& other) noexcept;
    UdpSocket& operator=(UdpSocket&& other) noexcept;
    UdpSocket(const UdpSocket&) = delete;
    UdpSocket& operator=(const UdpSocket&) = delete;

    std::uint16_t local_port() const { return port_; }

    /// Fire one datagram at 127.0.0.1:`port`. Throws std::runtime_error on
    /// a send error (a full socket buffer is an error here on purpose: the
    /// loopback rigs must notice losing datagrams at the sender, not
    /// silently degrade).
    void send_to(std::uint16_t port, std::span<const std::uint8_t> bytes);

    // ----------------------------------------------- DatagramSource
    bool receive(std::vector<std::uint8_t>& datagram) override;
    bool wait(int timeout_ms) override;

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
    /// One recv lands here, and receive() copies out only the bytes that
    /// arrived, so the caller's reused buffer never grows to 64 KiB.
    std::vector<std::uint8_t> scratch_;
};

}  // namespace witrack::net
