#include "serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "common/env.hpp"

namespace pwdft::serve {

namespace {

ErrorCode send_error_frame(int fd, ErrorCode code, const std::string& message) {
  wire::PutBuf p;
  p.u32(static_cast<std::uint32_t>(code));
  p.str(message);
  return wire::send_frame(fd, wire::MsgType::kError, p.bytes());
}

ErrorCode send_ack(int fd, ErrorCode code) {
  wire::PutBuf p;
  p.u32(static_cast<std::uint32_t>(code));
  return wire::send_frame(fd, wire::MsgType::kAck, p.bytes());
}

ErrorCode send_submit_result(int fd, const SubmitResult& r) {
  if (!r.ok()) return send_error_frame(fd, r.error, r.message);
  wire::PutBuf p;
  p.u64(r.id);
  return wire::send_frame(fd, wire::MsgType::kSubmitOk, p.bytes());
}

ErrorCode send_status(int fd, bool final, const JobStatus& status) {
  wire::PutBuf p;
  p.u8(final ? 1 : 0);
  wire::put_status(p, status);
  return wire::send_frame(fd, wire::MsgType::kStatus, p.bytes());
}

}  // namespace

ServerOptions ServerOptions::from_env() {
  ServerOptions o;
  o.listen = env::text("PWDFT_SERVE_LISTEN", o.listen);
  o.engine = JobEngineOptions::from_env();
  return o;
}

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)), engine_(opt_.engine), listener_(wire::listen_on(opt_.listen)) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Closing the listener makes the blocked accept() fail, ending the accept
  // thread; shutdown() first also unblocks it on platforms where close()
  // alone does not.
  // The accept thread reads listener_.fd, so it is cleared only after the
  // join.
  if (listener_.fd >= 0) {
    ::shutdown(listener_.fd, SHUT_RDWR);
    ::close(listener_.fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.fd = -1;
  // Unblock handler threads parked in engine wait*() calls, then kick their
  // sockets so blocked recv_frame() calls return. Handlers close their own
  // fds on the way out.
  engine_.begin_shutdown();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  conn_threads_.join_all();
  if (!listener_.unix_path.empty()) std::remove(listener_.unix_path.c_str());
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listener_.fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    conn_fds_.push_back(fd);
    conn_threads_.spawn([this, fd] { serve_connection(fd); });
  }
}

void Server::serve_connection(int fd) {
  wire::Frame frame;

  // Version handshake first: a peer speaking a different protocol learns so
  // from a typed kError frame instead of a mysteriously dropped socket.
  bool ok = false;
  const ErrorCode hrc = wire::recv_frame(fd, &frame);
  if (hrc != ErrorCode::kOk) {
    if (hrc != ErrorCode::kClosed)
      send_error_frame(fd, hrc, std::string("malformed frame: ") + error_name(hrc));
  } else if (frame.type != wire::MsgType::kHello) {
    send_error_frame(fd, ErrorCode::kBadFrame, "expected a hello frame first");
  } else {
    wire::GetBuf in(frame.payload);
    const std::uint32_t version = in.u32();
    if (!in.exhausted()) {
      send_error_frame(fd, ErrorCode::kBadFrame, "malformed hello payload");
    } else if (version != wire::kProtocolVersion) {
      send_error_frame(fd, ErrorCode::kVersionMismatch,
                       "server speaks protocol version " +
                           std::to_string(wire::kProtocolVersion) + ", client sent " +
                           std::to_string(version));
    } else {
      wire::PutBuf p;
      p.u32(wire::kProtocolVersion);
      ok = wire::send_frame(fd, wire::MsgType::kHelloOk, p.bytes()) == ErrorCode::kOk;
    }
  }

  while (ok) {
    const ErrorCode rc = wire::recv_frame(fd, &frame);
    if (rc == ErrorCode::kClosed) break;  // peer hung up cleanly
    if (rc != ErrorCode::kOk) {
      // Malformed frame: answer with the typed error, then drop — the
      // stream position is undefined after a framing failure.
      send_error_frame(fd, rc, std::string("malformed frame: ") + error_name(rc));
      break;
    }
    if (!handle(fd, frame)) break;
  }

  ::close(fd);
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (std::size_t i = 0; i < conn_fds_.size(); ++i)
    if (conn_fds_[i] == fd) {
      conn_fds_.erase(conn_fds_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
}

bool Server::handle(int fd, const wire::Frame& frame) {
  using wire::MsgType;
  wire::GetBuf in(frame.payload);
  switch (frame.type) {
    case MsgType::kSubmit: {
      JobSpec spec;
      if (!wire::get_spec(in, &spec) || !in.exhausted()) break;
      return send_submit_result(fd, engine_.submit(std::move(spec))) == ErrorCode::kOk;
    }
    case MsgType::kStatusReq: {
      const JobId id = in.u64();
      if (!in.exhausted()) break;
      const JobStatus s = engine_.status(id);
      if (s.error == ErrorCode::kUnknownJob)
        return send_error_frame(fd, s.error, s.message) == ErrorCode::kOk;
      return send_status(fd, /*final=*/true, s) == ErrorCode::kOk;
    }
    case MsgType::kWaitReq: {
      const JobId id = in.u64();
      if (!in.exhausted()) break;
      const JobStatus s = engine_.wait(id);
      if (s.error == ErrorCode::kUnknownJob)
        return send_error_frame(fd, s.error, s.message) == ErrorCode::kOk;
      return send_status(fd, /*final=*/true, s) == ErrorCode::kOk;
    }
    case MsgType::kStreamReq: {
      const JobId id = in.u64();
      if (!in.exhausted()) break;
      JobStatus s = engine_.status(id);
      if (s.error == ErrorCode::kUnknownJob)
        return send_error_frame(fd, s.error, s.message) == ErrorCode::kOk;
      // Current snapshot immediately, then one frame per progress change;
      // live progress is published per step boundary, so this streams every
      // step without polling.
      for (;;) {
        const bool final = is_terminal(s.state) || s.error == ErrorCode::kShutdown;
        if (send_status(fd, final, s) != ErrorCode::kOk) return false;
        if (final) return true;
        s = engine_.wait_progress(id, s.steps_done);
      }
    }
    case MsgType::kPreemptReq: {
      const JobId id = in.u64();
      if (!in.exhausted()) break;
      return send_ack(fd, engine_.preempt(id)) == ErrorCode::kOk;
    }
    case MsgType::kCancelReq: {
      const JobId id = in.u64();
      if (!in.exhausted()) break;
      return send_ack(fd, engine_.cancel(id)) == ErrorCode::kOk;
    }
    case MsgType::kResumeReq: {
      const JobId id = in.u64();
      if (!in.exhausted()) break;
      return send_submit_result(fd, engine_.resume(id)) == ErrorCode::kOk;
    }
    case MsgType::kResumeNameReq: {
      const std::string name = in.str();
      if (!in.ok() || !in.exhausted()) break;
      return send_submit_result(fd, engine_.resume(name)) == ErrorCode::kOk;
    }
    default:
      send_error_frame(fd, ErrorCode::kBadFrame,
                       "unexpected message type " +
                           std::to_string(static_cast<std::uint32_t>(frame.type)));
      return false;
  }
  // A request whose payload did not decode cleanly (overrun or trailing
  // bytes) is a framing error: typed answer, then drop.
  send_error_frame(fd, ErrorCode::kBadFrame, "malformed request payload");
  return false;
}

}  // namespace pwdft::serve
