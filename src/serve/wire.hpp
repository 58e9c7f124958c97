#pragma once

/// \file wire.hpp
/// Versioned binary wire protocol for the serve front-end: the frame and
/// payload codecs shared by serve::Server, serve::Client, and the engine's
/// durable JobSpec snapshots. The format follows the checkpoint-v2
/// discipline of src/io: an 8-byte magic whose last byte is the protocol
/// version, every field serialized individually in fixed-width
/// little-endian (never a raw struct image), and a trailing FNV-1a-64
/// checksum over everything before it, validated before any payload is
/// interpreted.
///
/// Frame layout (all integers little-endian):
///
///   offset  0  8 bytes  magic: 'P''W''D''F''T''N''W' + ('0' + version)
///   offset  8  u32      message type (MsgType)
///   offset 12  u64      payload length n
///   offset 20  n bytes  payload (per-message codec below)
///   offset 20+n u64     FNV-1a-64 over bytes [0, 20+n)
///
/// Decoding is total: every failure mode (bad magic, foreign version,
/// oversized length, short read, checksum mismatch, payload overrun or
/// trailing bytes) maps to a typed serve::ErrorCode — never an exception,
/// never a crash — because frames arrive from untrusted peers. The same
/// bytes double as the on-disk `<job>.spec.ckpt` snapshot the engine
/// replays after a process restart (save_spec_file/load_spec_file), so the
/// submit codec is also the durability codec.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/error.hpp"
#include "serve/job.hpp"

namespace pwdft::serve::wire {

/// Bumped on any incompatible frame or payload-layout change. A receiver
/// rejects foreign versions with kVersionMismatch instead of guessing.
constexpr std::uint32_t kProtocolVersion = 1;

/// Default cap on a declared payload length: a corrupt or hostile length
/// field must produce a typed error, not a giant allocation.
constexpr std::uint64_t kMaxFramePayload = 64ull << 20;

constexpr std::uint64_t kFrameHeaderBytes = 8 + 4 + 8;
constexpr std::uint64_t kFrameFooterBytes = 8;

/// Message types. Values are wire-stable: append, never renumber.
enum class MsgType : std::uint32_t {
  kHello = 1,          ///< client → server: u32 protocol version
  kHelloOk = 2,        ///< server → client: u32 protocol version
  kSubmit = 3,         ///< JobSpec payload → kSubmitOk | kError
  kSubmitOk = 4,       ///< u64 job id
  kStatusReq = 5,      ///< u64 id → kStatus (final flag always 1)
  kStatus = 6,         ///< u8 final + JobStatus payload
  kWaitReq = 7,        ///< u64 id; blocks server-side → terminal kStatus
  kStreamReq = 8,      ///< u64 id; a kStatus per progress change, last has final=1
  kPreemptReq = 9,     ///< u64 id → kAck
  kCancelReq = 10,     ///< u64 id → kAck
  kResumeReq = 11,     ///< u64 id → kSubmitOk | kError
  kResumeNameReq = 12, ///< string name → kSubmitOk | kError
  kAck = 13,           ///< u32 ErrorCode (kOk on success)
  kError = 14,         ///< u32 ErrorCode + string message
  kSpecSnapshot = 15,  ///< JobSpec payload; the on-disk spec-file frame
};

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

// --- payload cursors -------------------------------------------------------

/// Little-endian payload builder. i32/i64 travel as their two's-complement
/// bit patterns; f64 as the IEEE-754 image (std::bit_cast), so encode →
/// decode is bit-exact — the property the restart-resume path relies on.
class PutBuf {
 public:
  void u8(std::uint8_t v) { b_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);
  const std::vector<std::uint8_t>& bytes() const { return b_; }

 private:
  std::vector<std::uint8_t> b_;
};

/// Bounds-checked payload reader. An overrun latches !ok() and every later
/// read returns zero values; callers check ok() (and exhausted(), to reject
/// trailing bytes) once at the end instead of after every field.
class GetBuf {
 public:
  GetBuf(const std::uint8_t* data, std::size_t size) : p_(data), n_(size) {}
  explicit GetBuf(const std::vector<std::uint8_t>& v) : GetBuf(v.data(), v.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();

  bool ok() const { return ok_; }
  bool exhausted() const { return ok_ && pos_ == n_; }

 private:
  bool take(std::size_t n);  ///< advances pos_ or latches the failure
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- frame codec over byte buffers -----------------------------------------

/// Assembles magic + header + payload + checksum into one buffer.
std::vector<std::uint8_t> encode_frame(MsgType type, const std::vector<std::uint8_t>& payload);

/// Decodes a whole in-memory frame (spec files, tests). The buffer must
/// contain exactly one frame; trailing bytes are kBadFrame.
ErrorCode decode_frame(const std::uint8_t* data, std::size_t size, Frame* out,
                       std::uint64_t max_payload = kMaxFramePayload);

// --- message payload codecs ------------------------------------------------

/// The simulation-options block of a spec payload. Its bytes are also the
/// key of the engine's ground-state cache (serve/gs_cache.hpp): one encoder
/// for both, so a field that reaches the wire always reaches the key.
void put_sim(PutBuf& out, const core::SimulationOptions& sim);
/// Decodes put_sim's block; an overrun latches !in.ok().
void get_sim(GetBuf& in, core::SimulationOptions* sim);

void put_spec(PutBuf& out, const JobSpec& spec);
/// Field-by-field decode; false on overrun (caller maps to kBadFrame).
/// Performance knobs that are server-side configuration (FockOptions, FFT
/// dispatch/pipeline) are not on the wire — results are bit-identical
/// across those modes, so the server's own resolution applies.
bool get_spec(GetBuf& in, JobSpec* spec);

void put_status(PutBuf& out, const JobStatus& status);
bool get_status(GetBuf& in, JobStatus* status);

// --- trace <-> flat doubles ------------------------------------------------
// One td::TimePoint = kTracePointDoubles consecutive doubles; shared by the
// wire status codec and the engine's `.trace.ckpt` blob snapshots so both
// round-trip the identical bytes.

constexpr std::size_t kTracePointDoubles = 11;
std::vector<double> flatten_trace(const std::vector<td::TimePoint>& trace);
/// Throws pwdft::Error when the flat size is not a multiple of the point
/// width (a corrupt blob that passed its checksum cannot silently load).
std::vector<td::TimePoint> unflatten_trace(const std::vector<double>& flat);

// --- fd transport ----------------------------------------------------------

/// Writes one frame, restarting on EINTR and suppressing SIGPIPE. kIoError
/// on any syscall failure (including a peer that went away mid-write).
ErrorCode send_frame(int fd, MsgType type, const std::vector<std::uint8_t>& payload);

/// Reads one frame. kClosed on a clean EOF at a frame boundary, kTruncated
/// on EOF mid-frame, and the decode errors above for malformed bytes. On
/// header-level failures the stream position is undefined; the caller
/// should answer with a typed error frame and drop the connection.
ErrorCode recv_frame(int fd, Frame* out, std::uint64_t max_payload = kMaxFramePayload);

// --- addresses -------------------------------------------------------------
// "unix:<path>" (filesystem socket) or "tcp:<host>:<port>" with a numeric
// IPv4 host or "localhost"; "tcp:127.0.0.1:0" binds an ephemeral port.

struct Listener {
  int fd = -1;
  std::string address;    ///< resolved form (ephemeral port filled in)
  std::string unix_path;  ///< non-empty for unix sockets; unlinked on close
};

/// Binds + listens; throws pwdft::Error on an unparseable address or a
/// failed syscall (server startup is an environment error, not a request).
Listener listen_on(const std::string& address);

/// Connects; throws pwdft::Error on failure for the same reason.
int dial(const std::string& address);

// --- durable spec snapshots ------------------------------------------------

/// Atomically writes `spec` as a kSpecSnapshot frame (tmp + rename, the
/// io::checkpoint durability contract). Throws pwdft::Error on I/O failure.
void save_spec_file(const std::string& path, const JobSpec& spec);

/// Loads and fully validates a spec snapshot: frame decode, payload decode,
/// and JobSpec::validate() all typed — a corrupt or foreign file yields an
/// error code, never a crash or a half-initialized spec.
ErrorCode load_spec_file(const std::string& path, JobSpec* spec, std::string* why = nullptr);

}  // namespace pwdft::serve::wire
