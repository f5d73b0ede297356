// Subprocess spawn/kill/pipe helpers for crash-isolated measurement workers.
//
// A measurement worker is a FORKED child of the tuner process: it inherits
// the batch context (graph, layout assignment, fused group, schedules) by
// copy-on-write, so nothing but candidate indices and results ever crosses
// the pipe. The parent talks to each child over a pair of anonymous pipes
// carrying length-prefixed, CRC-framed messages:
//
//   <u32 LE payload length> <u32 LE Crc32(payload)> <payload>
//
// The same Crc32 that frames the tuning database and artifacts (support/crc32)
// guards every frame, so a child that dies mid-write, scribbles on its pipe,
// or garbles a reply is DETECTED — the reader reports kCorrupt/kEof instead
// of handing corrupt bytes to the tuner. Frames are written with a single
// write(2); at the sizes used here (well under PIPE_BUF) that write is atomic,
// so a reader never sees an interleaved or torn frame from a live writer.
//
// fork() in a process with running threads is safe only because the children
// never touch anything but pure functions and their own pipe fds: the child
// body must not take locks, log, or allocate from arenas shared with other
// threads' in-flight state (see autotune/worker_pool.cc for the contract).

#ifndef ALT_SUPPORT_SUBPROCESS_H_
#define ALT_SUPPORT_SUBPROCESS_H_

#include <sys/types.h>

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"

namespace alt {

// A live forked worker and the parent's ends of its two pipes.
struct ChildProcess {
  pid_t pid = -1;
  int read_fd = -1;   // parent reads the child's replies here
  int write_fd = -1;  // parent writes requests here

  bool running() const { return pid > 0; }
};

// Forks a child that runs `body(request_fd, reply_fd)` and _exits with its
// return value (no atexit handlers, no static destructors — the parent's
// buffers must not be flushed twice). `close_in_child` lists additional fds
// the child must not inherit open — typically the pipe ends of its sibling
// workers, whose EOF detection would otherwise be defeated by this child
// keeping their write ends alive.
StatusOr<ChildProcess> SpawnChild(const std::function<int(int request_fd, int reply_fd)>& body,
                                  const std::vector<int>& close_in_child = {});

// SIGKILLs and reaps `child`, then closes the parent's pipe ends. Idempotent;
// safe on an already-dead or never-spawned child.
void KillChild(ChildProcess* child);

enum class FrameReadResult {
  kOk,       // *payload holds one verified frame
  kEof,      // clean end of stream (writer closed / died before a frame)
  kTimeout,  // deadline elapsed before a full frame arrived
  kCorrupt,  // CRC mismatch, oversized length, or a torn partial frame
  kError,    // read(2)/poll(2) failure
};

// Builds one frame: 4-byte little-endian payload length, 4-byte little-endian
// Crc32(payload), payload bytes.
std::string EncodeFrame(std::string_view payload);

// Writes all of `bytes` to `fd`, retrying short writes and EINTR. The caller
// must have SIGPIPE ignored (WorkerPool does this once) so a dead reader
// surfaces as an EPIPE Status, not a process-killing signal.
Status WriteAll(int fd, std::string_view bytes);

// EncodeFrame + WriteAll.
Status WriteFrame(int fd, std::string_view payload);

// Reads and verifies one frame. `deadline_ms` < 0 blocks indefinitely; >= 0
// bounds the TOTAL wait (poll + partial reads) from call time. On anything
// but kOk the stream should be considered dead: a frame boundary cannot be
// re-found after corruption or a partial read.
FrameReadResult ReadFrame(int fd, std::string* payload, int deadline_ms);

}  // namespace alt

#endif  // ALT_SUPPORT_SUBPROCESS_H_
