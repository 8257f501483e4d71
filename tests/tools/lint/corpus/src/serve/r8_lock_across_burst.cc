// R8 fixture: a mutex held across a transport send. SendBurst blocks for
// as long as the peer takes to drain its socket, so a stalled client holds
// the lock hostage for every other thread.
#include <mutex>
#include <span>
#include <string>

namespace costsense::serve {

class R8BurstShim {
 public:
  int SendBurst(std::span<std::string> frames) {
    return static_cast<int>(frames.size());
  }
};

class R8AcrossBurstFixture {
 public:
  int Reply(std::span<std::string> frames) {
    std::lock_guard<std::mutex> lock(burst_mu_);
    return burst_shim_.SendBurst(frames);
  }

 private:
  std::mutex burst_mu_;
  R8BurstShim burst_shim_;
};

}  // namespace costsense::serve
