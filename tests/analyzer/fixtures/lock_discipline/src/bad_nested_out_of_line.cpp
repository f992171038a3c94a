// A nested struct defined out of line (`struct Pool::Job { … }`) is its
// own class: its members must not replace Pool's, so the dispatching
// member `scatter_` still resolves while Pool's lock is held.
#include <cstddef>
#include <mutex>
#include "util/parallel.hpp"

namespace fx {

class Fanout {
 public:
  void spread(std::size_t n);
};

void Fanout::spread(std::size_t n) {
  util::parallel_for(std::size_t{0}, n, [](std::size_t) {});
}

class Pool {
 public:
  void run(std::size_t n);

 private:
  struct Job;
  std::mutex mu_;
  Fanout scatter_;
};

struct Pool::Job {
  std::size_t remaining = 0;
};

void Pool::run(std::size_t n) {
  std::lock_guard<std::mutex> g(mu_);
  scatter_.spread(n);  // expect: lock-across-dispatch
}

}  // namespace fx
