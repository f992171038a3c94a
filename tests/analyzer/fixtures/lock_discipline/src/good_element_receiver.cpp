// A call on a container element resolves to the element type's method:
// Ledger::settle never dispatches, so holding the lock across it is
// fine, even though a same-named Spreader::settle does dispatch.
#include <cstddef>
#include <mutex>
#include <vector>
#include "util/parallel.hpp"

namespace fx {

class Spreader {
 public:
  void settle(std::size_t n);
};

void Spreader::settle(std::size_t n) {
  util::parallel_for(std::size_t{0}, n, [](std::size_t) {});
}

class Ledger {
 public:
  void settle(std::size_t n);

 private:
  std::size_t total_ = 0;
};

void Ledger::settle(std::size_t n) { total_ += n; }

class Books {
 public:
  void close(std::size_t n);

 private:
  std::mutex m_;
  std::vector<Ledger> ledgers_;
};

void Books::close(std::size_t n) {
  std::lock_guard<std::mutex> g(m_);
  ledgers_[0].settle(n);
}

}  // namespace fx
