#ifndef HARMONY_COMMON_RING_QUEUE_H_
#define HARMONY_COMMON_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace harmony {

/// A FIFO over a power-of-two ring buffer that only ever grows. Unlike
/// std::deque, a queue cycling push_back/pop_front at a steady depth
/// allocates nothing once it has reached that depth. T must be default
/// constructible and movable; popped slots keep their (moved-from) value
/// until overwritten.
template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  /// The i-th element from the front.
  const T& operator[](size_t i) const {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) Grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  void Grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : slots_.size() * 2);
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace harmony

#endif  // HARMONY_COMMON_RING_QUEUE_H_
