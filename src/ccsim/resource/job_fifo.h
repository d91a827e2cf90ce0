#ifndef CCSIM_RESOURCE_JOB_FIFO_H_
#define CCSIM_RESOURCE_JOB_FIFO_H_

#include <cstddef>

namespace ccsim::resource {

/// An intrusive FIFO of jobs that live in their awaiting coroutine frames
/// (CpuJob, DiskJob): a job carries its own `next_` link, so queueing it
/// relinks one pointer and never allocates. `Job` befriends this class.
template <typename Job>
class JobFifo {
 public:
  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }
  Job* front() const { return head_; }

  void PushBack(Job* job) {
    job->next_ = nullptr;
    if (tail_ == nullptr) {
      head_ = job;
    } else {
      tail_->next_ = job;
    }
    tail_ = job;
    ++size_;
  }

  /// Unlinks and returns the head; the queue must not be empty.
  Job* PopFront() {
    Job* job = head_;
    head_ = job->next_;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    return job;
  }

 private:
  Job* head_ = nullptr;
  Job* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ccsim::resource

#endif  // CCSIM_RESOURCE_JOB_FIFO_H_
