// Open-loop load generation: requests are released on a precomputed
// schedule whatever the system's state, so a slow system builds a queue
// instead of receiving less load. Every request's latency is measured from
// the time it was DUE, which charges the wait a stall imposes on the
// requests behind it (no coordinated omission).
//
// The generator thread sleeps until each due time and enqueues the request;
// `clients` threads take requests in order and execute them. With
// clients == 0 the generator executes each request inline, which the
// self-test uses with a fake clock.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// One request's timeline, in the clock's nanoseconds.
struct RequestRecord {
  std::int64_t due_ns = 0;    // when the schedule said to send it
  std::int64_t sent_ns = 0;   // when the generator released it
  std::int64_t start_ns = 0;  // when a client began executing it
  std::int64_t done_ns = 0;   // when the call returned
  int status = 0;             // caller-defined outcome code
};

inline std::int64_t latency_from_due_ns(const RequestRecord& r) {
  return r.done_ns - r.due_ns;
}

/// Release requests at `base_ns + offsets_ns[i]` and execute them with
/// `exec(i, due_ns) -> status`. `Clock` provides now() and
/// sleep_until(ns). Returns one record per request, in schedule order.
template <class Clock, class Exec>
std::vector<RequestRecord> run_open_loop(Clock& clock, std::int64_t base_ns,
                                         const std::vector<std::int64_t>& offsets_ns,
                                         int clients, Exec&& exec) {
  std::vector<RequestRecord> records(offsets_ns.size());
  if (clients <= 0) {
    for (std::size_t i = 0; i < offsets_ns.size(); ++i) {
      RequestRecord& r = records[i];
      r.due_ns = base_ns + offsets_ns[i];
      clock.sleep_until(r.due_ns);
      r.sent_ns = clock.now();
      r.start_ns = r.sent_ns;
      r.status = exec(i, r.due_ns);
      r.done_ns = clock.now();
    }
    return records;
  }

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> queue;
  bool closed = false;
  std::exception_ptr error;

  auto client = [&] {
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        i = queue.front();
        queue.pop_front();
      }
      RequestRecord& r = records[i];
      r.start_ns = clock.now();
      try {
        r.status = exec(i, r.due_ns);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        r.status = -1;
      }
      r.done_ns = clock.now();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  auto close_and_join = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_all();
    for (auto& t : threads) t.join();
  };
  try {
    for (int c = 0; c < clients; ++c) threads.emplace_back(client);
    for (std::size_t i = 0; i < offsets_ns.size(); ++i) {
      RequestRecord& r = records[i];
      r.due_ns = base_ns + offsets_ns[i];
      clock.sleep_until(r.due_ns);
      r.sent_ns = clock.now();
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(i);
      }
      cv.notify_one();
    }
  } catch (...) {
    close_and_join();
    throw;
  }
  close_and_join();
  if (error) std::rethrow_exception(error);
  return records;
}

}  // namespace perfbench
