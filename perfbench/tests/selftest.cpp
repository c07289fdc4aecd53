// Self-test of the open-loop generator's latency accounting on a fake
// clock: a stall must be charged to the requests queued behind it, because
// latency is measured from each request's due time, not from when it was
// finally sent.
//
//   perfbench_selftest   (exit code 0 = pass)
#include <cstdio>
#include <vector>

#include "open_loop.hpp"
#include "support.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// Time only moves when the generator sleeps or a request executes.
struct FakeClock {
  std::int64_t t = 0;
  std::int64_t now() const { return t; }
  void sleep_until(std::int64_t ns) {
    if (ns > t) t = ns;
  }
};

void stall_is_charged_from_due_time() {
  FakeClock clock;
  // Ten requests due 1 ms apart; each takes 0.1 ms except the third,
  // which stalls for 5 ms.
  std::vector<std::int64_t> offsets;
  for (int i = 0; i < 10; ++i) offsets.push_back(i * 1'000'000);
  auto exec = [&](std::size_t i, std::int64_t) {
    clock.t += i == 2 ? 5'000'000 : 100'000;
    return 0;
  };
  const auto recs = perfbench::run_open_loop(clock, 0, offsets, 0, exec);
  expect(recs.size() == 10, "one record per request");
  expect(perfbench::latency_from_due_ns(recs[0]) == 100'000,
         "an idle system's latency is its service time");
  expect(perfbench::latency_from_due_ns(recs[2]) == 5'000'000, "the stall itself");
  // Request 3 was due at 3 ms but could only be sent at 7 ms, when the
  // stall ended; it finishes at 7.1 ms, 4.1 ms after it was due.
  expect(recs[3].due_ns == 3'000'000, "due time comes from the schedule");
  expect(recs[3].sent_ns == 7'000'000, "the late generator sends it at 7 ms");
  expect(perfbench::latency_from_due_ns(recs[3]) == 4'100'000,
         "latency includes the wait behind the stall");
  expect(recs[3].done_ns - recs[3].sent_ns == 100'000,
         "timing from the send would hide the wait");
  // The backlog drains: request 6 (due 6 ms) starts at 7.3 ms...
  expect(perfbench::latency_from_due_ns(recs[6]) == 1'400'000,
         "queued requests drain in order");
  // ...and by request 8 (due 8 ms) the system has caught up.
  expect(perfbench::latency_from_due_ns(recs[8]) == 100'000,
         "once caught up, latency returns to the service time");
}

void threaded_clients_record_every_request() {
  struct Steady {
    std::int64_t now() const { return perfbench::now_ns(); }
    void sleep_until(std::int64_t) const {}
  } clock;
  std::vector<std::int64_t> offsets(200, 0);
  std::vector<int> seen(200, 0);
  auto exec = [&](std::size_t i, std::int64_t) {
    ++seen[i];
    return static_cast<int>(i % 3);
  };
  const auto recs = perfbench::run_open_loop(clock, perfbench::now_ns(), offsets, 3, exec);
  bool all_once = true;
  bool ordered = true;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    all_once = all_once && seen[i] == 1 && recs[i].status == static_cast<int>(i % 3);
    ordered = ordered && recs[i].sent_ns <= recs[i].start_ns &&
              recs[i].start_ns <= recs[i].done_ns;
  }
  expect(all_once, "every request executes exactly once with its status");
  expect(ordered, "sent <= start <= done for every request");
}

}  // namespace

int main() {
  stall_is_charged_from_due_time();
  threaded_clients_record_every_request();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
