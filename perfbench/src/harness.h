#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared machinery of the benchmark runner: the result report, the
// in-memory span recorder, the seeded POSHGNN set-up every workload
// serves, the timing decorator handed to the servers in traced runs,
// request records, the scheduled ticker and the two request senders
// (in-process Submit and the wire protocol over loopback TCP).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/geometry.h"
#include "core/poshgnn.h"
#include "core/recommender.h"
#include "data/dataset.h"
#include "serve/server.h"
#include "serve/server_types.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `epoch` to now.
double Since(Clock::time_point epoch);
/// The time point `seconds` after `epoch`.
Clock::time_point At(Clock::time_point epoch, double seconds);

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb();

/// CPU time of the calling thread, seconds.
double ThreadCpuSeconds();

/// Seconds of CPU time the hypervisor has taken from this machine's
/// CPUs so far (the steal column of /proc/stat); 0 where not reported.
double StealSeconds();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints. `correct` turns false on any failed output
/// check that is not tied to a single request; per-request failures are
/// counted in `failed`.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable reasons for every failed check (printed to stderr).
  std::vector<std::string> problems;

  void Fail(const std::string& why);
  void Add(bool per_layer_metric, const std::string& name, double value,
           const std::string& unit);
  /// The one-line JSON result: end-to-end metrics, or per-layer ones in
  /// a traced run.
  std::string Json(bool traced) const;
};

/// In-memory span recorder for traced runs: name, start, end, parent
/// span and the request the span belongs to (-1 for none). Disabled
/// recorders drop everything. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// Returns the new span's id (-1 when disabled).
  int64_t Add(const char* name, double start_s, double end_s,
              int64_t parent = -1, int64_t request = -1);
  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;
  size_t size() const;

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int64_t parent;
    int64_t request;
  };
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Set-up training: one-epoch passes over session 0, each the same work.
constexpr int kTrainPasses = 8;
/// The same passes, timed again on a throwaway model after the run.
constexpr int kLateTrainPasses = 4;

/// The model every workload serves: POSHGNN trained at set-up from a
/// fixed seed on the paper's Timik-like dataset (N = 200, T = 100, two
/// sessions; session 0 trains, session 1 is held out for the replay).
struct PaperModel {
  after::Dataset dataset;
  std::unique_ptr<after::Poshgnn> trained;
  double generate_s = 0.0;
  /// Thread CPU time of every training pass: the set-up passes, then the
  /// late ones.
  std::vector<double> pass_cpu_s;
  /// Wall time actually spent training at set-up.
  double train_wall_s = 0.0;

  /// train_s: kTrainPasses times the fastest pass. The host's speed for
  /// this cache-heavy code drifts by 20% to 40% over several seconds;
  /// passes taken at set-up and again after the run, tens of seconds
  /// apart, make it likely that one of them ran undisturbed, and thread
  /// CPU time leaves out the time the host took the CPU away (steal) or
  /// another thread ran instead.
  double TrainSeconds() const;
};

/// Generates the dataset and trains the model.
PaperModel TrainPaperModel();

/// Times kLateTrainPasses more passes, the same work as the set-up ones,
/// on a fresh model (the served model is left as it is).
void TimeLateTrainingPasses(PaperModel* model);

/// The dataset used to seed live rooms of `users` users: Timik-like,
/// one short session (live rooms only read its first frame and the
/// utility matrices).
after::Dataset LiveRoomDataset(int users, uint64_t seed);

/// Entry and exit of the primary model call made by this thread's most
/// recent request.
struct ModelCall {
  double entry_s = -1.0;
  double exit_s = -1.0;
};
/// Returns and clears this thread's last model call. Server workers run
/// a request's model call and then its completion callback on the same
/// thread, so the callback reads the call that served it.
ModelCall TakeModelCall();

/// Timing decorator around the shared primary: records the call's entry
/// and exit (seconds since `epoch`) in the calling thread's slot.
class TimedRecommender : public after::Recommender {
 public:
  TimedRecommender(std::shared_ptr<after::Recommender> inner,
                   Clock::time_point epoch)
      : inner_(std::move(inner)), epoch_(epoch) {}
  std::string name() const override { return inner_->name(); }
  bool thread_safe() const override { return inner_->thread_safe(); }
  std::vector<bool> Recommend(const after::StepContext& context) override;

 private:
  std::shared_ptr<after::Recommender> inner_;
  Clock::time_point epoch_;
};

/// One request's record. Written by the sender before the send and by
/// the completion (any thread) after it; read only after the phase has
/// drained.
struct Record {
  int64_t id = 0;
  int room = 0;  // index into the workload's room list
  int user = 0;
  double due_s = -1.0;   // scheduled send (open loop) or send (closed)
  double sent_s = -1.0;
  double done_s = -1.0;
  /// Traced in-process runs: the decorator's view of the model call.
  double submit_s = -1.0;
  double model_entry_s = -1.0;
  double model_exit_s = -1.0;
  bool prebuilt = false;  // target's occlusion graph built at submit
  int tick = -1;
  bool answered = false;
  /// Status OK, not a fallback answer, and structurally valid.
  bool ok = false;
  std::string why;  // first failed check, if any
  bool keep_answer = false;
  std::vector<bool> answer;  // kept when keep_answer
};

/// Fills `record` from a response (on the completing thread) and checks
/// the properties every answer must have: OK status, not a fallback, n
/// slots, a false self slot, at most `max_k` users.
void Complete(Record* record, const after::serve::FriendResponse& response,
              int n, int max_k, double now_s);

/// Sends requests to the system under test; completion fills the
/// record and then calls `on_done` (any thread).
class Sender {
 public:
  virtual ~Sender() = default;
  virtual void Send(Record* record, int room_id) = 0;
  std::function<void(Record*)> on_done;
};

/// Requests by RecommendationServer::Submit. `users[i]` is room index
/// i's user count (for the checks).
class InProcessSender : public Sender {
 public:
  InProcessSender(after::serve::RecommendationServer* server,
                  std::vector<int> users, int max_k, Clock::time_point epoch,
                  bool traced, double deadline_ms);
  void Send(Record* record, int room_id) override;

 private:
  after::serve::RecommendationServer* server_;
  std::vector<int> users_;
  int max_k_;
  Clock::time_point epoch_;
  bool traced_;
  double deadline_ms_;
};

/// Requests as wire frames over a few loopback TCP connections to a
/// NetServer front; a receiver thread matches responses to outstanding
/// requests by correlation id (record id + 1).
class WireSender : public Sender {
 public:
  WireSender(std::vector<int> users, int max_k, Clock::time_point epoch,
             double deadline_ms);
  ~WireSender() override;
  WireSender(const WireSender&) = delete;
  WireSender& operator=(const WireSender&) = delete;

  /// Dials `connections` links; false on failure.
  bool Connect(const std::string& host, int port, int connections);
  void Send(Record* record, int room_id) override;
  /// Stops the receiver and closes the links.
  void Close();
  /// Responses whose id matched no outstanding request.
  int64_t stray_responses() const { return stray_.load(); }

 private:
  void Receive();

  std::vector<int> users_;
  int max_k_;
  Clock::time_point epoch_;
  double deadline_ms_;
  std::vector<int> fds_;
  std::vector<std::unique_ptr<std::mutex>> send_mutex_;
  std::atomic<size_t> next_link_{0};
  /// Requests sent and not yet answered, by correlation id.
  std::mutex pending_mutex_;
  std::unordered_map<uint64_t, Record*> pending_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> stray_{0};
  std::thread receiver_;
};

/// Counts outstanding requests and lets a sender wait for a free slot
/// (closed loop) or for everything to drain.
class Outstanding {
 public:
  void Add();
  void Done();
  /// Waits until fewer than `limit` are outstanding or the deadline
  /// passes; false on timeout.
  bool WaitBelow(int limit, Clock::time_point deadline);

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int count_ = 0;
};

/// Runs room ticks on a fixed schedule on its own thread: room index r
/// ticks at CycleStart(r, rooms, period, c) for c = 1..cycles-1.
/// `tick(r)` performs one tick and returns its cost in ms.
class Ticker {
 public:
  Ticker(std::function<double(int)> tick, int rooms, double period_s,
         int cycles, Clock::time_point epoch);
  ~Ticker();
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;
  void Join();
  const std::vector<double>& durations_ms() const { return durations_ms_; }

 private:
  std::vector<double> durations_ms_;
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
